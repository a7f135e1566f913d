//! The experiment registry: E1–E19 from DESIGN.md §3.

mod engine;
mod extended;
mod sampling;
mod section3;
mod section4;

use fairbridge_obs::Telemetry;
use std::fmt;

/// One verified claim inside an experiment.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being checked (paper-facing phrasing).
    pub name: String,
    /// Whether the reproduction confirms it.
    pub passed: bool,
    /// Measured numbers backing the verdict.
    pub detail: String,
}

impl Check {
    pub(crate) fn new(name: &str, passed: bool, detail: String) -> Check {
        Check {
            name: name.to_owned(),
            passed,
            detail,
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Stable experiment id (E1..E19).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The paper artifact being reproduced.
    pub paper_claim: &'static str,
    /// Rendered result table.
    pub table: String,
    /// Claim-by-claim verification.
    pub checks: Vec<Check>,
}

impl ExperimentResult {
    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "━━ {} — {} ━━", self.id, self.title)?;
        writeln!(f, "paper: {}", self.paper_claim)?;
        writeln!(f, "{}", self.table)?;
        for c in &self.checks {
            writeln!(
                f,
                "  [{}] {} — {}",
                if c.passed { "ok" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

/// All experiment ids in order.
pub const EXPERIMENT_IDS: [&str; 19] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15",
    "E16", "E17", "E18", "E19",
];

/// Runs one experiment by id.
pub fn run_one(id: &str, seed: u64) -> Option<ExperimentResult> {
    run_one_traced(id, seed, &Telemetry::off())
}

/// Runs one experiment by id, recording a per-experiment span (e.g.
/// `experiment.E19`) and — for the experiments that exercise the engine —
/// the full engine/monitor event trail through `telemetry`.
pub fn run_one_traced(id: &str, seed: u64, telemetry: &Telemetry) -> Option<ExperimentResult> {
    let known = EXPERIMENT_IDS.contains(&id);
    if !known {
        return None;
    }
    let _span = telemetry.span(format!("experiment.{id}"));
    telemetry.counter("experiments.run").incr();
    let result = match id {
        "E1" => section3::e1_demographic_parity(),
        "E2" => section3::e2_conditional_statistical_parity(),
        "E3" => section3::e3_equal_opportunity(),
        "E4" => section3::e4_equalized_odds(),
        "E5" => section3::e5_demographic_disparity(),
        "E6" => section3::e6_conditional_demographic_disparity(),
        "E7" => section3::e7_counterfactual_fairness(seed),
        "E8" => section4::e8_equality_notions(seed),
        "E9" => section4::e9_proxy_discrimination(seed),
        "E10" => section4::e10_intersectional(seed),
        "E11" => section4::e11_feedback_loops(seed),
        "E12" => section4::e12_manipulation(seed),
        "E13" => sampling::e13_sample_complexity(seed, telemetry),
        "E14" => sampling::e14_group_blind_repair(seed, telemetry),
        "E15" => sampling::e15_criteria_engine(),
        "E16" => extended::e16_mitigation_matrix(seed),
        "E17" => extended::e17_individual_and_calibration(seed),
        "E18" => extended::e18_measurement_bias(seed),
        "E19" => engine::e19_execution_engine(seed, telemetry),
        _ => unreachable!("id membership checked above"),
    };
    Some(result)
}

/// Runs every experiment.
pub fn run_all(seed: u64) -> Vec<ExperimentResult> {
    run_all_traced(seed, &Telemetry::off())
}

/// Runs every experiment with telemetry (see [`run_one_traced`]).
pub fn run_all_traced(seed: u64, telemetry: &Telemetry) -> Vec<ExperimentResult> {
    EXPERIMENT_IDS
        .iter()
        .map(|id| run_one_traced(id, seed, telemetry).expect("registered id"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_and_passes(id: &str) {
        let result = run_one(id, 424_242).unwrap();
        assert_eq!(result.id, id);
        assert!(
            result.all_passed(),
            "{id} failed checks: {:#?}",
            result
                .checks
                .iter()
                .filter(|c| !c.passed)
                .collect::<Vec<_>>()
        );
        assert!(!result.table.is_empty());
    }

    /// One test per experiment, so the test harness can run them in
    /// parallel; `covers_every_id` keeps the list equal to
    /// [`EXPERIMENT_IDS`].
    macro_rules! every_experiment {
        ($($test:ident => $id:literal),* $(,)?) => {
            mod every_experiment_runs_and_passes {
                const IDS: &[&str] = &[$($id),*];

                $(
                    #[test]
                    fn $test() {
                        super::runs_and_passes($id);
                    }
                )*

                #[test]
                fn covers_every_id() {
                    assert_eq!(IDS, super::EXPERIMENT_IDS);
                }
            }
        };
    }

    every_experiment! {
        e1 => "E1", e2 => "E2", e3 => "E3", e4 => "E4", e5 => "E5",
        e6 => "E6", e7 => "E7", e8 => "E8", e9 => "E9", e10 => "E10",
        e11 => "E11", e12 => "E12", e13 => "E13", e14 => "E14", e15 => "E15",
        e16 => "E16", e17 => "E17", e18 => "E18", e19 => "E19",
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_one("E99", 1).is_none());
    }
}
