//! `experiments`: full E1–E19 passes through `fairbridge_bench::run_one`,
//! the `fb-experiments` path.

use crate::report::Outcome;
use crate::stats::{self, PeakRss, Sample};
use fairbridge_bench::{run_one, run_one_traced, ExperimentResult, EXPERIMENT_IDS};
use fairbridge_obs::{NoopSink, Telemetry};
use fairbridge_stats::descriptive::median;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E19's only check that compares timings rather than outputs. Its
/// outcome is counted on its own (`experiments.timing_checks_failed`),
/// not as a failed operation; every other check is an output check.
pub const TIMING_CHECK: (&str, &str) = (
    "E19",
    "the multi-shard scan beats the single-threaded scan on 500k rows",
);

/// The seed every pass runs at: `fb-experiments`' default, at which the
/// committed `experiments_output.txt` was recorded. Other seeds change
/// the experiments' inputs, and at some of them output checks fail (see
/// perfbench/README.md), so `--seed` is recorded but does
/// not change this workload's inputs.
pub const EXPERIMENT_SEED: u64 = 424_242;

/// Repetitions of the set-up timed together, so that one timing is
/// well above the clock's resolution.
const SETUP_BATCH: u32 = 1_000;

/// One pass over `ids`.
struct Pass {
    /// `(id, wall time)` per experiment, in run order.
    times: Vec<(&'static str, Duration)>,
    wall: Duration,
    /// Experiments with a failing output check, with the check names.
    failed: Vec<String>,
    /// Failed runs of [`TIMING_CHECK`].
    timing_failed: u64,
}

fn judge(result: &ExperimentResult, pass: &mut Pass) {
    let mut failing = Vec::new();
    for check in result.checks.iter().filter(|c| !c.passed) {
        if (result.id, check.name.as_str()) == TIMING_CHECK {
            pass.timing_failed += 1;
        } else {
            failing.push(format!("{}: {} ({})", result.id, check.name, check.detail));
        }
    }
    if !failing.is_empty() {
        pass.failed.push(failing.join("; "));
    }
}

fn pass(ids: &[&'static str], seed: u64, telemetry: Option<&Telemetry>) -> Result<Pass, String> {
    let start = Instant::now();
    let mut p = Pass {
        times: Vec::with_capacity(ids.len()),
        wall: Duration::ZERO,
        failed: Vec::new(),
        timing_failed: 0,
    };
    for &id in ids {
        let t = Instant::now();
        let result = match telemetry {
            None => run_one(id, seed),
            Some(tel) => run_one_traced(id, seed, tel),
        }
        .ok_or_else(|| format!("unknown experiment {id}"))?;
        p.times.push((id, t.elapsed()));
        judge(&result, &mut p);
    }
    p.wall = start.elapsed();
    Ok(p)
}

fn record(p: &Pass, out: &mut Outcome) {
    out.attempted += p.times.len() as u64;
    out.failed += p.failed.len() as u64;
    out.problems.extend(p.failed.iter().cloned());
}

fn properties(seed: u64, out: &mut Outcome) {
    out.property("workload", "experiments");
    out.property("seed", seed);
    out.property("experiment_seed", EXPERIMENT_SEED);
    out.property(
        "why",
        "the fb-experiments path: the stats, learn, mitigate and synth kernels behind E1-E19",
    );
    out.property("loop", "closed, 1 caller, one experiment at a time");
}

/// The untraced run: full passes until `seconds` have gone (at least
/// one). The latency and throughput metrics are per pass, the user's
/// `fb-experiments` run; `attempted` and `failed` count experiments.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    properties(seed, &mut out);
    let seed = EXPERIMENT_SEED;
    // `fb-experiments` has no set-up of its own: before the first
    // experiment it only builds its id list and `Telemetry::off()`, and
    // each experiment generates its own inputs. That is what is timed
    // here, so that set-up work added to this path later shows.
    let setup = stats::median_setup(|| {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            let ids: Vec<String> = EXPERIMENT_IDS.iter().map(|id| (*id).to_owned()).collect();
            black_box((ids, Telemetry::off()));
        }
        Ok(t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH))
    })?;

    let start = Instant::now();
    let mut passes = Vec::new();
    let mut samples = Vec::new();
    // With no set-up to speak of, the peak is taken over the passes.
    let rss = PeakRss::reset()?;
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = pass(&EXPERIMENT_IDS, seed, None)?;
        samples.push(Sample::new(start.elapsed(), p.wall));
        record(&p, &mut out);
        passes.push(p);
    }

    let timing_failed: u64 = passes.iter().map(|p| p.timing_failed).sum();
    let peak_rss = rss.added()?;
    let summary = stats::summarize(&mut samples).ok_or("no pass ran")?;
    let suites: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    out.property("passes", passes.len());
    out.property(
        "experiments.timing_checks_failed",
        format!("{timing_failed} of {} ({})", passes.len(), TIMING_CHECK.1),
    );
    out.closed_loop(&summary);
    out.metric("setup_s", setup, "s");
    out.metric("suite_s", median(&suites), "s");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    Ok(out)
}

/// The traced run: one untraced pass timed per experiment, then one pass
/// with telemetry on for the overhead row.
pub fn run_traced(seed: u64, ids: &[&'static str]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    properties(seed, &mut out);
    let seed = EXPERIMENT_SEED;
    let untraced = pass(ids, seed, None)?;
    record(&untraced, &mut out);
    let telemetry = Telemetry::new(Arc::new(NoopSink));
    let traced = pass(ids, seed, Some(&telemetry))?;
    record(&traced, &mut out);

    let suite = untraced.wall.as_secs_f64();
    out.metric("experiments.suite_s", suite, "s");
    let mut names = Vec::with_capacity(ids.len() + 1);
    for (id, took) in &untraced.times {
        let name = format!("experiments.{id}_s");
        out.metric(&name, took.as_secs_f64(), "s");
        names.push(name);
    }
    let parts: Vec<&str> = names.iter().map(String::as_str).collect();
    // The remainder is the loop between experiments: microseconds.
    out.layers(
        "experiments.suite_s",
        &parts,
        "experiments.unattributed_s",
        0.01,
    );
    out.metric(
        "experiments.timing_checks_failed",
        (untraced.timing_failed + traced.timing_failed) as f64,
        "count",
    );
    out.metric(
        "trace.overhead_share",
        1.0 - suite / traced.wall.as_secs_f64(),
        "ratio",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_layers_add_up_to_the_pass() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let out = run_traced(424_242, &["E1", "E2", "E3", "E4", "E5", "E6"]).expect("traced pass");
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.attempted, 12);
        assert!(out.value("experiments.E3_s").is_some());
    }
}
