//! `engine_audit`: repeated `Engine::audit` calls on a 500k-row
//! `synth::intersectional` population, no HTTP.

use crate::layers::EngineLayers;
use crate::report::Outcome;
use crate::stats::{self, PeakRss, Sample};
use fairbridge_audit::AuditPipeline;
use fairbridge_engine::{AuditSpec, Engine, EngineConfig};
use fairbridge_obs::{NoopSink, Telemetry};
use fairbridge_stats::descriptive::median;
use fairbridge_stats::rng::{Rng, StdRng};
use fairbridge_synth::intersectional::{generate, is_favored, IntersectionalConfig};
use fairbridge_tabular::Dataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Population size (the E19 scale).
pub const ROWS: usize = 500_000;

/// Prediction columns cycled through; the partition is shared by all.
const COLUMNS: usize = 8;

const PROTECTED: [&str; 2] = ["gender", "race"];

/// The workload's inputs and the reference report of each.
pub struct Plan {
    datasets: Vec<Dataset>,
    spec: AuditSpec,
    /// `AuditPipeline::run` on each dataset, rendered with `{:?}` so that
    /// every float is compared by its exact value.
    expected: Vec<String>,
}

impl Plan {
    /// Generates the population and its prediction columns from `seed`
    /// and runs the sequential pipeline on each for the reference.
    pub fn new(seed: u64, rows: usize) -> Result<Plan, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generate(
            &IntersectionalConfig {
                n: rows,
                ..IntersectionalConfig::default()
            },
            &mut rng,
        );
        let gender = base
            .categorical("gender")
            .map_err(|e| e.to_string())?
            .1
            .to_vec();
        let race = base
            .categorical("race")
            .map_err(|e| e.to_string())?
            .1
            .to_vec();
        let mut datasets = Vec::with_capacity(COLUMNS);
        for k in 0..COLUMNS {
            // Each column is a classifier with its own strength of the
            // planted intersectional bias.
            let bias = 0.05 + 0.02 * k as f64;
            let predictions = gender
                .iter()
                .zip(&race)
                .map(|(&g, &r)| {
                    let favored = is_favored(g == 1, r == 1);
                    rng.gen_bool(if favored { 0.5 + bias } else { 0.5 - bias })
                })
                .collect();
            datasets.push(
                base.with_predictions("decision", predictions)
                    .map_err(|e| e.to_string())?,
            );
        }
        let spec = AuditSpec::new(&PROTECTED, false);
        let pipeline = AuditPipeline::new(spec.config.clone());
        let expected = datasets
            .iter()
            .map(|ds| {
                pipeline
                    .run(ds, &PROTECTED, false)
                    .map(|r| format!("{r:?}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Plan {
            datasets,
            spec,
            expected,
        })
    }

    /// Audits dataset `k` on `engine`, returning the call's duration and
    /// whether the report equals the reference.
    fn audit(&self, engine: &Engine, k: usize) -> Result<(Duration, bool), String> {
        let t = Instant::now();
        let report = engine
            .audit(&self.datasets[k], &self.spec)
            .map_err(|e| e.to_string())?;
        let elapsed = t.elapsed();
        Ok((elapsed, format!("{report:?}") == self.expected[k]))
    }

    /// Audits for `seconds` in a closed loop, cycling the columns;
    /// returns the correct audits and the seconds spent inside
    /// `Engine::audit`.
    fn closed_loop(
        &self,
        engine: &Engine,
        seconds: f64,
        out: &mut Outcome,
    ) -> Result<(Vec<Sample>, f64), String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut samples = Vec::new();
        let mut busy = 0.0;
        let mut k = 0;
        while Instant::now() < deadline {
            out.attempted += 1;
            let (d, ok) = self.audit(engine, k % COLUMNS)?;
            busy += d.as_secs_f64();
            if ok {
                samples.push(Sample::new(start.elapsed(), d));
            } else {
                out.failed += 1;
            }
            k += 1;
        }
        Ok((samples, busy))
    }
}

fn properties(seed: u64, out: &mut Outcome) {
    out.property("workload", "engine_audit");
    out.property("seed", seed);
    out.property(
        "why",
        "the library path at the E19 scale with no HTTP: proxy ranking, subgroup search, \
         fingerprint on every cache hit, and the sharded scan",
    );
    out.property(
        "loop",
        "closed, 1 caller, Engine::default() (worker threads = cores)",
    );
    out.property(
        "input",
        format!(
            "{ROWS} rows, protected gender+race, subgroup depth 2, {COLUMNS} prediction columns"
        ),
    );
    out.property("cores", fairbridge_tabular::par::available_workers());
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = Plan::new(seed, ROWS)?;
    let mut out = Outcome::default();
    properties(seed, &mut out);

    let mut engine = None;
    let mut peaks = Vec::new();
    let setup = stats::median_setup(|| {
        // The previous engine is dropped first, so that only one is live.
        engine = None;
        let rss = PeakRss::reset()?;
        let t = Instant::now();
        let e = Engine::new(EngineConfig::default());
        let (_, ok) = plan.audit(&e, 0)?;
        let secs = t.elapsed().as_secs_f64();
        peaks.push(rss.added()?);
        if !ok {
            out.problems
                .push("cold audit differs from AuditPipeline::run".to_owned());
        }
        engine = Some(e);
        Ok(secs)
    })?;
    let engine = engine.ok_or("no engine")?;
    let before = engine.cache_stats();
    let (mut timed, _) = plan.closed_loop(&engine, seconds, &mut out)?;
    let after = engine.cache_stats();
    let summary = stats::summarize(&mut timed).ok_or("no audit succeeded")?;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.property(
        "partition_hit_share",
        format!(
            "{} ({hits} hits, {misses} misses)",
            hits as f64 / (hits + misses).max(1) as f64
        ),
    );
    out.closed_loop(&summary);
    out.metric("setup_s", setup, "s");
    out.metric("suite_s", COLUMNS as f64 / summary.throughput, "s");
    out.metric("peak_rss_mb", median(&peaks), "MiB");
    Ok(out)
}

/// The traced run: an untraced phase, then a phase with engine
/// telemetry on whose every audit is followed by the per-layer
/// decomposition on the same column.
pub fn run_traced(seed: u64, seconds: f64, rows: usize) -> Result<Outcome, String> {
    let plan = Plan::new(seed, rows)?;
    let mut out = Outcome::default();
    properties(seed, &mut out);

    let plain = Engine::new(EngineConfig::default());
    plan.audit(&plain, 0)?;
    let (untraced, untraced_busy) = plan.closed_loop(&plain, seconds * 0.3, &mut out)?;

    let traced =
        Engine::with_telemetry(EngineConfig::default(), Telemetry::new(Arc::new(NoopSink)));
    let whole = Engine::new(EngineConfig::default());
    let layer = Engine::new(EngineConfig::default());
    for e in [&traced, &whole, &layer] {
        plan.audit(e, 0)?;
    }
    let before = whole.cache_stats();
    let mut layers = EngineLayers::default();
    let (mut traced_busy, mut ops) = (0.0, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.7);
    while ops == 0 || Instant::now() < deadline {
        let k = ops as usize % COLUMNS;
        out.attempted += 1;
        let (d, ok) = plan.audit(&traced, k)?;
        traced_busy += d.as_secs_f64();
        let report = layers.decompose(&whole, &layer, &plan.datasets[k], &plan.spec)?;
        if !ok || format!("{report:?}") != plan.expected[k] {
            out.failed += 1;
        }
        ops += 1;
    }
    let after = whole.cache_stats();
    layers.report(ops, &mut out);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.metric(
        "engine.partition_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("engine.partition_hits", hits as f64, "count");
    out.metric("engine.partition_misses", misses as f64, "count");
    let untraced_rate = untraced.len() as f64 / untraced_busy;
    let traced_rate = ops as f64 / traced_busy;
    out.metric(
        "trace.overhead_share",
        (untraced_rate - traced_rate) / untraced_rate,
        "ratio",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_layers_add_up_and_reports_match_the_pipeline() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let out = run_traced(3, 1.0, 20_000).expect("traced run");
        assert!(out.correct(), "{:?}", out.problems);
        assert!(out.attempted > 0);
        assert!(out.value("engine.audit_ms").is_some_and(|v| v > 0.0));
        assert_eq!(out.value("engine.partition_misses"), Some(0.0));
    }
}
