//! Per-layer timing from outside the program: the benchmark times calls
//! into each layer's public functions on the workload's own inputs and
//! reports the whole, its layers, and the remainder as its own row.

use crate::report::Outcome;
use fairbridge_audit::proxy::association_ranking;
use fairbridge_audit::{AuditReport, SubgroupAuditor};
use fairbridge_engine::{dataset_fingerprint, from_accumulator, AuditSpec, Engine};
use fairbridge_tabular::Dataset;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.client_rtt_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.coalesced_share", "ratio"),
    ("serve.requests", "count"),
    ("wire.handle_ms", "ms"),
    ("wire.parse_ms", "ms"),
    ("wire.parse_mb_s", "MB/s"),
    ("wire.render_ms", "ms"),
    ("mitigate.reweigh_ms", "ms"),
    ("engine.audit_ms", "ms"),
    ("engine.fingerprint_ms", "ms"),
    ("engine.partition_ms", "ms"),
    ("engine.accumulate_ms", "ms"),
    ("metrics.finalize_ms", "ms"),
    ("audit.proxy_ms", "ms"),
    ("audit.subgroup_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.partition_hit_share", "ratio"),
    ("engine.partition_hits", "count"),
    ("engine.partition_misses", "count"),
    ("experiments.suite_s", "s"),
    ("experiments.E1_s", "s"),
    ("experiments.E2_s", "s"),
    ("experiments.E3_s", "s"),
    ("experiments.E4_s", "s"),
    ("experiments.E5_s", "s"),
    ("experiments.E6_s", "s"),
    ("experiments.E7_s", "s"),
    ("experiments.E8_s", "s"),
    ("experiments.E9_s", "s"),
    ("experiments.E10_s", "s"),
    ("experiments.E11_s", "s"),
    ("experiments.E12_s", "s"),
    ("experiments.E13_s", "s"),
    ("experiments.E14_s", "s"),
    ("experiments.E15_s", "s"),
    ("experiments.E16_s", "s"),
    ("experiments.E17_s", "s"),
    ("experiments.E18_s", "s"),
    ("experiments.E19_s", "s"),
    ("experiments.unattributed_s", "s"),
    ("experiments.timing_checks_failed", "count"),
    ("trace.overhead_share", "ratio"),
];

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("suite_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Orders the run's metrics as `list` gives them. A per-layer metric the
/// workload bypasses reads 0; a missing end-to-end metric is a problem.
pub fn select(out: &mut Outcome, list: &[(&str, &'static str)], missing_reads_zero: bool) {
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match out.value(name) {
            Some(v) => v,
            None if missing_reads_zero => 0.0,
            None => {
                out.problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(crate::report::Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
    out.metrics = metrics;
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Summed nanoseconds of one `Engine::audit` and of its layers, each
/// timed as a separate call on the same inputs.
#[derive(Debug, Default, Clone)]
pub struct EngineLayers {
    /// `Engine::audit`, the whole.
    pub whole: f64,
    /// `dataset_fingerprint`.
    pub fingerprint: f64,
    /// `Engine::partition` minus its fingerprint: the cache lookup, plus
    /// the build on a miss.
    pub partition: f64,
    /// `Engine::accumulate`, the sharded scan.
    pub accumulate: f64,
    /// `from_accumulator`.
    pub finalize: f64,
    /// `proxy::association_ranking`.
    pub proxy: f64,
    /// `SubgroupAuditor::audit`.
    pub subgroup: f64,
}

impl EngineLayers {
    /// Times `whole.audit(ds, spec)`, then each layer on the same inputs.
    /// `layer` must see the same sequence of datasets as `whole`, so that
    /// its partition cache hits and misses as the whole's did.
    pub fn decompose(
        &mut self,
        whole: &Engine,
        layer: &Engine,
        ds: &Dataset,
        spec: &AuditSpec,
    ) -> Result<AuditReport, String> {
        let protected: Vec<&str> = spec.protected.iter().map(String::as_str).collect();
        let t = Instant::now();
        let report = whole.audit(ds, spec).map_err(|e| e.to_string())?;
        self.whole += elapsed_ns(t);

        let t = Instant::now();
        black_box(dataset_fingerprint(ds, &protected).map_err(|e| e.to_string())?);
        let fingerprint = elapsed_ns(t);
        self.fingerprint += fingerprint;

        let t = Instant::now();
        let partition = layer.partition(ds, &protected).map_err(|e| e.to_string())?;
        self.partition += elapsed_ns(t) - fingerprint;

        // The outcome binding `Engine::audit` makes; its copies are left
        // to the remainder row.
        let (decisions, labels) = if spec.use_labels {
            (ds.labels().map_err(|e| e.to_string())?.to_vec(), None)
        } else {
            (
                ds.predictions().map_err(|e| e.to_string())?.to_vec(),
                ds.labels().ok().map(<[bool]>::to_vec),
            )
        };

        let t = Instant::now();
        let acc = layer
            .accumulate(&partition, &decisions, labels.as_deref())
            .map_err(|e| e.to_string())?;
        self.accumulate += elapsed_ns(t);

        let t = Instant::now();
        black_box(from_accumulator(
            &acc,
            spec.config.tolerance,
            spec.config.min_group_size,
        ));
        self.finalize += elapsed_ns(t);

        let t = Instant::now();
        if let Some(first) = protected.first() {
            black_box(association_ranking(ds, first)?);
        }
        self.proxy += elapsed_ns(t);

        let t = Instant::now();
        let auditor = SubgroupAuditor {
            max_depth: spec.config.subgroup_depth,
            min_support: spec.config.min_group_size,
            alpha: spec.config.alpha,
        };
        black_box(auditor.audit(ds, &protected, &decisions)?);
        self.subgroup += elapsed_ns(t);

        Ok(report)
    }

    /// Reports the engine rows as mean milliseconds per operation over
    /// `ops` operations (on `serve_large`, `/mitigate` operations do not
    /// reach the engine), with `engine.unattributed_ms` as the remainder.
    pub fn report(&self, ops: u64, out: &mut Outcome) {
        let per_op = |ns: f64| ns / ops.max(1) as f64 / 1e6;
        let layers = [
            ("engine.fingerprint_ms", self.fingerprint),
            ("engine.partition_ms", self.partition),
            ("engine.accumulate_ms", self.accumulate),
            ("metrics.finalize_ms", self.finalize),
            ("audit.proxy_ms", self.proxy),
            ("audit.subgroup_ms", self.subgroup),
        ];
        out.metric("engine.audit_ms", per_op(self.whole), "ms");
        for (name, ns) in layers {
            out.metric(name, per_op(ns), "ms");
        }
        let names = layers.map(|(n, _)| n);
        // The remainder is the outcome copies: a few percent.
        out.layers("engine.audit_ms", &names, "engine.unattributed_ms", 0.25);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = fairbridge_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        }
    }
}
