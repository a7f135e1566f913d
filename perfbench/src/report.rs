//! The result of one run: counts, metrics, recorded properties, and the
//! one-line JSON summary the benchmark prints last.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations started.
    pub attempted: u64,
    /// Timed operations that failed: transport error, non-200 status or
    /// output that differs from the reference.
    pub failed: u64,
    /// Run-level problems outside the timed operations (a wrong warm-up
    /// response, broken drain conservation, layers that do not add up).
    pub problems: Vec<String>,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Recorded workload properties, printed as `# key: value` lines.
    pub properties: Vec<(String, String)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Appends a recorded property.
    pub fn property(&mut self, key: &str, value: impl ToString) {
        self.properties.push((key.to_owned(), value.to_string()));
    }

    /// The value of a metric already reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a closed loop's latency and throughput metrics, with the
    /// tail percentile used, the sample count and the error rate.
    pub fn closed_loop(&mut self, s: &Summary) {
        self.property("tail_percentile", s.tail_description());
        self.property("samples", s.samples);
        self.property(
            "error_rate",
            format!(
                "{} ({} failed of {} attempted)",
                self.failed as f64 / self.attempted.max(1) as f64,
                self.failed,
                self.attempted
            ),
        );
        self.metric("latency_p50_ms", s.p50_ms, "ms");
        self.metric("latency_tail_ms", s.tail_ms, "ms");
        self.metric("throughput_ops_s", s.throughput, "ops/s");
    }

    /// Whether every operation and every run-level check was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Reports `remainder` as `whole` minus the sum of `parts` (all but
    /// the remainder already reported), and checks that the rows can be
    /// the layers of the whole: no part is larger than the whole, and each
    /// part and the remainder is at least -5% of the whole, the remainder
    /// at most `max_share` of it. Layers are timed as separate calls (and
    /// a part such as `engine.partition_ms` is the difference of two), so
    /// they may overshoot the whole a little; more than 5% means a layer
    /// is timed wrongly. A remainder above `max_share` means the layers
    /// miss work.
    pub fn layers(&mut self, whole: &str, parts: &[&str], remainder: &str, max_share: f64) {
        let Some(w) = self.value(whole) else {
            self.problems.push(format!("layers of {whole}: no whole"));
            return;
        };
        let floor = -0.05 * w;
        let mut sum = 0.0;
        for &part in parts {
            match self.value(part) {
                Some(v) if (floor..=w).contains(&v) => sum += v,
                Some(v) => {
                    self.problems.push(format!(
                        "layers of {whole}: {part} = {v} is outside [{floor}, {w}]"
                    ));
                    sum += v;
                }
                None => self
                    .problems
                    .push(format!("layers of {whole}: no row {part}")),
            }
        }
        let rest = w - sum;
        self.metric(remainder, rest, self.unit_of(whole));
        if !(rest >= floor && rest <= max_share * w) {
            self.problems.push(format!(
                "layers of {whole}: {remainder} = {rest} is outside [-0.05, {max_share}] of {w}"
            ));
        }
    }

    fn unit_of(&self, name: &str) -> &'static str {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    }

    /// The final summary line: `correct`, `attempted`, `failed`, and every
    /// metric with its unit. Non-finite values are written as 0 and make
    /// the run incorrect, since JSON has no spelling for them.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Prints the recorded properties, any problems, and the summary line
    /// last.
    pub fn print(&self) {
        for (k, v) in &self.properties {
            println!("# {k}: {v}");
        }
        for m in &self.metrics {
            println!("# metric {} = {} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("# problem: {p}");
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_p50_ms", 1.25, "ms");
        o.metric("setup_s", 0.5, "s");
        let v = fairbridge_obs::json::parse(&o.json()).expect("summary is JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(3));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(|x| x.as_str()),
            Some("ms")
        );
    }

    #[test]
    fn a_failed_operation_or_layers_that_do_not_fit_make_the_run_incorrect() {
        let fitting = |parts: &[(&str, f64)], max_share: f64| {
            let mut o = Outcome::default();
            o.metric("whole", 10.0, "ms");
            for &(name, v) in parts {
                o.metric(name, v, "ms");
            }
            let names: Vec<&str> = parts.iter().map(|p| p.0).collect();
            o.layers("whole", &names, "rest", max_share);
            (o.correct(), o.value("rest"))
        };
        assert_eq!(fitting(&[("a", 4.0), ("b", 5.0)], 0.5), (true, Some(1.0)));
        // Separately timed layers may overshoot the whole by up to 5%.
        assert!(fitting(&[("a", 4.0), ("b", 6.4)], 0.5).0);
        // A layer larger than its whole.
        assert_eq!(fitting(&[("a", 12.0)], 0.5), (false, Some(-2.0)));
        // Layers that together overshoot the whole by more than 5%.
        assert!(!fitting(&[("a", 5.0), ("b", 5.6)], 0.5).0);
        // A layer below -5% of the whole.
        assert!(fitting(&[("a", -0.4), ("b", 9.0)], 0.5).0);
        assert!(!fitting(&[("a", -1.0), ("b", 9.0)], 0.5).0);
        // A remainder above its stated share: the layers miss work.
        assert!(!fitting(&[("a", 4.0)], 0.5).0);
        // A missing row.
        let mut o = Outcome::default();
        o.metric("whole", 1.0, "ms");
        o.layers("whole", &["a"], "rest", 1.0);
        assert!(!o.correct());

        let o = Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        };
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
