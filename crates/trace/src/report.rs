//! The `fb-trace report` aggregation: per-endpoint and per-tenant
//! latency summaries, trail-health counters, and the `--check`
//! invariants CI runs after every soak.
//!
//! All percentiles are nearest-rank over the actual request walls in
//! the trail (not histogram sketches): the analyzer holds every sample
//! in memory, so there is no reason to approximate. The breakdown rows
//! show each stage's share of the group's *total* wall time — a
//! throughput-weighted view, so one slow request cannot dominate the
//! percentages the way it dominates p99.

use crate::analyze::{quantile_sorted, Analysis, Breakdown, RequestTrace};
use crate::reader::ReadStats;
use crate::tree::Forest;
use fairbridge_obs::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate over one group of requests (an endpoint, a tenant, or the
/// whole trail).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Group key (`/audit`, `bank-a`, …).
    pub key: String,
    /// Requests in the group.
    pub n: u64,
    /// Of those, how many rode a coalesced computation.
    pub coalesced: u64,
    /// Median wall time, milliseconds.
    pub wall_p50_ms: f64,
    /// 99th-percentile wall time, milliseconds.
    pub wall_p99_ms: f64,
    /// Summed stage times across the group, nanoseconds.
    pub totals: Breakdown,
    /// Summed wall time across the group, nanoseconds.
    pub wall_total_ns: u64,
}

impl GroupSummary {
    fn from_requests(key: &str, requests: &[&RequestTrace]) -> GroupSummary {
        let mut walls: Vec<u64> = requests.iter().map(|r| r.wall_ns).collect();
        walls.sort_unstable();
        let mut totals = Breakdown::default();
        let mut wall_total_ns = 0u64;
        let mut coalesced = 0u64;
        for r in requests {
            totals.queue_ns += r.breakdown.queue_ns;
            totals.coalesce_ns += r.breakdown.coalesce_ns;
            totals.parse_ns += r.breakdown.parse_ns;
            totals.scan_ns += r.breakdown.scan_ns;
            totals.serialize_ns += r.breakdown.serialize_ns;
            totals.other_ns += r.breakdown.other_ns;
            wall_total_ns += r.wall_ns;
            coalesced += u64::from(r.coalesced);
        }
        GroupSummary {
            key: key.to_owned(),
            n: requests.len() as u64,
            coalesced,
            wall_p50_ms: quantile_sorted(&walls, 0.5) as f64 / 1e6,
            wall_p99_ms: quantile_sorted(&walls, 0.99) as f64 / 1e6,
            totals,
            wall_total_ns,
        }
    }

    /// A stage's share of the group's total wall time, in percent.
    fn share(&self, stage_ns: u64) -> f64 {
        if self.wall_total_ns == 0 {
            return 0.0;
        }
        stage_ns as f64 / self.wall_total_ns as f64 * 100.0
    }
}

/// The full report for one trail.
#[derive(Debug)]
pub struct Report {
    /// Reader disclosure: lines seen / parsed / skipped.
    pub stats: ReadStats,
    /// Spans reconstructed.
    pub spans: usize,
    /// Spans that never closed.
    pub unclosed: usize,
    /// `span_end` lines with no matching start.
    pub unmatched_ends: usize,
    /// Completions with no matching span tree.
    pub unmatched_completions: usize,
    /// The whole-trail aggregate.
    pub overall: GroupSummary,
    /// Per-endpoint aggregates, key-sorted.
    pub endpoints: Vec<GroupSummary>,
    /// Per-tenant aggregates, key-sorted.
    pub tenants: Vec<GroupSummary>,
    /// Critical path of the slowest request with a span tree.
    pub slowest_path: Vec<(String, u64)>,
}

/// Builds the report from an analyzed trail.
pub fn build_report(stats: ReadStats, forest: &Forest, analysis: &Analysis) -> Report {
    let all: Vec<&RequestTrace> = analysis.requests.iter().collect();
    let mut by_endpoint: BTreeMap<&str, Vec<&RequestTrace>> = BTreeMap::new();
    let mut by_tenant: BTreeMap<&str, Vec<&RequestTrace>> = BTreeMap::new();
    for r in &analysis.requests {
        by_endpoint.entry(r.endpoint.as_str()).or_default().push(r);
        by_tenant.entry(r.tenant.as_str()).or_default().push(r);
    }
    let slowest_path = analysis
        .requests
        .iter()
        .filter(|r| r.span_id.is_some())
        .max_by_key(|r| r.wall_ns)
        .and_then(|r| r.span_id)
        .map(|id| forest.critical_path(id))
        .unwrap_or_default();
    Report {
        stats,
        spans: forest.spans.len(),
        unclosed: forest.unclosed,
        unmatched_ends: forest.unmatched_ends,
        unmatched_completions: analysis.unmatched_completions,
        overall: GroupSummary::from_requests("all", &all),
        endpoints: by_endpoint
            .iter()
            .map(|(k, v)| GroupSummary::from_requests(k, v))
            .collect(),
        tenants: by_tenant
            .iter()
            .map(|(k, v)| GroupSummary::from_requests(k, v))
            .collect(),
        slowest_path,
    }
}

fn push_group_line(out: &mut String, label: &str, g: &GroupSummary) {
    let _ = writeln!(
        out,
        "{label} {key}: n={n} coalesced={c} wall p50={p50:.3}ms p99={p99:.3}ms | \
         queue={q:.1}% coalesce={co:.1}% parse={pa:.1}% scan={sc:.1}% \
         serialize={se:.1}% other={ot:.1}%",
        key = g.key,
        n = g.n,
        c = g.coalesced,
        p50 = g.wall_p50_ms,
        p99 = g.wall_p99_ms,
        q = g.share(g.totals.queue_ns),
        co = g.share(g.totals.coalesce_ns),
        pa = g.share(g.totals.parse_ns),
        sc = g.share(g.totals.scan_ns),
        se = g.share(g.totals.serialize_ns),
        ot = g.share(g.totals.other_ns),
    );
}

impl Report {
    /// Human-readable report. The first line's `requests=<n>` is load-
    /// bearing: CI compares it against the daemon's own drain summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fb-trace report: requests={} coalesced={} spans={} unclosed={}",
            self.overall.n, self.overall.coalesced, self.spans, self.unclosed
        );
        let _ = writeln!(
            out,
            "trail: lines={} events={} skipped={} unmatched_ends={} unmatched_completions={}",
            self.stats.lines,
            self.stats.events,
            self.stats.skipped,
            self.unmatched_ends,
            self.unmatched_completions
        );
        push_group_line(&mut out, "overall", &self.overall);
        for g in &self.endpoints {
            push_group_line(&mut out, "endpoint", g);
        }
        for g in &self.tenants {
            push_group_line(&mut out, "tenant", g);
        }
        if !self.slowest_path.is_empty() {
            out.push_str("slowest request critical path:");
            for (name, elapsed) in &self.slowest_path {
                let _ = write!(out, " {name}={:.3}ms", *elapsed as f64 / 1e6);
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable report, stable field order.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"requests\":{},\"coalesced\":{},\"spans\":{},\"unclosed\":{},\
             \"unmatched_ends\":{},\"unmatched_completions\":{},\
             \"lines\":{},\"events\":{},\"skipped\":{}",
            self.overall.n,
            self.overall.coalesced,
            self.spans,
            self.unclosed,
            self.unmatched_ends,
            self.unmatched_completions,
            self.stats.lines,
            self.stats.events,
            self.stats.skipped
        );
        out.push_str(",\"overall\":");
        push_group_json(&mut out, &self.overall);
        out.push_str(",\"endpoints\":[");
        for (i, g) in self.endpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_group_json(&mut out, g);
        }
        out.push_str("],\"tenants\":[");
        for (i, g) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_group_json(&mut out, g);
        }
        out.push_str("],\"slowest_path\":[");
        for (i, (name, elapsed)) in self.slowest_path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_str(&mut out, name);
            let _ = write!(out, ",\"elapsed_ns\":{elapsed}}}");
        }
        out.push_str("]}");
        out
    }

    /// The CI invariants. `Err` explains the first violated one:
    ///
    /// 1. the trail parsed into at least one event and one request;
    /// 2. every `request_completed` joined a `serve.request` span tree;
    /// 3. every joined request has a non-empty critical path rooted at
    ///    `serve.request`;
    /// 4. every request's stage decomposition sums back to its wall
    ///    time (the residual bucket makes this exact by construction —
    ///    a failure means the analyzer itself is broken).
    pub fn check(&self, forest: &Forest, analysis: &Analysis) -> Result<(), String> {
        if self.stats.events == 0 {
            return Err("trail contains no parseable events".to_owned());
        }
        if analysis.requests.is_empty() {
            return Err("trail contains no completed requests".to_owned());
        }
        if analysis.unmatched_completions > 0 {
            return Err(format!(
                "{} request completion(s) have no matching span tree",
                analysis.unmatched_completions
            ));
        }
        for (i, r) in analysis.requests.iter().enumerate() {
            let Some(root) = r.span_id else {
                return Err(format!("request #{i} lost its span tree"));
            };
            let path = forest.critical_path(root);
            match path.first() {
                Some((name, _)) if name == "serve.request" => {}
                _ => {
                    return Err(format!(
                        "request #{i} (tenant {}): critical path empty or not rooted at serve.request",
                        r.tenant
                    ));
                }
            }
            if r.breakdown.total_ns() != r.wall_ns {
                return Err(format!(
                    "request #{i} (tenant {}): breakdown sums to {} ns but wall is {} ns",
                    r.tenant,
                    r.breakdown.total_ns(),
                    r.wall_ns
                ));
            }
        }
        Ok(())
    }
}

fn push_group_json(out: &mut String, g: &GroupSummary) {
    out.push_str("{\"key\":");
    json::push_str(out, &g.key);
    let _ = write!(
        out,
        ",\"n\":{},\"coalesced\":{},\"wall_p50_ms\":{:.6},\
         \"wall_p99_ms\":{:.6},\"wall_total_ns\":{},\"queue_ns\":{},\
         \"coalesce_ns\":{},\"parse_ns\":{},\"scan_ns\":{},\"serialize_ns\":{},\
         \"other_ns\":{}}}",
        g.n,
        g.coalesced,
        g.wall_p50_ms,
        g.wall_p99_ms,
        g.wall_total_ns,
        g.totals.queue_ns,
        g.totals.coalesce_ns,
        g.totals.parse_ns,
        g.totals.scan_ns,
        g.totals.serialize_ns,
        g.totals.other_ns,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::reader::read_events;
    use crate::tree::build;

    fn request_trail(span: u64, tenant: &str, endpoint: &str, wall: u64, t0: u64) -> String {
        [
            format!(
                "{{\"t_ns\":{t0},\"thread\":1,\"span\":{span},\"parent\":null,\
                 \"kind\":\"span_start\",\"name\":\"serve.request\"}}"
            ),
            format!(
                "{{\"t_ns\":{},\"thread\":1,\"span\":{span},\"parent\":null,\
                 \"kind\":\"request_completed\",\"tenant\":\"{tenant}\",\
                 \"endpoint\":\"{endpoint}\",\"status\":200,\"coalesced\":false,\
                 \"elapsed_ns\":{wall}}}",
                t0 + wall
            ),
            format!(
                "{{\"t_ns\":{},\"thread\":1,\"span\":{span},\"parent\":null,\
                 \"kind\":\"span_end\",\"name\":\"serve.request\",\"elapsed_ns\":{wall}}}",
                t0 + wall
            ),
        ]
        .join("\n")
    }

    fn report_for(text: &str) -> (Report, Forest, Analysis) {
        let (events, stats) = read_events(text);
        let forest = build(&events);
        let analysis = analyze(&events, &forest);
        let report = build_report(stats, &forest, &analysis);
        (report, forest, analysis)
    }

    #[test]
    fn report_groups_by_endpoint_and_tenant() {
        let text = [
            request_trail(1, "bank-a", "/audit", 1_000_000, 0),
            request_trail(2, "bank-a", "/mitigate", 2_000_000, 10),
            request_trail(3, "bank-b", "/audit", 3_000_000, 20),
        ]
        .join("\n");
        let (report, forest, analysis) = report_for(&text);
        assert_eq!(report.overall.n, 3);
        assert_eq!(report.endpoints.len(), 2);
        assert_eq!(report.tenants.len(), 2);
        let audit = &report.endpoints[0];
        assert_eq!(audit.key, "/audit");
        assert_eq!(audit.n, 2);
        let bank_a = &report.tenants[0];
        assert_eq!(bank_a.key, "bank-a");
        assert_eq!(bank_a.n, 2);
        assert!(report.check(&forest, &analysis).is_ok());
        // The slowest request drives the critical-path line.
        assert_eq!(report.slowest_path[0].1, 3_000_000);
    }

    #[test]
    fn text_report_leads_with_the_request_count() {
        let (report, _, _) = report_for(&request_trail(1, "t", "/audit", 500, 0));
        let text = report.render_text();
        assert!(
            text.starts_with("fb-trace report: requests=1 "),
            "CI scrapes requests= from the first line:\n{text}"
        );
        assert!(text.contains("tenant t: n=1"));
    }

    #[test]
    fn json_report_parses_with_the_obs_parser() {
        let (report, _, _) = report_for(&request_trail(1, "t", "/audit", 500, 0));
        let v = fairbridge_obs::json::parse(&report.render_json()).expect("valid json");
        assert_eq!(
            v.get("requests")
                .and_then(fairbridge_obs::json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("overall")
                .and_then(|o| o.get("wall_total_ns"))
                .and_then(fairbridge_obs::json::Value::as_u64),
            Some(500)
        );
    }

    #[test]
    fn json_report_escapes_trail_strings() {
        // Tenant `a"b\c` and a child span named `wire."parse"`, both
        // escaped as the telemetry writer escapes them.
        let text = [
            request_trail(1, r#"a\"b\\c"#, "/audit", 1_000, 0),
            r#"{"t_ns":1,"thread":1,"span":2,"parent":1,"kind":"span_start","name":"wire.\"parse\""}"#
                .to_owned(),
            r#"{"t_ns":901,"thread":1,"span":2,"parent":1,"kind":"span_end","name":"wire.\"parse\"","elapsed_ns":900}"#
                .to_owned(),
        ]
        .join("\n");
        let (report, _, _) = report_for(&text);
        let v = json::parse(&report.render_json()).expect("valid json");
        let tenants = v.get("tenants").and_then(json::Value::as_arr).unwrap();
        assert_eq!(
            tenants[0].get("key").and_then(json::Value::as_str),
            Some(r#"a"b\c"#)
        );
        let path = v.get("slowest_path").and_then(json::Value::as_arr).unwrap();
        let names: Vec<_> = path
            .iter()
            .filter_map(|p| p.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(names, ["serve.request", r#"wire."parse""#]);
    }

    #[test]
    fn check_rejects_a_trail_with_orphan_completions() {
        let text = "{\"t_ns\":9,\"thread\":1,\"span\":42,\"parent\":null,\
                    \"kind\":\"request_completed\",\"tenant\":\"t\",\
                    \"endpoint\":\"/audit\",\"status\":200,\"coalesced\":false,\
                    \"elapsed_ns\":100}";
        let (report, forest, analysis) = report_for(text);
        let err = report.check(&forest, &analysis).expect_err("must fail");
        assert!(err.contains("no matching span tree"), "{err}");
    }

    #[test]
    fn check_rejects_an_empty_trail() {
        let (report, forest, analysis) = report_for("");
        assert!(report.check(&forest, &analysis).is_err());
    }
}
