//! `serve_small` and `serve_large`: two closed-loop clients on two
//! keep-alive connections against an in-process daemon running
//! `ServerConfig::default()`.

use crate::bodies::{self, Body};
use crate::client::{self, Client, ClientLog, Expected, Stop};
use crate::layers::EngineLayers;
use crate::report::Outcome;
use crate::stats::{self, PeakRss, Sample, Summary};
use fairbridge_engine::{Engine, EngineConfig};
use fairbridge_obs::json::{self, Value};
use fairbridge_obs::{NoopSink, Telemetry};
use fairbridge_serve::http::Payload;
use fairbridge_serve::{start, wire, ServerConfig, ServerHandle};
use fairbridge_stats::descriptive::{mean, median};
use fairbridge_stats::rng::StdRng;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client threads, each with its own connection.
pub const CLIENTS: usize = 2;

/// The two daemon workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 96-row `/audit` bodies, a disjoint pool of 8 per connection.
    Small,
    /// 10k-row bodies, one shared pool of 64 walked in step by both
    /// connections; every 4th is a `/mitigate` reweigh.
    Large,
}

impl Shape {
    fn why(self) -> &'static str {
        match self {
            Shape::Small => {
                "per-request fixed cost (socket, read loop, handoff, slot wake); \
                 nothing coalesces and every partition lookup hits after warm-up"
            }
            Shape::Large => {
                "parse-bound 10k-row bodies; identical requests overlap and coalesce, \
                 a pool of twice the partition cache's capacity makes every lookup miss, \
                 and /mitigate exercises the large-response write"
            }
        }
    }
}

/// A workload's inputs, reference outputs and per-connection order.
/// Each body is held once, inside its encoded request.
pub struct Plan {
    shape: Shape,
    /// `/audit` or `/mitigate`, per request.
    endpoints: Vec<&'static str>,
    /// Head and body of each request, as the client writes it.
    requests: Vec<Vec<u8>>,
    /// Where each request's body starts.
    body_at: Vec<usize>,
    expected: Vec<Expected>,
    orders: [Vec<usize>; CLIENTS],
}

/// What the daemon must answer for `body`: the wire handler run on a
/// fresh engine — the daemon's byte-identity contract.
pub fn reference(body: &Body) -> Payload {
    match body.endpoint {
        "/audit" => wire::handle_audit(
            &Engine::new(EngineConfig::default()),
            &body.bytes,
            &Telemetry::off(),
        ),
        _ => wire::handle_mitigate(&body.bytes, &Telemetry::off()),
    }
}

impl Plan {
    /// Generates the bodies from `seed` and computes every reference
    /// response.
    pub fn new(shape: Shape, seed: u64) -> Result<Plan, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bodies: Vec<Body> = match shape {
            Shape::Small => (0..16).map(|_| bodies::audit(96, &mut rng)).collect(),
            Shape::Large => (0..64)
                .map(|i| {
                    if i % 4 == 3 {
                        bodies::mitigate(10_000, &mut rng)
                    } else {
                        bodies::audit(10_000, &mut rng)
                    }
                })
                .collect(),
        };
        let mut expected = Vec::with_capacity(bodies.len());
        for (i, b) in bodies.iter().enumerate() {
            let payload = reference(b);
            if payload.status != 200 {
                return Err(format!(
                    "body {i}: reference status {}: {}",
                    payload.status,
                    String::from_utf8_lossy(&payload.body)
                ));
            }
            expected.push(Expected::from_payload(&payload));
        }
        let (mut endpoints, mut requests, mut body_at) = (Vec::new(), Vec::new(), Vec::new());
        for b in bodies {
            let request = client::encode("POST", b.endpoint, &b.bytes);
            endpoints.push(b.endpoint);
            body_at.push(request.len() - b.bytes.len());
            requests.push(request);
        }
        let orders = match shape {
            Shape::Small => [(0..8).collect(), (8..16).collect()],
            Shape::Large => [(0..64).collect(), (0..64).collect()],
        };
        Ok(Plan {
            shape,
            endpoints,
            requests,
            body_at,
            expected,
            orders,
        })
    }

    /// The body of request `i`.
    fn body(&self, i: usize) -> &[u8] {
        &self.requests[i][self.body_at[i]..]
    }

    /// The warm-up requests of connection `c`: every body of the pool
    /// once, split across the connections.
    fn warm_order(&self, c: usize) -> Vec<usize> {
        match self.shape {
            Shape::Small => self.orders[c].clone(),
            Shape::Large => (c..self.requests.len()).step_by(CLIENTS).collect(),
        }
    }

    fn mitigate_share(&self) -> f64 {
        let n = self.endpoints.iter().filter(|&&e| e == "/mitigate").count();
        n as f64 / self.endpoints.len() as f64
    }

    fn body_bytes(&self) -> String {
        let sizes: Vec<usize> = (0..self.requests.len())
            .map(|i| self.body(i).len())
            .collect();
        let total: usize = sizes.iter().sum();
        format!(
            "min {} mean {} max {}",
            sizes.iter().min().unwrap_or(&0),
            total / sizes.len().max(1),
            sizes.iter().max().unwrap_or(&0)
        )
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self, i: usize) {
        self.expected[i].corrupt(i * 31 + 7);
    }
}

/// A running daemon and the benchmark's connections to it.
pub struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Daemon {
    /// Starts the daemon, waits for `/healthz`, and sends the warm-up
    /// requests; returns the daemon and the seconds this took. A wrong
    /// warm-up response is recorded in `problems`.
    pub fn start(
        plan: &Plan,
        telemetry: Telemetry,
        problems: &mut Vec<String>,
    ) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let handle =
            start(ServerConfig::default(), telemetry).map_err(|e| format!("start: {e}"))?;
        let mut daemon = Daemon {
            clients: Vec::with_capacity(CLIENTS),
            handle,
        };
        for _ in 0..CLIENTS {
            daemon.clients.push(Client::connect(daemon.handle.addr())?);
        }
        daemon.clients[0].get("/healthz")?;
        for c in 0..CLIENTS {
            let order = plan.warm_order(c);
            let log = client::drive(
                &mut daemon.clients[c],
                &order,
                &plan.requests,
                &plan.expected,
                Stop::After(order.len() as u64),
                Instant::now(),
            );
            if let Some(e) = log.first_error {
                problems.push(format!("warm-up: {e}"));
            }
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Reads `/metrics`.
    pub fn scrape(&mut self) -> Result<Scrape, String> {
        let body = self.clients[0].get("/metrics")?;
        let text = String::from_utf8(body).map_err(|_| "/metrics is not UTF-8")?;
        Scrape::parse(&json::parse(&text)?)
    }

    /// Closes the connections and drains the daemon, recording broken
    /// drain conservation or backpressure in `problems`.
    pub fn stop(self, problems: &mut Vec<String>) {
        drop(self.clients);
        let s = self.handle.drain();
        if s.received != s.completed + s.rejected || s.rejected != 0 {
            problems.push(format!("drain: {s:?}"));
        }
    }

    /// Both clients in a closed loop for `seconds`, starting together.
    pub fn closed_loop(&mut self, plan: &Plan, seconds: f64) -> Loop {
        let barrier = Barrier::new(CLIENTS);
        let origin = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&plan.orders)
                .map(|(client, order)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let stop = Stop::At(Instant::now() + Duration::from_secs_f64(seconds));
                        client::drive(client, order, &plan.requests, &plan.expected, stop, origin)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        Loop::from_logs(logs)
    }
}

/// Both clients' logs of one closed loop, merged.
pub struct Loop {
    /// Correct requests, timed from the loop's start.
    pub samples: Vec<Sample>,
    /// Requests started.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// First failure per client.
    pub errors: Vec<String>,
}

impl Loop {
    fn from_logs(logs: Vec<ClientLog>) -> Loop {
        let mut out = Loop {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        for log in logs {
            out.samples.extend(log.samples);
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.errors.extend(log.first_error);
        }
        out
    }

    fn summary(&mut self) -> Result<Summary, String> {
        stats::summarize(&mut self.samples)
            .ok_or_else(|| format!("no request succeeded: {:?}", self.errors))
    }

    fn record(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.problems.extend(self.errors.iter().cloned());
    }
}

/// The `/metrics` fields the benchmark reads.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    received: f64,
    coalesced: f64,
    hits: f64,
    misses: f64,
    /// `(name, count, sum in ns)` of every histogram.
    histograms: Vec<(String, f64, f64)>,
}

impl Scrape {
    fn parse(v: &Value) -> Result<Scrape, String> {
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("/metrics: no number {k:?}"))
        };
        let cache = v
            .get("partition_cache")
            .ok_or("/metrics: no partition_cache")?;
        let mut histograms = Vec::new();
        if let Some(Value::Obj(members)) = v.get("histograms") {
            for (name, h) in members {
                histograms.push((name.clone(), num(h, "count")?, num(h, "sum")?));
            }
        }
        Ok(Scrape {
            received: num(v, "received")?,
            coalesced: num(v, "coalesced_hits")?,
            hits: num(cache, "hits")?,
            misses: num(cache, "misses")?,
            histograms,
        })
    }

    fn histogram_sum(&self, name: &str) -> f64 {
        self.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |h| h.2)
    }

    /// Counters accumulated between `self` and the later scrape `after`.
    fn delta(&self, after: &Scrape) -> Scrape {
        Scrape {
            received: after.received - self.received,
            coalesced: after.coalesced - self.coalesced,
            hits: after.hits - self.hits,
            misses: after.misses - self.misses,
            histograms: after
                .histograms
                .iter()
                .map(|(n, c, s)| {
                    let before = self.histograms.iter().find(|h| &h.0 == n);
                    (
                        n.clone(),
                        c - before.map_or(0.0, |h| h.1),
                        s - before.map_or(0.0, |h| h.2),
                    )
                })
                .collect(),
        }
    }

    fn coalesced_share(&self) -> f64 {
        self.coalesced / self.received.max(1.0)
    }

    fn hit_share(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }
}

fn properties(plan: &Plan, seed: u64, out: &mut Outcome) {
    let name = match plan.shape {
        Shape::Small => "serve_small",
        Shape::Large => "serve_large",
    };
    out.property("workload", name);
    out.property("seed", seed);
    out.property("why", plan.shape.why());
    out.property(
        "loop",
        "closed, 2 client threads on 2 keep-alive connections, TCP_NODELAY, one write per request",
    );
    out.property("bodies", plan.requests.len());
    out.property("body_bytes", plan.body_bytes());
    out.property("mitigate_share", plan.mitigate_share());
}

/// The untraced run: end-to-end metrics with daemon telemetry off.
pub fn run(shape: Shape, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = Plan::new(shape, seed)?;
    let mut out = Outcome::default();
    properties(&plan, seed, &mut out);

    let rss = PeakRss::reset()?;
    let mut daemon: Option<Daemon> = None;
    let setup = stats::median_setup(|| {
        if let Some(d) = daemon.take() {
            d.stop(&mut out.problems);
        }
        let (d, secs) = Daemon::start(&plan, Telemetry::off(), &mut out.problems)?;
        daemon = Some(d);
        Ok(secs)
    })?;
    let peak_rss = rss.peak()?;
    let mut daemon = daemon.ok_or("no daemon started")?;
    let before = daemon.scrape()?;
    let mut timed = daemon.closed_loop(&plan, seconds);
    let counters = before.delta(&daemon.scrape()?);
    daemon.stop(&mut out.problems);
    timed.record(&mut out);
    let summary = timed.summary()?;

    out.property("coalesced_share", counters.coalesced_share());
    out.property(
        "partition_hit_share",
        format!(
            "{} ({} hits, {} misses)",
            counters.hit_share(),
            counters.hits,
            counters.misses
        ),
    );
    out.closed_loop(&summary);
    out.metric("setup_s", setup, "s");
    out.metric(
        "suite_s",
        plan.requests.len() as f64 / summary.throughput,
        "s",
    );
    out.metric("peak_rss_mb", peak_rss, "MiB");
    Ok(out)
}

/// The traced run: an untraced and a traced daemon phase (the traced
/// daemon's `/metrics` carries the server-side histograms), then direct
/// calls into the wire and engine layers on the same bodies.
pub fn run_traced(shape: Shape, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = Plan::new(shape, seed)?;
    let mut out = Outcome::default();
    properties(&plan, seed, &mut out);

    let (mut plain, _) = Daemon::start(&plan, Telemetry::off(), &mut out.problems)?;
    let mut untraced = plain.closed_loop(&plan, seconds * 0.35);
    plain.stop(&mut out.problems);
    untraced.record(&mut out);

    let telemetry = Telemetry::new(Arc::new(NoopSink));
    let (mut traced_daemon, _) = Daemon::start(&plan, telemetry, &mut out.problems)?;
    let before = traced_daemon.scrape()?;
    let mut traced = traced_daemon.closed_loop(&plan, seconds * 0.35);
    let d = before.delta(&traced_daemon.scrape()?);
    traced_daemon.stop(&mut out.problems);
    traced.record(&mut out);

    let n = d.received.max(1.0);
    let per_request_ms = |name: &str| d.histogram_sum(name) / n / 1e6;
    let rtt = mean(
        &traced
            .samples
            .iter()
            .map(|s| f64::from(s.latency_ms))
            .collect::<Vec<_>>(),
    );
    let (untraced_rate, traced_rate) =
        (untraced.summary()?.throughput, traced.summary()?.throughput);
    let request = per_request_ms("serve.request_ns");
    let queue = per_request_ms("serve.queue_wait_ns");
    let coalesce = per_request_ms("serve.coalesce_wait_ns");
    let execute = per_request_ms("serve.execute_ns");
    out.metric("serve.client_rtt_ms", rtt, "ms");
    out.metric("serve.request_ms", request, "ms");
    // Outside the daemon's request span: the socket, HTTP read and write
    // and the connection thread, most of a 96-row round trip.
    out.layers(
        "serve.client_rtt_ms",
        &["serve.request_ms"],
        "serve.outside_ms",
        0.75,
    );
    out.metric("serve.queue_wait_ms", queue, "ms");
    out.metric("serve.coalesce_wait_ms", coalesce, "ms");
    out.metric("serve.execute_ms", execute, "ms");
    out.layers(
        "serve.request_ms",
        &[
            "serve.queue_wait_ms",
            "serve.coalesce_wait_ms",
            "serve.execute_ms",
        ],
        "serve.unattributed_ms",
        0.5,
    );
    out.metric("serve.coalesced_share", d.coalesced_share(), "ratio");
    out.metric("serve.requests", d.received, "count");
    out.metric("engine.partition_hit_share", d.hit_share(), "ratio");
    out.metric("engine.partition_hits", d.hits, "count");
    out.metric("engine.partition_misses", d.misses, "count");
    out.metric(
        "trace.overhead_share",
        (untraced_rate - traced_rate) / untraced_rate,
        "ratio",
    );
    if traced.samples.len() as f64 != d.received {
        out.problems.push(format!(
            "traced phase: {} correct client requests, daemon received {}",
            traced.samples.len(),
            d.received
        ));
    }

    wire_layers(&plan, seconds * 0.3, &mut out)?;
    Ok(out)
}

/// Times `handle_audit`/`handle_mitigate` and their parts on the pool's
/// bodies, passing over the pool until `seconds` have gone (the first
/// pass warms the engines and is not counted). Each engine sees the
/// bodies in the daemon's order, so its partition cache hits and misses
/// as the daemon's does.
fn wire_layers(plan: &Plan, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let off = Telemetry::off();
    let handler = Engine::new(EngineConfig::default());
    let whole = Engine::new(EngineConfig::default());
    let layer = Engine::new(EngineConfig::default());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut engine = EngineLayers::default();
    let (mut handle, mut parse, mut reweigh, mut bytes, mut ops) = (0.0, 0.0, 0.0, 0.0, 0u64);
    for pass in 0.. {
        if pass == 1 {
            engine = EngineLayers::default();
            (handle, parse, reweigh, bytes, ops) = (0.0, 0.0, 0.0, 0.0, 0);
        }
        if pass >= 2 && Instant::now() >= deadline {
            break;
        }
        for (i, &endpoint) in plan.endpoints.iter().enumerate() {
            let body = plan.body(i);
            let t = Instant::now();
            let payload = match endpoint {
                "/audit" => wire::handle_audit(&handler, body, &off),
                _ => wire::handle_mitigate(body, &off),
            };
            handle += t.elapsed().as_nanos() as f64;
            if payload.status != 200 {
                return Err(format!("{endpoint} handler returned {}", payload.status));
            }
            bytes += body.len() as f64;
            ops += 1;
            if endpoint == "/audit" {
                let t = Instant::now();
                let req = wire::parse_audit_request(body)?;
                parse += t.elapsed().as_nanos() as f64;
                engine.decompose(&whole, &layer, &req.dataset, &req.spec)?;
            } else {
                let t = Instant::now();
                let req = wire::parse_mitigate_request(body)?;
                parse += t.elapsed().as_nanos() as f64;
                let protected: Vec<&str> = req.protected.iter().map(String::as_str).collect();
                let t = Instant::now();
                std::hint::black_box(fairbridge_mitigate::reweigh(&req.dataset, &protected)?);
                reweigh += t.elapsed().as_nanos() as f64;
            }
        }
    }
    let per_op = |ns: f64| ns / ops as f64 / 1e6;
    out.metric("wire.handle_ms", per_op(handle), "ms");
    out.metric("wire.parse_ms", per_op(parse), "ms");
    out.metric("wire.parse_mb_s", bytes / (parse / 1e9) / 1e6, "MB/s");
    out.metric("mitigate.reweigh_ms", per_op(reweigh), "ms");
    engine.report(ops, out);
    out.layers(
        "wire.handle_ms",
        &["wire.parse_ms", "engine.audit_ms", "mitigate.reweigh_ms"],
        "wire.render_ms",
        0.5,
    );
    Ok(())
}

/// Measures one `serve_small` connection (seed 424242, 40 requests)
/// twice against the same daemon: with `fb-load`'s request writer
/// (`load::request_on`: head and body in two writes, no `TCP_NODELAY`)
/// and with the benchmark's client. Prints both medians, so that a fix
/// to `fb-load` is not read as a daemon gain.
pub fn compare_clients() -> Result<(), String> {
    const SEED: u64 = 424_242;
    const REQUESTS: usize = 40;
    let plan = Plan::new(Shape::Small, SEED)?;
    let mut problems = Vec::new();
    let (mut daemon, _) = Daemon::start(&plan, Telemetry::off(), &mut problems)?;
    let addr = daemon.handle.addr().to_string();
    let order = &plan.orders[0];

    let (mut stream, mut reader) = fairbridge_serve::load::connect(&addr)?;
    let mut split = Vec::with_capacity(REQUESTS);
    for &i in order.iter().cycle().take(REQUESTS) {
        let t = Instant::now();
        let r = fairbridge_serve::load::request_on(
            &mut stream,
            &mut reader,
            "POST",
            plan.endpoints[i],
            "perfbench",
            plan.body(i),
        )?;
        split.push(t.elapsed().as_secs_f64() * 1e3);
        if !plan.expected[i].matches(&r) {
            problems.push(format!("fb-load writer: body {i} differs from reference"));
        }
    }
    drop((stream, reader));
    let log = client::drive(
        &mut daemon.clients[0],
        order,
        &plan.requests,
        &plan.expected,
        Stop::After(REQUESTS as u64),
        Instant::now(),
    );
    daemon.stop(&mut problems);
    problems.extend(log.first_error);
    let single: Vec<f64> = log
        .samples
        .iter()
        .map(|s| f64::from(s.latency_ms))
        .collect();
    println!("requests per client: {REQUESTS} (serve_small bodies, seed {SEED}, 1 connection)");
    println!(
        "fb-load writer (2 writes, Nagle on):     p50 {:.3} ms",
        median(&split)
    );
    println!(
        "benchmark client (1 write, TCP_NODELAY): p50 {:.3} ms",
        median(&single)
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_reference_byte_is_a_failed_operation() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut plan = Plan::new(Shape::Small, 11).expect("plan");
        let mut problems = Vec::new();
        let (mut daemon, _) =
            Daemon::start(&plan, Telemetry::off(), &mut problems).expect("daemon");
        assert!(problems.is_empty(), "{problems:?}");
        plan.corrupt_reference(3);
        // Connection 0 cycles bodies 0..8: 16 requests send body 3 twice.
        let log = client::drive(
            &mut daemon.clients[0],
            &plan.orders[0],
            &plan.requests,
            &plan.expected,
            Stop::After(16),
            Instant::now(),
        );
        daemon.stop(&mut problems);
        assert_eq!(log.attempted, 16);
        assert_eq!(log.failed, 2, "{:?}", log.first_error);
        assert_eq!(log.samples.len(), 14);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn serve_layers_add_up_on_both_workloads() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for shape in [Shape::Small, Shape::Large] {
            let out = run_traced(shape, 5, 1.0).expect("traced run");
            assert!(out.correct(), "{shape:?}: {:?}", out.problems);
            for whole in ["serve.client_rtt_ms", "wire.handle_ms", "engine.audit_ms"] {
                assert!(
                    out.value(whole).is_some_and(|v| v > 0.0),
                    "{shape:?} {whole}"
                );
            }
        }
    }
}
