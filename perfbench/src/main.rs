//! The fairbridge benchmark: one workload per invocation.
//!
//! ```text
//! fairbridge-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fairbridge-perfbench compare-clients
//! ```
//!
//! Workloads: `serve_small`, `serve_large` (closed-loop HTTP clients
//! against an in-process daemon), `engine_audit` (500k-row
//! `Engine::audit`) and `experiments` (full E1–E19 passes). With
//! `--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics; either way the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and
//! every operation's output is checked against a reference computed
//! in-process before timing starts. See `perfbench/README.md`.

mod bodies;
mod client;
mod engine_wl;
mod experiments_wl;
mod layers;
mod report;
mod serve_wl;
mod stats;

use report::Outcome;
use serve_wl::Shape;
use std::process::ExitCode;

/// Held by the tests that run a workload, so that they do not run
/// alongside each other on a small host and skew each other's timings.
#[cfg(test)]
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The parsed command line of a workload run.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 424_242,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match (args.workload.as_str(), args.trace) {
        ("serve_small", false) => serve_wl::run(Shape::Small, args.seed, args.seconds)?,
        ("serve_small", true) => serve_wl::run_traced(Shape::Small, args.seed, args.seconds)?,
        ("serve_large", false) => serve_wl::run(Shape::Large, args.seed, args.seconds)?,
        ("serve_large", true) => serve_wl::run_traced(Shape::Large, args.seed, args.seconds)?,
        ("engine_audit", false) => engine_wl::run(args.seed, args.seconds)?,
        ("engine_audit", true) => engine_wl::run_traced(args.seed, args.seconds, engine_wl::ROWS)?,
        ("experiments", false) => experiments_wl::run(args.seed, args.seconds)?,
        ("experiments", true) => {
            experiments_wl::run_traced(args.seed, &fairbridge_bench::EXPERIMENT_IDS)?
        }
        (other, _) => {
            return Err(format!(
                "unknown workload {other:?} (serve_small, serve_large, engine_audit, experiments)"
            ))
        }
    };
    if args.trace {
        layers::select(&mut out, layers::PER_LAYER, true);
    } else {
        layers::select(&mut out, layers::END_TO_END, false);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["compare-clients"] {
        return match serve_wl::compare_clients() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&args).and_then(|a| run(&a));
    match result {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_workload_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve_small",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve_small".to_owned(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(run(&parse_args(&strings(&["--workload", "nope"])).expect("parses")).is_err());
    }
}
