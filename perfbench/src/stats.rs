//! Order statistics over one run's samples, the repeated set-up, and
//! the peak resident set.

use fairbridge_stats::descriptive::median;
use std::time::{Duration, Instant};

/// Nearest-rank `q` percentile of an ascending, non-empty sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Samples a run needs for its tail to be p90: ten beyond it. A
/// shorter run reports its maximum.
const P90_MIN_SAMPLES: usize = 100;

/// One correct operation of a closed loop, in 8 bytes, so that the
/// benchmark's own sample buffers add little to the measured peak RSS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it completed, microseconds after the loop started.
    pub done_us: u32,
    /// How long it took, milliseconds.
    pub latency_ms: f32,
}

impl Sample {
    /// An operation that completed `done` after the loop started and
    /// took `latency`.
    pub fn new(done: Duration, latency: Duration) -> Sample {
        Sample {
            done_us: u32::try_from(done.as_micros()).unwrap_or(u32::MAX),
            latency_ms: (latency.as_secs_f64() * 1e3) as f32,
        }
    }
}

/// Samples per tail chunk at least, and tail chunks per run at most.
/// Each chunk's p90 has three samples beyond it, so the tail is a
/// median over many short stretches of the run: at ~36 audits/s an
/// `engine_audit` chunk spans under a second, so a slowdown of the host
/// that lasts a second or two moves only a few chunks; chunks of 100
/// would span ~3 s, and such a slowdown would raise the p90 of most of
/// them. At most 1000 chunks keeps
/// the tail p90 on runs of a million samples too: on a 2-vCPU host the
/// p99 of a sub-millisecond round trip moved by 2x from run to run, the
/// p90 by about 15%.
const TAIL_CHUNKS: (usize, usize) = (30, 1000);

/// Samples per throughput chunk at least, and throughput chunks per run
/// at most.
const RATE_CHUNKS: (usize, usize) = (10, 50);

/// Splits `n` samples into consecutive chunks of at least `min`, at most
/// `max` of them (one when `n < min`); returns the index ranges.
fn chunks(n: usize, (min, max): (usize, usize)) -> Vec<std::ops::Range<usize>> {
    let k = (n / min).clamp(1, max);
    (0..k).map(|c| c * n / k..(c + 1) * n / k).collect()
}

/// A run's latency and throughput, robust to a stretch of the run that
/// the host slowed down.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Correct operations.
    pub samples: usize,
    /// Median latency over all samples, ms.
    pub p50_ms: f64,
    /// Median over chunks of each chunk's p90, ms; the maximum when
    /// the run is too short for p90.
    pub tail_ms: f64,
    /// `p90` or `max`.
    pub tail_label: &'static str,
    /// Samples of the run above `tail_ms`.
    pub beyond: usize,
    /// Median over chunks of the chunk's operations per second.
    pub throughput: f64,
    /// Tail chunks the run was split into, by completion order.
    pub chunks: usize,
}

impl Summary {
    /// Which tail percentile was reported, and how.
    pub fn tail_description(&self) -> String {
        format!(
            "{} of each of {} chunks of ~{} samples, median over chunks ({} of {} samples beyond it)",
            self.tail_label,
            self.chunks,
            self.samples / self.chunks.max(1),
            self.beyond,
            self.samples
        )
    }
}

/// Summarizes a run (sorting `samples`). Its samples, in completion
/// order, are split into up to 1000 chunks of at least 30 for the tail
/// (p90 of each when the run has at least 100 samples, else the run's
/// maximum), and up to fifty chunks of at least 10 for the throughput (a
/// chunk's operations over the time since the previous chunk ended);
/// each is the median over its chunks. `None` for an empty run.
pub fn summarize(samples: &mut [Sample]) -> Option<Summary> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_by_key(|s| s.done_us);
    let all: Vec<f64> = samples.iter().map(|s| f64::from(s.latency_ms)).collect();
    let (tail_label, tail_ms, tail_chunks) = if n < P90_MIN_SAMPLES {
        ("max", all.iter().copied().fold(f64::MIN, f64::max), 1)
    } else {
        let ranges = chunks(n, TAIL_CHUNKS);
        let tails: Vec<f64> = ranges
            .iter()
            .map(|range| {
                let mut chunk = all[range.clone()].to_vec();
                chunk.sort_by(f64::total_cmp);
                percentile(&chunk, 0.90)
            })
            .collect();
        ("p90", median(&tails), ranges.len())
    };
    let mut prev_end = 0.0;
    let rates: Vec<f64> = chunks(n, RATE_CHUNKS)
        .into_iter()
        .map(|range| {
            let end = f64::from(samples[range.end - 1].done_us) / 1e6;
            let rate = range.len() as f64 / (end - prev_end).max(1e-9);
            prev_end = end;
            rate
        })
        .collect();
    Some(Summary {
        samples: n,
        p50_ms: median(&all),
        tail_ms,
        tail_label,
        beyond: all.iter().filter(|&&v| v > tail_ms).count(),
        throughput: median(&rates),
        chunks: tail_chunks,
    })
}

/// Set-ups per run at least, and seconds of set-ups per run at least.
const SETUPS: (usize, f64) = (5, 2.0);

/// Repeats a set-up, `once` returning the seconds one took, at least
/// five times and until two seconds have gone; returns the median.
/// Milliseconds-long set-ups are thus repeated hundreds of times.
pub fn median_setup(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUPS.0 || start.elapsed().as_secs_f64() < SETUPS.1 {
        secs.push(once()?);
    }
    Ok(median(&secs))
}

/// A field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MiB.
fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse {field} {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// The peak resident set since a reset.
///
/// [`PeakRss::reset`] hands the allocator's free pages back to the
/// kernel, resets `VmHWM` to the current resident set (`5` written to
/// `/proc/self/clear_refs`) and keeps that resident set as the baseline,
/// so that what was freed before (such as the transient memory of the
/// reference computations) is not counted.
pub struct PeakRss {
    baseline: f64,
}

impl PeakRss {
    /// Resets the peak and records the baseline.
    pub fn reset() -> Result<PeakRss, String> {
        trim_heap();
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("reset VmHWM through /proc/self/clear_refs: {e}"))?;
        Ok(PeakRss {
            baseline: status_mib("VmRSS")?,
        })
    }

    /// `VmHWM` in MiB: the process's peak resident set since the reset.
    pub fn peak(&self) -> Result<f64, String> {
        status_mib("VmHWM")
    }

    /// MiB of peak resident set above the baseline: what the process
    /// added since the reset, not what it already held.
    pub fn added(&self) -> Result<f64, String> {
        Ok(status_mib("VmHWM")? - self.baseline)
    }
}

/// Returns the allocator's free memory to the kernel, so that memory
/// freed before the reset is not counted in the baseline and then reused
/// by the program unseen.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the
    // allocator's own free lists, and may be called from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_median_chunk_p90_or_the_maximum_of_a_short_run() {
        let ramp = |n: u32| -> Vec<Sample> {
            (1..=n)
                .map(|i| Sample {
                    done_us: i,
                    latency_ms: (i % 30 + 1) as f32,
                })
                .collect()
        };
        // 300 samples: ten chunks of 30, each holding latencies 1..=30.
        let s = summarize(&mut ramp(300)).expect("non-empty");
        assert_eq!((s.tail_label, s.chunks, s.tail_ms), ("p90", 10, 27.0));
        assert_eq!(s.beyond, 30);
        let s = summarize(&mut ramp(99)).expect("non-empty");
        assert_eq!((s.tail_label, s.chunks, s.tail_ms), ("max", 1, 30.0));
    }

    #[test]
    fn summary_takes_medians_over_chunks() {
        // 1000 operations, one per ms, each 1 ms long, except that the
        // third chunk ran at half speed with 10x latencies.
        let samples: Vec<Sample> = (0..1000)
            .map(|i| {
                let slow = (200..300).contains(&i);
                Sample {
                    done_us: (i + 1) * 1000 + if i >= 200 { 100_000 } else { 0 },
                    latency_ms: if slow { 10.0 } else { 1.0 },
                }
            })
            .collect();
        let s = summarize(&mut samples.clone()).expect("non-empty");
        assert_eq!(s.chunks, 33);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.tail_ms, 1.0);
        assert!((s.throughput - 1000.0).abs() < 1e-6, "{}", s.throughput);
        let big = Sample::new(Duration::from_secs(5000), Duration::from_millis(3));
        assert_eq!((big.done_us, big.latency_ms), (u32::MAX, 3.0));
        assert!(summarize(&mut []).is_none());
    }
}
