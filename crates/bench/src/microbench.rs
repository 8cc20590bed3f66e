//! A dependency-free micro-benchmark harness.
//!
//! The build environment has no access to crates.io, so the Criterion
//! dependency the benches originally used is replaced by this small
//! wall-clock harness: warm up, choose a batch size targeting a fixed
//! batch duration, time several batches, report best/mean ns per
//! iteration. Benches are declared with `harness = false` and drive a
//! [`Runner`] from `main`.
//!
//! ```sh
//! cargo bench -p teem-bench --bench thermal_step            # all
//! cargo bench -p teem-bench --bench thermal_step -- steady  # filtered
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed batches per benchmark.
const BATCHES: u32 = 5;
/// Target wall-clock duration of one timed batch.
const BATCH_TARGET: Duration = Duration::from_millis(50);

/// One benchmark's timing result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Best (minimum) time per iteration, nanoseconds.
    pub best_ns: f64,
    /// Mean time per iteration across batches, nanoseconds.
    pub mean_ns: f64,
    /// Iterations per timed batch.
    pub batch_iters: u64,
}

impl BenchResult {
    /// Best-case throughput, iterations per second — the steps/sec
    /// figure for the step-kernel benches.
    pub fn best_per_sec(&self) -> f64 {
        if self.best_ns > 0.0 {
            1e9 / self.best_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Collects and prints benchmark timings; constructed from the CLI
/// arguments Cargo forwards after `--` (used as substring filters).
///
/// Passing `--smoke` (or setting `TEEM_BENCH_SMOKE=1`) switches to
/// smoke mode: every selected benchmark executes exactly once, with no
/// warm-up or batch calibration. CI uses this to keep the perf path
/// compiled *and exercised* on every push without paying measurement-
/// quality iteration counts.
#[derive(Debug, Default)]
pub struct Runner {
    filters: Vec<String>,
    smoke: bool,
    results: Vec<BenchResult>,
}

impl Runner {
    /// A runner honouring CLI substring filters (Cargo's own flags such
    /// as `--bench` are ignored) and the `--smoke` /
    /// `TEEM_BENCH_SMOKE=1` one-iteration mode.
    pub fn from_args() -> Self {
        Runner {
            filters: std::env::args()
                .skip(1)
                .filter(|a| !a.starts_with('-'))
                .collect(),
            smoke: std::env::args().skip(1).any(|a| a == "--smoke")
                || std::env::var("TEEM_BENCH_SMOKE").is_ok_and(|v| v == "1"),
            results: Vec::new(),
        }
    }

    /// `true` when a name filter is active, so some benchmarks may be
    /// skipped: an artifact that needs every row must not be written
    /// from such a run.
    pub fn is_filtered(&self) -> bool {
        !self.filters.is_empty()
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Times `f`, auto-scaling the batch size to the target batch
    /// duration (`BATCH_TARGET`).
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if !self.selected(name) {
            return;
        }
        if self.smoke {
            self.timed(name, 1, f);
            return;
        }
        // Warm-up and batch-size calibration: double until one batch
        // takes long enough to time reliably.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= BATCH_TARGET || iters >= 1 << 24 {
                break;
            }
            let scale =
                (BATCH_TARGET.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).clamp(2.0, 1024.0);
            iters = (iters as f64 * scale).ceil() as u64;
        }
        self.timed(name, iters, f);
    }

    /// Times `f` with a fixed number of iterations per batch — for
    /// heavyweight benches where auto-scaling would be too slow.
    pub fn bench_heavy<T>(&mut self, name: &str, iters_per_batch: u64, mut f: impl FnMut() -> T) {
        if !self.selected(name) {
            return;
        }
        if self.smoke {
            self.timed(name, 1, f);
            return;
        }
        black_box(f()); // warm-up
        self.timed(name, iters_per_batch.max(1), f);
    }

    fn timed<T>(&mut self, name: &str, iters: u64, mut f: impl FnMut() -> T) {
        let batches = if self.smoke { 1 } else { BATCHES };
        let mut batch_ns = Vec::with_capacity(batches as usize);
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            batch_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let best = batch_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = batch_ns.iter().sum::<f64>() / batch_ns.len() as f64;
        let result = BenchResult {
            name: name.to_string(),
            best_ns: best,
            mean_ns: mean,
            batch_iters: iters,
        };
        println!(
            "{:<44} best {:>12}  mean {:>12}  {:>14}  ({} it/batch)",
            result.name,
            fmt_ns(result.best_ns),
            fmt_ns(result.mean_ns),
            fmt_rate(result.best_per_sec()),
            result.batch_iters
        );
        self.results.push(result);
    }

    /// Results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing summary line.
    pub fn finish(&self) {
        println!("{} benchmark(s) run", self.results.len());
    }
}

/// Formats an iterations-per-second throughput with an adaptive unit.
fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2} M it/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} k it/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} it/s")
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_records() {
        let mut r = Runner::default();
        let mut counter = 0u64;
        r.bench("noop_increment", || {
            counter += 1;
            counter
        });
        assert_eq!(r.results().len(), 1);
        let res = &r.results()[0];
        assert!(res.best_ns >= 0.0 && res.best_ns <= res.mean_ns * 1.0001);
        assert!(counter > 0);
    }

    #[test]
    fn filters_skip_unmatched_names() {
        let mut r = Runner {
            filters: vec!["thermal".into()],
            smoke: false,
            results: Vec::new(),
        };
        r.bench("regression_fit", || 1);
        assert!(r.results().is_empty());
        r.bench_heavy("thermal_step", 2, || 1);
        assert_eq!(r.results().len(), 1);
    }

    #[test]
    fn reports_whether_a_filter_is_active() {
        let filtered = Runner {
            filters: vec!["sweep_".into()],
            ..Runner::default()
        };
        assert!(filtered.is_filtered());
        assert!(!Runner::default().is_filtered());
    }

    #[test]
    fn formats_units() {
        assert!(fmt_ns(12.3).contains("ns"));
        assert!(fmt_ns(12_300.0).contains("us"));
        assert!(fmt_ns(12_300_000.0).contains("ms"));
        assert!(fmt_ns(2.3e9).contains('s'));
        assert!(fmt_rate(25.0e6).contains("M it/s"));
        assert!(fmt_rate(8_000.0).contains("k it/s"));
        assert!(fmt_rate(7.5).contains("it/s"));
    }

    #[test]
    fn smoke_mode_runs_each_bench_exactly_once() {
        let mut r = Runner {
            filters: Vec::new(),
            smoke: true,
            results: Vec::new(),
        };
        let mut light = 0u64;
        r.bench("light", || light += 1);
        let mut heavy = 0u64;
        r.bench_heavy("heavy", 50, || heavy += 1);
        assert_eq!(light, 1, "smoke bench must execute once");
        assert_eq!(heavy, 1, "smoke bench_heavy must skip warm-up too");
        assert_eq!(r.results().len(), 2);
        assert_eq!(r.results()[0].batch_iters, 1);
    }

    #[test]
    fn throughput_is_inverse_of_best_time() {
        let res = BenchResult {
            name: "x".into(),
            best_ns: 100.0,
            mean_ns: 120.0,
            batch_iters: 1,
        };
        assert!((res.best_per_sec() - 1e7).abs() < 1e-6);
    }
}
