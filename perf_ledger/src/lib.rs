//! # perf-ledger
//!
//! The repository's benchmark: three named closed-loop workloads
//! ([`Workload`]), each reporting the same end-to-end metrics
//! ([`END_TO_END`]), plus a separate traced run that splits the time
//! into layers ([`layers::PER_LAYER`]).
//!
//! ```text
//! perf-ledger --workload sweep_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A timed run sets the workload up, runs an untimed reference pass,
//! then repeats the workload for `--seconds`, setting it up afresh
//! before every repetition; `setup_s` is the median set-up and
//! `cells_per_s` the median repetition's throughput, both scaled to a
//! reference host speed measured by a probe between repetitions
//! ([`calib`]; the figures as measured are printed beside them). The
//! sweeps run on [`workers`] threads, so that with the caller draining
//! the result stream the process never has more busy threads than the
//! host has cores. Every repetition's output digest must equal the
//! reference pass's, and for [`DEFAULT_SEED`] the reference digest must
//! equal the pinned one. A change that alters the physics on purpose
//! re-pins [`pinned_digest`] in its own benchmark-only change.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! carry the host and provenance block and per-row detail.

#![warn(missing_docs)]

pub mod calib;
pub mod host;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use host::Host;
use layers::Metric;
use stats::{median, peak_rss_mb};
use trace::Tracer;
pub use workloads::{reference, run_rep, setup, RepOutcome, Size, Workload};

/// The seed whose reference digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Repetitions a timed run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

/// Every end-to-end metric: name, unit, which direction is better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("cells_per_s", "cells/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
];

/// The reference digest of `workload` at [`DEFAULT_SEED`], recorded on
/// the commit that introduced the benchmark.
pub fn pinned_digest(workload: Workload) -> u64 {
    match workload {
        Workload::SweepGrid => 0xa911_e241_fccf_5562,
        Workload::TraceCampaign => 0xa755_382a_4d4f_9a2c,
        Workload::PaperDse => 0xeaf4_559e_c8d2_8ab0,
    }
}

/// The command-line usage.
pub const USAGE: &str = "usage: perf-ledger --workload <sweep_grid|trace_campaign|paper_dse> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?;
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// A run's printed output.
#[derive(Debug)]
pub struct Outcome {
    /// Host block and detail lines, printed first.
    pub lines: Vec<String>,
    /// The result object, printed as the last line.
    pub result: String,
}

/// A scratch directory beside the benchmark binary for shard journals,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(parent: &Path) -> Result<Self, String> {
        let dir = parent.join(format!("ledger-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sweep worker threads on a host with `nproc` cores: one core stays
/// with the caller, which drains the result stream (aggregation, digest,
/// journal writes) while the workers run.
pub fn workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// Where the benchmark writes: the directory of its own executable,
/// which lies in the build directory of the checkout.
fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "executable has no parent directory".to_string())
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// Any set-up, workload or I/O failure, described.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let host = Host::probe();
    let threads = workers(host.nproc);
    let out_dir = output_dir()?;
    let work = WorkDir::create(&out_dir)?;
    let w = args.workload;
    let mut lines = vec![
        format!(
            "host {}",
            host.to_json(w.name(), args.seed, threads, args.trace)
        ),
        format!("workload {}: {}", w.name(), w.why()),
    ];
    let (correct, attempted, failed, metrics) = if args.trace {
        let ledger = layers::traced_run(w, args.seed, threads, &work.0)?;
        let path = out_dir.join(format!("ledger-trace-{}-{}.json", w.name(), args.seed));
        ledger.tracer.write_chrome(&path, w.name())?;
        lines.push(format!(
            "trace: {} spans written to {}",
            ledger.tracer.spans(),
            path.display()
        ));
        lines.extend(ledger.detail);
        let pin_ok = args.seed != DEFAULT_SEED || ledger.digest == pinned_digest(w);
        (
            ledger.failed == 0 && pin_ok,
            ledger.attempted,
            ledger.failed,
            ledger.metrics,
        )
    } else {
        timed(args, threads, &work.0, &mut lines)?
    };
    Ok(Outcome {
        lines,
        result: result_json(correct, attempted, failed, &metrics),
    })
}

/// The timed run: set-up, reference pass, then repetitions for
/// `args.seconds`. A fresh set-up precedes every repetition, untimed
/// as far as the repetition goes, so the set-up samples span the whole
/// run rather than one moment of it. The host-speed probe runs before
/// every set-up and after every repetition, and the run's median set-up
/// and throughput are scaled by its median probe (see [`calib`]): a run
/// is long enough for the medians to settle, but the host's speed can
/// drift from one run to the next.
fn timed(
    args: &Args,
    threads: usize,
    work_dir: &Path,
    lines: &mut Vec<String>,
) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let w = args.workload;
    let inputs = setup(w, args.seed, Size::Full, None)?;
    let reference = reference(&inputs)?;
    let pin_ok = args.seed != DEFAULT_SEED || reference.digest == pinned_digest(w);
    lines.push(format!(
        "reference: {} cells, {} failed, digest {:016x}{}",
        reference.cells,
        reference.failed,
        reference.digest,
        if pin_ok {
            ""
        } else {
            " (does not match the pinned digest)"
        }
    ));

    let (mut attempted, mut failed) = (0usize, 0usize);
    let (mut setups, mut rates, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while rates.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        probes.push(calib::probe());
        let s0 = Instant::now();
        setup(w, args.seed, Size::Full, None)?;
        setups.push(s0.elapsed().as_secs_f64());
        let rep = run_rep(&inputs, threads, work_dir, None)?;
        probes.push(calib::probe());
        let rep_failed = if pin_ok && reference.failed == 0 && rep.digest == reference.digest {
            rep.failed
        } else {
            rep.cells
        };
        attempted += rep.cells;
        failed += rep_failed;
        rates.push((rep.cells - rep_failed) as f64 / rep.wall.as_secs_f64());
    }
    let slowdown = calib::slowdown(median(&probes));
    lines.push(format!(
        "timed: {} repetitions of {} cells in {:.2} s on {threads} worker threads; \
         as measured: median {:.1} cells/s, median set-up {:.5} s; \
         host slowdown {slowdown:.4} (median of {} probes, {:.5} s against {} s)",
        rates.len(),
        attempted / rates.len(),
        t0.elapsed().as_secs_f64(),
        median(&rates),
        median(&setups),
        probes.len(),
        median(&probes),
        calib::REFERENCE_PROBE_S,
    ));
    let metric = |name: &str, value: f64| Metric {
        name: name.to_string(),
        value,
        unit: END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .expect("an end-to-end metric")
            .1,
    };
    let metrics = vec![
        metric("cells_per_s", median(&rates) * slowdown),
        metric("setup_s", median(&setups) / slowdown),
        metric("peak_rss_mb", peak_rss_mb()),
        metric("ok_frac", 1.0 - failed as f64 / attempted as f64),
    ];
    Ok((failed == 0, attempted, failed, metrics))
}

/// The result object: `correct`, `attempted`, `failed` and every
/// metric with its unit, values printed with all their digits.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::json_str(&m.name),
                m.value,
                host::json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What one smoke-size traced repetition produced — the self-test's
/// view of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Smoke {
    /// The traced repetition's output digest.
    pub digest: u64,
    /// The reference pass's digest on the same inputs.
    pub reference: u64,
    /// Cells that failed.
    pub failed: usize,
    /// `engine.steps` from the sweep snapshot (0 off the engine).
    pub steps: u64,
    /// `engine.gaps_skipped` from the sweep snapshot.
    pub gaps_skipped: u64,
    /// Journal bytes per record (0 without a journal).
    pub journal_bytes_per_record: f64,
}

/// Runs `workload` at smoke size, traced, on `threads` workers, with
/// shard journals under `parent`.
///
/// # Errors
///
/// Any set-up, workload or I/O failure, described.
pub fn smoke(
    workload: Workload,
    seed: u64,
    threads: usize,
    parent: &Path,
) -> Result<Smoke, String> {
    let work = WorkDir::create(&parent.join(format!("{}-{seed}-{threads}", workload.name())))?;
    let inputs = setup(workload, seed, Size::Smoke, None)?;
    let reference = reference(&inputs)?;
    let mut t = Tracer::default();
    let rep = run_rep(&inputs, threads, &work.0, Some(&mut t))?;
    let snap = t.registry.snapshot();
    let journal_bytes_per_record = if t.journal.records > 0 {
        t.journal.bytes as f64 / t.journal.records as f64
    } else {
        0.0
    };
    Ok(Smoke {
        digest: rep.digest,
        reference: reference.digest,
        failed: rep.failed,
        steps: snap.counter("engine.steps").unwrap_or(0),
        gaps_skipped: snap.counter("engine.gaps_skipped").unwrap_or(0),
        journal_bytes_per_record,
    })
}
