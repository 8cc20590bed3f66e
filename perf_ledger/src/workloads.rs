//! The three closed-loop workloads. In each, one caller submits the
//! whole input set and drains the results before it submits again; the
//! sweeps' workers and the draining caller together use at most `nproc`
//! threads, all in one process.
//!
//! Inputs come only from the seed: the program sees the generated
//! scenarios, grids and design points, never the seed itself.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use teem_core::offline::profile_app;
use teem_core::runner::{fig5_mapping, fig5_requirement, run as run_approach, Approach};
use teem_core::{AppProfile, UserRequirement};
use teem_dse::{evaluate, sample, DesignPoint, DesignPointEval};
use teem_scenario::{
    journal_digest, ConfigPatch, ContentionPolicy, LoadedJournal, Scenario, ScenarioResult,
    ShardSpec, SweepEvent, SweepJournal, SweepSpec,
};
use teem_soc::{Board, TimeAdvance};
use teem_telemetry::{CellRecord, Fnv, RunSummary, SweepAggregator};
use teem_workload::App;

use crate::stats::Rng;
use crate::trace::Tracer;

/// Lockstep lane count of the batched sweep: two full SIMD vectors.
pub const BATCH_K: usize = 16;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The profile-grid shape the sweep engine exists for.
    SweepGrid,
    /// Recorded and generated multi-arrival timelines, sharded and
    /// journaled.
    TraceCampaign,
    /// The paper's design-space evaluation and Fig. 5 runs.
    PaperDse,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepGrid,
        Workload::TraceCampaign,
        Workload::PaperDse,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepGrid => "sweep_grid",
            Workload::TraceCampaign => "trace_campaign",
            Workload::PaperDse => "paper_dse",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SweepGrid => {
                "DSE-throughput grid: lockstep kernels and per-cell fixed cost, no idle gaps, \
                 journal or Simulation::run"
            }
            Workload::TraceCampaign => {
                "multi-arrival timelines: scalar step loop, manager control, gap fast-forward, \
                 uneven cells, sharded journals and merge"
            }
            Workload::PaperDse => {
                "the paper path on Simulation::run: a fresh board per call, no pool, lockstep or \
                 journal; the single-threaded baseline"
            }
        }
    }

    /// `true` for the workloads that run through `SweepSpec`.
    pub fn is_sweep(self) -> bool {
        self != Workload::PaperDse
    }
}

/// How much work one repetition of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A few cells, for the self-test.
    Smoke,
}

/// One Fig. 5 application: its offline profile and requirement.
#[derive(Debug, Clone)]
struct Fig5App {
    app: App,
    profile: AppProfile,
    req: UserRequirement,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    /// The grid, unbatched and without a thread count; each run picks
    /// its own scheduling.
    Sweep(Box<SweepSpec>),
    Dse {
        points: Vec<(App, DesignPoint)>,
        fig5: Vec<Fig5App>,
    },
}

/// What one repetition produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepOutcome {
    /// Cells attempted: sweep cells, design points and Fig. 5 runs.
    pub cells: usize,
    /// Cells that failed.
    pub failed: usize,
    /// The output digest.
    pub digest: u64,
    /// Host wall time of the whole repetition, sink and merge included.
    pub wall: Duration,
}

impl RepOutcome {
    /// Completed cells per host second.
    pub fn cells_per_s(&self) -> f64 {
        (self.cells - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

/// The five one-arrival PolyBench scenarios of the profile grid.
fn one_arrival_suite() -> Vec<Scenario> {
    vec![
        Scenario::new("g-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("g-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("g-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("g-covariance").arrive(0.0, App::Covariance, 0.9),
        Scenario::new("g-mvt-tight").arrive(0.0, App::Mvt, 0.7),
    ]
}

/// The `sweep_grid` shape: the one-arrival suite × `thresholds` seeded
/// thresholds (80–89 °C) × `ambients` seeded ambients (15–33 °C) under
/// TEEM at a fixed step, cells cut at `timeout_s` of simulated time.
pub fn sweep_grid_spec(seed: u64, thresholds: usize, ambients: usize, timeout_s: f64) -> SweepSpec {
    let mut rng = Rng::new(seed);
    let t: Vec<f64> = (0..thresholds).map(|_| rng.range(80.0, 89.0)).collect();
    let a: Vec<f64> = (0..ambients).map(|_| rng.range(15.0, 33.0)).collect();
    SweepSpec::over(one_arrival_suite())
        .approaches(&[Approach::Teem])
        .thresholds_c(&t)
        .ambients_c(&a)
        .patch_config(ConfigPatch {
            timeout_s: Some(timeout_s),
            time_advance: Some(TimeAdvance::FixedDt),
            ..ConfigPatch::default()
        })
}

/// The `sweep_grid` grid at `size`: 16 000 cells of 200 steps.
fn sweep_grid_inputs(seed: u64, size: Size) -> SweepSpec {
    match size {
        Size::Full => sweep_grid_spec(seed, 40, 80, 2.0),
        Size::Smoke => sweep_grid_spec(seed, 3, 4, 2.0),
    }
}

/// The repository's recorded phone traces.
fn trace_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../examples/traces")
        .join(file)
}

/// The `trace_campaign` timelines: the two recorded traces plus one
/// scenario per public generator with seeded periods and gaps.
fn campaign_scenarios(seed: u64, size: Size) -> Result<Vec<Scenario>, String> {
    let load = |file: &str| {
        Scenario::from_csv(trace_path(file)).map_err(|e| format!("load trace {file}: {e}"))
    };
    let mut rng = Rng::new(seed);
    let day = load("phone_day.csv")?;
    let periodic = Scenario::periodic("periodic", App::Syrk, rng.range(40.0, 90.0), 3, 0.85);
    if size == Size::Smoke {
        return Ok(vec![day, periodic]);
    }
    Ok(vec![
        day,
        load("phone_week.csv")?,
        periodic,
        Scenario::back_to_back(
            "back-to-back",
            &[App::Conv2d, App::Covariance, App::Gemm, App::Mvt],
            rng.range(1.0, 4.0),
            0.90,
        ),
        Scenario::bursty(
            "bursty",
            &[App::Covariance, App::Mvt, App::Syrk, App::Gesummv],
            2,
            rng.range(60.0, 240.0),
            0.90,
        ),
        Scenario::staircase_ambient(
            "staircase",
            App::Covariance,
            3,
            rng.range(40.0, 90.0),
            25.0,
            rng.range(2.0, 4.0),
            0.90,
        ),
        Scenario::mixed_deadline(
            "mixed-deadline",
            &[App::Syr2k, App::Conv2d, App::Correlation, App::Gemm],
            rng.range(2.0, 20.0),
            0.62,
            0.95,
        ),
    ])
}

/// The `trace_campaign` grid: timelines × all four approaches × all
/// three contention policies × two ambients, event-driven (168 cells).
fn campaign_spec(scenarios: Vec<Scenario>, size: Size) -> SweepSpec {
    let spec = SweepSpec::over(scenarios).patch_config(ConfigPatch {
        time_advance: Some(TimeAdvance::EventDriven),
        ..ConfigPatch::default()
    });
    match size {
        Size::Full => spec
            .approaches(&Approach::all())
            .contentions(&[
                ContentionPolicy::Serial,
                ContentionPolicy::ClusterExclusive,
                ContentionPolicy::shared(),
            ])
            .ambients_c(&[22.0, 30.0]),
        Size::Smoke => spec
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .contentions(&[ContentionPolicy::Serial, ContentionPolicy::shared()])
            .ambients_c(&[25.0]),
    }
}

/// Profiles `apps` offline on the ideal board, as the sweep engine
/// does before its first cell.
fn profile_all(
    apps: impl IntoIterator<Item = App>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<(App, AppProfile)>, String> {
    let board = Board::odroid_xu4_ideal();
    apps.into_iter()
        .map(|app| {
            let t0 = Instant::now();
            let profile = profile_app(&board, app).map_err(|e| format!("profile {app:?}: {e}"))?;
            if let Some(t) = tracer.as_deref_mut() {
                t.span("profile_app", t0);
            }
            Ok((app, profile))
        })
        .collect()
}

/// The distinct apps `scenarios` launch, in order.
fn apps_of(scenarios: &[Scenario]) -> BTreeSet<App> {
    scenarios.iter().flat_map(Scenario::apps).collect()
}

/// Builds `workload`'s inputs from `seed`: generates the grid or
/// design points, loads traces and profiles every app offline. This is
/// the work `setup_s` times. The sweep engine memoises the same
/// profiles on its first run, which is the untimed reference pass.
///
/// # Errors
///
/// A trace that fails to load or an app that fails to profile.
pub fn setup(
    workload: Workload,
    seed: u64,
    size: Size,
    tracer: Option<&mut Tracer>,
) -> Result<Inputs, String> {
    let kind = match workload {
        Workload::SweepGrid => {
            profile_all(apps_of(&one_arrival_suite()), tracer)?;
            Kind::Sweep(Box::new(sweep_grid_inputs(seed, size)))
        }
        Workload::TraceCampaign => {
            let scenarios = campaign_scenarios(seed, size)?;
            profile_all(apps_of(&scenarios), tracer)?;
            Kind::Sweep(Box::new(campaign_spec(scenarios, size)))
        }
        Workload::PaperDse => {
            let (stride, apps) = match size {
                Size::Full => (32, 8),
                Size::Smoke => (1296, 2),
            };
            // One seeded point from every run of `stride` consecutive
            // points: a stratified draw, so every seed spans the whole
            // sample's ordering and the cost of a repetition barely
            // depends on the seed.
            let mut rng = Rng::new(seed);
            let eight = App::paper_eight();
            let points = sample::diverse_sample()
                .chunks(stride)
                .map(|run| run[rng.below(run.len() as u64) as usize])
                .enumerate()
                .map(|(i, dp)| (eight[i % eight.len()], dp))
                .collect();
            let fig5 = profile_all(eight.into_iter().take(apps), tracer)?
                .into_iter()
                .map(|(app, profile)| Fig5App {
                    app,
                    req: fig5_requirement(app, &profile),
                    profile,
                })
                .collect();
            Kind::Dse { points, fig5 }
        }
    };
    Ok(Inputs { workload, kind })
}

/// One cell's contribution to a sweep digest: `journal_digest` is an
/// order-invariant wrapping sum, so per-record digests add up to the
/// whole grid's.
fn cell_digest(index: usize, result: &ScenarioResult) -> u64 {
    journal_digest(&[CellRecord::from_summary(
        index,
        &result.summary,
        result.trace.digest(),
    )])
}

fn hash_eval(h: &mut Fnv, e: &DesignPointEval) {
    for v in [e.et_s, e.avg_temp_c, e.peak_temp_c, e.energy_j] {
        h.f64(v);
    }
}

fn hash_summary(h: &mut Fnv, s: &RunSummary) {
    h.str(&s.app);
    h.str(&s.approach);
    for v in [
        s.execution_time_s,
        s.energy_j,
        s.avg_temp_c,
        s.peak_temp_c,
        s.temp_variance,
        s.avg_big_freq_mhz,
    ] {
        h.f64(v);
    }
}

/// The untimed reference pass: sweeps at `threads(1)` without
/// batching, digests taken straight from the results; the paper path
/// as it always runs. Every timed repetition must reproduce its digest.
///
/// # Errors
///
/// A sweep that fails before its first cell.
pub fn reference(inputs: &Inputs) -> Result<RepOutcome, String> {
    match &inputs.kind {
        Kind::Sweep(spec) => {
            let t0 = Instant::now();
            let (mut digest, mut failed) = (0u64, 0usize);
            let stats = spec
                .clone()
                .threads(1)
                .run_streaming(|ev| match ev {
                    SweepEvent::CellDone { cell, result } => {
                        digest = digest.wrapping_add(cell_digest(cell.index, &result));
                    }
                    SweepEvent::CellFailed { .. } => failed += 1,
                    _ => {}
                })
                .map_err(|e| e.to_string())?;
            Ok(RepOutcome {
                cells: stats.cells,
                failed,
                digest,
                wall: t0.elapsed(),
            })
        }
        Kind::Dse { .. } => run_rep(inputs, 1, Path::new("."), None),
    }
}

/// One timed (or, with a tracer, traced) repetition on `threads`
/// workers. `work_dir` holds the campaign's shard journals.
///
/// # Errors
///
/// A sweep that fails before its first cell, or journal I/O.
pub fn run_rep(
    inputs: &Inputs,
    threads: usize,
    work_dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<RepOutcome, String> {
    match (&inputs.kind, inputs.workload) {
        (Kind::Sweep(spec), Workload::SweepGrid) => grid_rep(spec, threads, tracer),
        (Kind::Sweep(spec), _) => campaign_rep(spec, threads, work_dir, tracer),
        (Kind::Dse { points, fig5 }, _) => Ok(dse_rep(points, fig5, tracer)),
    }
}

/// Runs `spec` streaming, or instrumented when traced, with `sink`
/// timed as its own span.
fn stream(
    spec: &SweepSpec,
    tracer: Option<&mut Tracer>,
    mut sink: impl FnMut(SweepEvent, Option<&mut Tracer>),
) -> Result<usize, String> {
    match tracer {
        None => spec
            .run_streaming(|ev| sink(ev, None))
            .map(|s| s.cells)
            .map_err(|e| e.to_string()),
        Some(t) => {
            let t0 = Instant::now();
            let (stats, report) = spec
                .run_instrumented(|ev| {
                    let s0 = Instant::now();
                    sink(ev, Some(&mut *t));
                    t.sink_ns += t.span("sink", s0);
                })
                .map_err(|e| e.to_string())?;
            t.span("run_instrumented", t0);
            t.absorb_sweep(&stats, &report);
            Ok(stats.cells)
        }
    }
}

/// `sweep_grid`: batched lockstep on every worker, aggregated online
/// and digested per cell.
fn grid_rep(
    spec: &SweepSpec,
    threads: usize,
    tracer: Option<&mut Tracer>,
) -> Result<RepOutcome, String> {
    let t0 = Instant::now();
    let spec = spec.clone().batch(BATCH_K).threads(threads);
    let mut agg = SweepAggregator::new();
    let (mut digest, mut failed) = (0u64, 0usize);
    let cells = stream(&spec, tracer, |ev, _| match ev {
        SweepEvent::CellDone { cell, result } => {
            agg.record(&result.summary);
            digest = digest.wrapping_add(cell_digest(cell.index, &result));
        }
        SweepEvent::CellFailed { .. } => failed += 1,
        _ => {}
    })?;
    debug_assert_eq!(agg.cells() + failed, cells);
    Ok(RepOutcome {
        cells,
        failed,
        digest,
        wall: t0.elapsed(),
    })
}

/// `trace_campaign`: one shard per core, run in turn on `threads`
/// workers, each into its own journal; then every journal is loaded and
/// merged, and the digest is the merged journal's.
fn campaign_rep(
    spec: &SweepSpec,
    threads: usize,
    work_dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<RepOutcome, String> {
    let t0 = Instant::now();
    let (mut cells, mut failed) = (0usize, 0usize);
    let mut paths = Vec::new();
    for (k, shard) in ShardSpec::plan(crate::host::nproc())
        .into_iter()
        .enumerate()
    {
        let shard_spec = spec.clone().threads(threads).shard(shard);
        let path = work_dir.join(format!("shard-{k}.jsonl"));
        let mut journal =
            SweepJournal::create(&path, &shard_spec).map_err(|e| format!("journal: {e}"))?;
        let mut io_error = None;
        cells += stream(&shard_spec, tracer.as_deref_mut(), |ev, t| {
            match ev {
                // `observe` ignores starts: only completion is durable.
                SweepEvent::CellStarted { .. } => return,
                SweepEvent::CellFailed { .. } => failed += 1,
                _ => {}
            }
            let s0 = Instant::now();
            if let Err(e) = journal.observe(&ev) {
                io_error.get_or_insert(e);
            }
            if let Some(t) = t {
                let ns = t.span("observe", s0);
                t.observe_us.push(ns as f64 / 1e3);
            }
        })?;
        if let Some(e) = io_error {
            return Err(format!("journal write: {e}"));
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.absorb_journal(&journal.io_stats());
        }
        paths.push(path);
    }
    let s0 = Instant::now();
    let parts = paths
        .iter()
        .map(LoadedJournal::load)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("journal load: {e}"))?;
    if let Some(t) = tracer.as_deref_mut() {
        t.load_ms += t.span("load", s0) as f64 / 1e6;
    }
    let s0 = Instant::now();
    let merged = SweepJournal::merge(&parts);
    if let Some(t) = tracer {
        t.merge_ms += t.span("merge", s0) as f64 / 1e6;
    }
    // A cell that failed leaves the merge incomplete; the digest then
    // cannot match and the whole repetition counts as failed.
    let digest = merged.map_or(0, |m| journal_digest(&m.records));
    Ok(RepOutcome {
        cells,
        failed,
        digest,
        wall: t0.elapsed(),
    })
}

/// `paper_dse`: every design point through `evaluate::simulate`, then
/// the Fig. 5 runs through `runner::run`, on the calling thread.
fn dse_rep(
    points: &[(App, DesignPoint)],
    fig5: &[Fig5App],
    mut tracer: Option<&mut Tracer>,
) -> RepOutcome {
    let t0 = Instant::now();
    let mut h = Fnv::new();
    for (app, dp) in points {
        let s0 = Instant::now();
        let eval = evaluate::simulate(*app, dp);
        if let Some(t) = tracer.as_deref_mut() {
            let ns = t.span("simulate", s0);
            t.simulate_ms.push(ns as f64 / 1e6);
        }
        hash_eval(&mut h, &eval);
    }
    for case in fig5 {
        for approach in Approach::fig5() {
            let s0 = Instant::now();
            let result = run_approach(
                case.app,
                approach,
                &case.req,
                Some(&case.profile),
                Some(fig5_mapping()),
                None,
            );
            if let Some(t) = tracer.as_deref_mut() {
                let ns = t.span("runner::run", s0);
                t.run_ms.push(ns as f64 / 1e6);
            }
            hash_summary(&mut h, &result.summary);
        }
    }
    RepOutcome {
        cells: points.len() + fig5.len() * Approach::fig5().len(),
        failed: 0,
        digest: h.finish(),
        wall: t0.elapsed(),
    }
}
