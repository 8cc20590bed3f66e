//! The streaming sweep engine: cartesian scenario × knob grids executed
//! by a thread pool that **streams** results as cells finish, instead
//! of buffering a whole matrix.
//!
//! A [`SweepSpec`] names the axes — scenarios × approaches ×
//! [`ContentionPolicy`] × initial threshold × ambient ×
//! [`TeemTunables`] × board — and enumerates their cartesian
//! product *lazily*: a cell is materialised (its knobs applied to its
//! base scenario's timeline) only on the worker that executes it, so a
//! ten-thousand-cell grid costs ten-thousand-cell memory **never** —
//! the engine's resident state is O(workers), and whoever consumes the
//! [`SweepEvent`] stream decides what to keep.
//!
//! Execution is a pool over [`std::thread::scope`] sharing one claim
//! cursor over the work list: each worker takes the next cell with one
//! atomic add, so cells start in work-list order and one pathologically
//! slow scenario holds up only its own worker, never a queue of cells
//! behind it. Every finished cell is sent through a bounded
//! [`mpsc`](std::sync::mpsc) channel and handed to the caller's event
//! sink *on the calling thread*, in completion order. An unbatched
//! worker keeps two cells in flight and interleaves their span steps,
//! so two latency-bound step chains overlap on one core; a batched one
//! steps its cells in SIMD lockstep.
//!
//! A panicking cell (satellite of the PR 1 poisoned-mutex fix) is
//! caught on the worker, reported as [`SweepEvent::CellFailed`] naming
//! the cell, and the sweep **keeps draining** the remaining cells —
//! one bad cell costs one cell, not the grid.
//!
//! Sequential and pooled runs, batched or not, drive one worker loop
//! and claim from the same cursor; they differ only in where a worker
//! sends its events. [`SweepSpec::run_collect`] buffers the stream
//! back into deterministic cell-index order for small grids.

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::arbiter::ContentionPolicy;
use crate::exec::{
    CellBuffers, CellSim, CellTemplate, OpenSpan, ScenarioResult, ScenarioRunner, SimConfig,
    StepBegin,
};
use crate::lockstep::LockstepPool;
use crate::obs::{RunObs, SweepObsReport, WorkerObs};
use crate::scenario::Scenario;
use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_core::{ProfileStore, TeemTunables};
use teem_soc::{Board, BoardSpec, TimeAdvance, DT_S, SAMPLE_PERIOD_S, WARM_START_FRACTION};
use teem_telemetry::{Fnv, Trace};
use teem_workload::App;

/// Everything that can go wrong in a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// Offline profiling failed before any cell ran.
    Profiling(teem_linreg::LinregError),
    /// One cell failed (an in-cell error or a caught panic). The sweep
    /// drained every other cell before reporting this.
    Cell {
        /// The failed cell's name (scenario name with knob tags plus
        /// the approach).
        cell: String,
        /// What happened.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Profiling(e) => write!(f, "sweep profiling failed: {e}"),
            SweepError::Cell { cell, message } => {
                write!(f, "sweep cell `{cell}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Profiling(e) => Some(e),
            SweepError::Cell { .. } => None,
        }
    }
}

impl From<teem_linreg::LinregError> for SweepError {
    fn from(e: teem_linreg::LinregError) -> Self {
        SweepError::Profiling(e)
    }
}

/// Field-wise overrides of the executor's [`SimConfig`]: a patch
/// overrides only what it names and keeps every other default.
///
/// ```
/// use teem_scenario::ConfigPatch;
/// use teem_soc::TimeAdvance;
///
/// let cfg = ConfigPatch {
///     time_advance: Some(TimeAdvance::EventDriven),
///     ..ConfigPatch::default()
/// }
/// .onto_default();
/// assert_eq!(cfg.time_advance, TimeAdvance::EventDriven);
/// assert_eq!(cfg.timeout_s, 10_000.0, "scenario timeout survives");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfigPatch {
    /// Timeout override, seconds.
    pub timeout_s: Option<f64>,
    /// Time-advance mode override ([`TimeAdvance::EventDriven`] turns
    /// on gap fast-forwarding).
    pub time_advance: Option<TimeAdvance>,
}

impl ConfigPatch {
    /// Applies the overrides on top of `base`.
    pub fn apply(self, mut base: SimConfig) -> SimConfig {
        if let Some(v) = self.timeout_s {
            base.timeout_s = v;
        }
        if let Some(v) = self.time_advance {
            base.time_advance = v;
        }
        base
    }

    /// Applies the overrides on top of [`SimConfig::default`].
    pub fn onto_default(self) -> SimConfig {
        self.apply(SimConfig::default())
    }
}

/// One cell of the sweep grid: a scenario under one approach with one
/// setting picked from every knob axis.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Linear cell index — the deterministic position in the grid
    /// (scenario-major: the scenario is the outermost axis, the
    /// approach the innermost).
    pub index: usize,
    /// The materialised scenario name: the base name plus a tag per
    /// knob axis the spec set (e.g. `"bursty@thr82/amb30/d100/f1400"`).
    pub name: String,
    /// Management approach.
    pub approach: Approach,
    /// Contention policy the cell co-schedules under.
    pub contention: ContentionPolicy,
    /// Initial default threshold, °C (`None` keeps the scenario's own
    /// timeline).
    pub threshold_c: Option<f64>,
    /// Initial ambient override, °C.
    pub ambient_c: Option<f64>,
    /// TEEM knob set (δ / floor / threshold override).
    pub tunables: TeemTunables,
    /// The thermal-network variant the cell simulates on
    /// ([`SweepSpec::boards`]; the XU4 unless the axis says otherwise).
    pub board: BoardSpec,
    scenario_index: usize,
}

/// One event on the sweep stream.
///
/// Cells start in claim order and complete in finishing order: a worker
/// keeps several cells in flight (two unbatched, one per lane batched),
/// so even at `threads(1)` a cell's [`SweepEvent::CellDone`] can arrive
/// before that of a cell started earlier. Every cell's
/// [`SweepEvent::CellStarted`] precedes its completion.
#[derive(Debug)]
pub enum SweepEvent {
    /// A worker picked up a cell.
    CellStarted {
        /// Linear cell index.
        index: usize,
        /// Materialised cell name.
        name: String,
        /// The cell's approach.
        approach: Approach,
    },
    /// A cell finished; this event owns its full result — the engine
    /// keeps nothing.
    CellDone {
        /// Which cell.
        cell: SweepCell,
        /// Its complete result (summary, trace, timeout flag).
        result: Box<ScenarioResult>,
    },
    /// A cell failed (in-cell error or caught panic); the sweep keeps
    /// draining the remaining cells.
    CellFailed {
        /// Linear cell index.
        index: usize,
        /// Materialised cell name.
        name: String,
        /// Failure description (panic payload or error display).
        message: String,
    },
    /// The sweep is complete; always the last event.
    Finished {
        /// Cells executed in this run: the full grid, minus any cells
        /// skipped by a resume ([`SweepSpec::skip_cells`]) — so 0 when
        /// resuming an already-complete journal.
        cells: usize,
        /// How many failed.
        failed: usize,
    },
}

/// What a finished sweep reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunStats {
    /// Cells this run executed (the full grid minus skipped cells).
    pub cells: usize,
    /// Cells that completed with a result.
    pub completed: usize,
    /// Cells that failed (error or panic).
    pub failed: usize,
    /// Cells skipped because a resumed journal already holds them
    /// ([`SweepSpec::skip_cells`] / `SweepSpec::resume_from`).
    pub skipped: usize,
    /// Wall-clock time of the run, first claim to pool join — the one
    /// denominator every cells/s figure in the workspace divides by.
    pub wall: Duration,
}

impl SweepRunStats {
    /// Executed cells per wall-clock second (0 for an instantaneous or
    /// empty run) — the canonical throughput figure the benches,
    /// examples and `repro` all report.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.cells as f64 / secs
        } else {
            0.0
        }
    }
}

/// A cartesian sweep specification: which scenarios, under which
/// approaches, across which knob grids.
///
/// Axes not set stay at their single default value (the approaches
/// default to TEEM alone, the contention to the paper's serial model,
/// thresholds/ambients/tunables to "whatever the scenario
/// and configuration already say"), so the smallest spec is exactly the
/// old scenario × approach matrix — and with no extra axes the cell
/// scenarios run *unrenamed and untouched*, which is how such a matrix
/// keeps its golden digests bit-identical on this engine.
///
/// # Streaming thousands of cells in O(workers) memory
///
/// The idiom for big grids: aggregate online, keep nothing.
///
/// ```
/// use teem_core::runner::Approach;
/// use teem_scenario::{Scenario, SweepEvent, SweepSpec};
/// use teem_telemetry::SweepAggregator;
/// use teem_workload::App;
///
/// # fn main() -> Result<(), teem_scenario::SweepError> {
/// // scenarios × thresholds × ambients — add axes to taste; the cell
/// // count is the product, the memory stays O(workers).
/// let spec = SweepSpec::over([
///     Scenario::new("spike").arrive(0.0, App::Mvt, 0.9),
///     Scenario::new("pair").arrive(0.0, App::Gesummv, 0.9),
/// ])
/// .approaches(&[Approach::Teem])
/// .thresholds_c(&[82.0, 85.0])
/// .ambients_c(&[25.0]);
///
/// let mut agg = SweepAggregator::new();
/// let stats = spec.run_streaming(|ev| {
///     if let SweepEvent::CellDone { result, .. } = ev {
///         agg.record(&result.summary); // result dropped right here
///     }
/// })?;
/// assert_eq!(stats.cells, 4);
/// assert_eq!(agg.cells(), 4);
/// assert_eq!(agg.trips_total(), 0); // TEEM: proactive, trip-free
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    scenarios: Vec<Scenario>,
    approaches: Vec<Approach>,
    contentions: Vec<ContentionPolicy>,
    thresholds_c: Option<FloatAxis>,
    ambients_c: Option<FloatAxis>,
    tunables: Option<Vec<TeemTunables>>,
    boards: Option<Vec<BoardSpec>>,
    patch: ConfigPatch,
    threads: usize,
    batch: Option<usize>,
    skip: BTreeSet<usize>,
    shard: Option<crate::shard::ShardSpec>,
}

impl SweepSpec {
    /// A sweep over `scenarios`, under TEEM, serial contention, and the
    /// paper's knobs — extend with the axis builders.
    pub fn over(scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        SweepSpec {
            scenarios: scenarios.into_iter().collect(),
            approaches: vec![Approach::Teem],
            contentions: vec![ContentionPolicy::Serial],
            thresholds_c: None,
            ambients_c: None,
            tunables: None,
            boards: None,
            patch: ConfigPatch::default(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            batch: None,
            skip: BTreeSet::new(),
            shard: None,
        }
    }

    /// Sets the approach axis (empty ⇒ zero cells).
    ///
    /// # Panics
    ///
    /// Panics once a skip set or a shard is in place, as every axis
    /// setter does: both name cells by their index in the grid as it
    /// stood, and a new axis would move those indices onto other cells.
    /// Set every axis first.
    pub fn approaches(mut self, approaches: &[Approach]) -> Self {
        self.assert_axes_open("approaches");
        self.approaches = approaches.to_vec();
        self
    }

    /// Sets the contention-policy axis. With more than one policy the
    /// cell names carry a policy tag.
    ///
    /// # Panics
    ///
    /// Panics once a skip set or a shard is in place (see
    /// [`SweepSpec::approaches`]).
    pub fn contentions(mut self, policies: &[ContentionPolicy]) -> Self {
        self.assert_axes_open("contentions");
        self.contentions = policies.to_vec();
        self
    }

    /// Rejects an axis change once skips or a shard have named cells by
    /// index (see [`SweepSpec::approaches`]).
    fn assert_axes_open(&self, axis: &str) {
        assert!(
            self.skip.is_empty() && self.shard.is_none(),
            "the {axis} axis is set after skip_cells, resume_from or shard, which would \
             move the skipped cells onto others; set every axis first"
        );
    }

    /// Adds an initial-threshold axis: every cell scenario is re-based
    /// on the given default threshold
    /// ([`Scenario::with_initial_threshold`]), which flows into each
    /// arrival's requirement. Note that a [`TeemTunables`] knob set
    /// carrying its own `threshold_c` override takes precedence over
    /// this axis (and over per-arrival overrides) for TEEM cells.
    ///
    /// # Panics
    ///
    /// Panics if a threshold is not a plausible silicon threshold
    /// (40 to 120 °C) — validated here, on the caller's thread, rather
    /// than as a worker panic mid-sweep — or if the combination with an
    /// already-set knob axis makes this axis dead (see
    /// [`SweepSpec::tunables`]), or once a skip set or a shard is in
    /// place (see [`SweepSpec::approaches`]).
    pub fn thresholds_c(mut self, thresholds_c: &[f64]) -> Self {
        self.assert_axes_open("thresholds_c");
        for &t in thresholds_c {
            assert!(
                t.is_finite() && (40.0..=120.0).contains(&t),
                "threshold {t} out of plausible range"
            );
        }
        self.thresholds_c = Some(FloatAxis::new(thresholds_c, "thr"));
        self.assert_threshold_axis_alive();
        self
    }

    /// Adds an initial-ambient axis ([`Scenario::with_initial_ambient`]).
    ///
    /// # Panics
    ///
    /// Panics if an ambient is outside −40 to 120 °C, or once a skip
    /// set or a shard is in place (see [`SweepSpec::approaches`]).
    pub fn ambients_c(mut self, ambients_c: &[f64]) -> Self {
        self.assert_axes_open("ambients_c");
        for &a in ambients_c {
            assert!(
                a.is_finite() && (-40.0..=120.0).contains(&a),
                "ambient {a} out of plausible range"
            );
        }
        self.ambients_c = Some(FloatAxis::new(ambients_c, "amb"));
        self
    }

    /// Adds a TEEM knob axis (δ / floor / threshold override per cell;
    /// see [`TeemTunables`]). A knob set with `threshold_c: Some(_)`
    /// overrides the scenario's threshold wholesale for TEEM cells.
    ///
    /// # Panics
    ///
    /// Panics if combined with a [`SweepSpec::thresholds_c`] axis while
    /// *every* knob set overrides the threshold: the threshold axis
    /// would then only multiply the grid with duplicate-physics cells
    /// under different names. Panics, too, once a skip set or a shard
    /// is in place (see [`SweepSpec::approaches`]).
    pub fn tunables(mut self, tunables: &[TeemTunables]) -> Self {
        self.assert_axes_open("tunables");
        self.tunables = Some(tunables.to_vec());
        self.assert_threshold_axis_alive();
        self
    }

    /// Rejects grids whose thresholds axis is provably inert because
    /// every TEEM knob set carries its own threshold override.
    fn assert_threshold_axis_alive(&self) {
        if let (Some(thresholds), Some(tunables)) = (&self.thresholds_c, &self.tunables) {
            let axis_dead = !thresholds.values.is_empty()
                && !tunables.is_empty()
                && tunables.iter().all(|t| t.threshold_c.is_some());
            assert!(
                !axis_dead,
                "every TeemTunables in the knob axis overrides the threshold, so the \
                 thresholds_c axis would only duplicate physics under different cell \
                 names; drop one of the two threshold sources"
            );
        }
    }

    /// Adds a board axis: each cell simulates on the named thermal
    /// network ([`BoardSpec::OdroidXu4`], or a generated
    /// [`BoardSpec::ManyNode`] variant with 16–64 nodes). A physics
    /// axis — boards land in the fingerprint and in the cell-name tags.
    /// The batched path groups same-board cells through one lockstep
    /// pool (boards vary slower than any other axis), rebuilding its
    /// SoA batch only at board boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `boards` is empty, or a [`BoardSpec::ManyNode`] node
    /// count is outside 16..=64 (validated here, on the caller's
    /// thread, not as a worker panic mid-sweep), or once a skip set or
    /// a shard is in place (see [`SweepSpec::approaches`]).
    pub fn boards(mut self, boards: &[BoardSpec]) -> Self {
        self.assert_axes_open("boards");
        assert!(!boards.is_empty(), "boards axis needs at least one entry");
        for b in boards {
            if let BoardSpec::ManyNode { nodes } = *b {
                assert!(
                    (16..=64).contains(&nodes),
                    "many-node boards span 16..=64 nodes, got {nodes}"
                );
            }
        }
        self.boards = Some(boards.to_vec());
        self
    }

    /// Overrides configuration fields on top of [`SimConfig::default`].
    ///
    /// # Panics
    ///
    /// Panics if the patch sets a `timeout_s` that is not finite and
    /// positive, or lies past 2⁵³ ticks of [`teem_soc::DT_S`] (about
    /// 9.0e13 s), as [`ScenarioRunner::with_config`] does.
    pub fn patch_config(mut self, patch: ConfigPatch) -> Self {
        if let Some(t) = patch.timeout_s {
            crate::exec::check_timeout(t);
        }
        self.patch = patch;
        self
    }

    /// Caps the worker count (1 ⇒ one worker, which claims and starts
    /// cells in cell-index order; useful for determinism A/B tests).
    ///
    /// With one worker the sweep spawns no thread: the cells run on the
    /// calling thread and the sink runs inline, between cells. Sink work
    /// such as journal writes therefore serialises with the cells
    /// instead of overlapping them, and counts in every cell's share of
    /// the wall clock.
    ///
    /// Each worker holds more than one cell at a time: unbatched, two,
    /// whose span steps it interleaves, storing each finished cell's
    /// trace digest beside its partner's steps before reporting it (so
    /// a sink's [`Trace::digest`] returns the stored value); batched,
    /// one per lane. Completions therefore arrive in finishing order,
    /// even at `threads(1)`: a short cell claimed after a long one is
    /// reported first. Results and digests do not depend on the worker
    /// count; [`SweepSpec::run_collect`] restores cell-index order.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker");
        self.threads = threads;
        self
    }

    /// Turns on the batched execution path: each worker steps up to `k`
    /// topology-compatible cells in SIMD lockstep through one shared
    /// [`ThermalBatch`](teem_soc::ThermalBatch), refilling lanes from
    /// the shared claim cursor as cells retire. Cells outside the
    /// lockstep-eligible regime (multi-app phases, pending timeline
    /// events, thermal-zone trips) run scalar for exactly those phases
    /// and batch for the rest, so **results are bit-identical to scalar
    /// mode** — the parity suite pins summaries and trace digests
    /// across K.
    ///
    /// This is a scheduling knob like [`SweepSpec::threads`]: it
    /// changes throughput, never results, and is therefore deliberately
    /// **excluded from [`SweepSpec::fingerprint`]** — a journal
    /// recorded scalar resumes fine under batch and vice versa.
    ///
    /// `k = 1` degenerates to stepping single cells through the batch
    /// kernel (still bit-identical; useful for A/B tests). Sequential
    /// runs (`threads(1)`) batch too — K lockstep lanes on one thread.
    ///
    /// Cells of a grid with a board axis enter lanes on every board: a
    /// worker whose pool holds one board's cells holds the first cell
    /// it starts of another board, and claims nothing, until the pool
    /// drains; it then rebuilds the pool for that board.
    ///
    /// When lanes retire together (a cohort of equal-length cells
    /// reaching their timeout on one round), the worker finishes them
    /// all and stores their trace digests in one pass, hashing four
    /// traces at a time ([`Trace::seal_digests`]), before it emits
    /// their [`SweepEvent::CellDone`]s. A sink's
    /// [`Trace::digest`] then returns the stored value, computed on the
    /// worker; a sink that never digests still pays for it there. The
    /// digest bits are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or implausibly large (> 64).
    pub fn batch(mut self, k: usize) -> Self {
        assert!(
            (1..=64).contains(&k),
            "batch lane count {k} out of range (1..=64)"
        );
        self.batch = Some(k);
        self
    }

    /// Marks cells (by linear grid index) to skip: the enumerator never
    /// materialises or executes them, and they do not appear on the
    /// event stream. This is the resume primitive —
    /// [`SweepSpec::resume_from`] feeds it the indices a persisted
    /// [`SweepJournal`](crate::SweepJournal) already holds — and the
    /// substrate shard lowering builds on
    /// ([`SweepSpec::shard`]). Duplicates (within one call or across
    /// calls) collapse to one skip; repeated calls accumulate.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index. An index past the grid can only
    /// mean the caller is skipping cells of a *different* grid — under
    /// the old silently-ignore behavior a mis-paired journal would
    /// quietly re-run nothing it should and skip nothing it shouldn't;
    /// shard lowering needs the loud version.
    pub fn skip_cells(mut self, indices: impl IntoIterator<Item = usize>) -> Self {
        let grid = self.cells();
        for index in indices {
            assert!(
                index < grid,
                "skip_cells index {index} is out of range for the {grid}-cell grid \
                 — these skips belong to a different grid"
            );
            self.skip.insert(index);
        }
        self
    }

    /// The skipped cell indices (what [`SweepSpec::skip_cells`] and
    /// `resume_from` accumulated), in ascending order.
    pub fn skipped_cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.skip.iter().copied()
    }

    /// Restricts this spec to one shard of the grid: every cell the
    /// [`ShardSpec`](crate::ShardSpec) does *not* own is added to the
    /// skip set, and the shard's canonical label is stamped into the
    /// journal header (next to the grid fingerprint) by
    /// [`SweepJournal::create`](crate::SweepJournal::create).
    ///
    /// Sharding is pure scheduling: like the skip set it is **excluded
    /// from [`SweepSpec::fingerprint`]**, so every shard journal of one
    /// campaign carries the same fingerprint as the single-process run
    /// the shards merge into ([`SweepJournal::merge`](crate::SweepJournal::merge)).
    ///
    /// # Panics
    ///
    /// Panics when the shard does not fit the grid
    /// ([`ShardSpec::validate`](crate::ShardSpec::validate)) or when a
    /// shard was already set — two shards compose to a silent subset of
    /// both, which is never what a campaign means.
    pub fn shard(mut self, shard: crate::shard::ShardSpec) -> Self {
        assert!(
            self.shard.is_none(),
            "spec is already sharded ({}) — compose parts via WorkerAssignment, not nested shards",
            self.shard.as_ref().expect("just checked")
        );
        let grid = self.cells();
        if let Err(why) = shard.validate(grid) {
            panic!("shard does not fit the grid: {why}");
        }
        let off_shard: Vec<usize> = (0..grid).filter(|&i| !shard.contains(i)).collect();
        self.shard = Some(shard);
        self.skip_cells(off_shard)
    }

    /// The shard this spec was restricted to, if any.
    pub fn shard_spec(&self) -> Option<&crate::shard::ShardSpec> {
        self.shard.as_ref()
    }

    /// A stable 64-bit fingerprint of everything that determines the
    /// grid's *physics*: every axis (scenarios with their full event
    /// timelines, approaches, contention policies, thresholds,
    /// ambients, tunables, boards) plus the resolved executor
    /// configuration. Scheduling knobs (worker and lane counts) and
    /// the skip set are deliberately excluded — they change completion
    /// order, never results.
    ///
    /// The persisted sweep journal stamps this into its header so a
    /// resume can reject a journal recorded for a *different* grid,
    /// and a cross-commit diff can tell "same grid, changed physics"
    /// from "not the same experiment".
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str("teem-sweep-v2");
        h.u64(self.scenarios.len() as u64);
        for s in &self.scenarios {
            h.str(s.name());
            h.f64(s.initial_ambient_c());
            let events = s.sorted_events();
            h.u64(events.len() as u64);
            for ev in &events {
                h.f64(ev.at_s);
                match ev.event {
                    crate::event::ScenarioEvent::Arrival(req) => {
                        // Exhaustive destructuring: a new physics field
                        // must fail to compile here, not silently
                        // escape the fingerprint.
                        let crate::event::AppRequest {
                            app,
                            treq_factor,
                            threshold_c,
                        } = req;
                        h.u64(0);
                        h.u64(app as u64);
                        h.f64(treq_factor);
                        h.opt_f64(threshold_c);
                    }
                    crate::event::ScenarioEvent::AmbientChange { ambient_c } => {
                        h.u64(1);
                        h.f64(ambient_c);
                    }
                    crate::event::ScenarioEvent::ThresholdChange { threshold_c } => {
                        h.u64(2);
                        h.f64(threshold_c);
                    }
                    crate::event::ScenarioEvent::ApproachChange { approach } => {
                        h.u64(3);
                        h.u64(approach as u64);
                    }
                }
            }
        }
        h.u64(self.approaches.len() as u64);
        for a in &self.approaches {
            h.u64(*a as u64);
        }
        h.u64(self.contentions.len() as u64);
        for c in &self.contentions {
            match c {
                ContentionPolicy::Serial => h.u64(0),
                ContentionPolicy::ClusterExclusive => h.u64(1),
                ContentionPolicy::Shared { max_apps } => {
                    h.u64(2);
                    h.u64(*max_apps as u64);
                }
            }
        }
        let axis = |h: &mut Fnv, v: &Option<FloatAxis>| match v {
            Some(axis) => {
                h.u64(1 + axis.values.len() as u64);
                for &x in &axis.values {
                    h.f64(x);
                }
            }
            None => h.u64(0),
        };
        axis(&mut h, &self.thresholds_c);
        axis(&mut h, &self.ambients_c);
        match &self.tunables {
            Some(ts) => {
                h.u64(1 + ts.len() as u64);
                for t in ts {
                    let TeemTunables {
                        delta_mhz,
                        floor,
                        threshold_c,
                    } = *t;
                    h.u64(u64::from(delta_mhz));
                    h.u64(u64::from(floor.0));
                    h.opt_f64(threshold_c);
                }
            }
            None => h.u64(0),
        }
        // Where the idle-policy axis sat (every grid idles one way), so
        // journals written while it existed still resume.
        h.u64(0);
        match &self.boards {
            Some(bs) => {
                h.u64(1 + bs.len() as u64);
                for &b in bs {
                    match b {
                        BoardSpec::OdroidXu4 => h.u64(0),
                        BoardSpec::ManyNode { nodes } => {
                            h.u64(1);
                            h.u64(u64::from(nodes));
                        }
                    }
                }
            }
            None => h.u64(0),
        }
        // Exhaustive destructuring: adding a physics field to SimConfig
        // breaks this line instead of silently escaping the fingerprint.
        // The engine constants, and `0` for the one idle regime, sit
        // where the config fields they replaced did, so journals
        // written before the move still resume.
        let SimConfig {
            timeout_s,
            time_advance,
        } = self.resolved_config();
        h.f64(DT_S);
        h.f64(SAMPLE_PERIOD_S);
        h.f64(timeout_s);
        h.f64(WARM_START_FRACTION);
        h.u64(0);
        h.u64(match time_advance {
            TimeAdvance::FixedDt => 0,
            TimeAdvance::EventDriven => 1,
        });
        h.finish()
    }

    /// Total number of cells in the grid (the product of every axis).
    pub fn cells(&self) -> usize {
        self.scenarios.len()
            * self.approaches.len()
            * self.contentions.len()
            * self.thresholds_c.as_ref().map_or(1, FloatAxis::len)
            * self.ambients_c.as_ref().map_or(1, FloatAxis::len)
            * self.tunables.as_ref().map_or(1, Vec::len)
            * self.boards.as_ref().map_or(1, Vec::len)
    }

    /// Materialises the cell at `index` (lazy: nothing about a cell
    /// exists until this is called). Axis nesting, outermost to
    /// innermost: scenario, board, threshold, ambient, contention,
    /// tunables, approach — so a plain scenario ×
    /// approach sweep is scenario-major with approaches adjacent,
    /// exactly the pre-refactor matrix order, and same-board cells
    /// stay contiguous for the lockstep pool.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cells()`.
    pub fn cell(&self, index: usize) -> SweepCell {
        assert!(index < self.cells(), "cell {index} out of range");
        let mut rest = index;
        let pick = |rest: &mut usize, n: usize| {
            let i = *rest % n;
            *rest /= n;
            i
        };
        let approach = self.approaches[pick(&mut rest, self.approaches.len())];
        let tunables = match &self.tunables {
            Some(ts) => ts[pick(&mut rest, ts.len())],
            None => TeemTunables::paper(),
        };
        let contention = self.contentions[pick(&mut rest, self.contentions.len())];
        let ambient = self
            .ambients_c
            .as_ref()
            .map(|a| a.pick(pick(&mut rest, a.len())));
        let threshold = self
            .thresholds_c
            .as_ref()
            .map(|t| t.pick(pick(&mut rest, t.len())));
        let board = match &self.boards {
            Some(bs) => bs[pick(&mut rest, bs.len())],
            None => BoardSpec::OdroidXu4,
        };
        let scenario_index = rest;

        // The name is the base name, then `@` and the set axes' tags
        // joined by `/`, written into one exactly sized string.
        let board_tag = self.boards.is_some().then(|| board.label());
        let tunables_tag = self.tunables.is_some().then(|| tunables.label());
        let tags = [
            board_tag.as_deref(),
            threshold.map(|(_, tag)| tag),
            ambient.map(|(_, tag)| tag),
            (self.contentions.len() > 1).then(|| contention.name()),
            tunables_tag.as_deref(),
        ];
        let base = self.scenarios[scenario_index].name();
        let tags_len: usize = tags.iter().flatten().map(|t| 1 + t.len()).sum();
        let mut name = String::with_capacity(base.len() + tags_len);
        name.push_str(base);
        for (i, tag) in tags.iter().flatten().enumerate() {
            name.push(if i == 0 { '@' } else { '/' });
            name.push_str(tag);
        }

        SweepCell {
            index,
            name,
            approach,
            contention,
            threshold_c: threshold.map(|(t, _)| t),
            ambient_c: ambient.map(|(a, _)| a),
            tunables,
            board,
            scenario_index,
        }
    }

    /// The configuration every cell runs with: [`SimConfig::default`]
    /// with the patch applied.
    pub fn resolved_config(&self) -> SimConfig {
        self.patch.onto_default()
    }

    /// Runs the whole grid, handing every [`SweepEvent`] to `sink` on
    /// the calling thread as cells finish — completion order, not grid
    /// order. The engine retains no results, and the event channel is
    /// **bounded** (2 × workers): a sink slower than the workers blocks
    /// them instead of queueing results, so peak resident result state
    /// stays O(workers) no matter the grid or consumer speed.
    ///
    /// Cell failures (including caught panics) become
    /// [`SweepEvent::CellFailed`] and the sweep drains the remaining
    /// cells; the terminal [`SweepEvent::Finished`] carries the failure
    /// count.
    ///
    /// # Errors
    ///
    /// [`SweepError::Profiling`] if an app in the grid cannot be
    /// profiled — detected up front, before any cell runs.
    pub fn run_streaming(&self, sink: impl FnMut(SweepEvent)) -> Result<SweepRunStats, SweepError> {
        self.run_inner(sink, None)
    }

    /// [`SweepSpec::run_streaming`] with the observability plane on:
    /// every worker collects cell counts, a per-cell wall-time
    /// histogram, busy and backpressure time and a Chrome-trace track,
    /// and every cell runs with step-loop timing enabled (reported in
    /// [`ScenarioResult::kernel`]). Returns the stats plus a
    /// [`SweepObsReport`] (metrics registry + trace-event log).
    ///
    /// Instrumentation is observation-only: cell results, digests and
    /// journal records are bit-identical to an uninstrumented run (the
    /// golden-digest tests pin this).
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::run_streaming`].
    pub fn run_instrumented(
        &self,
        sink: impl FnMut(SweepEvent),
    ) -> Result<(SweepRunStats, SweepObsReport), SweepError> {
        let obs = RunObs::new();
        let stats = self.run_inner(sink, Some(&obs))?;
        let report = SweepObsReport::assemble(obs.into_workers(), &stats);
        Ok((stats, report))
    }

    fn run_inner(
        &self,
        mut sink: impl FnMut(SweepEvent),
        obs: Option<&RunObs>,
    ) -> Result<SweepRunStats, SweepError> {
        let wall_t0 = Instant::now();
        let grid = self.cells();
        // The work list: cell indices minus the skip set. The identity
        // case (no skips — every non-resumed sweep) stays lazy and
        // allocation-free; a resume holds one index per *remaining*
        // cell, which is exactly the work it still owes.
        let run_list: Option<Vec<usize>> = if self.skip.is_empty() {
            None
        } else {
            Some((0..grid).filter(|i| !self.skip.contains(i)).collect())
        };
        let total = run_list.as_ref().map_or(grid, Vec::len);
        let skipped = grid - total;
        let to_index = |pos: usize| run_list.as_ref().map_or(pos, |l| l[pos]);
        if total == 0 {
            sink(SweepEvent::Finished {
                cells: 0,
                failed: 0,
            });
            return Ok(SweepRunStats {
                cells: 0,
                completed: 0,
                failed: 0,
                skipped,
                wall: wall_t0.elapsed(),
            });
        }

        // Profile every app and build every board's cell template once,
        // up front, shared with every worker.
        let apps: BTreeSet<App> = self.scenarios.iter().flat_map(Scenario::apps).collect();
        let mut templates: Vec<Arc<CellTemplate>> = Vec::new();
        for &board in self.boards.as_deref().unwrap_or(&[BoardSpec::OdroidXu4]) {
            if templates.iter().all(|t| t.board_spec() != board) {
                templates.push(Arc::new(CellTemplate::new(board)));
            }
        }
        let shared = SweepShared {
            profiles: cached_profiles(apps)?,
            templates,
            config: self.resolved_config(),
        };
        let workers = self.threads.min(total);

        let mut completed = 0usize;
        let mut failed = 0usize;
        let mut deliver = |event: SweepEvent| {
            match &event {
                SweepEvent::CellDone { .. } => completed += 1,
                SweepEvent::CellFailed { .. } => failed += 1,
                _ => {}
            }
            sink(event);
        };

        // One claim cursor over the work list, shared by every worker:
        // a claim is one atomic add, so cells start in work-list order
        // and no cell waits behind a slow sibling. The cursor schedules
        // work-list *positions*; `to_index` maps a position to its grid
        // index (the identity unless cells are skipped for a resume).
        // `Relaxed` suffices: every add still returns a distinct
        // position, and the cursor publishes no data — the work list it
        // indexes is built before any worker spawns.
        let cursor = AtomicUsize::new(0);
        let next = || {
            let pos = cursor.fetch_add(1, Ordering::Relaxed);
            (pos < total).then(|| to_index(pos))
        };

        if workers <= 1 {
            // Sequential: one worker on this thread, handing events
            // straight to the sink.
            self.worker_loop(0, obs, &shared, &next, &mut |_, event| {
                deliver(event);
                true
            });
        } else {
            // Bounded channel = backpressure: when the sink is slower
            // than the workers, producers block on `send` instead of
            // queueing results, so the O(workers) resident-result
            // guarantee holds no matter how slow the consumer is (2×
            // workers leaves each worker one slot of slack before it
            // parks). The sink loop below never blocks on the workers,
            // so the bound cannot deadlock.
            let (tx, rx) = mpsc::sync_channel::<SweepEvent>(workers * 2);

            std::thread::scope(|scope| {
                for me in 0..workers {
                    let tx = tx.clone();
                    let shared = &shared;
                    let next = &next;
                    scope.spawn(move || {
                        // A failed send means the receiver is gone (the
                        // sink panicked mid-sweep); the loop then stops
                        // claiming cells. Only a send that finds the
                        // channel full reads the clock, so the
                        // backpressure figure is time spent blocked.
                        let mut emit = |w: &mut Option<WorkerObs>, event| match tx.try_send(event) {
                            Ok(()) => true,
                            Err(mpsc::TrySendError::Disconnected(_)) => false,
                            Err(mpsc::TrySendError::Full(event)) => {
                                let t0 = clock(w);
                                let sent = tx.send(event).is_ok();
                                if let (Some(x), Some(t0)) = (w.as_mut(), t0) {
                                    x.bank_backpressure(t0);
                                }
                                sent
                            }
                        };
                        self.worker_loop(me, obs, shared, next, &mut emit);
                    });
                }
                drop(tx); // the receiver loop ends when every worker has
                for event in rx {
                    deliver(event);
                }
            });
        }

        let wall = wall_t0.elapsed();
        sink(SweepEvent::Finished {
            cells: total,
            failed,
        });
        Ok(SweepRunStats {
            cells: total,
            completed,
            failed,
            skipped,
            wall,
        })
    }

    /// Convenience for small grids: runs the sweep and returns every
    /// executed result **buffered in cell-index order** — O(cells)
    /// memory by construction; big grids should stream instead.
    /// Skipped cells (a resumed spec) are simply absent from the
    /// output.
    ///
    /// # Errors
    ///
    /// [`SweepError::Profiling`] as [`SweepSpec::run_streaming`], or
    /// [`SweepError::Cell`] naming the first failed cell (the sweep
    /// still drained the others first).
    pub fn run_collect(&self) -> Result<Vec<ScenarioResult>, SweepError> {
        let mut slots: Vec<Option<ScenarioResult>> = (0..self.cells()).map(|_| None).collect();
        let mut failure: Option<SweepError> = None;
        self.run_streaming(|event| match event {
            SweepEvent::CellDone { cell, result } => slots[cell.index] = Some(*result),
            SweepEvent::CellFailed { name, message, .. } if failure.is_none() => {
                failure = Some(SweepError::Cell {
                    cell: name,
                    message,
                });
            }
            _ => {}
        })?;
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !self.skip.contains(i))
            .map(|(_, r)| r.expect("every non-skipped cell streamed exactly once"))
            .collect())
    }

    /// Builds `cell`'s configured runner on the run's shared profiles
    /// and its board's cell template, and prepares the cell from its
    /// base scenario with the cell's name, threshold and ambient
    /// overrides and a buffer set from `spare`, panics caught; the
    /// set-up is timed into the worker's collector when it is
    /// instrumented.
    fn prepare(
        &self,
        cell: &SweepCell,
        shared: &SweepShared,
        spare: &mut SpareBuffers,
        wobs: &mut Option<WorkerObs>,
    ) -> Result<(ScenarioRunner, CellSim), String> {
        let scenario = &self.scenarios[cell.scenario_index];
        let template = shared
            .templates
            .iter()
            .find(|t| t.board_spec() == cell.board)
            .expect("every board on the axis has a template");
        let mut runner = ScenarioRunner::with_shared(
            cell.approach,
            Arc::clone(&shared.profiles),
            Arc::clone(template),
        )
        .with_contention(cell.contention)
        .with_tunables(cell.tunables)
        .with_config(shared.config)
        .with_step_timing(wobs.is_some());
        let buffers = spare.take();
        let sim = catch_cell(|| {
            let t0 = clock(wobs);
            let sim = runner.prepare_cell(
                scenario,
                &cell.name,
                cell.threshold_c,
                cell.ambient_c,
                buffers,
            )?;
            if let (Some(w), Some(t0)) = (wobs.as_mut(), t0) {
                w.record_prepare(t0);
            }
            Ok(sim)
        })?;
        Ok((runner, sim))
    }

    /// Starts one cell: prepares it ([`SweepSpec::prepare`]) and steps
    /// it on the scalar loop, panics caught. With `admit` set the cell
    /// stops at the first lockstep-eligible step boundary; otherwise,
    /// or if it never becomes eligible, it runs to completion — exactly
    /// [`ScenarioRunner::run`]'s calls — and gives its buffers back.
    fn start_cell(
        &self,
        cell: &SweepCell,
        shared: &SweepShared,
        admit: bool,
        spare: &mut SpareBuffers,
        wobs: &mut Option<WorkerObs>,
    ) -> CellStart {
        let (mut runner, mut sim) = match self.prepare(cell, shared, spare, wobs) {
            Ok(prepared) => prepared,
            Err(message) => return CellStart::Failed(message),
        };
        catch_cell(move || loop {
            if admit && crate::lockstep::eligible_for_lockstep(&sim) {
                return Ok(CellStart::Eligible(Box::new((runner, sim))));
            }
            if !runner.step_cell(&mut sim, !admit)? {
                let result = finish_cell(&runner, sim, spare, wobs);
                return Ok(CellStart::Done(Box::new(result)));
            }
        })
        .unwrap_or_else(CellStart::Failed)
    }

    /// The worker loop every sweep runs, sequential or pooled, batched
    /// or not: claim cells through `next`, run them, and hand their
    /// events to `emit`, which returns `false` once the consumer is
    /// gone and so stops the loop. The two call sites differ only in
    /// `emit`.
    ///
    /// Unbatched, the worker keeps up to [`SLOTS`] cells in flight and
    /// interleaves their span steps ([`SlotWorker`]). A worker reports
    /// each cell when it finishes, not when it was claimed, so even at
    /// `threads(1)` completions arrive in finishing order; cells still
    /// start in claim order. In batch mode ([`SweepSpec::batch`]) a
    /// started cell that reaches lockstep eligibility is admitted into
    /// a K-lane pool instead; lockstep rounds then run while any lane
    /// is occupied, retiring cells finish on the scalar path, and freed
    /// lanes refill from the claim stream. An eligible cell of another
    /// board than the pool's is held, and nothing is claimed, until the
    /// pool drains; the pool is then rebuilt for its board.
    fn worker_loop(
        &self,
        worker: usize,
        obs: Option<&RunObs>,
        shared: &SweepShared,
        next: &dyn Fn() -> Option<usize>,
        emit: &mut dyn FnMut(&mut Option<WorkerObs>, SweepEvent) -> bool,
    ) {
        let mut wobs = obs.map(|o| WorkerObs::new(worker, o.epoch));
        match self.batch {
            Some(k) => self.lockstep_worker(k, &mut wobs, shared, next, emit),
            None => SlotWorker {
                spec: self,
                shared,
                next,
                emit,
                wobs: &mut wobs,
                spare: SpareBuffers::new(SLOTS),
                dry: false,
                dead: false,
            }
            .run(),
        }
        if let (Some(w), Some(o)) = (wobs, obs) {
            o.collected
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(w);
        }
    }

    /// The batched branch of [`SweepSpec::worker_loop`]: a `k`-lane
    /// lockstep pool, refilled from the claim stream.
    fn lockstep_worker(
        &self,
        k: usize,
        wobs: &mut Option<WorkerObs>,
        shared: &SweepShared,
        next: &dyn Fn() -> Option<usize>,
        emit: &mut dyn FnMut(&mut Option<WorkerObs>, SweepEvent) -> bool,
    ) {
        let instrument = wobs.is_some();
        let mut pool = LockstepPool::new(k, &Board::odroid_xu4_ideal().thermal, instrument);
        // Finished cells' buffer sets for the cells this worker starts
        // next. A worker holds at most one cell per lane plus the one it
        // is starting or holding, so it never has more sets than that.
        let mut spare = SpareBuffers::new(k + 1);
        // Cells resident in the pool with their start instants, keyed
        // by cell index (≤ K entries; linear scans are fine).
        let mut in_flight: Vec<(SweepCell, Option<Instant>)> = Vec::new();
        let mut retired = Vec::new();
        let mut finished = Vec::new();
        // A started, eligible cell waiting for the pool to drain.
        let mut held: Option<(SweepCell, Option<Instant>, EligibleCell)> = None;
        let mut dry = false; // `next` ran out of cells
        let mut dead = false; // `emit` reported a gone consumer

        loop {
            // Claim and start cells while a lane is free. A held cell
            // goes first and blocks claiming until it is admitted.
            while !dead && pool.has_free_lane() {
                let (cell, started, start) = match held.take() {
                    Some((cell, started, boxed)) => (cell, started, CellStart::Eligible(boxed)),
                    None if dry => break,
                    None => {
                        let Some(index) = next() else {
                            dry = true;
                            break;
                        };
                        let cell = self.cell(index);
                        let announce = SweepEvent::CellStarted {
                            index,
                            name: cell.name.clone(),
                            approach: cell.approach,
                        };
                        if !emit(wobs, announce) {
                            dead = true;
                            break;
                        }
                        let started = clock(wobs);
                        let start = self.start_cell(&cell, shared, true, &mut spare, wobs);
                        bank_busy(wobs, started);
                        (cell, started, start)
                    }
                };
                let outcome = match start {
                    CellStart::Eligible(boxed) => {
                        // Board-axis boundary: a cell of another board
                        // waits until the pool has drained, then the SoA
                        // batch is rebuilt for its board (folding the
                        // old pool's counters first) instead of
                        // degrading the cell to scalar.
                        let thermal = &boxed.1.board.thermal;
                        if !pool.matches_topology(thermal) {
                            if !pool.is_empty() {
                                held = Some((cell, started, boxed));
                                break;
                            }
                            fold_pool_obs(wobs, &pool);
                            pool = LockstepPool::new(pool.lanes(), thermal, instrument);
                        }
                        let (runner, sim) = *boxed;
                        match pool.admit(runner, sim, cell.index) {
                            Ok(()) => {
                                in_flight.push((cell, started));
                                continue;
                            }
                            // Admission re-checks eligibility and
                            // topology; a refused cell runs scalar.
                            Err((runner, sim, _)) => {
                                let busy_t0 = clock(wobs);
                                let outcome = finish_scalar(runner, sim, &mut spare, wobs);
                                bank_busy(wobs, busy_t0);
                                outcome
                            }
                        }
                    }
                    CellStart::Done(result) => Ok(*result),
                    CellStart::Failed(message) => Err(message),
                };
                dead |= !report_cell(wobs, emit, cell, started, outcome);
            }
            // Nothing resident (or the consumer is gone, dropping the
            // cells still in flight): the worker is done.
            if dead || pool.is_empty() {
                break;
            }

            // One lockstep round, panic-isolated: a panicking manager
            // or model must cost its own cells a scalar re-run, not the
            // grid. Lanes retired before the panic left the pool at
            // valid phase boundaries and finish normally.
            let busy_t0 = clock(wobs);
            let round =
                std::panic::catch_unwind(AssertUnwindSafe(|| pool.step_round(&mut retired)));
            bank_busy(wobs, busy_t0);
            if round.is_err() {
                // Mid-round state is not a valid scalar boundary; the
                // stuck cells re-run from scratch through the start
                // path with lane admission off (a deterministic panic
                // reproduces there and fails the cell with its payload;
                // CellStarted was already sent).
                for token in pool.evict_all() {
                    let (cell, started) = take_in_flight(&mut in_flight, token);
                    let busy_t0 = clock(wobs);
                    let outcome = self.rerun(&cell, shared, &mut spare, wobs);
                    bank_busy(wobs, busy_t0);
                    dead |= !report_cell(wobs, emit, cell, started, outcome);
                }
            }

            if retired.is_empty() {
                continue;
            }
            // Finish every retired lane on the scalar path (a lane that
            // completed in-pool terminates on its first step_cell call,
            // so completion and divergence share this code), store the
            // cohort's trace digests in one interleaved pass, then
            // report the cells in retirement order.
            let busy_t0 = clock(wobs);
            for r in retired.drain(..) {
                let (cell, started) = take_in_flight(&mut in_flight, r.token);
                let outcome = finish_scalar(r.runner, r.sim, &mut spare, wobs);
                finished.push((cell, started, r.steps_at_entry, outcome));
            }
            let mut traces: Vec<&mut Trace> = finished
                .iter_mut()
                .filter_map(|(.., outcome)| outcome.as_mut().ok().map(|r| &mut r.trace))
                .collect();
            Trace::seal_digests(&mut traces);
            bank_busy(wobs, busy_t0);
            for (cell, started, steps_at_entry, outcome) in finished.drain(..) {
                if let (Some(w), Ok(result)) = (wobs.as_mut(), &outcome) {
                    let in_pool = result.kernel.steps.saturating_sub(steps_at_entry);
                    w.record_lane_occupancy(result.kernel.batched_steps, in_pool);
                }
                dead |= !report_cell(wobs, emit, cell, started, outcome);
            }
        }

        // Fold the pool's counters into the worker's collector.
        fold_pool_obs(wobs, &pool);
    }

    /// Re-runs a cell from scratch on the single-cell path, lane
    /// admission off, after a panic left its state mid-step: a
    /// deterministic panic reproduces there and fails the cell with its
    /// payload.
    fn rerun(
        &self,
        cell: &SweepCell,
        shared: &SweepShared,
        spare: &mut SpareBuffers,
        wobs: &mut Option<WorkerObs>,
    ) -> Result<ScenarioResult, String> {
        match self.start_cell(cell, shared, false, spare, wobs) {
            CellStart::Done(result) => Ok(*result),
            CellStart::Failed(message) => Err(message),
            CellStart::Eligible(_) => unreachable!("lane admission is off"),
        }
    }
}

/// A float knob axis (thresholds, ambients): its values, and each
/// value's cell-name tag (`thr82.5`, `amb30`), formatted once when the
/// axis is set instead of once per cell.
#[derive(Debug, Clone)]
struct FloatAxis {
    values: Vec<f64>,
    tags: Vec<String>,
}

impl FloatAxis {
    fn new(values: &[f64], prefix: &str) -> Self {
        FloatAxis {
            values: values.to_vec(),
            tags: values.iter().map(|v| format!("{prefix}{v}")).collect(),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// Value `i` and its tag.
    fn pick(&self, i: usize) -> (f64, &str) {
        (self.values[i], &self.tags[i])
    }
}

/// What every cell of one sweep run shares, built once before the
/// first cell: the offline profiles, one cell template per distinct
/// board on the board axis, and the resolved configuration.
struct SweepShared {
    profiles: Arc<ProfileStore>,
    templates: Vec<Arc<CellTemplate>>,
    config: SimConfig,
}

/// The shared offline-profile store for an app set, memoised across
/// sweeps: profiling is deterministic (the regression observations are
/// simulated on the canonical ideal board, the same board every
/// [`SweepSpec::run_streaming`] profiles against), so repeated sweeps —
/// benches, examples, test suites, resumed campaigns — reuse one store
/// instead of re-simulating the observation set per call.
fn cached_profiles(apps: BTreeSet<App>) -> Result<Arc<ProfileStore>, SweepError> {
    static CACHE: Mutex<Vec<(BTreeSet<App>, Arc<ProfileStore>)>> = Mutex::new(Vec::new());
    let mut cache = CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, store)) = cache.iter().find(|(k, _)| *k == apps) {
        return Ok(Arc::clone(store));
    }
    let store = build_profile_store(&Board::odroid_xu4_ideal(), apps.iter().copied())
        .map_err(SweepError::Profiling)?
        .into_shared();
    cache.push((apps, Arc::clone(&store)));
    Ok(store)
}

/// Folds a lockstep pool's counters into the worker's collector — at
/// worker exit, and before a board-boundary pool rebuild discards the
/// old pool.
fn fold_pool_obs(wobs: &mut Option<WorkerObs>, pool: &LockstepPool) {
    if let Some(w) = wobs.as_mut() {
        w.kernel.merge(&pool.obs);
        w.batch_rounds += pool.rounds;
        w.batch_lane_steps += pool.lane_steps;
        w.batch_lane_slots += pool.lane_slots;
    }
}

/// A suspended, lockstep-eligible cell: its runner and simulation.
type EligibleCell = Box<(ScenarioRunner, CellSim)>;

/// A worker's spare [`CellBuffers`]: each finished cell's set, handed to
/// the next cell the worker starts. Holds at most `cap` sets and drops
/// a set given back past that; a failed or evicted cell drops its own.
struct SpareBuffers {
    sets: Vec<CellBuffers>,
    cap: usize,
}

impl SpareBuffers {
    fn new(cap: usize) -> Self {
        SpareBuffers {
            sets: Vec::with_capacity(cap),
            cap,
        }
    }

    /// The most recently returned set, or an empty one, which allocates
    /// as its cell first uses it.
    fn take(&mut self) -> CellBuffers {
        self.sets.pop().unwrap_or_default()
    }

    /// Keeps a finished cell's set for a later cell, unless `cap` sets
    /// are already spare.
    fn give(&mut self, buffers: CellBuffers) {
        if self.sets.len() < self.cap {
            self.sets.push(buffers);
        }
    }
}

/// How a started cell came out of [`SweepSpec::start_cell`].
enum CellStart {
    /// Lockstep-eligible: the suspended simulation, ready to admit.
    Eligible(EligibleCell),
    /// Ran to completion (admission off, or a short or never-eligible
    /// cell).
    Done(Box<ScenarioResult>),
    /// Failed or panicked.
    Failed(String),
}

/// Cells an unbatched worker keeps in flight. A span step is one
/// latency-bound chain (temperatures → leakage → power → Euler), and so
/// is a trace digest's FNV-1a fold; two chains in flight take a step
/// from about 42 to 23 ns on the `thermal_step` bench's
/// `physics_step_frozen_two_chains_xu4` row, and four only to about
/// 18, while every further slot keeps another whole cell and trace
/// resident.
const SLOTS: usize = 2;

/// Samples of a finished cell's trace digest one turn folds: 32 bytes
/// of FNV-1a cost about one span step's latency
/// (`physics_step_frozen_fold32_xu4`), so a fold and its partner's step
/// take turns at one pace.
const FOLD_SAMPLES: usize = 2;

/// One cell an unbatched worker holds, with its claim instant.
struct Slot {
    cell: SweepCell,
    started: Option<Instant>,
    work: Work,
}

/// What a held cell needs next. The running cell stays unboxed: a
/// worker holds its two slots in place, and a box would cost every cell
/// one more allocation.
#[allow(clippy::large_enum_variant)]
enum Work {
    /// Running: between spans (`span` is `None`, its next step begins
    /// in the begin phase) or inside an open span.
    Run {
        runner: ScenarioRunner,
        sim: CellSim,
        span: Option<OpenSpan>,
    },
    /// Finished: its trace digest is being folded
    /// ([`Trace::fold_digest`]) until it is `stored`; the cell is then
    /// reported.
    Fold {
        result: ScenarioResult,
        stored: bool,
    },
}

impl Work {
    /// Runs one unit: a step of the open span, or `samples` samples of
    /// the digest. Returns `true` when that ends the slot's run of
    /// units: the span is over, or the digest is stored.
    #[inline(always)]
    fn unit(&mut self, samples: usize) -> bool {
        match self {
            Work::Run {
                sim,
                span: Some(span),
                ..
            } => sim.span_step(span),
            Work::Fold { result, .. } => result.trace.fold_digest(samples),
            Work::Run { span: None, .. } => unreachable!("a settled slot has a unit to run"),
        }
    }

    /// Ends this slot's run of units: its span is over, or its digest
    /// is stored.
    fn end_run(&mut self) {
        match self {
            Work::Run { span, .. } => *span = None,
            Work::Fold { stored, .. } => *stored = true,
        }
    }
}

/// An unbatched sweep worker: up to [`SLOTS`] cells in flight.
///
/// A turn advances every slot by one unit: an open span by one step
/// ([`CellSim::span_step`]), a finished cell's digest by
/// [`FOLD_SAMPLES`] samples. The turns of two slots run in one loop, so
/// the out-of-order core overlaps their latency-bound chains; the loop
/// stops when either unit's run ends. The begin phase then runs one
/// slot at a time: claiming and preparing a cell, beginning its next
/// step ([`ScenarioRunner::begin_step`], which fast-forwards a whole
/// idle gap), finishing it, and reporting it once its digest is
/// stored, which the sink then reads instead of computing.
///
/// Each cell runs exactly the operations a run to completion would,
/// so results and digests do not depend on its partner. A panic inside
/// the joint loop leaves both cells mid-step; both re-run from scratch
/// on the single-cell path, as lockstep pool recovery does.
struct SlotWorker<'a> {
    spec: &'a SweepSpec,
    shared: &'a SweepShared,
    next: &'a dyn Fn() -> Option<usize>,
    emit: &'a mut dyn FnMut(&mut Option<WorkerObs>, SweepEvent) -> bool,
    wobs: &'a mut Option<WorkerObs>,
    /// One buffer set per slot.
    spare: SpareBuffers,
    /// `next` ran out of cells.
    dry: bool,
    /// `emit` reported a gone consumer.
    dead: bool,
}

impl SlotWorker<'_> {
    fn run(mut self) {
        let mut slots: [Option<Slot>; SLOTS] = [None, None];
        loop {
            for slot in &mut slots {
                self.settle(slot);
            }
            // Nothing held (or the consumer is gone, dropping the cells
            // still in flight): the worker is done.
            if self.dead || slots.iter().all(Option::is_none) {
                return;
            }
            let busy_t0 = clock(self.wobs);
            let turns = std::panic::catch_unwind(AssertUnwindSafe(|| run_turns(&mut slots)));
            bank_busy(self.wobs, busy_t0);
            match turns {
                Ok(ended) => {
                    for (slot, ended) in slots.iter_mut().zip(ended) {
                        if let (true, Some(slot)) = (ended, slot) {
                            slot.work.end_run();
                        }
                    }
                }
                Err(_) => {
                    for slot in &mut slots {
                        let Some(Slot { cell, started, .. }) = slot.take() else {
                            continue;
                        };
                        let busy_t0 = clock(self.wobs);
                        let outcome =
                            self.spec
                                .rerun(&cell, self.shared, &mut self.spare, self.wobs);
                        bank_busy(self.wobs, busy_t0);
                        self.report(cell, started, outcome);
                    }
                }
            }
        }
    }

    /// The begin phase of one slot: brings it to a unit the joint loop
    /// can run (an open span, or a digest still folding), claiming,
    /// preparing, beginning, finishing and reporting cells on the way.
    /// Leaves the slot empty once nothing is left to claim.
    fn settle(&mut self, slot: &mut Option<Slot>) {
        while !self.dead {
            let Some(held) = slot else {
                *slot = self.claim();
                if slot.is_none() {
                    return;
                }
                continue;
            };
            match &mut held.work {
                Work::Run { span: Some(_), .. } | Work::Fold { stored: false, .. } => return,
                Work::Run {
                    runner,
                    sim,
                    span: span @ None,
                } => {
                    let busy_t0 = clock(self.wobs);
                    let begun = catch_cell(|| runner.begin_step(sim, true));
                    bank_busy(self.wobs, busy_t0);
                    match begun {
                        Ok(StepBegin::Span(open)) => *span = Some(open),
                        Ok(StepBegin::Stepped) => {}
                        Ok(StepBegin::Finished) => self.finish(slot),
                        Err(message) => {
                            let held = slot.take().expect("slot holds a cell");
                            self.report(held.cell, held.started, Err(message));
                        }
                    }
                }
                Work::Fold { stored: true, .. } => {
                    let Some(Slot {
                        cell,
                        started,
                        work: Work::Fold { result, .. },
                    }) = slot.take()
                    else {
                        unreachable!("the slot holds a folded cell");
                    };
                    self.report(cell, started, Ok(result));
                }
            }
        }
    }

    /// Claims the next cell, announces it and prepares it; a cell that
    /// fails to prepare is reported and the next one claimed. `None`
    /// once the claim stream runs dry or the consumer is gone.
    fn claim(&mut self) -> Option<Slot> {
        while !self.dry && !self.dead {
            let Some(index) = (self.next)() else {
                self.dry = true;
                break;
            };
            let cell = self.spec.cell(index);
            let announce = SweepEvent::CellStarted {
                index,
                name: cell.name.clone(),
                approach: cell.approach,
            };
            if !(self.emit)(self.wobs, announce) {
                self.dead = true;
                break;
            }
            let started = clock(self.wobs);
            let prepared = self
                .spec
                .prepare(&cell, self.shared, &mut self.spare, self.wobs);
            bank_busy(self.wobs, started);
            match prepared {
                Ok((runner, sim)) => {
                    return Some(Slot {
                        cell,
                        started,
                        work: Work::Run {
                            runner,
                            sim,
                            span: None,
                        },
                    })
                }
                Err(message) => self.report(cell, started, Err(message)),
            }
        }
        None
    }

    /// Closes out the finished cell in `slot`, panics caught, and leaves
    /// it folding its digest; a cell whose close-out fails is reported.
    fn finish(&mut self, slot: &mut Option<Slot>) {
        let Some(Slot {
            cell,
            started,
            work: Work::Run { runner, sim, .. },
        }) = slot.take()
        else {
            unreachable!("only a running cell finishes");
        };
        let busy_t0 = clock(self.wobs);
        let finished = catch_cell(|| Ok(finish_cell(&runner, sim, &mut self.spare, self.wobs)));
        bank_busy(self.wobs, busy_t0);
        match finished {
            Ok(result) => {
                *slot = Some(Slot {
                    cell,
                    started,
                    work: Work::Fold {
                        result,
                        stored: false,
                    },
                });
            }
            Err(message) => self.report(cell, started, Err(message)),
        }
    }

    /// Reports a cell's outcome; marks the worker dead once the
    /// consumer is gone.
    fn report(
        &mut self,
        cell: SweepCell,
        started: Option<Instant>,
        outcome: Result<ScenarioResult, String>,
    ) {
        self.dead |= !report_cell(self.wobs, self.emit, cell, started, outcome);
    }
}

/// Runs turns of every held slot's unit until one slot's run of units
/// ends; returns which slots' runs ended. A lone slot runs its span to
/// its end, or folds its digest whole.
fn run_turns(slots: &mut [Option<Slot>; SLOTS]) -> [bool; SLOTS] {
    match slots {
        [Some(a), Some(b)] => loop {
            #[cfg(test)]
            tests::joint_fault();
            let ended = [a.work.unit(FOLD_SAMPLES), b.work.unit(FOLD_SAMPLES)];
            if ended[0] || ended[1] {
                return ended;
            }
        },
        [Some(lone), None] | [None, Some(lone)] => {
            while !lone.work.unit(usize::MAX) {}
            [slots[0].is_some(), slots[1].is_some()]
        }
        [None, None] => [false; SLOTS],
    }
}

/// Runs one cell's execution segment with panics caught, turning an
/// in-cell error or a panic payload into the cell's failure message.
fn catch_cell<T>(
    segment: impl FnOnce() -> Result<T, teem_linreg::LinregError>,
) -> Result<T, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(segment)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(e.to_string()),
        // `&*payload`, not `&payload`: coercing `&Box<dyn Any>`
        // would downcast against the box itself and lose the text.
        Err(payload) => Err(format!("panicked: {}", panic_message(&*payload))),
    }
}

/// Drives a suspended cell to completion on the scalar path, panics
/// caught, and gives its buffers back to `spare`. A cell whose timeline
/// already completed in-pool terminates on the first `step_cell` call,
/// so completion and divergence share this one exit.
fn finish_scalar(
    mut runner: ScenarioRunner,
    mut sim: CellSim,
    spare: &mut SpareBuffers,
    wobs: &mut Option<WorkerObs>,
) -> Result<ScenarioResult, String> {
    catch_cell(move || {
        while runner.step_cell(&mut sim, true)? {}
        Ok(finish_cell(&runner, sim, spare, wobs))
    })
}

/// Closes out a finished cell, timed into the worker's collector when
/// it is instrumented, and gives the cell's buffers back to `spare`.
fn finish_cell(
    runner: &ScenarioRunner,
    sim: CellSim,
    spare: &mut SpareBuffers,
    wobs: &mut Option<WorkerObs>,
) -> ScenarioResult {
    let t0 = clock(wobs);
    let (result, buffers) = runner.finish_cell(sim);
    if let (Some(w), Some(t0)) = (wobs.as_mut(), t0) {
        w.record_finish(t0);
    }
    spare.give(buffers);
    result
}

/// Reads the clock only when the worker is instrumented: an
/// uninstrumented run never reads it.
fn clock(wobs: &Option<WorkerObs>) -> Option<Instant> {
    wobs.as_ref().map(|_| Instant::now())
}

/// Banks the execution segment that began at `t0` as busy time.
fn bank_busy(wobs: &mut Option<WorkerObs>, t0: Option<Instant>) {
    if let (Some(w), Some(t0)) = (wobs.as_mut(), t0) {
        w.bank_busy(t0);
    }
}

/// Removes the pool-resident cell admitted under `token` (its index)
/// from the in-flight list.
fn take_in_flight(
    in_flight: &mut Vec<(SweepCell, Option<Instant>)>,
    token: usize,
) -> (SweepCell, Option<Instant>) {
    let pos = in_flight
        .iter()
        .position(|(cell, _)| cell.index == token)
        .expect("lane was in flight");
    in_flight.remove(pos)
}

/// Records a finished cell on the worker's collector (wall time from
/// `started`, its start) and sends its outcome as the right event;
/// `false` when the consumer is gone.
fn report_cell(
    wobs: &mut Option<WorkerObs>,
    emit: &mut dyn FnMut(&mut Option<WorkerObs>, SweepEvent) -> bool,
    cell: SweepCell,
    started: Option<Instant>,
    outcome: Result<ScenarioResult, String>,
) -> bool {
    if let (Some(w), Some(t0)) = (wobs.as_mut(), started) {
        w.record_cell(&cell.name, cell.index, t0, &outcome);
    }
    let event = match outcome {
        Ok(result) => SweepEvent::CellDone {
            cell,
            result: Box::new(result),
        },
        Err(message) => SweepEvent::CellFailed {
            index: cell.index,
            name: cell.name,
            message,
        },
    };
    emit(wobs, event)
}

/// Best-effort human-readable panic payload. `panic!` and most code
/// produce `&'static str` or `String`; `panic_any` callers also throw
/// `Box<str>` and `Cow<'static, str>`, so those are unwrapped too —
/// anything else keeps its type name so the [`SweepEvent::CellFailed`]
/// message is never an empty shrug.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<Box<str>>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<std::borrow::Cow<'static, str>>() {
        s.to_string()
    } else {
        format!("non-string panic payload ({:?})", payload.type_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AppRequest, ScenarioEvent};
    use teem_soc::MHz;

    fn two_scenarios() -> Vec<Scenario> {
        vec![
            Scenario::new("a").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("b").arrive(0.0, App::Gesummv, 0.9),
        ]
    }

    #[test]
    fn cell_count_is_the_axis_product() {
        let spec = SweepSpec::over(two_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .thresholds_c(&[80.0, 85.0, 90.0])
            .ambients_c(&[20.0, 30.0]);
        assert_eq!(spec.cells(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn enumeration_is_scenario_major_with_approach_innermost() {
        let spec =
            SweepSpec::over(two_scenarios()).approaches(&[Approach::Teem, Approach::Ondemand]);
        assert_eq!(spec.cells(), 4);
        let names: Vec<(String, Approach)> = (0..4)
            .map(|i| {
                let c = spec.cell(i);
                (c.name, c.approach)
            })
            .collect();
        assert_eq!(names[0], ("a".to_string(), Approach::Teem));
        assert_eq!(names[1], ("a".to_string(), Approach::Ondemand));
        assert_eq!(names[2], ("b".to_string(), Approach::Teem));
        assert_eq!(names[3], ("b".to_string(), Approach::Ondemand));
    }

    #[test]
    fn no_extra_axes_means_untouched_scenario_names() {
        let spec = SweepSpec::over(two_scenarios());
        assert_eq!(spec.cell(0).name, "a", "no knob tags without knob axes");
        assert_eq!(spec.cell(0).tunables, TeemTunables::paper());
        assert_eq!(spec.cell(0).threshold_c, None);
    }

    #[test]
    fn knob_axes_tag_the_cell_names() {
        let spec = SweepSpec::over(two_scenarios())
            .thresholds_c(&[82.0])
            .ambients_c(&[30.0])
            .tunables(&[TeemTunables::paper().with_delta(100).with_floor(MHz(1000))]);
        let c = spec.cell(0);
        assert_eq!(c.name, "a@thr82/amb30/d100/f1000");
    }

    #[test]
    #[should_panic(expected = "plausible")]
    fn threshold_axis_is_validated_up_front() {
        let _ = SweepSpec::over(two_scenarios()).thresholds_c(&[500.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate physics")]
    fn dead_threshold_axis_is_rejected() {
        // Every knob set overrides the threshold, so the thresholds
        // axis could only clone cells under different names.
        let _ = SweepSpec::over(two_scenarios())
            .thresholds_c(&[80.0, 85.0])
            .tunables(&[
                TeemTunables::paper().with_threshold(82.0),
                TeemTunables::paper().with_threshold(88.0),
            ]);
    }

    #[test]
    fn threshold_axis_with_partially_overriding_knobs_is_allowed() {
        // One knob set keeps the requirement's threshold, so the axis
        // still changes physics for those cells.
        let spec = SweepSpec::over(two_scenarios())
            .thresholds_c(&[80.0, 85.0])
            .tunables(&[
                TeemTunables::paper(),
                TeemTunables::paper().with_threshold(82.0),
            ]);
        assert_eq!(spec.cells(), 2 * 2 * 2);
    }

    #[test]
    fn panicking_sink_stops_the_workers_early() {
        // A sink panic drops the receiver; workers must stop claiming
        // cells instead of simulating the rest of the grid into a
        // closed channel.
        let spec = SweepSpec::over(two_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .thresholds_c(&[80.0, 82.0, 84.0, 86.0])
            .threads(2);
        let spec_ref = &spec;
        let ran = std::sync::Mutex::new(0usize);
        let ran_ref = &ran;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            spec_ref
                .run_streaming(|ev| {
                    if let SweepEvent::CellDone { .. } = ev {
                        *ran_ref.lock().unwrap() += 1;
                        panic!("sink gave up");
                    }
                })
                .expect("profiling fine")
        }));
        assert!(result.is_err(), "the sink panic must propagate");
        // The panic unwound on the first completed cell; the workers
        // cannot have streamed the whole 16-cell grid afterwards (at
        // most the cells already in flight or queued drain).
        assert!(*ran.lock().unwrap() <= 1, "sink ran after its own panic");
    }

    #[test]
    fn empty_grid_finishes_immediately() {
        let spec = SweepSpec::over([]);
        let mut events = 0;
        let stats = spec
            .run_streaming(|ev| {
                events += 1;
                assert!(matches!(
                    ev,
                    SweepEvent::Finished {
                        cells: 0,
                        failed: 0
                    }
                ));
            })
            .expect("empty grid");
        assert_eq!(events, 1);
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn stream_pairs_started_and_done_and_ends_with_finished() {
        let spec = SweepSpec::over(two_scenarios()).threads(2);
        let mut started = vec![false; spec.cells()];
        let mut done = vec![false; spec.cells()];
        let mut finished = false;
        let stats = spec
            .run_streaming(|ev| {
                assert!(!finished, "nothing after Finished");
                match ev {
                    SweepEvent::CellStarted { index, .. } => started[index] = true,
                    SweepEvent::CellDone { cell, result } => {
                        assert!(started[cell.index], "Started precedes Done");
                        assert!(!result.timed_out);
                        done[cell.index] = true;
                    }
                    SweepEvent::CellFailed { .. } => panic!("no cell should fail"),
                    SweepEvent::Finished { cells, failed } => {
                        assert_eq!(cells, 2);
                        assert_eq!(failed, 0);
                        finished = true;
                    }
                }
            })
            .expect("runs");
        assert!(finished);
        assert!(done.iter().all(|&d| d));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn collect_orders_by_cell_index_across_thread_counts() {
        let spec =
            SweepSpec::over(two_scenarios()).approaches(&[Approach::Teem, Approach::Ondemand]);
        let seq = spec.clone().threads(1).run_collect().expect("runs");
        let par = spec.threads(4).run_collect().expect("runs");
        assert_eq!(seq.len(), 4);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.trace.digest(), b.trace.digest());
        }
    }

    #[test]
    fn panicking_cell_fails_alone_and_the_rest_drain() {
        // A per-app threshold override far outside the plausible range
        // panics inside the worker (UserRequirement's validation) — the
        // engine must convert it to CellFailed and still run the other
        // cells.
        let poison = Scenario::new("poison").at(
            0.0,
            ScenarioEvent::Arrival(AppRequest::new(App::Mvt, 0.9).with_threshold(500.0)),
        );
        let good = Scenario::new("good").arrive(0.0, App::Mvt, 0.9);
        let spec = SweepSpec::over([poison, good]).threads(2);
        let mut failed_names = Vec::new();
        let mut done_names = Vec::new();
        let stats = spec
            .run_streaming(|ev| match ev {
                SweepEvent::CellFailed { name, message, .. } => {
                    assert!(message.contains("panicked"), "{message}");
                    // The actual panic payload — not a generic shrug —
                    // must reach the event (observability contract).
                    assert!(
                        message.contains("out of plausible range"),
                        "payload text lost: {message}"
                    );
                    failed_names.push(name);
                }
                SweepEvent::CellDone { cell, .. } => done_names.push(cell.name),
                _ => {}
            })
            .expect("profiling still fine");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(failed_names, vec!["poison".to_string()]);
        assert_eq!(done_names, vec!["good".to_string()]);

        // run_collect surfaces the failure as an error naming the cell.
        let err = spec.run_collect().expect_err("poison cell fails");
        let msg = err.to_string();
        assert!(msg.contains("poison"), "{msg}");
    }

    thread_local! {
        /// When set, the joint loop of a worker on this thread panics
        /// after this many more two-slot turns, once.
        static JOINT_FAULT: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    }

    /// The joint loop's fault hook (see [`JOINT_FAULT`]).
    pub(super) fn joint_fault() {
        JOINT_FAULT.with(|fault| match fault.get() {
            Some(0) => {
                fault.set(None);
                panic!("injected joint-loop fault");
            }
            Some(n) => fault.set(Some(n - 1)),
            None => {}
        });
    }

    /// A long two-arrival scenario: its cell runs beside another for
    /// many span steps.
    fn long_scenario(name: &str) -> Scenario {
        Scenario::new(name)
            .arrive(0.0, App::Syrk, 0.9)
            .arrive(2.0, App::Covariance, 0.9)
    }

    /// `scenario`'s summary and trace digest from a standalone run.
    fn solo(scenario: &Scenario) -> (teem_telemetry::ScenarioSummary, u64) {
        let result = ScenarioRunner::new(Approach::Teem)
            .run(scenario)
            .expect("solo run");
        (result.summary, result.trace.digest())
    }

    #[test]
    fn a_cell_panicking_mid_run_fails_alone_beside_its_partner() {
        // The poisoned cell runs for 5 s before its second arrival's
        // 500 °C threshold panics; at threads(1) its partner runs in the
        // other slot all that time, and carries on alone afterwards.
        let poison = Scenario::new("poison").arrive(0.0, App::Mvt, 0.9).at(
            5.0,
            ScenarioEvent::Arrival(AppRequest::new(App::Mvt, 0.9).with_threshold(500.0)),
        );
        let good = long_scenario("good");
        let expected = solo(&good);
        let spec = SweepSpec::over([poison, good]).threads(1);
        let mut failed = Vec::new();
        let mut done = Vec::new();
        let stats = spec
            .run_streaming(|ev| match ev {
                SweepEvent::CellFailed { name, message, .. } => failed.push((name, message)),
                SweepEvent::CellDone { cell, result } => {
                    done.push((cell.name, result.summary, result.trace.digest()));
                }
                _ => {}
            })
            .expect("profiling fine");
        assert_eq!((stats.completed, stats.failed), (1, 1));
        let [(name, message)] = failed.as_slice() else {
            panic!("one failure, got {failed:?}");
        };
        assert_eq!(name, "poison");
        assert!(message.contains("out of plausible range"), "{message}");
        let [(name, summary, digest)] = done.as_slice() else {
            panic!("one completion");
        };
        assert_eq!(name, "good");
        assert_eq!((summary, *digest), (&expected.0, expected.1));
        assert!(summary.makespan_s > 5.0, "the good cell outlives the panic");
    }

    #[test]
    fn a_joint_loop_panic_reruns_both_cells_from_scratch() {
        let scenarios = [long_scenario("a"), long_scenario("b")];
        let expected: Vec<_> = scenarios.iter().map(solo).collect();
        let spec = SweepSpec::over(scenarios).threads(1);
        let mut results = vec![None, None];
        JOINT_FAULT.with(|f| f.set(Some(300)));
        let (stats, report) = spec
            .run_instrumented(|ev| {
                if let SweepEvent::CellDone { cell, result } = ev {
                    results[cell.index] = Some((result.summary, result.trace.digest()));
                }
            })
            .expect("runs");
        assert_eq!(
            JOINT_FAULT.with(std::cell::Cell::get),
            None,
            "the fault fired inside the joint loop"
        );
        assert_eq!((stats.completed, stats.failed), (2, 0));
        let snap = report.snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count);
        assert_eq!(
            count("cell.prepare_ns"),
            Some(4),
            "both cells prepared twice"
        );
        assert_eq!(count("cell.wall_ns"), Some(2), "each cell reported once");
        for (result, expected) in results.into_iter().zip(expected) {
            assert_eq!(result, Some(expected));
        }
    }

    #[test]
    fn an_instrumented_two_slot_worker_accounts_for_every_cell_once() {
        // Uneven cells, so the two slots finish out of claim order.
        let spec = SweepSpec::over([
            long_scenario("long"),
            Scenario::new("short").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("late").arrive(1.5, App::Gesummv, 0.9),
        ])
        .thresholds_c(&[80.0, 85.0])
        .patch_config(ConfigPatch {
            time_advance: Some(teem_soc::TimeAdvance::EventDriven),
            ..ConfigPatch::default()
        })
        .threads(1);
        let plain = spec.run_collect().expect("runs");
        let mut digests = vec![0; spec.cells()];
        let (stats, report) = spec
            .run_instrumented(|ev| {
                if let SweepEvent::CellDone { cell, result } = ev {
                    digests[cell.index] = result.trace.digest();
                }
            })
            .expect("runs");
        assert_eq!(stats.completed, spec.cells());
        for (plain, digest) in plain.iter().zip(&digests) {
            assert_eq!(plain.trace.digest(), *digest, "instrumenting moves no bits");
        }
        let snap = report.snapshot();
        for name in ["cell.prepare_ns", "cell.finish_ns", "cell.wall_ns"] {
            let h = snap.histogram(name).expect("registered");
            assert_eq!(h.count, stats.cells as u64, "{name}: one sample per cell");
        }
        // Step timing ran, and every timed phase lies inside busy time:
        // the span steps the joint loop ran are banked with the rest.
        let k = &report.kernel;
        assert!(k.thermal_ns > 0 && k.power_ns > 0 && k.control_ns > 0);
        let timed = k.thermal_ns + k.power_ns + k.control_ns + k.sample_ns + k.trace_ns;
        assert!(
            report.busy_ns >= timed,
            "busy {} ns < timed phases {timed} ns",
            report.busy_ns
        );
    }

    #[test]
    fn panic_message_unwraps_common_payload_types() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(Box::<str>::from("boxed"));
        assert_eq!(panic_message(s.as_ref()), "boxed");
        let s: Box<dyn std::any::Any + Send> =
            Box::new(std::borrow::Cow::<'static, str>::from("cowed"));
        assert_eq!(panic_message(s.as_ref()), "cowed");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert!(panic_message(s.as_ref()).contains("non-string panic payload"));
    }

    #[test]
    fn config_patch_rides_on_scenario_defaults() {
        let cfg = SweepSpec::over(two_scenarios())
            .patch_config(ConfigPatch {
                time_advance: Some(TimeAdvance::EventDriven),
                ..ConfigPatch::default()
            })
            .resolved_config();
        assert_eq!(cfg.time_advance, TimeAdvance::EventDriven);
        assert_eq!(
            cfg.timeout_s, 10_000.0,
            "patch must not lose the scenario-scale timeout"
        );
    }

    #[test]
    #[should_panic(expected = "set every axis first")]
    fn an_axis_set_after_a_shard_or_skips_panics() {
        let three = || {
            vec![
                Scenario::new("a").arrive(0.0, App::Mvt, 0.9),
                Scenario::new("b").arrive(0.0, App::Gesummv, 0.9),
                Scenario::new("c").arrive(0.0, App::Syrk, 0.9),
            ]
        };
        let both = [Approach::Teem, Approach::Ondemand];
        // `mod:0/2` of the 3-cell grid skips cell 1: doubling the grid
        // afterwards would run cells [0, 2, 3, 4, 5] under a journal
        // header whose shard owns only [0, 2, 4]. `range:0..3` skips
        // nothing, yet its header would name three of the six cells.
        for label in ["mod:0/2", "range:0..3"] {
            let payload = std::panic::catch_unwind(|| {
                SweepSpec::over(three())
                    .shard(label.parse().expect("valid shard label"))
                    .approaches(&both)
            })
            .expect_err("an axis after a shard panics");
            let message = panic_message(&*payload);
            assert!(
                message.contains("set every axis first"),
                "{label}: {message}"
            );
        }
        // After plain skips the same call would move them onto other
        // cells.
        let _ = SweepSpec::over(three()).skip_cells([1]).approaches(&both);
    }

    #[test]
    fn the_claim_cursor_starts_every_remaining_cell_once() {
        let skipped = [0, 3, 7, 8, 15];
        let spec = SweepSpec::over(two_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .thresholds_c(&[80.0, 82.0, 84.0, 86.0])
            .patch_config(ConfigPatch {
                timeout_s: Some(2.0),
                ..ConfigPatch::default()
            })
            .skip_cells(skipped);
        let remaining: Vec<usize> = (0..spec.cells()).filter(|i| !skipped.contains(i)).collect();

        // One worker claims the work list front to back.
        let mut started = Vec::new();
        spec.clone()
            .threads(1)
            .run_streaming(|ev| {
                if let SweepEvent::CellStarted { index, .. } = ev {
                    started.push(index);
                }
            })
            .expect("runs");
        assert_eq!(started, remaining, "threads(1) starts cells in order");

        // Four workers share the cursor: every remaining cell starts
        // exactly once, and the per-worker counts add up to the run.
        let mut started = Vec::new();
        let (stats, report) = spec
            .threads(4)
            .run_instrumented(|ev| {
                if let SweepEvent::CellStarted { index, .. } = ev {
                    started.push(index);
                }
            })
            .expect("runs");
        started.sort_unstable();
        assert_eq!(started, remaining, "each remaining cell starts once");
        assert_eq!(stats.cells, remaining.len());
        let snap = report.snapshot();
        let worker_cells: u64 = (0..report.workers)
            .map(|w| snap.counter(&format!("worker.{w:02}.cells")).unwrap_or(0))
            .sum();
        assert_eq!(Some(worker_cells), snap.counter("sweep.cells"));
    }
}
