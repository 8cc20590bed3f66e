//! Sweep-side observability: the per-worker collectors the sweep pool
//! fills during an instrumented run, the [`SweepObsReport`] they fold
//! into, and the [`ProgressReporter`] sink that turns the
//! [`SweepEvent`] stream into a throttled live line.
//!
//! Every worker owns its [`WorkerObs`] privately for the whole run (no
//! lock, no atomic, no false sharing on the hot path) and pushes it
//! into the shared collection vector exactly once, at exit. Assembly —
//! merging histograms, naming tracks, computing utilization — happens
//! after the pool has joined, on the calling thread.

use std::sync::Mutex;
use std::time::Instant;

use teem_soc::StepObs;
use teem_telemetry::obs::{
    ArgValue, LogHistogram, MetricsRegistry, MetricsSnapshot, ProgressModel, TraceEventLog,
};
use teem_telemetry::SweepAggregator;

use crate::exec::ScenarioResult;
use crate::journal::JournalIoStats;
use crate::sweep::{SweepEvent, SweepRunStats};

/// Saturating nanoseconds since `t0`.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Everything one pool worker observes during an instrumented sweep:
/// cell counts and wall-time histogram, busy and backpressure time, the
/// merged step-loop accumulator of every cell it ran, and its own
/// Chrome-trace track.
#[derive(Debug)]
pub(crate) struct WorkerObs {
    /// Worker index (also the trace track id).
    pub worker: usize,
    /// The run's shared trace epoch (trace timestamps are relative to
    /// it).
    epoch: Instant,
    /// Cells this worker executed (completed + failed).
    pub cells: u64,
    /// Cells that failed on this worker.
    pub failed: u64,
    /// Nanoseconds spent executing cells.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked sending events into the pool's
    /// bounded channel because the sink lagged (zero on a sequential
    /// run, whose sink runs inline).
    pub backpressure_ns: u64,
    /// Per-cell wall time, nanoseconds.
    pub cell_wall: LogHistogram,
    /// Wall time of each cell's set-up (`prepare_cell`), nanoseconds.
    pub cell_prepare: LogHistogram,
    /// Wall time of each cell's close-out (`finish_cell`), nanoseconds.
    pub cell_finish: LogHistogram,
    /// Step-loop accumulator merged across every cell this worker ran.
    pub kernel: StepObs,
    /// Fast-forwarded idle-gap lengths (milliseconds) merged across
    /// every cell this worker ran — empty under fixed-dt advance.
    pub gap_len_ms: LogHistogram,
    /// Cells this worker admitted into a lockstep pool (zero in scalar
    /// mode).
    pub lanes_entered: u64,
    /// Sum of per-cell lane occupancies, in permille of post-admission
    /// steps executed on the batched path. Kept as an exact integer sum
    /// so a divergence-free run assembles to a `batch.lane_occupancy`
    /// gauge of exactly 1.0.
    pub occupancy_permille_sum: u64,
    /// Per-cell lane-occupancy distribution (permille).
    pub lane_occupancy: LogHistogram,
    /// Lockstep rounds this worker's pool executed.
    pub batch_rounds: u64,
    /// Lane-steps executed across those rounds (live lanes only).
    pub batch_lane_steps: u64,
    /// Lane-slots offered across those rounds (K × rounds) — the
    /// `batch.lane_utilization` denominator.
    pub batch_lane_slots: u64,
    /// This worker's trace track: one complete event per cell.
    pub trace: TraceEventLog,
}

impl WorkerObs {
    /// A fresh collector for `worker`, stamping trace timestamps
    /// relative to `epoch`.
    pub fn new(worker: usize, epoch: Instant) -> Self {
        WorkerObs {
            worker,
            epoch,
            cells: 0,
            failed: 0,
            busy_ns: 0,
            backpressure_ns: 0,
            cell_wall: LogHistogram::new(),
            cell_prepare: LogHistogram::new(),
            cell_finish: LogHistogram::new(),
            kernel: StepObs::default(),
            gap_len_ms: LogHistogram::new(),
            lanes_entered: 0,
            occupancy_permille_sum: 0,
            lane_occupancy: LogHistogram::new(),
            batch_rounds: 0,
            batch_lane_steps: 0,
            batch_lane_slots: 0,
            trace: TraceEventLog::new(),
        }
    }

    /// Banks time spent executing: one execution segment (a cell's
    /// start, a lockstep round, a retiring cell's finish). Busy time is
    /// banked per segment, not per cell, because pooled cells' wall
    /// clocks overlap and cannot be summed.
    pub fn bank_busy(&mut self, t0: Instant) {
        self.busy_ns = self.busy_ns.saturating_add(ns_since(t0));
    }

    /// Records a cell's set-up that began at `t0`.
    pub fn record_prepare(&mut self, t0: Instant) {
        self.cell_prepare.record(ns_since(t0));
    }

    /// Records a cell's close-out that began at `t0`.
    pub fn record_finish(&mut self, t0: Instant) {
        self.cell_finish.record(ns_since(t0));
    }

    /// Banks time spent blocked on a full event channel.
    pub fn bank_backpressure(&mut self, t0: Instant) {
        self.backpressure_ns = self.backpressure_ns.saturating_add(ns_since(t0));
    }

    /// Records the lane occupancy of one pooled cell: the fraction
    /// (permille, half-up) of its post-admission engine steps that ran
    /// on the batched path. A cell that never diverged after admission
    /// scores exactly 1000.
    pub fn record_lane_occupancy(&mut self, batched_steps: u64, steps_in_pool: u64) {
        if steps_in_pool == 0 {
            return;
        }
        let permille = (1000 * batched_steps + steps_in_pool / 2) / steps_in_pool;
        self.lanes_entered += 1;
        self.occupancy_permille_sum += permille;
        self.lane_occupancy.record(permille);
    }

    /// Records one finished cell: its start-to-finish wall time into
    /// the histogram, the kernel accumulator folded in, and a complete
    /// trace event on this worker's track. Busy time is not touched
    /// here; [`WorkerObs::bank_busy`] banks it per execution segment.
    pub fn record_cell(
        &mut self,
        name: &str,
        index: usize,
        started: Instant,
        outcome: &Result<ScenarioResult, String>,
    ) {
        let wall_ns = ns_since(started);
        self.cells += 1;
        self.cell_wall.record(wall_ns);
        let status = match outcome {
            Ok(result) => {
                self.kernel.merge(&result.kernel);
                self.gap_len_ms.merge(&result.gap_len_ms);
                "ok"
            }
            Err(_) => {
                self.failed += 1;
                "failed"
            }
        };
        let ts_us = started.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.trace.complete(
            name,
            self.worker as u32,
            ts_us,
            wall_ns as f64 / 1e3,
            vec![
                ("index", ArgValue::Num(index as f64)),
                ("status", ArgValue::Str(status.to_string())),
            ],
        );
    }
}

/// The shared run-scope context an instrumented sweep threads through
/// the pool: the trace epoch every worker stamps timestamps against,
/// and the vector each worker pushes its [`WorkerObs`] into at exit.
#[derive(Debug)]
pub(crate) struct RunObs {
    pub(crate) epoch: Instant,
    pub(crate) collected: Mutex<Vec<WorkerObs>>,
}

impl RunObs {
    pub(crate) fn new() -> Self {
        RunObs {
            epoch: Instant::now(),
            collected: Mutex::new(Vec::new()),
        }
    }

    /// Takes the collected per-worker observations, worker order.
    pub(crate) fn into_workers(self) -> Vec<WorkerObs> {
        let mut workers = self
            .collected
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        workers.sort_by_key(|w| w.worker);
        workers
    }
}

/// What an instrumented sweep run
/// ([`SweepSpec::run_instrumented`](crate::SweepSpec::run_instrumented))
/// returns beside its [`SweepRunStats`]: the assembled metrics
/// registry, the Chrome trace-event log (one track per worker), and the
/// merged step-loop accumulator.
#[derive(Debug)]
pub struct SweepObsReport {
    /// Every pool/engine metric, named; snapshot with
    /// [`SweepObsReport::snapshot`].
    pub registry: MetricsRegistry,
    /// One track per worker, one complete event per cell — export with
    /// [`SweepObsReport::write_trace`].
    pub trace: TraceEventLog,
    /// Workers the pool actually ran.
    pub workers: usize,
    /// Step-loop counters and power/thermal time split, merged across
    /// every cell.
    pub kernel: StepObs,
    /// Total nanoseconds workers spent executing cells.
    pub busy_ns: u64,
}

impl SweepObsReport {
    /// Folds the per-worker collections into the named metrics and the
    /// merged trace.
    pub(crate) fn assemble(per_worker: Vec<WorkerObs>, stats: &SweepRunStats) -> Self {
        let mut registry = MetricsRegistry::new();
        let mut trace = TraceEventLog::new();
        let mut kernel = StepObs::default();
        let mut busy_ns = 0u64;
        let mut backpressure_ns = 0u64;
        let mut lanes_entered = 0u64;
        let mut occupancy_sum = 0u64;
        let mut lane_steps = 0u64;
        let mut lane_slots = 0u64;

        registry.add_named("sweep.cells", stats.cells as u64);
        registry.add_named("sweep.completed", stats.completed as u64);
        registry.add_named("sweep.failed", stats.failed as u64);
        registry.add_named("sweep.skipped", stats.skipped as u64);
        let wall_s = stats.wall.as_secs_f64();
        registry.set_named("sweep.wall_s", wall_s);
        registry.set_named("sweep.cells_per_sec", stats.cells_per_sec());

        for w in &per_worker {
            let id = w.worker;
            registry.add_named(&format!("worker.{id:02}.cells"), w.cells);
            registry.add_named(&format!("worker.{id:02}.failed"), w.failed);
            let busy_s = w.busy_ns as f64 / 1e9;
            registry.set_named(&format!("worker.{id:02}.busy_s"), busy_s);
            // Over the sweep's whole wall clock, so spawn, start-up and
            // every wait count against the worker.
            registry.set_named(
                &format!("worker.{id:02}.utilization"),
                if wall_s > 0.0 { busy_s / wall_s } else { 0.0 },
            );
            registry.merge_histogram("cell.wall_ns", &w.cell_wall);
            registry.merge_histogram("cell.prepare_ns", &w.cell_prepare);
            registry.merge_histogram("cell.finish_ns", &w.cell_finish);
            registry.merge_histogram("engine.gap_len_ms", &w.gap_len_ms);
            registry.merge_histogram("batch.lane_occupancy", &w.lane_occupancy);
            kernel.merge(&w.kernel);
            busy_ns = busy_ns.saturating_add(w.busy_ns);
            backpressure_ns = backpressure_ns.saturating_add(w.backpressure_ns);
            lanes_entered += w.lanes_entered;
            occupancy_sum += w.occupancy_permille_sum;
            lane_steps += w.batch_lane_steps;
            lane_slots += w.batch_lane_slots;

            trace.thread_name(id as u32, &format!("sweep worker {id}"));
        }
        registry.add_named("pool.backpressure_ns", backpressure_ns);
        registry.add_named("engine.steps", kernel.steps);
        registry.add_named("engine.batched_steps", kernel.batched_steps);
        registry.add_named("batch.lanes_entered", lanes_entered);
        registry.add_named(
            "batch.rounds",
            per_worker.iter().map(|w| w.batch_rounds).sum(),
        );
        if lanes_entered > 0 {
            // Exact when every pooled cell scored 1000‰: the sum is then
            // 1000·n and the division yields precisely 1.0.
            registry.set_named(
                "batch.lane_occupancy",
                occupancy_sum as f64 / (1000 * lanes_entered) as f64,
            );
        }
        if lane_slots > 0 {
            registry.set_named(
                "batch.lane_utilization",
                lane_steps as f64 / lane_slots as f64,
            );
        }
        registry.add_named("engine.substeps", kernel.substeps);
        registry.add_named("engine.power_ns", kernel.power_ns);
        registry.add_named("engine.thermal_ns", kernel.thermal_ns);
        registry.add_named("engine.sample_ns", kernel.sample_ns);
        registry.add_named("engine.trace_ns", kernel.trace_ns);
        registry.add_named("engine.control_ns", kernel.control_ns);
        registry.add_named("engine.gaps_skipped", kernel.gaps_skipped);
        registry.add_named("engine.gap_segments", kernel.gap_segments);
        registry.set_named("engine.gap_fastforward_s", kernel.gap_fastforward_s);

        let workers = per_worker.len();
        // A worker holding several cells at once logs them as they
        // finish; its track lists them as they started.
        for mut w in per_worker {
            w.trace.sort_by_ts();
            trace.extend(w.trace);
        }
        SweepObsReport {
            registry,
            trace,
            workers,
            kernel,
            busy_ns,
        }
    }

    /// Folds a [`SweepJournal`](crate::SweepJournal)'s I/O counters into
    /// the registry (call before [`SweepObsReport::snapshot`] when the
    /// sweep wrote a journal).
    pub fn add_journal(&mut self, io: &JournalIoStats) {
        self.registry.add_named("journal.records", io.records);
        self.registry.add_named("journal.bytes", io.bytes);
        self.registry.add_named("journal.fsyncs", io.fsyncs);
        self.registry
            .add_named("journal.torn_repairs", io.torn_tail_repairs);
    }

    /// The name-sorted metrics snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Writes the Chrome trace-event JSON to `path` (load it in
    /// `chrome://tracing` or Perfetto).
    ///
    /// # Errors
    ///
    /// Any file I/O failure.
    pub fn write_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.trace.to_json())
    }

    /// A terminal table splitting worker busy time between the power
    /// model, the thermal integration, sensor sampling, trace
    /// recording, the control/actuate phases, and everything else the
    /// step loop does (event handling, progress, scheduling) — only
    /// meaningful when the run timed (instrumented runs always do).
    ///
    /// A scalar step evaluates node power inside its one fused thermal
    /// call ([`teem_soc::ThermalModel::step_frozen`]), so on scalar
    /// steps the power row is the model refresh alone, and the thermal
    /// rows, the per-sub-step figure included, contain the power
    /// evaluation. Batched rounds time the two apart.
    pub fn kernel_split(&self) -> String {
        use std::fmt::Write as _;
        let k = &self.kernel;
        let busy = self.busy_ns.max(1) as f64;
        let other_ns = self
            .busy_ns
            .saturating_sub(k.power_ns)
            .saturating_sub(k.thermal_ns)
            .saturating_sub(k.sample_ns)
            .saturating_sub(k.trace_ns)
            .saturating_sub(k.control_ns);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel time split ({} steps, {} thermal sub-steps):",
            k.steps, k.substeps
        );
        for (label, ns) in [
            ("power model*", k.power_ns),
            ("thermal integration*", k.thermal_ns),
            ("sensor sampling", k.sample_ns),
            ("trace recording", k.trace_ns),
            ("control+actuate", k.control_ns),
            ("engine other", other_ns),
        ] {
            let _ = writeln!(
                out,
                "  {label:<22} {:>10.1} ms  {:>5.1}%",
                ns as f64 / 1e6,
                100.0 * ns as f64 / busy
            );
        }
        if k.substeps > 0 {
            let _ = writeln!(
                out,
                "  {:<22} {:>10.0} ns",
                "per thermal sub-step*",
                k.thermal_ns as f64 / k.substeps as f64
            );
        }
        let _ = writeln!(
            out,
            "  * scalar steps evaluate node power inside the thermal step; \
             batched rounds time the power model apart"
        );
        out
    }
}

/// A [`SweepEvent`] sink producing a throttled live progress line:
/// done/total, cells/s, ETA, failure count, Pareto-front size and
/// worker utilization — the campaign-scale analogue of the paper's
/// online telemetry loop.
///
/// Feed every event to [`ProgressReporter::observe`] and print whatever
/// it returns; the terminal `Finished` event always yields a final
/// line. The embedded [`SweepAggregator`] (for the Pareto-front size)
/// is available afterwards via [`ProgressReporter::aggregator`], so a
/// caller gets the live line *and* the end-of-run report from one sink.
#[derive(Debug)]
pub struct ProgressReporter {
    model: ProgressModel,
    agg: SweepAggregator,
}

impl ProgressReporter {
    /// A reporter for a sweep of `total` cells on `workers` workers
    /// (threads actually used, e.g. [`SweepSpec::threads`] capped by
    /// the grid — used only for the utilization denominator).
    ///
    /// [`SweepSpec::threads`]: crate::SweepSpec::threads
    pub fn new(total: usize, workers: usize) -> Self {
        ProgressReporter {
            model: ProgressModel::new(total, workers),
            agg: SweepAggregator::new(),
        }
    }

    /// Overrides the line throttle (default 100 ms; zero emits on every
    /// event).
    pub fn with_min_interval(mut self, min_interval: std::time::Duration) -> Self {
        self.model = self.model.with_min_interval(min_interval);
        self
    }

    /// Folds one event; returns a progress line when one is due (always
    /// on `Finished`).
    pub fn observe(&mut self, event: &SweepEvent) -> Option<String> {
        match event {
            SweepEvent::CellStarted { .. } => {
                self.model.started();
                self.model.poll()
            }
            SweepEvent::CellDone { result, .. } => {
                self.agg.record(&result.summary);
                self.model.finished(false);
                self.model.set_pareto(self.agg.pareto_front().len());
                self.model.poll()
            }
            SweepEvent::CellFailed { .. } => {
                self.model.finished(true);
                self.model.poll()
            }
            SweepEvent::Finished { .. } => Some(self.model.line()),
        }
    }

    /// Failures folded so far.
    pub fn failed(&self) -> usize {
        self.model.failed()
    }

    /// The aggregator fed by every `CellDone` — the end-of-run report.
    pub fn aggregator(&self) -> &SweepAggregator {
        &self.agg
    }
}

/// The coordinator's campaign-wide progress line: per-shard journal
/// tallies folded into one `done/total` view with live-worker count,
/// campaign-level rate and ETA — one line for N processes, the
/// process-level analogue of [`ProgressReporter`]'s one line for N
/// threads.
///
/// Unlike [`ProgressReporter`] this is not an event sink: the
/// coordinator has no in-process event stream, only journal files. It
/// polls their record counts and calls [`CampaignProgress::update`];
/// the struct owns the throttle and the rendering.
///
/// Rate and ETA follow the shared first-tick convention (see
/// `ProgressModel` in `teem-telemetry`): until wall time *and* at least
/// one completed cell exist they render as `--`, never `inf`/`NaN`.
#[derive(Debug)]
pub(crate) struct CampaignProgress {
    total: usize,
    workers: usize,
    epoch: Instant,
    last_emit: Option<Instant>,
    min_interval: std::time::Duration,
}

impl CampaignProgress {
    /// A progress view for a campaign of `total` cells starting on
    /// `workers` worker processes.
    pub fn new(total: usize, workers: usize) -> Self {
        CampaignProgress {
            total,
            workers,
            epoch: Instant::now(),
            last_emit: None,
            min_interval: std::time::Duration::from_millis(100),
        }
    }

    /// Folds the latest journal tallies; returns a line when one is due
    /// (throttled).
    pub fn update(&mut self, done: usize, failed: usize, live: usize) -> Option<String> {
        let due = match self.last_emit {
            None => true,
            Some(at) => at.elapsed() >= self.min_interval,
        };
        if !due {
            return None;
        }
        self.last_emit = Some(Instant::now());
        Some(self.line_with(done, failed, live))
    }

    /// Renders a line unconditionally — the coordinator's final line
    /// after the fleet has drained (`live` is then 0).
    pub fn line(&mut self, live: usize) -> String {
        self.line_with(self.total, 0, live)
    }

    fn line_with(&self, done: usize, failed: usize, live: usize) -> String {
        let elapsed = self.epoch.elapsed().as_secs_f64();
        let (rate, eta) = if elapsed > 0.0 && done > 0 {
            let rate = done as f64 / elapsed;
            let eta = if done < self.total {
                format!("{:.1}s", (self.total - done) as f64 / rate)
            } else {
                "-".to_string()
            };
            (format!("{rate:.0}"), eta)
        } else {
            ("--".to_string(), "--".to_string())
        };
        let pct = if self.total > 0 {
            100.0 * done as f64 / self.total as f64
        } else {
            100.0
        };
        format!(
            "campaign {done}/{} ({pct:.0}%) | {live}/{} workers live | {rate} cells/s | \
             ETA {eta} | {failed} failed",
            self.total, self.workers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_progress_first_tick_shows_dashes_and_throttles() {
        let mut p = CampaignProgress {
            min_interval: std::time::Duration::ZERO,
            ..CampaignProgress::new(500, 3)
        };
        let line = p.update(0, 0, 3).expect("zero throttle always emits");
        assert!(line.contains("campaign 0/500"), "{line}");
        assert!(line.contains("3/3 workers live"), "{line}");
        assert!(line.contains("-- cells/s"), "{line}");
        assert!(line.contains("ETA --"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");

        let mut throttled = CampaignProgress::new(500, 3);
        assert!(throttled.update(0, 0, 3).is_some(), "first line is free");
        assert!(
            throttled.update(1, 0, 3).is_none(),
            "second within 100 ms is suppressed"
        );

        std::thread::sleep(std::time::Duration::from_millis(2));
        let line = p.update(250, 2, 2).expect("emits");
        assert!(line.contains("campaign 250/500 (50%)"), "{line}");
        assert!(line.contains("2/3 workers live"), "{line}");
        assert!(line.contains("2 failed"), "{line}");
        assert!(!line.contains("--"), "rate and ETA are live now: {line}");

        let fin = p.line(0);
        assert!(fin.contains("campaign 500/500 (100%)"), "{fin}");
        assert!(fin.contains("0/3 workers live"), "{fin}");
        assert!(fin.contains("ETA -"), "{fin}");
    }

    #[test]
    fn worker_obs_folds_cells_into_histogram_and_trace() {
        let epoch = Instant::now();
        let mut w = WorkerObs::new(3, epoch);
        w.record_cell("cell-a", 7, Instant::now(), &Err("boom".to_string()));
        assert_eq!(w.cells, 1);
        assert_eq!(w.failed, 1);
        assert_eq!(w.cell_wall.count(), 1);
        assert_eq!(w.trace.len(), 1);
        assert_eq!(w.trace.events()[0].tid, 3);
    }

    #[test]
    fn instrumented_sweeps_time_each_cells_prepare_and_finish() {
        use crate::scenario::Scenario;
        use crate::sweep::{ConfigPatch, SweepSpec};
        use teem_workload::App;

        let spec = SweepSpec::over([Scenario::new("a").arrive(0.0, App::Mvt, 0.9)])
            .thresholds_c(&[80.0, 84.0, 88.0])
            .ambients_c(&[20.0, 30.0])
            .patch_config(ConfigPatch {
                timeout_s: Some(1.0),
                ..ConfigPatch::default()
            })
            .threads(1);
        for spec in [spec.clone(), spec.batch(4)] {
            let (stats, report) = spec.run_instrumented(|_| {}).expect("sweep runs");
            let snap = report.snapshot();
            for name in ["cell.prepare_ns", "cell.finish_ns"] {
                let h = snap
                    .histogram(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(
                    h.count, stats.completed as u64,
                    "{name}: one sample per cell"
                );
                assert!(h.max > 0, "{name}: a cell takes time");
            }
        }
    }

    #[test]
    fn report_assembles_per_worker_sums_and_tracks() {
        let epoch = Instant::now();
        let mut a = WorkerObs::new(0, epoch);
        a.record_cell("c0", 0, Instant::now(), &Err("x".to_string()));
        a.record_cell("c1", 1, Instant::now(), &Err("x".to_string()));
        let mut b = WorkerObs::new(1, epoch);
        b.record_cell("c2", 2, Instant::now(), &Err("x".to_string()));
        let stats = SweepRunStats {
            cells: 3,
            completed: 0,
            failed: 3,
            skipped: 0,
            wall: std::time::Duration::from_millis(5),
        };
        let mut report = SweepObsReport::assemble(vec![a, b], &stats);
        report.add_journal(&JournalIoStats {
            records: 3,
            bytes: 600,
            fsyncs: 1,
            torn_tail_repairs: 0,
        });
        let snap = report.snapshot();
        assert_eq!(snap.counter("worker.00.cells"), Some(2));
        assert_eq!(snap.counter("worker.01.cells"), Some(1));
        assert_eq!(snap.counter("sweep.cells"), Some(3));
        assert_eq!(snap.counter("journal.bytes"), Some(600));
        assert_eq!(snap.histogram("cell.wall_ns").unwrap().count, 3);
        assert_eq!(report.trace.tracks().len(), 2);
        teem_telemetry::TraceEventLog::validate(&report.trace.to_json()).expect("valid trace");
        assert!(report.kernel_split().contains("power model"));
    }
}
