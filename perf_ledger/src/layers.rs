//! The traced run's layer-by-layer breakdown.
//!
//! Three sources feed it, all measured from outside the program:
//!
//! * standalone rows: kernels, the gap path, board build, offline
//!   profiling and TEEM's per-tick decision, each timed by calling the
//!   public function on the XU4 inputs the workloads use;
//! * the cell-length fit: the `sweep_grid` shape at `threads(1)` with
//!   cells cut at 1/50/200/800 steps, batched and scalar, and its
//!   reconciliation against the full grid's measured wall;
//! * one traced repetition of every workload (spans around each public
//!   call, the sweep's `run_instrumented` snapshot, journal counters).
//!
//! Every traced run reports every row. Rows of a layer the selected
//! workload bypasses come from the workload that uses it: engine,
//! lockstep and pool rows from `sweep_grid` when the selected workload
//! runs no sweep, journal rows from `trace_campaign`, design-point and
//! Fig. 5 rows from `paper_dse`. `trace.overhead_x` is always the
//! selected workload's.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use teem_core::offline::profile_app;
use teem_core::TeemGovernor;
use teem_soc::{
    exp_exact_block, BatchPowerModel, BatchScratch, Board, ClusterFreqs, CpuMapping, MHz, Manager,
    NodePowerModel, SensorBank, SocControl, SocView, ThermalBatch,
};
use teem_workload::{App, Partition};

use crate::stats::{linear_fit, median, Dist};
use crate::trace::Tracer;
use crate::workloads::{run_rep, setup, sweep_grid_spec, Size, Workload, BATCH_K};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Every per-layer row: name, unit, which direction is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("soc.thermal_step_ns", "ns", "lower"),
    ("soc.thermal_step_ns.tail", "ns", "lower"),
    ("soc.batch_thermal_step_ns", "ns", "lower"),
    ("soc.batch_thermal_step_ns.tail", "ns", "lower"),
    ("soc.batch_power_eval_ns", "ns", "lower"),
    ("soc.batch_power_eval_ns.tail", "ns", "lower"),
    ("soc.exp_block_ns", "ns", "lower"),
    ("soc.exp_block_ns.tail", "ns", "lower"),
    ("soc.cool_to_us", "us", "lower"),
    ("soc.cool_to_us.tail", "us", "lower"),
    ("soc.cooling_plan_us", "us", "lower"),
    ("soc.cooling_plan_us.tail", "us", "lower"),
    ("soc.board_build_us", "us", "lower"),
    ("soc.board_build_us.tail", "us", "lower"),
    ("core.profile_app_ms", "ms", "lower"),
    ("core.profile_app_ms.tail", "ms", "lower"),
    ("core.teem_control_ns", "ns", "lower"),
    ("core.teem_control_ns.tail", "ns", "lower"),
    ("core.run_ms", "ms", "lower"),
    ("dse.simulate_ms_p50", "ms", "lower"),
    ("dse.simulate_ms_p99", "ms", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.gaps_skipped", "count", "higher"),
    ("engine.gap_segments", "count", "lower"),
    ("engine.batched_share", "ratio", "higher"),
    ("engine.substeps_per_step", "ratio", "lower"),
    ("engine.power_ns_per_step", "ns", "lower"),
    ("engine.thermal_ns_per_step", "ns", "lower"),
    ("engine.sample_ns_per_step", "ns", "lower"),
    ("engine.trace_ns_per_step", "ns", "lower"),
    ("engine.control_ns_per_step", "ns", "lower"),
    ("engine.other_share", "ratio", "lower"),
    ("batch.lane_occupancy", "ratio", "higher"),
    ("batch.lane_utilization", "ratio", "higher"),
    ("cell.fixed_us", "us", "lower"),
    ("cell.step_ns", "ns", "lower"),
    ("cell.fixed_us_scalar", "us", "lower"),
    ("cell.step_ns_scalar", "ns", "lower"),
    ("cell.reconcile_err", "ratio", "lower"),
    ("pool.utilization", "ratio", "higher"),
    ("pool.steal_success_ratio", "ratio", "higher"),
    ("pool.cell_wall_p50_us", "us", "lower"),
    ("pool.cell_wall_p99_us", "us", "lower"),
    ("pool.scaling_eff", "ratio", "higher"),
    ("pool.sink_share", "ratio", "lower"),
    ("journal.bytes_per_record", "B", "lower"),
    ("journal.fsyncs_per_record", "ratio", "lower"),
    ("journal.observe_us", "us", "lower"),
    ("journal.load_ms", "ms", "lower"),
    ("journal.merge_ms", "ms", "lower"),
    ("trace.overhead_x", "x", "lower"),
];

/// Builds the metric list in [`PER_LAYER`] order and checks every row
/// was measured exactly once.
struct Rows(Vec<Metric>);

impl Rows {
    fn set(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer row"))
            .1;
        assert!(
            self.0.iter().all(|m| m.name != name),
            "`{name}` measured twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn dist(&mut self, name: &str, d: &Dist, detail: &mut Vec<String>) {
        self.set(name, d.median);
        self.set(&format!("{name}.tail"), d.tail);
        detail.push(format!(
            "row {name}: n={} median={:.4} {}={:.4}",
            d.n,
            d.median,
            d.tail_label(),
            d.tail
        ));
    }

    fn into_ordered(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|r| {
                self.0
                    .iter()
                    .find(|m| m.name == r.0)
                    .unwrap_or_else(|| panic!("per-layer row `{}` was not measured", r.0))
                    .clone()
            })
            .collect()
    }
}

/// Times `samples` samples of `batch` calls of `f`, after one warm-up
/// batch; each sample is nanoseconds per call divided by `per`. Batches
/// are sized to tens of microseconds, well above the clock's
/// resolution.
fn time_calls(samples: usize, batch: usize, per: f64, mut f: impl FnMut()) -> Dist {
    for _ in 0..batch {
        f();
    }
    let v: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / (batch as f64 * per)
        })
        .collect();
    Dist::of(&v)
}

/// The mapping and frequencies a TEEM cell runs the XU4 at.
fn xu4_freqs(big: u32) -> ClusterFreqs {
    ClusterFreqs {
        big: MHz(big),
        little: MHz(1400),
        gpu: MHz(600),
    }
}

/// A control-tick view at `temp_c` on the hottest sensor.
fn control_view(temp_c: f64) -> SocView {
    SocView {
        time_s: 10.0,
        readings: SensorBank::ideal().read(temp_c, temp_c - 8.0),
        freqs: xu4_freqs(1800),
        cpu_progress: 0.5,
        gpu_progress: 0.5,
        big_util: 1.0,
        power_w: 10.0,
        mapping: CpuMapping::new(2, 3),
        partition: Partition::even(),
    }
}

/// The standalone kernel, gap-path, build, profiling and decision rows.
fn standalone(rows: &mut Rows, detail: &mut Vec<String>) -> Result<(), String> {
    let board = Board::odroid_xu4_ideal();
    let active = [6.0, 0.6, 2.6, 2.2];
    let idle = [0.4, 0.3, 0.2, 2.0];

    let mut model = board.thermal.clone();
    let d = time_calls(300, 2000, 1.0, || {
        black_box(model.step(black_box(0.01), black_box(&active)));
    });
    rows.dist("soc.thermal_step_ns", &d, detail);

    let mut batch = ThermalBatch::like(&board.thermal, BATCH_K);
    for lane in 0..BATCH_K {
        batch.load_lane(lane, &board.thermal);
    }
    let mut scratch = BatchScratch::for_batch(&batch);
    for (node, p) in active.iter().enumerate() {
        for lane in 0..BATCH_K {
            scratch.power[node * batch.stride() + lane] = *p;
        }
    }
    let d = time_calls(300, 500, BATCH_K as f64, || {
        black_box(batch.step(black_box(0.01), black_box(&scratch.power)));
    });
    rows.dist("soc.batch_thermal_step_ns", &d, detail);

    let mut power = BatchPowerModel::for_batch(&batch);
    for lane in 0..BATCH_K {
        let big = 1400 + 100 * (lane as u32 % 7);
        let m = NodePowerModel::single_app(
            &board,
            CpuMapping::new(2, 3),
            xu4_freqs(big),
            true,
            true,
            0.85,
        );
        power.set_lane(lane, &m);
    }
    let mut totals = vec![0.0; batch.stride()];
    let d = time_calls(300, 500, BATCH_K as f64, || {
        power.eval_into(black_box(&batch), &mut scratch.power, &mut totals);
        black_box(&totals);
    });
    rows.dist("soc.batch_power_eval_ns", &d, detail);

    let x: [f64; 16] = std::array::from_fn(|i| -3.0 + 0.19 * i as f64);
    let d = time_calls(300, 3000, 16.0, || {
        black_box(exp_exact_block::<16>(black_box(x)));
    });
    rows.dist("soc.exp_block_ns", &d, detail);

    let mut planned = board.thermal.clone();
    planned.cool_to(1.0, 25.0, &idle);
    let d = time_calls(300, 1000, 1e3, || {
        planned.cool_to(black_box(30.0), 25.0, black_box(&idle));
    });
    rows.dist("soc.cool_to_us", &d, detail);

    let plans: Vec<f64> = (0..200)
        .map(|_| {
            let mut fresh = board.thermal.clone();
            let t0 = Instant::now();
            fresh.cool_to(black_box(30.0), 25.0, &idle);
            black_box(&fresh);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    rows.dist("soc.cooling_plan_us", &Dist::of(&plans), detail);

    let d = time_calls(200, 100, 1e3, || {
        black_box(Board::odroid_xu4_ideal());
    });
    rows.dist("soc.board_build_us", &d, detail);

    let mut profiles = Vec::new();
    for _ in 0..5 {
        for app in App::paper_eight() {
            let t0 = Instant::now();
            black_box(profile_app(&board, app).map_err(|e| format!("profile {app:?}: {e}"))?);
            profiles.push(t0.elapsed().as_nanos() as f64 / 1e6);
        }
    }
    rows.dist("core.profile_app_ms", &Dist::of(&profiles), detail);

    let mut governor = TeemGovernor::paper();
    let views: Vec<SocView> = [80.0, 83.5, 85.0, 86.5, 89.0]
        .into_iter()
        .map(control_view)
        .collect();
    let mut tick = 0usize;
    let d = time_calls(300, 5000, 1.0, || {
        let mut ctl = SocControl::default();
        governor.control(black_box(&views[tick % views.len()]), &mut ctl);
        black_box(ctl);
        tick += 1;
    });
    rows.dist("core.teem_control_ns", &d, detail);
    Ok(())
}

/// One run of `spec`: wall per cell (µs) and mean steps per cell.
fn per_cell(spec: &teem_scenario::SweepSpec) -> Result<(f64, f64), String> {
    let mut steps = 0u64;
    let t0 = Instant::now();
    let stats = spec
        .run_streaming(|ev| {
            if let teem_scenario::SweepEvent::CellDone { result, .. } = ev {
                steps += result.kernel.steps;
            }
        })
        .map_err(|e| e.to_string())?;
    let cells = stats.cells as f64;
    Ok((
        t0.elapsed().as_secs_f64() * 1e6 / cells,
        steps as f64 / cells,
    ))
}

/// The cell-length fit rows and their reconciliation, at `threads(1)`.
///
/// Wall per cell is fitted against steps per cell over 1/50/200/800-step
/// cells of the `sweep_grid` shape, batched and scalar; the batched fit
/// then predicts the full `sweep_grid` grid, whose wall is measured in
/// the same rounds. Every configuration runs once per round, so a slow
/// spell of the host hits all of them alike, and each keeps its best
/// round: interference only ever adds time, and the fit wants the cost
/// of the code.
fn cell_rows(seed: u64, rows: &mut Rows, detail: &mut Vec<String>) -> Result<(), String> {
    let timeouts = [0.01, 0.5, 2.0, 8.0];
    let mut specs = Vec::new();
    for batched in [true, false] {
        for timeout_s in timeouts {
            let spec = sweep_grid_spec(seed, 8, 10, timeout_s).threads(1);
            specs.push(if batched { spec.batch(BATCH_K) } else { spec });
        }
    }
    specs.push(sweep_grid_spec(seed, 40, 80, 2.0).threads(1).batch(BATCH_K));
    let mut best = vec![(f64::INFINITY, 0.0); specs.len()];
    for _ in 0..5 {
        for (spec, b) in specs.iter().zip(&mut best) {
            let (wall_us, steps) = per_cell(spec)?;
            *b = (b.0.min(wall_us), steps);
        }
    }
    let (fit_points, measured) = best.split_at(2 * timeouts.len());
    let mut fits = Vec::new();
    for (mode, points) in ["batched", "scalar"]
        .iter()
        .zip(fit_points.chunks(timeouts.len()))
    {
        for (wall_us, steps) in points {
            detail.push(format!(
                "fit {mode}: {steps:.1} steps/cell -> {wall_us:.2} us/cell"
            ));
        }
        let xy: Vec<(f64, f64)> = points.iter().map(|&(w, s)| (s, w)).collect();
        fits.push(linear_fit(&xy));
    }
    let ((fixed_us, slope_us), (fixed_scalar, slope_scalar)) = (fits[0], fits[1]);
    rows.set("cell.fixed_us", fixed_us);
    rows.set("cell.step_ns", slope_us * 1e3);
    rows.set("cell.fixed_us_scalar", fixed_scalar);
    rows.set("cell.step_ns_scalar", slope_scalar * 1e3);
    let (measured_us, steps) = measured[0];
    let predicted_us = fixed_us + slope_us * steps;
    detail.push(format!(
        "reconcile: predicted {predicted_us:.2} us/cell vs measured {measured_us:.2} us/cell"
    ));
    rows.set(
        "cell.reconcile_err",
        (predicted_us - measured_us).abs() / measured_us,
    );
    Ok(())
}

/// The shortest of `walls`: the best repetition, as the end-to-end
/// rate and the cell fit take it.
fn best(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine, lockstep and pool rows from one traced sweep repetition.
fn sweep_rows(t: &Tracer, rep_wall_s: f64, rows: &mut Rows) {
    let snap = t.registry.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let steps = c("engine.steps");
    rows.set("engine.steps", steps);
    rows.set("engine.gaps_skipped", c("engine.gaps_skipped"));
    rows.set("engine.gap_segments", c("engine.gap_segments"));
    rows.set(
        "engine.batched_share",
        ratio(c("engine.batched_steps"), steps),
    );
    rows.set(
        "engine.substeps_per_step",
        ratio(c("engine.substeps"), steps),
    );
    let phases = ["power", "thermal", "sample", "trace", "control"];
    for phase in phases {
        rows.set(
            &format!("engine.{phase}_ns_per_step"),
            ratio(c(&format!("engine.{phase}_ns")), steps),
        );
    }
    let phase_ns: f64 = phases.iter().map(|p| c(&format!("engine.{p}_ns"))).sum();
    rows.set(
        "engine.other_share",
        1.0 - ratio(phase_ns, t.busy_ns as f64),
    );
    rows.set(
        "batch.lane_occupancy",
        snap.gauge("batch.lane_occupancy").unwrap_or(0.0),
    );
    rows.set(
        "batch.lane_utilization",
        snap.gauge("batch.lane_utilization").unwrap_or(0.0),
    );
    rows.set(
        "pool.utilization",
        ratio(t.busy_ns as f64, t.capacity_ns as f64),
    );
    let worker_sum = |suffix: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(n, _)| n.starts_with("worker.") && n.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    rows.set(
        "pool.steal_success_ratio",
        ratio(
            worker_sum(".steal_successes"),
            worker_sum(".steal_attempts"),
        ),
    );
    let wall = snap.histogram("cell.wall_ns");
    rows.set(
        "pool.cell_wall_p50_us",
        wall.map_or(0.0, |h| h.p50 as f64 / 1e3),
    );
    rows.set(
        "pool.cell_wall_p99_us",
        wall.map_or(0.0, |h| h.p99 as f64 / 1e3),
    );
    rows.set("pool.sink_share", t.sink_ns as f64 / 1e9 / rep_wall_s);
}

fn journal_rows(t: &Tracer, rows: &mut Rows) {
    let records = t.journal.records as f64;
    rows.set(
        "journal.bytes_per_record",
        ratio(t.journal.bytes as f64, records),
    );
    rows.set(
        "journal.fsyncs_per_record",
        ratio(t.journal.fsyncs as f64, records),
    );
    rows.set("journal.observe_us", median(&t.observe_us));
    rows.set("journal.load_ms", t.load_ms);
    rows.set("journal.merge_ms", t.merge_ms);
}

fn dse_rows(t: &Tracer, rows: &mut Rows) {
    rows.set("core.run_ms", median(&t.run_ms));
    rows.set(
        "dse.simulate_ms_p50",
        crate::stats::quantile(&t.simulate_ms, 0.5),
    );
    rows.set(
        "dse.simulate_ms_p99",
        crate::stats::quantile(&t.simulate_ms, 0.99),
    );
}

/// One traced pass of a workload: traced set-up, then one traced
/// repetition.
fn traced_pass(
    workload: Workload,
    seed: u64,
    threads: usize,
    work_dir: &Path,
) -> Result<(Tracer, f64), String> {
    let mut t = Tracer::default();
    let t0 = Instant::now();
    let inputs = setup(workload, seed, Size::Full, Some(&mut t))?;
    t.span("setup", t0);
    let rep = run_rep(&inputs, threads, work_dir, Some(&mut t))?;
    Ok((t, rep.wall.as_secs_f64()))
}

/// What the traced run produced.
#[derive(Debug)]
pub struct Ledger {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines (sample counts, tails, fit points).
    pub detail: Vec<String>,
    /// The selected workload's spans.
    pub tracer: Tracer,
    /// The selected workload's output digest.
    pub digest: u64,
    /// Cells attempted by the overhead repetitions.
    pub attempted: usize,
    /// Cells failed (or not reproducing the digest) among them.
    pub failed: usize,
}

/// Runs the traced pass for `workload`.
///
/// # Errors
///
/// Any workload or journal failure, described.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    threads: usize,
    work_dir: &Path,
) -> Result<Ledger, String> {
    let mut rows = Rows(Vec::new());
    let mut detail = Vec::new();
    standalone(&mut rows, &mut detail)?;
    cell_rows(seed, &mut rows, &mut detail)?;

    // One traced repetition of every workload; the selected one's
    // tracer is kept for its spans.
    let mut passes = Vec::new();
    for w in Workload::ALL {
        passes.push((w, traced_pass(w, seed, threads, work_dir)?));
    }
    let pass = |w: Workload| {
        passes
            .iter()
            .find(|p| p.0 == w)
            .map(|p| &p.1)
            .expect("every workload was traced")
    };
    let pool_source = if workload.is_sweep() {
        workload
    } else {
        Workload::SweepGrid
    };
    let (t, wall_s) = pass(pool_source);
    sweep_rows(t, *wall_s, &mut rows);
    journal_rows(&pass(Workload::TraceCampaign).0, &mut rows);
    dse_rows(&pass(Workload::PaperDse).0, &mut rows);
    detail.push(format!(
        "engine, batch and pool rows from {}; journal rows from trace_campaign; \
         core.run_ms and dse rows from paper_dse",
        pool_source.name()
    ));

    // Tracing overhead: the best traced repetition of the selected
    // workload over the best untraced one, alternating, on the same
    // inputs. Every repetition, traced or not, must reproduce the first
    // one's digest; a repetition that does not counts all its cells
    // failed.
    let inputs = setup(workload, seed, Size::Full, None)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut digest = None;
    for _ in 0..3 {
        let mut t = Tracer::default();
        for (walls, tracer) in [(&mut plain, None), (&mut traced, Some(&mut t))] {
            let rep = run_rep(&inputs, threads, work_dir, tracer)?;
            let first = *digest.get_or_insert(rep.digest);
            attempted += rep.cells;
            failed += if rep.digest == first {
                rep.failed
            } else {
                rep.cells
            };
            walls.push(rep.wall.as_secs_f64());
        }
    }
    rows.set("trace.overhead_x", best(&traced) / best(&plain));

    // Pool scaling: cells/s at one worker per core against one worker,
    // on the pool's workload.
    let scaling_inputs = if pool_source == workload {
        inputs
    } else {
        setup(pool_source, seed, Size::Full, None)?
    };
    let rate = |n: usize| -> Result<f64, String> {
        let r: Vec<f64> = (0..3)
            .map(|_| run_rep(&scaling_inputs, n, work_dir, None).map(|o| o.cells_per_s()))
            .collect::<Result<_, _>>()?;
        Ok(r.iter().copied().fold(0.0, f64::max))
    };
    let cores = crate::host::nproc();
    let (rate_n, rate_1) = (rate(cores)?, rate(1)?);
    rows.set("pool.scaling_eff", rate_n / (cores as f64 * rate_1));
    detail.push(format!(
        "scaling on {}: {rate_n:.1} cells/s at {cores} threads, {rate_1:.1} at 1",
        pool_source.name()
    ));

    let tracer = passes
        .into_iter()
        .find(|p| p.0 == workload)
        .map(|p| (p.1).0)
        .expect("the selected workload was traced");
    Ok(Ledger {
        metrics: rows.into_ordered(),
        detail,
        tracer,
        digest: digest.expect("at least one repetition"),
        attempted,
        failed,
    })
}
