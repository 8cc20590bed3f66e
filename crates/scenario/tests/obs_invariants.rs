//! Acceptance-scale observability invariants: the instrumented 500-cell
//! three-axis grid must account for itself exactly.
//!
//! * every cell the pool executed appears in exactly one worker's
//!   counters — the per-worker `worker.NN.cells` counters sum to
//!   `SweepRunStats::cells` — and each worker's utilization is its busy
//!   time over the sweep's wall clock;
//! * the Chrome trace-event export validates (well-formed lines through
//!   the journal's JSON parser, monotone timestamps per track) with one
//!   track per pool worker and one complete event per cell;
//! * journal I/O counters fold into the same snapshot and match the
//!   journal's own record count;
//! * the [`ProgressReporter`] sink's final line reports the finished
//!   campaign;
//! * a sink slower than the pool shows up as `pool.backpressure_ns`,
//!   and a sequential run reports none.

use teem_scenario::{ConfigPatch, ProgressReporter, Scenario, SweepEvent, SweepJournal, SweepSpec};
use teem_soc::TimeAdvance;
use teem_telemetry::TraceEventLog;
use teem_workload::App;

/// The acceptance grid: 5 scenarios × 10 thresholds × 10 ambients.
fn spec_500() -> SweepSpec {
    let scenarios = vec![
        Scenario::new("o-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("o-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("o-syrk").arrive(0.0, App::Syrk, 0.9),
        // Late arrival: opens a 1.4 s idle gap at the head of each of
        // this scenario's 100 cells, which the event-driven advance
        // must fast-forward (asserted below).
        Scenario::new("o-mvt-tight").arrive(1.4, App::Mvt, 0.7),
        Scenario::new("o-pair")
            .arrive(0.0, App::Gesummv, 0.9)
            .arrive(0.5, App::Mvt, 0.9),
    ];
    let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i)).collect();
    let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * f64::from(i)).collect();
    SweepSpec::over(scenarios)
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        // Short cells: the invariants are about accounting, not the
        // cells' length.
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            time_advance: Some(TimeAdvance::EventDriven),
        })
        .threads(4)
}

#[test]
fn instrumented_500_cell_sweep_accounts_for_every_cell() {
    let path = std::env::temp_dir().join(format!("teem_obs_accept_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let spec = spec_500();
    let total = spec.cells();
    assert_eq!(total, 500, "three axes, 500 cells");

    let mut journal = SweepJournal::create(&path, &spec).expect("create journal");
    let mut reporter = ProgressReporter::new(total, 4);
    let mut final_line = None;
    let (stats, mut report) = spec
        .run_instrumented(|ev| {
            journal.observe(&ev).expect("journal write");
            if let Some(line) = reporter.observe(&ev) {
                final_line = Some(line);
            }
        })
        .expect("instrumented sweep runs");
    let io = journal.io_stats();
    drop(journal);
    let _ = std::fs::remove_file(&path);

    assert_eq!(stats.cells, total);
    assert_eq!(stats.failed, 0);

    // Per-worker cell counters sum to the run's cell count; per-worker
    // failure counters sum to the run's failure count.
    report.add_journal(&io);
    let snap = report.snapshot();
    assert!(report.workers >= 1 && report.workers <= 4);
    let mut worker_cells = 0u64;
    let mut worker_failed = 0u64;
    for w in 0..report.workers {
        worker_cells += snap
            .counter(&format!("worker.{w:02}.cells"))
            .unwrap_or_else(|| panic!("worker {w} has no cell counter"));
        worker_failed += snap.counter(&format!("worker.{w:02}.failed")).unwrap();
    }
    assert_eq!(
        worker_cells, stats.cells as u64,
        "cells lost or counted twice"
    );
    assert_eq!(worker_failed, stats.failed as u64);
    // Utilization is busy time over the sweep's wall clock, never more
    // than the whole of it.
    let wall_s = snap.gauge("sweep.wall_s").expect("wall gauge registered");
    for w in 0..report.workers {
        let gauge = |name: &str| snap.gauge(&format!("worker.{w:02}.{name}")).unwrap();
        let util = gauge("utilization");
        assert_eq!(util, gauge("busy_s") / wall_s, "worker {w}");
        assert!((0.0..=1.0).contains(&util), "worker {w} utilization {util}");
    }
    assert_eq!(snap.counter("sweep.cells"), Some(stats.cells as u64));
    assert_eq!(
        snap.counter("sweep.completed"),
        Some(stats.completed as u64)
    );

    // The per-cell wall-time histogram saw every cell exactly once.
    assert_eq!(
        snap.histogram("cell.wall_ns").unwrap().count,
        stats.cells as u64
    );

    // The kernel accumulator ran: steps counted and both timed sections
    // observed (instrumented runs always time).
    assert!(snap.counter("engine.steps").unwrap() > 0);
    assert!(snap.counter("engine.substeps").unwrap() > 0);
    assert!(snap.counter("engine.power_ns").unwrap() > 0);
    assert!(snap.counter("engine.thermal_ns").unwrap() > 0);

    // Event-driven gap accounting: exactly the 100 `o-mvt-tight` cells
    // open a 1.4 s head gap (the other scenarios arrive at t = 0 and
    // stay busy to the timeout), and every skipped gap lands in the
    // gap-length histogram.
    assert_eq!(snap.counter("engine.gaps_skipped"), Some(100));
    assert!(snap.counter("engine.gap_segments").unwrap() >= 100);
    let ff = snap
        .gauge("engine.gap_fastforward_s")
        .expect("gap fast-forward gauge registered");
    assert!(
        (ff - 140.0).abs() < 1e-6,
        "100 gaps x 1.4 s should total 140 s, got {ff}"
    );
    let gap_hist = snap.histogram("engine.gap_len_ms").unwrap();
    assert_eq!(gap_hist.count, 100, "one histogram entry per gap");

    // Journal I/O counters fold into the same snapshot and agree with
    // the journal: one record per cell plus the header's accounting.
    assert_eq!(snap.counter("journal.records"), Some(stats.cells as u64));
    assert!(snap.counter("journal.bytes").unwrap() > 0);
    assert!(snap.counter("journal.fsyncs").unwrap() > 0);
    assert_eq!(snap.counter("journal.torn_repairs"), Some(0));

    // The trace validates and has one track per worker, one complete
    // event per cell.
    let text = report.trace.to_json();
    let v = TraceEventLog::validate(&text).expect("trace validates");
    assert_eq!(v.tracks.len(), report.workers, "one track per worker");
    assert_eq!(
        v.complete_events, stats.cells,
        "one complete event per cell"
    );
    assert_eq!(report.trace.tracks(), v.tracks);

    // The progress sink's final line reports the finished campaign.
    let line = final_line.expect("Finished always yields a line");
    assert!(line.contains(&format!("{total}/{total}")), "{line}");
    assert!(line.contains("0 failed"), "{line}");
    assert!(line.contains("pareto"), "{line}");
    assert_eq!(reporter.failed(), 0);
    assert_eq!(reporter.aggregator().cells(), total);

    // The snapshot JSON round-trips through the journal's parser.
    let json_text = snap.to_json();
    teem_telemetry::json::parse_object(&json_text).expect("snapshot JSON parses");

    // And the kernel-split table renders its three rows.
    let split = report.kernel_split();
    for label in ["power model", "thermal integration", "engine other"] {
        assert!(split.contains(label), "{split}");
    }
}

/// The sequential path (`threads(1)`) is instrumented identically: one
/// worker, one track, same accounting.
#[test]
fn sequential_instrumented_sweep_has_one_track() {
    let spec = SweepSpec::over([
        Scenario::new("seq-a").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("seq-b").arrive(0.0, App::Gesummv, 0.9),
    ])
    .patch_config(ConfigPatch {
        timeout_s: Some(2.0),
        ..ConfigPatch::default()
    })
    .threads(1);
    let (stats, report) = spec.run_instrumented(|_| {}).expect("runs");
    assert_eq!(stats.cells, 2);
    assert_eq!(report.workers, 1);
    let snap = report.snapshot();
    assert_eq!(snap.counter("worker.00.cells"), Some(2));
    let v = TraceEventLog::validate(&report.trace.to_json()).expect("valid");
    assert_eq!(v.tracks.len(), 1);
    assert_eq!(v.complete_events, 2);
}

/// A sink slower than the pool fills the bounded event channel (two
/// slots per worker), so pool workers block in `send` and
/// `pool.backpressure_ns` must record it. A sequential run has no
/// channel — its sink runs inline — and reports 0.
#[test]
fn slow_sink_shows_up_as_pool_backpressure() {
    let spec = SweepSpec::over([
        Scenario::new("bp-a").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("bp-b").arrive(0.0, App::Gesummv, 0.9),
    ])
    .thresholds_c(&[80.0, 82.0, 84.0, 86.0, 88.0, 90.0])
    .patch_config(ConfigPatch {
        timeout_s: Some(0.2),
        ..ConfigPatch::default()
    });
    assert!(spec.cells() > 2 * 2, "the grid must outgrow the channel");
    let slow_sink = |ev: SweepEvent| {
        if let SweepEvent::CellDone { .. } = ev {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };

    let (stats, report) = spec
        .clone()
        .threads(2)
        .run_instrumented(slow_sink)
        .expect("pooled sweep runs");
    assert_eq!(stats.completed, spec.cells());
    let blocked = report
        .snapshot()
        .counter("pool.backpressure_ns")
        .expect("backpressure counter registered");
    assert!(blocked > 0, "workers never blocked on the slow sink");

    let (_, report) = spec
        .threads(1)
        .run_instrumented(slow_sink)
        .expect("sequential sweep runs");
    assert_eq!(
        report.snapshot().counter("pool.backpressure_ns"),
        Some(0),
        "a sequential sink runs inline: nothing to block on"
    );
}

/// The acceptance grid again, through the batched lockstep path: a
/// Teem-only grid is divergence-free (no zone trips, no mid-batch
/// handoffs except completion and timeout, both of which score full
/// lanes), so the `batch.lane_occupancy` gauge must be **exactly** 1.0
/// — every step a resident cell ran, it ran in lockstep.
#[test]
fn batched_500_cell_sweep_reports_full_lane_occupancy() {
    let spec = spec_500().batch(4);
    let (stats, report) = spec
        .run_instrumented(|_| {})
        .expect("batched instrumented sweep runs");
    assert_eq!(stats.cells, 500);
    assert_eq!(stats.failed, 0);

    let snap = report.snapshot();
    // The fast path carried real work.
    assert!(snap.counter("engine.batched_steps").unwrap() > 0);
    assert!(snap.counter("batch.lanes_entered").unwrap() > 0);
    assert!(snap.counter("batch.rounds").unwrap() > 0);

    // Divergence-free grid ⇒ full occupancy, exactly.
    let occ = snap
        .gauge("batch.lane_occupancy")
        .expect("occupancy gauge registered");
    assert_eq!(
        occ, 1.0,
        "a Teem-only grid has no divergence: every in-pool step batches"
    );

    // The per-lane occupancy histogram saw every admitted lane once.
    let hist = snap
        .histogram("batch.lane_occupancy")
        .expect("per-lane occupancy histogram folded into the report");
    assert_eq!(hist.count, snap.counter("batch.lanes_entered").unwrap());

    // Lane utilization is a real fraction of offered slots.
    let util = snap
        .gauge("batch.lane_utilization")
        .expect("utilization gauge registered");
    assert!(util > 0.0 && util <= 1.0, "utilization {util}");
}
