//! Buffer recycling carries no state between cells.
//!
//! A sweep worker hands each finished cell's scratch buffers — step
//! scratch, gap-energy vector, sorted timeline, queue, active set,
//! share, claim and weight vectors, sample stage — to the next cell it
//! starts. At `threads(1)` one worker runs every cell, so each cell
//! here starts on a predecessor's buffers; unbatched, that worker keeps
//! two cells in flight and interleaves their span steps, and at
//! `threads(2)` two workers do. The grid makes neighbouring cells
//! differ in what those buffers held:
//!
//! * the board (XU4, ManyNode 16 and ManyNode 17), so every per-node
//!   buffer changes size;
//! * the approach and the contention policy;
//! * one arrival against several, where a cell times out with jobs
//!   still active and queued, and co-running cells fill the share,
//!   claim and weight vectors;
//! * an initial idle gap, which the event-driven clock fast-forwards.
//!
//! Under `FixedDt` and `EventDriven`, unbatched and at `batch(4)`, on
//! one worker and on two, every cell's summary and trace digest must
//! equal a standalone `ScenarioRunner::run` of the same materialised
//! cell, which starts from fresh buffers and runs alone.

use std::collections::BTreeSet;
use std::sync::Arc;

use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_core::ProfileStore;
use teem_scenario::{
    ConfigPatch, ContentionPolicy, Scenario, ScenarioEvent, ScenarioRunner, SweepCell, SweepEvent,
    SweepSpec,
};
use teem_soc::{Board, BoardSpec, TimeAdvance};
use teem_telemetry::ScenarioSummary;
use teem_workload::App;

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("solo").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("crowd")
            .arrive(0.0, App::Gesummv, 0.9)
            .arrive(0.0, App::Syrk, 0.8)
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(1.0, App::Gemm, 0.9),
        Scenario::new("late")
            .at(0.5, ScenarioEvent::AmbientChange { ambient_c: 31.0 })
            .arrive(1.5, App::Gemm, 0.9),
    ]
}

/// 3 scenarios × 3 boards × 2 thresholds × 2 contention policies × 2
/// approaches = 72 cells of at most 3 s each.
fn grid(time_advance: TimeAdvance) -> SweepSpec {
    SweepSpec::over(scenarios())
        .boards(&[
            BoardSpec::OdroidXu4,
            BoardSpec::ManyNode { nodes: 16 },
            BoardSpec::ManyNode { nodes: 17 },
        ])
        .thresholds_c(&[80.0, 86.0])
        .contentions(&[ContentionPolicy::Serial, ContentionPolicy::shared()])
        .approaches(&[Approach::Teem, Approach::Ondemand])
        .patch_config(ConfigPatch {
            timeout_s: Some(3.0),
            time_advance: Some(time_advance),
        })
        .threads(1)
}

/// What a standalone run of `cell` produces: its summary and trace
/// digest.
fn standalone(
    cell: &SweepCell,
    time_advance: TimeAdvance,
    profiles: &Arc<ProfileStore>,
) -> (ScenarioSummary, u64) {
    let base = cell.name.split('@').next().unwrap_or_default();
    let mut scenario = scenarios()
        .into_iter()
        .find(|s| s.name() == base)
        .unwrap_or_else(|| panic!("cell `{}` names no scenario", cell.name))
        .with_name(cell.name.clone());
    if let Some(t) = cell.threshold_c {
        scenario = scenario.with_initial_threshold(t);
    }
    if let Some(a) = cell.ambient_c {
        scenario = scenario.with_initial_ambient(a);
    }
    let config = ConfigPatch {
        timeout_s: Some(3.0),
        time_advance: Some(time_advance),
    }
    .onto_default();
    let result = ScenarioRunner::with_shared_profiles(cell.approach, Arc::clone(profiles))
        .with_contention(cell.contention)
        .with_tunables(cell.tunables)
        .with_board(cell.board)
        .with_config(config)
        .run(&scenario)
        .expect("standalone cell runs");
    (result.summary, result.trace.digest())
}

#[test]
fn recycled_buffers_leave_every_cell_as_a_standalone_run() {
    let apps: BTreeSet<App> = scenarios().iter().flat_map(Scenario::apps).collect();
    let profiles = build_profile_store(&Board::odroid_xu4_ideal(), apps)
        .expect("profiles fit")
        .into_shared();
    for time_advance in [TimeAdvance::FixedDt, TimeAdvance::EventDriven] {
        let spec = grid(time_advance);
        let expected: Vec<(ScenarioSummary, u64)> = (0..spec.cells())
            .map(|i| standalone(&spec.cell(i), time_advance, &profiles))
            .collect();
        let (mut timed_out, mut gaps) = (0, 0);
        for (tag, spec) in [
            ("unbatched", spec.clone()),
            ("batch(4)", spec.clone().batch(4)),
            ("unbatched threads(2)", spec.clone().threads(2)),
            ("batch(4) threads(2)", spec.threads(2).batch(4)),
        ] {
            let mut seen = 0;
            let stats = spec
                .run_streaming(|ev| {
                    if let SweepEvent::CellDone { cell, result } = ev {
                        let got = (result.summary.clone(), result.trace.digest());
                        assert_eq!(
                            got, expected[cell.index],
                            "{time_advance:?} {tag}: cell {} ({}) differs from its standalone run",
                            cell.index, cell.name
                        );
                        timed_out += usize::from(result.timed_out);
                        gaps += result.kernel.gaps_skipped;
                        seen += 1;
                    }
                })
                .expect("sweep runs");
            assert_eq!(stats.failed, 0, "{time_advance:?} {tag}");
            assert_eq!(seen, spec.cells(), "{time_advance:?} {tag}");
        }
        // The grid reaches what it sets out to: cells that end with jobs
        // still held, and, event-driven, fast-forwarded gaps.
        assert!(timed_out > 0, "{time_advance:?}: no cell timed out");
        assert_eq!(
            gaps > 0,
            time_advance == TimeAdvance::EventDriven,
            "{time_advance:?}: gaps fast-forwarded"
        );
    }
}
