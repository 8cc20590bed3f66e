//! Bit-identity golden tests for the scenario engine's physics.
//!
//! The hot-path refactor (flattened thermal network, in-place power
//! model, reusable step scratch) is required to be a pure
//! mechanical-sympathy change: every trace it produces must be
//! bit-identical to the allocating implementation it replaced. A
//! **golden digest** of builtin-suite scenario traces, recorded from the
//! pre-refactor engine, pins that property — any change to operation
//! order, buffering or sensor-noise consumption changes the digest.
//!
//! A second set pins, by value, the paths the frozen power model
//! rewrote that the builtin-suite digests do not reach: co-running apps
//! under the `Shared` and `ClusterExclusive` policies (including an app
//! whose CPU share finishes before its GPU share), a many-node board,
//! and `Simulation::run` through `evaluate::simulate` and `runner::run`.
//! They were recorded from the engine that re-derived the power
//! operating point every step.
//!
//! A third pins a sweep grid over every axis a cell's set-up depends
//! on (threshold, ambient, board, gappy event-driven cells), scalar and
//! batched. It was recorded while every cell still built its own board,
//! and re-recorded once, on the engine before the change, when its
//! cells stopped power-collapsing their idle gaps: every idle gap now
//! races to the minimum OPPs.
//!
//! A fourth pins the instants at which the scalar step loop's event
//! phases act between the sample and control grids: timeline events
//! and the timeout off the 0.1 s grid, a thermal zone that releases on
//! a tick left off the grid by a fast-forwarded gap, and busy-flag flips
//! between control ticks. They were recorded while the loop still ran
//! every phase on every step.

use teem_core::offline::profile_app;
use teem_core::runner::{fig5_mapping, fig5_requirement, run as run_approach, Approach};
use teem_dse::{evaluate, DesignPoint};
use teem_scenario::{
    ConfigPatch, ContentionPolicy, Scenario, ScenarioEvent, ScenarioResult, ScenarioRunner,
    SimConfig,
};
use teem_soc::{Board, BoardSpec, ClusterFreqs, CpuMapping, MHz, TimeAdvance};
use teem_telemetry::{Fnv, RunSummary};
use teem_workload::{App, Partition};

/// Digest of the `back-to-back` builtin scenario under TEEM. The trace
/// bits were verified unchanged against the seed (pre-refactor,
/// per-step-allocating) engine when the zero-allocation hot path
/// landed; future refactors must not move a single bit either.
///
/// Re-recorded ONCE when the executor's clock became index-derived
/// (`t = step_idx · dt` instead of `t += dt`): the physics values are
/// untouched, but every recorded timestamp sheds its float-accumulation
/// drift, which moves trace bits by design. The event-driven mode's
/// dense-scenario parity is pinned against these same constants in
/// `event_driven.rs`, so the two advance modes cannot drift apart.
const GOLDEN_BACK_TO_BACK_TEEM: u64 = 0x3db9_54c8_3756_d7cf;

/// Digest of the `ambient-staircase` builtin scenario under ondemand —
/// exercises mid-timeline ambient changes and the reactive zone on a
/// second approach's control path. Re-recorded with the index-derived
/// clock (see [`GOLDEN_BACK_TO_BACK_TEEM`]).
const GOLDEN_STAIRCASE_ONDEMAND: u64 = 0x83a7_7a1c_5cf0_208d;

fn builtin(name: &str) -> Scenario {
    Scenario::builtin_suite()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("builtin scenario {name} missing"))
}

#[test]
fn back_to_back_trace_digest_is_pinned() {
    let mut runner = ScenarioRunner::new(Approach::Teem);
    let r = runner.run(&builtin("back-to-back")).expect("runs");
    assert!(!r.timed_out);
    assert_eq!(
        r.trace.digest(),
        GOLDEN_BACK_TO_BACK_TEEM,
        "back-to-back/TEEM trace changed bits; hot-path refactors must be \
         physics-preserving (got {:#018x})",
        r.trace.digest()
    );
}

#[test]
fn staircase_trace_digest_is_pinned() {
    let mut runner = ScenarioRunner::new(Approach::Ondemand);
    let r = runner.run(&builtin("ambient-staircase")).expect("runs");
    assert!(!r.timed_out);
    assert_eq!(
        r.trace.digest(),
        GOLDEN_STAIRCASE_ONDEMAND,
        "ambient-staircase/ondemand trace changed bits (got {:#018x})",
        r.trace.digest()
    );
}

/// The multi-app refactor's compatibility contract: an executor built
/// with an explicit `ContentionPolicy::Serial` (not just the default)
/// reproduces the pre-refactor one-app-at-a-time executor
/// byte-for-byte, on the same seeds the original digests were recorded
/// from.
#[test]
fn explicit_serial_policy_reproduces_pre_refactor_executor() {
    let mut teem = ScenarioRunner::new(Approach::Teem).with_contention(ContentionPolicy::Serial);
    let r = teem.run(&builtin("back-to-back")).expect("runs");
    assert_eq!(
        r.trace.digest(),
        GOLDEN_BACK_TO_BACK_TEEM,
        "serial-policy co-run executor diverged from the pre-refactor \
         single-active-slot executor (got {:#018x})",
        r.trace.digest()
    );

    let mut ondemand =
        ScenarioRunner::new(Approach::Ondemand).with_contention(ContentionPolicy::Serial);
    let r = ondemand.run(&builtin("ambient-staircase")).expect("runs");
    assert_eq!(
        r.trace.digest(),
        GOLDEN_STAIRCASE_ONDEMAND,
        "serial-policy co-run executor diverged on the staircase seed \
         (got {:#018x})",
        r.trace.digest()
    );
}

/// The streaming-sweep refactor's compatibility contract: a 2×2
/// scenario × approach grid with an explicit `ContentionPolicy::Serial`
/// axis, executed by the streaming engine, reproduces the pre-refactor
/// blocking matrix bit for bit — the cells on the golden seeds must
/// still hit the pinned digests, through the whole new stack
/// (SweepSpec enumeration → pooled workers → event stream →
/// collect-and-reorder).
#[test]
fn streaming_sweep_reproduces_pre_refactor_matrix_digests() {
    use teem_scenario::SweepSpec;

    let results = SweepSpec::over([builtin("back-to-back"), builtin("ambient-staircase")])
        .approaches(&[Approach::Teem, Approach::Ondemand])
        .contentions(&[ContentionPolicy::Serial])
        .run_collect()
        .expect("sweep runs");
    assert_eq!(results.len(), 4, "2 scenarios x 2 approaches");
    // Scenario-major, approach-innermost: [b2b/TEEM, b2b/ondemand,
    // staircase/TEEM, staircase/ondemand].
    assert_eq!(
        results[0].trace.digest(),
        GOLDEN_BACK_TO_BACK_TEEM,
        "sweep cell back-to-back/TEEM diverged from the pre-refactor \
         matrix (got {:#018x})",
        results[0].trace.digest()
    );
    assert_eq!(
        results[3].trace.digest(),
        GOLDEN_STAIRCASE_ONDEMAND,
        "sweep cell ambient-staircase/ondemand diverged from the \
         pre-refactor matrix (got {:#018x})",
        results[3].trace.digest()
    );
}

/// The observability contract: running the same grid through
/// `run_instrumented` — per-worker collectors on, step-loop timing on,
/// trace events recorded — must not move a single bit of physics. The
/// instrumented cells must still hit the pinned pre-instrumentation
/// digests.
#[test]
fn instrumented_sweep_preserves_golden_digests() {
    use teem_scenario::{SweepEvent, SweepSpec};

    let spec = SweepSpec::over([builtin("back-to-back"), builtin("ambient-staircase")])
        .approaches(&[Approach::Teem, Approach::Ondemand])
        .contentions(&[ContentionPolicy::Serial]);
    let mut digests = vec![None; spec.cells()];
    let (stats, report) = spec
        .run_instrumented(|ev| {
            if let SweepEvent::CellDone { cell, result } = ev {
                digests[cell.index] = Some(result.trace.digest());
            }
        })
        .expect("instrumented sweep runs");
    assert_eq!(stats.completed, 4);
    assert_eq!(
        digests[0],
        Some(GOLDEN_BACK_TO_BACK_TEEM),
        "instrumentation perturbed back-to-back/TEEM physics"
    );
    assert_eq!(
        digests[3],
        Some(GOLDEN_STAIRCASE_ONDEMAND),
        "instrumentation perturbed ambient-staircase/ondemand physics"
    );
    // The run really was instrumented — the kernel timers saw the cells.
    assert!(report.kernel.steps > 0);
    assert!(report.kernel.power_ns > 0 && report.kernel.thermal_ns > 0);
}

#[test]
fn digest_is_reproducible_within_a_build() {
    let run = || {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        runner.run(&builtin("back-to-back")).expect("runs")
    };
    assert_eq!(run().trace.digest(), run().trace.digest());
}

/// FNV-1a over a scenario result's bits: the trace digest plus every
/// summary and per-app figure (per-app energy carries the co-run
/// attribution weights, contention delay the progress increments).
fn scenario_digest(r: &ScenarioResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.trace.digest());
    let s = &r.summary;
    for v in [
        s.makespan_s,
        s.busy_s,
        s.overlap_s,
        s.idle_s,
        s.energy_j,
        s.idle_energy_j,
        s.peak_temp_c,
        s.avg_temp_c,
        s.temp_variance,
    ] {
        h.f64(v);
    }
    h.u64(u64::from(s.zone_trips));
    for a in &s.apps {
        hash_run_summary(&mut h, &a.summary);
        for v in [
            a.arrived_s,
            a.started_s,
            a.completed_s,
            a.treq_s,
            a.co_run_s,
            a.contention_delay_s,
        ] {
            h.f64(v);
        }
    }
    h.finish()
}

fn hash_run_summary(h: &mut Fnv, s: &RunSummary) {
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

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{label} changed bits (got {got:#018x})");
}

/// Two simultaneous arrivals plus a straggler, so every co-running
/// policy overlaps at least two apps.
fn rush() -> Scenario {
    Scenario::new("rush")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(0.0, App::Syrk, 0.9)
        .arrive(5.0, App::Gesummv, 0.9)
}

const GOLDEN_RUSH_SHARED: u64 = 0x5325_3574_5e4e_f024;
const GOLDEN_RUSH_CLUSTER_EXCLUSIVE: u64 = 0x54d3_3732_8c94_634d;

#[test]
fn co_running_timelines_are_pinned() {
    for (policy, want) in [
        (ContentionPolicy::shared(), GOLDEN_RUSH_SHARED),
        (
            ContentionPolicy::ClusterExclusive,
            GOLDEN_RUSH_CLUSTER_EXCLUSIVE,
        ),
    ] {
        let r = ScenarioRunner::new(Approach::Teem)
            .with_contention(policy)
            .run(&rush())
            .expect("runs");
        assert!(!r.timed_out);
        assert_eq!(r.summary.apps_completed(), 3);
        assert!(r.summary.overlap_s > 0.0, "{} never co-ran", policy.name());
        check(
            &format!("rush/{}", policy.name()),
            scenario_digest(&r),
            want,
        );
    }
}

const GOLDEN_MANY_NODE_16: u64 = 0x81e6_8e7f_d229_c882;

#[test]
fn many_node_cell_is_pinned() {
    let sc = Scenario::new("m-pair")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(0.0, App::Gesummv, 0.9);
    let r = ScenarioRunner::new(Approach::Teem)
        .with_board(BoardSpec::ManyNode { nodes: 16 })
        .with_contention(ContentionPolicy::shared())
        .run(&sc)
        .expect("runs");
    assert!(!r.timed_out);
    check("many-node/n16", scenario_digest(&r), GOLDEN_MANY_NODE_16);
}

const GOLDEN_SIMULATION_RUN: u64 = 0x6b24_8071_166e_4e88;

/// `Simulation::run`, the single-run engine: design points through
/// `evaluate::simulate` (CPU+GPU, GPU-only, CPU-only) and the Fig. 5
/// approaches through `runner::run`, every result's bits folded into
/// one FNV digest.
#[test]
fn simulation_run_results_are_pinned() {
    let mut h = Fnv::new();
    let dp = |little, big, (b, l, g), partition| DesignPoint {
        mapping: CpuMapping::new(little, big),
        freqs: ClusterFreqs {
            big: MHz(b),
            little: MHz(l),
            gpu: MHz(g),
        },
        partition,
    };
    for (app, point) in [
        (App::Mvt, dp(2, 3, (2000, 1400, 600), Partition::even())),
        (
            App::Gesummv,
            dp(0, 0, (1400, 1000, 420), Partition::all_gpu()),
        ),
        (App::Syrk, dp(4, 4, (1800, 1400, 177), Partition::all_cpu())),
    ] {
        let e = evaluate::simulate(app, &point);
        for v in [e.et_s, e.avg_temp_c, e.peak_temp_c, e.energy_j] {
            h.f64(v);
        }
    }
    let board = Board::odroid_xu4_ideal();
    for app in [App::Mvt, App::Covariance] {
        let profile = profile_app(&board, app).expect("profiles fit");
        let req = fig5_requirement(app, &profile);
        for approach in Approach::fig5() {
            let r = run_approach(
                app,
                approach,
                &req,
                Some(&profile),
                Some(fig5_mapping()),
                None,
            );
            hash_run_summary(&mut h, &r.summary);
            h.u64(r.trace.digest());
            h.u64(u64::from(r.zone_trips));
            h.u64(u64::from(r.timed_out));
            let (b, l, g, bo) = r.energy_breakdown_j;
            for v in [b, l, g, bo] {
                h.f64(v);
            }
        }
    }
    check("simulation-run", h.finish(), GOLDEN_SIMULATION_RUN);
}

/// Two one-arrival scenarios plus a gappy two-arrival one, over every
/// axis a cell's board depends on: threshold, ambient (non-dyadic
/// values) and board. Event-driven, so each gappy cell fast-forwards
/// its idle gap in closed form on its own board's cooling plan and
/// records the gap length.
fn axis_grid() -> teem_scenario::SweepSpec {
    teem_scenario::SweepSpec::over([
        Scenario::new("ax-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("ax-gesummv").arrive(0.0, App::Gesummv, 0.7),
        Scenario::new("ax-gappy")
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(75.0, App::Mvt, 0.9),
    ])
    .thresholds_c(&[80.7, 86.3])
    .ambients_c(&[17.35, 31.9])
    .boards(&[BoardSpec::OdroidXu4, BoardSpec::ManyNode { nodes: 16 }])
    .patch_config(ConfigPatch {
        time_advance: Some(TimeAdvance::EventDriven),
        ..ConfigPatch::default()
    })
}

/// The `journal_digest` of every cell's record (name, approach, summary
/// figures, trace digest), and the count and summed length (ms) of the
/// gaps the cells fast-forwarded.
fn axis_grid_digest(spec: &teem_scenario::SweepSpec) -> (u64, u64, u64) {
    use teem_scenario::{journal_digest, SweepEvent};
    use teem_telemetry::{CellRecord, LogHistogram};

    let mut records = Vec::new();
    let mut gaps = LogHistogram::new();
    let stats = spec
        .run_streaming(|ev| {
            if let SweepEvent::CellDone { cell, result } = ev {
                gaps.merge(&result.gap_len_ms);
                records.push(CellRecord::from_summary(
                    cell.index,
                    &result.summary,
                    result.trace.digest(),
                ));
            }
        })
        .expect("sweep runs");
    assert_eq!(stats.failed, 0, "no cell may fail");
    assert_eq!(records.len(), spec.cells());
    (journal_digest(&records), gaps.count(), gaps.sum())
}

/// Recorded before sweep cells cloned their boards from a per-sweep
/// template: every cell built its own board. Re-recorded once when the
/// idle-collapse regime was deleted, on the engine before that change
/// with only this grid's collapse timeout dropped, so the gappy cells
/// idle at the minimum OPPs (the gap count and length did not move).
const GOLDEN_AXIS_GRID: u64 = 0x420d_840d_64a6_2034;
const GOLDEN_AXIS_GRID_GAPS: u64 = 8;
const GOLDEN_AXIS_GRID_GAP_MS: u64 = 184_000;

/// The parity suites compare two paths that both set a cell up through
/// the same code, so a set-up bug moves both alike. This pins the set-up
/// itself: per-cell ambients and boards, sensor streams, and the gap
/// path on each cell's own board, scalar and batched.
#[test]
fn axis_grid_is_pinned_scalar_and_batched() {
    for (mode, spec) in [
        ("scalar", axis_grid().threads(1)),
        ("batched", axis_grid().batch(4).threads(2)),
    ] {
        let (digest, gaps, gap_ms) = axis_grid_digest(&spec);
        check(&format!("axis-grid/{mode}"), digest, GOLDEN_AXIS_GRID);
        assert_eq!(gaps, GOLDEN_AXIS_GRID_GAPS, "{mode}: gap count");
        assert_eq!(gap_ms, GOLDEN_AXIS_GRID_GAP_MS, "{mode}: gap length");
    }
}

/// Two co-running apps with an ambient change, a threshold change, the
/// second arrival and the timeout all between ticks of the 0.1 s sample
/// grid and of both apps' control grids (the first app's control ticks
/// fall on the sample grid, the second's 0.03 s after it). COVARIANCE
/// runs on the GPU alone, so MVT is the big cluster's one stakeholder,
/// and the 50 °C threshold it plans against makes its TEEM manager step
/// the big cluster down at its own, off-grid control ticks.
fn off_grid_scenario() -> Scenario {
    Scenario::new("off-grid")
        .arrive(0.0, App::Covariance, 1.0)
        .at(2.345, ScenarioEvent::AmbientChange { ambient_c: 31.7 })
        .at(4.567, ScenarioEvent::ThresholdChange { threshold_c: 50.0 })
        .arrive(5.123, App::Mvt, 0.9)
}

const GOLDEN_OFF_GRID: u64 = 0x00ce_4a27_c2ac_32f7;

#[test]
fn off_grid_events_and_timeout_are_pinned() {
    let r = ScenarioRunner::new(Approach::Teem)
        .with_contention(ContentionPolicy::shared())
        .with_config(SimConfig {
            timeout_s: 7.97,
            ..SimConfig::default()
        })
        .run(&off_grid_scenario())
        .expect("runs");
    assert!(r.timed_out, "both apps still run at the timeout");
    assert_eq!(r.summary.makespan_s, 7.97);
    assert_eq!(r.summary.apps_completed(), 0);
    check("off-grid", scenario_digest(&r), GOLDEN_OFF_GRID);
}

/// Ondemand at 35 °C: a lone MVT trips the zone, a 10.85 s idle gap
/// leaves it releasing, and a GEMM + SYRK co-run arrives while it
/// still does. Under the event-driven clock the gap's catch-up puts the
/// zone's release ticks off the sample grid, so the co-run's first
/// release lands between sample and control ticks; the co-run then
/// trips and releases the zone again while both apps run.
fn zone_co_run_scenario() -> Scenario {
    Scenario::new("zone-co-run")
        .with_initial_ambient(35.0)
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(40.0, App::Gemm, 0.9)
        .arrive(40.0, App::Syrk, 0.9)
}

const GOLDEN_ZONE_CO_RUN_FIXED_DT: u64 = 0x2f35_7a32_fd98_3f2d;
const GOLDEN_ZONE_CO_RUN_EVENT_DRIVEN: u64 = 0x8ed4_0510_8779_0fdc;

#[test]
fn zone_trip_and_release_during_a_co_run_are_pinned() {
    for (advance, want) in [
        (TimeAdvance::FixedDt, GOLDEN_ZONE_CO_RUN_FIXED_DT),
        (TimeAdvance::EventDriven, GOLDEN_ZONE_CO_RUN_EVENT_DRIVEN),
    ] {
        let r = ScenarioRunner::new(Approach::Ondemand)
            .with_contention(ContentionPolicy::shared())
            .with_config(SimConfig {
                time_advance: advance,
                ..SimConfig::default()
            })
            .run(&zone_co_run_scenario())
            .expect("runs");
        assert!(!r.timed_out);
        assert_eq!(r.summary.apps_completed(), 3);
        assert!(r.summary.zone_trips >= 2, "the co-run must trip again");
        assert!(r.summary.overlap_s > 0.0);
        check(
            &format!("zone-co-run/{advance:?}"),
            scenario_digest(&r),
            want,
        );
    }
}

/// TEEM plans both apps onto CPU+GPU partitions; under the shared
/// policy they co-run, and each CPU share, then GEMM's GPU share,
/// finishes between the two apps' control ticks (MVT's are offset by
/// its 0.37 s arrival).
fn partitioned_co_run_scenario() -> Scenario {
    Scenario::new("partitioned-co-run")
        .arrive(0.0, App::Gemm, 0.9)
        .arrive(0.37, App::Mvt, 0.9)
}

const GOLDEN_PARTITIONED_CO_RUN: u64 = 0xa709_a51d_e6fb_664b;

#[test]
fn busy_flips_between_control_ticks_are_pinned() {
    let r = ScenarioRunner::new(Approach::Teem)
        .with_contention(ContentionPolicy::shared())
        .run(&partitioned_co_run_scenario())
        .expect("runs");
    assert!(!r.timed_out);
    assert_eq!(r.summary.apps_completed(), 2);
    assert!(r.summary.overlap_s > 0.0);
    check(
        "partitioned-co-run",
        scenario_digest(&r),
        GOLDEN_PARTITIONED_CO_RUN,
    );
}
