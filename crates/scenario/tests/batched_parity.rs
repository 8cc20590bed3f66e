//! Batched-vs-scalar parity: `SweepSpec::batch(k)` is a scheduling
//! knob, never a physics knob.
//!
//! The contract pinned here, cell by cell and bit by bit:
//!
//! * for any lane count K — including K that is not a multiple of the
//!   SIMD width, K = 1, and grids smaller than K — every cell's
//!   summary **and trace digest** equal the scalar run's;
//! * the fast path actually engages (`kernel.batched_steps > 0` on
//!   lockstep-eligible cells) and never engages in scalar mode;
//! * a lane that diverges mid-batch (the reactive zone trips under
//!   Ondemand at high ambient) retires to the scalar path and
//!   completes with its trips recorded, while its sibling lanes stay
//!   bit-identical to their scalar runs — and the run's
//!   `batch.lane_occupancy` gauge drops below 1.0, making the
//!   divergence observable;
//! * cells long enough to overflow the 256-row sample stage mid-run
//!   stay bit-identical, and so does every worker × K schedule
//!   (property test);
//! * an oracle outside the sweep engine — `ScenarioRunner::run`, built
//!   by hand from each cell's public fields — equals both the scalar
//!   and the K = 4 sweep, cell by cell, on this suite's grid and on a
//!   multi-arrival event-driven grid under every contention policy.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_core::ProfileStore;
use teem_scenario::{
    ConfigPatch, ContentionPolicy, Scenario, ScenarioRunner, SweepCell, SweepEvent, SweepSpec,
};
use teem_soc::{Board, TimeAdvance};
use teem_telemetry::ScenarioSummary;
use teem_workload::App;

/// Per-cell identity: everything the physics produced.
struct CellOut {
    summary: ScenarioSummary,
    digest: u64,
    batched_steps: u64,
}

/// Scenarios spanning the eligibility spectrum: two solo arrivals
/// (lockstep for essentially the whole run), and a co-arrival pair
/// that is ineligible while both apps are active and eligible once the
/// co-runner finishes — the partial-eligibility case.
fn mixed_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("p-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("p-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("p-pair")
            .arrive(0.0, App::Gesummv, 0.9)
            .arrive(0.5, App::Mvt, 0.9),
    ]
}

/// The parity grid's short-cell configuration.
fn parity_patch() -> ConfigPatch {
    ConfigPatch {
        timeout_s: Some(2.0),
        ..ConfigPatch::default()
    }
}

/// 3 scenarios × 2 approaches × 2 thresholds × 2 ambients = 24 cells.
fn parity_grid() -> SweepSpec {
    SweepSpec::over(mixed_scenarios())
        .approaches(&[Approach::Teem, Approach::Ondemand])
        .thresholds_c(&[80.0, 85.0])
        .ambients_c(&[15.0, 25.0])
        .patch_config(parity_patch())
        .threads(1)
}

/// Runs the spec and collects every cell's physics identity by index.
fn run_grid(spec: &SweepSpec) -> BTreeMap<usize, CellOut> {
    let mut out = BTreeMap::new();
    let stats = spec
        .run_streaming(|ev| {
            if let SweepEvent::CellDone { cell, result } = ev {
                out.insert(
                    cell.index,
                    CellOut {
                        summary: result.summary.clone(),
                        digest: result.trace.digest(),
                        batched_steps: result.kernel.batched_steps,
                    },
                );
            }
        })
        .expect("sweep runs");
    assert_eq!(stats.failed, 0, "no cell may fail");
    assert_eq!(out.len(), stats.completed, "one CellDone per completion");
    out
}

/// Asserts two grid runs are cell-for-cell bit-identical.
fn assert_parity(scalar: &BTreeMap<usize, CellOut>, batched: &BTreeMap<usize, CellOut>, tag: &str) {
    assert_eq!(scalar.len(), batched.len(), "{tag}: cell count");
    for (index, s) in scalar {
        let b = &batched[index];
        assert_eq!(
            s.summary, b.summary,
            "{tag}: summary diverged at cell {index}"
        );
        assert_eq!(
            s.digest, b.digest,
            "{tag}: trace digest diverged at cell {index} ({})",
            s.summary.scenario
        );
    }
}

#[test]
fn batched_matches_scalar_across_lane_counts() {
    let scalar = run_grid(&parity_grid());
    assert!(
        scalar.values().all(|c| c.batched_steps == 0),
        "scalar mode must never batch"
    );
    // K spans: the degenerate single lane, sub-SIMD-width counts,
    // exactly one vector, a non-multiple-of-4 tail, two vectors, and
    // a full 16-lane kernel window.
    for k in [1usize, 2, 3, 4, 5, 8, 16] {
        let batched = run_grid(&parity_grid().batch(k));
        assert_parity(&scalar, &batched, &format!("K={k}"));
        let total_batched: u64 = batched.values().map(|c| c.batched_steps).sum();
        assert!(total_batched > 0, "K={k}: the fast path never engaged");
    }
}

#[test]
fn batched_matches_scalar_under_worker_pool() {
    let scalar = run_grid(&parity_grid());
    let batched = run_grid(&parity_grid().batch(4).threads(4));
    assert_parity(&scalar, &batched, "K=4/threads=4");
}

#[test]
fn one_cell_grid_under_wide_batch_is_bit_identical() {
    // A grid smaller than K: three of the four lanes never fill, and
    // the single resident cell must still match scalar exactly.
    let one = || {
        SweepSpec::over(vec![Scenario::new("solo").arrive(0.0, App::Mvt, 0.9)])
            .patch_config(ConfigPatch {
                timeout_s: Some(2.0),
                ..ConfigPatch::default()
            })
            .threads(1)
    };
    let scalar = run_grid(&one());
    let batched = run_grid(&one().batch(4));
    assert_parity(&scalar, &batched, "1-cell/K=4");
    assert!(batched[&0].batched_steps > 0, "solo cell batches");
}

#[test]
fn diverging_lane_retires_scalar_without_perturbing_siblings() {
    // Ondemand at high ambient drives the die past the 95 °C reactive
    // trip mid-run; the sibling cells (moderate ambient) stay in
    // lockstep. The tripping cells must retire to the scalar path and
    // finish with their trips recorded, bit-identical to scalar mode.
    let grid = || {
        SweepSpec::over(vec![
            Scenario::new("d-mvt").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("d-syrk").arrive(0.0, App::Syrk, 0.9),
        ])
        .approaches(&[Approach::Ondemand])
        .ambients_c(&[15.0, 60.0])
        .patch_config(ConfigPatch {
            timeout_s: Some(4.0),
            ..ConfigPatch::default()
        })
        .threads(1)
    };
    let scalar = run_grid(&grid());
    let trips: u32 = scalar.values().map(|c| c.summary.zone_trips).sum();
    assert!(
        trips >= 1,
        "the grid must contain at least one tripping cell (got {trips})"
    );

    let mut batched = BTreeMap::new();
    let (stats, report) = grid()
        .batch(4)
        .run_instrumented(|ev| {
            if let SweepEvent::CellDone { cell, result } = ev {
                batched.insert(
                    cell.index,
                    CellOut {
                        summary: result.summary.clone(),
                        digest: result.trace.digest(),
                        batched_steps: result.kernel.batched_steps,
                    },
                );
            }
        })
        .expect("instrumented batched sweep runs");
    assert_eq!(stats.failed, 0);
    assert_parity(&scalar, &batched, "divergence/K=4");

    // The trip is a *handoff*: the tripping cell keeps its batched
    // prefix but finishes scalar, so it batched strictly fewer steps
    // than it ran.
    let snap = report.snapshot();
    let occ = snap
        .gauge("batch.lane_occupancy")
        .expect("occupancy gauge registered");
    assert!(
        occ < 1.0,
        "a tripping lane must pull occupancy below 1.0 (got {occ})"
    );
    assert!(occ > 0.0, "lockstep still ran (got {occ})");
    assert!(snap.counter("engine.batched_steps").unwrap() > 0);
    let hist = snap
        .histogram("batch.lane_occupancy")
        .expect("per-lane occupancy histogram registered");
    assert!(hist.count >= 1, "at least one lane scored");
}

#[test]
fn capacity_flushes_are_invisible() {
    // 40 s at the 0.1 s sample cadence is ~400 samples per cell —
    // the 256-row stage overflows mid-run, so this exercises the
    // capacity-flush path (flush-at-finish alone would never fire)
    // with lanes resident in the lockstep pool.
    let long = || {
        SweepSpec::over(vec![
            Scenario::new("long-mvt").arrive(0.0, App::Mvt, 0.5),
            Scenario::new("long-syrk").arrive(0.0, App::Syrk, 0.5),
        ])
        .patch_config(ConfigPatch {
            timeout_s: Some(40.0),
            ..ConfigPatch::default()
        })
        .threads(1)
    };
    let scalar = run_grid(&long());
    let batched = run_grid(&long().batch(4));
    assert_parity(&scalar, &batched, "long-run capacity flush, K=4");
}

/// The scalar sequential run of [`parity_grid`], computed once.
fn scalar_parity_grid() -> &'static BTreeMap<usize, CellOut> {
    static SCALAR: OnceLock<BTreeMap<usize, CellOut>> = OnceLock::new();
    SCALAR.get_or_init(|| run_grid(&parity_grid()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whatever the schedule (workers × lane count), every cell's
    /// summary and digest equal the scalar sequential run's.
    #[test]
    fn batched_is_digest_invisible_across_schedules(
        threads in 1usize..=4,
        k in 1usize..=8,
    ) {
        let scalar = scalar_parity_grid();
        let batched = run_grid(&parity_grid().threads(threads).batch(k));
        prop_assert_eq!(scalar.len(), batched.len());
        for (index, s) in scalar {
            prop_assert_eq!(&s.summary, &batched[index].summary,
                "summary diverged at cell {}", index);
            prop_assert_eq!(s.digest, batched[index].digest,
                "digest diverged at cell {}", index);
        }
    }
}

/// One cell run outside the sweep engine: a `ScenarioRunner` built by
/// hand from the cell's public fields, running the scenario the cell
/// names (its name up to the knob tags) with the cell's overrides.
fn oracle(
    scenarios: &[Scenario],
    patch: ConfigPatch,
    cell: &SweepCell,
    profiles: &Arc<ProfileStore>,
) -> CellOut {
    let base = cell.name.split('@').next().unwrap_or_default();
    let mut scenario = scenarios
        .iter()
        .find(|s| s.name() == base)
        .unwrap_or_else(|| panic!("cell `{}` names no scenario", cell.name))
        .clone()
        .with_name(cell.name.clone());
    if let Some(t) = cell.threshold_c {
        scenario = scenario.with_initial_threshold(t);
    }
    if let Some(a) = cell.ambient_c {
        scenario = scenario.with_initial_ambient(a);
    }
    let config = patch.onto_default();
    let result = ScenarioRunner::with_shared_profiles(cell.approach, Arc::clone(profiles))
        .with_contention(cell.contention)
        .with_tunables(cell.tunables)
        .with_board(cell.board)
        .with_config(config)
        .run(&scenario)
        .expect("oracle cell runs");
    CellOut {
        summary: result.summary,
        digest: result.trace.digest(),
        batched_steps: result.kernel.batched_steps,
    }
}

/// Asserts the unbatched and the K = 4 sweep of `spec` (built over
/// `scenarios` with `patch`) each equal the hand-built oracle, cell by
/// cell.
fn assert_matches_oracle(scenarios: &[Scenario], patch: ConfigPatch, spec: &SweepSpec) {
    let apps: BTreeSet<App> = scenarios.iter().flat_map(Scenario::apps).collect();
    let profiles = build_profile_store(&Board::odroid_xu4_ideal(), apps)
        .expect("profiles fit")
        .into_shared();
    let oracle: BTreeMap<usize, CellOut> = (0..spec.cells())
        .map(|index| {
            (
                index,
                oracle(scenarios, patch, &spec.cell(index), &profiles),
            )
        })
        .collect();
    assert!(
        oracle.values().all(|c| c.batched_steps == 0),
        "the oracle never batches"
    );
    assert_parity(&oracle, &run_grid(spec), "oracle vs unbatched sweep");
    assert_parity(
        &oracle,
        &run_grid(&spec.clone().batch(4)),
        "oracle vs K=4 sweep",
    );
}

#[test]
fn hand_built_runner_oracle_matches_the_parity_grid() {
    assert_matches_oracle(&mixed_scenarios(), parity_patch(), &parity_grid());
}

#[test]
fn hand_built_runner_oracle_matches_a_multi_arrival_event_driven_grid() {
    // The trace-campaign shape in miniature: multi-arrival timelines
    // with idle gaps fast-forwarded, under every approach and every
    // contention policy.
    let scenarios = vec![
        Scenario::bursty(
            "o-bursty",
            &[App::Mvt, App::Gesummv, App::Syrk, App::Mvt],
            2,
            120.0,
            0.9,
        ),
        Scenario::periodic("o-periodic", App::Gesummv, 90.0, 3, 0.85),
    ];
    let patch = ConfigPatch {
        time_advance: Some(TimeAdvance::EventDriven),
        ..ConfigPatch::default()
    };
    let spec = SweepSpec::over(scenarios.clone())
        .approaches(&Approach::all())
        .contentions(&[
            ContentionPolicy::Serial,
            ContentionPolicy::ClusterExclusive,
            ContentionPolicy::shared(),
        ])
        .ambients_c(&[30.0])
        .patch_config(patch)
        .threads(1);
    assert_matches_oracle(&scenarios, patch, &spec);
}
