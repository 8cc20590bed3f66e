//! Invariants of the streaming sweep engine.
//!
//! The engine's contract has three parts, each pinned here:
//!
//! 1. **Streaming ≡ blocking.** The streamed `CellDone` events are a
//!    permutation of the blocking `run_collect` results — same cells,
//!    same physics, any completion order (property test over worker
//!    counts).
//! 2. **Aggregation is order-blind.** A [`SweepAggregator`] fed the
//!    same cells in any arrival order reports the same winners, Pareto
//!    front and totals.
//! 3. **Scale streams.** A ≥ 500-cell three-axis grid (scenarios ×
//!    thresholds × ambients) runs with at most `workers` cells in
//!    flight — the engine buffers nothing — and its parallel aggregate
//!    equals the sequential one bit for bit.

use proptest::prelude::*;
use std::sync::OnceLock;
use teem_core::runner::Approach;
use teem_scenario::{ConfigPatch, Scenario, SweepEvent, SweepSpec};
use teem_telemetry::{ScenarioSummary, SweepAggregator};
use teem_workload::App;

/// One-arrival scenarios: the cheapest cells that still exercise the
/// full pipeline (profiling, warm start, planning, physics, summary).
fn small_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("gesummv").arrive(0.0, App::Gesummv, 0.9),
    ]
}

/// Keeps property cases cheap: cells simulate at most 3 s.
fn short_cells() -> ConfigPatch {
    ConfigPatch {
        timeout_s: Some(3.0),
        ..ConfigPatch::default()
    }
}

/// The blocking reference for the permutation property, computed once.
fn reference_matrix() -> &'static Vec<(String, String, u64)> {
    static REF: OnceLock<Vec<(String, String, u64)>> = OnceLock::new();
    REF.get_or_init(|| {
        SweepSpec::over(small_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .patch_config(short_cells())
            .threads(1)
            .run_collect()
            .expect("reference matrix runs")
            .into_iter()
            .map(|r| {
                (
                    r.summary.scenario.clone(),
                    r.summary.approach.clone(),
                    r.trace.digest(),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the worker count — and therefore whatever completion
    /// order the pool's shared claim cursor produces — the streamed
    /// cells are exactly a permutation of the blocking matrix results,
    /// physics included (trace digests, not just summaries).
    #[test]
    fn streamed_cells_are_a_permutation_of_the_blocking_matrix(
        threads in 2usize..=8,
    ) {
        let mut streamed: Vec<(String, String, u64)> = Vec::new();
        SweepSpec::over(small_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .patch_config(short_cells())
            .threads(threads)
            .run_streaming(|ev| {
                if let SweepEvent::CellDone { result, .. } = ev {
                    streamed.push((
                        result.summary.scenario.clone(),
                        result.summary.approach.clone(),
                        result.trace.digest(),
                    ));
                }
            })
            .expect("sweep runs");
        let mut expected = reference_matrix().clone();
        expected.sort();
        streamed.sort();
        prop_assert_eq!(streamed, expected);
    }

    /// The aggregator's discrete outputs (winners, front, totals) are
    /// invariant under cell arrival order; the floating means agree to
    /// rounding.
    #[test]
    fn aggregator_is_invariant_under_arrival_order(seed in 0u64..1_000_000) {
        let summaries = reference_summaries();
        let mut shuffled: Vec<&ScenarioSummary> = summaries.iter().collect();
        // Fisher–Yates with the shim's deterministic RNG.
        let mut rng = TestRng::new(seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        let mut in_order = SweepAggregator::new();
        for s in summaries {
            in_order.record(s);
        }
        let mut out_of_order = SweepAggregator::new();
        for s in shuffled {
            out_of_order.record(s);
        }
        prop_assert_eq!(in_order.cells(), out_of_order.cells());
        prop_assert_eq!(in_order.trips_total(), out_of_order.trips_total());
        prop_assert_eq!(in_order.misses_total(), out_of_order.misses_total());
        prop_assert_eq!(in_order.best_by_scenario(), out_of_order.best_by_scenario());
        prop_assert_eq!(in_order.pareto_front(), out_of_order.pareto_front());
        prop_assert_eq!(in_order.energy_j().min, out_of_order.energy_j().min);
        prop_assert_eq!(in_order.energy_j().max, out_of_order.energy_j().max);
        prop_assert!(
            (in_order.energy_j().mean - out_of_order.energy_j().mean).abs() < 1e-9
        );
    }
}

/// Summaries for the aggregator property — a real grid's output,
/// computed once.
fn reference_summaries() -> &'static Vec<ScenarioSummary> {
    static REF: OnceLock<Vec<ScenarioSummary>> = OnceLock::new();
    REF.get_or_init(|| {
        SweepSpec::over(small_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand, Approach::Eemp])
            .patch_config(short_cells())
            .run_collect()
            .expect("runs")
            .into_iter()
            .map(|r| r.summary)
            .collect()
    })
}

/// The acceptance-scale check: a three-axis grid of 500+ cells streams
/// through the engine with O(workers) results in flight, and the
/// parallel run's aggregate equals the sequential run's exactly.
#[test]
fn three_axis_500_cell_sweep_streams_in_constant_memory() {
    let scenarios = vec![
        Scenario::new("s-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("s-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("s-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("s-atax").arrive(0.0, App::Mvt, 0.7),
        Scenario::new("s-pair")
            .arrive(0.0, App::Gesummv, 0.9)
            .arrive(0.5, App::Mvt, 0.9),
    ];
    let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + i as f64).collect();
    let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * i as f64).collect();
    let threads = 4;
    let spec = SweepSpec::over(scenarios)
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        // Cap simulated time per cell so the 500-cell grid stays a
        // sub-second test; the streaming contract is what is under
        // test, not the cells' length.
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .threads(threads);
    assert_eq!(spec.cells(), 5 * 10 * 10, "three axes, 500 cells");

    // Parallel streaming pass: aggregate online, keep nothing else.
    let mut agg = SweepAggregator::new();
    let mut in_flight = 0usize;
    let mut peak_in_flight = 0usize;
    let mut done = vec![false; spec.cells()];
    let stats = spec
        .run_streaming(|ev| match ev {
            SweepEvent::CellStarted { .. } => {
                in_flight += 1;
                peak_in_flight = peak_in_flight.max(in_flight);
            }
            SweepEvent::CellDone { cell, result } => {
                in_flight -= 1;
                assert!(!done[cell.index], "cell {} streamed twice", cell.index);
                done[cell.index] = true;
                agg.record(&result.summary);
                // `result` dropped here: the engine hands ownership to
                // the sink, cell by cell.
            }
            SweepEvent::CellFailed { name, message, .. } => {
                panic!("cell {name} failed: {message}")
            }
            SweepEvent::Finished { cells, failed } => {
                assert_eq!(cells, 500);
                assert_eq!(failed, 0);
            }
        })
        .expect("sweep runs");
    assert_eq!(stats.completed, 500);
    assert!(done.iter().all(|&d| d), "every cell streamed exactly once");
    // An unbatched worker holds up to two cells at once (it interleaves
    // their span steps), so the bound is two per worker: still
    // O(workers), as a batched worker's K lanes are.
    assert!(
        peak_in_flight <= 2 * threads,
        "peak resident results {peak_in_flight} must be O(workers = {threads}), not O(cells)"
    );
    assert_eq!(agg.cells(), 500);
    assert_eq!(
        agg.best_by_scenario().len(),
        5,
        "winners group by base scenario, not by knob-tagged cell"
    );
    for best in agg.best_by_scenario().values() {
        assert!(
            best.cell.contains("@thr"),
            "the winner records which knob cell won: {}",
            best.cell
        );
    }

    // Sequential pass over the same spec: the aggregate state must
    // match the parallel one (discretes exactly, means to rounding).
    let mut seq = SweepAggregator::new();
    spec.clone()
        .threads(1)
        .run_streaming(|ev| {
            if let SweepEvent::CellDone { result, .. } = ev {
                seq.record(&result.summary);
            }
        })
        .expect("sequential sweep runs");
    assert_eq!(agg.cells(), seq.cells());
    assert_eq!(agg.trips_total(), seq.trips_total());
    assert_eq!(agg.misses_total(), seq.misses_total());
    assert_eq!(agg.best_by_scenario(), seq.best_by_scenario());
    assert_eq!(agg.pareto_front(), seq.pareto_front());
    assert_eq!(agg.energy_j().min, seq.energy_j().min);
    assert_eq!(agg.energy_j().max, seq.energy_j().max);
    assert!((agg.energy_j().mean - seq.energy_j().mean).abs() < 1e-6);
}

/// A knob axis (δ / floor) actually changes the physics: sweeping
/// TEEM's tunables over one scenario produces distinct traces per knob
/// set, while the paper knob set reproduces the untuned run exactly.
#[test]
fn tunables_axis_changes_physics_and_paper_knobs_are_identity() {
    use teem_core::TeemTunables;
    use teem_soc::MHz;

    // SYRK under a tight deadline runs the big cluster at ~82 °C
    // untuned — an 80 °C knob threshold puts the stepper right on the
    // oscillation boundary, where δ and the floor both shape the ride.
    let scenario = Scenario::new("knobbed").arrive(0.0, App::Syrk, 0.62);
    let knobs = [
        TeemTunables::paper(),
        TeemTunables::paper().with_threshold(80.0),
        TeemTunables::paper()
            .with_threshold(80.0)
            .with_floor(MHz(1800)),
        TeemTunables::paper().with_threshold(80.0).with_delta(600),
    ];
    let spec = SweepSpec::over([scenario.clone()]).tunables(&knobs);
    let results = spec.run_collect().expect("runs");
    assert_eq!(results.len(), 4);

    // The paper knob set is bit-identical to a plain (knobless) run.
    let plain = SweepSpec::over([scenario]).run_collect().expect("runs");
    assert_eq!(
        results[0].trace.digest(),
        plain[0].trace.digest(),
        "paper tunables must be the identity"
    );
    // Each knob genuinely steers the run: threshold vs paper, floor and
    // δ vs the same-threshold baseline.
    assert_ne!(results[0].trace.digest(), results[1].trace.digest());
    assert_ne!(results[1].trace.digest(), results[2].trace.digest());
    assert_ne!(results[1].trace.digest(), results[3].trace.digest());
    // A raised floor caps how far the stepper can back off, so it rides
    // hotter than the paper floor at the same threshold.
    assert!(
        results[2].summary.avg_temp_c >= results[1].summary.avg_temp_c,
        "floor 1800 ({:.1}C) vs 1400 ({:.1}C)",
        results[2].summary.avg_temp_c,
        results[1].summary.avg_temp_c
    );
    // TEEM stays proactive under every knob set here: zero reactive
    // trips across the whole axis.
    for r in &results {
        assert_eq!(r.summary.zone_trips, 0, "{}", r.summary.scenario);
    }
}
