//! Allocation budget of a sweep cell.
//!
//! A counting global allocator over [`System`] tallies, per thread,
//! every call that asks the allocator for memory: `alloc`,
//! `alloc_zeroed` and `realloc`. A sweep at `threads(1)` runs its one
//! worker and its sink on the calling thread, so the tally of one run
//! is that sweep's whole heap traffic, set-up and sink included.
//!
//! The grid has the `sweep_grid` benchmark's shape: the five
//! one-arrival PolyBench scenarios under TEEM at a fixed step, each
//! cell cut at 2 s (200 steps), over 8 thresholds × 8 ambients = 320
//! cells, so the per-sweep set-up (profiles, templates, the lockstep
//! pool, the spare buffer sets) is amortised. The sink aggregates
//! every summary and reads every trace digest. Each grid runs once
//! uncounted first, so the memoised offline profiles are in place.
//!
//! What keeps a cell lean: each board's network, LU factors and OPP
//! tables are shared by every board cloned from its template, a worker
//! hands a finished cell's scratch buffers to the next cell it starts,
//! and a trace's last flush leaves room for the closing records. Before
//! the first two, a batched cell here made 64.7 allocation calls and an
//! unbatched one 64.3; before the last, 23.7 and 22.4.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use teem_core::runner::Approach;
use teem_scenario::{ConfigPatch, Scenario, SweepEvent, SweepSpec};
use teem_soc::{BoardSpec, BoardTemplate, SensorBank, TimeAdvance};
use teem_telemetry::SweepAggregator;
use teem_workload::App;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation calls on the calling thread, then defers to
/// [`System`].
struct Counting;

fn count_call() {
    // `try_with`: a thread's last frees and allocations can run after
    // its locals are gone.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged; the counter is a const-initialised thread local that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// The `sweep_grid` benchmark's grid at 320 cells, on one worker.
fn grid() -> SweepSpec {
    let scenarios = vec![
        Scenario::new("g-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("g-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("g-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("g-covariance").arrive(0.0, App::Covariance, 0.9),
        Scenario::new("g-mvt-tight").arrive(0.0, App::Mvt, 0.7),
    ];
    let thresholds: Vec<f64> = (0..8).map(|i| 80.0 + 1.25 * f64::from(i)).collect();
    let ambients: Vec<f64> = (0..8).map(|i| 15.0 + 2.5 * f64::from(i)).collect();
    SweepSpec::over(scenarios)
        .approaches(&[Approach::Teem])
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            time_advance: Some(TimeAdvance::FixedDt),
        })
        .threads(1)
}

/// Allocation calls per cell of one counted run of `spec`, after one
/// uncounted run. Every cell must complete, and the digests of the two
/// runs must agree.
fn calls_per_cell(spec: &SweepSpec) -> f64 {
    let run = |agg: &mut SweepAggregator| {
        let mut digest = 0u64;
        let stats = spec
            .run_streaming(|ev| {
                if let SweepEvent::CellDone { result, .. } = ev {
                    agg.record(&result.summary);
                    digest = digest.wrapping_add(result.trace.digest());
                }
            })
            .expect("profiles fit");
        assert_eq!(stats.completed, spec.cells(), "every cell completes");
        digest
    };
    let warm = run(&mut SweepAggregator::new());
    let mut agg = SweepAggregator::new();
    let before = calls();
    let digest = run(&mut agg);
    let counted = calls() - before;
    assert_eq!(digest, warm, "the counted run repeats the uncounted one");
    assert_eq!(agg.cells(), spec.cells());
    counted as f64 / spec.cells() as f64
}

#[test]
fn a_batched_cell_stays_within_its_allocation_budget() {
    // Measured at 21.7 calls (64.7 before the shared network and
    // recycled buffers, 23.7 before the room for the closing records).
    let spec = grid().batch(16);
    assert!(spec.cells() >= 320);
    let per_cell = calls_per_cell(&spec);
    println!("batched: {per_cell:.2} allocation calls per cell");
    assert!(
        per_cell <= 30.0,
        "{per_cell:.2} allocation calls per batched cell, budget 30"
    );
}

#[test]
fn an_unbatched_cell_stays_within_its_allocation_budget() {
    // Measured at 19.4 calls (64.3 before the shared network and recycled
    // buffers, 22.4 before the room for the closing records and the
    // two-slot worker, which boxes no finished result).
    let spec = grid();
    let per_cell = calls_per_cell(&spec);
    println!("unbatched: {per_cell:.2} allocation calls per cell");
    assert!(
        per_cell <= 26.0,
        "{per_cell:.2} allocation calls per unbatched cell, budget 26"
    );
}

#[test]
fn a_board_cloned_from_its_template_allocates_only_its_per_run_vectors() {
    for spec in [BoardSpec::OdroidXu4, BoardSpec::ManyNode { nodes: 17 }] {
        let template = BoardTemplate::new(spec);
        let sensors = SensorBank::tmu_like(42);
        let before = calls();
        let board = template.instantiate(30.0, sensors);
        let made = calls() - before;
        assert_eq!(
            made, 2,
            "{spec:?}: a clone allocates its node temperatures and Euler scratch, nothing else"
        );
        assert_eq!(board.thermal.temps(), vec![30.0; board.thermal.len()]);
    }
}
