//! Bit-identity golden tests for the scenario engine's physics.
//!
//! The hot-path refactor (flattened thermal network, in-place power
//! model, reusable step scratch) is required to be a pure
//! mechanical-sympathy change: every trace it produces must be
//! bit-identical to the allocating implementation it replaced. These
//! tests pin that property two ways:
//!
//! 1. a **golden digest** of a builtin-suite scenario trace, recorded
//!    from the pre-refactor engine — any change to operation order,
//!    buffering or sensor-noise consumption changes the digest;
//! 2. an **A/B determinism check** between the in-place power-model
//!    entry points and the (test-only) allocating wrappers.

use teem_core::runner::Approach;
use teem_scenario::{ContentionPolicy, Scenario, ScenarioRunner};
use teem_soc::{
    idle_node_powers, idle_node_powers_into, node_powers_for, node_powers_into, Board,
    ClusterFreqs, CpuMapping, MHz,
};
use teem_workload::App;

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
/// axis, executed by the work-stealing streaming engine, reproduces the
/// pre-refactor blocking matrix bit for bit — the cells on the golden
/// seeds must still hit the pinned digests, through the whole new
/// stack (SweepSpec enumeration → work-stealing workers → event
/// stream → collect-and-reorder).
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

/// The allocating wrappers and the in-place entry points must agree to
/// the bit on every node, for busy and idle boards alike, across the
/// frequency range.
#[test]
fn in_place_power_model_matches_allocating_path() {
    let board = Board::odroid_xu4_ideal();
    let chars = App::Covariance.characteristics();
    let temps = [83.25, 61.5, 74.125, 46.0625];
    assert_eq!(temps.len(), board.thermal.len());
    let mut out = vec![0.0; board.thermal.len()];

    for &(big, little, gpu) in &[(2000, 1400, 600), (1400, 1000, 420), (200, 200, 177)] {
        let freqs = ClusterFreqs {
            big: MHz(big),
            little: MHz(little),
            gpu: MHz(gpu),
        };
        for &(cpu_busy, gpu_busy) in &[(true, true), (true, false), (false, true), (false, false)] {
            let alloc = node_powers_for(
                &board,
                CpuMapping::new(2, 3),
                freqs,
                cpu_busy,
                gpu_busy,
                chars.activity,
                &temps,
            );
            node_powers_into(
                &board,
                CpuMapping::new(2, 3),
                freqs,
                cpu_busy,
                gpu_busy,
                chars.activity,
                &temps,
                &mut out,
            );
            assert_eq!(alloc, out, "busy=({cpu_busy},{gpu_busy}) freqs={freqs:?}");
        }

        let alloc_idle = idle_node_powers(&board, freqs, &temps);
        idle_node_powers_into(&board, freqs, &temps, &mut out);
        assert_eq!(alloc_idle, out, "idle freqs={freqs:?}");
    }
}
