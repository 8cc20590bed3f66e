//! Leakage fixed-point oracle for the engine's one idle regime.
//!
//! An idle board races to its minimum OPPs and settles where its
//! temperatures reproduce themselves through the leakage they cause:
//! `T* = steady_state(P(T*))`, with `P` the frozen
//! [`NodePowerModel`]. The suite solves that fixed point by damped
//! iteration on [`ThermalModel::steady_state`](teem_soc::ThermalModel::steady_state)
//! alone, independently of both ways the scenario executor advances an
//! idle board, then starts every node at 80 °C and checks that each way
//! lands on it:
//!
//! * stepping with [`ThermalModel::step_frozen`](teem_soc::ThermalModel::step_frozen),
//!   the fixed-dt loop's step, for two hours lands within 1e-6 °C;
//! * one [`fast_forward_gap`] call over the same two hours, the
//!   event-driven gap path, lands within 0.05 °C, the gap budget.
//!
//! A busy single-app operating point whose fixed point sits below the
//! 95 °C trip, where the always-armed thermal zone never acts, pins
//! the stepping side under load as well. A load near its runaway limit
//! is bistable, a stable fixed point below an unstable one, and a whole
//! board at 80 °C can start past the second: three big cores at
//! 1.6 GHz settle at 74 °C from ambient but run away from 80 °C. The
//! chosen load converges from either start.
//!
//! The fixed point does not depend on the step size, so the 16-node
//! board steps at a coarser `dt` that `step_frozen` sub-steps. Bhat,
//! Gumussoy & Ogras (arXiv:2003.11081) analyse when such a fixed point
//! exists and is stable.

use teem_soc::{
    fast_forward_gap, Board, BoardSpec, ClusterFreqs, CpuMapping, MHz, NodePowerModel, SensorBank,
    StepScratch, DT_S,
};

/// The simulated time each advance covers, seconds: long enough for
/// the slowest board mode to decay far below the stepping bound.
const HORIZON_S: f64 = 7_200.0;

/// Every node's start, °C: the warm-start ceiling, far from idle.
const START_C: f64 = 80.0;

/// How far stepping may land from the fixed point, °C.
const STEPPED_TOL_C: f64 = 1e-6;

/// How far the closed-form gap may land from it, °C: the gap budget.
const GAP_TOL_C: f64 = 0.05;

/// The boards the oracle covers, each with the step it is advanced at.
/// Two hours at [`DT_S`] take a debug build about 3 s on the XU4 and
/// about 20 s on the 16-node board, so that board steps a second at a
/// time (sub-stepped inside `step_frozen`).
fn boards() -> [(BoardSpec, f64); 2] {
    [
        (BoardSpec::OdroidXu4, DT_S),
        (BoardSpec::ManyNode { nodes: 16 }, 1.0),
    ]
}

/// Solves `T = steady_state(P(T))` by damped fixed-point iteration
/// from the ambient temperature, to a residual of 1e-11 °C. Leakage
/// feeds back positively, so the iteration climbs monotonically while
/// a fixed point exists and runs away to infinity where none does.
///
/// # Panics
///
/// Panics if 200 iterations do not converge.
fn fixed_point(board: &Board, model: &NodePowerModel) -> Vec<f64> {
    const DAMPING: f64 = 0.9;
    let n = board.thermal.len();
    let mut temps = vec![board.thermal.ambient_c(); n];
    let mut power = vec![0.0; n];
    for _ in 0..200 {
        model.eval_into(&temps, &mut power);
        let image = board.thermal.steady_state(&power);
        let residual = max_gap(&temps, &image);
        if residual < 1e-11 {
            return temps;
        }
        for (t, s) in temps.iter_mut().zip(&image) {
            *t += DAMPING * (s - *t);
        }
    }
    panic!("no leakage fixed point within 200 iterations");
}

/// The largest per-node distance between two temperature vectors, °C,
/// or NaN if either holds one (a run that ran away), which fails every
/// bound; `f64::max` would drop it.
fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m, d| if d > m || d.is_nan() { d } else { m })
}

/// `spec` at `ambient_c` with every node at [`START_C`].
fn hot_board(spec: BoardSpec, ambient_c: f64) -> Board {
    let mut board = spec.build_with(ambient_c, SensorBank::ideal());
    for node in 0..board.thermal.len() {
        board.thermal.set_temp(node, START_C);
    }
    board
}

/// Steps `model` on `board` at `dt` for [`HORIZON_S`] and returns how
/// far it lands from the fixed point.
fn stepped_error(mut board: Board, model: &NodePowerModel, dt: f64, fixed: &[f64]) -> f64 {
    let mut power = vec![0.0; board.thermal.len()];
    let steps = (HORIZON_S / dt).round() as u64;
    for _ in 0..steps {
        board.thermal.step_frozen(dt, model, &mut power);
    }
    max_gap(board.thermal.temps(), fixed)
}

#[test]
fn idle_board_steps_onto_its_leakage_fixed_point() {
    for (spec, dt) in boards() {
        for ambient in [22.0, 30.0] {
            let board = hot_board(spec, ambient);
            let idle = NodePowerModel::idle(&board, ClusterFreqs::min_of(&board));
            let fixed = fixed_point(&board, &idle);
            let err = stepped_error(board, &idle, dt, &fixed);
            assert!(
                err <= STEPPED_TOL_C,
                "{spec:?} at {ambient} °C: stepped {err:e} °C from the fixed point"
            );
        }
    }
}

#[test]
fn idle_gap_fast_forwards_onto_its_leakage_fixed_point() {
    for (spec, _) in boards() {
        for ambient in [22.0, 30.0] {
            let mut board = hot_board(spec, ambient);
            let freqs = ClusterFreqs::min_of(&board);
            let fixed = fixed_point(&board, &NodePowerModel::idle(&board, freqs));
            let mut scratch = StepScratch::for_board(&board);
            let mut energy = vec![0.0; board.thermal.len()];
            fast_forward_gap(
                &mut board,
                freqs,
                HORIZON_S,
                ambient,
                &mut scratch,
                &mut energy,
            );
            let err = max_gap(board.thermal.temps(), &fixed);
            assert!(
                err <= GAP_TOL_C,
                "{spec:?} at {ambient} °C: fast-forwarded {err} °C from the fixed point"
            );
        }
    }
}

#[test]
fn busy_board_steps_onto_its_leakage_fixed_point() {
    for (spec, dt) in boards() {
        let board = hot_board(spec, 25.0);
        let busy = NodePowerModel::single_app(
            &board,
            CpuMapping::new(4, 2),
            ClusterFreqs {
                big: MHz(1400),
                little: MHz(1400),
                gpu: MHz(420),
            },
            true,
            true,
            0.9,
        );
        let fixed = fixed_point(&board, &busy);
        let hottest = fixed.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            hottest > 55.0 && hottest < 95.0,
            "{spec:?}: the operating point must load the board below the trip, \
             fixed point peaks at {hottest} °C"
        );
        let err = stepped_error(board, &busy, dt, &fixed);
        assert!(
            err <= STEPPED_TOL_C,
            "{spec:?}: stepped {err:e} °C from the fixed point"
        );
    }
}
