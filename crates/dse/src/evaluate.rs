//! Design-point evaluation (§III-A.2): given an application and a design
//! point, produce execution time, average/peak temperature and energy.
//!
//! Two evaluators are provided:
//!
//! * [`predict`] — a fast analytic evaluation combining the timing model
//!   of eq. (3), the cluster power model and the thermal network's
//!   steady state. This is what makes sweeping thousands of design
//!   points tractable, exactly as the paper's offline phase needs.
//!   It assumes no reactive throttling (valid for the sub-trip operating
//!   points the offline phase cares about).
//! * [`simulate`] — a full engine run with the frequencies pinned
//!   (userspace governor) and the stock thermal zone armed. Slower,
//!   captures transients and throttling; used for the regression
//!   observation set and for validating `predict`.

use crate::design_point::{DesignPoint, DesignPointEval};
use teem_governors::Userspace;
use teem_soc::sensors::{BIG_CORE_OFFSETS_C, CORE_HOTSPOT_C_PER_W};
use teem_soc::{perf, Board, HotspotSplit, NodePowerModel, RunSpec, Simulation};
use teem_workload::{App, KernelCharacteristics};

/// Hottest big-core sensor offset (core-6 in board numbering).
fn max_big_offset() -> f64 {
    BIG_CORE_OFFSETS_C
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Analytic evaluation of a design point: eq. (3) timing + steady-state
/// thermals + piecewise energy.
///
/// The run has two phases: both devices busy until the faster one
/// finishes its share, then the slower device alone. Power and
/// steady-state temperatures are evaluated per phase with one
/// leakage/temperature fixed-point iteration.
pub fn predict(board: &Board, chars: &KernelCharacteristics, dp: &DesignPoint) -> DesignPointEval {
    let wg = dp.partition.cpu_fraction();
    let items = chars.items as f64;
    let cpu_share_et = if wg > 0.0 && !dp.mapping.is_empty() {
        wg * items / perf::cpu_rate(chars, dp.mapping, dp.freqs.big, dp.freqs.little).max(1e-9)
    } else if wg > 0.0 {
        // CPU work assigned but no CPU cores: never finishes.
        f64::INFINITY
    } else {
        0.0
    };
    let gpu_share_et = (1.0 - wg) * items / perf::gpu_rate(chars, dp.freqs.gpu).max(1e-9);
    let et = cpu_share_et.max(gpu_share_et);
    if !et.is_finite() {
        return DesignPointEval {
            et_s: f64::INFINITY,
            avg_temp_c: f64::INFINITY,
            peak_temp_c: f64::INFINITY,
            energy_j: f64::INFINITY,
        };
    }
    let overlap = cpu_share_et.min(gpu_share_et);
    let tail = et - overlap;
    let cpu_busy_tail = cpu_share_et > gpu_share_et;

    // Phase A: both busy; phase B: only the slower device.
    let (pa, ta) = phase(board, chars, dp, true, true);
    let (pb, tb) = if tail > 0.0 {
        phase(board, chars, dp, cpu_busy_tail, !cpu_busy_tail)
    } else {
        (pa.clone(), ta.clone())
    };

    let energy = sum(&pa) * overlap + sum(&pb) * tail;
    // The hottest sensor: the big node plus one active core's hotspot
    // and the hottest core's layout offset, or the GPU.
    let hot = |temps: &[f64], cpu_busy: bool| -> f64 {
        let node = temps[board.nodes.big];
        let core_w =
            HotspotSplit::fold(board, dp.mapping, dp.freqs, cpu_busy, chars.activity).eval(node)[0];
        (node + CORE_HOTSPOT_C_PER_W * core_w + max_big_offset()).max(temps[board.nodes.gpu])
    };
    let (hot_a, hot_b) = (hot(&ta, true), hot(&tb, cpu_busy_tail));
    let avg_temp = if et > 0.0 {
        (hot_a * overlap + hot_b * tail) / et
    } else {
        hot_a
    };
    DesignPointEval {
        et_s: et,
        avg_temp_c: avg_temp,
        peak_temp_c: hot_a.max(hot_b),
        energy_j: energy,
    }
}

/// Ceiling for the leakage/temperature fixed point. Operating points
/// whose self-consistent temperature exceeds this are thermally unstable
/// (leakage feedback outruns conduction — a real phenomenon for 4×A15 at
/// 2 GHz); on hardware the reactive trip catches them, and the offline
/// phase reports them capped here.
pub const RUNAWAY_CAP_C: f64 = 125.0;

/// Power vector and steady-state temperatures for one phase, solved as a
/// damped leakage/temperature fixed point (leakage depends on
/// temperature, temperature on power). The phase's operating point is
/// fixed, so one power model serves every iteration.
fn phase(
    board: &Board,
    chars: &KernelCharacteristics,
    dp: &DesignPoint,
    cpu_busy: bool,
    gpu_busy: bool,
) -> (Vec<f64>, Vec<f64>) {
    let ambient = board.thermal.ambient_c();
    let model = NodePowerModel::single_app(
        board,
        dp.mapping,
        dp.freqs,
        cpu_busy,
        gpu_busy,
        chars.activity,
    );
    let mut temps = vec![70.0; board.thermal.len()];
    let mut powers = vec![0.0; board.thermal.len()];
    for _ in 0..40 {
        model.eval_into(&temps, &mut powers);
        let next = board.thermal.steady_state(&powers);
        let mut delta = 0.0_f64;
        for (t, n) in temps.iter_mut().zip(next.iter()) {
            // 0.5 damping keeps thermally-unstable points from
            // oscillating/diverging; the cap marks them as runaway.
            let target = (0.5 * *t + 0.5 * n).clamp(ambient, RUNAWAY_CAP_C);
            delta = delta.max((target - *t).abs());
            *t = target;
        }
        if delta < 0.01 {
            break;
        }
    }
    (powers, temps)
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Full-engine evaluation: pins the design point's frequencies with a
/// userspace governor and runs the application to completion on a fresh
/// XU4 board (stock thermal zone armed).
pub fn simulate(app: App, dp: &DesignPoint) -> DesignPointEval {
    let spec = RunSpec {
        app,
        mapping: dp.mapping,
        partition: dp.partition,
        initial: dp.freqs,
    };
    let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
    let result = sim.run(&mut Userspace::new(dp.freqs));
    DesignPointEval {
        et_s: result.summary.execution_time_s,
        avg_temp_c: result.summary.avg_temp_c,
        peak_temp_c: result.summary.peak_temp_c,
        energy_j: result.summary.energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teem_soc::{ClusterFreqs, CpuMapping, MHz};
    use teem_workload::Partition;

    fn dp(big: u32, partition: Partition) -> DesignPoint {
        DesignPoint {
            mapping: CpuMapping::new(2, 3),
            freqs: ClusterFreqs {
                big: MHz(big),
                little: MHz(1400),
                gpu: MHz(600),
            },
            partition,
        }
    }

    #[test]
    fn predict_is_finite_and_sane() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let e = predict(&board, &chars, &dp(1400, Partition::even()));
        assert!(e.et_s > 5.0 && e.et_s < 300.0, "ET {}", e.et_s);
        assert!(e.energy_j > 20.0);
        assert!(e.peak_temp_c >= e.avg_temp_c);
        assert!((40.0..120.0).contains(&e.avg_temp_c));
    }

    #[test]
    fn predict_matches_simulation_for_cool_points() {
        // For sub-trip design points the analytic model should land near
        // the engine (within ~15% on ET/energy; temperature within a few
        // degrees of the run average).
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let point = dp(1200, Partition::even());
        let a = predict(&board, &chars, &point);
        let s = simulate(App::Covariance, &point);
        assert!(
            (a.et_s - s.et_s).abs() / s.et_s < 0.15,
            "ET {} vs {}",
            a.et_s,
            s.et_s
        );
        assert!(
            (a.energy_j - s.energy_j).abs() / s.energy_j < 0.20,
            "E {} vs {}",
            a.energy_j,
            s.energy_j
        );
        assert!(
            (a.peak_temp_c - s.peak_temp_c).abs() < 8.0,
            "peakT {} vs {}",
            a.peak_temp_c,
            s.peak_temp_c
        );
    }

    #[test]
    fn higher_frequency_predicts_faster_hotter() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let lo = predict(&board, &chars, &dp(800, Partition::even()));
        let hi = predict(&board, &chars, &dp(2000, Partition::even()));
        assert!(hi.et_s < lo.et_s);
        assert!(hi.peak_temp_c > lo.peak_temp_c);
    }

    #[test]
    fn gpu_only_ignores_cpu_mapping_speed() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let a = predict(
            &board,
            &chars,
            &DesignPoint {
                mapping: CpuMapping::new(2, 3),
                freqs: ClusterFreqs {
                    big: MHz(2000),
                    little: MHz(1400),
                    gpu: MHz(600),
                },
                partition: Partition::all_gpu(),
            },
        );
        let b = predict(
            &board,
            &chars,
            &DesignPoint {
                mapping: CpuMapping::new(2, 3),
                freqs: ClusterFreqs {
                    big: MHz(200),
                    little: MHz(1400),
                    gpu: MHz(600),
                },
                partition: Partition::all_gpu(),
            },
        );
        // GPU-only ET does not depend on the big frequency.
        assert!((a.et_s - b.et_s).abs() < 1e-9);
        // But energy does (idle big burns less at 200 MHz).
        assert!(b.energy_j < a.energy_j);
    }

    #[test]
    fn impossible_point_is_infinite() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let e = predict(
            &board,
            &chars,
            &DesignPoint {
                mapping: CpuMapping::new(0, 0),
                freqs: ClusterFreqs {
                    big: MHz(2000),
                    little: MHz(1400),
                    gpu: MHz(600),
                },
                partition: Partition::even(), // CPU work but no CPU cores
            },
        );
        assert!(e.et_s.is_infinite());
    }
}
