//! Thermal-network integration throughput — the engine's hottest loop —
//! plus the in-place power model and the combined physics step kernel
//! (power + integration), i.e. exactly what one `dt` of simulated time
//! costs. The `it/s` column is the steps/sec throughput figure.

use std::hint::black_box;
use teem_bench::microbench::Runner;
use teem_soc::{Board, BoardSpec, ClusterFreqs, CpuMapping, MHz, NodePowerModel, StepScratch};
use teem_workload::App;

fn main() {
    let mut r = Runner::from_args();
    let board = Board::odroid_xu4_ideal();
    let powers = vec![6.0, 0.6, 2.6, 2.2];

    let mut model = board.thermal.clone();
    r.bench("thermal_step_10ms", || {
        model.step(black_box(0.01), black_box(&powers))
    });

    let mut model = board.thermal.clone();
    r.bench("thermal_step_1s_substepped", || {
        model.step(black_box(1.0), black_box(&powers))
    });

    r.bench("thermal_steady_state_solve", || {
        board.thermal.steady_state(black_box(&powers))
    });

    // The power model alone: derived from the operating point and
    // evaluated per call vs the frozen model the step loops keep between
    // control decisions.
    let freqs = ClusterFreqs {
        big: MHz(1600),
        little: MHz(1400),
        gpu: MHz(600),
    };
    let mapping = CpuMapping::new(2, 3);
    let activity = App::Covariance.characteristics().activity;
    let temps = vec![83.0, 61.0, 74.0, 46.0];
    let mut scratch = StepScratch::for_board(&board);
    r.bench("node_power_model_build_eval", || {
        NodePowerModel::single_app(black_box(&board), mapping, freqs, true, true, activity)
            .eval_into(black_box(&temps), &mut scratch.power)
    });
    let frozen = NodePowerModel::single_app(&board, mapping, freqs, true, true, activity);
    r.bench("node_power_model_eval_into", || {
        frozen.eval_into(black_box(&temps), &mut scratch.power)
    });

    // One step from a frozen model, the scalar engines' steady state
    // between control decisions: power evaluated then stepped through
    // the vector (split), against the fused kernel the engines call,
    // which keeps the power block in registers. Both sides chain each
    // step's temperatures into the next step's leakage.
    for (label, spec) in [
        ("xu4", BoardSpec::OdroidXu4),
        ("n16", BoardSpec::ManyNode { nodes: 16 }),
    ] {
        let mut split = spec.build_ideal();
        let model = NodePowerModel::single_app(&split, mapping, freqs, true, true, activity);
        let mut scratch = StepScratch::for_board(&split);
        r.bench(&format!("physics_step_frozen_split_{label}"), || {
            model.eval_into(split.thermal.temps(), &mut scratch.power);
            split.thermal.step(black_box(0.01), &scratch.power)
        });
        let mut fused = spec.build_ideal();
        r.bench(&format!("physics_step_frozen_fused_{label}"), || {
            fused
                .thermal
                .step_frozen(black_box(0.01), &model, &mut scratch.power)
        });
    }

    // The full physics step kernel with the operating point re-derived
    // every dt (the engines' cost at a control decision): the busy
    // model rebuilt, then the engines' fused step from it. The it/s
    // column is simulation steps per second.
    let mut sim_board = Board::odroid_xu4_ideal();
    let mut scratch = StepScratch::for_board(&sim_board);
    r.bench("physics_step_kernel_busy", || {
        let model = NodePowerModel::single_app(&sim_board, mapping, freqs, true, true, activity);
        sim_board
            .thermal
            .step_frozen(black_box(0.01), &model, &mut scratch.power)
    });

    let mut idle_board = Board::odroid_xu4_ideal();
    let idle_freqs = ClusterFreqs::min_of(&idle_board);
    let mut scratch = StepScratch::for_board(&idle_board);
    r.bench("physics_step_kernel_idle", || {
        let model = NodePowerModel::idle(&idle_board, idle_freqs);
        idle_board
            .thermal
            .step_frozen(black_box(0.01), &model, &mut scratch.power)
    });

    r.finish();
}
