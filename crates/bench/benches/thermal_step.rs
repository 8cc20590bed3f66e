//! Thermal-network integration throughput — the engine's hottest loop —
//! plus the in-place power model and the combined physics step kernel
//! (power + integration), i.e. exactly what one `dt` of simulated time
//! costs. The `it/s` column is the steps/sec throughput figure. The
//! `*_two_chains_*` and `*_fold32_*` rows price two latency-bound
//! chains in flight against the fused step's one. The
//! `*_gap_*` rows time one idle gap both ways: the event-driven
//! closed-form fast-forward and fixed-dt stepping.

use std::hint::black_box;
use teem_bench::microbench::Runner;
use teem_soc::{
    fast_forward_gap, Board, BoardSpec, ClusterFreqs, CpuMapping, MHz, NodePowerModel, StepScratch,
    DT_S,
};
use teem_telemetry::Fnv;
use teem_workload::App;

/// The idle gap the `*_gap_*` rows cross, seconds.
const GAP_S: f64 = 60.0;

/// Where every node starts the gap, °C.
const GAP_START_C: f64 = 80.0;

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

    // Two latency-bound chains in flight, as the unbatched sweep worker
    // runs them: two boards stepped in turn (two cells' spans), and one
    // step beside a 32-byte FNV-1a fold (a finished cell's digest,
    // two samples per turn). Each chain carries across iterations.
    // Against the fused row, the first shows whether two chains fill a
    // step's latency, the second whether a fold hides behind a step.
    // The line after them gives the first per step.
    let model = NodePowerModel::single_app(&board, mapping, freqs, true, true, activity);
    let mut boards = [board.clone(), board.clone()];
    let mut scratches = [
        StepScratch::for_board(&board),
        StepScratch::for_board(&board),
    ];
    let two_chains = "physics_step_frozen_two_chains_xu4";
    r.bench(two_chains, || {
        let [a, b] = &mut boards;
        let [sa, sb] = &mut scratches;
        a.thermal
            .step_frozen(black_box(0.01), &model, &mut sa.power)
            + b.thermal
                .step_frozen(black_box(0.01), &model, &mut sb.power)
    });
    let mut folded = board.clone();
    let mut fnv = Fnv::new();
    let digest_bytes = [0x5a_u8; 32];
    r.bench("physics_step_frozen_fold32_xu4", || {
        fnv.bytes(black_box(&digest_bytes));
        let substeps = folded
            .thermal
            .step_frozen(black_box(0.01), &model, &mut scratch.power);
        (substeps, fnv.finish())
    });
    if let Some(pair) = r.results().iter().find(|b| b.name == two_chains) {
        println!("{two_chains}: {:.1} ns per step", pair.best_ns / 2.0);
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

    // One 60 s idle gap from 80 °C at the minimum OPPs, crossed by
    // `fast_forward_gap` (re-linearised `cool_to` segments) and by
    // fixed-dt stepping of the idle model; each iteration restarts
    // from 80 °C. The line after the pair gives the cost per segment.
    for (label, spec) in [
        ("xu4", BoardSpec::OdroidXu4),
        ("n16", BoardSpec::ManyNode { nodes: 16 }),
    ] {
        let mut board = spec.build_ideal();
        let idle = ClusterFreqs::min_of(&board);
        let ambient = board.thermal.ambient_c();
        let n = board.thermal.len();
        let mut scratch = StepScratch::for_board(&board);
        let mut energy = vec![0.0; n];
        let mut segments = 0;
        let gap_name = format!("fast_forward_gap_{label}");
        r.bench(&gap_name, || {
            for i in 0..n {
                board.thermal.set_temp(i, GAP_START_C);
            }
            let gap = fast_forward_gap(
                &mut board,
                idle,
                black_box(GAP_S),
                ambient,
                &mut scratch,
                &mut energy,
            );
            segments = gap.segments;
            gap.energy_j
        });
        let model = NodePowerModel::idle(&board, idle);
        let steps = (GAP_S / DT_S).round() as u32;
        let stepped_name = format!("fixed_dt_gap_{label}");
        r.bench(&stepped_name, || {
            for i in 0..n {
                board.thermal.set_temp(i, GAP_START_C);
            }
            for _ in 0..steps {
                board
                    .thermal
                    .step_frozen(black_box(DT_S), &model, &mut scratch.power);
            }
        });
        let best = |name: &str| {
            r.results()
                .iter()
                .find(|b| b.name == name)
                .map(|b| b.best_ns)
        };
        if let (Some(gap_ns), Some(stepped_ns)) = (best(&gap_name), best(&stepped_name)) {
            println!(
                "{gap_name}: {segments} segments, {:.1} ns per segment; \
                 {:.3} ms per gap against {:.3} ms stepped ({steps} steps)",
                gap_ns / f64::from(segments.max(1)),
                gap_ns / 1e6,
                stepped_ns / 1e6,
            );
        }
    }

    r.finish();
}
