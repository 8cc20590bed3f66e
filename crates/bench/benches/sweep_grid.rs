//! Streaming sweep-engine benchmarks: the thousands-of-cell grid shape
//! the engine exists for, measured end to end and reported as **cells
//! per second** (the number that matters for design-space exploration
//! throughput).
//!
//! * `sweep_grid_500_cells_stream` — the acceptance-scale 3-axis grid:
//!   5 one-arrival scenarios × 10 thresholds × 10 ambients = 500 cells,
//!   streamed through the sweep pool and aggregated online
//!   (peak resident results O(workers)).
//! * `sweep_grid_500_cells_batched` — the same grid through the batched
//!   lockstep path ([`SweepSpec::batch`]): K cells per worker stepped
//!   through one SoA thermal batch, bit-identical results.
//! * `sweep_knob_grid_27_tunables` — the δ × floor × threshold TEEM
//!   knob grid of the ablation experiment, as a sweep axis.
//! * `thermal_step_scalar_10ms` / `thermal_step_batched_16lane_10ms` —
//!   the integration kernel alone, scalar vs SoA, so the per-lane cost
//!   of one thermal step is pinned next to the end-to-end figures.
//! * `thermal_step_{scalar,batched}_n{16,32,48,64}` — the same kernel
//!   pair on generated many-node boards ([`BoardSpec::ManyNode`]),
//!   pinning how the per-lane SoA advantage scales with network size.
//!
//! Besides the console table, the run writes **`BENCH_sweep.json`** to
//! the working directory: scalar and batched cells/s, their ratio, the
//! thermal-step nanoseconds, the per-sample shared-cost attribution
//! (scalar vs batched, from the `engine.sample_ns` / `engine.trace_ns`
//! step-loop laps), the node-count scaling rows, and
//! the lane-occupancy/utilization gauges from untimed instrumented
//! runs — the artifact CI checks for shape and the README's
//! performance table quotes.
//!
//! Staged sample recording is now the only path, so the scalar
//! per-sample figure (`per_sample_ns_scalar`) measures the staged
//! scalar path. The committed `BENCH_sweep.json` predates that: its
//! scalar figure was taken on the per-channel append path the staging
//! buffer replaced, which is what its `sample_cost_reduction` compares.

use std::cell::Cell;
use std::hint::black_box;
use teem_bench::experiments::ablation;
use teem_bench::microbench::Runner;
use teem_core::runner::Approach;
use teem_scenario::{Scenario, SweepEvent, SweepRunStats, SweepSpec};
use teem_soc::{BatchScratch, Board, BoardSpec, ThermalBatch};
use teem_telemetry::SweepAggregator;
use teem_workload::App;

/// Lockstep lane count for the batched benches: two full SIMD vectors.
const BATCH_K: usize = 16;

fn one_arrival_suite() -> Vec<Scenario> {
    vec![
        Scenario::new("g-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("g-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("g-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("g-covariance").arrive(0.0, App::Covariance, 0.9),
        Scenario::new("g-mvt-tight").arrive(0.0, App::Mvt, 0.7),
    ]
}

/// Streams `spec`, aggregating online; returns the run stats (whose
/// `cells_per_sec` is the canonical throughput figure).
fn stream(spec: &SweepSpec) -> SweepRunStats {
    let mut agg = SweepAggregator::new();
    let stats = spec
        .run_streaming(|ev| {
            if let SweepEvent::CellDone { result, .. } = ev {
                agg.record(&result.summary);
            }
        })
        .expect("sweep runs");
    assert_eq!(stats.failed, 0);
    assert_eq!(agg.cells(), stats.cells);
    stats
}

fn main() {
    let mut r = Runner::from_args();
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke")
        || std::env::var("TEEM_BENCH_SMOKE").is_ok_and(|v| v == "1");

    let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i)).collect();
    let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * f64::from(i)).collect();
    let grid = SweepSpec::over(one_arrival_suite())
        .approaches(&[Approach::Teem])
        .thresholds_c(&thresholds)
        .ambients_c(&ambients);
    assert_eq!(grid.cells(), 500);
    let batched_grid = grid.clone().batch(BATCH_K);

    // Cells-per-second throughput is taken from `SweepRunStats`
    // (`cells_per_sec` — the same figure every example and `repro`
    // report), best run per benchmark.
    let grid_rate = Cell::new(0.0_f64);
    r.bench_heavy("sweep_grid_500_cells_stream", 1, || {
        let stats = stream(black_box(&grid));
        grid_rate.set(grid_rate.get().max(stats.cells_per_sec()));
        stats.cells
    });

    let batched_rate = Cell::new(0.0_f64);
    r.bench_heavy("sweep_grid_500_cells_batched", 1, || {
        let stats = stream(black_box(&batched_grid));
        batched_rate.set(batched_rate.get().max(stats.cells_per_sec()));
        stats.cells
    });

    // The ablation experiment's canonical knob grid and case scenario.
    let knob_grid = SweepSpec::over([ablation::case_scenario()])
        .approaches(&[Approach::Teem])
        .tunables(&ablation::knob_grid());
    let knob_rate = Cell::new(0.0_f64);
    r.bench_heavy("sweep_knob_grid_27_tunables", 1, || {
        let stats = stream(black_box(&knob_grid));
        knob_rate.set(knob_rate.get().max(stats.cells_per_sec()));
        stats.cells
    });

    // The thermal kernel alone, scalar vs SoA — the physics inner loop
    // whose amortisation the batched grid figure rides on.
    let board = Board::odroid_xu4_ideal();
    let powers = [6.0, 0.6, 2.6, 2.2];
    let mut model = board.thermal.clone();
    r.bench("thermal_step_scalar_10ms", || {
        model.step(black_box(0.01), black_box(&powers))
    });
    let mut batch = ThermalBatch::like(&board.thermal, BATCH_K);
    for lane in 0..BATCH_K {
        batch.load_lane(lane, &board.thermal);
    }
    let mut scratch = BatchScratch::for_batch(&batch);
    for (node, p) in powers.iter().enumerate() {
        for lane in 0..BATCH_K {
            scratch.power[node * batch.stride() + lane] = *p;
        }
    }
    r.bench("thermal_step_batched_16lane_10ms", || {
        batch.step(black_box(0.01), black_box(&scratch.power))
    });

    // The same kernel pair on generated many-node networks: the
    // lane-blocked SoA step amortises the conductance matrix across
    // lanes, so its per-lane advantage should *grow* with node count.
    let node_counts = [16u32, 32, 48, 64];
    for &nodes in &node_counts {
        let nboard = BoardSpec::ManyNode { nodes }.build_ideal();
        let n = nodes as usize;
        let mut npowers = vec![0.2_f64; n];
        npowers[..4].copy_from_slice(&powers);
        let mut nmodel = nboard.thermal.clone();
        r.bench(&format!("thermal_step_scalar_n{nodes}"), || {
            nmodel.step(black_box(0.01), black_box(&npowers))
        });
        let mut nbatch = ThermalBatch::like(&nboard.thermal, BATCH_K);
        for lane in 0..BATCH_K {
            nbatch.load_lane(lane, &nboard.thermal);
        }
        let mut nscratch = BatchScratch::for_batch(&nbatch);
        for (node, p) in npowers.iter().enumerate() {
            for lane in 0..BATCH_K {
                nscratch.power[node * nbatch.stride() + lane] = *p;
            }
        }
        r.bench(&format!("thermal_step_batched_n{nodes}"), || {
            nbatch.step(black_box(0.01), black_box(&nscratch.power))
        });
    }

    // Lane occupancy and the per-sample shared-cost attribution, from
    // untimed instrumented runs — observability must not sit inside
    // the timed figures. The staged figure comes from the batched grid
    // (one SoA sensor sweep plus a sample-major row per lane); the
    // scalar figure re-runs the grid unbatched (a board round-trip
    // plus one sample-major row per sample).
    let count_samples = |ev: SweepEvent, samples: &Cell<u64>| {
        if let SweepEvent::CellDone { result, .. } = ev {
            let n = result.trace.channel("ambient").map_or(0, |c| c.len());
            samples.set(samples.get() + n as u64);
        }
    };
    let staged_samples = Cell::new(0_u64);
    let (_, report) = batched_grid
        .run_instrumented(|ev| count_samples(ev, &staged_samples))
        .expect("instrumented batched sweep runs");
    let snap = report.snapshot();
    let occupancy = snap.gauge("batch.lane_occupancy").unwrap_or(0.0);
    let utilization = snap.gauge("batch.lane_utilization").unwrap_or(0.0);
    let sample_trace_ns = |snap: &teem_telemetry::MetricsSnapshot| {
        snap.counter("engine.sample_ns").unwrap_or(0) + snap.counter("engine.trace_ns").unwrap_or(0)
    };
    let per_sample_staged = sample_trace_ns(&snap) as f64 / staged_samples.get().max(1) as f64;

    let scalar_samples = Cell::new(0_u64);
    let (_, scalar_report) = grid
        .run_instrumented(|ev| count_samples(ev, &scalar_samples))
        .expect("instrumented scalar sweep runs");
    let per_sample_scalar =
        sample_trace_ns(&scalar_report.snapshot()) as f64 / scalar_samples.get().max(1) as f64;

    println!("{}", report.kernel_split());
    for c in [
        "engine.steps",
        "engine.batched_steps",
        "batch.lanes_entered",
        "batch.rounds",
    ] {
        println!("{c:<44} {:>12}", snap.counter(c).unwrap_or(0));
    }

    let best_ns = |name: &str| {
        r.results()
            .iter()
            .find(|b| b.name == name)
            .map_or(0.0, |b| b.best_ns)
    };
    let scalar_step_ns = best_ns("thermal_step_scalar_10ms");
    let batched_lane_ns = best_ns("thermal_step_batched_16lane_10ms") / BATCH_K as f64;
    let speedup = if grid_rate.get() > 0.0 {
        batched_rate.get() / grid_rate.get()
    } else {
        0.0
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Node-count scaling rows: per-lane speedup of the lane-blocked
    // kernel over the scalar step, per topology. `many_node_speedup`
    // is the 32-node row — the acceptance figure.
    let node_rows: Vec<(u32, f64, f64, f64)> = node_counts
        .iter()
        .map(|&nodes| {
            let s = best_ns(&format!("thermal_step_scalar_n{nodes}"));
            let b = best_ns(&format!("thermal_step_batched_n{nodes}")) / BATCH_K as f64;
            (nodes, s, b, ratio(s, b))
        })
        .collect();
    let many_node_speedup = node_rows.iter().find(|r| r.0 == 32).map_or(0.0, |r| r.3);
    let sample_cost_reduction = ratio(per_sample_scalar, per_sample_staged);

    for (name, rate) in [
        ("sweep_grid_500_cells_stream", &grid_rate),
        ("sweep_grid_500_cells_batched", &batched_rate),
        ("sweep_knob_grid_27_tunables", &knob_rate),
    ] {
        if r.results().iter().any(|b| b.name == name) {
            println!("{name:<44} {:>10.1} cells/s", rate.get());
        }
    }
    if batched_rate.get() > 0.0 && grid_rate.get() > 0.0 {
        println!(
            "{:<44} {speedup:>10.2} x  (occupancy {occupancy:.3}, utilization {utilization:.3})",
            "batched_vs_scalar_speedup"
        );
    }
    println!(
        "{:<44} {per_sample_scalar:>10.1} ns -> {per_sample_staged:.1} ns  ({sample_cost_reduction:.2} x)",
        "per_sample_shared_cost"
    );
    for &(nodes, s, b, sp) in &node_rows {
        println!(
            "{:<44} {s:>10.1} ns scalar, {b:.1} ns/lane batched  ({sp:.2} x)",
            format!("thermal_step_n{nodes}")
        );
    }

    let node_rows_json = node_rows
        .iter()
        .map(|&(nodes, s, b, sp)| {
            format!(
                "    {{ \"nodes\": {nodes}, \"scalar_ns\": {s:.1}, \
                 \"batched_ns_per_lane\": {b:.1}, \"per_lane_speedup\": {sp:.2} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sweep_grid\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"batch_lanes\": {lanes},\n",
            "  \"scalar_cells_per_sec\": {scalar:.1},\n",
            "  \"batched_cells_per_sec\": {batched:.1},\n",
            "  \"speedup\": {speedup:.3},\n",
            "  \"thermal_step_scalar_ns\": {step_ns:.1},\n",
            "  \"thermal_step_batched_ns_per_lane\": {lane_ns:.1},\n",
            "  \"per_sample_ns_scalar\": {ps_scalar:.1},\n",
            "  \"per_sample_ns_staged\": {ps_staged:.1},\n",
            "  \"sample_cost_reduction\": {ps_ratio:.3},\n",
            "  \"many_node_speedup\": {mn_speedup:.3},\n",
            "  \"node_scaling\": [\n",
            "{node_rows}\n",
            "  ],\n",
            "  \"lane_occupancy\": {occ:.4},\n",
            "  \"lane_utilization\": {util:.4}\n",
            "}}\n"
        ),
        smoke = smoke,
        lanes = BATCH_K,
        scalar = grid_rate.get(),
        batched = batched_rate.get(),
        speedup = speedup,
        step_ns = scalar_step_ns,
        lane_ns = batched_lane_ns,
        ps_scalar = per_sample_scalar,
        ps_staged = per_sample_staged,
        ps_ratio = sample_cost_reduction,
        mn_speedup = many_node_speedup,
        node_rows = node_rows_json,
        occ = occupancy,
        util = utilization,
    );
    // Cargo runs bench binaries with the package as working directory;
    // anchor the artifact at the workspace root where CI looks for it.
    // A filtered run skips rows and would write zeros for them, so only
    // an unfiltered run writes the artifact.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    if r.is_filtered() {
        println!("name filter active: not writing {}", out.display());
    } else {
        std::fs::write(&out, &json).expect("write BENCH_sweep.json");
        println!("wrote {}", out.display());
    }

    r.finish();
}
