//! Scenario-engine benchmarks: timeline construction, one full
//! multi-app scenario execution under TEEM, a three-app co-run under
//! the shared contention policy (the N-app power-superposition path),
//! a scenario × approach matrix collected through the sweep engine, and
//! a thresholds × ambients grid sweep over the builtin suite — the
//! thousands-of-scenario parameter-grid shape the zero-allocation hot
//! path exists for — and the trace digest of a retiring lockstep
//! cohort, serial against four streams at a time.

use std::hint::black_box;
use teem_bench::microbench::Runner;
use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_scenario::{ContentionPolicy, Scenario, ScenarioRunner, SweepEvent, SweepSpec};
use teem_soc::Board;
use teem_telemetry::{SweepAggregator, Trace};
use teem_workload::App;

/// The engine's channel set: nine channels, as a scenario cell records.
const CHANNELS: [&str; 9] = [
    "freq.big",
    "freq.gpu",
    "freq.little",
    "power.total",
    "temp.big",
    "temp.gpu",
    "temp.little",
    "temp.max",
    "util.gpu",
];

/// A trace of `samples` samples on each of the nine channels, its
/// values distinct per `seed`.
fn digest_trace(seed: usize, samples: usize) -> Trace {
    let mut tr = Trace::with_channels(&CHANNELS);
    for (c, name) in CHANNELS.iter().enumerate() {
        for i in 0..samples {
            let t = 0.1 * i as f64;
            tr.record(name, t, 40.0 + (seed * 31 + c * 7 + i) as f64 * 0.013);
        }
    }
    tr
}

/// Bytes of the stream `Trace::digest` folds: per populated channel,
/// its name framed by its length, its sample count and 16 bytes per
/// sample.
fn digest_bytes(tr: &Trace) -> usize {
    tr.channel_names()
        .into_iter()
        .map(|name| (name, tr.channel(name).map_or(0, |s| s.len())))
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| 16 + name.len() + 16 * n)
        .sum()
}

/// Prints row `name`'s best time per digested byte, if the row ran.
fn print_ns_per_byte(r: &Runner, name: &str, bytes: usize) {
    if let Some(res) = r.results().last().filter(|res| res.name == name) {
        println!(
            "    {name}: {:.3} ns/byte over {bytes} bytes",
            res.best_ns / bytes as f64
        );
    }
}

fn main() {
    let mut r = Runner::from_args();

    r.bench("builtin_suite_construction", || {
        Scenario::builtin_suite().len()
    });

    let sc = Scenario::back_to_back("bench-b2b", &[App::Mvt, App::Gesummv, App::Syrk], 2.0, 0.9);
    let profiles = build_profile_store(&Board::odroid_xu4_ideal(), sc.apps()).expect("profiles");

    let p = profiles.clone();
    r.bench_heavy("scenario_3apps_teem", 2, move || {
        let mut runner =
            ScenarioRunner::with_shared_profiles(Approach::Teem, p.clone().into_shared());
        runner.run(black_box(&sc)).expect("runs")
    });

    // Co-running: three simultaneous arrivals under the shared policy —
    // keeps the N-app aggregation path (per-domain power superposition
    // in NodePowerModel::co_run, bandwidth-slowdown progress, frequency
    // arbitration) perf-exercised alongside the serial path above.
    let co = Scenario::new("bench-corun")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(0.0, App::Syrk, 0.9)
        .arrive(0.0, App::Gesummv, 0.9);
    let p = profiles.clone();
    r.bench_heavy("scenario_corun_shared_teem", 2, move || {
        let mut runner =
            ScenarioRunner::with_shared_profiles(Approach::Teem, p.clone().into_shared())
                .with_contention(ContentionPolicy::Shared { max_apps: 3 });
        runner.run(black_box(&co)).expect("runs")
    });

    let scenarios = vec![
        Scenario::back_to_back("m1", &[App::Mvt, App::Syrk], 2.0, 0.9),
        Scenario::periodic("m2", App::Gesummv, 40.0, 2, 0.9),
    ];
    let matrix = SweepSpec::over(scenarios).approaches(&Approach::all());
    r.bench_heavy("batch_matrix_2x4", 1, move || {
        black_box(&matrix).run_collect().expect("runs").len()
    });

    // The scenario-scale shape: a thresholds × ambients parameter grid
    // over the whole builtin suite (2 × 2 × 5 = 20 cells) — expressed
    // as sweep axes and executed by the streaming sweep engine,
    // aggregated online (nothing buffered). This is the workload the
    // per-step allocation removal targets; per-cell cost is this
    // time / 20.
    let spec = SweepSpec::over(Scenario::builtin_suite())
        .approaches(&[Approach::Teem])
        .thresholds_c(&[82.0, 85.0])
        .ambients_c(&[20.0, 30.0]);
    let cells = spec.cells();
    assert_eq!(cells, 20);
    r.bench_heavy("grid_sweep_20_scenarios_teem", 1, move || {
        let mut agg = SweepAggregator::new();
        let stats = black_box(&spec)
            .run_streaming(|ev| {
                if let SweepEvent::CellDone { result, .. } = ev {
                    agg.record(&result.summary);
                }
            })
            .expect("runs");
        assert_eq!(stats.completed, cells);
        agg.cells()
    });

    // A retiring lockstep cohort's trace digests: 16 traces digested
    // one at a time, against the same 16 stored four streams at a time
    // (`Trace::seal_digests`). Two shapes: a `sweep_grid` cell (9
    // channels × 21 samples, about 3.3 KB) and a long `trace_campaign`
    // cell (9 × 4 000, about 0.6 MB).
    for (shape, samples) in [("grid_9x21", 21), ("campaign_9x4000", 4_000)] {
        let mut traces: Vec<Trace> = (0..16).map(|i| digest_trace(i, samples)).collect();
        let bytes: usize = traces.iter().map(digest_bytes).sum();
        let serial = format!("digest_16_traces_{shape}_serial");
        r.bench(&serial, || {
            traces
                .iter()
                .map(Trace::digest)
                .fold(0u64, u64::wrapping_add)
        });
        print_ns_per_byte(&r, &serial, bytes);
        let sealed = format!("digest_16_traces_{shape}_four_at_a_time");
        let mut refs: Vec<&mut Trace> = traces.iter_mut().collect();
        r.bench(&sealed, || {
            Trace::seal_digests(black_box(&mut refs));
            refs[0].digest()
        });
        print_ns_per_byte(&r, &sealed, bytes);
    }

    r.finish();
}
