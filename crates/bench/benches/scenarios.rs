//! Scenario-engine benchmarks: timeline construction, one full
//! multi-app scenario execution under TEEM, a three-app co-run under
//! the shared contention policy (the N-app power-superposition path),
//! a scenario × approach matrix collected through the sweep engine, and
//! a thresholds × ambients grid sweep over the builtin suite — the
//! thousands-of-scenario parameter-grid shape the zero-allocation hot
//! path exists for.

use std::hint::black_box;
use teem_bench::microbench::Runner;
use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_scenario::{ContentionPolicy, Scenario, ScenarioRunner, SweepEvent, SweepSpec};
use teem_soc::Board;
use teem_telemetry::SweepAggregator;
use teem_workload::App;

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

    r.finish();
}
