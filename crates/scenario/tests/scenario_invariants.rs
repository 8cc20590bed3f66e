//! Scenario-engine invariants across the whole built-in suite:
//!
//! 1. **Determinism** — the same scenario under the same approach
//!    produces an identical summary and an identical trace, run to run.
//! 2. **Conservation** — per-app energy plus idle energy equals total
//!    scenario energy; busy plus idle time equals the makespan; every
//!    arrival completes exactly once.
//! 3. **Zero-trip** — TEEM's proactive threshold keeps the reactive
//!    95 °C zone untripped in every built-in scenario, including the
//!    ambient staircase and the bursty queue pressure.

use teem_core::runner::Approach;
use teem_scenario::{Scenario, ScenarioRunner, SweepSpec};

#[test]
fn same_scenario_same_trace() {
    let sc = Scenario::bursty(
        "det",
        &[
            teem_workload::App::Covariance,
            teem_workload::App::Mvt,
            teem_workload::App::Syrk,
        ],
        2,
        60.0,
        0.9,
    );
    let run = || {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        runner.run(&sc).expect("profiles fit")
    };
    let a = run();
    let b = run();
    assert_eq!(a.summary, b.summary, "summaries diverged");
    // Bit-identical traces, channel for channel (CSV covers every
    // sample of every channel).
    assert_eq!(a.trace.to_csv(), b.trace.to_csv(), "traces diverged");
}

#[test]
fn multi_app_energy_and_time_conservation() {
    for sc in Scenario::builtin_suite() {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let r = runner.run(&sc).expect("profiles fit");
        assert!(!r.timed_out, "{} timed out", sc.name());

        // Every arrival completed exactly once.
        assert_eq!(
            r.summary.apps_completed(),
            sc.arrivals(),
            "{} lost apps",
            sc.name()
        );

        // Energy conservation: app-attributed + idle-attributed == total.
        let attributed = r.summary.app_energy_j() + r.summary.idle_energy_j;
        let rel = (attributed - r.summary.energy_j).abs() / r.summary.energy_j;
        assert!(
            rel < 1e-9,
            "{}: {} J attributed vs {} J total",
            sc.name(),
            attributed,
            r.summary.energy_j
        );

        // Time conservation: busy + idle == makespan (within one step).
        let span = r.summary.busy_s + r.summary.idle_s;
        assert!(
            (span - r.summary.makespan_s).abs() < 0.02,
            "{}: busy {} + idle {} vs makespan {}",
            sc.name(),
            r.summary.busy_s,
            r.summary.idle_s,
            r.summary.makespan_s
        );

        // Per-app timeline sanity: starts after arrival, completes after
        // start, execution time matches the timeline span.
        for app in &r.summary.apps {
            assert!(app.started_s >= app.arrived_s - 1e-9);
            assert!(app.completed_s > app.started_s);
            let et = app.completed_s - app.started_s;
            assert!((et - app.summary.execution_time_s).abs() < 1e-9);
            assert!(app.summary.energy_j > 0.0);
        }
    }
}

#[test]
fn teem_zero_trips_across_builtin_suite() {
    for sc in Scenario::builtin_suite() {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let r = runner.run(&sc).expect("profiles fit");
        assert_eq!(
            r.summary.zone_trips,
            0,
            "{}: TEEM hit the reactive trip (peak {:.1} C)",
            sc.name(),
            r.summary.peak_temp_c
        );
        assert!(
            r.summary.peak_temp_c < 95.0,
            "{}: peak {:.1} C at the trip",
            sc.name(),
            r.summary.peak_temp_c
        );
    }
}

#[test]
fn ondemand_trips_under_sustained_scenario_load() {
    // The Fig. 1(a) phenomenon survives the lift to scenarios: the
    // reactive stack trips on the thermally heavy back-to-back sequence
    // while TEEM (above) never does.
    let sc = &Scenario::builtin_suite()[0];
    let mut runner = ScenarioRunner::new(Approach::Ondemand);
    let r = runner.run(sc).expect("profiles fit");
    assert!(
        r.summary.zone_trips >= 1,
        "ondemand never tripped on {} (peak {:.1} C)",
        sc.name(),
        r.summary.peak_temp_c
    );
    assert!(r.summary.peak_temp_c >= 95.0);
}

#[test]
fn idle_gaps_cool_the_board() {
    // Periodic arrivals with generous gaps: the trace must show the die
    // cooling between runs — the idle-gap physics single-run mode
    // cannot express.
    // Tight deadline: eq. (9) gives the CPU a large share, so the big
    // cluster actually works (and heats) during each run.
    let sc = Scenario::periodic("cooling", teem_workload::App::Covariance, 80.0, 2, 0.62);
    let mut runner = ScenarioRunner::new(Approach::Teem);
    let r = runner.run(&sc).expect("profiles fit");
    assert_eq!(r.summary.apps_completed(), 2);
    assert!(
        r.summary.idle_s > 5.0,
        "no idle gap ({} s)",
        r.summary.idle_s
    );
    let temp = r.trace.stats("temp.max").expect("recorded");
    // The board both worked hard and cooled off in the gap.
    assert!(temp.max() > 75.0, "never got hot: {:.1} C", temp.max());
    assert!(
        temp.min() < temp.max() - 15.0,
        "never cooled in the gap: min {:.1} C vs max {:.1} C",
        temp.min(),
        temp.max()
    );
    // Idle power is a trickle relative to busy power (the gaps are long,
    // so compare average power, not total energy).
    let idle_w = r.summary.idle_energy_j / r.summary.idle_s;
    let busy_w = r.summary.app_energy_j() / r.summary.busy_s;
    assert!(
        idle_w < 0.35 * busy_w,
        "idle {idle_w:.1} W vs busy {busy_w:.1} W"
    );
}

#[test]
fn threshold_and_approach_changes_apply_to_later_arrivals() {
    use teem_scenario::ScenarioEvent;
    // First app under the runner's TEEM; both the threshold and the
    // approach change before the second arrival.
    let sc = Scenario::new("swap")
        .arrive(0.0, teem_workload::App::Covariance, 0.75)
        .at(1.0, ScenarioEvent::ThresholdChange { threshold_c: 70.0 })
        .at(
            1.0,
            ScenarioEvent::ApproachChange {
                approach: Approach::Ondemand,
            },
        )
        .arrive(2.0, teem_workload::App::Covariance, 0.75);
    let mut runner = ScenarioRunner::new(Approach::Teem);
    let r = runner.run(&sc).expect("profiles fit");
    assert_eq!(r.summary.apps_completed(), 2);
    assert_eq!(r.summary.apps[0].summary.approach, "TEEM");
    assert_eq!(r.summary.apps[1].summary.approach, "ondemand");

    // The threshold change is observable through TEEM's throttling: a
    // threshold inside the app's operating band (70 C against a ~66 C
    // ride at this deadline) forces stepping the second app's frequency
    // down, lowering its average big frequency versus the unchanged
    // timeline. (Factors tight enough to need 4 big cores are excluded:
    // there TEEM is floor-pinned and degrades to reactive bouncing, the
    // regime runner::fig5_mapping documents.)
    let two_cv = |threshold_event: bool| {
        let mut sc = Scenario::new("thr").arrive(0.0, teem_workload::App::Covariance, 0.75);
        if threshold_event {
            sc = sc.at(1.0, ScenarioEvent::ThresholdChange { threshold_c: 70.0 });
        }
        sc = sc.arrive(2.0, teem_workload::App::Covariance, 0.75);
        ScenarioRunner::new(Approach::Teem)
            .run(&sc)
            .expect("profiles fit")
    };
    let base = two_cv(false);
    let lowered = two_cv(true);
    assert_eq!(lowered.summary.apps[1].summary.approach, "TEEM");
    assert_eq!(lowered.summary.zone_trips, 0);
    let f_base = base.summary.apps[1].summary.avg_big_freq_mhz;
    let f_low = lowered.summary.apps[1].summary.avg_big_freq_mhz;
    assert!(
        f_low < f_base - 50.0,
        "70 C threshold did not throttle harder: {f_base:.0} MHz vs {f_low:.0} MHz"
    );
}

#[test]
fn pre_arrival_approach_change_governs_first_app() {
    use teem_scenario::ScenarioEvent;
    // The swap precedes the first arrival: the warm start and the launch
    // must both use the swapped approach.
    let sc = Scenario::new("pre-swap")
        .at(
            0.0,
            ScenarioEvent::ApproachChange {
                approach: Approach::Eemp,
            },
        )
        .arrive(0.0, teem_workload::App::Syrk, 0.85);
    let mut runner = ScenarioRunner::new(Approach::Teem);
    let r = runner.run(&sc).expect("profiles fit");
    assert_eq!(r.summary.apps_completed(), 1);
    assert_eq!(r.summary.apps[0].summary.approach, "EEMP");
}

#[test]
fn trailing_environment_events_do_not_dilate_makespan() {
    use teem_scenario::ScenarioEvent;
    let sc = Scenario::new("trailing")
        .arrive(0.0, teem_workload::App::Mvt, 0.9)
        .at(500.0, ScenarioEvent::AmbientChange { ambient_c: 30.0 });
    let mut runner = ScenarioRunner::new(Approach::Teem);
    let r = runner.run(&sc).expect("profiles fit");
    assert_eq!(r.summary.apps_completed(), 1);
    // The scenario ends at the app's completion, not at the orphaned
    // ambient event 500 s out.
    assert!(
        r.summary.makespan_s < 100.0,
        "makespan dilated to {:.1} s by a trailing event",
        r.summary.makespan_s
    );
}

#[test]
fn batch_matrix_covers_suite_deterministically() {
    // A reduced matrix through the parallel path: results arrive
    // scenario-major and repeat-identical.
    let scenarios = vec![
        Scenario::back_to_back(
            "b2b-small",
            &[teem_workload::App::Mvt, teem_workload::App::Gesummv],
            2.0,
            0.9,
        ),
        Scenario::periodic("per-small", teem_workload::App::Syrk, 50.0, 2, 0.85),
    ];
    let approaches = [Approach::Teem, Approach::Rmp];
    let spec = SweepSpec::over(scenarios).approaches(&approaches);
    let first = spec.run_collect().expect("profiles fit");
    let second = spec.run_collect().expect("profiles fit");
    assert_eq!(first.len(), 4);
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.summary, b.summary);
    }
    for (i, r) in first.iter().enumerate() {
        let expect_scenario = if i < 2 { "b2b-small" } else { "per-small" };
        assert_eq!(r.summary.scenario, expect_scenario);
    }
}
