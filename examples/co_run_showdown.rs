//! The co-run showdown: the same arrival-heavy timelines executed under
//! every contention policy — serial FIFO (the paper's usage model),
//! device-exclusive co-scheduling, and fully shared clusters — all
//! managed by TEEM, plus an ondemand reference.
//!
//! The tables show what co-running buys and costs: overlap ratio,
//! per-app slowdown versus solo pace, and the queueing-versus-contention
//! delay split. One timeline is synthetic; the other is loaded from the
//! recorded arrival trace `examples/traces/phone_day.csv`
//! (`Scenario::from_csv`).
//!
//! ```sh
//! cargo run --release --example co_run_showdown
//! ```

use teem::core::runner::Approach;
use teem::prelude::*;
use teem::telemetry::scenario_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic rush hour (simultaneous arrivals force the scheduling
    // decision) and a recorded phone-day trace.
    let rush = Scenario::new("rush-hour")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(0.0, App::Syrk, 0.9)
        .arrive(5.0, App::Gesummv, 0.9)
        .arrive(8.0, App::Covariance, 0.85);
    let phone_day = Scenario::from_csv("examples/traces/phone_day.csv")?;
    let scenarios = [rush, phone_day];
    let approaches = [Approach::Teem, Approach::Ondemand];
    let policies = [
        ContentionPolicy::Serial,
        ContentionPolicy::ClusterExclusive,
        ContentionPolicy::shared(),
    ];

    let mut per_policy: Vec<(ContentionPolicy, Vec<ScenarioResult>)> = Vec::new();
    for policy in policies {
        println!("=== contention policy: {} ===", policy.name());
        let results = SweepSpec::over(scenarios.clone())
            .approaches(&approaches)
            .contentions(&[policy])
            .run_collect()?;
        let summaries: Vec<ScenarioSummary> = results.iter().map(|r| r.summary.clone()).collect();
        println!("{}", scenario_table(&summaries));
        per_policy.push((policy, results));
    }

    // Per-app delay anatomy under TEEM: where did each app's time go?
    println!("=== rush-hour/TEEM per-app delay split ===");
    println!(
        "{:<18} {:<12} {:>8} {:>9} {:>11} {:>7}",
        "policy", "app", "wait(s)", "co-run(s)", "contend(s)", "slow"
    );
    for (policy, results) in &per_policy {
        let teem_rush = results
            .iter()
            .find(|r| r.summary.scenario == "rush-hour" && r.summary.approach == "TEEM")
            .expect("TEEM rush-hour in matrix");
        for app in &teem_rush.summary.apps {
            println!(
                "{:<18} {:<12} {:>8.1} {:>9.1} {:>11.2} {:>6.2}x",
                policy.name(),
                app.summary.app,
                app.wait_s(),
                app.co_run_s,
                app.contention_delay_s,
                app.slowdown_vs_solo()
            );
        }
    }

    // The contention invariants, asserted over everything we just ran.
    for (policy, results) in &per_policy {
        for r in results {
            assert!(!r.timed_out, "{} timed out", r.summary.scenario);
            for app in &r.summary.apps {
                assert!(
                    app.slowdown_vs_solo() >= 1.0,
                    "{}/{}: slowdown below 1",
                    r.summary.scenario,
                    app.summary.app
                );
            }
            let attributed = r.summary.app_energy_j() + r.summary.idle_energy_j;
            assert!(
                (attributed - r.summary.energy_j).abs() / r.summary.energy_j < 1e-9,
                "{}: energy not conserved",
                r.summary.scenario
            );
            if *policy == ContentionPolicy::Serial {
                assert_eq!(r.summary.overlap_s, 0.0, "serial must not overlap");
            }
            // The proactive guarantee holds even with both devices hot.
            if r.summary.approach == "TEEM" {
                assert_eq!(
                    r.summary.zone_trips,
                    0,
                    "TEEM tripped under {} in {}",
                    policy.name(),
                    r.summary.scenario
                );
            }
        }
    }
    println!(
        "\nslowdown >= 1 everywhere, energy conserved, TEEM: 0 reactive trips under every policy."
    );
    Ok(())
}
