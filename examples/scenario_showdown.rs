//! The scenario showdown: every built-in multi-app scenario (back-to-back
//! sequence, periodic arrivals, bursty queueing, ambient staircase,
//! mixed deadlines) executed under all four management approaches as one
//! parallel sweep, aggregated into one comparison table.
//!
//! This is the Fig. 5 comparison lifted from single runs to whole
//! timelines: TEEM must stay trip-free in every scenario while the
//! reactive stack oscillates.
//!
//! ```sh
//! cargo run --release --example scenario_showdown
//! ```

use teem::core::runner::Approach;
use teem::prelude::*;
use teem::telemetry::scenario_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenarios = Scenario::builtin_suite();
    let approaches = Approach::all();
    println!(
        "Running {} scenarios x {} approaches on {} worker threads...\n",
        scenarios.len(),
        approaches.len(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );

    let results = SweepSpec::over(scenarios)
        .approaches(&approaches)
        .run_collect()?;
    let summaries: Vec<ScenarioSummary> = results.iter().map(|r| r.summary.clone()).collect();
    println!("{}", scenario_table(&summaries));

    // Per-scenario headline: TEEM versus the ondemand baseline.
    for chunk in results.chunks(approaches.len()) {
        let teem = chunk
            .iter()
            .find(|r| r.summary.approach == "TEEM")
            .expect("TEEM in matrix");
        let ondemand = chunk
            .iter()
            .find(|r| r.summary.approach == "ondemand")
            .expect("ondemand in matrix");
        let e_save =
            (ondemand.summary.energy_j - teem.summary.energy_j) / ondemand.summary.energy_j * 100.0;
        println!(
            "{:<22} TEEM vs ondemand: {:+.1}% energy, {:+.1} C peak, {} vs {} trips",
            teem.summary.scenario,
            -e_save,
            teem.summary.peak_temp_c - ondemand.summary.peak_temp_c,
            teem.summary.zone_trips,
            ondemand.summary.zone_trips,
        );
    }

    // The proactive guarantee, scenario-wide.
    for r in &results {
        assert!(!r.timed_out, "{} timed out", r.summary.scenario);
        if r.summary.approach == "TEEM" {
            assert_eq!(
                r.summary.zone_trips, 0,
                "TEEM tripped the reactive zone in {}",
                r.summary.scenario
            );
        }
    }
    println!("\nTEEM: 0 reactive trips in every scenario.");
    Ok(())
}
