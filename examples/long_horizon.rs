//! `long_horizon` — a week of recorded phone usage simulated in
//! seconds: the event-driven time advance end to end.
//!
//! The trace `examples/traces/phone_week.csv` is the motivating
//! workload shape for [`TimeAdvance::EventDriven`]: ~27 application
//! bursts spread over 604 800 simulated seconds, with the board idle
//! for well over 95% of the timeline. A fixed-dt executor spends almost
//! all of its wall time stepping a cooling board through nothing; the
//! event-driven executor advances each idle gap in closed form (one
//! spectral cooling solve per segment, an exact idle-energy integral)
//! and steps only the active phases.
//!
//! The example:
//!
//! 1. loads the week-long trace and runs it under TEEM with
//!    event-driven advance, printing the timeline accounting — gaps
//!    skipped, seconds fast-forwarded, steps actually integrated, and
//!    the simulated-seconds-per-wall-second rate;
//! 2. checks the engine really did skip the idle spans (the run would
//!    take minutes otherwise, not milliseconds);
//! 3. with `--compare`, also runs the same trace under fixed-dt
//!    advance and reports the wall-clock speedup and the physics
//!    deltas (energy, peak temperature) between the two clocks.
//!
//! ```sh
//! cargo run --release --example long_horizon
//! cargo run --release --example long_horizon -- --compare
//! ```

use std::time::Instant;

use teem_core::runner::Approach;
use teem_scenario::{Scenario, ScenarioResult, ScenarioRunner, SimConfig};
use teem_soc::TimeAdvance;

/// The trace spans 7 simulated days; leave headroom over the last
/// arrival plus its execution.
const WEEK_TIMEOUT_S: f64 = 700_000.0;

fn run_week(advance: TimeAdvance) -> Result<(ScenarioResult, f64), Box<dyn std::error::Error>> {
    let scenario = Scenario::from_csv("examples/traces/phone_week.csv")?;
    let t0 = Instant::now();
    let result = ScenarioRunner::new(Approach::Teem)
        .with_config(SimConfig {
            timeout_s: WEEK_TIMEOUT_S,
            time_advance: advance,
        })
        .run(&scenario)?;
    Ok((result, t0.elapsed().as_secs_f64()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compare = std::env::args().any(|a| a == "--compare");

    let (event, event_wall) = run_week(TimeAdvance::EventDriven)?;
    assert!(!event.timed_out, "the week must complete");
    let s = &event.summary;
    println!("=== phone_week.csv under TEEM, event-driven advance ===");
    println!(
        "timeline        {:>12.0} s  ({:.2} simulated days)",
        s.makespan_s,
        s.makespan_s / 86_400.0
    );
    println!("apps completed  {:>12}", s.apps.len());
    println!(
        "busy / idle     {:>12.0} s / {:.0} s  ({:.1}% idle)",
        s.busy_s,
        s.idle_s,
        100.0 * s.idle_s / s.makespan_s
    );
    println!(
        "energy          {:>12.1} J  (idle share {:.1} J)",
        s.energy_j, s.idle_energy_j
    );
    println!("peak temp       {:>12.2} C", s.peak_temp_c);
    println!(
        "gaps skipped    {:>12}  ({:.0} s fast-forwarded, {} cooling segments)",
        event.kernel.gaps_skipped, event.kernel.gap_fastforward_s, event.kernel.gap_segments
    );
    println!("steps integrated{:>12}", event.kernel.steps);
    println!(
        "wall clock      {:>12.3} s  ({:.2e} simulated s per wall s)",
        event_wall,
        s.makespan_s / event_wall.max(1e-9)
    );

    // The point of the mode: the idle week is crossed by events, not
    // steps. Over 95% of the timeline must have been fast-forwarded.
    assert!(
        event.kernel.gap_fastforward_s > 0.95 * s.makespan_s,
        "gaps cover the week: {} of {} s",
        event.kernel.gap_fastforward_s,
        s.makespan_s
    );
    assert!(event.kernel.gaps_skipped >= 20, "every burst opens a gap");

    if compare {
        println!();
        println!("--- fixed-dt reference (same trace, stepped clock) ---");
        let (fixed, fixed_wall) = run_week(TimeAdvance::FixedDt)?;
        let f = &fixed.summary;
        println!("steps integrated{:>12}", fixed.kernel.steps);
        println!("wall clock      {:>12.3} s", fixed_wall);
        println!(
            "speedup         {:>12.1}x  (steps ratio {:.0}x)",
            fixed_wall / event_wall.max(1e-9),
            fixed.kernel.steps as f64 / event.kernel.steps.max(1) as f64
        );
        println!(
            "energy delta    {:>12.3}%  ({:.1} J vs {:.1} J)",
            100.0 * (f.energy_j - s.energy_j).abs() / f.energy_j,
            f.energy_j,
            s.energy_j
        );
        println!(
            "peak temp delta {:>12.3} C  ({:.2} C vs {:.2} C)",
            (f.peak_temp_c - s.peak_temp_c).abs(),
            f.peak_temp_c,
            s.peak_temp_c
        );
        assert!(
            fixed_wall / event_wall.max(1e-9) >= 10.0,
            "event-driven advance must be >= 10x faster on the weekly trace"
        );
        assert!((f.energy_j - s.energy_j).abs() <= 0.02 * f.energy_j);
        assert!((f.peak_temp_c - s.peak_temp_c).abs() <= 1.0);
    }

    Ok(())
}
