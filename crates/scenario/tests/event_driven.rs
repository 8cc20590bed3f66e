//! Mode-parity contract for the event-driven time advance.
//!
//! The executor's two clocks must relate in a precise way:
//!
//! * on a **dense** timeline (the active set never drains while events
//!   remain) the event-driven mode never fast-forwards, so its trace
//!   must be **bit-identical** to fixed-dt — pinned here against the
//!   same golden digests `golden_digest.rs` pins the fixed-dt engine
//!   to;
//! * on a **gappy** timeline the gap phases are advanced in closed
//!   form, so temperatures and energy carry a documented tolerance
//!   (closed-form vs forward-Euler, stale readings across the gap)
//!   while the *timing* stays exact: both modes live on the same
//!   `t = step_idx · dt` grid, so arrival instants match to the bit.

use teem_core::runner::Approach;
use teem_scenario::{ConfigPatch, Scenario, ScenarioRunner, SimConfig, SweepSpec};
use teem_soc::TimeAdvance;
use teem_workload::App;

fn builtin(name: &str) -> Scenario {
    Scenario::builtin_suite()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("builtin scenario {name} missing"))
}

fn runner(approach: Approach, advance: TimeAdvance) -> ScenarioRunner {
    ScenarioRunner::new(approach).with_config(
        ConfigPatch {
            time_advance: Some(advance),
            ..ConfigPatch::default()
        }
        .onto_default(),
    )
}

/// Dense timelines take the active-phase stepper exclusively, and that
/// stepper is the fixed-dt loop verbatim: digests must not move a bit.
#[test]
fn dense_timeline_is_bit_identical_across_modes() {
    for (scenario, approach) in [
        ("back-to-back", Approach::Teem),
        ("periodic-syrk", Approach::Ondemand),
        ("mixed-deadline", Approach::Teem),
    ] {
        let fixed = runner(approach, TimeAdvance::FixedDt)
            .run(&builtin(scenario))
            .expect("fixed-dt runs");
        let event = runner(approach, TimeAdvance::EventDriven)
            .run(&builtin(scenario))
            .expect("event-driven runs");
        assert_eq!(
            fixed.trace.digest(),
            event.trace.digest(),
            "{scenario}/{approach:?}: event-driven diverged on a dense timeline \
             (event mode skipped {} gaps)",
            event.kernel.gaps_skipped
        );
        assert_eq!(fixed.summary, event.summary, "{scenario} summary");
    }
}

/// A gap-dominated timeline: four ~52 s MVT runs spread 500 s apart,
/// so the board idles for ~85% of the schedule.
fn sparse_mvt() -> Scenario {
    Scenario::new("sparse-mvt")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(500.0, App::Mvt, 0.9)
        .arrive(1_000.0, App::Mvt, 0.9)
        .arrive(1_500.0, App::Mvt, 0.9)
}

/// The gappy contract: event-driven advance must skip the idle spans
/// (orders fewer steps), land every arrival on the identical tick, and
/// keep the physics within the documented closed-form tolerance.
#[test]
fn gappy_timeline_parity_within_tolerance() {
    let scenario = sparse_mvt();
    let fixed = runner(Approach::Teem, TimeAdvance::FixedDt)
        .run(&scenario)
        .expect("fixed-dt runs");
    let event = runner(Approach::Teem, TimeAdvance::EventDriven)
        .run(&scenario)
        .expect("event-driven runs");

    // The gaps really were fast-forwarded, and only in event mode.
    assert_eq!(fixed.kernel.gaps_skipped, 0);
    assert!(
        event.kernel.gaps_skipped >= 3,
        "sparse arrivals should open >= 3 gaps, got {}",
        event.kernel.gaps_skipped
    );
    assert!(event.kernel.gap_fastforward_s > 1_000.0);
    assert_eq!(event.gap_len_ms.count(), event.kernel.gaps_skipped);
    assert!(
        event.kernel.steps * 4 < fixed.kernel.steps,
        "gap-dominated timeline should step far less: {} vs {}",
        event.kernel.steps,
        fixed.kernel.steps
    );

    // Timing is exact: same arrival instants, same app count.
    assert_eq!(fixed.summary.apps.len(), event.summary.apps.len());
    for (f, e) in fixed.summary.apps.iter().zip(&event.summary.apps) {
        assert_eq!(f.arrived_s, e.arrived_s, "arrival grid must match");
        assert_eq!(f.started_s, e.started_s, "launch tick must match");
    }

    // Physics within the closed-form tolerance.
    let de = (fixed.summary.energy_j - event.summary.energy_j).abs();
    assert!(
        de <= 0.02 * fixed.summary.energy_j,
        "energy diverged: fixed {} J vs event {} J",
        fixed.summary.energy_j,
        event.summary.energy_j
    );
    assert!(
        (fixed.summary.peak_temp_c - event.summary.peak_temp_c).abs() <= 1.0,
        "peak temp diverged: {} vs {}",
        fixed.summary.peak_temp_c,
        event.summary.peak_temp_c
    );
    let dm = (fixed.summary.makespan_s - event.summary.makespan_s).abs();
    assert!(
        dm <= 0.02 * fixed.summary.makespan_s,
        "makespan diverged: {} vs {}",
        fixed.summary.makespan_s,
        event.summary.makespan_s
    );
}

/// Gaps that end at an *environment* event (the staircase's mid-gap
/// ambient steps), not just at arrivals, are still fast-forwarded —
/// and the post-gap physics stays in tolerance.
#[test]
fn staircase_gaps_end_at_ambient_events() {
    let scenario = builtin("ambient-staircase");
    let fixed = runner(Approach::Ondemand, TimeAdvance::FixedDt)
        .run(&scenario)
        .expect("fixed-dt runs");
    let event = runner(Approach::Ondemand, TimeAdvance::EventDriven)
        .run(&scenario)
        .expect("event-driven runs");
    assert!(
        event.kernel.gaps_skipped >= 2,
        "staircase idles between steps, got {} gaps",
        event.kernel.gaps_skipped
    );
    let de = (fixed.summary.energy_j - event.summary.energy_j).abs();
    assert!(
        de <= 0.02 * fixed.summary.energy_j,
        "energy diverged: fixed {} J vs event {} J",
        fixed.summary.energy_j,
        event.summary.energy_j
    );
    assert!((fixed.summary.peak_temp_c - event.summary.peak_temp_c).abs() <= 1.0);
}

/// The drift pin (satellite of the clock refactor): with the clock
/// derived from the step index, every timestamp the executor emits is
/// exactly `i · dt` for integer `i` — even hours into a timeline. An
/// accumulated clock (`t += dt`) fails this after a few thousand
/// steps, because 0.01 is not a binary float.
#[test]
fn long_timeline_clock_stays_on_the_tick_grid() {
    let dt = teem_soc::DT_S;
    // A late second arrival forces a multi-thousand-tick gap; event
    // mode crosses it instantly but must land on the same grid.
    let scenario = Scenario::new("late-arrival")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(4_000.0, App::Mvt, 0.9);
    for advance in [TimeAdvance::FixedDt, TimeAdvance::EventDriven] {
        let r = runner(Approach::Teem, advance)
            .run(&scenario)
            .expect("runs");
        assert_eq!(r.summary.apps.len(), 2, "{advance:?}");
        for app in &r.summary.apps {
            for stamp in [app.started_s, app.completed_s] {
                let ticks = (stamp / dt).round();
                assert_eq!(
                    stamp,
                    ticks * dt,
                    "{advance:?}: {stamp} has drifted off the {dt} s grid"
                );
            }
        }
        let ticks = (r.summary.makespan_s / dt).round();
        assert_eq!(r.summary.makespan_s, ticks * dt, "{advance:?} makespan");
    }
}

/// An arrival past the tick clock's range (about 1.845e17 s) is a valid
/// trace line. Finding its tick once looped about 2⁶⁴ times in a
/// release build and overflowed in a debug one; the gap fast-forward
/// and the span bound both ask for it. Both clocks must run to the
/// timeout.
#[test]
fn far_future_arrival_runs_to_the_timeout_under_both_clocks() {
    let scenario =
        Scenario::from_csv_str("far-future", "0.0, MVT, 0.9\n1.9e17, CV, 0.9\n").expect("parses");
    for advance in [TimeAdvance::FixedDt, TimeAdvance::EventDriven] {
        let r = ScenarioRunner::new(Approach::Teem)
            .with_config(SimConfig {
                timeout_s: 90.0,
                time_advance: advance,
            })
            .run(&scenario)
            .expect("runs");
        assert!(r.timed_out, "{advance:?}");
        assert_eq!(r.summary.makespan_s, 90.0, "{advance:?}");
        assert_eq!(r.summary.apps_completed(), 1, "{advance:?}");
    }
}

#[test]
#[should_panic(expected = "timeout NaN s must be positive")]
fn sweep_rejects_a_timeout_the_clock_cannot_reach() {
    let _ = SweepSpec::over([sparse_mvt()]).patch_config(ConfigPatch {
        timeout_s: Some(f64::NAN),
        ..ConfigPatch::default()
    });
}
