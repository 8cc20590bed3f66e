//! Co-running contention invariants across the arbiter's policies:
//!
//! 1. **Slowdown ≥ 1** — shared-bandwidth contention can only cost
//!    time; every co-running app's measured slowdown-vs-solo is at
//!    least 1, and exactly 1 under the serial policy.
//! 2. **Conservation under overlap** — per-app energy plus idle energy
//!    equals total scenario energy and busy + idle time equals the
//!    makespan even when N apps draw power concurrently.
//! 3. **Proactive guarantee survives co-scheduling** — TEEM keeps the
//!    reactive 95 °C zone at zero trips under device-exclusive
//!    co-running, where two domains heat the die simultaneously.
//! 4. **Policy semantics** — serial never overlaps, shared relieves
//!    queueing at a contention cost, memory-bound pairs contend harder
//!    than compute-bound pairs, and co-run execution stays
//!    deterministic.

use teem_core::runner::Approach;
use teem_scenario::{ContentionPolicy, Scenario, ScenarioRunner};
use teem_workload::App;

/// Two simultaneous arrivals plus a straggler — enough pressure that
/// every non-serial policy actually co-runs.
fn rush() -> Scenario {
    Scenario::new("rush")
        .arrive(0.0, App::Mvt, 0.9)
        .arrive(0.0, App::Syrk, 0.9)
        .arrive(5.0, App::Gesummv, 0.9)
}

fn run_under(
    policy: ContentionPolicy,
    approach: Approach,
    sc: &Scenario,
) -> teem_scenario::ScenarioResult {
    ScenarioRunner::new(approach)
        .with_contention(policy)
        .run(sc)
        .expect("profiles fit")
}

#[test]
fn slowdown_is_at_least_one_and_energy_conserved_under_overlap() {
    for policy in [
        ContentionPolicy::Serial,
        ContentionPolicy::ClusterExclusive,
        ContentionPolicy::shared(),
    ] {
        let r = run_under(policy, Approach::Teem, &rush());
        assert!(!r.timed_out, "{} timed out", policy.name());
        assert_eq!(r.summary.apps_completed(), 3, "{} lost apps", policy.name());

        // Slowdown ≥ 1 for everyone: contention can only cost time.
        for app in &r.summary.apps {
            let s = app.slowdown_vs_solo();
            assert!(
                s >= 1.0,
                "{}/{}: slowdown {s} < 1",
                policy.name(),
                app.summary.app
            );
            assert!(
                app.contention_delay_s <= app.co_run_s + 1e-9,
                "{}/{}: lost more time ({} s) than it co-ran ({} s)",
                policy.name(),
                app.summary.app,
                app.contention_delay_s,
                app.co_run_s
            );
        }

        // Energy conservation with N concurrent power draws: the
        // per-app attribution plus the idle gaps must still sum to the
        // integrated total.
        let attributed = r.summary.app_energy_j() + r.summary.idle_energy_j;
        let rel = (attributed - r.summary.energy_j).abs() / r.summary.energy_j;
        assert!(
            rel < 1e-9,
            "{}: {attributed} J attributed vs {} J total",
            policy.name(),
            r.summary.energy_j
        );

        // Time conservation: overlap is a subset of busy, and
        // busy + idle spans the makespan.
        assert!(r.summary.overlap_s <= r.summary.busy_s + 1e-9);
        let span = r.summary.busy_s + r.summary.idle_s;
        assert!(
            (span - r.summary.makespan_s).abs() < 0.02,
            "{}: busy {} + idle {} vs makespan {}",
            policy.name(),
            r.summary.busy_s,
            r.summary.idle_s,
            r.summary.makespan_s
        );
    }
}

#[test]
fn serial_policy_never_overlaps() {
    let r = run_under(ContentionPolicy::Serial, Approach::Teem, &rush());
    assert_eq!(r.summary.overlap_s, 0.0);
    assert_eq!(r.summary.overlap_ratio(), 0.0);
    assert_eq!(r.summary.mean_slowdown(), 1.0);
    for app in &r.summary.apps {
        assert_eq!(app.co_run_s, 0.0, "{}", app.summary.app);
        assert_eq!(app.contention_delay_s, 0.0, "{}", app.summary.app);
    }
    // FIFO: the straggler queued behind both simultaneous arrivals.
    assert!(r.summary.mean_wait_s() > 0.0);
}

#[test]
fn co_running_policies_actually_overlap() {
    for policy in [
        ContentionPolicy::ClusterExclusive,
        ContentionPolicy::shared(),
    ] {
        let r = run_under(policy, Approach::Teem, &rush());
        assert!(r.summary.overlap_s > 0.0, "{} never co-ran", policy.name());
        assert!(r.summary.overlap_ratio() > 0.0);
        // Someone paid a bandwidth toll for the overlap.
        assert!(
            r.summary.mean_slowdown() > 1.0,
            "{}: overlap without contention",
            policy.name()
        );
    }
}

#[test]
fn teem_zero_trips_under_cluster_exclusive_co_running() {
    // Device-exclusive co-running is the thermally adversarial case:
    // the CPU complex and the GPU heat the die simultaneously. TEEM's
    // proactive threshold must still keep the reactive zone silent.
    for sc in [
        rush(),
        Scenario::new("hot-pair")
            .arrive(0.0, App::Covariance, 0.85)
            .arrive(0.0, App::Syrk, 0.85),
    ] {
        let r = run_under(ContentionPolicy::ClusterExclusive, Approach::Teem, &sc);
        assert!(!r.timed_out, "{} timed out", sc.name());
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
fn shared_policy_trades_queueing_for_contention() {
    let serial = run_under(ContentionPolicy::Serial, Approach::Teem, &rush());
    let shared = run_under(ContentionPolicy::shared(), Approach::Teem, &rush());
    // Co-running relieves the queue...
    assert!(
        shared.summary.mean_wait_s() < serial.summary.mean_wait_s(),
        "shared waited {} s vs serial {} s",
        shared.summary.mean_wait_s(),
        serial.summary.mean_wait_s()
    );
    // ...and the relief is paid for in bandwidth contention, which the
    // delay split reports separately from queueing.
    let contention: f64 = shared
        .summary
        .apps
        .iter()
        .map(|a| a.contention_delay_s)
        .sum();
    assert!(contention > 0.0, "no contention delay recorded");
    assert_eq!(
        serial
            .summary
            .apps
            .iter()
            .map(|a| a.contention_delay_s)
            .sum::<f64>(),
        0.0
    );
}

#[test]
fn memory_bound_pairs_contend_harder_than_compute_pairs() {
    let pair = |name: &str, a: App, b: App| {
        let sc = Scenario::new(name)
            .arrive(0.0, a, 0.95)
            .arrive(0.0, b, 0.95);
        run_under(ContentionPolicy::shared(), Approach::Teem, &sc)
    };
    let memory = pair("mem-pair", App::Mvt, App::Bicg);
    let compute = pair("cpu-pair", App::Covariance, App::Syrk);
    assert!(
        memory.summary.mean_slowdown() > compute.summary.mean_slowdown(),
        "memory-bound pair slowed {:.3}x vs compute pair {:.3}x",
        memory.summary.mean_slowdown(),
        compute.summary.mean_slowdown()
    );
    assert!(
        memory.summary.mean_slowdown() > 1.2,
        "MVT+BICG barely contended"
    );
    assert!(
        compute.summary.mean_slowdown() < 1.1,
        "CV+SYRK contended too much"
    );
}

#[test]
fn co_run_execution_is_deterministic() {
    for policy in [
        ContentionPolicy::ClusterExclusive,
        ContentionPolicy::shared(),
    ] {
        let a = run_under(policy, Approach::Teem, &rush());
        let b = run_under(policy, Approach::Teem, &rush());
        assert_eq!(a.summary, b.summary, "{} summaries diverged", policy.name());
        assert_eq!(
            a.trace.digest(),
            b.trace.digest(),
            "{} traces diverged",
            policy.name()
        );
    }
}

#[test]
fn policies_produce_distinct_physics() {
    // The policies are not cosmetic: each reshapes the executed
    // timeline, so the traces differ pairwise.
    let digests: Vec<u64> = [
        ContentionPolicy::Serial,
        ContentionPolicy::ClusterExclusive,
        ContentionPolicy::shared(),
    ]
    .into_iter()
    .map(|p| run_under(p, Approach::Teem, &rush()).trace.digest())
    .collect();
    assert_ne!(digests[0], digests[1], "serial == cluster-exclusive");
    assert_ne!(digests[0], digests[2], "serial == shared");
    assert_ne!(digests[1], digests[2], "cluster-exclusive == shared");
}
