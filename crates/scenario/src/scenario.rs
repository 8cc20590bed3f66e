//! The [`Scenario`] type — a named, validated event timeline — and the
//! deterministic generators that build the workload shapes a phone
//! actually sees: back-to-back sequences, periodic arrivals, bursts that
//! queue up, ambient staircases and mixed-deadline mixes.
//!
//! Generators are pure functions of their arguments (no clocks, no
//! RNG), so a scenario is fully reproducible from its constructor call —
//! the property the determinism tests pin down.

use crate::event::{AppRequest, ScenarioEvent, TimedEvent};
use teem_workload::App;

/// The paper's evaluation threshold, °C — the default for every arrival
/// unless a scenario event or per-app override says otherwise.
pub const DEFAULT_THRESHOLD_C: f64 = 85.0;

/// The default-threshold change a threshold sweep puts at `t = 0`.
fn initial_threshold_event(threshold_c: f64) -> TimedEvent {
    TimedEvent {
        at_s: 0.0,
        event: ScenarioEvent::ThresholdChange { threshold_c },
    }
}

/// A named timeline of [`ScenarioEvent`]s with an initial ambient
/// temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    initial_ambient_c: f64,
    events: Vec<TimedEvent>,
}

impl Scenario {
    /// An empty scenario at the default 25 °C ambient.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            initial_ambient_c: 25.0,
            events: Vec::new(),
        }
    }

    /// Sets the ambient temperature the scenario starts at.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_c` is outside −40 to 120 °C.
    pub fn with_initial_ambient(mut self, ambient_c: f64) -> Self {
        assert!(
            ambient_c.is_finite() && (-40.0..=120.0).contains(&ambient_c),
            "ambient {ambient_c} out of plausible range"
        );
        self.initial_ambient_c = ambient_c;
        self
    }

    /// Replaces the scenario's name — used by parameter sweeps to tag
    /// grid variants of a base scenario (`"bursty@thr82/amb30"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Prepends a default-threshold change at `t = 0`, before every
    /// other event, so all arrivals — including ones at `t = 0` — plan
    /// against `threshold_c` unless they carry a per-app override. This
    /// is the threshold axis of a grid sweep.
    ///
    /// An existing leading `t = 0` threshold change is replaced, so
    /// repeated calls follow builder semantics: the last one wins.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_c` is not a finite plausible silicon
    /// threshold (40 to 120 °C).
    pub fn with_initial_threshold(mut self, threshold_c: f64) -> Self {
        assert!(
            threshold_c.is_finite() && (40.0..=120.0).contains(&threshold_c),
            "threshold {threshold_c} out of plausible range"
        );
        if self.leads_with_threshold_change() {
            self.events[0].event = ScenarioEvent::ThresholdChange { threshold_c };
        } else {
            self.events.insert(0, initial_threshold_event(threshold_c));
        }
        self
    }

    /// `true` when the first event declared is a threshold change at
    /// `t = 0`, which [`Scenario::with_initial_threshold`] replaces.
    fn leads_with_threshold_change(&self) -> bool {
        self.events.first().is_some_and(|e| {
            e.at_s == 0.0 && matches!(e.event, ScenarioEvent::ThresholdChange { .. })
        })
    }

    /// Adds an event at `at_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `at_s` is negative or not finite.
    pub fn at(mut self, at_s: f64, event: ScenarioEvent) -> Self {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "event time {at_s} must be non-negative"
        );
        self.events.push(TimedEvent { at_s, event });
        self
    }

    /// Adds an app arrival at `at_s` with deadline factor `treq_factor`.
    pub fn arrive(self, at_s: f64, app: App, treq_factor: f64) -> Self {
        self.at(
            at_s,
            ScenarioEvent::Arrival(AppRequest::new(app, treq_factor)),
        )
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ambient temperature at scenario start, °C.
    pub fn initial_ambient_c(&self) -> f64 {
        self.initial_ambient_c
    }

    /// Events sorted by time (stable: same-time events keep insertion
    /// order, so simultaneous arrivals queue in the order they were
    /// declared).
    pub fn sorted_events(&self) -> Vec<TimedEvent> {
        let mut evs = Vec::with_capacity(self.events.len());
        self.sorted_events_into(None, &mut evs);
        evs
    }

    /// [`Scenario::sorted_events`] into `out`, reusing its allocation,
    /// with `initial_threshold_c` applied as
    /// [`Scenario::with_initial_threshold`] applies it: the same events
    /// in the same order as `with_initial_threshold` followed by
    /// `sorted_events`, without cloning the scenario.
    pub(crate) fn sorted_events_into(
        &self,
        initial_threshold_c: Option<f64>,
        out: &mut Vec<TimedEvent>,
    ) {
        out.clear();
        match initial_threshold_c {
            Some(threshold_c) if self.leads_with_threshold_change() => {
                out.extend_from_slice(&self.events);
                out[0].event = ScenarioEvent::ThresholdChange { threshold_c };
            }
            Some(threshold_c) => {
                out.push(initial_threshold_event(threshold_c));
                out.extend_from_slice(&self.events);
            }
            None => out.extend_from_slice(&self.events),
        }
        out.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite times"));
    }

    /// Number of events on the timeline.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct applications this scenario launches, in first-seen
    /// order — what a runner must profile before executing it.
    pub fn apps(&self) -> Vec<App> {
        let mut apps = Vec::new();
        for ev in &self.events {
            if let ScenarioEvent::Arrival(req) = ev.event {
                if !apps.contains(&req.app) {
                    apps.push(req.app);
                }
            }
        }
        apps
    }

    /// Number of arrivals on the timeline.
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, ScenarioEvent::Arrival(_)))
            .count()
    }

    // ------------------------------------------------------------------
    // Deterministic generators
    // ------------------------------------------------------------------

    /// Back-to-back sequence: every app arrives within the first few
    /// seconds (spaced `gap_s` apart) and the queue serialises them —
    /// the multi-app usage of the `multi_app` example, now expressible
    /// as data.
    ///
    /// # Panics
    ///
    /// Panics if `gap_s` is negative.
    pub fn back_to_back(
        name: impl Into<String>,
        apps: &[App],
        gap_s: f64,
        treq_factor: f64,
    ) -> Self {
        assert!(gap_s >= 0.0, "gap must be non-negative");
        let mut s = Scenario::new(name);
        for (i, &app) in apps.iter().enumerate() {
            s = s.arrive(i as f64 * gap_s, app, treq_factor);
        }
        s
    }

    /// Periodic arrivals of one app every `period_s` seconds — a
    /// recurring foreground task. With a period shorter than the app's
    /// execution time the queue grows and the board never cools; longer
    /// periods give idle gaps.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive.
    pub fn periodic(
        name: impl Into<String>,
        app: App,
        period_s: f64,
        count: usize,
        treq_factor: f64,
    ) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        let mut s = Scenario::new(name);
        for i in 0..count {
            s = s.arrive(i as f64 * period_s, app, treq_factor);
        }
        s
    }

    /// Bursty arrivals: `apps` split into bursts of `burst_size`, every
    /// app in a burst arriving within one second, bursts separated by
    /// `burst_gap_s` of silence — the "notification storm then quiet"
    /// pattern that maximises queueing pressure.
    ///
    /// # Panics
    ///
    /// Panics if `burst_size` is zero or `burst_gap_s` is negative.
    pub fn bursty(
        name: impl Into<String>,
        apps: &[App],
        burst_size: usize,
        burst_gap_s: f64,
        treq_factor: f64,
    ) -> Self {
        assert!(burst_size > 0, "burst size must be positive");
        assert!(burst_gap_s >= 0.0, "burst gap must be non-negative");
        let mut s = Scenario::new(name);
        for (i, &app) in apps.iter().enumerate() {
            let burst = (i / burst_size) as f64;
            let within = (i % burst_size) as f64;
            s = s.arrive(burst * burst_gap_s + within * 0.5, app, treq_factor);
        }
        s
    }

    /// Ambient staircase: periodic arrivals of `app` while the ambient
    /// temperature steps from `start_c` by `step_c` before each arrival
    /// after the first — the device warming up in the sun while its
    /// workload repeats.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive or the final ambient leaves
    /// the plausible range.
    pub fn staircase_ambient(
        name: impl Into<String>,
        app: App,
        count: usize,
        period_s: f64,
        start_c: f64,
        step_c: f64,
        treq_factor: f64,
    ) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        let final_c = start_c + step_c * count.saturating_sub(1) as f64;
        assert!(
            (-40.0..=120.0).contains(&final_c),
            "staircase ends at implausible ambient {final_c}"
        );
        let mut s = Scenario::new(name).with_initial_ambient(start_c);
        for i in 0..count {
            let t = i as f64 * period_s;
            if i > 0 {
                s = s.at(
                    t,
                    ScenarioEvent::AmbientChange {
                        ambient_c: start_c + step_c * i as f64,
                    },
                );
            }
            s = s.arrive(t, app, treq_factor);
        }
        s
    }

    /// Mixed deadlines: the apps arrive spaced `gap_s` apart,
    /// alternating between a tight and a loose deadline factor — tight
    /// deadlines force CPU+GPU partitioning (thermal management
    /// differentiates approaches), loose ones legitimately go GPU-only.
    ///
    /// # Panics
    ///
    /// Panics if `gap_s` is negative.
    pub fn mixed_deadline(
        name: impl Into<String>,
        apps: &[App],
        gap_s: f64,
        tight_factor: f64,
        loose_factor: f64,
    ) -> Self {
        assert!(gap_s >= 0.0, "gap must be non-negative");
        let mut s = Scenario::new(name);
        for (i, &app) in apps.iter().enumerate() {
            let factor = if i % 2 == 0 {
                tight_factor
            } else {
                loose_factor
            };
            s = s.arrive(i as f64 * gap_s, app, factor);
        }
        s
    }

    /// The built-in scenario suite: one scenario per generator, sized so
    /// a full TEEM-vs-baselines comparison stays in the minutes range —
    /// the workloads behind the `scenario_showdown` example and the
    /// scenario invariants tests.
    pub fn builtin_suite() -> Vec<Scenario> {
        vec![
            Scenario::back_to_back(
                "back-to-back",
                &[App::Conv2d, App::Covariance, App::Gemm, App::Mvt],
                2.0,
                0.90,
            ),
            Scenario::periodic("periodic-syrk", App::Syrk, 45.0, 3, 0.85),
            Scenario::bursty(
                "bursty",
                &[App::Covariance, App::Mvt, App::Syrk, App::Gesummv],
                2,
                120.0,
                0.90,
            ),
            Scenario::staircase_ambient(
                "ambient-staircase",
                App::Covariance,
                3,
                60.0,
                25.0,
                4.0,
                0.90,
            ),
            Scenario::mixed_deadline(
                "mixed-deadline",
                &[App::Syr2k, App::Conv2d, App::Correlation, App::Gemm],
                3.0,
                0.62,
                0.95,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_events_into_applies_a_threshold_as_the_builder_does() {
        let shapes = [
            Scenario::new("empty"),
            Scenario::new("one").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("late")
                .arrive(3.0, App::Mvt, 0.9)
                .at(0.0, ScenarioEvent::ThresholdChange { threshold_c: 70.0 }),
            Scenario::new("leading")
                .at(0.0, ScenarioEvent::ThresholdChange { threshold_c: 70.0 })
                .arrive(0.0, App::Syrk, 0.9),
            Scenario::new("signed-zero")
                .at(-0.0, ScenarioEvent::ThresholdChange { threshold_c: 70.0 })
                .arrive(1.0, App::Gemm, 0.9),
            Scenario::new("unsorted")
                .arrive(5.0, App::Mvt, 0.9)
                .arrive(0.0, App::Gesummv, 0.9)
                .at(2.0, ScenarioEvent::AmbientChange { ambient_c: 30.0 }),
        ];
        // A reused buffer: stale events from the last shape must go.
        let mut out = vec![TimedEvent {
            at_s: 9.0,
            event: ScenarioEvent::AmbientChange { ambient_c: 40.0 },
        }];
        let bits = |evs: &[TimedEvent]| -> Vec<(u64, String)> {
            evs.iter()
                .map(|e| (e.at_s.to_bits(), format!("{:?}", e.event)))
                .collect()
        };
        for s in &shapes {
            for threshold in [None, Some(82.5)] {
                s.sorted_events_into(threshold, &mut out);
                let built = match threshold {
                    Some(t) => s.clone().with_initial_threshold(t),
                    None => s.clone(),
                };
                assert_eq!(bits(&out), bits(&built.sorted_events()), "{}", s.name());
            }
        }
    }

    #[test]
    fn sorted_events_are_stable_at_equal_times() {
        let s = Scenario::new("x")
            .arrive(5.0, App::Covariance, 0.9)
            .arrive(0.0, App::Gemm, 0.9)
            .arrive(5.0, App::Mvt, 0.9);
        let evs = s.sorted_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at_s, 0.0);
        // Same-time events keep insertion order: CV before MV.
        let apps: Vec<App> = evs
            .iter()
            .filter_map(|e| match e.event {
                ScenarioEvent::Arrival(r) => Some(r.app),
                _ => None,
            })
            .collect();
        assert_eq!(apps, vec![App::Gemm, App::Covariance, App::Mvt]);
    }

    #[test]
    fn generators_are_deterministic() {
        let apps = [App::Covariance, App::Mvt, App::Syrk];
        let a = Scenario::bursty("b", &apps, 2, 60.0, 0.9);
        let b = Scenario::bursty("b", &apps, 2, 60.0, 0.9);
        assert_eq!(a, b);
        assert_eq!(a.arrivals(), 3);
    }

    #[test]
    fn staircase_embeds_ambient_changes() {
        let s = Scenario::staircase_ambient("st", App::Covariance, 3, 60.0, 25.0, 4.0, 0.9);
        assert_eq!(s.initial_ambient_c(), 25.0);
        let ambients: Vec<f64> = s
            .sorted_events()
            .iter()
            .filter_map(|e| match e.event {
                ScenarioEvent::AmbientChange { ambient_c } => Some(ambient_c),
                _ => None,
            })
            .collect();
        assert_eq!(ambients, vec![29.0, 33.0]);
        assert_eq!(s.arrivals(), 3);
    }

    #[test]
    fn mixed_deadline_alternates_factors() {
        let s = Scenario::mixed_deadline("m", &[App::Syrk, App::Gemm], 3.0, 0.6, 0.95);
        let factors: Vec<f64> = s
            .sorted_events()
            .iter()
            .filter_map(|e| match e.event {
                ScenarioEvent::Arrival(r) => Some(r.treq_factor),
                _ => None,
            })
            .collect();
        assert_eq!(factors, vec![0.6, 0.95]);
    }

    #[test]
    fn builtin_suite_has_five_distinctly_named_scenarios() {
        let suite = Scenario::builtin_suite();
        assert!(suite.len() >= 5);
        let mut names: Vec<&str> = suite.iter().map(Scenario::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "duplicate scenario names");
        for s in &suite {
            assert!(s.arrivals() >= 3, "{} too small", s.name());
        }
    }

    #[test]
    fn initial_threshold_precedes_simultaneous_arrivals() {
        let s = Scenario::new("g")
            .arrive(0.0, App::Covariance, 0.9)
            .with_initial_threshold(82.0);
        let evs = s.sorted_events();
        // The threshold event sorts (stably) ahead of the t = 0 arrival
        // even though it was attached afterwards.
        assert!(matches!(
            evs[0].event,
            ScenarioEvent::ThresholdChange { threshold_c } if threshold_c == 82.0
        ));
        assert!(matches!(evs[1].event, ScenarioEvent::Arrival(_)));
    }

    #[test]
    #[should_panic(expected = "plausible")]
    fn initial_threshold_rejects_absurd_values() {
        let _ = Scenario::new("g").with_initial_threshold(500.0);
    }

    #[test]
    fn repeated_initial_threshold_last_call_wins() {
        let s = Scenario::new("g")
            .arrive(0.0, App::Covariance, 0.9)
            .with_initial_threshold(82.0)
            .with_initial_threshold(90.0);
        let thresholds: Vec<f64> = s
            .sorted_events()
            .iter()
            .filter_map(|e| match e.event {
                ScenarioEvent::ThresholdChange { threshold_c } => Some(threshold_c),
                _ => None,
            })
            .collect();
        assert_eq!(thresholds, vec![90.0], "override replaces, not stacks");
    }

    #[test]
    fn with_name_renames_for_grid_variants() {
        let s = Scenario::periodic("base", App::Syrk, 45.0, 3, 0.85).with_name("base@thr82");
        assert_eq!(s.name(), "base@thr82");
        assert_eq!(s.arrivals(), 3);
    }

    #[test]
    fn apps_lists_distinct_apps_in_first_seen_order() {
        let s = Scenario::new("x")
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(1.0, App::Covariance, 0.9)
            .arrive(2.0, App::Mvt, 0.9);
        assert_eq!(s.apps(), vec![App::Mvt, App::Covariance]);
    }
}
