//! Kernel-style reactive thermal protection.
//!
//! The stock Linux configuration on the XU4 trips when a sensor reaches
//! the thermal limit (95 °C in the paper's Fig. 1) and caps the A15
//! cluster at a low frequency — the paper observes 2000 → 900 MHz. The
//! kernel's `step_wise` thermal governor then *unwinds* the cooling state
//! gradually: once the temperature falls below the trip (minus a
//! hysteresis) the cap is raised one OPP per polling interval until fully
//! released — and slammed back down on the next trip. The resulting
//! slow-release/fast-trip cycle is what keeps the average frequency low
//! and the die hot in Fig. 1(a), and it is the *reactive* behaviour
//! TEEM's proactive threshold replaces.

use crate::freq::{MHz, OppTable};

#[derive(Debug, Clone, Copy, PartialEq)]
enum ZoneState {
    /// Not throttling.
    Idle,
    /// Hard-capped at `THROTTLE_TO`.
    Throttled,
    /// Unwinding the cap step-by-step.
    Releasing { cap: MHz, last_step_t: f64 },
}

/// The stock XU4 trip-point thermal zone with step-wise release, acting
/// on the big cluster: trip at 95 °C, cap to 900 MHz, falling threshold
/// 7.5 °C below the trip, and `step_wise` release of one 100 MHz cooling
/// state per 2.5 s passive-polling interval. The slow ladder back to
/// 2000 MHz is what makes reactive throttling so costly in Fig. 1(a):
/// every trip buys many seconds of reduced frequency, yet the next trip
/// comes as soon as the cap fully releases.
///
/// The zone owns its whole ladder: executors poll it
/// ([`ThermalZone::actuate`]), replay it across a skipped idle gap
/// ([`ThermalZone::catch_up`]) and ask it when the cap next moves on
/// its own ([`ThermalZone::next_release_s`],
/// [`ThermalZone::release_due`]), never its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalZone {
    state: ZoneState,
}

impl ThermalZone {
    /// Trip temperature, °C.
    const TRIP_C: f64 = 95.0;
    /// Release begins once below `TRIP_C - HYSTERESIS_C`.
    const HYSTERESIS_C: f64 = 7.5;
    /// Frequency cap applied on trip.
    const THROTTLE_TO: MHz = MHz(900);
    /// Cap fully removed at this frequency.
    const RELEASE_TO: MHz = MHz(2000);
    /// Cap raise per release step, MHz.
    const RELEASE_STEP_MHZ: u32 = 100;
    /// Polling interval between release steps, seconds.
    const RELEASE_PERIOD_S: f64 = 2.5;
    /// Polls that take a trip through the whole ladder: one to start
    /// the release, one per step, and one spare.
    const LADDER_POLLS: u32 =
        (Self::RELEASE_TO.0 - Self::THROTTLE_TO.0) / Self::RELEASE_STEP_MHZ + 2;

    /// The stock XU4 zone, idle.
    pub fn stock_xu4() -> Self {
        ThermalZone {
            state: ZoneState::Idle,
        }
    }

    /// Updates the zone from the hottest sensor at simulation time `t_s`
    /// and returns the current frequency cap (`None` when released).
    pub fn update(&mut self, t_s: f64, max_temp_c: f64) -> Option<MHz> {
        match self.state {
            ZoneState::Idle => {
                if self.trips_at(max_temp_c) {
                    self.state = ZoneState::Throttled;
                    Some(Self::THROTTLE_TO)
                } else {
                    None
                }
            }
            ZoneState::Throttled => {
                if max_temp_c < Self::TRIP_C - Self::HYSTERESIS_C {
                    self.state = ZoneState::Releasing {
                        cap: Self::THROTTLE_TO,
                        last_step_t: t_s,
                    };
                }
                Some(Self::THROTTLE_TO)
            }
            ZoneState::Releasing { cap, last_step_t } => {
                if self.trips_at(max_temp_c) {
                    // Re-trip: slam back down.
                    self.state = ZoneState::Throttled;
                    return Some(Self::THROTTLE_TO);
                }
                let mut cap = cap;
                let mut last = last_step_t;
                if self.release_due(t_s) {
                    cap = MHz(cap.0 + Self::RELEASE_STEP_MHZ);
                    last = t_s;
                }
                if cap >= Self::RELEASE_TO {
                    self.state = ZoneState::Idle;
                    None
                } else {
                    self.state = ZoneState::Releasing {
                        cap,
                        last_step_t: last,
                    };
                    Some(cap)
                }
            }
        }
    }

    /// Polls the zone at `t_s` with the hottest sensor at `max_temp_c`
    /// and caps `big` at the zone's limit, quantised `at_or_below` on
    /// `opps`. Returns `true` on a rising trip edge: the poll that moved
    /// the zone into the hard-throttled state. A held trip does not count
    /// again; a release followed by a re-trip does.
    #[inline]
    pub fn actuate(&mut self, t_s: f64, max_temp_c: f64, opps: &OppTable, big: &mut MHz) -> bool {
        let was_tripped = self.is_tripped();
        if let Some(cap) = self.update(t_s, max_temp_c) {
            if *big > cap {
                *big = opps.at_or_below(cap).freq;
            }
        }
        self.is_tripped() && !was_tripped
    }

    /// Replays the step-wise release across a skipped stretch
    /// `(from_s, to_s]` during which the hottest sensor reads `temp_c`:
    /// polls at `from_s + k·2.5 s` (k = 1, 2, …) up to `to_s`, and
    /// stops once the cap is gone. The ladder is finite, so this costs
    /// O(ladder), not O(stretch).
    pub fn catch_up(&mut self, from_s: f64, to_s: f64, temp_c: f64) {
        if !self.is_capping() {
            return;
        }
        let mut zt = from_s + Self::RELEASE_PERIOD_S;
        for _ in 0..Self::LADDER_POLLS {
            if zt > to_s || !self.is_capping() {
                break;
            }
            self.update(zt, temp_c);
            zt += Self::RELEASE_PERIOD_S;
        }
    }

    /// `true` when a reading of `max_temp_c` trips the zone.
    #[inline]
    pub fn trips_at(&self, max_temp_c: f64) -> bool {
        max_temp_c >= Self::TRIP_C
    }

    /// While the cap is releasing, about when it next rises on its own
    /// (one polling interval after the last step); `None` otherwise.
    /// The exact test is [`ThermalZone::release_due`].
    #[inline]
    pub fn next_release_s(&self) -> Option<f64> {
        match self.state {
            ZoneState::Releasing { last_step_t, .. } => Some(last_step_t + Self::RELEASE_PERIOD_S),
            _ => None,
        }
    }

    /// `true` when a poll at `t_s` with the reading below the trip
    /// raises the releasing cap — the predicate [`ThermalZone::update`]
    /// applies, so it is monotone in `t_s`. Always `false` unless the
    /// cap is releasing.
    #[inline]
    pub fn release_due(&self, t_s: f64) -> bool {
        match self.state {
            // Epsilon guards against float accumulation in t_s.
            ZoneState::Releasing { last_step_t, .. } => {
                t_s - last_step_t >= Self::RELEASE_PERIOD_S - 1e-9
            }
            _ => false,
        }
    }

    /// `true` while hard-throttled at the trip cap (not during release).
    pub fn is_tripped(&self) -> bool {
        self.state == ZoneState::Throttled
    }

    /// `true` whenever a cap is active (throttled or releasing).
    pub fn is_capping(&self) -> bool {
        self.state != ZoneState::Idle
    }
}

impl Default for ThermalZone {
    fn default() -> Self {
        ThermalZone::stock_xu4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_at_limit_then_releases_stepwise() {
        let mut z = ThermalZone::stock_xu4();
        assert_eq!(z.update(0.0, 90.0), None);
        // Trip.
        assert_eq!(z.update(0.1, 95.0), Some(MHz(900)));
        assert!(z.is_tripped());
        // Still hot (>= 87.5): hard cap persists.
        assert_eq!(z.update(0.2, 94.0), Some(MHz(900)));
        assert_eq!(z.update(0.25, 88.0), Some(MHz(900)));
        // Below 87.5: release begins, stepping 100 MHz per 2.5 s.
        assert_eq!(z.update(0.3, 87.0), Some(MHz(900)));
        assert!(!z.is_tripped());
        assert!(z.is_capping());
        assert_eq!(z.update(2.7, 92.0), Some(MHz(900))); // not yet 2.5 s since 0.3
        assert_eq!(z.update(2.8, 92.0), Some(MHz(1000))); // first step
        assert_eq!(z.update(5.3, 92.0), Some(MHz(1100)));
        // Re-trip slams back to 900.
        assert_eq!(z.update(5.4, 95.5), Some(MHz(900)));
        assert!(z.is_tripped());
    }

    #[test]
    fn full_release_disarms_the_cap() {
        let mut z = ThermalZone::stock_xu4();
        assert_eq!(z.update(0.0, 96.0), Some(MHz(900)));
        assert_eq!(z.update(0.1, 80.0), Some(MHz(900))); // release starts
        for k in 1..11 {
            let cap = z.update(0.1 + 2.5 * f64::from(k), 80.0);
            assert_eq!(cap, Some(MHz(900 + 100 * k)));
        }
        assert_eq!(z.update(0.1 + 2.5 * 11.0, 80.0), None); // 2000 reached -> idle
        assert!(!z.is_capping());
    }

    #[test]
    fn release_due_keeps_the_float_slack() {
        // Entered at tick 164 of the 0.01 s grid, the step falls due at
        // tick 414: 414·0.01 − 164·0.01 rounds below 2.5, and only the
        // slack admits it.
        let at = |tick: u32| f64::from(tick) * crate::DT_S;
        let mut z = ThermalZone::stock_xu4();
        z.update(at(164), 96.0);
        z.update(at(164), 80.0);
        assert!(at(414) - at(164) < 2.5);
        assert!(!z.release_due(at(413)));
        assert!(z.release_due(at(414)));
        assert_eq!(z.next_release_s(), Some(at(164) + 2.5));
        assert_eq!(z.update(at(414), 80.0), Some(MHz(1000)));
        // Idle or tripped, nothing is due.
        assert!(!ThermalZone::stock_xu4().release_due(1e9));
        z.update(at(415), 96.0);
        assert!(!z.release_due(1e9));
        assert_eq!(z.next_release_s(), None);
    }

    #[test]
    fn catch_up_polls_from_the_gap_start() {
        // Tripped as a gap starts at 10 s, then 80 °C across it: polls
        // at 12.5 s (release starts), 15, 17.5 and 20 s (three steps).
        let mut z = ThermalZone::stock_xu4();
        z.update(10.0, 96.0);
        z.catch_up(10.0, 20.0, 80.0);
        assert_eq!(z.next_release_s(), Some(22.5));
        assert_eq!(z.update(20.1, 80.0), Some(MHz(1200)));
        // Already releasing when the gap starts (last step at 1 s): the
        // polls still count from the gap start, 4.5, 7 and 9.5 s.
        let mut z = ThermalZone::stock_xu4();
        z.update(0.0, 96.0);
        z.update(1.0, 80.0);
        z.catch_up(2.0, 10.0, 80.0);
        assert_eq!(z.next_release_s(), Some(12.0));
        assert_eq!(z.update(10.0, 80.0), Some(MHz(1200)));
        // A long enough stretch walks the whole ladder and disarms.
        let mut z = ThermalZone::stock_xu4();
        z.update(0.0, 96.0);
        z.catch_up(0.0, 1e6, 80.0);
        assert!(!z.is_capping());
        // A stretch too hot to release keeps the hard cap.
        let mut z = ThermalZone::stock_xu4();
        z.update(0.0, 96.0);
        z.catch_up(0.0, 100.0, 90.0);
        assert!(z.is_tripped());
    }

    #[test]
    fn idle_stays_idle_below_trip() {
        let mut z = ThermalZone::stock_xu4();
        for i in 0..10 {
            assert_eq!(z.update(i as f64, 94.9), None);
        }
    }

    #[test]
    fn actuate_counts_one_trip_per_rising_edge() {
        let opps = crate::freq::a15_opp_table();
        let mut z = ThermalZone::stock_xu4();
        let mut big = MHz(2000);
        assert!(z.actuate(0.0, 95.0, &opps, &mut big), "the trip counts");
        assert_eq!(big, MHz(900));
        // Still at or above the falling threshold: the trip is held, and
        // a held trip is not a new one.
        let mut big = MHz(2000);
        assert!(!z.actuate(0.1, 96.0, &opps, &mut big));
        assert!(!z.actuate(0.2, 90.0, &opps, &mut big));
        assert_eq!(big, MHz(900));
        // Below 87.5 °C the cap starts to release; a re-trip counts again.
        assert!(!z.actuate(0.3, 80.0, &opps, &mut big));
        assert!(!z.is_tripped());
        assert!(z.actuate(0.4, 95.5, &opps, &mut big), "the re-trip counts");
        assert!(z.is_tripped());
    }

    #[test]
    fn actuate_quantises_the_cap_at_or_below_on_the_table() {
        // No 900 MHz point on this table: the cap lands on 750.
        let opps = crate::freq::linear_ramp(250, 2000, 250, 900, 1300);
        let mut z = ThermalZone::stock_xu4();
        let mut big = MHz(2000);
        z.actuate(0.0, 97.0, &opps, &mut big);
        assert_eq!(big, MHz(750));
        // A request already below the cap is left alone.
        let mut big = MHz(600);
        z.actuate(0.1, 97.0, &opps, &mut big);
        assert_eq!(big, MHz(600));
    }

    #[test]
    fn actuate_below_trip_leaves_big_untouched() {
        let opps = crate::freq::a15_opp_table();
        let mut z = ThermalZone::stock_xu4();
        for i in 0..10 {
            let mut big = MHz(2000);
            assert!(!z.actuate(f64::from(i), 94.9, &opps, &mut big));
            assert_eq!(big, MHz(2000));
        }
        assert!(!z.is_capping());
    }
}
