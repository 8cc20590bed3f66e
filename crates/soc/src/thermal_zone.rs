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
    /// Hard-capped at `throttle_to`.
    Throttled,
    /// Unwinding the cap step-by-step.
    Releasing { cap: MHz, last_step_t: f64 },
}

/// A trip-point thermal zone with step-wise release, acting on the big
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalZone {
    /// Trip temperature, °C.
    pub trip_c: f64,
    /// Release begins once below `trip_c - hysteresis_c`.
    pub hysteresis_c: f64,
    /// Frequency cap applied on trip.
    pub throttle_to: MHz,
    /// Cap fully removed at this frequency.
    pub release_to: MHz,
    /// Cap raise per release step, MHz.
    pub release_step_mhz: u32,
    /// Polling interval between release steps, seconds.
    pub release_period_s: f64,
    state: ZoneState,
}

impl ThermalZone {
    /// The stock XU4 configuration: trip 95 °C, cap to 900 MHz, falling
    /// threshold 7.5 °C below the trip, and `step_wise` release of one
    /// 100 MHz cooling state per 2.5 s passive-polling interval. The slow
    /// ladder back to 2000 MHz is what makes reactive throttling so
    /// costly in Fig. 1(a): every trip buys many seconds of reduced
    /// frequency, yet the next trip comes as soon as the cap fully
    /// releases. Faster/instant-release variants are available through
    /// [`ThermalZone::new`] for ablation studies.
    pub fn stock_xu4() -> Self {
        ThermalZone::new(95.0, 7.5, MHz(900), MHz(2000), 100, 2.5)
    }

    /// Creates a zone.
    ///
    /// # Panics
    ///
    /// Panics if `hysteresis_c` is negative, `release_step_mhz` is zero,
    /// or `release_period_s` is not positive.
    pub fn new(
        trip_c: f64,
        hysteresis_c: f64,
        throttle_to: MHz,
        release_to: MHz,
        release_step_mhz: u32,
        release_period_s: f64,
    ) -> Self {
        assert!(hysteresis_c >= 0.0, "hysteresis must be non-negative");
        assert!(release_step_mhz > 0, "release step must be positive");
        assert!(release_period_s > 0.0, "release period must be positive");
        ThermalZone {
            trip_c,
            hysteresis_c,
            throttle_to,
            release_to,
            release_step_mhz,
            release_period_s,
            state: ZoneState::Idle,
        }
    }

    /// Updates the zone from the hottest sensor at simulation time `t_s`
    /// and returns the current frequency cap (`None` when released).
    pub fn update(&mut self, t_s: f64, max_temp_c: f64) -> Option<MHz> {
        match self.state {
            ZoneState::Idle => {
                if max_temp_c >= self.trip_c {
                    self.state = ZoneState::Throttled;
                    Some(self.throttle_to)
                } else {
                    None
                }
            }
            ZoneState::Throttled => {
                if max_temp_c < self.trip_c - self.hysteresis_c {
                    self.state = ZoneState::Releasing {
                        cap: self.throttle_to,
                        last_step_t: t_s,
                    };
                }
                Some(self.throttle_to)
            }
            ZoneState::Releasing { cap, last_step_t } => {
                if max_temp_c >= self.trip_c {
                    // Re-trip: slam back down.
                    self.state = ZoneState::Throttled;
                    return Some(self.throttle_to);
                }
                let mut cap = cap;
                let mut last = last_step_t;
                // Epsilon guards against float accumulation in t_s.
                if t_s - last >= self.release_period_s - 1e-9 {
                    cap = MHz(cap.0 + self.release_step_mhz);
                    last = t_s;
                }
                if cap >= self.release_to {
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
        // Explicit parameters (1 s release polling) so the test reads in
        // round numbers; stock_xu4 uses the same machinery.
        let mut z = ThermalZone::new(95.0, 7.5, MHz(900), MHz(2000), 100, 1.0);
        assert_eq!(z.update(0.0, 90.0), None);
        // Trip.
        assert_eq!(z.update(0.1, 95.0), Some(MHz(900)));
        assert!(z.is_tripped());
        // Still hot (>= 87.5): hard cap persists.
        assert_eq!(z.update(0.2, 94.0), Some(MHz(900)));
        assert_eq!(z.update(0.25, 88.0), Some(MHz(900)));
        // Below 87.5: release begins, stepping 100 MHz per 1 s.
        assert_eq!(z.update(0.3, 87.0), Some(MHz(900)));
        assert!(!z.is_tripped());
        assert!(z.is_capping());
        assert_eq!(z.update(0.9, 92.0), Some(MHz(900))); // not yet 1s since 0.3
        assert_eq!(z.update(1.3, 92.0), Some(MHz(1000))); // first step
        assert_eq!(z.update(2.3, 92.0), Some(MHz(1100)));
        // Re-trip slams back to 900.
        assert_eq!(z.update(2.4, 95.5), Some(MHz(900)));
        assert!(z.is_tripped());
    }

    #[test]
    fn full_release_disarms_the_cap() {
        let mut z = ThermalZone::new(95.0, 3.0, MHz(1800), MHz(2000), 100, 0.1);
        assert_eq!(z.update(0.0, 96.0), Some(MHz(1800)));
        assert_eq!(z.update(0.1, 80.0), Some(MHz(1800))); // release starts
        assert_eq!(z.update(0.3, 80.0), Some(MHz(1900)));
        assert_eq!(z.update(0.5, 80.0), None); // 2000 reached -> idle
        assert!(!z.is_capping());
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
        let mut z = ThermalZone::new(95.0, 7.5, MHz(900), MHz(2000), 100, 1.0);
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
        let opps = crate::freq::a15_opp_table();
        // 950 MHz is not an A15 OPP: the cap lands on 900.
        let mut z = ThermalZone::new(95.0, 7.5, MHz(950), MHz(2000), 100, 1.0);
        let mut big = MHz(2000);
        z.actuate(0.0, 97.0, &opps, &mut big);
        assert_eq!(big, MHz(900));
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

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_hysteresis() {
        ThermalZone::new(95.0, -1.0, MHz(900), MHz(2000), 100, 0.4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_step() {
        ThermalZone::new(95.0, 1.0, MHz(900), MHz(2000), 0, 0.4);
    }
}
