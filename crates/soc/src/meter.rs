//! Wall-power metering.
//!
//! The paper measures board power with an Odroid Smart Power 2 — a supply
//! that samples voltage/current/power at 1 Hz and accumulates energy; the
//! reported joules are `W x ET` (§III-A.2). [`SmartPowerMeter`] mirrors
//! that instrument: continuous energy integration plus 1 Hz power
//! samples, so harnesses can reproduce both the energy numbers and the
//! power traces.

use teem_telemetry::TimeSeries;

/// The instrument's power sampling period, seconds (1 Hz).
const METER_PERIOD_S: f64 = 1.0;

/// A Smart-Power-2-like wall meter.
#[derive(Debug, Clone)]
pub struct SmartPowerMeter {
    energy_j: f64,
    last_sample_t: f64,
    samples: TimeSeries,
    supply_volts: f64,
}

impl SmartPowerMeter {
    /// A meter sampling at the instrument's 1 Hz, 5 V supply.
    pub fn new() -> Self {
        SmartPowerMeter {
            energy_j: 0.0,
            last_sample_t: f64::NEG_INFINITY,
            samples: TimeSeries::new(),
            supply_volts: 5.0,
        }
    }

    /// Integrates `power_w` over `[t, t + dt)` and records a 1 Hz sample
    /// when due.
    pub fn observe(&mut self, t: f64, dt: f64, power_w: f64) {
        self.energy_j += power_w * dt;
        if t - self.last_sample_t >= METER_PERIOD_S {
            self.samples.push(t, power_w);
            self.last_sample_t = t;
        }
    }

    /// Accumulated energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Accumulated energy in kWh (what the instrument's display shows).
    pub fn energy_kwh(&self) -> f64 {
        self.energy_j / 3.6e6
    }

    /// The 1 Hz power samples.
    pub fn power_samples(&self) -> &TimeSeries {
        &self.samples
    }

    /// Instantaneous current draw at the last sample, amperes (I = P/V at
    /// the 5 V supply), or 0 before any sample.
    pub fn last_current_a(&self) -> f64 {
        self.samples
            .last()
            .map(|s| s.v / self.supply_volts)
            .unwrap_or(0.0)
    }

    /// Supply voltage, volts.
    pub fn supply_volts(&self) -> f64 {
        self.supply_volts
    }
}

impl Default for SmartPowerMeter {
    fn default() -> Self {
        SmartPowerMeter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_energy_exactly_for_constant_power() {
        let mut m = SmartPowerMeter::new();
        let dt = 0.01;
        let mut t = 0.0;
        while t < 10.0 - 1e-9 {
            m.observe(t, dt, 11.0);
            t += dt;
        }
        assert!((m.energy_j() - 110.0).abs() < 1e-6, "{}", m.energy_j());
        assert!((m.energy_kwh() - 110.0 / 3.6e6).abs() < 1e-15);
    }

    #[test]
    fn samples_at_one_hz() {
        let mut m = SmartPowerMeter::new();
        let dt = 0.1;
        for i in 0..100 {
            m.observe(i as f64 * dt, dt, 10.0);
        }
        // 10 seconds -> samples at t=0,1,2,...,9.
        assert_eq!(m.power_samples().len(), 10);
    }

    #[test]
    fn current_is_power_over_five_volts() {
        let mut m = SmartPowerMeter::new();
        m.observe(0.0, 0.1, 10.0);
        assert!((m.last_current_a() - 2.0).abs() < 1e-12);
        assert_eq!(m.supply_volts(), 5.0);
    }

    #[test]
    fn no_samples_before_observation() {
        let m = SmartPowerMeter::new();
        assert_eq!(m.last_current_a(), 0.0);
        assert_eq!(m.energy_j(), 0.0);
    }
}
