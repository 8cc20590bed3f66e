//! Frequencies and operating performance points (OPPs).
//!
//! The Exynos 5422 scales voltage and frequency per cluster: the Cortex-A15
//! (big) cluster spans 200–2000 MHz in 100 MHz steps (19 OPPs), the
//! Cortex-A7 (LITTLE) cluster 200–1400 MHz (13 OPPs) and the Mali-T628 MP6
//! GPU has 7 OPPs up to 600 MHz (§IV-A.1 and ref.\[4\] in the paper). Equation
//! (2)'s design-point count depends on exactly these sizes: 19 × 13 × 7.

use std::fmt;
use std::sync::Arc;

/// A clock frequency in megahertz.
///
/// # Examples
///
/// ```
/// use teem_soc::MHz;
/// let f = MHz(1400);
/// assert_eq!(f.as_hz(), 1.4e9);
/// assert_eq!(f.to_string(), "1400 MHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MHz(pub u32);

impl MHz {
    /// Frequency in hertz as `f64`.
    pub fn as_hz(self) -> f64 {
        self.0 as f64 * 1e6
    }

    /// Saturating subtraction in MHz.
    pub fn saturating_sub(self, delta: u32) -> MHz {
        MHz(self.0.saturating_sub(delta))
    }
}

impl fmt::Display for MHz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

/// One operating performance point: a frequency and its supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opp {
    /// Clock frequency.
    pub freq: MHz,
    /// Supply voltage in millivolts.
    pub volt_mv: u32,
}

impl Opp {
    /// Supply voltage in volts.
    pub fn volts(self) -> f64 {
        self.volt_mv as f64 / 1000.0
    }
}

/// An ascending table of OPPs for one voltage/frequency domain.
///
/// The entries are immutable and shared: a clone copies one pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    opps: Arc<[Opp]>,
}

impl OppTable {
    /// Builds a table from OPPs: a `Vec`, or a shared slice collected
    /// straight from an iterator.
    ///
    /// # Panics
    ///
    /// Panics if `opps` is empty or not strictly ascending in frequency.
    pub fn new(opps: impl Into<Arc<[Opp]>>) -> Self {
        let opps = opps.into();
        assert!(!opps.is_empty(), "OPP table must not be empty");
        for w in opps.windows(2) {
            assert!(
                w[0].freq < w[1].freq,
                "OPP table must be strictly ascending: {} then {}",
                w[0].freq,
                w[1].freq
            );
        }
        OppTable { opps }
    }

    /// Number of OPPs (the `Fb`/`FL`/`Fg` of equation (2)).
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// `false`: tables are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All OPPs, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, Opp> {
        self.opps.iter()
    }

    /// Lowest OPP.
    pub fn min(&self) -> Opp {
        self.opps[0]
    }

    /// Highest OPP.
    pub fn max(&self) -> Opp {
        *self.opps.last().expect("non-empty by construction")
    }

    /// The OPP for an exact frequency, if present.
    pub fn exact(&self, freq: MHz) -> Option<Opp> {
        self.opps.iter().copied().find(|o| o.freq == freq)
    }

    /// Highest OPP with frequency `<= freq`, or the lowest OPP when `freq`
    /// is below the table (requests are clamped, as cpufreq does).
    pub fn at_or_below(&self, freq: MHz) -> Opp {
        self.opps
            .iter()
            .rev()
            .copied()
            .find(|o| o.freq <= freq)
            .unwrap_or(self.opps[0])
    }

    /// Lowest OPP with frequency `>= freq`, or the highest OPP when `freq`
    /// is above the table.
    pub fn at_or_above(&self, freq: MHz) -> Opp {
        self.opps
            .iter()
            .copied()
            .find(|o| o.freq >= freq)
            .unwrap_or_else(|| self.max())
    }

    /// Steps down from `freq` by `delta_mhz`, clamped to the table and to
    /// `floor` — TEEM's "reduce by δ but not below 1400 MHz" move.
    pub fn step_down(&self, freq: MHz, delta_mhz: u32, floor: MHz) -> Opp {
        let target = freq.saturating_sub(delta_mhz);
        let target = if target < floor { floor } else { target };
        self.at_or_below(target)
    }

    /// Voltage (volts) for a frequency, using the governing OPP
    /// (`at_or_below`).
    pub fn volts_at(&self, freq: MHz) -> f64 {
        self.at_or_below(freq).volts()
    }
}

/// Builds a linear OPP ramp: frequencies `start..=end` stepped by
/// `step_mhz`, voltage interpolated linearly from `v_min_mv` to `v_max_mv`.
pub fn linear_ramp(start: u32, end: u32, step_mhz: u32, v_min_mv: u32, v_max_mv: u32) -> OppTable {
    assert!(step_mhz > 0 && end >= start);
    let n = (end - start) / step_mhz + 1;
    let opps = (0..n)
        .map(|i| {
            let f = start + i * step_mhz;
            let frac = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                1.0
            };
            Opp {
                freq: MHz(f),
                volt_mv: v_min_mv + ((v_max_mv - v_min_mv) as f64 * frac).round() as u32,
            }
        })
        .collect::<Arc<[Opp]>>();
    OppTable::new(opps)
}

/// The A15 (big) cluster table: 200–2000 MHz / 100 MHz — 19 OPPs.
pub fn a15_opp_table() -> OppTable {
    linear_ramp(200, 2000, 100, 912, 1362)
}

/// The A7 (LITTLE) cluster table: 200–1400 MHz / 100 MHz — 13 OPPs.
pub fn a7_opp_table() -> OppTable {
    linear_ramp(200, 1400, 100, 912, 1212)
}

/// The Mali-T628 MP6 table — 7 OPPs up to 600 MHz (mainline exynos5422
/// devfreq steps).
pub fn mali_opp_table() -> OppTable {
    let freqs = [177u32, 266, 350, 420, 480, 543, 600];
    let volts = [812u32, 850, 887, 925, 962, 1000, 1037];
    OppTable::new(
        freqs
            .iter()
            .zip(volts.iter())
            .map(|(&f, &v)| Opp {
                freq: MHz(f),
                volt_mv: v,
            })
            .collect::<Arc<[Opp]>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exynos_table_sizes_match_equation_2_inputs() {
        // Paper: big has 19 frequency settings, LITTLE 13, GPU 7.
        assert_eq!(a15_opp_table().len(), 19);
        assert_eq!(a7_opp_table().len(), 13);
        assert_eq!(mali_opp_table().len(), 7);
    }

    #[test]
    fn table_ranges_match_datasheet() {
        let big = a15_opp_table();
        assert_eq!(big.min().freq, MHz(200));
        assert_eq!(big.max().freq, MHz(2000));
        let little = a7_opp_table();
        assert_eq!(little.max().freq, MHz(1400));
        let gpu = mali_opp_table();
        assert_eq!(gpu.max().freq, MHz(600));
        assert_eq!(gpu.min().freq, MHz(177));
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        for table in [a15_opp_table(), a7_opp_table(), mali_opp_table()] {
            let v: Vec<u32> = table.iter().map(|o| o.volt_mv).collect();
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "non-monotone voltage");
        }
    }

    #[test]
    fn at_or_below_clamps() {
        let t = a15_opp_table();
        assert_eq!(t.at_or_below(MHz(2000)).freq, MHz(2000));
        assert_eq!(t.at_or_below(MHz(1999)).freq, MHz(1900));
        assert_eq!(t.at_or_below(MHz(100)).freq, MHz(200)); // clamp to min
        assert_eq!(t.at_or_below(MHz(99_999)).freq, MHz(2000));
    }

    #[test]
    fn at_or_above_clamps() {
        let t = mali_opp_table();
        assert_eq!(t.at_or_above(MHz(100)).freq, MHz(177));
        assert_eq!(t.at_or_above(MHz(400)).freq, MHz(420));
        assert_eq!(t.at_or_above(MHz(601)).freq, MHz(600)); // clamp to max
    }

    #[test]
    fn step_down_respects_floor() {
        // TEEM's move: 2000 - 200 = 1800; floor at 1400.
        let t = a15_opp_table();
        assert_eq!(t.step_down(MHz(2000), 200, MHz(1400)).freq, MHz(1800));
        assert_eq!(t.step_down(MHz(1500), 200, MHz(1400)).freq, MHz(1400));
        assert_eq!(t.step_down(MHz(1400), 200, MHz(1400)).freq, MHz(1400));
        // Without a practical floor it can go to the table minimum.
        assert_eq!(t.step_down(MHz(300), 200, MHz(200)).freq, MHz(200));
    }

    #[test]
    fn exact_lookup() {
        let t = a7_opp_table();
        assert!(t.exact(MHz(800)).is_some());
        assert!(t.exact(MHz(850)).is_none());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted() {
        OppTable::new(vec![
            Opp {
                freq: MHz(500),
                volt_mv: 900,
            },
            Opp {
                freq: MHz(400),
                volt_mv: 900,
            },
        ]);
    }

    #[test]
    fn mhz_display_and_hz() {
        assert_eq!(MHz(600).to_string(), "600 MHz");
        assert_eq!(MHz(600).as_hz(), 6.0e8);
        assert_eq!(MHz(100).saturating_sub(300), MHz(0));
    }
}
