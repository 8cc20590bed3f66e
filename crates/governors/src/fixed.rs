//! The `userspace` cpufreq policy: caller-chosen fixed frequencies.
//!
//! It is the actuation primitive both EEMP-style static policies and the
//! offline design-point evaluation use: pin a design point's frequencies
//! and run.

use teem_soc::{ClusterFreqs, Manager, SocControl, SocView};

/// `userspace`: pin caller-chosen frequencies (a design point's V/f).
#[derive(Debug, Clone)]
pub struct Userspace {
    freqs: ClusterFreqs,
    label: String,
}

impl Userspace {
    /// Pins the given frequencies.
    pub fn new(freqs: ClusterFreqs) -> Self {
        Userspace {
            freqs,
            label: "userspace".to_string(),
        }
    }

    /// Pins frequencies under a custom display name (e.g. `"EEMP"`).
    pub fn named(freqs: ClusterFreqs, label: impl Into<String>) -> Self {
        Userspace {
            freqs,
            label: label.into(),
        }
    }

    /// The pinned frequencies.
    pub fn freqs(&self) -> ClusterFreqs {
        self.freqs
    }
}

impl Manager for Userspace {
    fn name(&self) -> &str {
        &self.label
    }

    fn control(&mut self, _view: &SocView, ctl: &mut SocControl) {
        ctl.set_big_freq(self.freqs.big);
        ctl.set_little_freq(self.freqs.little);
        ctl.set_gpu_freq(self.freqs.gpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teem_soc::{Board, CpuMapping, MHz, RunSpec, Simulation};
    use teem_workload::{App, Partition};

    fn spec() -> RunSpec {
        RunSpec {
            app: App::Mvt,
            mapping: CpuMapping::new(2, 2),
            partition: Partition::even(),
            initial: ClusterFreqs {
                big: MHz(1000),
                little: MHz(1000),
                gpu: MHz(480),
            },
        }
    }

    #[test]
    fn userspace_holds_requested_frequency() {
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec());
        let r = sim.run(&mut Userspace::new(ClusterFreqs {
            big: MHz(1500),
            little: MHz(1100),
            gpu: MHz(350),
        }));
        let f = r.trace.stats("freq.big").unwrap();
        assert_eq!(f.max(), 1500.0);
        // The very first trace sample records the spec's initial frequency
        // (1000 MHz) before the governor's first control tick; from then
        // on MVT at 1500 MHz stays below the trip, so no cap applies and
        // the time-weighted mean sits at the pinned value.
        assert!(
            f.time_weighted_mean() > 1495.0,
            "{}",
            f.time_weighted_mean()
        );
    }

    #[test]
    fn fixed_governors_request_all_three_clusters() {
        use teem_soc::{SensorBank, SocControl, SocView};
        let view = SocView {
            time_s: 0.0,
            readings: SensorBank::ideal().read(60.0, 50.0),
            freqs: ClusterFreqs {
                big: MHz(1000),
                little: MHz(1000),
                gpu: MHz(420),
            },
            cpu_progress: 0.2,
            gpu_progress: 0.2,
            big_util: 1.0,
            power_w: 5.0,
            mapping: CpuMapping::new(2, 2),
            partition: Partition::even(),
        };

        let pinned = ClusterFreqs {
            big: MHz(1500),
            little: MHz(1100),
            gpu: MHz(350),
        };
        let mut ctl = SocControl::default();
        Userspace::new(pinned).control(&view, &mut ctl);
        assert_eq!(ctl.big_request(), Some(pinned.big));
        assert_eq!(ctl.little_request(), Some(pinned.little));
        assert_eq!(ctl.gpu_request(), Some(pinned.gpu));
    }

    #[test]
    fn named_userspace_reports_label() {
        let g = Userspace::named(
            ClusterFreqs {
                big: MHz(1000),
                little: MHz(1000),
                gpu: MHz(600),
            },
            "EEMP",
        );
        assert_eq!(g.name(), "EEMP");
        assert_eq!(g.freqs().big, MHz(1000));
    }
}
