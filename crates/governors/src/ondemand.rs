//! The Linux `ondemand` cpufreq governor — the paper's stock baseline
//! (Fig. 1a): jump to maximum frequency when utilisation exceeds the
//! up-threshold, scale proportionally below it. Combined with the kernel
//! thermal zone this produces the reactive 2000 ↔ 900 MHz oscillation the
//! paper's motivational case study shows.

use teem_soc::{ClusterFreqs, MHz, Manager, SocControl, SocView};

/// Linux-style ondemand governor for the CPU clusters (the Mali runs its
/// own devfreq governor, modelled as pinned maximum — the paper observes
/// that throttling affects only the A15 cluster).
#[derive(Debug, Clone)]
pub struct Ondemand;

impl Ondemand {
    /// Utilisation above which the governor jumps to maximum (the Linux
    /// default, 80 %).
    const UP_THRESHOLD: f64 = 0.8;
    /// The XU4's maximum frequencies.
    const MAX: ClusterFreqs = ClusterFreqs {
        big: MHz(2000),
        little: MHz(1400),
        gpu: MHz(600),
    };
    /// The big cluster's policy minimum.
    const MIN_BIG: MHz = MHz(200);

    /// Ondemand with the XU4's frequency ranges and the Linux default
    /// 80 % up-threshold.
    pub fn xu4() -> Self {
        Ondemand
    }
}

impl Manager for Ondemand {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn control(&mut self, view: &SocView, ctl: &mut SocControl) {
        if view.big_util >= Self::UP_THRESHOLD {
            ctl.set_big_freq(Self::MAX.big);
        } else {
            // Proportional scaling: f = max * util / up_threshold,
            // clamped to the policy minimum (Linux's non-jump path).
            let scaled =
                (Self::MAX.big.0 as f64 * view.big_util / Self::UP_THRESHOLD).round() as u32;
            ctl.set_big_freq(MHz(scaled.max(Self::MIN_BIG.0)));
        }
        // LITTLE stays at max while anything runs (it hosts the OS), GPU
        // devfreq pinned at max while its share runs.
        ctl.set_little_freq(Self::MAX.little);
        ctl.set_gpu_freq(Self::MAX.gpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teem_soc::{Board, CpuMapping, RunSpec, Simulation};
    use teem_workload::{App, Partition};

    fn view(util: f64) -> SocView {
        SocView {
            time_s: 0.0,
            readings: teem_soc::SensorBank::ideal().read(70.0, 60.0),
            freqs: ClusterFreqs {
                big: MHz(1000),
                little: MHz(1400),
                gpu: MHz(600),
            },
            cpu_progress: 0.5,
            gpu_progress: 0.5,
            big_util: util,
            power_w: 10.0,
            mapping: CpuMapping::new(2, 3),
            partition: Partition::even(),
        }
    }

    #[test]
    fn busy_jumps_to_max() {
        let mut g = Ondemand::xu4();
        let mut ctl = SocControl::default();
        g.control(&view(1.0), &mut ctl);
        assert_eq!(ctl.big_request(), Some(MHz(2000)));
    }

    #[test]
    fn idle_scales_down() {
        let mut g = Ondemand::xu4();
        let mut ctl = SocControl::default();
        g.control(&view(0.05), &mut ctl);
        let f = ctl.big_request().expect("sets a frequency");
        assert!(f < MHz(300), "idle frequency {f}");
    }

    #[test]
    fn fig1a_shape_under_stock_zone() {
        // COVARIANCE on 2L+3B, even partition, stock zone: ondemand must
        // peg max, trip repeatedly and oscillate between 2000 and 900.
        let spec = RunSpec {
            app: App::Covariance,
            mapping: CpuMapping::new(2, 3),
            partition: Partition::even(),
            initial: ClusterFreqs {
                big: MHz(2000),
                little: MHz(1400),
                gpu: MHz(600),
            },
        };
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
        let r = sim.run(&mut Ondemand::xu4());
        assert!(!r.timed_out);
        assert!(r.zone_trips >= 1, "only {} trips", r.zone_trips);
        let f = r.trace.stats("freq.big").expect("freq channel");
        assert_eq!(f.max(), 2000.0);
        assert_eq!(f.min(), 900.0);
        assert!(r.summary.peak_temp_c >= 95.0);
    }
}
