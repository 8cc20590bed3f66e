//! On-die thermal sensors.
//!
//! The Exynos 5422 exposes per-core TMU sensors on the A15 cluster plus
//! one on the GPU; the paper samples them and takes "the highest
//! temperature value ... for the two clusters (big and GPU)" (§III-A.2),
//! observing that core-6 (the third big core) runs hottest. We reproduce
//! that observable: each big core reads the cluster node temperature plus
//! a fixed per-core offset (hot spot layout), optionally with quantisation
//! and deterministic measurement noise.

/// Fixed per-core offsets above the big-cluster node temperature, °C.
/// Index 2 (board numbering: core 6) is the paper's hottest core.
pub const BIG_CORE_OFFSETS_C: [f64; 4] = [0.6, 1.1, 2.2, 0.9];

/// Local hotspot thermal resistance of one A15 core, °C/W: a busy core
/// reads this much hotter than the cluster lump per watt of its own
/// power. This is what makes a single core at 2 GHz almost as hot at its
/// sensor as a fully-loaded cluster — the per-core TMU sees the local
/// power density, not the cluster average.
pub const CORE_HOTSPOT_C_PER_W: f64 = 3.5;

/// Deterministic measurement-noise source (SplitMix64): the TMU noise
/// must be reproducible run-for-run so simulations stay bit-identical,
/// which matters both for tests and for the scenario engine's
/// same-scenario-same-trace guarantee.
#[derive(Debug, Clone)]
struct NoiseRng {
    state: u64,
}

impl NoiseRng {
    fn seed_from_u64(seed: u64) -> Self {
        NoiseRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[-amplitude, amplitude]`.
    fn symmetric(&mut self, amplitude: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (unit * 2.0 - 1.0) * amplitude
    }

    /// Jumps the stream forward by `draws` outputs in O(1). SplitMix64's
    /// state advances by a fixed additive constant per draw, so skipping
    /// is a single wrapping multiply-add — this is what lets the
    /// event-driven executor fast-forward a gap and land on exactly the
    /// noise values the fixed-dt path would have produced there.
    fn skip(&mut self, draws: u64) {
        self.state = self
            .state
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(draws));
    }
}

/// A bank of thermal sensors over the SoC's thermal nodes.
#[derive(Debug, Clone)]
pub struct SensorBank {
    /// Gaussian-ish measurement noise amplitude (uniform ±), °C.
    noise_c: f64,
    /// Quantisation step (TMUs report integer °C), 0 to disable.
    quant_c: f64,
    rng: NoiseRng,
}

/// One sampling of every sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReadings {
    /// Per-core big-cluster readings (A15 cores, board cores 4–7).
    pub big_core_c: [f64; 4],
    /// GPU sensor reading.
    pub gpu_c: f64,
}

impl SensorReadings {
    /// Hottest big-core reading — what the paper's Fig. 1 plots.
    pub fn big_max_c(&self) -> f64 {
        self.big_core_c
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The monitored maximum: hottest of {big cores, GPU} (§III-B).
    pub fn max_c(&self) -> f64 {
        self.big_max_c().max(self.gpu_c)
    }

    /// Index (0–3) of the hottest big core; board numbering adds 4.
    pub fn hottest_big_core(&self) -> usize {
        self.big_core_c
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite temps"))
            .map(|(i, _)| i)
            .expect("four cores")
    }
}

impl SensorBank {
    /// A noiseless, unquantised bank (deterministic tests).
    pub fn ideal() -> Self {
        SensorBank {
            noise_c: 0.0,
            quant_c: 0.0,
            rng: NoiseRng::seed_from_u64(0),
        }
    }

    /// A TMU-like bank: ±0.25 °C noise, 1 °C quantisation, deterministic
    /// for a given seed.
    pub fn tmu_like(seed: u64) -> Self {
        SensorBank {
            noise_c: 0.25,
            quant_c: 1.0,
            rng: NoiseRng::seed_from_u64(seed),
        }
    }

    /// Samples the sensors given the current big-cluster and GPU node
    /// temperatures, with no per-core hotspot contribution (idle cores or
    /// tests that want the raw node).
    pub fn read(&mut self, big_node_c: f64, gpu_node_c: f64) -> SensorReadings {
        self.read_with_hotspots(big_node_c, &[0.0; 4], gpu_node_c)
    }

    /// Samples the sensors with per-core hotspot contributions: big core
    /// `i` reads `node + CORE_HOTSPOT_C_PER_W * core_power_w[i] +
    /// offset_i`.
    pub fn read_with_hotspots(
        &mut self,
        big_node_c: f64,
        core_power_w: &[f64; 4],
        gpu_node_c: f64,
    ) -> SensorReadings {
        let mut big = [0.0; 4];
        for (i, slot) in big.iter_mut().enumerate() {
            *slot = self.measure(
                big_node_c + CORE_HOTSPOT_C_PER_W * core_power_w[i] + BIG_CORE_OFFSETS_C[i],
            );
        }
        SensorReadings {
            big_core_c: big,
            gpu_c: self.measure(gpu_node_c),
        }
    }

    /// Number of noise draws one full bank sampling consumes (four big
    /// cores plus the GPU) — the unit [`SensorBank::skip_reads`] skips in.
    pub const DRAWS_PER_READ: u64 = 5;

    /// Advances the noise stream as if `reads` full bank samplings had
    /// happened without taking them, in O(1).
    ///
    /// The event-driven executor uses this when it fast-forwards an idle
    /// gap: the sample boundaries inside the gap are skipped, so the
    /// noise stream must be advanced past the draws those samples would
    /// have consumed for every reading *after* the gap to stay
    /// bit-identical with the fixed-dt path. A noiseless bank consumes
    /// no draws, and correspondingly this is a no-op for it.
    pub fn skip_reads(&mut self, reads: u64) {
        if self.noise_c > 0.0 {
            self.rng.skip(reads * Self::DRAWS_PER_READ);
        }
    }

    fn measure(&mut self, true_c: f64) -> f64 {
        let mut v = true_c;
        if self.noise_c > 0.0 {
            v += self.rng.symmetric(self.noise_c);
        }
        if self.quant_c == 1.0 {
            // The TMU-like integer-Celsius step, minus the division:
            // for finite v, `v / 1.0` and `r * 1.0` are `v` and `r`
            // bit-for-bit, so this is the general path's exact result.
            v = v.round();
        } else if self.quant_c > 0.0 {
            v = (v / self.quant_c).round() * self.quant_c;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_reads_true_plus_offsets() {
        let mut s = SensorBank::ideal();
        let r = s.read(80.0, 70.0);
        for (read, offset) in r.big_core_c.iter().zip(BIG_CORE_OFFSETS_C) {
            assert_eq!(*read, 80.0 + offset);
        }
        assert_eq!(r.gpu_c, 70.0);
    }

    #[test]
    fn core6_is_hottest() {
        let mut s = SensorBank::ideal();
        let r = s.read(85.0, 60.0);
        // Index 2 = board core 6, the paper's hottest core.
        assert_eq!(r.hottest_big_core(), 2);
        assert_eq!(r.big_max_c(), 85.0 + 2.2);
    }

    #[test]
    fn max_covers_gpu_when_hotter() {
        let mut s = SensorBank::ideal();
        let r = s.read(60.0, 90.0);
        assert_eq!(r.max_c(), 90.0);
        let r = s.read(90.0, 60.0);
        assert!(r.max_c() > 90.0); // offset included
    }

    #[test]
    fn tmu_like_is_deterministic_per_seed() {
        let mut a = SensorBank::tmu_like(7);
        let mut b = SensorBank::tmu_like(7);
        for _ in 0..10 {
            assert_eq!(a.read(80.0, 70.0), b.read(80.0, 70.0));
        }
        let mut c = SensorBank::tmu_like(8);
        let ra: Vec<_> = (0..10).map(|_| a.read(80.0, 70.0)).collect();
        let rc: Vec<_> = (0..10).map(|_| c.read(80.0, 70.0)).collect();
        assert_ne!(ra, rc, "different seeds should differ");
    }

    #[test]
    fn quantisation_yields_integer_celsius() {
        let mut s = SensorBank::tmu_like(1);
        let r = s.read(80.4, 70.6);
        for v in r.big_core_c.iter().chain([r.gpu_c].iter()) {
            assert_eq!(v.fract(), 0.0, "{v} not integer");
        }
    }

    #[test]
    fn skip_reads_matches_discarded_reads() {
        // O(1) skip lands on exactly the same stream position as
        // actually taking (and discarding) the reads.
        let mut skipped = SensorBank::tmu_like(42);
        let mut walked = SensorBank::tmu_like(42);
        for _ in 0..7 {
            walked.read(80.0, 70.0);
        }
        skipped.skip_reads(7);
        for _ in 0..5 {
            assert_eq!(skipped.read(81.0, 69.0), walked.read(81.0, 69.0));
        }
        // Noiseless banks consume no draws, so skipping is a no-op.
        let mut a = SensorBank::ideal();
        let b = SensorBank::ideal();
        a.skip_reads(1_000_000);
        let mut b = b;
        assert_eq!(a.read(80.0, 70.0), b.read(80.0, 70.0));
    }

    #[test]
    fn noise_stays_within_bounds() {
        let mut s = SensorBank::tmu_like(2);
        for _ in 0..100 {
            let r = s.read(80.0, 70.0);
            // true 82.2 max offset + 0.25 noise + 0.5 quantisation
            assert!(r.big_max_c() <= 83.0);
            assert!((69.0..=71.0).contains(&r.gpu_c));
        }
    }
}
