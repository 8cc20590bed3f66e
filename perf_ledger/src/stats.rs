//! Small numeric helpers: the seeded input generator, order
//! statistics, the tail-percentile rule, a two-parameter least-squares
//! fit and the process's peak resident memory.

/// SplitMix64: a tiny deterministic generator, so one `--seed` always
/// yields the same workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7EE3_5EED_1ED6_E700)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to hundredths so generated names
    /// and journal lines stay short.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 100.0).round() / 100.0
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A timing distribution reported as its median plus the highest
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// The tail percentile reported (e.g. 0.99), 0.5 when fewer than
    /// 20 samples leave no tail with ten samples beyond it.
    pub tail_q: f64,
    /// The sample value at `tail_q`.
    pub tail: f64,
}

impl Dist {
    /// Summarises `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        let tail_q = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
            .into_iter()
            .find(|q| n as f64 * (1.0 - q) >= 10.0)
            .unwrap_or(0.5);
        Dist {
            n,
            median: median(samples),
            tail_q,
            tail: quantile(samples, tail_q),
        }
    }

    /// `p50`, `p99`, `p99.9`: the label of the tail percentile.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_q * 100.0)
    }
}

/// Ordinary least squares `y = a + b·x`; returns `(a, b)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let b = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (my - b * mx, b)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!(d.n, 200);
        assert_eq!(d.tail_q, 0.95);
        assert_eq!(d.tail_label(), "p95");
        assert_eq!(Dist::of(&v[..12]).tail_q, 0.5);
    }

    #[test]
    fn fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = [1.0, 50.0, 200.0, 800.0]
            .iter()
            .map(|&x| (x, 3.0 + 0.5 * x))
            .collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9 && (b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
