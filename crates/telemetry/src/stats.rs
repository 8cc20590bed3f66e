//! Statistics over time series: the thermal-variance and thermal-gradient
//! metrics behind the paper's §V-B ("reduced thermal variance of over 76%")
//! plus the usual mean/peak summaries.
//!
//! Two gradient-style metrics are provided because the paper uses the terms
//! "thermal gradient" and "temperature variance" interchangeably for the
//! *temporal* spread of temperature:
//!
//! * [`SeriesStats::variance`] — population variance of the sampled values
//!   (time-weighted variant in [`SeriesStats::time_weighted_variance`]);
//! * [`SeriesStats::mean_abs_slope`] — mean |dv/dt|, a direct measure of
//!   temporal thermal cycling.

use crate::series::TimeSeries;

/// Summary statistics of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    n: usize,
    mean: f64,
    variance: f64,
    tw_mean: f64,
    tw_variance: f64,
    min: f64,
    max: f64,
    mean_abs_slope: f64,
    max_abs_slope: f64,
}

impl SeriesStats {
    /// Computes statistics for a series. Returns `None` when empty.
    pub fn of(series: &TimeSeries) -> Option<SeriesStats> {
        if series.is_empty() {
            return None;
        }
        // The samples in place: the sums run in time order, as over
        // copied value and time vectors.
        let samples = series.iter().as_slice();
        let n = samples.len();
        let mean = samples.iter().map(|s| s.v).sum::<f64>() / n as f64;
        let variance = samples
            .iter()
            .map(|s| (s.v - mean) * (s.v - mean))
            .sum::<f64>()
            / n as f64;
        let min = samples.iter().map(|s| s.v).fold(f64::INFINITY, f64::min);
        let max = samples
            .iter()
            .map(|s| s.v)
            .fold(f64::NEG_INFINITY, f64::max);

        // Time-weighted moments: hold each value until the next sample.
        let (tw_mean, tw_variance) = if n >= 2 {
            let total: f64 = samples[n - 1].t - samples[0].t;
            if total > 0.0 {
                let mut m = 0.0;
                for w in samples.windows(2) {
                    m += w[0].v * (w[1].t - w[0].t);
                }
                m /= total;
                let mut var = 0.0;
                for w in samples.windows(2) {
                    var += (w[0].v - m) * (w[0].v - m) * (w[1].t - w[0].t);
                }
                (m, var / total)
            } else {
                (mean, variance)
            }
        } else {
            (mean, variance)
        };

        // Slope metrics over consecutive samples.
        let (mut sum_slope, mut max_slope, mut slopes) = (0.0, 0.0_f64, 0usize);
        for w in samples.windows(2) {
            let dt = w[1].t - w[0].t;
            if dt > 0.0 {
                let s = ((w[1].v - w[0].v) / dt).abs();
                sum_slope += s;
                max_slope = max_slope.max(s);
                slopes += 1;
            }
        }
        let mean_abs_slope = if slopes > 0 {
            sum_slope / slopes as f64
        } else {
            0.0
        };

        Some(SeriesStats {
            n,
            mean,
            variance,
            tw_mean,
            tw_variance,
            min,
            max,
            mean_abs_slope,
            max_abs_slope: max_slope,
        })
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Arithmetic mean of the sampled values.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance of the sampled values.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Standard deviation of the sampled values.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Time-weighted mean (zero-order hold between samples).
    pub fn time_weighted_mean(&self) -> f64 {
        self.tw_mean
    }

    /// Time-weighted variance (zero-order hold between samples).
    pub fn time_weighted_variance(&self) -> f64 {
        self.tw_variance
    }

    /// Minimum sampled value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sampled value (the "peak temperature" of a thermal trace).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Peak-to-peak range.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }

    /// Mean |dv/dt| between consecutive samples — temporal thermal cycling.
    pub fn mean_abs_slope(&self) -> f64 {
        self.mean_abs_slope
    }

    /// Maximum |dv/dt| between consecutive samples.
    pub fn max_abs_slope(&self) -> f64 {
        self.max_abs_slope
    }
}

/// Percentage reduction of `candidate` relative to `baseline`
/// (`(baseline - candidate) / baseline * 100`). Positive means the
/// candidate is lower/better; this is how the paper reports "76% thermal
/// variance reduction" and "28.32% energy saving".
///
/// Returns `None` when `baseline` is zero or non-finite.
///
/// # Examples
///
/// ```
/// use teem_telemetry::stats::percent_reduction;
/// assert_eq!(percent_reduction(100.0, 75.0), Some(25.0));
/// assert_eq!(percent_reduction(0.0, 1.0), None);
/// ```
pub fn percent_reduction(baseline: f64, candidate: f64) -> Option<f64> {
    if baseline == 0.0 || !baseline.is_finite() || !candidate.is_finite() {
        return None;
    }
    Some((baseline - candidate) / baseline * 100.0)
}

/// Mean of a slice; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_has_zero_variance_and_slope() {
        let s = TimeSeries::from_pairs(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]);
        let st = SeriesStats::of(&s).unwrap();
        assert_eq!(st.mean(), 5.0);
        assert_eq!(st.variance(), 0.0);
        assert_eq!(st.mean_abs_slope(), 0.0);
        assert_eq!(st.range(), 0.0);
    }

    #[test]
    fn known_variance() {
        let s = TimeSeries::from_pairs(&[
            (0.0, 2.0),
            (1.0, 4.0),
            (2.0, 4.0),
            (3.0, 4.0),
            (4.0, 5.0),
            (5.0, 5.0),
            (6.0, 7.0),
            (7.0, 9.0),
        ]);
        let st = SeriesStats::of(&s).unwrap();
        // mean = 5, pop variance = 4 (classic textbook sample).
        assert!((st.mean() - 5.0).abs() < 1e-12);
        assert!((st.variance() - 4.0).abs() < 1e-12);
        assert!((st.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn peak_and_min() {
        let s = TimeSeries::from_pairs(&[(0.0, 80.0), (1.0, 96.0), (2.0, 85.0)]);
        let st = SeriesStats::of(&s).unwrap();
        assert_eq!(st.max(), 96.0);
        assert_eq!(st.min(), 80.0);
        assert_eq!(st.range(), 16.0);
    }

    #[test]
    fn slope_metrics() {
        // 0 -> 10 over 1s then back to 0 over 2s: slopes 10 and 5.
        let s = TimeSeries::from_pairs(&[(0.0, 0.0), (1.0, 10.0), (3.0, 0.0)]);
        let st = SeriesStats::of(&s).unwrap();
        assert!((st.mean_abs_slope() - 7.5).abs() < 1e-12);
        assert!((st.max_abs_slope() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_respects_hold_times() {
        // Value 0 held for 9s, then 10 for 1s: tw mean = 0*0.9 + 10*0.1 = 1.
        let s = TimeSeries::from_pairs(&[(0.0, 0.0), (9.0, 10.0), (10.0, 10.0)]);
        let st = SeriesStats::of(&s).unwrap();
        assert!((st.time_weighted_mean() - 1.0).abs() < 1e-12);
        // Plain mean is (0+10+10)/3 = 6.67 — very different.
        assert!((st.mean() - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_none() {
        assert_eq!(SeriesStats::of(&TimeSeries::new()), None);
    }

    #[test]
    fn single_sample() {
        let s = TimeSeries::from_pairs(&[(0.0, 42.0)]);
        let st = SeriesStats::of(&s).unwrap();
        assert_eq!(st.mean(), 42.0);
        assert_eq!(st.variance(), 0.0);
        assert_eq!(st.max(), 42.0);
    }

    #[test]
    fn percent_reduction_signs() {
        assert_eq!(
            percent_reduction(530.0, 413.0).map(|v| v.round()),
            Some(22.0)
        );
        // Candidate worse than baseline -> negative reduction (overhead).
        assert!(percent_reduction(100.0, 119.0).unwrap() < 0.0);
        assert_eq!(percent_reduction(f64::NAN, 1.0), None);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }
}
