//! Timestamped sample series — the raw material for every temperature,
//! frequency and power trace in the reproduction.

use std::fmt;

/// A single timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Time in seconds since the start of the run.
    pub t: f64,
    /// Sampled value (unit depends on the channel).
    pub v: f64,
}

/// An append-only series of `(time, value)` samples with non-decreasing
/// timestamps.
///
/// # Examples
///
/// ```
/// use teem_telemetry::TimeSeries;
///
/// let mut s = TimeSeries::new();
/// s.push(0.0, 80.0);
/// s.push(1.0, 85.0);
/// s.push(2.0, 90.0);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.last().map(|smp| smp.v), Some(90.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Creates a series from `(t, v)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if timestamps are not non-decreasing.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        let mut s = TimeSeries::new();
        for &(t, v) in pairs {
            s.push(t, v);
        }
        s
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous sample's timestamp or
    /// either value is non-finite.
    pub fn push(&mut self, t: f64, v: f64) {
        assert!(
            t.is_finite() && v.is_finite(),
            "non-finite sample ({t}, {v})"
        );
        if let Some(last) = self.samples.last() {
            assert!(
                t >= last.t,
                "timestamps must be non-decreasing: {t} after {}",
                last.t
            );
        }
        self.samples.push(Sample { t, v });
    }

    /// [`TimeSeries::push`] for a caller that has already checked `t`:
    /// finite, and not before the last sample. Checks `v` alone.
    ///
    /// # Panics
    ///
    /// Panics if `v` is non-finite.
    #[inline]
    pub(crate) fn push_checked_time(&mut self, t: f64, v: f64) {
        assert!(v.is_finite(), "non-finite sample ({t}, {v})");
        debug_assert!(self.samples.last().is_none_or(|last| t >= last.t));
        self.samples.push(Sample { t, v });
    }

    /// Reserves room for at least `additional` more samples.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterator over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// The values only, in time order.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.v).collect()
    }

    /// The timestamps only, in time order.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.t).collect()
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<Sample> {
        self.samples.first().copied()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Time span covered (last t − first t), or 0 for fewer than 2 samples.
    pub fn duration(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Value at time `t` by zero-order hold (last sample at or before `t`).
    /// Returns `None` before the first sample or when empty.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.samples.partition_point(|s| s.t <= t);
        if idx == 0 {
            None
        } else {
            Some(self.samples[idx - 1].v)
        }
    }

    /// Restricts the series to samples with `t0 <= t <= t1`.
    pub fn window(&self, t0: f64, t1: f64) -> TimeSeries {
        TimeSeries {
            samples: self
                .samples
                .iter()
                .filter(|s| s.t >= t0 && s.t <= t1)
                .copied()
                .collect(),
        }
    }

    /// Downsamples by keeping one sample per `dt`-wide bucket (the first in
    /// each bucket). Useful for rendering long traces.
    pub fn decimate(&self, dt: f64) -> TimeSeries {
        assert!(dt > 0.0, "decimation interval must be positive");
        let mut out = TimeSeries::new();
        let mut next = f64::NEG_INFINITY;
        for s in &self.samples {
            if s.t >= next {
                out.push(s.t, s.v);
                next = s.t + dt;
            }
        }
        out
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeSeries[{} samples", self.len())?;
        if let (Some(a), Some(b)) = (self.first(), self.last()) {
            write!(f, ", {:.3}s..{:.3}s", a.t, b.t)?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

impl Extend<(f64, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_accessors() {
        let s = TimeSeries::from_pairs(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.times(), vec![0.0, 1.0, 2.0]);
        assert_eq!(s.duration(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut s = TimeSeries::new();
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let mut s = TimeSeries::new();
        s.push(0.0, f64::NAN);
    }

    #[test]
    fn value_at_zero_order_hold() {
        let s = TimeSeries::from_pairs(&[(0.0, 10.0), (1.0, 20.0), (3.0, 30.0)]);
        assert_eq!(s.value_at(-0.1), None);
        assert_eq!(s.value_at(0.0), Some(10.0));
        assert_eq!(s.value_at(0.9), Some(10.0));
        assert_eq!(s.value_at(1.0), Some(20.0));
        assert_eq!(s.value_at(2.5), Some(20.0));
        assert_eq!(s.value_at(99.0), Some(30.0));
    }

    #[test]
    fn window_selects_inclusive_range() {
        let s = TimeSeries::from_pairs(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]);
        let w = s.window(1.0, 2.0);
        assert_eq!(w.values(), vec![2.0, 3.0]);
    }

    #[test]
    fn decimate_keeps_bucket_heads() {
        let s: TimeSeries = (0..10).map(|i| (i as f64 * 0.1, i as f64)).collect();
        let d = s.decimate(0.35);
        assert!(d.len() < s.len());
        assert_eq!(d.first().unwrap().v, 0.0);
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.duration(), 0.0);
        assert_eq!(s.value_at(1.0), None);
        assert_eq!(s.first(), None);
    }

    #[test]
    fn collect_and_extend() {
        let mut s: TimeSeries = vec![(0.0, 1.0)].into_iter().collect();
        s.extend(vec![(1.0, 2.0)]);
        assert_eq!(s.len(), 2);
    }
}
