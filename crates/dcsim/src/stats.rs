//! Measurement collection: streaming moments and exact percentile
//! recording.
//!
//! The paper reports tail percentiles (99th, 99.9th) of latency
//! distributions; [`PercentileRecorder`] keeps exact samples so those tails
//! are not distorted by bucketing.

use crate::time::SimDuration;

/// Streaming count/mean/variance/min/max over `f64` samples (Welford).
///
/// # Examples
///
/// ```
/// use dcsim::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Zero-based index of the nearest-rank `p`-th percentile (`0 < p <= 100`)
/// among `n` sorted samples, or `None` when `n` is 0.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 100]`.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    if n == 0 {
        return None;
    }
    // Tiny epsilon keeps e.g. 99.9% of 1000 samples at rank 999 rather
    // than letting floating-point round-off push it to 1000.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The width a [`PercentileRecorder`] stores its samples at: `u64` holds
/// any value; `u32` halves the memory of samples that stay below 2^32
/// (nanosecond latencies under 4.29 s) and saturates above.
pub trait Sample: Copy + Ord {
    /// The stored form of `value`, saturating where it does not fit.
    fn from_u64(value: u64) -> Self;
    /// The stored value.
    fn to_u64(self) -> u64;
}

impl Sample for u64 {
    fn from_u64(value: u64) -> Self {
        value
    }
    fn to_u64(self) -> u64 {
        self
    }
}

impl Sample for u32 {
    fn from_u64(value: u64) -> Self {
        u32::try_from(value).unwrap_or(u32::MAX)
    }
    fn to_u64(self) -> u64 {
        self as u64
    }
}

/// Exact percentile recorder over `u64` samples (typically latency in ns),
/// stored at the width `S`.
///
/// Samples are stored verbatim and sorted lazily at query time, so tail
/// quantiles such as p99.9 are exact.
///
/// # Examples
///
/// ```
/// use dcsim::PercentileRecorder;
///
/// let mut r = PercentileRecorder::new();
/// for v in 1..=100u64 {
///     r.record(v);
/// }
/// assert_eq!(r.percentile(50.0), Some(50));
/// assert_eq!(r.percentile(99.0), Some(99));
/// ```
#[derive(Debug, Clone)]
pub struct PercentileRecorder<S = u64> {
    samples: Vec<S>,
    sorted: bool,
}

impl<S> Default for PercentileRecorder<S> {
    fn default() -> Self {
        PercentileRecorder {
            samples: Vec::new(),
            sorted: true,
        }
    }
}

impl PercentileRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        PercentileRecorder {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }
}

impl<S: Sample> PercentileRecorder<S> {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(S::from_u64(value));
        self.sorted = false;
    }

    /// Adds one duration sample, recorded as nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&v| v.to_u64() as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// The `p`-th percentile (`0 < p <= 100`) using nearest-rank, or `None`
    /// if no samples were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        let i = nearest_rank(self.samples.len(), p)?;
        self.ensure_sorted();
        Some(self.samples[i].to_u64())
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&mut self) -> Option<u64> {
        self.ensure_sorted();
        self.samples.last().map(|v| v.to_u64())
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&mut self) -> Option<u64> {
        self.ensure_sorted();
        self.samples.first().map(|v| v.to_u64())
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }

    /// Iterates over the recorded samples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().map(|v| v.to_u64())
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }
}

impl<S: Sample> Extend<u64> for PercentileRecorder<S> {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        self.samples.extend(iter.into_iter().map(S::from_u64));
        self.sorted = false;
    }
}

impl<S: Sample> FromIterator<u64> for PercentileRecorder<S> {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut r = Self::default();
        r.extend(iter);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stats_moments() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn streaming_stats_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 91) as f64).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &x in &xs[..40] {
            left.record(x);
        }
        for &x in &xs[40..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut r: PercentileRecorder = (1..=1000u64).collect();
        assert_eq!(r.percentile(50.0), Some(500));
        assert_eq!(r.percentile(99.0), Some(990));
        assert_eq!(r.percentile(99.9), Some(999));
        assert_eq!(r.percentile(100.0), Some(1000));
        assert_eq!(r.min(), Some(1));
        assert_eq!(r.max(), Some(1000));
    }

    #[test]
    fn percentile_empty_is_none() {
        let mut r = PercentileRecorder::new();
        assert_eq!(r.percentile(99.0), None);
        assert!(r.is_empty());
    }

    #[test]
    fn percentile_single_sample() {
        let mut r = PercentileRecorder::new();
        r.record(42);
        assert_eq!(r.percentile(0.1), Some(42));
        assert_eq!(r.percentile(100.0), Some(42));
    }

    #[test]
    fn narrow_samples_read_back_exactly_and_saturate() {
        let mut r: PercentileRecorder<u32> = [7, 3, u32::MAX as u64 + 5].into_iter().collect();
        assert_eq!(r.iter().collect::<Vec<_>>(), [7, 3, u32::MAX as u64]);
        assert_eq!(r.percentile(50.0), Some(7));
        assert_eq!(r.min(), Some(3));
    }

    #[test]
    fn recorder_interleaves_record_and_query() {
        let mut r = PercentileRecorder::new();
        r.record(10);
        assert_eq!(r.percentile(100.0), Some(10));
        r.record(5);
        assert_eq!(r.percentile(100.0), Some(10));
        assert_eq!(r.min(), Some(5));
    }
}
