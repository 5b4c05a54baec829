//! Exact sample recording: moments, nearest-rank percentiles and optional
//! fixed-width distribution buckets.
//!
//! A [`Histogram`] is the live accumulator components record into; it
//! keeps every sample, in recording order, at the width its [`Sample`]
//! type gives, so tail quantiles such as p99.9 are exact. Every query
//! takes `&self` and reorders nothing: a percentile is a radix select
//! over the samples in place. A [`HistogramSnapshot`] is the frozen,
//! serializable summary published into a [`crate::MetricsSnapshot`]. A
//! summary is built in one pass over the samples in recording order,
//! which accumulates the moments (Welford) and keeps the copy that
//! merging re-reads (merged moments depend on that order), plus one
//! sorted copy for min, max, percentiles and buckets.
//!
//! [`nearest_rank`] is the one percentile rule: every report that turns
//! samples into a percentile goes through it.

use serde::{Serialize, Value};

/// Zero-based index of the nearest-rank `p`-th percentile (`0 < p <= 100`)
/// among `n` sorted samples, or `None` when `n` is 0.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 100]`.
///
/// # Examples
///
/// ```
/// // The 99.9th percentile of 1,000 samples is the 999th, not the largest.
/// assert_eq!(telemetry::nearest_rank(1_000, 99.9), Some(998));
/// assert_eq!(telemetry::nearest_rank(80, 50.0), Some(39));
/// assert_eq!(telemetry::nearest_rank(0, 50.0), None);
/// ```
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

/// The width a [`Histogram`] stores its samples at: `u64` holds any
/// value; `u32` halves the memory of samples that stay below 2^32
/// (nanosecond latencies under 4.29 s) and saturates above.
pub trait Sample: Copy {
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

/// Live histogram accumulator (typically over latencies in nanoseconds),
/// storing its samples at the width `S`.
///
/// # Examples
///
/// ```
/// use telemetry::Histogram;
///
/// let mut h = Histogram::with_bucket_width(250);
/// for v in [300, 100, 400, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(99.0), Some(400));
/// assert_eq!(h.min(), Some(100));
/// // Queries reorder nothing.
/// assert_eq!(h.iter().collect::<Vec<_>>(), [300, 100, 400, 200]);
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.p50, Some(200));
/// assert_eq!(snap.buckets, vec![(0, 2), (250, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram<S = u64> {
    samples: Vec<S>,
    bucket_width: u64,
}

impl<S> Default for Histogram<S> {
    fn default() -> Self {
        Histogram {
            samples: Vec::new(),
            bucket_width: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram without distribution buckets.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Creates an empty histogram whose snapshot carries fixed-width
    /// distribution buckets of `width` (same unit as the samples;
    /// `0` disables bucketing).
    pub fn with_bucket_width(width: u64) -> Self {
        Histogram {
            bucket_width: width,
            ..Histogram::default()
        }
    }
}

impl<S: Sample> Histogram<S> {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(S::from_u64(value));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The recorded samples, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().map(|v| v.to_u64())
    }

    /// Mean of all samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.iter().map(|v| v as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.iter().min()
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.iter().max()
    }

    /// Exact `p`-th percentile (nearest rank), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        select_percentile(&self.samples, p)
    }

    /// Freezes the accumulator into a serializable snapshot with exact
    /// percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_samples(self.bucket_width, self.iter())
    }
}

impl<S: Sample> Extend<u64> for Histogram<S> {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        self.samples.extend(iter.into_iter().map(S::from_u64));
    }
}

impl<S: Sample> FromIterator<u64> for Histogram<S> {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut h = Histogram::default();
        h.extend(iter);
        h
    }
}

/// The nearest-rank `p`-th percentile of `samples`, without copying
/// them: a most-significant-digit radix select. Each pass counts one
/// byte of the samples that share the bytes fixed so far and fixes the
/// byte whose running count passes the rank; bytes above every sample's
/// highest set bit are zero and cost no pass. One pass finds that bit,
/// then at most eight select; the samples keep their recording order.
fn select_percentile<S: Sample>(samples: &[S], p: f64) -> Option<u64> {
    let mut rank = nearest_rank(samples.len(), p)?;
    let high = samples.iter().fold(0, |acc, v| acc | v.to_u64());
    let mut shift = (u64::BITS - high.leading_zeros()).div_ceil(8) * 8;
    // The bits at and above `shift` are fixed, to those of `value`.
    let mut value = 0u64;
    while shift > 0 {
        shift -= 8;
        let fixed = u64::MAX.checked_shl(shift + 8).unwrap_or(0);
        let mut counts = [0usize; 256];
        for v in samples.iter().map(|v| v.to_u64()) {
            if v & fixed == value {
                counts[(v >> shift) as usize & 0xFF] += 1;
            }
        }
        let mut digit = 0;
        while rank >= counts[digit] {
            rank -= counts[digit];
            digit += 1;
        }
        value |= (digit as u64) << shift;
    }
    Some(value)
}

/// Frozen, serializable view of a [`Histogram`].
///
/// Serialization covers the summary fields and the distribution buckets;
/// the raw samples are retained in memory (for exact re-aggregation via
/// [`HistogramSnapshot::merged`]) but deliberately kept out of the JSON
/// dump to bound its size.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sample mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 with fewer than two samples).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: Option<u64>,
    /// Largest sample.
    pub max: Option<u64>,
    /// Exact 50th percentile (nearest rank).
    pub p50: Option<u64>,
    /// Exact 90th percentile.
    pub p90: Option<u64>,
    /// Exact 99th percentile.
    pub p99: Option<u64>,
    /// Exact 99.9th percentile.
    pub p999: Option<u64>,
    /// Width of the distribution buckets (0 = no buckets).
    pub bucket_width: u64,
    /// Non-empty `(bucket_start, count)` pairs in ascending order.
    pub buckets: Vec<(u64, u64)>,
    samples: Vec<u64>,
}

impl HistogramSnapshot {
    /// Summarizes a sample stream with `bucket_width`-wide distribution
    /// buckets (0 = no buckets).
    pub(crate) fn from_samples(
        bucket_width: u64,
        samples: impl IntoIterator<Item = u64>,
    ) -> HistogramSnapshot {
        // Welford's running mean and sum of squared deviations.
        let (mut count, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
        let samples: Vec<u64> = samples
            .into_iter()
            .inspect(|&v| {
                let x = v as f64;
                count += 1;
                let delta = x - mean;
                mean += delta / count as f64;
                m2 += delta * (x - mean);
            })
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let buckets = if bucket_width == 0 {
            Vec::new()
        } else {
            let runs = || sorted.chunk_by(|a, b| a / bucket_width == b / bucket_width);
            let mut buckets = Vec::with_capacity(runs().count());
            buckets.extend(runs().map(|run| (run[0] - run[0] % bucket_width, run.len() as u64)));
            buckets
        };
        let at = |p: f64| nearest_rank(sorted.len(), p).map(|i| sorted[i]);
        HistogramSnapshot {
            count,
            mean,
            std_dev: if count < 2 {
                0.0
            } else {
                (m2 / count as f64).sqrt()
            },
            min: sorted.first().copied(),
            max: sorted.last().copied(),
            p50: at(50.0),
            p90: at(90.0),
            p99: at(99.0),
            p999: at(99.9),
            bucket_width,
            buckets,
            samples,
        }
    }

    /// The raw samples behind this snapshot, in recording order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Exact `p`-th percentile recomputed from the raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        select_percentile(&self.samples, p)
    }

    /// Merges several snapshots into one by re-aggregating their raw
    /// samples (in iteration order), so percentiles of the merged view
    /// stay exact. The bucket width is taken from the first snapshot
    /// with a non-zero width.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a HistogramSnapshot>) -> HistogramSnapshot {
        let parts: Vec<&HistogramSnapshot> = parts.into_iter().collect();
        let width = parts.iter().map(|p| p.bucket_width).find(|&w| w != 0);
        let samples = parts.iter().flat_map(|p| p.samples.iter().copied());
        HistogramSnapshot::from_samples(width.unwrap_or(0), samples)
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), self.count.to_value()),
            ("mean".into(), self.mean.to_value()),
            ("std_dev".into(), self.std_dev.to_value()),
            ("min".into(), self.min.to_value()),
            ("max".into(), self.max.to_value()),
            ("p50".into(), self.p50.to_value()),
            ("p90".into(), self.p90.to_value()),
            ("p99".into(), self.p99.to_value()),
            ("p999".into(), self.p999.to_value()),
            ("bucket_width".into(), self.bucket_width.to_value()),
            ("buckets".into(), self.buckets.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The select against a sorted copy, on samples that are equal, span
    /// the whole `u64` range, sit on byte boundaries or are all zero: the
    /// live histogram, its snapshot's fields and the snapshot's own
    /// select all read the sorted copy's nearest-rank value, and the
    /// samples keep their recording order.
    #[test]
    fn select_matches_a_sorted_copy_and_keeps_order() {
        let mut x = 5u64;
        let mut random = |n: usize, shift: u32| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x >> shift
                })
                .collect()
        };
        let cases = [
            vec![0; 7],
            vec![42; 9],
            vec![u64::MAX, 0, u64::MAX, 1],
            vec![255, 256, 65_535, 65_536, 0, 1 << 56, (1 << 56) - 1],
            random(1_000, 0),
            random(999, 37),
            random(5_000, 44),
            random(3, 60),
        ];
        for samples in cases {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let at = |p: f64| Some(sorted[nearest_rank(sorted.len(), p).unwrap()]);
            let h: Histogram = samples.iter().copied().collect();
            let snap = h.snapshot();
            for p in [0.01, 1.0, 33.3, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                assert_eq!(h.percentile(p), at(p), "live p{p} of {samples:?}");
                assert_eq!(snap.percentile(p), at(p), "snapshot p{p} of {samples:?}");
            }
            assert_eq!(
                [snap.p50, snap.p90, snap.p99, snap.p999],
                [at(50.0), at(90.0), at(99.0), at(99.9)]
            );
            assert_eq!([h.min(), snap.min], [sorted.first().copied(); 2]);
            assert_eq!([h.max(), snap.max], [sorted.last().copied(); 2]);
            assert!(h.iter().eq(samples.iter().copied()));
            assert_eq!(snap.samples(), &samples[..]);
        }
    }

    /// The snapshot a recorder takes reads the same percentiles, min and
    /// max as the recorder's own live queries.
    #[test]
    fn percentiles_match_percentile_recorder() {
        let mut h = Histogram::new();
        let mut x = 17u64;
        for i in 0..5_000u64 {
            h.record(x % 1_000_000);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50, h.percentile(50.0));
        assert_eq!(snap.p90, h.percentile(90.0));
        assert_eq!(snap.p99, h.percentile(99.0));
        assert_eq!(snap.p999, h.percentile(99.9));
        assert_eq!(snap.min, h.min());
        assert_eq!(snap.max, h.max());
        for p in [0.1, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(snap.percentile(p), h.percentile(p), "p{p}");
            assert!(h.percentile(p).is_some(), "p{p}");
        }
        assert_eq!(Histogram::new().percentile(99.0), None);
    }

    #[test]
    fn queries_keep_recording_order() {
        let mut h: Histogram<u32> = Histogram::default();
        for v in [30, 10, 20] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
        assert_eq!(h.iter().collect::<Vec<_>>(), [30, 10, 20]);
        assert_eq!(h.snapshot().samples(), &[30, 10, 20]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let h: Histogram = (1..=1000u64).collect();
        assert_eq!(h.percentile(50.0), Some(500));
        assert_eq!(h.percentile(99.0), Some(990));
        assert_eq!(h.percentile(99.9), Some(999));
        assert_eq!(h.percentile(100.0), Some(1000));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), 500.5);
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn percentile_single_sample() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.percentile(0.1), Some(42));
        assert_eq!(h.percentile(100.0), Some(42));
    }

    #[test]
    fn narrow_samples_read_back_exactly_and_saturate() {
        let h: Histogram<u32> = [7, 3, u32::MAX as u64 + 5].into_iter().collect();
        assert_eq!(h.iter().collect::<Vec<_>>(), [7, 3, u32::MAX as u64]);
        assert_eq!(h.percentile(50.0), Some(7));
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(u32::MAX as u64));
    }

    #[test]
    fn recorder_interleaves_record_and_query() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.percentile(100.0), Some(10));
        h.record(5);
        assert_eq!(h.percentile(100.0), Some(10));
        assert_eq!(h.min(), Some(5));
    }

    #[test]
    fn buckets_partition_samples() {
        let mut h = Histogram::with_bucket_width(100);
        for v in [0, 99, 100, 250, 251, 900] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 2), (100, 1), (200, 2), (900, 1)]);
        assert_eq!(
            snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            snap.count
        );
    }

    #[test]
    fn merged_is_exact() {
        let a = HistogramSnapshot::from_samples(250, [100, 900]);
        let b = HistogramSnapshot::from_samples(250, [500]);
        let m = HistogramSnapshot::merged([&a, &b]);
        assert_eq!(m.count, 3);
        assert_eq!(m.p50, Some(500));
        assert_eq!(m.max, Some(900));
        assert_eq!(m.bucket_width, 250);
        assert_eq!(m.samples(), &[100, 900, 500]);
    }

    #[test]
    fn serialization_skips_raw_samples() {
        let snap = HistogramSnapshot::from_samples(250, [1, 2, 3]);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"p999\""));
        assert!(!json.contains("samples"));
    }

    #[test]
    fn empty_snapshot_is_all_none() {
        let h = Histogram::new();
        assert_eq!([h.percentile(99.0), h.min(), h.max()], [None; 3]);
        assert_eq!(h.mean(), 0.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p999, None);
        assert!(snap.buckets.is_empty());
    }
}
