//! Registry histograms: moments, exact percentiles and optional
//! fixed-width distribution buckets.
//!
//! A [`Histogram`] is the live accumulator components record into; a
//! [`HistogramSnapshot`] is the frozen, serializable summary published into
//! a [`crate::MetricsSnapshot`]. A summary is built in one pass over the
//! samples in recording order, which feeds [`dcsim::StreamingStats`] and
//! keeps the copy that merging re-reads (merged moments depend on that
//! order), plus one sorted copy for min, max, percentiles and buckets.
//! A single percentile of a live histogram or a snapshot copies nothing.

use dcsim::{nearest_rank, StreamingStats};
use serde::{Serialize, Value};

/// Live histogram accumulator (typically over latencies in nanoseconds).
///
/// # Examples
///
/// ```
/// use telemetry::Histogram;
///
/// let mut h = Histogram::with_bucket_width(250);
/// for v in [100, 200, 300, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(99.0), Some(400));
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.p50, Some(200));
/// assert_eq!(snap.buckets, vec![(0, 2), (250, 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    bucket_width: u64,
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

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
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
        HistogramSnapshot::from_samples(self.bucket_width, self.samples.iter().copied())
    }
}

/// The nearest-rank `p`-th percentile of `samples`, without copying
/// them: a most-significant-digit radix select. Each pass counts one
/// byte of the samples that share the bytes fixed so far and fixes the
/// byte whose running count passes the rank; bytes above every sample's
/// highest set bit are zero and cost no pass. One pass finds that bit,
/// then at most eight select; the samples keep their recording order.
fn select_percentile(samples: &[u64], p: f64) -> Option<u64> {
    let mut rank = nearest_rank(samples.len(), p)?;
    let high = samples.iter().fold(0, |acc, &v| acc | v);
    let mut shift = (u64::BITS - high.leading_zeros()).div_ceil(8) * 8;
    // The bits at and above `shift` are fixed, to those of `value`.
    let mut value = 0u64;
    while shift > 0 {
        shift -= 8;
        let fixed = u64::MAX.checked_shl(shift + 8).unwrap_or(0);
        let mut counts = [0usize; 256];
        for &v in samples.iter().filter(|&&v| v & fixed == value) {
            counts[(v >> shift) as usize & 0xFF] += 1;
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
        let mut moments = StreamingStats::new();
        let samples: Vec<u64> = samples
            .into_iter()
            .inspect(|&v| moments.record(v as f64))
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
            count: moments.count(),
            mean: moments.mean(),
            std_dev: moments.std_dev(),
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
    use dcsim::PercentileRecorder;

    #[test]
    fn percentiles_match_percentile_recorder() {
        let mut h = Histogram::new();
        let mut r = PercentileRecorder::new();
        let mut x = 17u64;
        for i in 0..5_000u64 {
            let v = x % 1_000_000;
            h.record(v);
            r.record(v);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50, r.percentile(50.0));
        assert_eq!(snap.p90, r.percentile(90.0));
        assert_eq!(snap.p99, r.percentile(99.0));
        assert_eq!(snap.p999, r.percentile(99.9));
        assert_eq!(snap.min, r.min());
        assert_eq!(snap.max, r.max());
        for p in [0.1, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), r.percentile(p), "live p{p}");
            assert_eq!(snap.percentile(p), r.percentile(p), "snapshot p{p}");
        }
        assert_eq!(Histogram::new().percentile(99.0), None);
    }

    /// The select against a sorted copy, on samples that are equal, span
    /// the whole `u64` range, sit on byte boundaries or are all zero, and
    /// the samples keep their recording order.
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
            random(3, 60),
        ];
        for samples in cases {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [0.01, 1.0, 33.3, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let rank = nearest_rank(sorted.len(), p).unwrap();
                assert_eq!(
                    select_percentile(&samples, p),
                    Some(sorted[rank]),
                    "p{p} of {samples:?}"
                );
            }
        }
        let mut h = Histogram::new();
        for v in [30, 10, 20] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.snapshot().samples(), &[30, 10, 20]);
    }

    #[test]
    fn moments_match_streaming_stats() {
        let xs = [2u64, 4, 4, 4, 5, 5, 7, 9];
        let mut h = Histogram::new();
        let mut s = StreamingStats::new();
        for &v in &xs {
            h.record(v);
            s.record(v as f64);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, s.count());
        assert!((snap.mean - s.mean()).abs() < 1e-12);
        assert!((snap.std_dev - s.std_dev()).abs() < 1e-12);
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
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p999, None);
        assert!(snap.buckets.is_empty());
    }
}
