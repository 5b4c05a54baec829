//! Order statistics used by the harness and by `compare`: median and
//! quartiles over repetition values, and nearest-rank percentiles over
//! latency samples with the "ten samples beyond it" guard.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_GUARD: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method), because that is what the acceptance check applies to the
/// same numbers. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the spread figure the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Run-to-run spread estimated from inside one run: the values, in the
/// order they were measured, are cut into `blocks` consecutive blocks (fewer
/// if there are fewer values) and the spread is taken over the blocks'
/// medians. What two runs compare is a median over all repetitions; this is
/// how far the median of a fifth of a run moves, slow drift included, and —
/// unlike the spread of single repetitions — it narrows when a run repeats
/// more.
pub fn block_spread(values: &[f64], blocks: usize) -> f64 {
    let blocks = blocks.clamp(1, values.len());
    let medians: Vec<f64> = (0..blocks)
        .map(|b| median(&values[b * values.len() / blocks..(b + 1) * values.len() / blocks]))
        .collect();
    spread(&medians)
}

/// Nearest-rank percentile (`per_mille` in 1..=1000) of an ascending
/// sample, refused unless at least [`TAIL_GUARD`] samples lie strictly
/// beyond the chosen rank — a p99.9 over fewer than 10,000 samples would
/// be decided by a handful of points. The median (`per_mille <= 500`) is
/// exempt from the guard.
pub fn percentile_guarded(ascending: &[u64], per_mille: u32) -> Result<u64, String> {
    assert!((1..=1000).contains(&per_mille), "per-mille out of range");
    let n = ascending.len();
    if n == 0 {
        return Err("empty latency sample".into());
    }
    debug_assert!(ascending.windows(2).all(|w| w[0] <= w[1]));
    let rank = (n as u64 * u64::from(per_mille)).div_ceil(1000).max(1) as usize;
    let beyond = n - rank;
    if per_mille > 500 && beyond < TAIL_GUARD {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it (need {TAIL_GUARD})",
            per_mille as f64 / 10.0
        ));
    }
    Ok(ascending[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn block_spread_is_taken_over_block_medians() {
        // Fewer values than blocks: every value is its own block.
        let few = [10.0, 20.0, 40.0];
        assert_eq!(block_spread(&few, 5), spread(&few));
        // 50 repetitions that swing +-14 % around 100, in blocks of 10: every
        // block has the same median.
        let noisy: Vec<f64> = (0..50)
            .map(|i| 100.0 + f64::from(i % 5 - 2) * 7.0)
            .collect();
        assert!(spread(&noisy) > 0.1);
        assert_eq!(block_spread(&noisy, 5), 0.0);
        // A drift from 100 to 140 across the run survives the blocks.
        let drift: Vec<f64> = (0..40).map(|i| 100.0 + f64::from(i)).collect();
        assert!(block_spread(&drift, 5) > 0.1);
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        let enough: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile_guarded(&enough, 999), Ok(9_990));
        assert_eq!(percentile_guarded(&enough, 500), Ok(5_000));
        let short: Vec<u64> = (1..=9_999).collect();
        let err = percentile_guarded(&short, 999).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");
        // The median is never refused, whatever the sample size.
        assert_eq!(percentile_guarded(&[5, 6, 7], 500), Ok(6));
        assert!(percentile_guarded(&[], 500).is_err());
    }
}
