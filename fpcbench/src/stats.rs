//! Order statistics and the paper's throughput aggregation.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank 25th percentile of unsorted `values`: the time an
/// operation takes when the shared host is not slowing it. On a host whose
/// other tenants stall the benchmark for seconds at a time, it repeats run
/// to run far better than the median (2-4% against 6-9% between runs), and
/// it still moves with every change to the work itself.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 25.0)
}

/// Nearest-rank percentile `p` of `(value, weight)` pairs: the smallest
/// value whose cumulative weight reaches `p`% of the total; 0 when empty.
/// With equal weights it is [`percentile`].
pub fn weighted_percentile(cells: &[(f64, f64)], p: f64) -> f64 {
    let mut v = cells.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = p / 100.0 * v.iter().map(|c| c.1).sum::<f64>();
    let mut acc = 0.0;
    for &(value, weight) in &v {
        acc += weight;
        if acc >= target {
            return value;
        }
    }
    v.last().map_or(0.0, |c| c.0)
}

/// Samples that lie strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A tail percentile is reported only with at least this many samples
/// beyond it; fewer make it the maximum of a handful of outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Whether percentile `p` of `n` samples has enough samples beyond it.
pub fn tail_eligible(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The paper's aggregation (§4): one value per file, the geometric mean
/// over each suite's files, then the geometric mean across suites. Rows
/// are `(suite index, file value)`.
pub fn suite_geomean(rows: &[(usize, f64)]) -> f64 {
    let suites = rows.iter().map(|r| r.0 + 1).max().unwrap_or(0);
    let per_suite: Vec<f64> = (0..suites)
        .filter_map(|s| {
            let files: Vec<f64> = rows.iter().filter(|r| r.0 == s).map(|r| r.1).collect();
            (!files.is_empty()).then(|| geomean(&files))
        })
        .collect();
    geomean(&per_suite)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, which is how run-to-run spread is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = i as f64 * m as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_eligibility_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert!(tail_eligible(1000, 99.0));
        assert!(!tail_eligible(999, 99.0));
        assert!(!tail_eligible(500, 99.0));
        assert!(tail_eligible(200, 95.0));
        assert!(!tail_eligible(199, 95.0));
        assert!(!tail_eligible(0, 50.0));
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn weighted_percentile_follows_the_weights() {
        let sorted: Vec<f64> = (1..=56).map(f64::from).collect();
        let equal: Vec<(f64, f64)> = sorted.iter().rev().map(|&v| (v, 1.0)).collect();
        for p in [25.0, 50.0, 95.0, 99.0] {
            assert_eq!(weighted_percentile(&equal, p), percentile(&sorted, p));
        }
        // A 1 ms cell drawn 90% of the time and a 10 ms cell drawn 10%:
        // the median is the common cell, p95 the rare one.
        let mix = [(10.0, 0.1), (1.0, 0.9)];
        assert_eq!(weighted_percentile(&mix, 50.0), 1.0);
        assert_eq!(weighted_percentile(&mix, 90.0), 1.0);
        assert_eq!(weighted_percentile(&mix, 95.0), 10.0);
        assert_eq!(weighted_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn suite_geomean_matches_hand_computed_table() {
        // Suite 0: files at 1 and 4 GB/s -> 2; suite 1: one file at 8 GB/s.
        // Across suites: sqrt(2 * 8) = 4, not the file-weighted mean.
        let rows = [(0, 1.0), (0, 4.0), (1, 8.0)];
        assert!((suite_geomean(&rows) - 4.0).abs() < 1e-12);
        // Per file: bytes over the lower quartile of that file's timings,
        // which a stalled repetition (9.0, 4.0) does not move.
        let timings = [[2.0, 9.0, 1.0, 2.0], [0.5, 0.25, 4.0, 0.5]];
        let rows: Vec<(usize, f64)> = timings
            .iter()
            .enumerate()
            .map(|(s, t)| (s, 4.0 / lower_quartile(t)))
            .collect();
        assert!((suite_geomean(&rows) - (4.0f64 * 16.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
