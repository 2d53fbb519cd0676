//! Order statistics used by both binaries and by `repsperf compare`.

/// Sorts `values` ascending (no NaNs are ever measured).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]`; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.9 × 100 at rank 90 despite binary rounding.
    let rank = (p * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether a sample of `n` supports percentile `p`: a tail percentile is
/// only reported with at least ten samples beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) + 1e-9 >= 10.0
}

/// The highest percentile of the ladder 99/95/90/75/50 that is at most `p`
/// and that the sample supports (the median when none is) — so a tail
/// metric stays defined, and says nothing it cannot back, on workloads with
/// few samples.
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&q| q <= p && supports(values.len(), q))
        .map_or_else(|| median(values), |q| percentile(values, q))
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the driver's definition of spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        // 330 cells back a p90 and a p95 but no p99, which steps down to p95.
        let v: Vec<f64> = (1..=330).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 0.9), 297.0);
        assert_eq!(supported_percentile(&v, 0.99), percentile(&v, 0.95));
        // Six cells back nothing beyond the median.
        assert_eq!(
            supported_percentile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.9),
            3.5
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(spread(&v), 1.0);
    }
}
