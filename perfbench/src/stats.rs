//! Order statistics over latency samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `sorted`, interpolating linearly
/// between the two nearest ranks (`h = (len − 1)·p`). `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        len => {
            let h = (len - 1) as f64 * p.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Sorts a copy of `values` (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The highest percentile of the ladder p90, p99, p99.9, p99.99 that has
/// at least `min_beyond` samples strictly above it: `(percentile label, value,
/// samples beyond)`. `None` when even p90 has too few.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<(&'static str, f64, usize)> {
    const LADDER: [(&str, f64); 4] = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.9),
    ];
    LADDER.iter().find_map(|&(label, p)| {
        let value = percentile(sorted, p);
        let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
        (beyond >= min_beyond).then_some((label, value, beyond))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 10.0);
        assert_eq!(percentile(&data, 0.5), 5.5);
        assert!((percentile(&data, 0.9) - 9.1).abs() < 1e-12);
        assert!((percentile(&data, 0.1) - 1.9).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[7.0], 0.3), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_enough_samples() {
        let data: Vec<f64> = (0..1000).map(f64::from).collect();
        let (label, value, beyond) = tail(&data, 10).unwrap();
        assert_eq!((label, beyond), ("p99", 10));
        assert!((value - 989.01).abs() < 1e-9);
        let (label, _, beyond) = tail(&data[..200], 10).unwrap();
        assert_eq!((label, beyond), ("p90", 20));
        assert!(tail(&data[..50], 10).is_none());
    }
}
