//! Order statistics over latency samples and run-to-run values.

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported percentile: with fewer, the
/// value is one scheduler hiccup, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of an ascending sample, with its
/// index; `None` when the sample is empty.
fn nearest_rank_at(sorted: &[f64], p: f64) -> Option<(usize, f64)> {
    assert!((0.0..100.0).contains(&p), "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    sorted.get(idx).map(|v| (idx, *v))
}

/// Nearest-rank percentile without the thin-tail rule (`--quick` only).
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    nearest_rank_at(sorted, p).map(|(_, v)| v)
}

/// The `p`-th percentile (nearest rank) of an ascending sample. Refuses
/// (`None`) when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (idx, v) = nearest_rank_at(sorted, p)?;
    (sorted.len() - 1 - idx >= MIN_BEYOND).then_some(v)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method) — the rule the driver applies to ten runs.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Distance between first and third quartile as a share of the median;
/// 0 for a single value (nothing to spread).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, ten samples beyond — just enough.
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // One sample fewer and the tail is too thin.
        assert_eq!(percentile(&v[..199], 95.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
