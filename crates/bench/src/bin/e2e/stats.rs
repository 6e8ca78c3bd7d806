//! Order statistics shared by the workloads and `compare`.

/// Sorts a copy of `values` (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
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

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones an external checker
/// computes from the same values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The interquartile range as a share of the median (0 when the median
/// is 0, which only exact all-zero sets reach).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Percentiles a latency report may quote, lowest first.
const PERCENTILE_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile on the ladder that has at least ten samples
/// beyond it in a sample of `n`, or `None` when not even the median does.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no values");
    let rank = (p / 100.0 * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// The fast end of a set of times of identical work: the 5th percentile
/// by nearest rank, which is the fastest when there are at most 20.
/// Other tenants of a shared host only ever slow work down, in spells
/// of seconds; this estimate tracks the program rather than them.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fast(times: &[f64]) -> f64 {
    percentile(&sorted(times), 5.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython's statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0, 9.0, 9.0]);
        let spread_ten = spread(&ten);
        assert!((spread_ten - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 5]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(96_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn fast_end_is_the_minimum_below_twenty_samples() {
        assert_eq!(fast(&[3.0, 1.0, 2.0]), 1.0);
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(fast(&forty), 2.0);
    }
}
