//! Summary statistics over raw samples: median, quartiles and percentiles.
//!
//! Percentiles follow the nearest-rank rule and are reported only when at
//! least [`MIN_BEYOND`] samples lie beyond them, so a "p99" always rests on
//! ten or more observations slower than itself.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending (NaN-free input assumed; failures are
/// encoded as `+inf`, which sorts last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile with the same "exclusive" rule as
/// Python's `statistics.quantiles(xs, n=4)`; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank `p`-th percentile of ascending `sorted_xs`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted_xs: &[f64], p: f64) -> Option<f64> {
    let n = sorted_xs.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted_xs[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert_eq!(percentile(&xs[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_sort_last_and_miss_every_percentile_they_reach() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let s = sorted(&xs);
        assert_eq!(percentile(&s, 50.0), Some(60.0));
        assert_eq!(percentile(&s, 90.0), Some(f64::INFINITY));
    }
}
