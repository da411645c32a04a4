//! Order statistics the metrics are built from: percentiles with the
//! ten-samples-beyond rule, medians, per-window counts, and the quartiles
//! the comparison tool reports.

/// Fewest samples that must lie beyond a percentile for it to be reported
/// without a warning (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `p` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Whether a `p`-th percentile over `n` samples has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How many of `times` fall into each of `windows` consecutive windows of
/// `width`, the first starting at `from`. A time outside every window is not
/// counted.
pub fn window_counts(
    times: impl IntoIterator<Item = f64>,
    from: f64,
    width: f64,
    windows: usize,
) -> Vec<usize> {
    let mut counts = vec![0; windows];
    for time in times {
        let window = ((time - from) / width).floor();
        if window >= 0.0 && (window as usize) < windows {
            counts[window as usize] += 1;
        }
    }
    counts
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the comparison tool and the driver agree on a spread.
///
/// Needs at least two samples; one sample reads as all three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let at = |i: usize| -> f64 {
        // j/delta as in CPython: position i*(n+1)/4 in 1-based order.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples for ten beyond it, p90 needs 100.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(100, 0.90));
        assert!(!percentile_supported(99, 0.90));
        assert!(percentile_supported(20, 0.50));
        assert!(!percentile_supported(19, 0.50));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn the_window_median_steps_over_a_stall() {
        // Ten completions a second for five seconds, but for a stall in the
        // third second; completions before and after the windows are left out.
        let mut times: Vec<f64> = (0..50).map(|i| 10.0 + f64::from(i) * 0.1).collect();
        times.retain(|t| !(12.2..13.0).contains(t));
        times.extend([9.95, 15.0, 15.3]);
        let counts = window_counts(times, 10.0, 1.0, 5);
        assert_eq!(counts, [10, 10, 2, 10, 10]);
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / 1.0).collect();
        assert_eq!(median(&rates), 10.0);
        assert_eq!(window_counts([1.0, 2.0], 0.0, 1.0, 0), Vec::<usize>::new());
    }

    #[test]
    fn medians_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
