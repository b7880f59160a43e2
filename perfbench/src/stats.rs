//! Percentiles and small summaries over latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
/// Returns `NaN` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples of `n` lie strictly beyond the nearest-rank `p`
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((n as f64) * p).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The highest of the usual tail percentiles (p99.9, p99, p90, p50) that
/// still has at least [`MIN_BEYOND`] of `n` samples beyond it, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values` (nearest rank), `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean, `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `p` percentile of `values` in any order; `0` when there are none, which
/// is how an unexercised layer reports.
pub fn pct_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), p)
    }
}

/// The `p` percentile of the least disturbed window: `in_order` is cut
/// into consecutive windows of `window` samples (a short last one is
/// dropped) and the lowest per-window percentile is returned.
///
/// The hosts this runs on are shared: a neighbour's burst can stall a
/// server's threads for tens of milliseconds, which lands in a tail
/// percentile of whichever window it hits, while the least disturbed
/// window is what repeats from run to run. A slower program is slower in
/// every window, so the best one still shows it.
pub fn best_window(in_order: &[f64], window: usize, p: f64) -> f64 {
    assert!(
        window > 0 && in_order.len() >= window,
        "need at least one window of {window} samples, have {}",
        in_order.len()
    );
    in_order
        .chunks_exact(window)
        .map(|w| percentile(&sorted(w), p))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn best_window_ignores_disturbed_windows() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        // A stall in the first window, a slow host in the second.
        for x in &mut v[..50] {
            *x = 1e4;
        }
        for x in &mut v[1000..2000] {
            *x *= 1.4;
        }
        assert_eq!(best_window(&v, 1000, 0.99), 98.0);
        assert_eq!(percentile(&sorted(&v), 0.99), 1e4);
        // A short last window is dropped, not judged on too few samples.
        assert_eq!(
            best_window(&v[..2500], 1000, 0.5),
            best_window(&v[..2000], 1000, 0.5)
        );
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th value, 10 lie beyond it; p99.9
        // would leave only 1.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 99, 100, 101, 999, 1000, 1001, 12_345] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }
}
