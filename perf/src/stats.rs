//! Reducers: median and quartiles over repetitions, and latency
//! percentiles taken per fixed window and then reduced by the median
//! over windows, so that one scheduler stall moves one window and not
//! the reported figure.

/// Median of `values` (mean of the middle two for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method): needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread the driver
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The value `share` of the way in from the small end of `values`
/// (nearest rank: the smallest value with at least `share` of the
/// samples at or below it). `None` for an empty slice.
pub fn quantile(values: &[f64], share: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (share * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The `p`-quantile (0 < p < 1) of an already sorted slice, nearest
/// rank: the smallest value with at least `p` of the samples at or
/// below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles of one window of latency samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStats {
    pub samples: usize,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// Splits `(due_ns, latency_ns)` samples into windows of `window_ns` by
/// due instant, starting at `from_ns`, and takes each window's
/// percentiles. Samples due before `from_ns` are discarded (warm-up);
/// a window with fewer than `min_samples` samples is dropped, so a
/// trailing partial window cannot report a p99 with nothing beyond it.
pub fn windowed(
    samples: &[(u64, u64)],
    from_ns: u64,
    window_ns: u64,
    min_samples: usize,
) -> Vec<WindowStats> {
    assert!(window_ns > 0, "window length must be positive");
    let mut buckets: Vec<Vec<u64>> = Vec::new();
    for &(due, lat) in samples {
        if due < from_ns {
            continue;
        }
        let w = ((due - from_ns) / window_ns) as usize;
        if buckets.len() <= w {
            buckets.resize_with(w + 1, Vec::new);
        }
        buckets[w].push(lat);
    }
    buckets
        .into_iter()
        .filter(|b| b.len() >= min_samples.max(1))
        .map(|mut b| {
            b.sort_unstable();
            WindowStats {
                samples: b.len(),
                p50: percentile_sorted(&b, 0.50),
                p95: percentile_sorted(&b, 0.95),
                p99: percentile_sorted(&b, 0.99),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn quantile_is_nearest_rank_from_the_small_end() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), Some(2.0));
        assert_eq!(quantile(&v, 0.90), Some(18.0));
        assert_eq!(quantile(&[5.0], 0.10), Some(5.0));
        assert_eq!(quantile(&[], 0.10), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_window_median() {
        // Four windows of 1000 samples at 1 ms; the third holds a stall
        // that lifts 5% of its samples to 100 ms.
        let mut samples = Vec::new();
        for w in 0..4u64 {
            for i in 0..1000u64 {
                let lat = if w == 2 && i < 50 {
                    100_000_000
                } else {
                    1_000_000
                };
                samples.push((500 + w * 1000 + i, lat));
            }
        }
        // 300 warm-up samples before `from_ns` must be ignored.
        samples.extend((0..300u64).map(|i| (i, 900_000_000)));
        let ws = windowed(&samples, 500, 1000, 100);
        assert_eq!(ws.len(), 4);
        assert!(ws.iter().all(|w| w.samples == 1000 && w.p50 == 1_000_000));
        assert_eq!(ws[2].p99, 100_000_000);
        let p99s: Vec<f64> = ws.iter().map(|w| w.p99 as f64).collect();
        assert_eq!(median(&p99s), Some(1_000_000.0));
    }

    #[test]
    fn short_trailing_window_is_dropped() {
        let samples: Vec<(u64, u64)> = (0..1050u64).map(|i| (i, 5)).collect();
        let ws = windowed(&samples, 0, 1000, 100);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].samples, 1000);
    }
}
