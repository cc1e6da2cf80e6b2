//! Estimators chosen to repeat on a shared two-core host: medians and
//! order statistics, never a whole-window mean.

/// Median (mean of the two middle values for an even count). NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the driver's spread uses these.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |k: usize| {
        // As the Python source: clamp the index, then take the remainder
        // against the clamped index (it extrapolates for tiny samples).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let rem = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - rem) + v[j] * rem) / 4.0
    };
    (at(1), at(3))
}

/// Throughput per slice: the completion times (seconds from the start of
/// the window, in completion order) are cut into `slices` runs of equal
/// unit count and each run's units are divided by the time it spanned.
/// The caller takes the median, so a neighbour's burst that hits fewer
/// than half the slices does not move the result.
pub fn slice_rates(done_s: &[f64], slices: usize) -> Vec<f64> {
    let per = done_s.len() / slices.max(1);
    if per == 0 {
        return Vec::new();
    }
    (0..slices)
        .map(|k| {
            let start = if k == 0 { 0.0 } else { done_s[k * per - 1] };
            per as f64 / (done_s[(k + 1) * per - 1] - start)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(v, n=4) → [q1, _, q3]
        let v: Vec<f64> = (0..10).map(|k| f64::from(1 << k)).collect();
        assert_eq!(quartiles(&v), (3.5, 160.0));
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[1.0, 5.0, 2.0, 9.0, 4.0]), (1.5, 7.0));
    }

    #[test]
    fn slice_rates_divide_equal_counts_by_their_spans() {
        let done = [1.0, 2.0, 4.0, 6.0];
        assert_eq!(slice_rates(&done, 2), vec![1.0, 0.5]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }
}
