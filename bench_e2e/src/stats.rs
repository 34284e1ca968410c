//! Order statistics over latency samples, and the run-to-run spread the
//! acceptance rule uses (distance between the first and third quartile as a
//! share of the median — the same definition as Python's
//! `statistics.quantiles(values, n=4)`).

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between the
/// two nearest ranks. `None` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sort a copy of `values` ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Median of `values`; 0 when empty (a metric that does not apply).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5).unwrap_or(0.0)
}

/// Percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile(&sorted(values), p / 100.0).unwrap_or(0.0)
}

/// The highest of p99/p95/p90/p75 that still has at least ten samples beyond
/// it — the percentile the sample count supports. Falls back to p50.
pub fn supported_percentile(samples: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` defaults to: rank `k·(n+1)/4`,
/// interpolated between the neighbouring samples (extrapolated past the ends
/// for tiny samples, as Python does).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: f64| {
        let pos = k * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1.0), at(3.0)))
}

/// Interquartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 96.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(5), 50.0);
        assert_eq!(supported_percentile(40), 75.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(1000), 99.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert!(quartiles(&[3.0]).is_none());
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }
}
