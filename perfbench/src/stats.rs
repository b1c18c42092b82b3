//! Summary statistics over host-time samples.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`, together
/// with how many samples lie strictly beyond it in rank order.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// The p90 of `samples`, reported only where at least ten samples lie
/// beyond it; a tail estimated from fewer says nothing about the tail.
pub fn p90_if_supported(samples: &[f64]) -> Option<f64> {
    percentile(samples, 90.0).and_then(|(v, beyond)| (beyond >= 10).then_some(v))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some((9.0, 1)));
        assert_eq!(percentile(&xs, 100.0), Some((10.0, 0)));
        assert_eq!(percentile(&xs, 50.0), Some((5.0, 5)));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // ceil(0.9 * 99) = 90 -> only 9 samples beyond: omitted.
        assert_eq!(p90_if_supported(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // ceil(0.9 * 100) = 90 -> 10 samples beyond: reported.
        assert_eq!(p90_if_supported(&hundred), Some(90.0));
        assert_eq!(p90_if_supported(&[]), None);
    }
}
