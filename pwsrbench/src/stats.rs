//! Small statistics helpers: means, medians and quantiles.

/// Mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty. Sorts in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile (`q` in `[0, 1]`) of `values`, interpolated
/// linearly between the two nearest ranks; `None` when empty. Sorts in
/// place.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(values[lo] + (values[hi] - values[lo]) * (at - lo as f64))
}

/// The `q`-quantile (`q` in `[0, 1]`) of latency samples in
/// nanoseconds, by nearest rank; `None` when empty. Sorts in place.
pub fn quantile_ns(samples: &mut [u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1] as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut v, 0.9), Some(4.6));
        assert_eq!(quantile(&mut v, 1.0), Some(5.0));
        assert_eq!(quantile(&mut [7.0], 0.9), Some(7.0));
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile_ns(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile_ns(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile_ns(&mut [], 0.5), None);
    }
}
