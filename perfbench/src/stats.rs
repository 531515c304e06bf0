//! Order statistics for the benchmark's timings.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise "p90" of a handful of batches is just the worst
//! one, and the benchmark refuses to print it.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples that make percentile `q` (in `(0, 1)`) reportable.
#[must_use]
pub fn min_samples_for(q: f64) -> usize {
    (1..=1_000_000)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Nearest-rank index (1-based) of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` sorted samples lie beyond the nearest-rank percentile.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The nearest-rank percentile `q` of `values`.
///
/// # Errors
///
/// Refuses when `q` is outside `(0, 1)`, when a value is not finite, or
/// when fewer than [`MIN_BEYOND`] samples would lie beyond the result.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err("percentile over a non-finite sample".to_string());
    }
    let n = values.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs at least {} samples so that {MIN_BEYOND} lie beyond it, got {n}",
            q * 100.0,
            min_samples_for(q)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, q) - 1])
}

/// The median of `values` (mean of the middle pair for even counts), or
/// `None` when empty. Used for repeated set-up times, where no tail is
/// reported.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        let err = percentile(&ramp(99), 0.9).unwrap_err();
        assert!(err.contains("at least 100"), "{err}");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
    }

    #[test]
    fn percentile_ignores_input_order_and_refuses_bad_input() {
        let mut values = ramp(200);
        values.reverse();
        assert_eq!(percentile(&values, 0.9), Ok(180.0));
        assert!(percentile(&values, 1.0).is_err());
        assert!(percentile(&values, 0.0).is_err());
        values[3] = f64::NAN;
        assert!(percentile(&values, 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
