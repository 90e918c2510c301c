//! Order statistics over per-call samples.

/// Fewest samples that must lie above a reported tail percentile. A tail
/// read from fewer samples is mostly one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile (1..=99) of `xs`.
///
/// Refuses (`Err`) when fewer than [`MIN_TAIL_SAMPLES`] samples rank above
/// it: 100 samples are the least that carry a p90.
pub fn tail_percentile(xs: &[f64], pct: usize) -> Result<f64, String> {
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    let n = xs.len();
    // 1-based nearest rank: ceil(pct * n / 100), computed in integers so
    // that e.g. p90 of 100 samples is exactly rank 90.
    let rank = (pct * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed"
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90), Ok(90.0));
        let ninety_nine = &hundred[..99];
        assert!(tail_percentile(ninety_nine, 90).is_err());
        assert!(tail_percentile(&[], 90).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99), Ok(990.0));
        assert!(tail_percentile(&hundred, 99).is_err());
    }
}
