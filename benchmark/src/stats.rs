//! Order statistics for timing samples.

/// Fewest timed iterations a reported p75 may rest on: with 40 samples
/// the 75th percentile has ten samples beyond it.
pub const MIN_TIMED_SAMPLES: usize = 40;

/// Median, upper quartile and totals of one set of timing samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p75: f64,
    pub total: f64,
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unordered samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Summarise `samples`, refusing fewer than `min_samples` of them: a
/// percentile of too few samples is one outlier's value.
pub fn summarize(samples: &[f64], min_samples: usize) -> Result<Summary, String> {
    if samples.len() < min_samples.max(1) {
        return Err(format!(
            "{} samples, need at least {}",
            samples.len(),
            min_samples.max(1)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Summary {
        n: sorted.len(),
        p50: quantile_sorted(&sorted, 0.5),
        p75: quantile_sorted(&sorted, 0.75),
        total: samples.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p75_of_a_known_ramp() {
        let samples: Vec<f64> = (1..=41).rev().map(f64::from).collect();
        let s = summarize(&samples, MIN_TIMED_SAMPLES).unwrap();
        assert_eq!(s.n, 41);
        assert_eq!(s.p50, 21.0);
        assert_eq!(s.p75, 31.0);
        assert_eq!(s.total, 861.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn fewer_than_forty_samples_are_rejected() {
        let samples = vec![1.0; MIN_TIMED_SAMPLES - 1];
        assert!(summarize(&samples, MIN_TIMED_SAMPLES).is_err());
        assert!(summarize(&[], 0).is_err());
        assert!(summarize(&samples, 2).is_ok());
    }
}
