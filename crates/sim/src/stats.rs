//! Percentiles of measured samples.
//!
//! Used throughout the workspace to summarize power samples, phase
//! durations, bootstrap distributions and benchmark outputs.

/// Percentile of a slice using linear interpolation between order statistics.
///
/// `q` is in `[0, 1]`. The input need not be sorted (a sorted copy is made).
/// Returns `None` for an empty slice or when any observation is NaN — a
/// percentile over unordered data has no defined value, and callers
/// summarizing measured samples should treat it like missing data rather
/// than crash mid-campaign.
///
/// # Panics
/// Panics if `q` itself is outside `[0, 1]` (a caller bug, not a data
/// problem).
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered above"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
    }

    #[test]
    fn percentile_nan_input_is_none_not_panic() {
        assert_eq!(percentile(&[1.0, f64::NAN, 3.0], 0.5), None);
        assert_eq!(percentile(&[f64::NAN], 0.0), None);
        // Infinities are ordered and fine.
        assert_eq!(
            percentile(&[f64::NEG_INFINITY, 0.0, f64::INFINITY], 1.0),
            Some(f64::INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "q must be in [0,1]")]
    fn percentile_rejects_bad_q() {
        let _ = percentile(&[1.0], 1.5);
    }

    mod percentile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For *any* float slice (NaN and infinities included) and any
            /// valid `q`, `percentile` never panics; it returns `Some` iff
            /// the input is non-empty and NaN-free, and the value is then
            /// bracketed by the slice's min and max.
            #[test]
            fn percentile_total_over_arbitrary_floats(
                xs in prop::collection::vec(
                    prop_oneof![
                        any::<f64>(),
                        (0u8..1).prop_map(|_| f64::NAN),
                        (0u8..1).prop_map(|_| f64::INFINITY),
                        (0u8..1).prop_map(|_| f64::NEG_INFINITY),
                    ],
                    0..32,
                ),
                q in 0.0f64..1.0,
            ) {
                let got = percentile(&xs, q);
                let clean = !xs.is_empty() && xs.iter().all(|x| !x.is_nan());
                prop_assert_eq!(got.is_some(), clean);
                // Interpolating between -inf and +inf order statistics is
                // the one case a NaN-free input can still produce NaN.
                if let Some(v) = got.filter(|v| !v.is_nan()) {
                    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}]");
                }
            }
        }
    }
}
