//! Byte-exact number writers for response bodies.
//!
//! [`push_fixed6`], [`push_sci9`] and [`push_u64`] append exactly the
//! bytes `format!("{:.6}")`, `format!("{:.9e}")` and `format!("{}")`
//! produce, without going through `core::fmt`. A what-if body prints
//! two floats per curve point; at 129 points the formatting machinery
//! used to cost more than evaluating the model.
//!
//! A float is decomposed exactly as `m · 2^q` and scaled by `10^-k` as a
//! `u128` numerator/denominator pair; the quotient is rounded half to
//! even on the exact remainder, as `core::fmt` rounds. The exact path
//! covers every finite `|x| < 1.8e13` in `{:.6}` (zero and subnormals
//! included; `|x| · 10^6` must fit `u64`) and every finite nonzero
//! `1e-23 ≤ |x| < 1e50` in `{:.9e}`.
//! Outside that — non-finite values, `±0.0` in `{:.9e}`, and magnitudes
//! whose scaled terms overflow `u128` — the one value is written through
//! `core::fmt` instead, so the output is exact for every `f64`.
//!
//! Digits come from `ivis-obs`'s [`digits_before`] and [`pairs_before`],
//! the pair-table routine its trace exporters write integers with.

use std::cmp::Ordering;
use std::io::Write as _;

use ivis_obs::jsonl::{digits_before, pairs_before};

/// `5^i` for every `i` whose power fits `u128` (`5^55 < 2^128 < 5^56`).
const POW5: [u128; 56] = {
    let mut t = [1u128; 56];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 5;
        i += 1;
    }
    t
};

/// Append `n` in decimal, exactly as `{}` writes it.
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let i = digits_before(&mut buf, 20, n);
    out.extend_from_slice(&buf[i..]);
}

/// Append `x` with six fractional digits, exactly as `{:.6}` writes it.
pub(crate) fn push_fixed6(out: &mut Vec<u8>, x: f64) {
    let Some((int, frac)) = fixed6(x) else {
        let _ = write!(out, "{x:.6}");
        return;
    };
    // Assembled right to left in one buffer, then appended in one copy:
    // sign, up to 14 integer digits, '.', 6 fractional digits.
    let mut buf = [0u8; 22];
    let mut i = pairs_before(&mut buf, 22, frac, 3) - 1;
    buf[i] = b'.';
    i = digits_before(&mut buf, i, int);
    if x.is_sign_negative() {
        i -= 1;
        buf[i] = b'-';
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append `x` with ten significant digits in scientific notation,
/// exactly as `{:.9e}` writes it.
pub(crate) fn push_sci9(out: &mut Vec<u8>, x: f64) {
    let Some((digits, exp)) = sci9(x) else {
        let _ = write!(out, "{x:.9e}");
        return;
    };
    // Sign, d.ddddddddd, 'e', exponent sign, up to 3 exponent digits.
    let mut buf = [0u8; 17];
    let mut i = digits_before(&mut buf, 17, u64::from(exp.unsigned_abs()));
    if exp < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    i -= 1;
    buf[i] = b'e';
    // All ten digits, then the first moves left to make room for '.'.
    i = pairs_before(&mut buf, i, digits, 5) - 1;
    buf[i] = buf[i + 1];
    buf[i + 1] = b'.';
    if x.is_sign_negative() {
        i -= 1;
        buf[i] = b'-';
    }
    out.extend_from_slice(&buf[i..]);
}

/// `|x|` rounded to micro-units, split into integer part and six
/// fractional digits; `None` outside the exact range (the micro-units
/// must fit `u64`).
fn fixed6(x: f64) -> Option<(u64, u64)> {
    if !x.is_finite() {
        return None;
    }
    let (m, q) = decompose(x);
    let (n, up) = scaled(m, q, -6)?;
    let n = u64::try_from(n + u128::from(up)).ok()?;
    Some((n / 1_000_000, n % 1_000_000))
}

/// `|x|` as ten significant digits `d` (`1e9 ≤ d < 1e10`) and a decimal
/// exponent `e`, so that `|x| ≈ d · 10^(e-9)`; `None` outside the exact
/// range.
fn sci9(x: f64) -> Option<(u64, i32)> {
    if !x.is_finite() || x == 0.0 {
        return None;
    }
    let (m, q) = decompose(x);
    // 2^(b-1) ≤ |x| < 2^b, so floor(log10 |x|) is floor(b·log10 2) or
    // one less; 78913 / 2^18 is log10 2 to within 1e-6, exact enough
    // for every binary exponent an f64 has. Starting high means a first
    // guess never needs larger terms than the true exponent does, and
    // the loop corrects either way on the exact quotient.
    let b = 64 - m.leading_zeros() as i32 + q;
    let mut e = (b * 78913) >> 18;
    loop {
        let (n, up) = scaled(m, q, e - 9)?;
        if n >= 10_000_000_000 {
            e += 1;
        } else if n < 1_000_000_000 {
            e -= 1;
        } else {
            // A carry out of the tenth digit renormalises to 1.000000000.
            let d = n as u64 + u64::from(up);
            return Some(if d == 10_000_000_000 {
                (1_000_000_000, e + 1)
            } else {
                (d, e)
            });
        }
    }
}

/// `|x|` as `m · 2^q`, exactly.
fn decompose(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    if biased == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, biased - 1075)
    }
}

/// `floor(m · 2^q / 10^k)` and whether rounding it half to even on the
/// exact remainder goes up; `None` when a term overflows `u128`.
fn scaled(m: u64, q: i32, k: i32) -> Option<(u128, bool)> {
    if m == 0 {
        return Some((0, false));
    }
    // m · 2^q / 10^k = m · 5^-k · 2^(q-k): the positive powers multiply
    // the numerator, the negative ones the denominator.
    let pow5 = *POW5.get(k.unsigned_abs() as usize)?;
    let (mut num, mut den) = if k <= 0 {
        // Bit lengths summing to at most 128 cannot overflow; checking
        // that is cheaper than a checked 128-bit multiply.
        if m.leading_zeros() + pow5.leading_zeros() < 64 {
            return None;
        }
        (u128::from(m) * pow5, 1)
    } else {
        (u128::from(m), pow5)
    };
    let p = q - k;
    let shift = p.unsigned_abs();
    if p >= 0 {
        if shift > num.leading_zeros() {
            return None;
        }
        num <<= shift;
    } else if shift > den.leading_zeros() {
        // den ≥ 2^128 > 2·num: the quotient is 0 and the remainder is
        // below one half.
        return (num >> 127 == 0).then_some((0, false));
    } else {
        den <<= shift;
    }
    let (quot, rem) = if den.is_power_of_two() {
        (num >> den.trailing_zeros(), num & (den - 1))
    } else if let (Ok(n), Ok(d)) = (u64::try_from(num), u64::try_from(den)) {
        (u128::from(n / d), u128::from(n % d))
    } else {
        (num / den, num % den)
    };
    let up = match rem.cmp(&(den - rem)) {
        Ordering::Greater => true,
        Ordering::Equal => quot & 1 == 1,
        Ordering::Less => false,
    };
    Some((quot, up))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_core::PipelineKind;
    use ivis_model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
    use proptest::prelude::*;

    fn fixed6_bytes(x: f64) -> String {
        let mut out = Vec::new();
        push_fixed6(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn sci9_bytes(x: f64) -> String {
        let mut out = Vec::new();
        push_sci9(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn assert_both_exact(x: f64) {
        assert_eq!(
            fixed6_bytes(x),
            format!("{x:.6}"),
            "{{:.6}} of {:#x}",
            x.to_bits()
        );
        assert_eq!(
            sci9_bytes(x),
            format!("{x:.9e}"),
            "{{:.9e}} of {:#x}",
            x.to_bits()
        );
    }

    /// Bit patterns: anything at all, exponents spread over the exact
    /// ranges and a few decades past them, subnormals, and the specials.
    fn any_f64_bits() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..u64::MAX).prop_map(f64::from_bits),
            (0u64..1 << 53, 850u64..1250).prop_map(|(sm, exp)| f64::from_bits(
                (sm >> 52) << 63 | exp << 52 | (sm & ((1 << 52) - 1))
            )),
            (0u64..1 << 53)
                .prop_map(|sm| f64::from_bits((sm >> 52) << 63 | (sm & ((1 << 52) - 1)))),
            (0u64..6).prop_map(|i| [
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                -f64::INFINITY,
                -f64::NAN
            ][i as usize]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn writers_match_core_fmt_on_arbitrary_bit_patterns(x in any_f64_bits()) {
            assert_both_exact(x);
        }

        #[test]
        fn push_u64_matches_display(n in 0u64..u64::MAX, shift in 0u32..64) {
            let n = n >> shift;
            let mut out = Vec::new();
            push_u64(&mut out, n);
            prop_assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }

    #[test]
    fn half_ulp_ties_round_to_even() {
        // k · 0.5e-6 is a tie whenever it is a dyadic rational, which
        // needs 5^6 | k: every multiple of 1/128 sits on one.
        for k in 0..4096u32 {
            let x = f64::from(k) / 128.0;
            assert_both_exact(x);
            assert_both_exact(-x);
            assert_both_exact(f64::from(k) * 0.5e-6);
        }
        // k + 0.5 at every magnitude a tenth digit can tie at.
        for k in [
            0u64,
            1,
            2,
            3,
            999_999_999,
            1_000_000_000,
            1_234_567_891,
            9_999_999_999,
        ] {
            assert_both_exact(k as f64 + 0.5);
            assert_both_exact(k as f64 * 10.0 + 5.0);
        }
        assert_eq!(fixed6_bytes(1.0 / 128.0), "0.007812");
        assert_eq!(sci9_bytes(1_000_000_000.5), "1.000000000e9");
        assert_eq!(sci9_bytes(1_000_000_001.5), "1.000000002e9");
    }

    #[test]
    fn decade_edges_carry_into_the_next_exponent() {
        for n in -22..50 {
            let p = 10f64.powi(n);
            for x in [
                9.9999999995 * p,
                9.99999999949 * p,
                p,
                p * (1.0 - f64::EPSILON),
            ] {
                assert_both_exact(x);
                assert!(sci9(x).is_some(), "1e{n} scale takes the exact path");
            }
        }
        assert_eq!(sci9_bytes(9.9999999996), "1.000000000e1");
    }

    #[test]
    fn extremes_fall_back_to_core_fmt() {
        for x in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            1.8e13,
            1.9e13,
            1e50,
            1e-23,
        ] {
            assert_both_exact(x);
        }
        assert!(fixed6(1.8e13).is_some() && fixed6(-1.8e13).is_some());
        assert!(fixed6(1.9e13).is_none());
        assert!(fixed6(f64::MIN_POSITIVE).is_some() && fixed6(-0.0).is_some());
        assert!(sci9(0.0).is_none() && sci9(f64::MAX).is_none() && sci9(f64::NAN).is_none());
    }

    #[test]
    fn the_exact_ranges_hold_across_every_decade() {
        let mut rng = TestRng::for_case(7);
        for n in -23..50 {
            for _ in 0..200 {
                let x = (1.0 + 9.0 * rng.unit_f64()) * 10f64.powi(n);
                assert!(sci9(x).is_some(), "{x:e} takes the exact {{:.9e}} path");
                if x < 1.8e13 {
                    assert!(fixed6(x).is_some(), "{x:e} takes the exact {{:.6}} path");
                }
            }
        }
    }

    #[test]
    fn every_float_a_served_body_holds_takes_the_exact_path() {
        let analyzer = WhatIfAnalyzer::paper();
        for spec in [SpecId::Paper60km, SpecId::Paper100yr] {
            for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
                for decade in -6..=9 {
                    let rate = 10f64.powi(decade);
                    let key = WhatIfRequest::new(spec, kind, rate, 129).unwrap();
                    let ans = analyzer.answer(&key);
                    assert!(fixed6(key.rate_hours()).is_some() && fixed6(ans.saving_pct).is_some());
                    assert!(sci9(ans.exec_seconds).is_some() && sci9(ans.energy_joules).is_some());
                    for p in &ans.curve {
                        assert!(fixed6(p.hours).is_some(), "{key:?}: {} h", p.hours);
                        assert!(
                            sci9(p.energy_joules).is_some(),
                            "{key:?}: {} J",
                            p.energy_joules
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn log10_estimate_is_floor_b_log10_2() {
        for b in -1100..=1100i32 {
            let exact = (f64::from(b) * std::f64::consts::LOG10_2).floor() as i32;
            assert_eq!((b * 78913) >> 18, exact, "b = {b}");
        }
    }
}
