//! Eqs. 6 & 7: rate scaling of storage and image counts.
//!
//! Both the output size and the image count scale linearly with the
//! sampling rate relative to a reference configuration.

use ivis_ocean::SamplingRate;

/// Eq. 6: `S_any = S_ref · rate_any / rate_ref`.
pub fn scale_storage_bytes(s_ref: u64, rate_ref: SamplingRate, rate_any: SamplingRate) -> u64 {
    (s_ref as f64 * rate_any.relative_to(rate_ref)).round() as u64
}

/// Eq. 7: `N_any = N_ref · rate_any / rate_ref`.
pub fn scale_image_count(n_ref: u64, rate_ref: SamplingRate, rate_any: SamplingRate) -> u64 {
    (n_ref as f64 * rate_any.relative_to(rate_ref)).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_rate_doubles_storage() {
        let r24 = SamplingRate::every_hours(24.0);
        let r12 = SamplingRate::every_hours(12.0);
        assert_eq!(scale_storage_bytes(80_000, r24, r12), 160_000);
        assert_eq!(scale_storage_bytes(80_000, r24, r24), 80_000);
    }

    #[test]
    fn fig7_consistency() {
        // Paper Fig. 7: 230 GB at 8 h ⇒ ~76.7 GB at 24 h ⇒ ~25.6 GB at 72 h.
        let r8 = SamplingRate::every_hours(8.0);
        let s24 = scale_storage_bytes(230_000_000_000, r8, SamplingRate::every_hours(24.0));
        let s72 = scale_storage_bytes(230_000_000_000, r8, SamplingRate::every_hours(72.0));
        assert!((s24 as f64 / 1e9 - 76.7).abs() < 0.1);
        assert!((s72 as f64 / 1e9 - 25.6).abs() < 0.1);
    }

    #[test]
    fn image_count_scales_like_eq7() {
        let r8 = SamplingRate::every_hours(8.0);
        let r24 = SamplingRate::every_hours(24.0);
        assert_eq!(scale_image_count(540, r8, r24), 180);
        assert_eq!(scale_image_count(180, r24, r8), 540);
    }
}
