//! Lustre-style file striping.
//!
//! A file is divided into fixed-size stripes distributed round-robin over a
//! set of object storage targets (OSTs). The layout determines how many
//! bytes of a given write land on each OST — the unit of parallelism the
//! [`crate::pfs`] bandwidth model operates on.

/// A striping layout: `stripe_count` OSTs, `stripe_size` bytes per stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Bytes per stripe (Lustre default: 1 MiB).
    pub stripe_size: u64,
    /// Number of OSTs the file is striped over.
    pub stripe_count: usize,
}

impl StripeLayout {
    /// Create a layout.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(stripe_size: u64, stripe_count: usize) -> Self {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(stripe_count > 0, "stripe count must be positive");
        StripeLayout {
            stripe_size,
            stripe_count,
        }
    }

    /// The Lustre default on the paper's rack: 1 MiB stripes over both OSSes.
    pub fn lustre_default(num_osts: usize) -> Self {
        StripeLayout::new(1 << 20, num_osts)
    }

    /// Bytes of the range `[offset, offset+len)` that land on OST `ost`:
    /// the one split routine, which [`distribute`](Self::distribute) and
    /// the filesystem's data path both call. It counts the bytes of each
    /// end's prefix `[0, x)` on the OST — whole stripe cycles, then the
    /// part of the last cycle past the OST's first byte — and takes the
    /// difference, so it costs the same at any length and allocates
    /// nothing.
    ///
    /// `offset + len` must fit `u64`.
    pub(crate) fn bytes_on(&self, ost: usize, offset: u64, len: u64) -> u64 {
        let cycle = self.stripe_size * self.stripe_count as u64;
        let first = ost as u64 * self.stripe_size;
        let prefix = |x: u64| {
            (x / cycle) * self.stripe_size + (x % cycle).saturating_sub(first).min(self.stripe_size)
        };
        prefix(offset + len) - prefix(offset)
    }

    /// Bytes of the range `[offset, offset+len)` that land on each OST.
    ///
    /// Returns a vector of length `stripe_count`; entries sum to `len`.
    pub fn distribute(&self, offset: u64, len: u64) -> Vec<u64> {
        (0..self.stripe_count)
            .map(|ost| self.bytes_on(ost, offset, len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stripe walk `distribute` used to be: whole cycles first, then
    /// the remainder one stripe piece at a time.
    fn walked(l: &StripeLayout, offset: u64, len: u64) -> Vec<u64> {
        let mut per_ost = vec![0u64; l.stripe_count];
        let cycle = l.stripe_size * l.stripe_count as u64;
        let full_cycles = len / cycle;
        for slot in per_ost.iter_mut() {
            *slot += full_cycles * l.stripe_size;
        }
        let mut rem = len - full_cycles * cycle;
        let mut pos = offset + full_cycles * cycle;
        while rem > 0 {
            let take = (l.stripe_size - pos % l.stripe_size).min(rem);
            per_ost[((pos / l.stripe_size) % l.stripe_count as u64) as usize] += take;
            pos += take;
            rem -= take;
        }
        per_ost
    }

    #[test]
    fn round_robin_assignment() {
        let l = StripeLayout::new(100, 3);
        for (offset, ost) in [(0, 0), (99, 0), (100, 1), (250, 2), (300, 0)] {
            assert_eq!(l.bytes_on(ost, offset, 1), 1, "byte {offset}");
        }
    }

    #[test]
    fn bytes_on_matches_the_stripe_walk_at_rack_scale() {
        for count in [1, 2, 3, 8] {
            let l = StripeLayout::lustre_default(count);
            for (offset, len) in [
                (0, 1 << 30),
                (123, 999_999_999),
                (1_111_111 * 539, 1_111_111),
                (7_699_999_000_000, 1_000_000),
            ] {
                assert_eq!(l.distribute(offset, len), walked(&l, offset, len));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any stripe size and count (the experiments sweep 1–8 OSS), any
        /// range: the closed form equals the stripe walk.
        #[test]
        fn bytes_on_matches_the_stripe_walk(
            stripe_size in 1u64..5_000,
            count in 1usize..12,
            offset in 0u64..200_000,
            len in 0u64..200_000,
        ) {
            let l = StripeLayout::new(stripe_size, count);
            prop_assert_eq!(l.distribute(offset, len), walked(&l, offset, len));
        }
    }

    #[test]
    fn distribute_sums_to_len() {
        let l = StripeLayout::new(64, 4);
        for (off, len) in [(0u64, 1000u64), (13, 777), (64, 64), (5, 0), (250, 3)] {
            let d = l.distribute(off, len);
            assert_eq!(d.iter().sum::<u64>(), len, "off={off} len={len}");
        }
    }

    #[test]
    fn aligned_full_cycle_balances_exactly() {
        let l = StripeLayout::new(100, 2);
        let d = l.distribute(0, 1000);
        assert_eq!(d, vec![500, 500]);
    }

    #[test]
    fn unaligned_write_distributes_correctly() {
        // stripe_size=100, 2 OSTs. Range [50, 250): 50 bytes on OST0 (stripe
        // 0), 100 on OST1 (stripe 1), 50 on OST0 (stripe 2).
        let l = StripeLayout::new(100, 2);
        let d = l.distribute(50, 200);
        assert_eq!(d, vec![100, 100]);
        // Range [50, 200): 50 on OST0, 100 on OST1.
        let d = l.distribute(50, 150);
        assert_eq!(d, vec![50, 100]);
    }

    #[test]
    fn single_ost_gets_everything() {
        let l = StripeLayout::new(1 << 20, 1);
        let d = l.distribute(123, 999_999);
        assert_eq!(d, vec![999_999]);
    }

    #[test]
    fn large_write_over_default_layout_is_balanced() {
        let l = StripeLayout::lustre_default(2);
        let gb = 1u64 << 30;
        let d = l.distribute(0, gb);
        assert_eq!(d.len(), 2);
        let imbalance = d[0].abs_diff(d[1]);
        assert!(imbalance <= l.stripe_size, "imbalance {imbalance}");
    }

    #[test]
    #[should_panic(expected = "stripe count must be positive")]
    fn zero_count_rejected() {
        let _ = StripeLayout::new(100, 0);
    }
}
