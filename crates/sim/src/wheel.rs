//! The indexed event queue: a hierarchical timer wheel with a
//! calendar-queue overflow level.
//!
//! The wheel holds `(time, seq, handle)` index entries — event payloads
//! live in the [`EventArena`](crate::arena::EventArena) — and pops them
//! in `(time, seq)` order, which is the engine's determinism contract:
//! ties in the timestamp break in insertion order.
//!
//! # Structure
//!
//! * **Wheel**: [`LEVELS`] = 4 levels of [`SLOTS`] = 64 slots at a 1 µs
//!   tick, tokio-style. Level `L` slot width is `64^L` ticks, so the
//!   wheel spans one *epoch* of `64^4` µs ≈ 16.8 simulated seconds. An
//!   entry's level is the highest 6-bit digit in which its tick differs
//!   from the wheel's `base`; per-level `u64` occupancy bitmaps make
//!   "next pending slot" a `trailing_zeros`. Because entries at level
//!   `L` agree with `base` on every digit above `L` and sort after it
//!   at digit `L`, the first occupied slot of the lowest occupied level
//!   is always the global wheel minimum — no cross-level comparison.
//! * **Cascade**: popping into a level-`L` slot (`L > 0`) advances
//!   `base` to the slot's start and re-files the slot's entries, which
//!   land at strictly lower levels; repeated until the minimum sits at
//!   level 0. Level-0 slots hold entries of exactly one tick, so the
//!   FIFO tie-break is a min-`seq` scan of that one slot.
//! * **Overflow**: entries beyond the current epoch go to a calendar
//!   queue — [`OVERFLOW_BUCKETS`] buckets keyed by `epoch %
//!   OVERFLOW_BUCKETS`, each with a cached minimum. Epochs are disjoint
//!   and ordered, so every wheel entry precedes every overflow entry;
//!   when the wheel drains, the bucket holding the global overflow
//!   minimum is promoted (entries of other epochs stay behind).
//!
//! Slot vectors, bucket vectors and the cascade scratch buffer all keep
//! their capacity across reuse, so a steady-state schedule/pop cycle
//! allocates nothing once warmed up (`tests/des_zero_alloc.rs`).
//!
//! Cancellation is lazy and lives a layer up: the
//! [`DesEngine`](crate::engine::DesEngine) removes the payload from the
//! arena and simply skips wheel entries whose handle no longer resolves.

use crate::arena::EventHandle;
use crate::time::SimTime;

/// Bits per wheel digit (6 ⇒ 64 slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; the wheel spans `64^LEVELS` ticks (one epoch).
pub const LEVELS: usize = 4;
/// Bits covered by the whole wheel: ticks sharing these low bits' prefix
/// (i.e. the same value above them) are in the same epoch.
const EPOCH_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Calendar-queue buckets for beyond-epoch entries.
pub const OVERFLOW_BUCKETS: usize = 64;

const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// An index entry: when to fire, the insertion-order tie-break, and the
/// arena handle of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelEntry {
    /// Absolute fire time.
    pub at: SimTime,
    /// Insertion sequence number; ties in `at` pop in `seq` order.
    pub seq: u64,
    /// Arena handle of the event payload (may be stale if cancelled).
    pub handle: EventHandle,
}

struct Bucket {
    entries: Vec<WheelEntry>,
    /// Smallest tick in the bucket, `u64::MAX` when empty.
    min: u64,
}

/// Hierarchical timer wheel + calendar overflow. See the module docs.
pub struct TimerWheel {
    /// Current position in ticks; every resident entry fires at or after
    /// this, and every wheel-level entry shares its epoch.
    base: u64,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// `LEVELS × SLOTS` slot vectors, row-major by level.
    slots: Vec<Vec<WheelEntry>>,
    overflow: Vec<Bucket>,
    /// Smallest tick anywhere in `overflow`. Meaningful only while
    /// `overflow_len > 0` (a real entry at `SimTime::MAX` also reads
    /// `u64::MAX`, so emptiness is tracked by count, not sentinel).
    overflow_min: u64,
    overflow_len: usize,
    len: usize,
    /// Reused cascade/promotion buffer (capacity persists).
    scratch: Vec<WheelEntry>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel positioned at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            base: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: (0..OVERFLOW_BUCKETS)
                .map(|_| Bucket {
                    entries: Vec::new(),
                    min: u64::MAX,
                })
                .collect(),
            overflow_min: u64::MAX,
            overflow_len: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Pending entries (including lazily-cancelled ones not yet skipped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File an entry. `seq` is the caller's insertion counter; entries
    /// with equal `at` pop in ascending `seq` order.
    ///
    /// Inserting before the current position is legal (it happens after
    /// a deadline-bounded run parked the position past a later entry)
    /// and triggers a rebase of the resident entries.
    pub fn insert(&mut self, at: SimTime, seq: u64, handle: EventHandle) {
        let tick = at.as_micros();
        if tick < self.base {
            self.rebase(tick);
        }
        self.len += 1;
        let entry = WheelEntry { at, seq, handle };
        if tick >> EPOCH_BITS == self.base >> EPOCH_BITS {
            self.insert_wheel(entry);
        } else {
            self.insert_overflow(entry);
        }
    }

    /// Remove and return the `(at, seq)`-minimal entry.
    pub fn pop(&mut self) -> Option<WheelEntry> {
        'position: loop {
            for level in 0..LEVELS {
                let cursor = (self.base >> (SLOT_BITS * level as u32)) & SLOT_MASK;
                let pending = self.occupied[level] & (!0u64 << cursor);
                if pending == 0 {
                    continue;
                }
                let slot = pending.trailing_zeros() as usize;
                if level == 0 {
                    let tick = (self.base & !SLOT_MASK) | slot as u64;
                    debug_assert!(tick >= self.base, "level-0 slot behind the cursor");
                    self.base = tick;
                    let v = &mut self.slots[slot];
                    let mut best = 0;
                    for i in 1..v.len() {
                        if v[i].seq < v[best].seq {
                            best = i;
                        }
                    }
                    let entry = v.swap_remove(best);
                    if v.is_empty() {
                        self.occupied[0] &= !(1 << slot);
                    }
                    self.len -= 1;
                    debug_assert_eq!(entry.at.as_micros(), tick, "entry filed in the wrong slot");
                    return Some(entry);
                }
                self.cascade(level, slot);
                continue 'position;
            }
            debug_assert!(
                self.occupied.iter().all(|&b| b == 0),
                "occupied slot behind the cursor"
            );
            if self.overflow_len == 0 {
                debug_assert_eq!(self.len, 0);
                return None;
            }
            self.promote();
        }
    }

    /// File within the current epoch. The entry's tick must share the
    /// wheel's epoch and be `>= base`.
    fn insert_wheel(&mut self, entry: WheelEntry) {
        let tick = entry.at.as_micros();
        debug_assert!(tick >= self.base);
        debug_assert_eq!(tick >> EPOCH_BITS, self.base >> EPOCH_BITS);
        // Highest differing 6-bit digit picks the level; the low OR makes
        // tick == base resolve to level 0 instead of leading_zeros(0) UB.
        let masked = (tick ^ self.base) | SLOT_MASK;
        let level = ((63 - masked.leading_zeros()) / SLOT_BITS) as usize;
        debug_assert!(level < LEVELS, "same-epoch entry above the top level");
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(entry);
    }

    fn insert_overflow(&mut self, entry: WheelEntry) {
        let tick = entry.at.as_micros();
        let bucket = ((tick >> EPOCH_BITS) % OVERFLOW_BUCKETS as u64) as usize;
        let b = &mut self.overflow[bucket];
        b.entries.push(entry);
        b.min = b.min.min(tick);
        self.overflow_min = self.overflow_min.min(tick);
        self.overflow_len += 1;
    }

    /// Advance `base` to the start of level-`level` slot `slot` and
    /// re-file its entries; they land at strictly lower levels.
    fn cascade(&mut self, level: usize, slot: usize) {
        let shift = SLOT_BITS * level as u32;
        let slot_start =
            ((self.base >> (shift + SLOT_BITS)) << (shift + SLOT_BITS)) | ((slot as u64) << shift);
        debug_assert!(slot_start >= self.base, "cascade moved the wheel backwards");
        self.base = slot_start;
        self.occupied[level] &= !(1 << slot);
        let mut scratch = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut self.slots[level * SLOTS + slot], &mut scratch);
        for entry in scratch.drain(..) {
            self.insert_wheel(entry);
        }
        self.scratch = scratch;
    }

    /// Wheel is empty: jump to the earliest overflow entry and pull its
    /// whole epoch in. Entries of other epochs sharing the bucket stay.
    fn promote(&mut self) {
        let min = self.overflow_min;
        let epoch = min >> EPOCH_BITS;
        self.base = min;
        let bucket = (epoch % OVERFLOW_BUCKETS as u64) as usize;
        let mut scratch = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut self.overflow[bucket].entries, &mut scratch);
        let mut kept_min = u64::MAX;
        for entry in scratch.drain(..) {
            let tick = entry.at.as_micros();
            if tick >> EPOCH_BITS == epoch {
                self.overflow_len -= 1;
                self.insert_wheel(entry);
            } else {
                kept_min = kept_min.min(tick);
                self.overflow[bucket].entries.push(entry);
            }
        }
        self.scratch = scratch;
        self.overflow[bucket].min = kept_min;
        self.overflow_min = self
            .overflow
            .iter()
            .map(|b| b.min)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// An insert landed before `base`: pull every resident entry out,
    /// move `base` back, and re-file (epoch membership may change).
    fn rebase(&mut self, new_base: u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for level in 0..LEVELS {
            while self.occupied[level] != 0 {
                let slot = self.occupied[level].trailing_zeros() as usize;
                self.occupied[level] &= !(1 << slot);
                scratch.append(&mut self.slots[level * SLOTS + slot]);
            }
        }
        self.base = new_base;
        for entry in scratch.drain(..) {
            if entry.at.as_micros() >> EPOCH_BITS == new_base >> EPOCH_BITS {
                self.insert_wheel(entry);
            } else {
                self.insert_overflow(entry);
            }
        }
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::EventArena;

    /// Drive the wheel with payload-free handles from a real arena so
    /// handles are unique and live.
    struct Harness {
        wheel: TimerWheel,
        arena: EventArena<u64>,
        seq: u64,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                wheel: TimerWheel::new(),
                arena: EventArena::new(),
                seq: 0,
            }
        }

        fn insert(&mut self, at_us: u64, tag: u64) {
            let h = self.arena.insert(tag);
            let seq = self.seq;
            self.seq += 1;
            self.wheel.insert(SimTime::from_micros(at_us), seq, h);
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let e = self.wheel.pop()?;
            let tag = self.arena.remove(e.handle).expect("live entry");
            Some((e.at.as_micros(), tag))
        }

        fn drain(&mut self) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            while let Some(x) = self.pop() {
                out.push(x);
            }
            out
        }
    }

    #[test]
    fn pops_in_time_order_within_level_zero() {
        let mut h = Harness::new();
        for &t in &[30u64, 5, 17, 0, 63] {
            h.insert(t, t);
        }
        let out = h.drain();
        assert_eq!(out, vec![(0, 0), (5, 5), (17, 17), (30, 30), (63, 63)]);
    }

    #[test]
    fn same_timestamp_pops_in_fifo_insertion_order() {
        let mut h = Harness::new();
        // Interleave two timestamps; each timestamp's tags must come out
        // in insertion order even after swap_remove churn in the slot.
        for i in 0..20u64 {
            h.insert(1_000, 100 + i);
            h.insert(999, 200 + i);
        }
        let out = h.drain();
        let at_999: Vec<u64> = out.iter().filter(|e| e.0 == 999).map(|e| e.1).collect();
        let at_1000: Vec<u64> = out.iter().filter(|e| e.0 == 1_000).map(|e| e.1).collect();
        assert_eq!(at_999, (200..220).collect::<Vec<_>>());
        assert_eq!(at_1000, (100..120).collect::<Vec<_>>());
        assert!(out.iter().position(|e| e.0 == 1_000).unwrap() == 20);
    }

    #[test]
    fn rollover_cascades_across_levels() {
        let mut h = Harness::new();
        // Entries straddling every level boundary: 64 (level 1), 64^2
        // (level 2), 64^3 (level 3), plus neighbors that force cascades.
        let times = [
            1u64,
            63,
            64,
            65,
            64 * 64 - 1,
            64 * 64,
            64 * 64 + 7,
            64 * 64 * 64 - 1,
            64 * 64 * 64,
            64 * 64 * 64 + 123,
        ];
        for (i, &t) in times.iter().enumerate() {
            h.insert(t, i as u64);
        }
        let out = h.drain();
        let popped: Vec<u64> = out.iter().map(|e| e.0).collect();
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn far_future_entries_take_the_overflow_level_and_return() {
        let mut h = Harness::new();
        let epoch = 1u64 << EPOCH_BITS;
        // Same bucket, different epochs (bucket = epoch % 64): the
        // promotion must pull only the due epoch and keep the rest.
        h.insert(3 * epoch + 5, 1);
        h.insert((3 + OVERFLOW_BUCKETS as u64) * epoch + 9, 2);
        h.insert(10, 0);
        h.insert(u64::MAX, 3); // SimTime::MAX sentinel still files fine
        let out = h.drain();
        assert_eq!(
            out,
            vec![
                (10, 0),
                (3 * epoch + 5, 1),
                ((3 + OVERFLOW_BUCKETS as u64) * epoch + 9, 2),
                (u64::MAX, 3),
            ]
        );
    }

    #[test]
    fn insert_behind_base_rebases_and_stays_ordered() {
        let mut h = Harness::new();
        h.insert(1_000_000, 1);
        // Popping advances base to 1_000_000.
        assert_eq!(h.pop(), Some((1_000_000, 1)));
        h.insert(2_000_000, 2);
        // Park far in the future, then file behind the parked base —
        // exactly what a deadline-bounded engine run produces.
        h.insert(1_500_000, 3);
        h.insert(1_200_000, 4);
        let out = h.drain();
        assert_eq!(out, vec![(1_200_000, 4), (1_500_000, 3), (2_000_000, 2)]);
    }

    #[test]
    fn interleaved_pop_and_insert_keeps_global_order() {
        let mut h = Harness::new();
        h.insert(10, 0);
        h.insert(50, 1);
        assert_eq!(h.pop(), Some((10, 0)));
        // now base = 10; inserting at 10 again is same-tick FIFO
        h.insert(10, 2);
        h.insert(12, 3);
        assert_eq!(h.pop(), Some((10, 2)));
        assert_eq!(h.pop(), Some((12, 3)));
        assert_eq!(h.pop(), Some((50, 1)));
        assert_eq!(h.pop(), None);
        assert!(h.wheel.is_empty());
    }

    #[test]
    fn len_tracks_inserts_and_pops() {
        let mut h = Harness::new();
        assert!(h.wheel.is_empty());
        for t in 0..100u64 {
            h.insert(t * 977, t);
        }
        assert_eq!(h.wheel.len(), 100);
        for _ in 0..100 {
            assert!(h.pop().is_some());
        }
        assert_eq!(h.wheel.len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The wheel pops in exactly the order a sorted-Vec model
            /// queue does, for arbitrary schedules across all levels and
            /// the overflow, including interleaved pops.
            #[test]
            fn matches_sorted_vec_model(
                times in prop::collection::vec(0u64..(1u64 << 30), 1..200),
                pop_every in 1usize..8,
            ) {
                let mut h = Harness::new();
                let mut model: Vec<(u64, u64)> = Vec::new(); // (at, seq)
                let mut out_wheel = Vec::new();
                let mut out_model = Vec::new();
                let mut floor = 0u64; // wheel position only moves forward on pops
                for (i, &t) in times.iter().enumerate() {
                    // Keep schedules legal for a forward-running clock.
                    let at = floor.saturating_add(t % (1u64 << 26));
                    h.insert(at, i as u64);
                    model.push((at, i as u64));
                    if i % pop_every == 0 {
                        if let Some((at, tag)) = h.pop() {
                            out_wheel.push((at, tag));
                            let best = model
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, &(a, s))| (a, s))
                                .map(|(idx, _)| idx)
                                .unwrap();
                            let (a, s) = model.remove(best);
                            out_model.push((a, s));
                            floor = a;
                        }
                    }
                }
                while let Some(x) = h.pop() {
                    out_wheel.push(x);
                    let best = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(a, s))| (a, s))
                        .map(|(idx, _)| idx)
                        .unwrap();
                    out_model.push(model.remove(best));
                }
                prop_assert!(model.is_empty());
                prop_assert_eq!(out_wheel, out_model);
            }
        }
    }
}
