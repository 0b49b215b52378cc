//! Arena allocation for in-flight events.
//!
//! The [`DesEngine`](crate::engine::DesEngine) keeps every pending event's
//! payload in an [`EventArena`]: a slab of reusable slots threaded on an
//! intrusive free list. Scheduling an event is a free-list pop (or a `Vec`
//! push while the arena is still warming up); completing or cancelling one
//! is a free-list push. After warm-up the steady-state schedule/fire loop
//! touches no allocator at all — the `des_zero_alloc` integration test
//! pins that with a counting global allocator.
//!
//! Slots are addressed by [`EventHandle`]s carrying a generation counter:
//! a handle to a slot that has since been freed (the event fired, or was
//! cancelled) is detected instead of aliasing the slot's next tenant,
//! which is what makes O(1) *lazy* cancellation safe — the engine's heap
//! keeps its `(time, seq, handle)` entry and the engine simply skips
//! stale handles on pop.

/// A generation-checked reference to a scheduled event.
///
/// Handles are plain data: copying one does not extend the payload's
/// lifetime, and a handle outliving its slot's tenancy simply stops
/// resolving. The ordering exists only so a handle can sit in the
/// engine's heap key; it never decides which event fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventHandle {
    index: u32,
    generation: u32,
}

enum Slot<T> {
    /// Free; `next` is the next free slot index (`u32::MAX` = end).
    Vacant {
        next: u32,
    },
    Occupied(T),
}

struct Entry<T> {
    /// Odd while occupied, even while vacant; bumped on every transition.
    generation: u32,
    slot: Slot<T>,
}

/// A slab of event payloads with O(1) insert/remove and generation-checked
/// handles. See the module docs for the role it plays in the engine.
pub(crate) struct EventArena<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
}

impl<T> EventArena<T> {
    /// An arena with `cap` slots pre-reserved, so the first `cap`
    /// concurrent events never grow the slab.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventArena {
            entries: Vec::with_capacity(cap),
            free_head: u32::MAX,
        }
    }

    /// Store `value`, returning its handle.
    ///
    /// # Panics
    /// Panics if the arena would exceed `u32::MAX - 1` slots.
    pub(crate) fn insert(&mut self, value: T) -> EventHandle {
        if self.free_head != u32::MAX {
            let index = self.free_head;
            let entry = &mut self.entries[index as usize];
            match entry.slot {
                Slot::Vacant { next } => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free list points at an occupied slot"),
            }
            entry.generation = entry.generation.wrapping_add(1); // even → odd
            entry.slot = Slot::Occupied(value);
            return EventHandle {
                index,
                generation: entry.generation,
            };
        }
        let index = u32::try_from(self.entries.len()).expect("event arena exhausted u32 indices");
        assert!(index < u32::MAX, "event arena exhausted u32 indices");
        self.entries.push(Entry {
            generation: 1,
            slot: Slot::Occupied(value),
        });
        EventHandle {
            index,
            generation: 1,
        }
    }

    /// Take the payload behind `handle`, freeing its slot. Returns `None`
    /// if the handle is stale (already fired or cancelled) — never panics,
    /// which is what lazy cancellation relies on.
    pub(crate) fn remove(&mut self, handle: EventHandle) -> Option<T> {
        let entry = self.entries.get_mut(handle.index as usize)?;
        if entry.generation != handle.generation || !matches!(entry.slot, Slot::Occupied(_)) {
            return None;
        }
        entry.generation = entry.generation.wrapping_add(1); // odd → even
        let slot = std::mem::replace(
            &mut entry.slot,
            Slot::Vacant {
                next: self.free_head,
            },
        );
        self.free_head = handle.index;
        match slot {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant { .. } => unreachable!("checked occupied above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_handles_never_resolve_after_slot_reuse() {
        let mut a = EventArena::with_capacity(1);
        let mut old = Vec::new();
        for i in 0..50u32 {
            let h = a.insert(i);
            assert_eq!(a.remove(h), Some(i));
            old.push(h);
        }
        // Every insert reused slot 0; only the live tenant resolves.
        let live = a.insert(999);
        for h in old {
            assert_eq!(a.remove(h), None);
        }
        assert_eq!(a.remove(live), Some(999));
        assert_eq!(a.remove(live), None, "double remove is a no-op");
    }
}
