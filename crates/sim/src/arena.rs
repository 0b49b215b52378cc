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
//! which is what makes O(1) *lazy* cancellation safe — the timer wheel
//! keeps its (time, seq, handle) entry and the engine simply skips stale
//! handles on pop.

/// A generation-checked reference to an arena slot.
///
/// Handles are plain data: copying one does not extend the payload's
/// lifetime, and a handle outliving its slot's tenancy simply stops
/// resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    index: u32,
    generation: u32,
}

impl EventHandle {
    /// The slot index (for diagnostics).
    pub fn index(self) -> u32 {
        self.index
    }
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
pub struct EventArena<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for EventArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventArena<T> {
    /// An empty arena (no slots reserved yet).
    pub fn new() -> Self {
        EventArena {
            entries: Vec::new(),
            free_head: u32::MAX,
            len: 0,
        }
    }

    /// An arena with `cap` slots pre-reserved, so the first `cap`
    /// concurrent events never grow the slab.
    pub fn with_capacity(cap: usize) -> Self {
        let mut a = EventArena::new();
        a.entries.reserve(cap);
        a
    }

    /// Live payload count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no payload is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots (live + free) the arena has ever grown to.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Store `value`, returning its handle.
    ///
    /// # Panics
    /// Panics if the arena would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, value: T) -> EventHandle {
        self.len += 1;
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
    pub fn remove(&mut self, handle: EventHandle) -> Option<T> {
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
        self.len -= 1;
        match slot {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Read the payload behind `handle` without removing it.
    pub fn get(&self, handle: EventHandle) -> Option<&T> {
        match self.entries.get(handle.index as usize) {
            Some(e) if e.generation == handle.generation => match &e.slot {
                Slot::Occupied(v) => Some(v),
                Slot::Vacant { .. } => None,
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = EventArena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.remove(h2), Some("two"));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        assert_eq!(a.remove(h1), Some("one"));
        assert!(a.is_empty());
    }

    #[test]
    fn stale_handles_never_resolve() {
        let mut a = EventArena::new();
        let h = a.insert(7u64);
        assert_eq!(a.remove(h), Some(7));
        // Slot is reused by the next insert...
        let h2 = a.insert(8u64);
        assert_eq!(h2.index(), h.index());
        // ...but the old handle is dead: no read, no double-free.
        assert_eq!(a.get(h), None);
        assert_eq!(a.remove(h), None);
        assert_eq!(a.remove(h2), Some(8));
    }

    #[test]
    fn slots_recycle_without_growth() {
        let mut a = EventArena::with_capacity(4);
        let mut handles = Vec::new();
        for round in 0..100u32 {
            for i in 0..4u32 {
                handles.push(a.insert(round * 4 + i));
            }
            assert_eq!(a.capacity(), 4, "steady-state churn must not grow slots");
            for h in handles.drain(..) {
                assert!(a.remove(h).is_some());
            }
        }
    }

    #[test]
    fn generation_distinguishes_many_reuses() {
        let mut a = EventArena::new();
        let mut old = Vec::new();
        for i in 0..50u32 {
            let h = a.insert(i);
            old.push(h);
            a.remove(h);
        }
        let live = a.insert(999);
        for h in old {
            assert_eq!(a.get(h), None);
        }
        assert_eq!(a.get(live), Some(&999));
    }
}
