//! Memoization of what-if evaluations.
//!
//! [`WhatIfAnalyzer::answer`](ivis_model::WhatIfAnalyzer) is a pure
//! function of a canonical [`WhatIfRequest`] key, so its rendered
//! response body can be cached byte-for-byte. The cache is a bounded map
//! with FIFO eviction — eviction order is the insertion order, never the
//! map's internal order, so a replay of the same request sequence hits
//! and evicts identically on every host and at every thread count.
//!
//! A body is any cheaply cloned handle `B`. The server keeps
//! `Arc<Vec<u8>>` bodies, because its replies cross to the thread that
//! folds their digests; the default `Rc<Vec<u8>>` serves single-threaded
//! callers.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use ivis_model::WhatIfRequest;

/// A bounded memo table from canonical keys to rendered
/// response bodies.
#[derive(Debug, Default)]
pub struct MemoCache<B = Rc<Vec<u8>>> {
    capacity: usize,
    map: HashMap<WhatIfRequest, B>,
    order: VecDeque<WhatIfRequest>,
}

impl<B: Clone> MemoCache<B> {
    /// A cache holding at most `capacity` bodies. Zero disables
    /// memoization (every lookup misses, nothing is stored) — the
    /// "cold" configuration the benchmark compares against.
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            order: VecDeque::new(),
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &WhatIfRequest) -> Option<B> {
        self.map.get(key).cloned()
    }

    /// Insert a freshly evaluated body, evicting the oldest insertion
    /// when full. A no-op at capacity zero.
    pub fn insert(&mut self, key: WhatIfRequest, body: B) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, body).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                let evicted = self.order.pop_front().expect("order tracks map");
                self.map.remove(&evicted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_core::PipelineKind;
    use ivis_model::SpecId;

    fn key(h: f64) -> WhatIfRequest {
        WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, h, 4).unwrap()
    }

    fn body(s: &str) -> Rc<Vec<u8>> {
        Rc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn round_trip() {
        let mut c = MemoCache::new(8);
        assert!(c.get(&key(1.0)).is_none());
        c.insert(key(1.0), body("a"));
        assert_eq!(c.get(&key(1.0)).unwrap().as_slice(), b"a");
    }

    #[test]
    fn eviction_is_fifo_in_insertion_order() {
        let mut c = MemoCache::new(2);
        c.insert(key(1.0), body("a"));
        c.insert(key(2.0), body("b"));
        c.insert(key(3.0), body("c")); // evicts key(1.0)
        assert!(c.get(&key(1.0)).is_none());
        assert!(c.get(&key(2.0)).is_some());
        assert!(c.get(&key(3.0)).is_some());
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let mut c = MemoCache::new(0);
        c.insert(key(1.0), body("a"));
        assert!(c.get(&key(1.0)).is_none());
        assert!(c.map.is_empty());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_duplicate_order() {
        let mut c = MemoCache::new(2);
        c.insert(key(1.0), body("a"));
        c.insert(key(1.0), body("a2"));
        c.insert(key(2.0), body("b"));
        c.insert(key(3.0), body("c"));
        // key(1.0) was the oldest single entry; it must be the one gone.
        assert!(c.get(&key(1.0)).is_none());
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn arc_bodies_round_trip_evict_and_share_one_allocation() {
        use std::sync::Arc;
        let mut c: MemoCache<Arc<Vec<u8>>> = MemoCache::new(1);
        let a = Arc::new(b"a".to_vec());
        c.insert(key(1.0), Arc::clone(&a));
        let hit = c.get(&key(1.0)).unwrap();
        assert!(Arc::ptr_eq(&hit, &a), "a hit shares the cached body");
        assert_eq!(Arc::strong_count(&a), 3);
        c.insert(key(2.0), Arc::new(b"b".to_vec())); // evicts key(1.0)
        assert!(c.get(&key(1.0)).is_none());
        assert_eq!(c.get(&key(2.0)).unwrap().as_slice(), b"b");
        assert_eq!(
            Arc::strong_count(&a),
            2,
            "eviction drops the cache's handle"
        );
    }
}
