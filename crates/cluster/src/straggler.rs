//! Per-node compute stragglers.
//!
//! A straggler is a node running slower than its peers — thermal
//! throttling, a failing DIMM, OS jitter. Under the bulk-synchronous
//! execution model of the coupled simulation (every rank must reach the
//! barrier before the next step starts), the *slowest* node gates every
//! step, so a single straggler slows the whole machine. [`StragglerSet`]
//! tracks the per-node slowdown factors and exposes exactly that
//! worst-case factor; the fault layer maps scheduled
//! `ComputeStraggler` windows onto it and the pipeline executors
//! multiply their step durations by [`StragglerSet::bsp_slowdown`].

use crate::topology::NodeId;

/// The set of currently-straggling nodes and their slowdown factors
/// (1.0 = nominal speed, 2.0 = half speed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StragglerSet {
    /// Sorted by node for deterministic iteration.
    factors: Vec<(NodeId, f64)>,
}

impl StragglerSet {
    /// No stragglers.
    pub fn new() -> Self {
        StragglerSet::default()
    }

    /// Set (or update) the slowdown factor of `node`. Factors below 1.0
    /// are clamped to 1.0 — a node cannot run faster than nominal.
    pub fn set(&mut self, node: NodeId, factor: f64) {
        assert!(factor.is_finite(), "slowdown factor must be finite");
        let factor = factor.max(1.0);
        match self.factors.binary_search_by_key(&node, |e| e.0) {
            Ok(i) => self.factors[i].1 = factor,
            Err(i) => self.factors.insert(i, (node, factor)),
        }
    }

    /// Restore every node to nominal speed.
    pub fn clear_all(&mut self) {
        self.factors.clear();
    }

    /// The factor by which a bulk-synchronous step slows down: the
    /// maximum per-node slowdown (the slowest rank gates the barrier).
    /// Returns 1.0 when no node straggles.
    pub fn bsp_slowdown(&self) -> f64 {
        self.factors.iter().map(|e| e.1).fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_nominal() {
        let s = StragglerSet::new();
        assert!(s.factors.is_empty());
        assert_eq!(s.bsp_slowdown(), 1.0);
    }

    #[test]
    fn slowest_node_gates_the_step() {
        let mut s = StragglerSet::new();
        s.set(NodeId(3), 1.5);
        s.set(NodeId(7), 2.5);
        s.set(NodeId(1), 1.1);
        assert_eq!(s.factors.len(), 3);
        assert_eq!(s.bsp_slowdown(), 2.5);
    }

    #[test]
    fn updates_replace_and_clamp() {
        let mut s = StragglerSet::new();
        s.set(NodeId(0), 3.0);
        s.set(NodeId(0), 0.5); // clamped to nominal
        assert_eq!(s.bsp_slowdown(), 1.0);
        assert_eq!(s.factors.len(), 1);
        s.clear_all();
        assert!(s.factors.is_empty());
    }
}
