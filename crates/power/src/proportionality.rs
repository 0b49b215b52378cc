//! Power-proportionality metrics.
//!
//! The paper's central negative result (Finding 2) rests on the storage
//! subsystem's lack of power proportionality: 2273 W idle vs 2302 W at full
//! load — a **1.3 %** dynamic range — against the compute cluster's **193 %**.
//! This module provides the metrics used to characterize subsystems that way
//! and to sweep proportionality in the ablation benchmarks.

use crate::units::Watts;

/// Summary of an idle/full-load characterization, the shape of the paper's
/// storage-rack and compute-cluster benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportionality {
    /// Power at zero load.
    pub idle: Watts,
    /// Power at full load.
    pub full: Watts,
}

impl Proportionality {
    /// Characterize a subsystem from its idle and full-load draw.
    ///
    /// # Panics
    /// Panics if `full < idle` or `idle` is non-positive.
    pub fn new(idle: Watts, full: Watts) -> Self {
        assert!(idle.watts() > 0.0, "idle power must be positive");
        assert!(
            full.watts() >= idle.watts(),
            "full-load power below idle power"
        );
        Proportionality { idle, full }
    }

    /// The paper's Lustre storage rack: 2273 W idle, 2302 W at maximum I/O
    /// bandwidth.
    pub fn paper_storage_rack() -> Self {
        Proportionality::new(Watts(2273.0), Watts(2302.0))
    }

    /// The paper's 150-node compute cluster: 15 kW idle, 44 kW under load.
    pub fn paper_compute_cluster() -> Self {
        Proportionality::new(Watts(15_000.0), Watts(44_000.0))
    }

    /// Dynamic range as a percentage increase over idle
    /// (the paper's "1.3 %" / "193 %" numbers).
    pub fn dynamic_range_pct(&self) -> f64 {
        (self.full.watts() - self.idle.watts()) / self.idle.watts() * 100.0
    }

    /// Maximum power saving available from eliminating the load entirely —
    /// what an in-situ pipeline could at best save on this subsystem.
    pub fn max_saving(&self) -> Watts {
        self.full - self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_rack_numbers() {
        let p = Proportionality::paper_storage_rack();
        assert!((p.dynamic_range_pct() - 1.2758).abs() < 0.01);
        assert_eq!(p.max_saving(), Watts(29.0));
    }

    #[test]
    fn paper_compute_cluster_numbers() {
        let p = Proportionality::paper_compute_cluster();
        assert!((p.dynamic_range_pct() - 193.33).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "full-load power below idle")]
    fn inverted_rejected() {
        let _ = Proportionality::new(Watts(200.0), Watts(100.0));
    }
}
