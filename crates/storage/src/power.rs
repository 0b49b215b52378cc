//! The storage rack's power model.
//!
//! The paper benchmarked the Lustre rack: **2273 W idle, 2302 W at maximum
//! I/O bandwidth** — a 1.3 % dynamic range. The rack's power is therefore a
//! nearly flat affine function of bandwidth utilization. This module
//! provides that curve plus helpers for the §VIII ablations (what if the
//! rack *were* proportional?).

use ivis_power::proportionality::Proportionality;
use ivis_power::units::Watts;

/// Affine storage-rack power model: `P(u) = idle + (full − idle) · u` where
/// `u` is bandwidth utilization.
#[derive(Debug, Clone, Copy)]
pub struct StoragePowerModel {
    idle: Watts,
    full: Watts,
}

impl StoragePowerModel {
    /// Create a model from idle and full-load wall power.
    ///
    /// # Panics
    /// Panics if `full < idle`.
    pub(crate) fn new(idle: Watts, full: Watts) -> Self {
        assert!(
            full.watts() >= idle.watts(),
            "full-load power below idle power"
        );
        StoragePowerModel { idle, full }
    }

    /// The paper's measured rack: 2273 W idle, 2302 W at full bandwidth.
    pub fn paper_lustre_rack() -> Self {
        StoragePowerModel::new(Watts(2273.0), Watts(2302.0))
    }

    /// A hypothetical rack with the same peak but a different proportional
    /// fraction `f ∈ [0, 1]`: `idle = (1 − f) · full`. Used by the
    /// `ablation_storage_proportionality` bench.
    pub fn with_proportional_fraction(full: Watts, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0,1]");
        StoragePowerModel::new(full * (1.0 - f), full)
    }

    /// Power at bandwidth utilization `u ∈ [0, 1]`.
    pub fn power(&self, u: f64) -> Watts {
        let u = if u.is_nan() { 0.0 } else { u.clamp(0.0, 1.0) };
        self.idle + (self.full - self.idle) * u
    }

    /// Idle power.
    pub(crate) fn idle(&self) -> Watts {
        self.idle
    }

    /// The proportionality characterization of this rack.
    pub fn proportionality(&self) -> Proportionality {
        Proportionality::new(self.idle, self.full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rack_endpoints() {
        let m = StoragePowerModel::paper_lustre_rack();
        assert_eq!(m.power(0.0), Watts(2273.0));
        assert_eq!(m.power(1.0), Watts(2302.0));
        assert!((m.proportionality().dynamic_range_pct() - 1.2758).abs() < 0.01);
    }

    #[test]
    fn interpolation_and_clamping() {
        let m = StoragePowerModel::paper_lustre_rack();
        assert!((m.power(0.5).watts() - 2287.5).abs() < 1e-9);
        assert_eq!(m.power(-1.0), m.power(0.0));
        assert_eq!(m.power(9.0), m.power(1.0));
        assert_eq!(m.power(f64::NAN), m.power(0.0));
    }

    #[test]
    fn hypothetical_proportional_rack() {
        let m = StoragePowerModel::with_proportional_fraction(Watts(2302.0), 0.8);
        assert!((m.idle().watts() - 460.4).abs() < 1e-9);
        assert_eq!(m.full, Watts(2302.0));
    }

    #[test]
    fn fully_proportional_rack_idles_at_zero() {
        let m = StoragePowerModel::with_proportional_fraction(Watts(1000.0), 1.0);
        assert_eq!(m.idle(), Watts(0.0));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0,1]")]
    fn bad_fraction_rejected() {
        let _ = StoragePowerModel::with_proportional_fraction(Watts(1.0), 1.5);
    }
}
