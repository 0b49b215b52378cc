//! Per-component power models.
//!
//! Every component maps a utilization level `u ∈ [0, 1]` to a power draw.
//! The CPU model uses the empirical sub-linear curve
//! `P(u) = P_idle + (P_max − P_idle) · u^γ` with `γ < 1`, which matches SPEC
//! power measurements of Sandy-Bridge-class servers (power rises steeply at
//! low utilization, then flattens). All other components use affine models.

use crate::units::Watts;

/// A component that converts utilization into power draw.
pub(crate) trait PowerComponent {
    /// Power at utilization `u` (clamped into `[0, 1]`).
    fn power(&self, u: f64) -> Watts;
}

fn clamp_unit(u: f64) -> f64 {
    if u.is_nan() {
        0.0
    } else {
        u.clamp(0.0, 1.0)
    }
}

/// CPU socket power: `P = idle + (max − idle) · u^gamma`.
#[derive(Debug, Clone)]
pub(crate) struct CpuPower {
    idle: Watts,
    max: Watts,
    gamma: f64,
}

impl CpuPower {
    /// Create a CPU power curve.
    ///
    /// # Panics
    /// Panics if `max < idle` or `gamma <= 0`.
    pub(crate) fn new(idle: Watts, max: Watts, gamma: f64) -> Self {
        assert!(max.watts() >= idle.watts(), "max power below idle power");
        assert!(gamma > 0.0, "gamma must be positive");
        CpuPower { idle, max, gamma }
    }

    /// An Intel E5-2670 (Sandy Bridge EP, 115 W TDP) socket: ~18 W idle,
    /// ~110 W fully loaded, with the usual sub-linear knee.
    pub(crate) fn e5_2670() -> Self {
        CpuPower::new(Watts(18.0), Watts(110.0), 0.66)
    }
}

impl PowerComponent for CpuPower {
    fn power(&self, u: f64) -> Watts {
        let u = clamp_unit(u);
        self.idle + (self.max - self.idle) * u.powf(self.gamma)
    }
}

/// DRAM power: affine in access intensity.
#[derive(Debug, Clone)]
pub(crate) struct DramPower {
    idle: Watts,
    max: Watts,
}

impl DramPower {
    /// Create an affine DRAM model.
    pub(crate) fn new(idle: Watts, max: Watts) -> Self {
        assert!(max.watts() >= idle.watts(), "max power below idle power");
        DramPower { idle, max }
    }

    /// 64 GB of DDR3 (8 × 8 GB RDIMMs): ~12 W idle, ~30 W at full streaming.
    pub(crate) fn ddr3_64gb() -> Self {
        DramPower::new(Watts(12.0), Watts(30.0))
    }
}

impl PowerComponent for DramPower {
    fn power(&self, u: f64) -> Watts {
        let u = clamp_unit(u);
        self.idle + (self.max - self.idle) * u
    }
}

/// NIC/HCA power: nearly flat (InfiniBand QDR HCAs idle hot).
#[derive(Debug, Clone)]
pub(crate) struct NicPower {
    idle: Watts,
    max: Watts,
}

impl NicPower {
    /// Create an affine NIC model.
    pub(crate) fn new(idle: Watts, max: Watts) -> Self {
        assert!(max.watts() >= idle.watts(), "max power below idle power");
        NicPower { idle, max }
    }

    /// QLogic InfiniBand QDR HCA: ~8 W idle, ~11 W at line rate.
    pub(crate) fn ib_qdr() -> Self {
        NicPower::new(Watts(8.0), Watts(11.0))
    }
}

impl PowerComponent for NicPower {
    fn power(&self, u: f64) -> Watts {
        let u = clamp_unit(u);
        self.idle + (self.max - self.idle) * u
    }
}

/// A fixed overhead (fans, VRMs, boards) plus a PSU conversion-loss factor
/// applied to the sum of all downstream components.
#[derive(Debug, Clone)]
pub(crate) struct PsuOverhead {
    /// Constant platform draw: fans, baseboard, voltage regulators.
    pub fixed: Watts,
    /// PSU efficiency in `(0, 1]`; wall power = dc power / efficiency.
    pub efficiency: f64,
}

impl PsuOverhead {
    /// Create a PSU overhead model.
    ///
    /// # Panics
    /// Panics if efficiency is not in `(0, 1]`.
    pub(crate) fn new(fixed: Watts, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1]"
        );
        PsuOverhead { fixed, efficiency }
    }

    /// Wall power needed to deliver `dc` to the components.
    pub(crate) fn wall_power(&self, dc: Watts) -> Watts {
        (dc + self.fixed) / self.efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_curve_endpoints() {
        let cpu = CpuPower::e5_2670();
        assert_eq!(cpu.power(0.0), Watts(18.0));
        assert_eq!(cpu.power(1.0), Watts(110.0));
    }

    #[test]
    fn cpu_curve_is_sublinear() {
        let cpu = CpuPower::e5_2670();
        // At 50% utilization power should exceed the linear midpoint.
        let half = cpu.power(0.5).watts();
        let linear_mid = (18.0 + 110.0) / 2.0;
        assert!(half > linear_mid, "half={half} linear_mid={linear_mid}");
    }

    #[test]
    fn cpu_curve_monotone() {
        let cpu = CpuPower::e5_2670();
        let mut prev = -1.0;
        for i in 0..=100 {
            let p = cpu.power(i as f64 / 100.0).watts();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn utilization_clamped() {
        let cpu = CpuPower::e5_2670();
        assert_eq!(cpu.power(-0.5), cpu.power(0.0));
        assert_eq!(cpu.power(1.5), cpu.power(1.0));
        assert_eq!(cpu.power(f64::NAN), cpu.power(0.0));
    }

    #[test]
    fn affine_models_interpolate() {
        let d = DramPower::new(Watts(10.0), Watts(30.0));
        assert_eq!(d.power(0.5), Watts(20.0));
        let n = NicPower::new(Watts(8.0), Watts(12.0));
        assert_eq!(n.power(0.25), Watts(9.0));
    }

    #[test]
    fn psu_overhead() {
        let psu = PsuOverhead::new(Watts(20.0), 0.9);
        let wall = psu.wall_power(Watts(70.0));
        assert!((wall.watts() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn psu_rejects_bad_efficiency() {
        let _ = PsuOverhead::new(Watts(0.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "max power below idle")]
    fn inverted_range_rejected() {
        let _ = DramPower::new(Watts(30.0), Watts(10.0));
    }
}
