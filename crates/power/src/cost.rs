//! Dollar-cost models for power and energy.
//!
//! The paper's framing: "a typical estimate of one million dollars per
//! megawatt[-year] means that over 40% of the acquisition cost of a
//! supercomputer goes towards paying energy bills". This module turns the
//! measured joules into the operating-cost numbers a facility planner uses.

use ivis_sim::SimDuration;

use crate::units::Joules;

/// Electricity pricing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyPrice {
    /// Dollars per kilowatt-hour.
    pub dollars_per_kwh: f64,
}

impl EnergyPrice {
    /// Create a price.
    ///
    /// # Panics
    /// Panics on a non-finite or negative price.
    pub(crate) fn per_kwh(dollars: f64) -> Self {
        assert!(dollars.is_finite() && dollars >= 0.0, "bad price");
        EnergyPrice {
            dollars_per_kwh: dollars,
        }
    }

    /// The paper's rule of thumb: $1M per MW-year ⇒ ≈ $0.114/kWh.
    pub fn paper_rule_of_thumb() -> Self {
        // 1 MW for a year = 8_766_000 kWh ⇒ 1e6 / 8.766e6 $/kWh.
        EnergyPrice::per_kwh(1.0e6 / (1_000.0 * 24.0 * 365.25))
    }

    /// Cost of an amount of energy.
    pub fn cost_of(&self, e: Joules) -> f64 {
        e.kilowatt_hours() * self.dollars_per_kwh
    }
}

/// Cost of supercomputer *time* (node-hours), for trade-offs where a faster
/// pipeline frees machine time worth money.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineTimePrice {
    /// Dollars per node-hour.
    pub dollars_per_node_hour: f64,
    /// Nodes in the allocation.
    pub nodes: usize,
}

impl MachineTimePrice {
    /// Cost of occupying the allocation for `d`.
    pub(crate) fn cost_of(&self, d: SimDuration) -> f64 {
        self.dollars_per_node_hour * self.nodes as f64 * d.as_secs_f64() / 3_600.0
    }
}

/// Combined workflow cost: energy bill plus machine occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowCost {
    /// Energy bill, dollars.
    pub energy_dollars: f64,
    /// Machine-time cost, dollars.
    pub machine_dollars: f64,
}

impl WorkflowCost {
    /// Total dollars.
    pub fn total(&self) -> f64 {
        self.energy_dollars + self.machine_dollars
    }
}

/// Price a workflow given its energy and duration.
pub fn workflow_cost(
    energy: Joules,
    duration: SimDuration,
    energy_price: EnergyPrice,
    machine_price: MachineTimePrice,
) -> WorkflowCost {
    WorkflowCost {
        energy_dollars: energy_price.cost_of(energy),
        machine_dollars: machine_price.cost_of(duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;

    #[test]
    fn rule_of_thumb_matches_headline() {
        // 1 MW for a year should cost ~$1M under the paper's rule.
        let price = EnergyPrice::paper_rule_of_thumb();
        let annual = price.cost_of(Watts(1_000_000.0).over(SimDuration::from_hours(24 * 365)));
        assert!((annual - 1.0e6).abs() / 1.0e6 < 0.01, "annual = {annual}");
    }

    #[test]
    fn kwh_pricing() {
        let price = EnergyPrice::per_kwh(0.10);
        let e = Watts(1_000.0).over(SimDuration::from_hours(10)); // 10 kWh
        assert!((price.cost_of(e) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn caddy_campaign_cost_scale() {
        // A 46 kW machine for 2700 s ≈ 34.5 kWh ≈ $3.9 at the paper's rate —
        // small per run, large over a 100-year campaign (≈ 1300× more).
        let price = EnergyPrice::paper_rule_of_thumb();
        let e = Watts(46_000.0).over(SimDuration::from_secs(2_700));
        let per_run = price.cost_of(e);
        assert!((3.0..5.5).contains(&per_run), "per run ${per_run:.2}");
    }

    #[test]
    fn machine_time_pricing() {
        let price = MachineTimePrice {
            dollars_per_node_hour: 0.5,
            nodes: 150,
        };
        let c = price.cost_of(SimDuration::from_hours(2));
        assert!((c - 150.0).abs() < 1e-9);
    }

    #[test]
    fn workflow_cost_combines() {
        let wc = workflow_cost(
            Watts(46_000.0).over(SimDuration::from_secs(3_600)),
            SimDuration::from_secs(3_600),
            EnergyPrice::per_kwh(0.1),
            MachineTimePrice {
                dollars_per_node_hour: 0.5,
                nodes: 150,
            },
        );
        assert!((wc.energy_dollars - 4.6).abs() < 1e-9);
        assert!((wc.machine_dollars - 75.0).abs() < 1e-9);
        assert!((wc.total() - 79.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad price")]
    fn negative_price_rejected() {
        let _ = EnergyPrice::per_kwh(-1.0);
    }
}
