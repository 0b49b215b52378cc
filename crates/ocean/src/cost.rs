//! Wall-clock cost model of the paper-scale simulation on *Caddy*.
//!
//! The paper's calibrated model has `t_sim = 603 s` for the six-month,
//! 8640-step run on 150 nodes / 2400 cores. We decompose that into a
//! mechanistic per-step cost — floating-point work per cell-level divided
//! over the cores at a realistic sustained rate, plus a halo-exchange
//! term — and provide a calibration hook that pins the total to a measured
//! value, which is exactly how the paper's own `t_sim` constant was
//! obtained.

use crate::problem::ProblemSpec;

/// Per-step cost model for a distributed ocean simulation.
#[derive(Debug, Clone)]
pub struct SimulationCostModel {
    /// Floating-point operations per cell per vertical level per step.
    pub flops_per_cell_level: f64,
    /// Sustained FLOP rate per core, FLOP/s (≈10 % of peak on Sandy Bridge
    /// for memory-bound stencil codes).
    pub sustained_flops_per_core: f64,
    /// Total cores applied to the problem.
    pub cores: u64,
    /// Fixed per-step communication cost (halo exchange + small
    /// collectives), seconds.
    pub comm_seconds_per_step: f64,
}

impl SimulationCostModel {
    /// The *Caddy* model, calibrated so the paper's six-month run costs
    /// t_sim = 603 s (69.79 ms per step on 2400 cores).
    pub fn caddy() -> Self {
        let mut model = SimulationCostModel {
            flops_per_cell_level: 11_000.0,
            sustained_flops_per_core: 2.0e9,
            cores: 2_400,
            comm_seconds_per_step: 5e-3,
        };
        model.calibrate_to(&ProblemSpec::paper_60km(), 603.0);
        model
    }

    /// Compute seconds per timestep for `spec`.
    pub fn step_seconds(&self, spec: &ProblemSpec) -> f64 {
        let flops = spec.num_cells as f64 * spec.num_levels as f64 * self.flops_per_cell_level;
        flops / (self.cores as f64 * self.sustained_flops_per_core) + self.comm_seconds_per_step
    }

    /// Total simulation (compute-only) seconds for `spec`.
    #[cfg(test)]
    fn total_seconds(&self, spec: &ProblemSpec) -> f64 {
        self.step_seconds(spec) * spec.total_steps() as f64
    }

    /// Adjust the sustained FLOP rate so `total_seconds(spec)` equals
    /// `target_seconds` — the calibration the paper performs when it solves
    /// for `t_sim`.
    ///
    /// # Panics
    /// Panics if the target is too small to be reachable (communication
    /// alone exceeds it).
    pub(crate) fn calibrate_to(&mut self, spec: &ProblemSpec, target_seconds: f64) {
        let steps = spec.total_steps() as f64;
        let comm_total = self.comm_seconds_per_step * steps;
        assert!(
            target_seconds > comm_total,
            "target {target_seconds}s below the communication floor {comm_total}s"
        );
        let compute_per_step = (target_seconds - comm_total) / steps;
        let flops = spec.num_cells as f64 * spec.num_levels as f64 * self.flops_per_cell_level;
        self.sustained_flops_per_core = flops / (self.cores as f64 * compute_per_step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caddy_matches_paper_t_sim() {
        let model = SimulationCostModel::caddy();
        let spec = ProblemSpec::paper_60km();
        let total = model.total_seconds(&spec);
        assert!((total - 603.0).abs() < 0.5, "t_sim = {total}");
    }

    #[test]
    fn step_time_is_tens_of_milliseconds() {
        let model = SimulationCostModel::caddy();
        let spec = ProblemSpec::paper_60km();
        let step = model.step_seconds(&spec);
        assert!((step - 0.0698).abs() < 0.001, "step = {step}");
    }

    #[test]
    fn sustained_rate_is_physically_plausible() {
        // Calibration should land near ~2 GFLOP/s per core — well under the
        // 20.8 GFLOP/s peak of an E5-2670 core.
        let model = SimulationCostModel::caddy();
        assert!(
            model.sustained_flops_per_core > 5e8 && model.sustained_flops_per_core < 2.08e10,
            "sustained = {}",
            model.sustained_flops_per_core
        );
    }

    #[test]
    fn simulation_time_scales_with_duration() {
        // Eq. 4: t_sim scales with iter_any / iter_ref.
        let model = SimulationCostModel::caddy();
        let six_months = ProblemSpec::paper_60km();
        let hundred_years = ProblemSpec::paper_100yr();
        let ratio = model.total_seconds(&hundred_years) / model.total_seconds(&six_months);
        let step_ratio = hundred_years.total_steps() as f64 / six_months.total_steps() as f64;
        assert!((ratio - step_ratio).abs() < 1e-9);
    }

    #[test]
    fn more_cores_fewer_seconds() {
        let mut model = SimulationCostModel::caddy();
        let spec = ProblemSpec::paper_60km();
        let base = model.total_seconds(&spec);
        model.cores *= 2;
        let doubled = model.total_seconds(&spec);
        assert!(doubled < base);
        // Communication floor prevents perfect scaling.
        assert!(doubled > base / 2.0);
    }

    #[test]
    #[should_panic(expected = "communication floor")]
    fn impossible_calibration_rejected() {
        let mut model = SimulationCostModel::caddy();
        model.calibrate_to(&ProblemSpec::paper_60km(), 1.0);
    }
}
