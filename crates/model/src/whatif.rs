//! The §VII scenario engine: what-if analysis over sampling rates.
//!
//! With the calibrated model, one short measured run answers questions like
//! the paper's Figs. 9 and 10: how much storage / energy does a
//! 100-simulated-year campaign need at a given output rate, which pipeline
//! fits a 2 TB storage reservation, and what is the largest sampling rate an
//! energy or time budget allows?

use ivis_core::PipelineKind;
use ivis_ocean::{ProblemSpec, SamplingRate};
use ivis_power::units::{Joules, Watts};

use crate::perf::PerfModel;

/// The analyzer: model + per-output byte constants + the constant average
/// power (the paper's Finding: power is pipeline-independent).
///
/// ```
/// use ivis_model::WhatIfAnalyzer;
/// use ivis_ocean::{ProblemSpec, SamplingRate};
///
/// let a = WhatIfAnalyzer::paper();
/// let spec = ProblemSpec::paper_100yr();
/// // The paper's Fig. 10: daily sampling saves ~38 % of workflow energy.
/// let saving = a.energy_saving_pct(&spec, SamplingRate::daily());
/// assert!((saving - 38.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct WhatIfAnalyzer {
    /// Calibrated performance model.
    pub model: PerfModel,
    /// Average total power during a run.
    pub power: Watts,
    /// Raw bytes per post-processing output.
    pub raw_bytes_per_output: u64,
    /// Image bytes per in-situ output.
    pub image_bytes_per_output: u64,
}

impl WhatIfAnalyzer {
    /// The paper's constants: published model, ≈46.3 kW total average power
    /// (44 kW compute + 2.3 kW storage), 426 MB raw / 1.11 MB images per
    /// output.
    pub fn paper() -> Self {
        WhatIfAnalyzer {
            model: PerfModel::paper(),
            power: Watts(46_300.0),
            raw_bytes_per_output: ProblemSpec::paper_60km().raw_output_bytes(),
            image_bytes_per_output: 1_111_111,
        }
    }

    /// Bytes per output for a pipeline kind.
    pub(crate) fn bytes_per_output(&self, kind: PipelineKind) -> u64 {
        match kind {
            PipelineKind::InSitu => self.image_bytes_per_output,
            PipelineKind::PostProcessing => self.raw_bytes_per_output,
        }
    }

    /// Storage needed by `spec` at `rate` for `kind` (Fig. 9's y-axis);
    /// `u64::MAX` when the byte count does not fit (post-processing at
    /// intervals under ≈ 0.07 s on the 100-year spec).
    pub fn storage_bytes(&self, kind: PipelineKind, spec: &ProblemSpec, rate: SamplingRate) -> u64 {
        spec.num_outputs(rate)
            .saturating_mul(self.bytes_per_output(kind))
    }

    /// Predicted execution time, seconds.
    pub(crate) fn execution_seconds(
        &self,
        kind: PipelineKind,
        spec: &ProblemSpec,
        rate: SamplingRate,
    ) -> f64 {
        let n = spec.num_outputs(rate);
        let b = self.bytes_per_output(kind);
        let bytes = n.checked_mul(b).map_or(n as f64 * b as f64, |s| s as f64);
        let s_gb = bytes / 1e9;
        self.model
            .predict_seconds(spec.total_steps(), s_gb, n as f64)
    }

    /// Predicted energy (Fig. 10's y-axis).
    pub fn energy(&self, kind: PipelineKind, spec: &ProblemSpec, rate: SamplingRate) -> Joules {
        Joules(self.power.watts() * self.execution_seconds(kind, spec, rate))
    }

    /// Energy saving of in-situ over post-processing at `rate`, percent.
    pub fn energy_saving_pct(&self, spec: &ProblemSpec, rate: SamplingRate) -> f64 {
        let e_in = self.energy(PipelineKind::InSitu, spec, rate).joules();
        let e_post = self
            .energy(PipelineKind::PostProcessing, spec, rate)
            .joules();
        (e_post - e_in) / e_post * 100.0
    }

    /// A `(hours, storage_bytes)` curve over sampling intervals — Fig. 9.
    pub fn storage_curve(
        &self,
        kind: PipelineKind,
        spec: &ProblemSpec,
        hours: &[f64],
    ) -> Vec<(f64, u64)> {
        hours
            .iter()
            .map(|&h| {
                (
                    h,
                    self.storage_bytes(kind, spec, SamplingRate::every_hours(h)),
                )
            })
            .collect()
    }

    /// A `(hours, joules)` curve over sampling intervals — Fig. 10.
    pub fn energy_curve(
        &self,
        kind: PipelineKind,
        spec: &ProblemSpec,
        hours: &[f64],
    ) -> Vec<(f64, Joules)> {
        hours
            .iter()
            .map(|&h| (h, self.energy(kind, spec, SamplingRate::every_hours(h))))
            .collect()
    }

    /// The most frequent sampling (smallest interval, hours) whose storage
    /// fits `budget_bytes` — the paper's "2 TB reservation" analysis.
    pub fn max_rate_under_storage_budget(
        &self,
        kind: PipelineKind,
        spec: &ProblemSpec,
        budget_bytes: u64,
    ) -> f64 {
        let per_output = self.bytes_per_output(kind);
        let max_outputs = budget_bytes / per_output;
        if max_outputs == 0 {
            return f64::INFINITY;
        }
        // outputs = duration / interval ⇒ interval = duration / outputs.
        spec.duration_hours / max_outputs as f64
    }

    /// The most frequent sampling (smallest interval, hours) whose energy
    /// fits `budget` for `kind`.
    pub fn max_rate_under_energy_budget(
        &self,
        kind: PipelineKind,
        spec: &ProblemSpec,
        budget: Joules,
    ) -> Option<f64> {
        // E(h) = P · (t_sim + (α·bytes/1e9 + β) · duration/h), monotone in
        // 1/h — solve in closed form.
        let t_sim = spec.total_steps() as f64 / self.model.iter_ref as f64 * self.model.t_sim_ref;
        let budget_secs = budget.joules() / self.power.watts();
        if budget_secs <= t_sim {
            return None; // even zero outputs blow the budget
        }
        let per_output_secs =
            self.model.alpha * self.bytes_per_output(kind) as f64 / 1e9 + self.model.beta;
        let max_outputs = (budget_secs - t_sim) / per_output_secs;
        Some(spec.duration_hours / max_outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: u64 = 1_000_000_000_000;

    #[test]
    fn fig9_post_processing_needs_8_day_sampling_for_2tb() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let min_interval =
            a.max_rate_under_storage_budget(PipelineKind::PostProcessing, &spec, 2 * TB);
        let days = min_interval / 24.0;
        assert!(
            (days - 8.0).abs() < 0.5,
            "paper: once every ~8 days; got {days:.2} days"
        );
    }

    #[test]
    fn fig9_insitu_fits_hourly_in_2tb() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let hourly = a.storage_bytes(PipelineKind::InSitu, &spec, SamplingRate::every_hours(1.0));
        assert!(
            hourly < 2 * TB,
            "hourly in-situ for 100 years = {} GB, fits 2 TB",
            hourly / 1_000_000_000
        );
        let daily = a.storage_bytes(PipelineKind::InSitu, &spec, SamplingRate::daily());
        assert!(daily < 100_000_000_000, "daily images are ~41 GB");
    }

    #[test]
    fn fig9_post_daily_exceeds_budget() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let daily = a.storage_bytes(PipelineKind::PostProcessing, &spec, SamplingRate::daily());
        assert!(daily > 15 * TB, "paper: ~15.5 TB; got {daily}");
    }

    #[test]
    fn fig10_energy_savings_match_paper() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        // Paper: 67.2 % hourly, ~49 % at 12 h, ~38 % daily.
        let s1 = a.energy_saving_pct(&spec, SamplingRate::every_hours(1.0));
        let s12 = a.energy_saving_pct(&spec, SamplingRate::every_hours(12.0));
        let s24 = a.energy_saving_pct(&spec, SamplingRate::every_hours(24.0));
        assert!((s1 - 67.2).abs() < 1.5, "hourly saving {s1:.1} %");
        assert!((s12 - 49.0).abs() < 1.5, "12 h saving {s12:.1} %");
        assert!((s24 - 38.0).abs() < 1.5, "daily saving {s24:.1} %");
    }

    #[test]
    fn storage_curve_is_monotone_in_rate() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let curve = a.storage_curve(
            PipelineKind::PostProcessing,
            &spec,
            &[1.0, 6.0, 24.0, 96.0, 192.0],
        );
        for w in curve.windows(2) {
            assert!(w[0].1 > w[1].1, "less frequent sampling stores less");
        }
    }

    #[test]
    fn energy_curve_converges_to_t_sim_floor() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let sparse = a.energy(
            PipelineKind::PostProcessing,
            &spec,
            SamplingRate::every_hours(8760.0),
        );
        let t_sim_energy = a.power.watts() * (spec.total_steps() as f64 / 8640.0 * 603.0);
        let ratio = sparse.joules() / t_sim_energy;
        assert!(
            ratio < 1.05,
            "sparse sampling approaches the sim-only floor"
        );
    }

    #[test]
    fn energy_budget_solver_inverts_energy() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let rate = SamplingRate::every_hours(12.0);
        let e = a.energy(PipelineKind::PostProcessing, &spec, rate);
        let h = a
            .max_rate_under_energy_budget(PipelineKind::PostProcessing, &spec, e)
            .unwrap();
        assert!((h - 12.0).abs() < 0.05, "solver should invert: {h}");
        // An impossible budget returns None.
        assert!(a
            .max_rate_under_energy_budget(PipelineKind::PostProcessing, &spec, Joules(1.0))
            .is_none());
    }

    #[test]
    fn insitu_always_cheaper_than_post() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        for h in [1.0, 4.0, 24.0, 168.0] {
            let r = SamplingRate::every_hours(h);
            assert!(
                a.energy(PipelineKind::InSitu, &spec, r)
                    < a.energy(PipelineKind::PostProcessing, &spec, r)
            );
            assert!(
                a.storage_bytes(PipelineKind::InSitu, &spec, r)
                    < a.storage_bytes(PipelineKind::PostProcessing, &spec, r)
            );
        }
    }
}
