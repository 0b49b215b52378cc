//! Adaptive-rate extension of the §VII what-if engine.
//!
//! Eq. 6/7 treat the sampling rate as a fixed *input*. The adaptive
//! trigger (`ivis-trigger` + the native adaptive executor) makes it a
//! dynamic *output*: a campaign's effective rate is whatever the
//! hysteresis controller converged to. This module closes the loop —
//! a [`MeasuredRate`] harvested from an adaptive run is fed back into
//! the calibrated model, so the paper's storage and energy predictions
//! extend to campaigns the original formulation could not express:
//!
//! ```text
//! t = (iter/iter_ref)·t_sim_ref + α·S(rate_eff) + β·(N(rate_eff) + κ·C·A)
//! ```
//!
//! where `rate_eff` is the *measured* effective rate, `C` the candidate
//! count, `A` the number of analyses, and `κ` the cost of one low-res
//! candidate evaluation relative to a full β-cost render. With `κ = 0`
//! and `rate_eff` equal to a fixed rate, the prediction degenerates to
//! [`WhatIfAnalyzer::execution_seconds`] exactly.

use ivis_ocean::ProblemSpec;
use ivis_power::units::Joules;

use crate::whatif::WhatIfAnalyzer;

/// The effective sampling rate an adaptive campaign actually realized,
/// expressed resolution-independently as steps per emitted frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRate {
    /// Mean simulation steps between emitted frames.
    pub steps_per_output: f64,
}

impl MeasuredRate {
    /// From raw campaign counts: `total_steps` simulated, `frames`
    /// emitted. A campaign that emitted nothing measures as one output
    /// per whole run (the sparsest expressible rate), not a division by
    /// zero.
    pub fn from_counts(total_steps: u64, frames: u64) -> Self {
        assert!(total_steps > 0, "campaign must have simulated something");
        MeasuredRate {
            steps_per_output: total_steps as f64 / frames.max(1) as f64,
        }
    }

    /// Outputs a `spec`-sized campaign emits at this rate.
    pub(crate) fn outputs_for(&self, spec: &ProblemSpec) -> f64 {
        spec.total_steps() as f64 / self.steps_per_output
    }
}

/// The adaptive campaign's cost knobs, mirroring `TriggerConfig` at the
/// model's level of abstraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePlan {
    /// Cadence of trigger analyses, simulated hours.
    pub analysis_every_hours: f64,
    /// Candidate viewpoints evaluated per analysis.
    pub candidates: usize,
    /// Cost of one low-resolution candidate evaluation relative to a
    /// full-resolution β-cost render (`0.0` = free, `1.0` = as
    /// expensive as an output frame). Evaluation renders are typically
    /// 10–100× smaller than output frames, so κ ≪ 1.
    pub candidate_cost_ratio: f64,
}

impl AdaptivePlan {
    /// A plan with `candidates` cameras analyzed every `hours`, at the
    /// default κ = 0.02 (a 48×32 evaluation render against the paper's
    /// ~1 MP output frame).
    pub fn new(hours: f64, candidates: usize) -> Self {
        AdaptivePlan {
            analysis_every_hours: hours,
            candidates: candidates.max(1),
            candidate_cost_ratio: 0.02,
        }
    }

    /// Analyses a `spec`-sized campaign performs.
    pub(crate) fn analyses_for(&self, spec: &ProblemSpec) -> f64 {
        spec.duration_hours / self.analysis_every_hours
    }

    /// The β-equivalent render count the candidate sweep adds.
    pub(crate) fn overhead_renders(&self, spec: &ProblemSpec) -> f64 {
        self.candidate_cost_ratio * self.candidates as f64 * self.analyses_for(spec)
    }
}

impl WhatIfAnalyzer {
    /// Predicted execution time of an adaptive in-situ campaign, seconds:
    /// Eq. 4 with the *measured* effective rate driving S and N, plus the
    /// candidate sweep's κ·C·A render-equivalents.
    pub(crate) fn predict_adaptive_seconds(
        &self,
        spec: &ProblemSpec,
        measured: MeasuredRate,
        plan: &AdaptivePlan,
    ) -> f64 {
        let n_emit = measured.outputs_for(spec);
        let s_gb = n_emit * self.image_bytes_per_output as f64 / 1e9;
        let n_viz = n_emit + plan.overhead_renders(spec);
        self.model.predict_seconds(spec.total_steps(), s_gb, n_viz)
    }

    /// Predicted energy of an adaptive campaign (Fig. 10 extended).
    pub fn adaptive_energy(
        &self,
        spec: &ProblemSpec,
        measured: MeasuredRate,
        plan: &AdaptivePlan,
    ) -> Joules {
        Joules(self.power.watts() * self.predict_adaptive_seconds(spec, measured, plan))
    }

    /// Predicted storage of an adaptive campaign (Fig. 9 extended):
    /// only emitted frames hit the image database.
    pub fn adaptive_storage_bytes(&self, spec: &ProblemSpec, measured: MeasuredRate) -> u64 {
        (measured.outputs_for(spec) * self.image_bytes_per_output as f64).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_core::PipelineKind;
    use ivis_ocean::SamplingRate;

    #[test]
    fn free_candidates_at_fixed_rate_degenerate_to_eq67() {
        // κ = 0 and a measured rate equal to the fixed 24 h rate must
        // reproduce the fixed-rate prediction exactly.
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let rate = SamplingRate::every_hours(24.0);
        let spp = spec.steps_per_output(rate);
        let measured = MeasuredRate {
            steps_per_output: spp as f64,
        };
        let mut plan = AdaptivePlan::new(24.0, 10);
        plan.candidate_cost_ratio = 0.0;
        let adaptive = a.predict_adaptive_seconds(&spec, measured, &plan);
        let fixed = a.execution_seconds(PipelineKind::InSitu, &spec, rate);
        assert!(
            (adaptive - fixed).abs() / fixed < 1e-9,
            "adaptive {adaptive} vs fixed {fixed}"
        );
    }

    #[test]
    fn candidate_sweep_costs_show_up() {
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let measured = MeasuredRate {
            steps_per_output: 48.0, // daily
        };
        let cheap = AdaptivePlan {
            candidate_cost_ratio: 0.0,
            ..AdaptivePlan::new(24.0, 10)
        };
        let real = AdaptivePlan::new(24.0, 10);
        let t0 = a.predict_adaptive_seconds(&spec, measured, &cheap);
        let t1 = a.predict_adaptive_seconds(&spec, measured, &real);
        assert!(t1 > t0, "candidate evaluations cost time");
        // κ·C·A β-renders, exactly.
        let expected = a.model.beta * real.overhead_renders(&spec);
        assert!(((t1 - t0) - expected).abs() < 1e-6);
    }

    #[test]
    fn relaxed_measured_rate_saves_energy_and_storage() {
        // An adaptive campaign that coasted to 3× the fixed interval
        // must predict below the fixed 24 h campaign on both axes.
        let a = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_100yr();
        let fixed_rate = SamplingRate::every_hours(24.0);
        let measured = MeasuredRate {
            steps_per_output: 3.0 * spec.steps_per_output(fixed_rate) as f64,
        };
        let plan = AdaptivePlan::new(24.0, 5);
        let e_adaptive = a.adaptive_energy(&spec, measured, &plan);
        let e_fixed = a.energy(PipelineKind::InSitu, &spec, fixed_rate);
        assert!(e_adaptive < e_fixed);
        let s_adaptive = a.adaptive_storage_bytes(&spec, measured);
        let s_fixed = a.storage_bytes(PipelineKind::InSitu, &spec, fixed_rate);
        assert!(s_adaptive < s_fixed);
    }

    #[test]
    fn measured_rate_converts_back_to_outputs() {
        let spec = ProblemSpec::paper_60km();
        let measured = MeasuredRate::from_counts(spec.total_steps(), 60);
        // 8640 steps / 60 frames = 144 steps/output.
        assert_eq!(measured.steps_per_output, 144.0);
        assert!((measured.outputs_for(&spec) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn zero_frames_measures_as_one_output_per_run() {
        let m = MeasuredRate::from_counts(1000, 0);
        assert_eq!(m.steps_per_output, 1000.0);
    }
}
