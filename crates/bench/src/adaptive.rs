//! Adaptive-vs-fixed campaign comparison.
//!
//! The fixed 72 h pipeline is the paper's sparsest published rate — the
//! cheapest campaign Eq. 6/7 can express when the rate is an *input*.
//! The adaptive trigger makes the rate an *output*: the same native
//! campaign run under the hysteresis controller coasts through quiet
//! stretches, and its *measured* effective rate feeds back into the
//! calibrated model (`ivis_model::adaptive`). This module runs both
//! campaigns on the native backend, maps the measured rate onto the
//! paper's 60 km problem, and prices the difference — the data behind
//! `experiments adaptive` and the gate that
//! `tests/adaptive_identity.rs` holds it to.

use ivis_core::native::{execute, NativeConfig, NativePlan, NativeReport, NativeRun};
use ivis_core::PipelineKind;
use ivis_model::{AdaptivePlan, MeasuredRate, WhatIfAnalyzer};
use ivis_obs::Recorder;
use ivis_ocean::{ProblemSpec, SamplingRate};
use ivis_trigger::TriggerConfig;

/// The fixed baseline rate the gate compares against, simulated hours.
pub(crate) const FIXED_RATE_HOURS: f64 = 72.0;

/// Both campaigns on the same ocean, plus the model's price tags.
#[derive(Debug, Clone)]
pub struct AdaptiveComparison {
    /// The fixed-rate baseline (one output every `cfg.output_every`).
    pub fixed: NativeReport,
    /// The adaptive campaign, with every trigger decision.
    pub adaptive: NativeRun,
    /// The trigger configuration the adaptive run used.
    pub trigger: TriggerConfig,
    /// Measured effective interval, in units of the fixed interval
    /// (`> 1` means the controller relaxed below the fixed rate).
    pub rate_ratio: f64,
    /// Eddy trajectories recovered by the fixed campaign.
    pub fixed_recall: usize,
    /// Eddy trajectories recovered by the adaptive campaign.
    pub adaptive_recall: usize,
    /// Fixed 72 h campaign energy on the paper's 60 km problem, GJ.
    pub fixed_energy_gj: f64,
    /// Adaptive campaign energy at the measured rate, GJ.
    pub adaptive_energy_gj: f64,
    /// Fixed 72 h campaign image storage, GB.
    pub fixed_storage_gb: f64,
    /// Adaptive campaign image storage at the measured rate, GB.
    pub adaptive_storage_gb: f64,
}

impl AdaptiveComparison {
    /// Run both campaigns on `cfg`'s ocean. The native run's
    /// `output_every` interval plays the role of the paper's 72 h rate;
    /// the adaptive trigger analyzes at that same cadence and may relax
    /// up to `trigger.max_interval`.
    fn run(cfg: &NativeConfig, trigger: &TriggerConfig) -> Self {
        let fixed = NativePlan::new(cfg.clone(), PipelineKind::InSitu);
        let adaptive = NativePlan {
            trigger: Some(trigger.clone()),
            ..fixed.clone()
        };
        let run = |plan| execute(plan, &Recorder::off()).expect("a valid native plan");
        let (fixed, adaptive) = (run(&fixed).report, run(&adaptive));
        let effective = MeasuredRate::from_counts(cfg.steps, adaptive.report.frames);
        let rate_ratio = effective.steps_per_output / cfg.output_every as f64;

        // Map the measured rate onto the paper's 60 km problem: the
        // native `output_every` interval ≙ the fixed 72 h rate, so the
        // adaptive campaign's effective rate is `rate_ratio` times
        // sparser than 72 h.
        let analyzer = WhatIfAnalyzer::paper();
        let spec = ProblemSpec::paper_60km();
        let fixed_rate = SamplingRate::every_hours(FIXED_RATE_HOURS);
        let measured = MeasuredRate {
            steps_per_output: rate_ratio * spec.steps_per_output(fixed_rate) as f64,
        };
        let analysis_hours =
            FIXED_RATE_HOURS * trigger.analysis_interval as f64 / cfg.output_every as f64;
        let plan = AdaptivePlan::new(analysis_hours, trigger.candidates);

        AdaptiveComparison {
            rate_ratio,
            fixed_recall: fixed.tracks.len(),
            adaptive_recall: adaptive.report.tracks.len(),
            fixed_energy_gj: analyzer
                .energy(PipelineKind::InSitu, &spec, fixed_rate)
                .joules()
                / 1e9,
            adaptive_energy_gj: analyzer.adaptive_energy(&spec, measured, &plan).joules() / 1e9,
            fixed_storage_gb: analyzer.storage_bytes(PipelineKind::InSitu, &spec, fixed_rate)
                as f64
                / 1e9,
            adaptive_storage_gb: analyzer.adaptive_storage_bytes(&spec, measured) as f64 / 1e9,
            fixed,
            adaptive,
            trigger: trigger.clone(),
        }
    }

    /// The comparison `experiments adaptive` prints and the root tests
    /// gate: the seconds-scale ocean, five candidate viewpoints, analyses
    /// at the fixed cadence with up to 4× relax.
    pub fn default_scenario() -> Self {
        let cfg = NativeConfig::small();
        let tc = TriggerConfig::new(cfg.output_every, 5);
        Self::run(&cfg, &tc)
    }

    /// The gate: the adaptive campaign must emit strictly fewer
    /// frames AND price strictly below the fixed 72 h baseline on both
    /// the energy and storage axes, at no loss of eddy-event recall.
    pub fn gate_pass(&self) -> bool {
        self.adaptive.report.frames < self.fixed.frames
            && self.adaptive_energy_gj < self.fixed_energy_gj
            && self.adaptive_storage_gb < self.fixed_storage_gb
            && self.adaptive_recall >= self.fixed_recall
    }

    /// Human-readable gate verdict lines.
    pub fn gate_summary(&self) -> String {
        format!(
            "frames {} vs {} | energy {:.3} vs {:.3} GJ | storage {:.4} vs {:.4} GB | \
             recall {} vs {} tracks → {}",
            self.adaptive.report.frames,
            self.fixed.frames,
            self.adaptive_energy_gj,
            self.fixed_energy_gj,
            self.adaptive_storage_gb,
            self.fixed_storage_gb,
            self.adaptive_recall,
            self.fixed_recall,
            if self.gate_pass() { "PASS" } else { "FAIL" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_ratio_prices_into_the_model_monotonically() {
        let c = AdaptiveComparison::default_scenario();
        // The energy saving cannot exceed what pure rate scaling allows.
        assert!(c.adaptive_energy_gj > c.fixed_energy_gj / (c.rate_ratio * 1.5));
    }
}
