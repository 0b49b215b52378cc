//! Pipeline selection under dollar constraints.
//!
//! The paper closes §VII with "we envision our model being used in an
//! automated framework to decide the sampling rate and the pipeline
//! automatically depending on a given set of constraints". This module is
//! that framework: given energy and machine-time prices, pick the cheapest
//! `(pipeline, rate)` that satisfies storage/time/energy constraints.

use ivis_core::PipelineKind;
use ivis_ocean::{ProblemSpec, SamplingRate};
use ivis_power::cost::{workflow_cost, EnergyPrice, MachineTimePrice};
use ivis_sim::SimDuration;

use crate::whatif::WhatIfAnalyzer;

/// Constraints on a campaign.
#[derive(Debug, Clone, Copy)]
pub struct Constraints {
    /// Maximum storage footprint, bytes.
    pub max_storage_bytes: Option<u64>,
    /// Maximum wall time, seconds.
    pub max_seconds: Option<f64>,
    /// Minimum sampling rate (largest acceptable interval, hours) — the
    /// *scientific* requirement (e.g. daily for eddy tracking).
    pub max_interval_hours: f64,
}

/// The model's prediction for one `(pipeline, interval)` choice.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// The pipeline.
    pub kind: PipelineKind,
    /// The sampling interval, hours.
    pub interval_hours: f64,
    /// Predicted wall time, seconds.
    pub seconds: f64,
    /// Predicted storage, bytes.
    pub storage_bytes: u64,
    /// Total dollars (energy + machine time).
    pub dollars: f64,
}

/// The planner.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Underlying what-if engine.
    pub analyzer: WhatIfAnalyzer,
    /// Electricity price.
    pub energy_price: EnergyPrice,
    /// Machine-time price.
    pub machine_price: MachineTimePrice,
}

impl Planner {
    /// A planner with the paper's model and rule-of-thumb prices
    /// ($1M/MW-year electricity; $0.5 per node-hour machine time).
    pub fn paper() -> Self {
        Planner {
            analyzer: WhatIfAnalyzer::paper(),
            energy_price: EnergyPrice::paper_rule_of_thumb(),
            machine_price: MachineTimePrice {
                dollars_per_node_hour: 0.5,
                nodes: 150,
            },
        }
    }

    /// Predict one `(kind, interval)` choice for `spec`.
    pub fn evaluate(
        &self,
        kind: PipelineKind,
        spec: &ProblemSpec,
        interval_hours: f64,
    ) -> Prediction {
        let rate = SamplingRate::every_hours(interval_hours);
        let seconds = self.analyzer.execution_seconds(kind, spec, rate);
        let storage_bytes = self.analyzer.storage_bytes(kind, spec, rate);
        let energy = self.analyzer.energy(kind, spec, rate);
        let cost = workflow_cost(
            energy,
            SimDuration::from_secs_f64(seconds),
            self.energy_price,
            self.machine_price,
        );
        Prediction {
            kind,
            interval_hours,
            seconds,
            storage_bytes,
            dollars: cost.total(),
        }
    }

    /// Pick the cheapest feasible prediction over both pipelines and a candidate
    /// set of sampling intervals at or finer than the scientific
    /// requirement. Returns `None` if nothing is feasible.
    pub fn cheapest_feasible(
        &self,
        spec: &ProblemSpec,
        candidates_hours: &[f64],
        constraints: &Constraints,
    ) -> Option<Prediction> {
        let mut best: Option<Prediction> = None;
        for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
            for &h in candidates_hours {
                if h > constraints.max_interval_hours {
                    continue; // too coarse for the science
                }
                let candidate = self.evaluate(kind, spec, h);
                if let Some(max_s) = constraints.max_storage_bytes {
                    if candidate.storage_bytes > max_s {
                        continue;
                    }
                }
                if let Some(max_t) = constraints.max_seconds {
                    if candidate.seconds > max_t {
                        continue;
                    }
                }
                if best.as_ref().is_none_or(|b| candidate.dollars < b.dollars) {
                    best = Some(candidate);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATES: [f64; 6] = [1.0, 6.0, 12.0, 24.0, 72.0, 168.0];
    const TB: u64 = 1_000_000_000_000;

    #[test]
    fn insitu_is_always_cheaper_at_equal_rate() {
        let p = Planner::paper();
        let spec = ProblemSpec::paper_100yr();
        for h in CANDIDATES {
            let a = p.evaluate(PipelineKind::InSitu, &spec, h);
            let b = p.evaluate(PipelineKind::PostProcessing, &spec, h);
            assert!(
                a.dollars < b.dollars,
                "at {h} h: {} vs {}",
                a.dollars,
                b.dollars
            );
        }
    }

    #[test]
    fn planner_picks_insitu_daily_for_eddy_science() {
        // Science demands daily sampling; 2 TB storage; no time limit.
        let p = Planner::paper();
        let spec = ProblemSpec::paper_100yr();
        let plan = p
            .cheapest_feasible(
                &spec,
                &CANDIDATES,
                &Constraints {
                    max_storage_bytes: Some(2 * TB),
                    max_seconds: None,
                    max_interval_hours: 24.0,
                },
            )
            .expect("in-situ daily is feasible");
        assert_eq!(plan.kind, PipelineKind::InSitu);
        // Cheapest feasible is the coarsest allowed interval.
        assert_eq!(plan.interval_hours, 24.0);
        // Post-processing daily blows the 2 TB budget, so it cannot win.
        let post = p.evaluate(PipelineKind::PostProcessing, &spec, 24.0);
        assert!(post.storage_bytes > 2 * TB);
    }

    #[test]
    fn infeasible_constraints_return_none() {
        let p = Planner::paper();
        let spec = ProblemSpec::paper_100yr();
        let plan = p.cheapest_feasible(
            &spec,
            &CANDIDATES,
            &Constraints {
                max_storage_bytes: Some(1_000), // 1 kB: nothing fits
                max_seconds: None,
                max_interval_hours: 24.0,
            },
        );
        assert!(plan.is_none());
    }

    #[test]
    fn time_budget_forces_coarser_sampling_or_insitu() {
        let p = Planner::paper();
        let spec = ProblemSpec::paper_100yr();
        // Budget just above in-situ hourly but far below post hourly.
        let insitu_hourly = p.evaluate(PipelineKind::InSitu, &spec, 1.0).seconds;
        let plan = p
            .cheapest_feasible(
                &spec,
                &[1.0],
                &Constraints {
                    max_storage_bytes: None,
                    max_seconds: Some(insitu_hourly * 1.05),
                    max_interval_hours: 1.0,
                },
            )
            .expect("in-situ fits the time budget");
        assert_eq!(plan.kind, PipelineKind::InSitu);
    }

    #[test]
    fn dollars_scale_with_time() {
        let p = Planner::paper();
        let spec = ProblemSpec::paper_100yr();
        let fine = p.evaluate(PipelineKind::PostProcessing, &spec, 1.0);
        let coarse = p.evaluate(PipelineKind::PostProcessing, &spec, 168.0);
        assert!(fine.dollars > coarse.dollars);
        assert!(fine.seconds > coarse.seconds);
    }
}
