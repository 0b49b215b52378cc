//! The one telemetry hook every executor shares.
//!
//! Each executor — in-situ, post-hoc and staged in-transit, clean or
//! faulted ([`Campaign::execute`]) — already harvests its power pathway
//! into [`PipelineMetrics`] profiles. [`RunTelemetry::from_metrics`]
//! resamples that harvest into one sampled W(t) [`PowerProfile`] per
//! metered component at the requested cadence (the paper's per-minute
//! PDU view at [`paper_cadence`], or down to 1 s for debugging), and
//! publishes the signals as power gauges so the Prometheus snapshot
//! carries them.
//!
//! [`Campaign::execute`]: crate::campaign::Campaign::execute
//! [`paper_cadence`]: ivis_obs::telemetry::paper_cadence

use ivis_obs::Recorder;
use ivis_power::profile::PowerProfile;
use ivis_sim::SimDuration;

use crate::metrics::PipelineMetrics;

/// Sampled per-component power signals for one pipeline run.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The Appro-cage view of the compute cluster, resampled.
    pub compute: PowerProfile,
    /// The Raritan-PDU view of the storage rack, resampled.
    pub storage: PowerProfile,
}

impl RunTelemetry {
    /// Resample both component profiles of a run at `cadence` — the same
    /// profiles the energy accounting uses, so the resampled integrals
    /// match `energy_between` attribution exactly, whichever executor
    /// produced `metrics`.
    ///
    /// # Panics
    /// Panics if `cadence` is zero.
    pub fn from_metrics(metrics: &PipelineMetrics, cadence: SimDuration) -> Self {
        RunTelemetry {
            compute: metrics.compute_profile.resample(cadence),
            storage: metrics.storage_profile.resample(cadence),
        }
    }

    /// Publish both signals into `rec` as the gauges `power.compute_w` /
    /// `power.storage_w`, one step per sample from the start of its
    /// interval (no-op when the recorder is off), so exported snapshots
    /// carry the sampled power signal.
    pub fn record_gauges(&self, rec: &Recorder) {
        for (name, profile) in [
            ("power.compute_w", &self.compute),
            ("power.storage_w", &self.storage),
        ] {
            for (from, s) in profile.steps() {
                rec.gauge_set(from, name, s.avg.watts());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::{PipelineConfig, PipelineKind, Plan};
    use ivis_fault::{FaultPlan, FaultScenario};
    use ivis_obs::telemetry::paper_cadence;

    /// End to end: for every paper configuration and several cadences,
    /// the resampled signals integrate to exactly the energy the run
    /// metered.
    #[test]
    fn timeline_integrals_match_metered_energy_for_all_configs() {
        let campaign = Campaign::paper();
        for pc in PipelineConfig::paper_matrix() {
            let metrics = campaign.run(&pc);
            for cadence in [
                SimDuration::from_secs(1),
                SimDuration::from_secs(7),
                paper_cadence(),
            ] {
                let tel = RunTelemetry::from_metrics(&metrics, cadence);
                let got = tel.compute.energy().joules() + tel.storage.energy().joules();
                let want = metrics.energy_total().joules();
                assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want),
                    "{:?}@{}h cadence {:?}: {} vs {}",
                    pc.kind,
                    pc.rate.every_hours,
                    cadence,
                    got,
                    want
                );
            }
        }
    }

    #[test]
    fn faulted_runs_emit_timelines_through_the_same_hook() {
        let campaign = Campaign::paper();
        let pc = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
        let plan = FaultPlan::random(7, SimDuration::from_secs(1_300));
        let run = campaign
            .execute(&Plan {
                faults: Some(FaultScenario::with_plan(plan)),
                ..Plan::new(pc)
            })
            .expect("random plans degrade runs, they do not kill them");
        let tel = RunTelemetry::from_metrics(&run.metrics, paper_cadence());
        let got = tel.compute.energy().joules() + tel.storage.energy().joules();
        let want = run.metrics.energy_total().joules();
        assert!((got - want).abs() < 1e-6 * (1.0 + want));
    }

    #[test]
    fn power_gauges_land_in_the_recorder() {
        let mut campaign = Campaign::paper();
        let rec = Recorder::in_memory();
        campaign.config.recorder = rec.clone();
        let pc = PipelineConfig::paper(PipelineKind::InSitu, 72.0);
        let metrics = campaign.run(&pc);
        let tel = RunTelemetry::from_metrics(&metrics, paper_cadence());
        tel.record_gauges(&rec);
        rec.with_buffer(|buf| {
            let g = buf.metrics.get("power.compute_w").expect("gauge recorded");
            // The gauge's time-weighted mean over the run window equals
            // the resampled signal's mean power.
            let mean = g.mean_over(tel.compute.start(), tel.compute.end(), 0.0);
            assert!((mean - tel.compute.stats().mean.watts()).abs() < 1e-6);
            assert!(buf.metrics.get("power.storage_w").is_some());
        })
        .expect("recorder is on");
        // Off-recorder: publishing is a no-op, not a panic.
        tel.record_gauges(&Recorder::off());
    }
}
