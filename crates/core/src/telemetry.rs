//! The one telemetry hook every executor shares.
//!
//! Each executor — in-situ, post-hoc and staged in-transit, clean or
//! faulted ([`Campaign::execute`]), and the native backend — already
//! harvests its power pathway into
//! [`PipelineMetrics`] profiles (or, for the native backend, phase spans
//! in the [`TraceBuffer`]). [`RunTelemetry::from_metrics`] turns that
//! harvest into one sampled W(t) [`PowerTimeline`] per
//! metered component at the requested cadence (the paper's per-minute
//! PDU view at [`paper_cadence`], or down to 1 s for debugging), plus
//! helpers to publish the signals as power gauges so the Prometheus
//! snapshot carries them.
//!
//! [`Campaign::execute`]: crate::campaign::Campaign::execute
//! [`paper_cadence`]: ivis_obs::telemetry::paper_cadence

use ivis_cluster::IoWaitPolicy;
use ivis_obs::telemetry::PowerTimeline;
use ivis_obs::{Recorder, TraceBuffer};
use ivis_power::node::NodePowerModel;
use ivis_sim::SimDuration;

use crate::metrics::PipelineMetrics;

/// Sampled per-component power timelines for one pipeline run.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The Appro-cage view of the compute cluster, resampled.
    pub compute: PowerTimeline,
    /// The Raritan-PDU view of the storage rack, resampled.
    pub storage: PowerTimeline,
}

impl RunTelemetry {
    /// Reconstruct both component timelines from a run's harvested
    /// profiles at `cadence` — the same profiles the energy accounting
    /// uses, so the timelines' integrals match `energy_between`
    /// attribution exactly, whichever executor produced `metrics`.
    ///
    /// # Panics
    /// Panics if `cadence` is zero.
    pub fn from_metrics(metrics: &PipelineMetrics, cadence: SimDuration) -> Self {
        RunTelemetry {
            compute: PowerTimeline::from_profile("compute", &metrics.compute_profile, cadence),
            storage: PowerTimeline::from_profile("storage", &metrics.storage_profile, cadence),
        }
    }

    /// Publish both timelines into `rec` as the gauges
    /// `power.compute_w` / `power.storage_w` (no-op when the recorder is
    /// off), so exported snapshots carry the sampled power signal.
    pub fn record_gauges(&self, rec: &Recorder) {
        for (at, w) in self.compute.gauge_samples() {
            rec.gauge_set(at, "power.compute_w", w.watts());
        }
        for (at, w) in self.storage.gauge_samples() {
            rec.gauge_set(at, "power.storage_w", w.watts());
        }
    }
}

/// Reconstruct a single-node power timeline for a native-backend run
/// from its recorded phase spans: the trace's phase timeline joined with
/// the calibrated Caddy node model under `policy`, sampled at `cadence`.
/// Returns an empty timeline if the buffer recorded no phase spans.
///
/// # Panics
/// Panics if `cadence` is zero.
pub fn native_power_timeline(
    buf: &TraceBuffer,
    policy: IoWaitPolicy,
    cadence: SimDuration,
) -> PowerTimeline {
    let node = NodePowerModel::caddy();
    PowerTimeline::from_phases(
        "native-node",
        &buf.phase_timeline(),
        move |phase| node.power(phase.load(policy)),
        cadence,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::native::{execute, NativeConfig, NativePlan};
    use crate::{PipelineConfig, PipelineKind, Plan};
    use ivis_fault::{FaultPlan, FaultScenario};
    use ivis_obs::telemetry::paper_cadence;
    use ivis_sim::SimTime;

    /// The tentpole invariant, end-to-end: for every paper configuration
    /// and several cadences, the sampled timelines integrate to exactly
    /// the energy the run metered.
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
            // the timeline's mean power.
            let mean = g.mean_over(tel.compute.start(), tel.compute.end(), 0.0);
            assert!((mean - tel.compute.stats().mean.watts()).abs() < 1e-6);
            assert!(buf.metrics.get("power.storage_w").is_some());
        })
        .expect("recorder is on");
        // Off-recorder: publishing is a no-op, not a panic.
        tel.record_gauges(&Recorder::off());
    }

    #[test]
    fn native_runs_reconstruct_node_power_from_phase_spans() {
        let rec = Recorder::in_memory();
        let plan = NativePlan::new(NativeConfig::tiny(), PipelineKind::InSitu);
        let report = execute(&plan, &rec).expect("tiny() is valid").report;
        assert!(report.frames > 0);
        let tl = rec
            .with_buffer(|buf| {
                native_power_timeline(buf, IoWaitPolicy::BusyWait, SimDuration::from_secs(1))
            })
            .expect("recorder is on");
        assert!(!tl.is_empty(), "native run recorded phase spans");
        let node = NodePowerModel::caddy();
        let stats = tl.stats();
        // The node never draws less than idle nor more than the loaded
        // calibration point.
        assert!(stats.peak <= node.loaded());
        assert!(stats.mean >= node.idle());
        assert_eq!(tl.start(), SimTime::ZERO);
    }
}
