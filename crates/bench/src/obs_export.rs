//! Observability exports: traced campaign runs for the bench harness.
//!
//! Glue between `ivis-obs` and the figure pipeline: run any paper
//! configuration with a live recorder, then render the per-phase energy
//! CSV (dropped into the `csv` export directory alongside the figures),
//! the ASCII Fig. 4 analogue, and the JSONL trace dump used by the §VIII
//! `IoWaitPolicy` ablation.

use ivis_cluster::IoWaitPolicy;
use ivis_core::campaign::Campaign;
use ivis_core::metrics::PipelineMetrics;
use ivis_core::{PipelineConfig, PipelineKind, RunTelemetry};
use ivis_obs::telemetry::paper_cadence;
use ivis_obs::{csv as obs_csv, render_fig4, to_jsonl, EnergyAttribution, Recorder};
use ivis_power::profile::PowerProfile;

/// One traced run: metrics, attribution report, and the raw recorder.
pub struct TracedRun {
    /// The run's measured metrics.
    pub metrics: PipelineMetrics,
    /// Per-phase energy attribution.
    pub attribution: EnergyAttribution,
    /// The recorder holding spans, events and metric series.
    pub recorder: Recorder,
}

/// Run one paper configuration with tracing enabled.
pub fn traced_run(kind: PipelineKind, hours: f64, io_policy: IoWaitPolicy) -> TracedRun {
    let mut campaign = Campaign::paper();
    let recorder = Recorder::in_memory();
    campaign.config.recorder = recorder.clone();
    campaign.config.io_policy = io_policy;
    let metrics = campaign.run(&PipelineConfig::paper(kind, hours));
    let attribution = campaign.attribution(&metrics).expect("recorder is on");
    TracedRun {
        metrics,
        attribution,
        recorder,
    }
}

/// Stable config label used in the phase-energy CSV, e.g. `in-situ@8h`.
pub fn config_label(kind: PipelineKind, hours: f64) -> String {
    format!("{}@{hours}h", kind.label())
}

/// Per-phase energy attribution for the full 2×3 paper matrix as one CSV
/// table (`config,phase,seconds,compute_j,storage_j,total_j`).
pub fn phase_energy_csv() -> String {
    let mut out = String::from(obs_csv::ENERGY_CSV_HEADER);
    out.push('\n');
    for pc in PipelineConfig::paper_matrix() {
        let traced = traced_run(pc.kind, pc.rate.every_hours, IoWaitPolicy::BusyWait);
        out.push_str(&obs_csv::energy_csv_rows(
            &config_label(pc.kind, pc.rate.every_hours),
            &traced.attribution,
        ));
    }
    out
}

/// Header of the sampled power CSV: one row per meter interval per
/// component per configuration.
pub(crate) const POWER_CSV_HEADER: &str = "config,component,minute,watts";

/// Append one component's `(minute, watts)` rows to `out`.
fn power_csv_rows(out: &mut String, config: &str, component: &str, profile: &PowerProfile) {
    use std::fmt::Write as _;
    for (minute, watts) in profile.as_rows() {
        let _ = writeln!(out, "{config},{component},{minute},{watts}");
    }
}

/// Sampled W(t) for the full 2×3 paper matrix at the paper's per-minute
/// PDU cadence, as one CSV table — the time-resolved counterpart of
/// [`phase_energy_csv`] (which integrates these same signals per phase).
pub fn phase_power_csv() -> String {
    let mut out = String::from(POWER_CSV_HEADER);
    out.push('\n');
    let campaign = Campaign::paper();
    for pc in PipelineConfig::paper_matrix() {
        let m = campaign.run(&pc);
        let tel = RunTelemetry::from_metrics(&m, paper_cadence());
        let label = config_label(pc.kind, pc.rate.every_hours);
        power_csv_rows(&mut out, &label, "compute", &tel.compute);
        power_csv_rows(&mut out, &label, "storage", &tel.storage);
    }
    out
}

/// The full text artifact for one traced run: ASCII Fig. 4 analogue
/// followed by the per-phase energy table.
pub fn render_trace_summary(traced: &TracedRun, width: usize) -> String {
    let tl = traced
        .recorder
        .with_buffer(|b| b.phase_timeline())
        .expect("recorder is on");
    let mut out = render_fig4(
        &tl,
        &traced.metrics.compute_profile,
        &traced.metrics.storage_profile,
        width,
    );
    out.push('\n');
    out.push_str(&traced.attribution.render());
    out
}

/// JSONL dump of a traced run.
pub fn trace_jsonl(traced: &TracedRun) -> String {
    traced
        .recorder
        .with_buffer(to_jsonl)
        .expect("recorder is on")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_energy_csv_covers_all_six_configs() {
        let csv = phase_energy_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], obs_csv::ENERGY_CSV_HEADER);
        for kind in ["in-situ", "post-processing"] {
            for hours in [8.0, 24.0, 72.0] {
                let prefix = format!("{kind}@{hours}h,");
                assert!(
                    lines.iter().any(|l| l.starts_with(&prefix)),
                    "missing rows for {prefix}"
                );
            }
        }
        // Every config contributes exactly simulate/write/visualize rows
        // (post-processing reads happen inside the visualize machine phase).
        assert_eq!(lines.len(), 1 + 6 * 3);
    }

    #[test]
    fn phase_power_csv_covers_both_components_of_all_six_configs() {
        let csv = phase_power_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], POWER_CSV_HEADER);
        for kind in ["in-situ", "post-processing"] {
            for hours in [8.0, 24.0, 72.0] {
                for component in ["compute", "storage"] {
                    let prefix = format!("{kind}@{hours}h,{component},");
                    assert!(
                        lines.iter().any(|l| l.starts_with(&prefix)),
                        "missing W(t) rows for {prefix}"
                    );
                }
            }
        }
        // Per-minute cadence: a run lasting n minutes leaves ~n rows per
        // component, far more than one integrated row per phase.
        assert!(lines.len() > 100, "only {} rows", lines.len());
    }

    #[test]
    fn trace_summary_renders_timeline_and_table() {
        let traced = traced_run(PipelineKind::InSitu, 72.0, IoWaitPolicy::BusyWait);
        let text = render_trace_summary(&traced, 60);
        assert!(text.contains("compute_w"));
        assert!(text.contains("simulate"));
        assert!(text.lines().any(|l| l.starts_with("total")));
        let jsonl = trace_jsonl(&traced);
        assert!(jsonl.starts_with("{\"v\":1,\"type\":\"meta\""));
    }
}
