//! Integration tests for the observability pathway: tracing both pipeline
//! backends, per-phase energy attribution (conservation against the
//! metered totals), the ASCII timeline, and the frozen JSONL schema.

mod common;

use common::check_golden;
use ivis_cluster::{IoWaitPolicy, JobPhase};
use ivis_core::campaign::Campaign;
use ivis_core::native::{execute, NativeConfig, NativePlan};
use ivis_core::{PipelineConfig, PipelineKind};
use ivis_obs::{render_fig4, render_timeline, to_jsonl, Recorder};
use proptest::prelude::*;

fn traced_campaign() -> (Campaign, Recorder) {
    let mut campaign = Campaign::paper();
    let rec = Recorder::in_memory();
    campaign.config.recorder = rec.clone();
    (campaign, rec)
}

/// Attributed per-phase joules must sum to `PipelineMetrics::energy_total`
/// within 1e-6 relative, for every one of the paper's six configurations.
#[test]
fn attribution_conserves_energy_across_paper_matrix() {
    for pc in PipelineConfig::paper_matrix() {
        let (campaign, rec) = traced_campaign();
        let m = campaign.run(&pc);
        let att = campaign.attribution(&m).expect("recorder is on");
        let attributed = att.attributed_total().joules();
        let metered = m.energy_total().joules();
        let rel = (attributed - metered).abs() / metered;
        assert!(
            rel < 1e-6,
            "{} every {} h: attributed {attributed} J vs metered {metered} J (rel {rel})",
            pc.kind.label(),
            pc.rate.every_hours
        );
        // The traced timeline is the machine's timeline: same decomposition.
        let tl = rec.with_buffer(|b| b.phase_timeline()).unwrap();
        let (t_sim, t_io, t_viz) = tl.decompose();
        assert_eq!(t_sim, m.t_sim);
        assert_eq!(t_io, m.t_io);
        assert_eq!(t_viz, m.t_viz);
    }
}

/// §VIII in trace form: under busy-wait the write phase draws compute
/// power at near its simulate level; deep idle drops it sharply.
#[test]
fn attribution_exposes_busy_wait_io_power() {
    let pc = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
    let run_with = |policy: IoWaitPolicy| {
        let (mut campaign, _rec) = traced_campaign();
        campaign.config.io_policy = policy;
        let m = campaign.run(&pc);
        let att = campaign.attribution(&m).unwrap();
        let write = *att.get(JobPhase::WriteOutput).expect("writes happened");
        let sim = *att.get(JobPhase::Simulate).expect("sim happened");
        (
            write.compute.joules() / write.seconds,
            sim.compute.joules() / sim.seconds,
            write.seconds,
        )
    };
    let (busy_w, busy_sim_w, busy_secs) = run_with(IoWaitPolicy::BusyWait);
    let (deep_w, _, deep_secs) = run_with(IoWaitPolicy::DeepIdle);
    // Same I/O time either way; very different energy attribution.
    assert!((busy_secs - deep_secs).abs() < 1e-6);
    // Busy-wait: writes draw compute power at the simulate level — the
    // reason measured power stays flat in Fig. 4.
    assert!(
        (busy_w - busy_sim_w).abs() / busy_sim_w < 0.05,
        "busy-wait write power {busy_w:.0} W should sit at the simulate \
         level {busy_sim_w:.0} W"
    );
    assert!(
        deep_w < busy_w * 0.7,
        "deep-idle write power {deep_w:.0} W should be well under busy-wait {busy_w:.0} W"
    );
}

/// The ASCII timeline shows the in-situ Simulate/Write/Visualize cycle.
#[test]
fn ascii_timeline_renders_phase_sequence() {
    let (campaign, rec) = traced_campaign();
    let m = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
    let tl = rec.with_buffer(|b| b.phase_timeline()).unwrap();
    let txt = render_timeline(&tl, 72);
    let lines: Vec<&str> = txt.lines().collect();
    assert!(lines[0].contains("makespan"));
    assert!(lines.iter().any(|l| l.starts_with("simulate")));
    assert!(lines.iter().any(|l| l.starts_with("write")));
    assert!(lines.iter().any(|l| l.starts_with("visualize")));
    let strip = lines.last().unwrap();
    assert!(strip.starts_with("phase"));
    assert!(strip.contains('S') && strip.contains('V'));
    // The Fig. 4 analogue adds the two power rows.
    let fig4 = render_fig4(&tl, &m.compute_profile, &m.storage_profile, 72);
    assert!(fig4.contains("compute_w"));
    assert!(fig4.contains("storage_w"));
}

/// The native backend's traces reconstruct its wall-clock phase report.
#[test]
fn native_backend_traces_match_report() {
    let cfg = NativeConfig::tiny();
    let rec = Recorder::in_memory();
    let plan = NativePlan::new(cfg.clone(), PipelineKind::InSitu);
    let report = execute(&plan, &rec).unwrap().report;
    let tl = rec.with_buffer(|b| b.phase_timeline()).unwrap();
    let (t_sim, _t_io, t_viz) = tl.decompose();
    assert!((t_sim.as_secs_f64() - report.wall_sim.as_secs_f64()).abs() < 1e-3);
    assert!((t_viz.as_secs_f64() - report.wall_viz.as_secs_f64()).abs() < 1e-3);
    let frames = rec
        .with_buffer(|b| b.metrics.get("native.frames").unwrap().last_value())
        .unwrap();
    assert_eq!(frames as u64, report.frames);

    // Post-processing additionally traces write and read phases.
    let rec2 = Recorder::in_memory();
    let plan = NativePlan::new(cfg, PipelineKind::PostProcessing);
    let report2 = execute(&plan, &rec2).unwrap().report;
    let tl2 = rec2.with_buffer(|b| b.phase_timeline()).unwrap();
    assert!(!tl2.time_in(JobPhase::WriteOutput).is_zero());
    assert!(!tl2.time_in(JobPhase::ReadInput).is_zero());
    let raw = rec2
        .with_buffer(|b| b.metrics.get("native.raw_bytes").unwrap().last_value())
        .unwrap();
    assert_eq!(raw as u64, report2.raw_bytes);
}

/// Golden-file pin of the JSONL schema for the paper's in-situ 72 h
/// configuration: the meta line, the first spans, the first event, and
/// every metric line must match byte-for-byte.
#[test]
fn jsonl_schema_is_frozen_for_insitu_72h() {
    let (campaign, rec) = traced_campaign();
    campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 72.0));
    let text = rec.with_buffer(to_jsonl).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // Structural checks over the whole export.
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    let spans = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"span\""))
        .count();
    let events = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"event\""))
        .count();
    let metrics = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"metric\""))
        .count();
    assert_eq!(lines.len(), 1 + spans + events + metrics);
    // 60 outputs: root + 60×(sim, viz, write, pfs_write); the 72 h rate
    // divides the campaign evenly, so there is no trailing sim span.
    assert_eq!(spans, 1 + 60 * 4);
    assert_eq!(events, 60);
    assert_eq!(metrics, 5);

    // Byte-exact head (meta, root span, first cycle) and tail (metrics).
    let head: String = lines[..6].iter().map(|l| format!("{l}\n")).collect();
    let tail: String = lines[lines.len() - metrics..]
        .iter()
        .map(|l| {
            let cut = l.find("\"samples\":").expect("metric line has samples");
            format!("{}\n", &l[..cut + "\"samples\":".len()])
        })
        .collect();
    let got = format!("{head}---\n{tail}");
    check_golden(&got, "insitu_72h_trace.jsonl");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation is not a property of the paper constants: it holds for
    /// arbitrary campaign knobs, rates, noise and both pipeline kinds.
    #[test]
    fn attribution_conserves_energy_for_arbitrary_campaigns(
        viz_secs in 0.2f64..5.0,
        image_mb in 0.5f64..20.0,
        rate_hours in 6.0f64..96.0,
        seed in 0u64..1_000,
        postproc in proptest::prelude::any::<bool>(),
        deep_idle in proptest::prelude::any::<bool>(),
    ) {
        let mut campaign = Campaign::paper_noisy(seed);
        let rec = Recorder::in_memory();
        campaign.config.recorder = rec.clone();
        campaign.config.viz_seconds_per_output = viz_secs;
        campaign.config.image_bytes_per_output = (image_mb * 1e6) as u64;
        if deep_idle {
            campaign.config.io_policy = IoWaitPolicy::DeepIdle;
        }
        let kind = if postproc {
            PipelineKind::PostProcessing
        } else {
            PipelineKind::InSitu
        };
        let m = campaign.run(&PipelineConfig::paper(kind, rate_hours));
        let att = campaign.attribution(&m).expect("recorder is on");
        let metered = m.energy_total().joules();
        let rel = (att.attributed_total().joules() - metered).abs() / metered;
        prop_assert!(rel < 1e-6, "relative residual {rel}");
    }
}
