//! Determinism of the exported observability artifacts: a seeded fault
//! run must produce bit-identical Perfetto (Chrome trace-event) and
//! Prometheus snapshots at 1, 2 and 8 shim threads, and
//! `TraceBuffer::merge` must replay histogram observations from
//! per-thread parts into one deterministic registry.
//!
//! This is the artifact-level counterpart of `fault_injection.rs`: that
//! suite pins the JSONL trace and the run digest; this one pins the two
//! interop exports the CI obs job uploads, including the new histogram
//! metrics (transport stalls, queue depth, retry backoff) that only
//! appear under the staged transport and fault executors.

use insitu_vis::fault::{FaultPlan, FaultScenario};
use insitu_vis::pipeline::campaign::{Campaign, Plan};
use insitu_vis::pipeline::intransit::{reported_kind, InTransitConfig};
use insitu_vis::pipeline::{CompressionConfig, PipelineConfig, PipelineKind, TransportConfig};
use insitu_vis::sim::{SimDuration, SimTime};
use ivis_obs::telemetry::paper_cadence;
use ivis_obs::{to_chrome_trace, to_prometheus, Component, Recorder, TraceBuffer};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `f` at each thread count and assert every result equals the first.
fn identical_at_all_thread_counts<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let mut out = None;
    for n in THREAD_COUNTS {
        rayon::set_num_threads(n);
        let r = f();
        match &out {
            None => out = Some(r),
            Some(first) => assert_eq!(&r, first, "artifacts changed at {n} threads"),
        }
    }
    rayon::set_num_threads(0);
    out.unwrap()
}

/// Staged in-transit transport (depth 2, zfp-class compression) so the
/// run populates the transport histograms as well as the fault ones.
fn staged_config() -> InTransitConfig {
    InTransitConfig {
        staging_nodes: 25,
        transport: TransportConfig::pipelined(2).with_compression(CompressionConfig::zfp_like()),
        ..InTransitConfig::caddy_default()
    }
}

#[test]
fn faulted_run_exports_bit_identical_artifacts_across_thread_counts() {
    let plan = FaultPlan::random(42, SimDuration::from_secs(1_300));
    let mut pc = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
    pc.kind = reported_kind();
    let (chrome, prom) = identical_at_all_thread_counts(|| {
        let mut campaign = Campaign::paper_noisy(42);
        let rec = Recorder::in_memory();
        campaign.config.recorder = rec.clone();
        let run = campaign
            .execute(&Plan {
                staging: Some(staged_config()),
                faults: Some(FaultScenario::with_plan(plan.clone())),
                ..Plan::new(pc.clone())
            })
            .expect("random plans degrade runs, they do not kill them");
        let tel = campaign.telemetry(&run.metrics, paper_cadence());
        tel.record_gauges(&rec);
        let chrome = rec.with_buffer(to_chrome_trace).expect("recorder is on");
        let prom = rec
            .with_buffer(|b| to_prometheus(&b.metrics))
            .expect("recorder is on");
        (chrome, prom)
    });
    // The staged faulted run must actually exercise the new telemetry:
    // histogram metrics in the Prometheus view, counter tracks and the
    // sampled power gauges in the Perfetto view.
    assert!(
        prom.contains("# TYPE transport_queue_depth_dist histogram"),
        "queue-depth histogram missing from Prometheus snapshot"
    );
    assert!(prom.contains("transport_queue_depth_dist_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("# TYPE power_compute_w gauge"));
    assert!(chrome.contains("\"name\":\"power.compute_w\""));
    assert!(chrome.contains("\"name\":\"transport\""));
}

#[test]
fn merge_replays_histogram_parts_regardless_of_partitioning() {
    // The same observation stream, split across per-thread parts two
    // different ways, must merge into identical registries — the property
    // the thread-count invariance above rests on.
    let obs: Vec<(u64, f64)> = (0..24).map(|i| (i, (i % 7) as f64 * 0.25)).collect();
    let build = |split: &dyn Fn(usize) -> usize, nparts: usize| {
        let mut parts: Vec<TraceBuffer> = (0..nparts).map(|_| TraceBuffer::default()).collect();
        for (i, &(secs, v)) in obs.iter().enumerate() {
            let part = &mut parts[split(i)];
            let t = SimTime::from_secs(secs);
            let id = part.open_span(t, "work", Component::Transport, None);
            part.metrics
                .histogram_record(t, "transport.stall_seconds", v);
            part.close_span(t, id);
        }
        TraceBuffer::merge(parts)
    };
    let by_half = build(&|i| usize::from(i >= 12), 2);
    let round_robin = build(&|i| i % 3, 3);
    assert_eq!(
        to_prometheus(&by_half.metrics),
        to_prometheus(&round_robin.metrics)
    );
    let h = by_half
        .metrics
        .get("transport.stall_seconds")
        .and_then(|m| m.histogram())
        .expect("merged histogram survives");
    assert_eq!(h.count, 24);
    assert_eq!(to_chrome_trace(&by_half), to_chrome_trace(&round_robin));
}
