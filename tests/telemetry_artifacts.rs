//! Determinism of the exported observability artifacts: a seeded fault
//! run must produce bit-identical Perfetto (Chrome trace-event) and
//! Prometheus snapshots at 1, 2 and 8 shim threads.
//!
//! This is the artifact-level counterpart of `fault_injection.rs`: that
//! suite pins the JSONL trace and the run digest; this one pins the two
//! interop exports the CI obs job uploads, including the new histogram
//! metrics (transport stalls, queue depth, retry backoff) that only
//! appear under the staged transport and fault executors.

use insitu_vis::fault::{FaultPlan, FaultScenario};
use insitu_vis::pipeline::campaign::{Campaign, Plan};
use insitu_vis::pipeline::intransit::{reported_kind, InTransitConfig};
use insitu_vis::pipeline::{
    CompressionConfig, PipelineConfig, PipelineKind, RunTelemetry, TransportConfig,
};
use insitu_vis::sim::SimDuration;
use ivis_obs::telemetry::paper_cadence;
use ivis_obs::{to_chrome_trace, to_prometheus, Recorder};

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
        let tel = RunTelemetry::from_metrics(&run.metrics, paper_cadence());
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
