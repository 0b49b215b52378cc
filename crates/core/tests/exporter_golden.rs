//! Golden pins of the interop exporters: the Chrome trace-event JSON
//! (Perfetto) view and the Prometheus text-exposition snapshot of a
//! traced paper run.
//!
//! The traced configuration matches `obs_trace.rs` (in-situ at the 72 h
//! archival rate), extended with the sampled power telemetry published
//! as gauges — so the pinned artifacts exercise spans, instants, counter
//! tracks and the power W(t) signal in one export. Byte-exact pins keep
//! the exporters deterministic.

mod common;

use common::check_golden;
use ivis_core::campaign::Campaign;
use ivis_core::{PipelineConfig, PipelineKind, RunTelemetry};
use ivis_obs::telemetry::paper_cadence;
use ivis_obs::{to_chrome_trace, to_prometheus, Recorder};

fn traced_insitu_72h() -> (String, String) {
    let mut campaign = Campaign::paper();
    let rec = Recorder::in_memory();
    campaign.config.recorder = rec.clone();
    let pc = PipelineConfig::paper(PipelineKind::InSitu, 72.0);
    let metrics = campaign.run(&pc);
    let tel = RunTelemetry::from_metrics(&metrics, paper_cadence());
    tel.record_gauges(&rec);
    let chrome = rec.with_buffer(to_chrome_trace).expect("recorder is on");
    let prom = rec
        .with_buffer(|b| to_prometheus(&b.metrics))
        .expect("recorder is on");
    (chrome, prom)
}

#[test]
fn chrome_trace_export_is_frozen() {
    let (chrome, _) = traced_insitu_72h();
    // Structural sanity before the byte-exact pin.
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
    assert!(chrome.ends_with("\n]}\n"));
    for thread in ["campaign", "compute", "storage"] {
        assert!(
            chrome.contains(&format!(
                "\"name\":\"thread_name\",\"args\":{{\"name\":\"{thread}\"}}"
            )),
            "thread metadata for {thread}"
        );
    }
    assert_eq!(
        chrome.matches("\"ph\":\"X\"").count(),
        241,
        "1 + 60×4 spans"
    );
    assert_eq!(
        chrome.matches("\"ph\":\"i\"").count(),
        60,
        "60 output events"
    );
    assert!(chrome.contains("\"name\":\"power.compute_w\""));
    check_golden(&chrome, "insitu_72h_chrome.json");
}

#[test]
fn prometheus_snapshot_is_frozen() {
    let (_, prom) = traced_insitu_72h();
    assert!(prom.contains("# TYPE pfs_bytes_written_total counter"));
    assert!(prom.contains("# TYPE cluster_power_w gauge"));
    assert!(prom.contains("# TYPE power_compute_w gauge"));
    assert!(prom.contains("# TYPE power_storage_w gauge"));
    check_golden(&prom, "insitu_72h_prometheus.txt");
}
