//! Trace contract of the staged in-transit transport.
//!
//! The synchronous seed executor emitted no trace at all; the staged
//! transport instruments the run with `Component::Transport` spans
//! (hand-offs, compression), queue-depth gauges and stall counters. These
//! tests freeze that schema with a golden file and pin the clean/faulted
//! equivalence: an empty fault plan must leave the trace bit-identical to
//! the clean wrapper's, because both entry points share one executor.

mod common;

use common::check_golden;
use ivis_core::campaign::Campaign;
use ivis_core::intransit::{reported_kind, InTransitConfig};
use ivis_core::{CompressionConfig, PipelineConfig, PipelineKind, TransportConfig};
use ivis_fault::FaultScenario;
use ivis_obs::{to_jsonl, Recorder};

fn traced_campaign() -> (Campaign, Recorder) {
    let mut campaign = Campaign::paper();
    let rec = Recorder::in_memory();
    campaign.config.recorder = rec.clone();
    (campaign, rec)
}

fn pc_72h() -> PipelineConfig {
    let mut pc = PipelineConfig::paper(PipelineKind::InSitu, 72.0);
    pc.kind = reported_kind();
    pc
}

fn staged_config() -> InTransitConfig {
    InTransitConfig {
        staging_nodes: 25,
        transport: TransportConfig::pipelined(2).with_compression(CompressionConfig::zfp_like()),
        ..InTransitConfig::caddy_default()
    }
}

/// Golden-file pin of the staged in-transit JSONL schema at the 72 h rate
/// (depth 2, zfp-class compression, 25 staging nodes): the meta line, the
/// root span with its transport attributes, the first sample's compress/
/// hand-off/write spans, and every metric line must match byte-for-byte.
#[test]
fn staged_intransit_jsonl_schema_is_frozen() {
    let (campaign, rec) = traced_campaign();
    let (_, stats) = campaign.run_intransit_with_stats(&pc_72h(), &staged_config());
    assert_eq!(stats.depth, 2);
    let text = rec.with_buffer(to_jsonl).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // Structural checks: every sample leaves a compress span, a hand-off
    // span and a pfs_write span under the root.
    let spans = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"span\""))
        .count();
    let metrics = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"metric\""))
        .count();
    assert_eq!(
        spans,
        1 + 60 * 3,
        "root + 60×(compress, handoff, pfs_write)"
    );
    let handoffs = lines
        .iter()
        .filter(|l| l.contains("\"name\":\"handoff\""))
        .count();
    assert_eq!(handoffs, 60);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"transport.queue_depth\"")),
        "queue-depth gauge present"
    );

    // Byte-exact head (meta, root, first sample) and metric-line prefixes.
    let head: String = lines[..5].iter().map(|l| format!("{l}\n")).collect();
    let tail: String = lines[lines.len() - metrics..]
        .iter()
        .map(|l| {
            let cut = l.find("\"samples\":").expect("metric line has samples");
            format!("{}\n", &l[..cut + "\"samples\":".len()])
        })
        .collect();
    let got = format!("{head}---\n{tail}");
    check_golden(&got, "intransit_staged_trace.jsonl");
}

/// One executor, two entry points: with an empty fault plan the fault-
/// aware run's trace is byte-identical to the clean wrapper's, at the
/// asynchronous depth too (the determinism contract the storage path
/// already enforces, extended to the transport).
#[test]
fn empty_plan_trace_is_bit_identical_to_clean_staged_trace() {
    let trace = |faulted: bool| {
        let (campaign, rec) = traced_campaign();
        let pc = pc_72h();
        let it = staged_config();
        if faulted {
            campaign
                .run_intransit_faulted(&pc, &it, &FaultScenario::none())
                .expect("empty scenario cannot fail");
        } else {
            campaign.run_intransit(&pc, &it);
        }
        rec.with_buffer(to_jsonl).expect("recorder is on")
    };
    assert_eq!(trace(false), trace(true));
}
