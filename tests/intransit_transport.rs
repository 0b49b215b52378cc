//! The staged in-transit transport's correctness contract.
//!
//! * **Bit-identity**: the staged executor at depth 1 with compression off
//!   must reproduce the seed's synchronous in-transit loop bit-for-bit —
//!   every duration in exact microseconds, every energy as raw f64 bits —
//!   because the transport runs on sim time, on one thread, and never
//!   consults the host. What that loop produced is pinned in
//!   `tests/golden/executor_identity.txt` (`sync/…` keys); the depth-4
//!   runs at the staging-bound 8 h point are pinned there too.
//! * **Queue invariants** (property-tested): in-flight samples never
//!   exceed the configured depth; every sample of a clean run is shipped
//!   and written; the makespan is monotonically non-increasing in depth.
//! * **Hand-off accounting regression**: the per-node payload is a ceiling
//!   division — a payload that does not divide evenly over the staging
//!   fan-out must not be under-billed (the seed's floor division was).

mod common;

use common::Golden;
use ivis_core::campaign::{Campaign, Plan};
use ivis_core::intransit::{reported_kind, InTransitConfig};
use ivis_core::metrics::PipelineMetrics;
use ivis_core::{
    per_node_payload, CompressionConfig, PipelineConfig, PipelineKind, TransportConfig,
    TransportStats,
};
use proptest::prelude::*;

fn paper_pc(hours: f64) -> PipelineConfig {
    let mut pc = PipelineConfig::paper(PipelineKind::InSitu, hours);
    pc.kind = reported_kind();
    pc
}

fn it_config(staging: usize, transport: TransportConfig) -> InTransitConfig {
    InTransitConfig {
        staging_nodes: staging,
        transport,
        ..InTransitConfig::caddy_default()
    }
}

fn staged_plan(hours: f64, it: &InTransitConfig) -> Plan {
    Plan {
        staging: Some(it.clone()),
        ..Plan::new(paper_pc(hours))
    }
}

fn run_staged(
    campaign: &Campaign,
    hours: f64,
    it: &InTransitConfig,
) -> (PipelineMetrics, TransportStats) {
    let run = campaign
        .execute(&staged_plan(hours, it))
        .expect("clean staged run cannot fail");
    (run.metrics, run.transport.expect("a staged run"))
}

/// The staged transport at depth 1 without compression, checked against
/// what the synchronous reference loop produced (golden `key`).
fn check_sync(golden: &Golden, key: &str, campaign: &Campaign, hours: f64, staging: usize) {
    let it = it_config(staging, TransportConfig::synchronous());
    let (staged, stats) = run_staged(campaign, hours, &it);
    golden.check(key, &staged.digest());
    assert_eq!(stats.max_in_flight, 1);
}

#[test]
fn depth1_reproduces_synchronous_reference_bit_identically() {
    // Across staging sizes and rates: the depth-1/no-compression staged
    // transport is the synchronous hand-off.
    let golden = Golden::load();
    for staging in [10, 25, 75] {
        for hours in [8.0, 24.0, 72.0] {
            let key = format!("sync/s{staging}@{hours}h");
            check_sync(&golden, &key, &Campaign::paper(), hours, staging);
        }
    }
}

#[test]
fn depth1_bit_identity_holds_at_all_thread_counts() {
    // The transport is sim-time-only, so noisy campaigns (which exercise
    // the RNG draw order the equivalence depends on) agree too.
    let golden = Golden::load();
    check_sync(
        &golden,
        "sync-noisy23/s10@8h",
        &Campaign::paper_noisy(23),
        8.0,
        10,
    );
}

#[test]
fn faulted_empty_plan_matches_clean_staged_run_at_depth_4() {
    // The clean wrapper and the fault-aware entry point share one
    // executor; an empty plan must leave no trace of the fault machinery
    // at any depth.
    let campaign = Campaign::paper();
    let it = it_config(
        10,
        TransportConfig::pipelined(4).with_compression(CompressionConfig::zfp_like()),
    );
    let (clean, _) = run_staged(&campaign, 8.0, &it);
    let faulted = campaign
        .execute(&Plan {
            faults: Some(ivis_fault::FaultScenario::none()),
            ..staged_plan(8.0, &it)
        })
        .expect("empty scenario cannot fail");
    assert_eq!(clean.digest(), faulted.metrics.digest());
}

#[test]
fn non_divisible_payload_is_not_underbilled() {
    // Regression for the seed's floor division: pick a staging size that
    // does not divide the raw payload and check the ceiling share.
    let pc = paper_pc(24.0);
    let raw = pc.spec.raw_output_bytes();
    let staging = (3..20)
        .find(|s| raw % s != 0)
        .expect("some staging size in 3..20 must not divide the payload");
    assert_eq!(
        per_node_payload(raw, staging),
        raw / staging + 1,
        "non-divisible payload must round up (raw {raw}, staging {staging})"
    );
    // The executor prices the rounded-up share, as the reference did.
    check_sync(
        &Golden::load(),
        &format!("sync/s{staging}@24h"),
        &Campaign::paper(),
        24.0,
        staging as usize,
    );
}

#[test]
fn depth4_strictly_beats_depth1_when_staging_bound() {
    // At the 8 h rate with 10 staging nodes the renderer is the
    // bottleneck: depth 1 leaves staging idle through every synchronous
    // transfer, so a depth-4 queue strictly shortens the makespan
    // (9728.9 s vs 9736.1 s; both runs' digests are pinned, see
    // `depth4_digests_match_golden`).
    let campaign = Campaign::paper();
    let (d1, _) = run_staged(
        &campaign,
        8.0,
        &it_config(10, TransportConfig::synchronous()),
    );
    let (d4, s4) = run_staged(
        &campaign,
        8.0,
        &it_config(10, TransportConfig::pipelined(4)),
    );
    assert!(
        d4.execution_time < d1.execution_time,
        "depth 4 ({:.1} s) must strictly beat depth 1 ({:.1} s)",
        d4.execution_time.as_secs_f64(),
        d1.execution_time.as_secs_f64()
    );
    assert!(s4.max_in_flight >= 2, "deep queue actually filled");
}

#[test]
fn depth4_digests_match_golden() {
    // The staging-bound point of the depth lever above (10 staging nodes
    // at 8 h), with and without the zfp-like codec; `sync/s10@8h` pins
    // its depth-1 run.
    let golden = Golden::load();
    let depth4 = TransportConfig::pipelined(4);
    let zfp = depth4
        .clone()
        .with_compression(CompressionConfig::zfp_like());
    for (key, transport) in [("s10-d4", depth4), ("s10-d4-zfp", zfp)] {
        let (m, _) = run_staged(&Campaign::paper(), 8.0, &it_config(10, transport));
        golden.check(&format!("paper/in-transit-{key}@8h/digest"), &m.digest());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Queue invariants over arbitrary staging sizes, depths, rates and
    /// compression choices: the in-flight high-water mark respects the
    /// configured depth, every sample of a clean run ships and lands in
    /// the Cinema store, and deepening the queue never lengthens the run.
    #[test]
    fn queue_invariants_hold_for_arbitrary_transports(
        staging in 2usize..60,
        depth in 1usize..6,
        rate_idx in 0usize..3,
        compressed in any::<bool>(),
        seed in 0u64..100,
    ) {
        let hours = [8.0, 24.0, 72.0][rate_idx];
        let campaign = Campaign::paper_noisy(seed);
        let mut transport = TransportConfig::pipelined(depth);
        if compressed {
            transport = transport.with_compression(CompressionConfig::zfp_like());
        }
        let (m, stats) = run_staged(&campaign, hours, &it_config(staging, transport.clone()));
        let n_out = paper_pc(hours).spec.num_outputs(paper_pc(hours).rate);
        // Never more samples in flight than the configured depth.
        prop_assert!(stats.max_in_flight <= depth,
            "max_in_flight {} > depth {depth}", stats.max_in_flight);
        // Clean runs shed nothing: shipped == written == the rate's output
        // count, and the metrics agree with the transport's own ledger.
        prop_assert_eq!(stats.samples_shipped, n_out);
        prop_assert_eq!(m.num_outputs, n_out);
        // Deeper queue, never-longer run.
        let mut deeper = transport.clone();
        deeper.depth = depth + 1;
        let (md, _) = run_staged(&campaign, hours, &it_config(staging, deeper));
        prop_assert!(md.execution_time <= m.execution_time,
            "depth {} ran longer than depth {depth}: {} vs {} s",
            depth + 1,
            md.execution_time.as_secs_f64(),
            m.execution_time.as_secs_f64());
    }
}
