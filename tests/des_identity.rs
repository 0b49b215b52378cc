//! The identity harness of the pipeline executors: every executor
//! family must reproduce the committed golden file
//! (`tests/golden/executor_identity.txt`) **bit-for-bit** — metrics
//! digests, JSONL traces and exporter artifacts — at 1, 2 and 8 shim
//! threads.
//!
//! The golden file holds what the loop executors that used to live in
//! `campaign`/`resilience`/`transport` produced; the event chains on
//! `ivis_sim::DesEngine` (`crates/core/src/des.rs`) replaced them and are
//! held to it here, through the entry points production code calls:
//!
//! * the full paper matrix (2 pipelines × 3 rates), clean, with traces;
//! * random fault plans at the CI matrix seeds (1, 42, 1337);
//! * the staging sweep (partition size × queue depth × compression),
//!   including `TransportStats` equality;
//! * the faulted staged run's Perfetto and Prometheus exports;
//! * the noise-free campaign digests and per-family event counts;
//! * the 10 000-node what-if shapes (`caddy10k/…`), recorded from the
//!   per-node power bookkeeping before `Machine` stopped looping over
//!   nodes.

mod common;

use common::{at_all_thread_counts, blob, stats_line, Golden};
use insitu_vis::fault::{FaultPlan, FaultScenario};
use insitu_vis::pipeline::campaign::{Campaign, CampaignConfig};
use insitu_vis::pipeline::intransit::{reported_kind, InTransitConfig};
use insitu_vis::pipeline::{CompressionConfig, PipelineConfig, PipelineKind, TransportConfig};
use insitu_vis::sim::SimDuration;
use ivis_obs::{to_chrome_trace, to_jsonl, to_prometheus, Recorder};

const FAULT_SEEDS: [u64; 3] = [1, 42, 1337];

/// A traced campaign (mild noise, so the RNG stream is actually consulted)
/// plus the recorder handle to harvest its trace.
fn traced_campaign(seed: u64) -> (Campaign, Recorder) {
    let mut campaign = Campaign::paper_noisy(seed);
    let rec = Recorder::in_memory();
    campaign.config.recorder = rec.clone();
    (campaign, rec)
}

fn intransit_pc(hours: f64) -> PipelineConfig {
    let mut pc = PipelineConfig::paper(PipelineKind::InSitu, hours);
    pc.kind = reported_kind();
    pc
}

fn staged(staging_nodes: usize, transport: TransportConfig) -> InTransitConfig {
    InTransitConfig {
        staging_nodes,
        transport,
        ..InTransitConfig::caddy_default()
    }
}

/// The heaviest transport the suites pin: depth 2 with zfp-class compression.
fn depth2_zfp() -> TransportConfig {
    TransportConfig::pipelined(2).with_compression(CompressionConfig::zfp_like())
}

#[test]
fn clean_paper_matrix_is_bit_identical_with_traces() {
    let golden = Golden::load();
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("matrix/{}@{}h", pc.kind.label(), pc.rate.every_hours);
        let (digest, trace) = at_all_thread_counts(|| {
            let (campaign, rec) = traced_campaign(11);
            let m = campaign.run(&pc);
            let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
            (m.digest(), blob(&trace))
        });
        golden.check(&format!("{label}/digest"), &digest);
        golden.check(&format!("{label}/jsonl"), &trace);
    }
}

#[test]
fn faulted_runs_agree_across_the_seed_matrix() {
    // The CI fault matrix seeds, both pipeline kinds; the random plans put
    // brownouts/transients/pressure/stragglers inside the run's horizon.
    let golden = Golden::load();
    let horizon = SimDuration::from_secs(1_300);
    for seed in FAULT_SEEDS {
        for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
            let pc = PipelineConfig::paper(kind, 8.0);
            let scenario = FaultScenario::with_plan(FaultPlan::random(seed, horizon));
            let digest = at_all_thread_counts(|| {
                Campaign::paper()
                    .run_faulted(&pc, &scenario)
                    .expect("random plans degrade runs, they do not kill them")
                    .digest()
            });
            golden.check(&format!("fault/seed{seed}/{}@8h", kind.label()), &digest);
        }
    }
}

#[test]
fn staging_sweep_agrees_including_transport_stats() {
    let golden = Golden::load();
    let sweeps = [
        ("s10-d1", 10usize, TransportConfig::synchronous()),
        ("s10-d4", 10, TransportConfig::pipelined(4)),
        ("s25-d2-zfp", 25, depth2_zfp()),
        ("s50-d2", 50, TransportConfig::pipelined(2)),
    ];
    let pc = intransit_pc(24.0);
    for (label, staging, transport) in sweeps {
        let it = staged(staging, transport);
        let (digest, stats) = at_all_thread_counts(|| {
            let (m, s) = Campaign::paper_noisy(7).run_intransit_with_stats(&pc, &it);
            (m.digest(), stats_line(&s))
        });
        golden.check(&format!("sweep/{label}@24h/digest"), &digest);
        golden.check(&format!("sweep/{label}@24h/stats"), &stats);
    }
}

#[test]
fn faulted_staged_run_exports_identical_artifacts() {
    // The heaviest configuration: staged transport (depth 2, zfp-class
    // compression) under a random fault plan, with the recorder on — the
    // Perfetto and Prometheus artifacts the CI obs job uploads are pinned
    // byte-for-byte.
    let golden = Golden::load();
    let plan = FaultPlan::random(42, SimDuration::from_secs(1_300));
    let pc = intransit_pc(8.0);
    let it = staged(25, depth2_zfp());
    let (digest, chrome, prom, has_queue_hist) = at_all_thread_counts(|| {
        let (campaign, rec) = traced_campaign(42);
        let run = campaign
            .run_intransit_faulted(&pc, &it, &FaultScenario::with_plan(plan.clone()))
            .expect("random plans degrade runs, they do not kill them");
        let chrome = rec.with_buffer(to_chrome_trace).expect("recorder is on");
        let prom = rec
            .with_buffer(|b| to_prometheus(&b.metrics))
            .expect("recorder is on");
        let has_queue_hist = prom.contains("# TYPE transport_queue_depth_dist histogram");
        (run.digest(), blob(&chrome), blob(&prom), has_queue_hist)
    });
    golden.check("faulted-staged/s25-d2-zfp@8h/seed42/digest", &digest);
    golden.check("faulted-staged/s25-d2-zfp@8h/seed42/perfetto", &chrome);
    golden.check("faulted-staged/s25-d2-zfp@8h/seed42/prometheus", &prom);
    // The run actually exercised the staged-transport telemetry.
    assert!(has_queue_hist);
}

#[test]
fn noise_free_campaign_digests_and_event_counts_match_golden() {
    // The configurations `des.rs`'s own unit tests used to compare loop
    // against event chain on: noise-free in-situ @ 8 h and post-hoc @ 24 h
    // (with the engine's event counts), and the staged 25-node
    // depth-2/zfp run. The fourth, the seed-42 faulted in-situ run, is
    // `fault/seed42/…` above.
    let golden = Golden::load();
    let campaign = Campaign::paper();
    for (kind, hours) in [
        (PipelineKind::InSitu, 8.0),
        (PipelineKind::PostProcessing, 24.0),
    ] {
        let pc = PipelineConfig::paper(kind, hours);
        let label = format!("paper/{}@{hours}h", kind.label());
        let (m, events) = campaign
            .try_run_des_with_events(&pc)
            .expect("clean run cannot fail");
        golden.check(&format!("{label}/digest"), &m.digest());
        golden.check(&format!("{label}/events"), &events.to_string());
    }
    let pc = intransit_pc(24.0);
    let it = staged(25, depth2_zfp());
    let (m, s) = campaign.run_intransit_with_stats(&pc, &it);
    golden.check("paper/in-transit-s25-d2-zfp@24h/digest", &m.digest());
    golden.check("paper/in-transit-s25-d2-zfp@24h/stats", &stats_line(&s));
}

#[test]
fn caddy_10k_whatif_digests_match_golden() {
    // `caddy_scaled(10_000)` is 1 000 ten-node cages. 640 staging nodes end
    // on a cage boundary (the benchmark's `whatif_10k` shape); 645 put the
    // compute/staging boundary inside a cage.
    let golden = Golden::load();
    let campaign = Campaign::caddy_scaled(10_000);
    for hours in [24.0, 8.0] {
        let m = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, hours));
        golden.check(&format!("caddy10k/in-situ@{hours}h/digest"), &m.digest());
    }
    let depth4_zfp = TransportConfig::pipelined(4).with_compression(CompressionConfig::zfp_like());
    for staging in [640usize, 645] {
        let m = campaign.run_intransit(&intransit_pc(24.0), &staged(staging, depth4_zfp.clone()));
        golden.check(
            &format!("caddy10k/in-transit-s{staging}-d4-zfp@24h/digest"),
            &m.digest(),
        );
    }
    // One noise draw per cage per phase change, 1 000 cages.
    let mut noisy = campaign.clone();
    let noise = CampaignConfig::paper_noisy(11);
    noisy.config.noise_rel = noise.noise_rel;
    noisy.config.power_noise_rel = noise.power_noise_rel;
    noisy.config.seed = noise.seed;
    let m = noisy.run(&PipelineConfig::paper(PipelineKind::InSitu, 24.0));
    golden.check("caddy10k/noisy11/in-situ@24h/digest", &m.digest());
}
