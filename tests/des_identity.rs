//! The identity harness of the pipeline executors: every executor
//! family must reproduce the committed golden file
//! (`tests/golden/executor_identity.txt`) **bit-for-bit** — metrics
//! digests, JSONL traces and exporter artifacts.
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
//! * post-hoc with a burst buffer (`bb/…`), recorded from the hand-written
//!   burst-buffer loop before it became the post-hoc chain's storage
//!   tier;
//! * the 10 000-node what-if shapes (`caddy10k/…`), recorded from the
//!   per-node power bookkeeping before `Machine` stopped looping over
//!   nodes;
//! * `Machine` itself (`machine/…`), recorded from the eager per-cage
//!   meters before they became a replay of an observation log: every cage
//!   meter, the cluster meter, `power_now` and the profile energy after a
//!   fixed op script, the traced 10 000-node runs' JSONL (the only pin of
//!   the `cluster.power_w` gauge above 150 nodes), and the 100 000-node
//!   digest.

mod common;

use common::{blob, parse, stats_line, Golden};
use insitu_vis::cluster::{ClusterTopology, IoWaitPolicy, JobPhase, Machine};
use insitu_vis::fault::{FaultPlan, FaultScenario};
use insitu_vis::pipeline::campaign::{Campaign, CampaignConfig, Plan};
use insitu_vis::pipeline::intransit::{reported_kind, InTransitConfig};
use insitu_vis::pipeline::{CompressionConfig, PipelineConfig, PipelineKind, TransportConfig};
use insitu_vis::power::meter::MeteredPdu;
use insitu_vis::power::node::NodePowerModel;
use insitu_vis::power::units::Watts;
use insitu_vis::sim::{SimDuration, SimTime};
use insitu_vis::storage::burst_buffer::BurstBufferConfig;
use ivis_obs::{to_chrome_trace, to_jsonl, to_prometheus, Recorder};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// `pc` in transit on `staging_nodes` over `transport`.
fn staged(pc: &PipelineConfig, staging_nodes: usize, transport: TransportConfig) -> Plan {
    Plan {
        staging: Some(InTransitConfig {
            staging_nodes,
            transport,
            ..InTransitConfig::caddy_default()
        }),
        ..Plan::new(pc.clone())
    }
}

/// The heaviest transport the suites pin: depth 2 with zfp-class compression.
fn depth2_zfp() -> TransportConfig {
    TransportConfig::pipelined(2).with_compression(CompressionConfig::zfp_like())
}

#[test]
fn golden_parser_rejects_a_key_pinned_twice() {
    let executor = "# comment\nmatrix/a = 1\n\nmatrix/b = 2\n";
    assert_eq!(parse(&[executor]).map(|pins| pins.len()), Ok(2));
    let twice = Err("golden key `matrix/a` is pinned twice".to_string());
    assert_eq!(parse(&[executor, "matrix/a = 1\n"]), twice, "across files");
    assert_eq!(
        parse(&["matrix/a = 1\nmatrix/a = 3\n"]),
        twice,
        "in one file"
    );
    assert_eq!(
        parse(&["matrix/a=1\n"]),
        Err("golden line is not `key = value`: matrix/a=1".to_string())
    );
}

/// Bytes biased toward the golden syntax (` = `, `#`, line breaks,
/// repeated keys) with invalid UTF-8 mixed in.
fn golden_bytes(rng: &mut TestRng) -> Vec<u8> {
    let syntax = b" =#\n\r\xffab/@";
    (0..rng.below(96))
        .map(|_| match rng.below(2) {
            0 => syntax[rng.below(syntax.len())],
            _ => rng.next_u64() as u8,
        })
        .collect()
}

/// A golden map: keys over the characters real keys use (never a space,
/// `=` or a leading `#`), values over anything but a line break.
fn golden_map(rng: &mut TestRng) -> BTreeMap<String, String> {
    let key_chars = b"abz019/@-._+{}";
    let value_char = |rng: &mut TestRng| match rng.below(3) {
        0 => [' ', '=', '#', '|'][rng.below(4)],
        1 => char::from_u32(rng.next_u64() as u32 % 0x11_0000)
            .filter(|c| !matches!(c, '\n' | '\r'))
            .unwrap_or('\u{fffd}'),
        _ => char::from(b'a' + rng.below(26) as u8),
    };
    (0..rng.below(12))
        .map(|_| {
            let key = (0..1 + rng.below(12))
                .map(|_| char::from(key_chars[rng.below(key_chars.len())]))
                .collect();
            let value = (0..rng.below(16)).map(|_| value_char(rng)).collect();
            (key, value)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The loader never panics: arbitrary bytes (read as lossy UTF-8)
    /// either parse to pins that are lines of the text, or are rejected
    /// with one of its two errors.
    #[test]
    fn golden_parser_never_panics_on_arbitrary_bytes(
        raw in (0u64..u64::MAX).prop_map(|seed| golden_bytes(&mut TestRng::for_case(seed))),
    ) {
        let text = String::from_utf8_lossy(&raw);
        match parse(&[&text]) {
            Ok(pins) => {
                let lines: Vec<&str> = text.lines().collect();
                for (key, value) in pins {
                    prop_assert!(lines.contains(&format!("{key} = {value}").as_str()));
                }
            }
            Err(e) => prop_assert!(
                e.starts_with("golden line is not `key = value`: ")
                    || (e.starts_with("golden key `") && e.ends_with("` is pinned twice")),
                "unexpected error: {e}"
            ),
        }
    }

    /// A map written as `key = value` lines, between comments and blank
    /// lines, parses back to itself.
    #[test]
    fn golden_map_round_trips_through_parse(
        map in (0u64..u64::MAX).prop_map(|seed| golden_map(&mut TestRng::for_case(seed))),
    ) {
        let text: String = map
            .iter()
            .map(|(key, value)| format!("# {key}\n{key} = {value}\n\n"))
            .collect();
        let expected: BTreeMap<&str, &str> =
            map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        prop_assert_eq!(parse(&[&text]), Ok(expected));
    }
}

#[test]
fn clean_paper_matrix_is_bit_identical_with_traces() {
    let golden = Golden::load();
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("matrix/{}@{}h", pc.kind.label(), pc.rate.every_hours);
        let (campaign, rec) = traced_campaign(11);
        let digest = campaign.run(&pc).digest();
        let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
        golden.check(&format!("{label}/digest"), &digest);
        golden.check(&format!("{label}/jsonl"), &blob(&trace));
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
            let plan = Plan {
                faults: Some(FaultScenario::with_plan(FaultPlan::random(seed, horizon))),
                ..Plan::new(pc)
            };
            let digest = Campaign::paper()
                .execute(&plan)
                .expect("random plans degrade runs, they do not kill them")
                .digest();
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
        let plan = staged(&pc, staging, transport);
        let run = Campaign::paper_noisy(7).execute(&plan).expect("valid plan");
        let stats = stats_line(&run.transport.expect("a staged run"));
        golden.check(&format!("sweep/{label}@24h/digest"), &run.metrics.digest());
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
    let plan = Plan {
        faults: Some(FaultScenario::with_plan(plan)),
        ..staged(&intransit_pc(8.0), 25, depth2_zfp())
    };
    let (campaign, rec) = traced_campaign(42);
    let run = campaign
        .execute(&plan)
        .expect("random plans degrade runs, they do not kill them");
    let chrome = rec.with_buffer(to_chrome_trace).expect("recorder is on");
    let prom = rec
        .with_buffer(|b| to_prometheus(&b.metrics))
        .expect("recorder is on");
    golden.check("faulted-staged/s25-d2-zfp@8h/seed42/digest", &run.digest());
    golden.check(
        "faulted-staged/s25-d2-zfp@8h/seed42/perfetto",
        &blob(&chrome),
    );
    golden.check(
        "faulted-staged/s25-d2-zfp@8h/seed42/prometheus",
        &blob(&prom),
    );
    // The run actually exercised the staged-transport telemetry.
    assert!(prom.contains("# TYPE transport_queue_depth_dist histogram"));
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
        let label = format!("paper/{}@{hours}h", kind.label());
        let run = campaign
            .execute(&Plan::new(PipelineConfig::paper(kind, hours)))
            .expect("clean run cannot fail");
        golden.check(&format!("{label}/digest"), &run.metrics.digest());
        golden.check(&format!("{label}/events"), &run.events.to_string());
    }
    let run = campaign
        .execute(&staged(&intransit_pc(24.0), 25, depth2_zfp()))
        .expect("valid plan");
    let stats = run.transport.expect("a staged run");
    golden.check(
        "paper/in-transit-s25-d2-zfp@24h/digest",
        &run.metrics.digest(),
    );
    golden.check("paper/in-transit-s25-d2-zfp@24h/stats", &stats_line(&stats));
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
        let run = campaign
            .execute(&staged(&intransit_pc(24.0), staging, depth4_zfp.clone()))
            .expect("valid plan");
        golden.check(
            &format!("caddy10k/in-transit-s{staging}-d4-zfp@24h/digest"),
            &run.metrics.digest(),
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

/// The burst-buffer tiers the `bb/…` keys pin: the stock 2 TB NVRAM, a
/// 1 GB buffer that fills and makes the writer wait for drains, and a
/// 100 MB buffer every 426 MB raw dump bypasses.
fn burst_buffers() -> [(&'static str, BurstBufferConfig); 3] {
    let small = |capacity_bytes| BurstBufferConfig {
        capacity_bytes,
        ..BurstBufferConfig::two_tb_nvram()
    };
    [
        ("nvram2tb", BurstBufferConfig::two_tb_nvram()),
        ("1gb", small(1_000_000_000)),
        ("100mb", small(100_000_000)),
    ]
}

#[test]
fn burst_buffer_digests_match_golden() {
    let golden = Golden::load();
    for (machine, campaign) in [
        ("paper", Campaign::paper()),
        ("caddy1000", Campaign::caddy_scaled(1_000)),
    ] {
        for (buffer, bb) in burst_buffers() {
            for hours in [8.0, 24.0, 72.0] {
                let plan = Plan {
                    burst_buffer: Some(bb.clone()),
                    ..Plan::new(PipelineConfig::paper(PipelineKind::PostProcessing, hours))
                };
                let run = campaign.execute(&plan).expect("valid plan");
                golden.check(
                    &format!("bb/{machine}/{buffer}/post-processing@{hours}h/digest"),
                    &run.metrics.digest(),
                );
            }
        }
    }
}

/// Every change-point of every meter, floats as bits, meters in order.
fn meters_blob(meters: &[MeteredPdu]) -> String {
    let mut text = String::new();
    for m in meters {
        for &(t, watts) in m.true_signal().samples() {
            text.push_str(&format!("{}:{:x};", t.as_micros(), watts.to_bits()));
        }
        text.push('|');
    }
    blob(&text)
}

/// Drive a `cages` × 10 machine through a fixed script — uniform phases,
/// splits at a cage-aligned and a mid-cage boundary, two changes in one
/// instant, `finish` — and render everything it exposes: the cage meters
/// (read right after the mid-cage split and at the end), the cluster meter,
/// `power_now` after each op, and the profile energy.
fn machine_script_line(cages: usize, aligned: usize, mid: usize, noise: Option<u64>) -> String {
    let topology = ClusterTopology {
        num_cages: cages,
        nodes_per_cage: 10,
        ..ClusterTopology::caddy()
    };
    // A non-round idle draw, so sums are inexact and their order shows.
    let node_model = NodePowerModel::caddy().calibrated(Watts(100.1), Watts(293.3));
    let mut m = Machine::new(topology, node_model, IoWaitPolicy::BusyWait);
    if let Some(seed) = noise {
        m = m.with_power_noise(seed, 0.005);
    }
    let t = SimTime::from_secs;
    type Op = Box<dyn Fn(&mut Machine)>;
    let ops: Vec<Op> = vec![
        Box::new(move |m| m.begin_phase(t(10), JobPhase::Simulate)),
        Box::new(move |m| m.begin_phase(t(95), JobPhase::WriteOutput)),
        Box::new(move |m| {
            m.begin_split_phase(t(103), aligned, JobPhase::Simulate, JobPhase::Visualize)
        }),
        Box::new(move |m| m.begin_split_phase(t(140), mid, JobPhase::Idle, JobPhase::Visualize)),
        Box::new(move |m| m.begin_phase(t(200), JobPhase::Idle)),
        Box::new(move |m| m.begin_phase(t(200), JobPhase::Simulate)),
        Box::new(move |m| {
            m.begin_split_phase(t(260), mid, JobPhase::WriteOutput, JobPhase::Visualize)
        }),
        Box::new(move |m| m.begin_phase(t(300), JobPhase::Visualize)),
        Box::new(move |m| m.finish(t(360))),
    ];
    let mut power_now = String::new();
    let mut cages_mid = String::new();
    for (i, op) in ops.iter().enumerate() {
        op(&mut m);
        power_now.push_str(&format!("{:x};", m.power_now().watts().to_bits()));
        if i == 3 {
            cages_mid = meters_blob(m.cage_meters());
        }
    }
    let cluster = m.cluster_meter();
    let energy = cluster.profile(SimTime::ZERO, t(420)).energy().joules();
    format!(
        "cages_mid[{cages_mid}] cages[{}] cluster[{}] power_now[{}] energy={:#018x}",
        meters_blob(m.cage_meters()),
        meters_blob(std::slice::from_ref(&cluster)),
        blob(&power_now),
        energy.to_bits()
    )
}

#[test]
fn machine_meters_and_power_match_golden() {
    let golden = Golden::load();
    for (cages, aligned, mid) in [(15usize, 60usize, 65usize), (1_000, 640, 645)] {
        for (label, noise) in [("clean", None), ("noisy11", Some(11))] {
            let line = machine_script_line(cages, aligned, mid, noise);
            golden.check(&format!("machine/{cages}x10/{label}"), &line);
        }
    }
}

#[test]
fn traced_caddy_10k_jsonl_matches_golden() {
    // The traced twin of `caddy_10k_whatif_digests_match_golden`: the JSONL
    // carries the `cluster.power_w` gauge `Machine::power_now` feeds at
    // every phase change.
    let golden = Golden::load();
    let traced = |run: &dyn Fn(&Campaign)| {
        let mut campaign = Campaign::caddy_scaled(10_000);
        let rec = Recorder::in_memory();
        campaign.config.recorder = rec.clone();
        run(&campaign);
        blob(&rec.with_buffer(to_jsonl).expect("recorder is on"))
    };
    let insitu = traced(&|c| {
        c.run(&PipelineConfig::paper(PipelineKind::InSitu, 24.0));
    });
    golden.check("machine/caddy10k/in-situ@24h/jsonl", &insitu);
    let depth4_zfp = TransportConfig::pipelined(4).with_compression(CompressionConfig::zfp_like());
    let intransit = traced(&|c| {
        c.execute(&staged(&intransit_pc(24.0), 640, depth4_zfp.clone()))
            .expect("valid plan");
    });
    golden.check(
        "machine/caddy10k/in-transit-s640-d4-zfp@24h/jsonl",
        &intransit,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds materialise all 10 000 cage meters on harvest (≈ 300 MB); run with --release"
)]
fn caddy_100k_digest_matches_golden() {
    let golden = Golden::load();
    let m = Campaign::caddy_scaled(100_000).run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
    golden.check("machine/caddy100k/in-situ@8h/digest", &m.digest());
}
