//! Serve-layer load benchmark: the `ivis-serve` reactor under 1k / 10k /
//! 100k simulated concurrent clients, with the memoization and
//! backpressure contracts enforced as gates.
//!
//! Everything gated here is *simulated* time — a pure function of the
//! seeded schedule and the server configuration — so the numbers (and
//! the FNV digests that witness them) reproduce bit-for-bit on any host
//! at any thread count. Wall-clock timings of the replay ride along as
//! machine-bound context, reported but never gated across machines.
//!
//! Gates under `--check` (the CI contract):
//!
//! * **digests match the committed baseline** — the `digest` of every
//!   tier and of the overload row equals the one the committed
//!   `BENCH_serve.json` holds (the reactor is deterministic, so the
//!   committed file is the reference);
//! * **zero shed below capacity** — all three client tiers run under
//!   provisioned capacity and must finish with no 503s;
//! * **memoization pays** — on a repeat-heavy what-if stream, the warm
//!   p99 must beat the cold (cache-disabled) p99 by at least 10×, and
//!   the response bytes must be identical either way (content digests
//!   match);
//! * **overload sheds, and only sheds** — an under-provisioned replay
//!   must produce 503s while still answering every request exactly once.
//!
//! Output lands in `BENCH_serve.json` (or the path given as the first
//! non-flag argument); `memo_speedup` is the ratio `--check` also holds
//! to the committed one.

use std::time::Instant;

use ivis_bench::obj;
use ivis_bench::report::Bench;
use ivis_core::PipelineKind;
use ivis_model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
use ivis_obs::Recorder;
use ivis_serve::{whatif_target, LoadMix, LoadReport, LoadSchedule, Server, ServerConfig};
use ivis_sim::SimTime;
use ivis_viz::CinemaDatabase;

/// Frames in the synthetic Cinema database the tiers query.
const FRAMES: u64 = 256;
/// Timesteps between stored frames.
const STEPS_PER_FRAME: u64 = 16;

fn server(config: ServerConfig) -> Server {
    Server::new(
        config,
        WhatIfAnalyzer::paper(),
        CinemaDatabase::synthetic("serve-bench", FRAMES, 64, 64, STEPS_PER_FRAME),
    )
}

/// The warmup prefix: one request for every key in the mix's what-if
/// vocabulary (both pipeline kinds across the full rate ladder), spaced
/// so the cold evaluations never congest the slots. Prepending this to a
/// tier schedule moves every cache miss out of the measured window —
/// the zero-shed gate then holds at steady state, which is the claim.
fn warmup_arrivals(mix: &LoadMix) -> Vec<(SimTime, Vec<u8>)> {
    let mut arrivals = Vec::new();
    let mut i = 0u64;
    for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
        for step in 0..mix.distinct_rates {
            let rate_hours = 1.0 + 0.75 * (step % 64) as f64;
            let key = WhatIfRequest::new(mix.spec, kind, rate_hours, mix.curve_points)
                .expect("mix rates are representable");
            arrivals.push((SimTime::from_micros(i * 1_500), whatif_target(&key)));
            i += 1;
        }
    }
    arrivals
}

/// A tier schedule with the warmup prefix in front and the generated
/// load shifted past it.
fn tier_schedule(seed: u64, clients: u32, reqs: u32, spread_us: u64, mix: LoadMix) -> LoadSchedule {
    let mut arrivals = warmup_arrivals(&mix);
    let offset = arrivals.last().map_or(0, |(t, _)| t.as_micros()) + 50_000;
    let load = LoadSchedule::generate(seed, clients, reqs, spread_us, mix, FRAMES, STEPS_PER_FRAME);
    arrivals.extend(
        load.arrivals
            .into_iter()
            .map(|(t, b)| (SimTime::from_micros(t.as_micros() + offset), b)),
    );
    LoadSchedule { arrivals }
}

/// A repeat-heavy what-if-only schedule: `n` requests over 16 distinct
/// keys, spaced far enough apart that each is its own batch — the
/// memoization comparison needs per-request latencies, not batching.
fn memo_schedule(n: u64) -> LoadSchedule {
    let arrivals = (0..n)
        .map(|i| {
            let key = WhatIfRequest::new(
                SpecId::Paper100yr,
                if i % 2 == 0 {
                    PipelineKind::InSitu
                } else {
                    PipelineKind::PostProcessing
                },
                1.0 + 0.75 * (i % 8) as f64,
                129,
            )
            .expect("bench rates are representable");
            (SimTime::from_micros(i * 10_000), whatif_target(&key))
        })
        .collect();
    LoadSchedule { arrivals }
}

fn main() {
    let mut bench = Bench::from_args("serve");
    let defaults = ServerConfig::default();
    let config = obj! {
        "service_slots" => defaults.service_slots, "queue_capacity" => defaults.queue_capacity,
        "batch_window_us" => defaults.batch_window.as_micros(), "max_batch" => defaults.max_batch,
        "cache_capacity" => defaults.cache_capacity, "shards" => defaults.shards,
        "frames" => FRAMES,
    };
    bench.section("config", config);

    // --- client tiers below capacity: must not shed ---
    let tiers: [(&'static str, u32, u32, u64); 3] = [
        ("1k", 1_000, 4, 1_000_000),
        ("10k", 10_000, 4, 1_000_000),
        ("100k", 100_000, 2, 1_000_000),
    ];
    let srv = server(defaults);
    let mut rows = Vec::new();
    for (label, clients, reqs, spread_us) in tiers {
        let schedule = tier_schedule(0x5e21e, clients, reqs, spread_us, LoadMix::default());
        let t0 = Instant::now();
        let report = srv.run_load(&schedule, &Recorder::off(), false);
        let wall_s = t0.elapsed().as_secs_f64();
        let s = &report.stats;
        bench.gate(s.shed() == 0, || {
            format!("the below-capacity {label} tier shed {} requests", s.shed())
        });
        rows.push(obj! {
            "config" => label, "requests" => s.requests, "ok" => s.ok, "shed" => s.shed(),
            "shed_pct" => report.shed_fraction() * 100.0, "cache_hit_pct" => hit_pct(&report),
            "batches" => s.batches,
            "whatif_p50_us" => report.whatif.p50_us, "whatif_p99_us" => report.whatif.p99_us,
            "frame_p50_us" => report.frame.p50_us, "frame_p99_us" => report.frame.p99_us,
            "sim_qps" => report.sim_qps, "wall_s" => wall_s, "digest" => s.digest(),
        });
    }
    bench.section("tiers", rows.into());

    // --- memoization: warm p99 must beat cold p99 by >= 10x ---
    // 1024 requests over 8 keys: the 8 first-touch misses sit below the
    // 99th percentile, so warm p99 measures the hit path.
    let sched = memo_schedule(1024);
    let cold_srv = server(ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let warm_srv = server(ServerConfig::default());
    let t0 = Instant::now();
    let cold = cold_srv.run_load(&sched, &Recorder::off(), false);
    let cold_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = warm_srv.run_load(&sched, &Recorder::off(), false);
    let warm_wall = t0.elapsed().as_secs_f64();
    let memo_speedup = cold.whatif.p99_us as f64 / warm.whatif.p99_us.max(1) as f64;
    let bytes_identical = cold.stats.content_digest == warm.stats.content_digest;
    bench.gate(memo_speedup >= 10.0 && bytes_identical, || {
        format!("memoized p99 not >=10x cold (got {memo_speedup:.1}x) or bytes diverged")
    });
    let memo = obj! {
        "cold_p99_us" => cold.whatif.p99_us, "warm_p99_us" => warm.whatif.p99_us,
        "memo_speedup" => memo_speedup, "cold_wall_s" => cold_wall, "warm_wall_s" => warm_wall,
    };
    bench.section("memo", memo);

    // --- overload: an under-provisioned server must shed, typed ---
    let tight = server(ServerConfig {
        service_slots: 1,
        queue_capacity: 8,
        max_connections: 64,
        ..ServerConfig::default()
    });
    let heavy = LoadSchedule::generate(
        0x10ad,
        5_000,
        1,
        100_000,
        LoadMix::default(),
        FRAMES,
        STEPS_PER_FRAME,
    );
    let overload = tight.run_load(&heavy, &Recorder::off(), false);
    let s = &overload.stats;
    let answered = s.ok + s.bad_requests + s.not_found + s.shed();
    bench.gate(s.shed() > 0 && answered == s.requests, || {
        format!(
            "overloaded server shed {} and answered {answered} of {}",
            s.shed(),
            s.requests
        )
    });
    let shed_pct = overload.shed_fraction() * 100.0;
    let row = obj! {
        "requests" => s.requests, "shed" => s.shed(), "shed_pct" => shed_pct, "digest" => s.digest(),
    };
    bench.section("overload", row);
    bench.finish();
}

fn hit_pct(r: &LoadReport) -> f64 {
    let total = r.stats.cache_hits + r.stats.cache_misses;
    if total == 0 {
        0.0
    } else {
        r.stats.cache_hits as f64 / total as f64 * 100.0
    }
}
