//! The serve layer's replies are pinned to a committed golden file:
//! `LoadReport::digest()` — every counter, both response-byte digests,
//! the latency percentiles and the makespan — and the JSONL trace of the
//! same replay with the recorder on, under the `serve/` keys of
//! `tests/golden/serve_identity.txt`, at 1, 2 and 8 shim threads.
//!
//! `tests/serve_determinism.rs` proves a replay agrees with *itself*
//! across thread counts; this suite holds it to what the reply path
//! produced when the file was recorded, so a change to how responses are
//! built, carried or hashed cannot move a byte, a simulated microsecond
//! or a recorder call unnoticed.
//!
//! The load claims are asserted on the same replays: nothing is shed
//! below capacity, an overloaded server sheds yet answers every request,
//! and memoization cuts what-if p99 at least tenfold without changing a
//! response byte.

mod common;

use common::{at_all_thread_counts, blob, Golden};
use insitu_vis::model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
use insitu_vis::pipeline::PipelineKind;
use insitu_vis::serve::{
    format_get, frame_target, whatif_target, LoadMix, LoadSchedule, ServeStats, Server,
    ServerConfig,
};
use insitu_vis::sim::SimTime;
use insitu_vis::viz::CinemaDatabase;
use ivis_obs::{to_jsonl, Recorder};

/// Replay `schedule` with the recorder off and on at every thread count
/// and hold both artifacts to the golden file. The two replays must also
/// agree with each other: recording never changes a reply. Returns the
/// replay's counters.
fn check(golden: &Golden, key: &str, srv: &Server, schedule: &LoadSchedule) -> ServeStats {
    let (report, trace) = at_all_thread_counts(|| {
        let report = srv.run_load(schedule, &Recorder::off(), false);
        let rec = Recorder::in_memory();
        let traced = srv.run_load(schedule, &rec, false);
        assert_eq!(traced, report, "{key}: the recorder changed the replay");
        (report, rec.with_buffer(to_jsonl).expect("recorder is on"))
    });
    golden.check(&format!("serve/{key}/digest"), &report.digest());
    golden.check(&format!("serve/{key}/trace"), &blob(&trace));
    report.stats
}

/// The load scenarios: a 256-frame server, its client tiers (one warm-up
/// request per key of the default mix's vocabulary, then `clients` ×
/// `reqs` requests over one simulated second), an overload scenario and
/// a memoization stream.
mod bench {
    use super::*;

    const FRAMES: u64 = 256;
    const STEPS_PER_FRAME: u64 = 16;

    pub fn server(config: ServerConfig) -> Server {
        Server::new(
            config,
            WhatIfAnalyzer::paper(),
            CinemaDatabase::synthetic("serve-bench", FRAMES, 64, 64, STEPS_PER_FRAME),
        )
    }

    /// The warm-up prefix moves every cache miss out of the measured
    /// window, so the zero-shed claim holds at steady state.
    pub fn tier(clients: u32, reqs: u32) -> LoadSchedule {
        let mix = LoadMix::default();
        let mut arrivals = Vec::new();
        for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
            for step in 0..mix.distinct_rates {
                let at = SimTime::from_micros(arrivals.len() as u64 * 1_500);
                let rate = 1.0 + 0.75 * f64::from(step % 64);
                let key = WhatIfRequest::new(mix.spec, kind, rate, mix.curve_points).unwrap();
                arrivals.push((at, whatif_target(&key)));
            }
        }
        let offset = arrivals.last().map_or(0, |(t, _)| t.as_micros()) + 50_000;
        let load = LoadSchedule::generate(
            0x5e21e,
            clients,
            reqs,
            1_000_000,
            mix,
            FRAMES,
            STEPS_PER_FRAME,
        );
        arrivals.extend(
            load.arrivals
                .into_iter()
                .map(|(t, b)| (SimTime::from_micros(t.as_micros() + offset), b)),
        );
        LoadSchedule { arrivals }
    }

    pub fn overload() -> (Server, LoadSchedule) {
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
        (tight, heavy)
    }

    /// A repeat-heavy what-if-only stream: `n` requests over 8 distinct
    /// keys, spaced so each is its own batch.
    pub fn memo_schedule(n: u64) -> LoadSchedule {
        let arrivals = (0..n)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    PipelineKind::InSitu
                } else {
                    PipelineKind::PostProcessing
                };
                let rate = 1.0 + 0.75 * (i % 8) as f64;
                let key = WhatIfRequest::new(SpecId::Paper100yr, kind, rate, 129).unwrap();
                (SimTime::from_micros(i * 10_000), whatif_target(&key))
            })
            .collect();
        LoadSchedule { arrivals }
    }
}

#[test]
fn bench_tier_and_overload_digests_match_golden() {
    let golden = Golden::load();
    let default = bench::server(ServerConfig::default());
    let (tight, heavy) = bench::overload();
    // Below capacity nothing is shed; an under-provisioned server sheds,
    // with typed 503s, and still answers every request exactly once.
    let below = check(&golden, "bench/1k", &default, &bench::tier(1_000, 4));
    assert_eq!(below.shed(), 0, "the below-capacity 1k tier shed");
    let s = check(&golden, "bench/overload", &tight, &heavy);
    assert!(s.shed() > 0, "the overloaded server shed nothing");
    assert_eq!(s.requests, 5_000);
    assert_eq!(
        s.ok + s.bad_requests + s.not_found + s.shed(),
        s.requests,
        "the overloaded server did not answer every request once"
    );
}

/// The 10k and 100k client tiers shed nothing and replay to their pinned
/// `ServeStats`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the 100k tier replays 200 128 requests per thread count; run with --release"
)]
fn bench_10k_and_100k_tiers_match_golden() {
    let golden = Golden::load();
    let srv = bench::server(ServerConfig::default());
    for (label, clients, reqs) in [("10k", 10_000, 4), ("100k", 100_000, 2)] {
        let schedule = bench::tier(clients, reqs);
        let stats = at_all_thread_counts(|| srv.run_load(&schedule, &Recorder::off(), false).stats);
        assert_eq!(stats.shed(), 0, "the below-capacity {label} tier shed");
        golden.check(&format!("serve/bench/{label}/stats"), &stats.digest());
    }
}

/// Memoization pays: on a repeat-heavy what-if stream the warm p99 beats
/// the cold (cache-disabled) p99 by at least 10×, with the same response
/// bytes either way. 1 024 requests over 8 keys put the 8 first-touch
/// misses below the 99th percentile, so warm p99 measures the hit path.
#[test]
fn memoized_whatif_p99_beats_cold_tenfold_with_equal_bytes() {
    let schedule = bench::memo_schedule(1024);
    let replay = |cache_capacity| {
        let srv = bench::server(ServerConfig {
            cache_capacity,
            ..ServerConfig::default()
        });
        let r = srv.run_load(&schedule, &Recorder::off(), false);
        (r.whatif.p99_us, r.stats.content_digest)
    };
    let ((cold_p99, cold_bytes), (warm_p99, warm_bytes)) =
        at_all_thread_counts(|| (replay(0), replay(ServerConfig::default().cache_capacity)));
    assert!(
        cold_p99 >= 10 * warm_p99.max(1),
        "memoized p99 {warm_p99} µs is not 10x under cold {cold_p99} µs"
    );
    assert_eq!(
        cold_bytes, warm_bytes,
        "memoization changed the response bytes"
    );
}

fn test_server(config: ServerConfig) -> Server {
    Server::new(
        config,
        WhatIfAnalyzer::paper(),
        CinemaDatabase::synthetic("serve-determinism", 32, 8, 8, 16),
    )
}

/// `tests/serve_determinism.rs::mixed_schedule(7)` on the default
/// provisioning, with memoization off, and under a budget so tight that
/// both admission points shed most of the load.
#[test]
fn mixed_schedule_digests_match_golden() {
    let golden = Golden::load();
    let schedule = LoadSchedule::generate(7, 64, 8, 200_000, LoadMix::default(), 32, 16);
    let configs = [
        ("default", ServerConfig::default()),
        (
            "cache0",
            ServerConfig {
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        ),
        (
            "shed",
            ServerConfig {
                max_connections: 2,
                queue_capacity: 4,
                service_slots: 1,
                ..ServerConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        check(
            &golden,
            &format!("mixed7/{name}"),
            &test_server(config),
            &schedule,
        );
    }
}

/// Every reply shape the reactor can produce that a generated mix hits
/// rarely or never, on one hand-built timeline: `/healthz`, a malformed
/// request line, an unknown route, a what-if the router rejects, a frame
/// hit, a missing frame, and one batch holding the same key three times
/// beside a second key.
#[test]
fn edge_reply_digests_match_golden() {
    let golden = Golden::load();
    let key = |h: f64| {
        whatif_target(
            &WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, h, 9)
                .expect("test rates are representable"),
        )
    };
    let requests: Vec<(u64, Vec<u8>)> = vec![
        (0, format_get("/healthz")),
        (5, b"BORK this is not http\r\n\r\n".to_vec()),
        (10, format_get("/nope")),
        (15, format_get("/whatif?rate_hours=abc")),
        (20, frame_target(48)),
        (25, frame_target(1_000_000)),
        (100, key(24.0)),
        (101, key(24.0)),
        (102, key(8.0)),
        (103, key(24.0)),
        (900, key(8.0)),
    ];
    let schedule = LoadSchedule {
        arrivals: requests
            .into_iter()
            .map(|(us, bytes)| (SimTime::from_micros(us), bytes))
            .collect(),
    };
    check(
        &golden,
        "edge",
        &test_server(ServerConfig::default()),
        &schedule,
    );
}
