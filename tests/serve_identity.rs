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

mod common;

use common::{at_all_thread_counts, blob, Golden};
use insitu_vis::model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
use insitu_vis::pipeline::PipelineKind;
use insitu_vis::serve::{
    format_get, frame_target, whatif_target, LoadMix, LoadSchedule, Server, ServerConfig,
};
use insitu_vis::sim::SimTime;
use insitu_vis::viz::CinemaDatabase;
use ivis_bench::report::Json;
use ivis_obs::{to_jsonl, Recorder};

/// Replay `schedule` with the recorder off and on at every thread count
/// and hold both artifacts to the golden file. The two replays must also
/// agree with each other: recording never changes a reply. Returns the
/// digest.
fn check(golden: &Golden, key: &str, srv: &Server, schedule: &LoadSchedule) -> String {
    let (digest, trace) = at_all_thread_counts(|| {
        let digest = srv.run_load(schedule, &Recorder::off(), false).digest();
        let rec = Recorder::in_memory();
        let traced = srv.run_load(schedule, &rec, false).digest();
        assert_eq!(traced, digest, "{key}: the recorder changed the replay");
        (digest, rec.with_buffer(to_jsonl).expect("recorder is on"))
    });
    golden.check(&format!("serve/{key}/digest"), &digest);
    golden.check(&format!("serve/{key}/trace"), &blob(&trace));
    digest
}

/// `serve_bench`'s server and its `1k` tier schedule (one warm-up
/// request per key of the default mix's vocabulary, then 1 000 clients
/// × 4 requests over one simulated second) and `overload` scenario.
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

    pub fn tier_1k() -> LoadSchedule {
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
        let load =
            LoadSchedule::generate(0x5e21e, 1_000, 4, 1_000_000, mix, FRAMES, STEPS_PER_FRAME);
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
}

#[test]
fn bench_tier_and_overload_digests_match_golden() {
    let golden = Golden::load();
    let committed = Json::parse(include_str!("../BENCH_serve.json"))
        .expect("BENCH_serve.json parses")
        .flatten();
    let default = bench::server(ServerConfig::default());
    let (tight, heavy) = bench::overload();
    for (row, path, srv, schedule) in [
        ("1k", "tiers.1k.digest", &default, &bench::tier_1k()),
        ("overload", "overload.digest", &tight, &heavy),
    ] {
        let digest = check(&golden, &format!("bench/{row}"), srv, schedule);
        // The schedules above are copies of `serve_bench`'s: the stats
        // they replay to must be the ones the bench committed for the row.
        let Some(Json::Str(pinned)) = committed.get(path) else {
            panic!("BENCH_serve.json has no {path}");
        };
        assert_eq!(
            digest.split(" | ").next(),
            Some(pinned.as_str()),
            "{row}: the copy drifted from serve_bench"
        );
    }
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
