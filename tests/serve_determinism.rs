//! Determinism of the serve layer: an identical client schedule must
//! produce bit-identical response-byte digests, latency percentiles and
//! JSONL traces; memoized responses must be byte-equal to cold ones
//! under arbitrary mixes; and shedding must never corrupt the batch
//! window — every admitted what-if still gets the reference bytes for
//! its key.
//!
//! The reactor and `WhatIfAnalyzer::answer` both run on the calling
//! thread, so no thread count can leak into the artifacts; one traced
//! replay shows the digest and trace carry every surface, and
//! `serve_identity` pins their bytes.

use insitu_vis::model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
use insitu_vis::pipeline::PipelineKind;
use insitu_vis::serve::{
    expected_whatif_response, frame_target, whatif_target, LoadMix, LoadSchedule, Server,
    ServerConfig,
};
use insitu_vis::sim::SimTime;
use insitu_vis::viz::CinemaDatabase;
use ivis_obs::{to_jsonl, Recorder};
use proptest::prelude::*;

fn test_server(config: ServerConfig) -> Server {
    Server::new(
        config,
        WhatIfAnalyzer::paper(),
        CinemaDatabase::synthetic("serve-determinism", 32, 8, 8, 16),
    )
}

fn mixed_schedule(seed: u64) -> LoadSchedule {
    LoadSchedule::generate(seed, 64, 8, 200_000, LoadMix::default(), 32, 16)
}

#[test]
fn load_replay_is_bit_identical_across_thread_counts() {
    let schedule = mixed_schedule(7);
    let srv = test_server(ServerConfig::default());
    let rec = Recorder::in_memory();
    let digest = srv.run_load(&schedule, &rec, false).digest();
    let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
    // The run exercised every surface the digest witnesses.
    assert!(digest.contains("hits="), "digest shape changed: {digest}");
    assert!(trace.contains("serve.requests"));
    assert!(trace.contains("\"request\""));
}

#[test]
fn schedule_generation_and_replay_are_seed_stable() {
    // Same seed, two independent generate+replay passes: everything
    // down to the response stream digest must match.
    let srv = test_server(ServerConfig::default());
    let a = srv.run_load(&mixed_schedule(42), &Recorder::off(), false);
    let b = srv.run_load(&mixed_schedule(42), &Recorder::off(), false);
    assert_eq!(a, b);
    let c = srv.run_load(&mixed_schedule(43), &Recorder::off(), false);
    assert_ne!(
        a.stats.stream_digest, c.stats.stream_digest,
        "different seeds should produce different streams"
    );
}

#[test]
fn shed_requests_never_corrupt_the_batch_window() {
    // An under-provisioned server: connection budget 4, one slot, queue
    // of 1. Bursts force sheds at both admission points while what-if
    // batches are open. Every admitted what-if must still produce the
    // reference bytes for its key, and every request exactly one
    // response.
    let config = ServerConfig {
        service_slots: 1,
        queue_capacity: 1,
        max_connections: 4,
        ..ServerConfig::default()
    };
    let srv = test_server(config);
    let analyzer = WhatIfAnalyzer::paper();
    let key = |h: f64| {
        WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, h, 17)
            .expect("test rates are representable")
    };
    // Four bursts of 8 simultaneous arrivals, mixing batched what-ifs
    // with single-unit frame lookups.
    let mut arrivals = Vec::new();
    for burst in 0..4u64 {
        let t = SimTime::from_micros(burst * 50);
        for j in 0..8u64 {
            let bytes = if j % 2 == 0 {
                whatif_target(&key(1.0 + burst as f64))
            } else {
                frame_target(16 * (j % 4))
            };
            arrivals.push((t, bytes));
        }
    }
    let schedule = LoadSchedule { arrivals };
    let report = srv.run_load(&schedule, &Recorder::off(), true);
    assert!(
        report.stats.shed() > 0,
        "the burst must overwhelm the budget"
    );
    let responses = report.responses.expect("responses were kept");
    assert_eq!(responses.len(), schedule.arrivals.len());
    let mut ok_whatifs = 0;
    for (i, resp) in responses.iter().enumerate() {
        let bytes = resp.as_ref().expect("every request gets a response");
        let is_whatif = schedule.arrivals[i].1.starts_with(b"GET /whatif");
        if is_whatif && bytes.starts_with(b"HTTP/1.1 200") {
            let burst = schedule.arrivals[i].0.as_micros() / 50;
            let expected = expected_whatif_response(&analyzer, &key(1.0 + burst as f64));
            assert_eq!(
                bytes, &expected,
                "request {i}: admitted what-if must carry the reference bytes"
            );
            ok_whatifs += 1;
        }
    }
    assert!(ok_whatifs > 0, "some what-ifs must survive the bursts");
    // Accounting closes: every arrival is ok, 4xx, or shed.
    let s = &report.stats;
    assert_eq!(
        s.ok + s.bad_requests + s.not_found + s.shed(),
        s.requests,
        "responses must partition the arrivals"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Memoized and cold replays of the same schedule return byte-equal
    /// responses for every request, for arbitrary seeds and working-set
    /// sizes.
    #[test]
    fn memoized_responses_equal_cold_responses(
        seed in 0u64..1_000,
        distinct in 1u32..24,
        points in 1u16..48,
    ) {
        let mix = LoadMix {
            whatif_pct: 80,
            distinct_rates: distinct,
            curve_points: points,
            malformed_pct: 2,
            ..LoadMix::default()
        };
        let schedule = LoadSchedule::generate(seed, 24, 4, 100_000, mix, 32, 16);
        let cold = test_server(ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        })
        .run_load(&schedule, &Recorder::off(), true);
        let warm = test_server(ServerConfig::default())
            .run_load(&schedule, &Recorder::off(), true);
        prop_assert_eq!(cold.stats.content_digest, warm.stats.content_digest);
        let (cold_resp, warm_resp) = (cold.responses.unwrap(), warm.responses.unwrap());
        for (i, (c, w)) in cold_resp.iter().zip(&warm_resp).enumerate() {
            prop_assert_eq!(c, w, "request {} diverged between cold and warm", i);
        }
        // The warm run actually memoized (when there was anything to).
        if warm.stats.cache_misses > 0 || warm.stats.cache_hits > 0 {
            prop_assert_eq!(cold.stats.cache_hits, 0);
        }
    }
}
