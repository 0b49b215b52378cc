//! The query-service workloads: `serve_hot` and `serve_miss`.
//!
//! One iteration is one `Server::run_load` replay of a seeded schedule:
//! open loop in *simulated* time, so the load offered never depends on
//! how fast the host answers. The traced pass sends the schedule's
//! request bytes through the service's public stages one stage at a
//! time — `parse_request`, `MemoCache`, `render_whatif_body`,
//! `ShardedFrameIndex::lookup`, `HttpResponse::to_bytes` — and reports
//! what is left of the iteration as unattributed: the reactor, routing,
//! batching and the stream/content digests have no public entry point.

use std::rc::Rc;

use ivis_core::PipelineKind;
use ivis_model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
use ivis_obs::Recorder;
use ivis_serve::{
    parse_request, render_whatif_body, whatif_target, HttpRequest, HttpResponse, LoadMix,
    LoadReport, LoadSchedule, MemoCache, Server, ServerConfig, ShardedFrameIndex,
};
use ivis_sim::SimTime;
use ivis_viz::CinemaDatabase;

use super::{attributed_ms, median_secs, replay_iterations, SplitMix};
use crate::harness::{Checks, Pin, TraceCtx, Workload};
use crate::trace::Tracer;

/// Frames in the synthetic Cinema database the schedules query.
const FRAMES: u64 = 256;
/// Timesteps between stored frames.
const STEPS_PER_FRAME: u64 = 16;
/// Distinct what-if keys `serve_miss` draws from: four times the
/// default 4 096-entry `MemoCache`.
const MISS_KEYS: u64 = 16_384;

fn database() -> CinemaDatabase {
    CinemaDatabase::synthetic("benchmark", FRAMES, 64, 64, STEPS_PER_FRAME)
}

fn server(config: ServerConfig) -> Server {
    Server::new(config, WhatIfAnalyzer::paper(), database())
}

fn key(kind: PipelineKind, rate_hours: f64, points: u16) -> WhatIfRequest {
    WhatIfRequest::new(SpecId::Paper100yr, kind, rate_hours, points)
        .expect("generated rates are representable")
}

/// `serve_bench`'s tier schedule: one request per key of the mix's
/// vocabulary first, spaced so the cold evaluations never congest, then
/// `clients` × 2 requests of the default mix at 200 k req/s offered.
pub fn hot_schedule(seed: u64, clients: u32) -> LoadSchedule {
    let mix = LoadMix::default();
    let mut arrivals = Vec::new();
    for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
        for step in 0..mix.distinct_rates {
            let at = SimTime::from_micros(arrivals.len() as u64 * 1_500);
            let rate = 1.0 + 0.75 * f64::from(step % 64);
            arrivals.push((at, whatif_target(&key(kind, rate, mix.curve_points))));
        }
    }
    let offset = arrivals.last().map_or(0, |(t, _)| t.as_micros()) + 50_000;
    let load = LoadSchedule::generate(
        seed,
        clients,
        2,
        u64::from(clients) * 10,
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

/// `requests` what-if queries (129 curve points) at 1 000 req/s
/// simulated, keys drawn uniformly by `seed` from [`MISS_KEYS`]
/// (8 192 rates × 2 pipeline kinds).
pub fn miss_schedule(seed: u64, requests: u64) -> LoadSchedule {
    let mut rng = SplitMix(seed);
    let arrivals = (0..requests)
        .map(|i| {
            let k = rng.below(MISS_KEYS);
            let kind = if k % 2 == 0 {
                PipelineKind::InSitu
            } else {
                PipelineKind::PostProcessing
            };
            let rate = 1.0 + 0.001 * (k / 2) as f64;
            (
                SimTime::from_micros(i * 1_000),
                whatif_target(&key(kind, rate, 129)),
            )
        })
        .collect();
    LoadSchedule { arrivals }
}

pub struct ServeWorkload {
    /// Section of `expected/seed42.json` with this workload's digest
    /// (none when the schedule is not the pinned size).
    pin: Option<&'static str>,
    server: Server,
    schedule: LoadSchedule,
    /// Rebuilds the schedule from the seed; timed for
    /// `serve.schedule_gen_ms`.
    generate: Box<dyn Fn() -> LoadSchedule>,
    last: Option<LoadReport>,
    reference: Option<LoadReport>,
}

impl ServeWorkload {
    pub fn hot(seed: u64, quick: bool) -> Self {
        let clients = if quick { 150 } else { 7_000 };
        Self::new(
            (!quick).then_some("serve_hot"),
            Box::new(move || hot_schedule(seed, clients)),
        )
    }

    pub fn miss(seed: u64, quick: bool) -> Self {
        let requests = if quick { 120 } else { 3_000 };
        Self::new(
            (!quick).then_some("serve_miss"),
            Box::new(move || miss_schedule(seed, requests)),
        )
    }

    fn new(pin: Option<&'static str>, generate: Box<dyn Fn() -> LoadSchedule>) -> Self {
        ServeWorkload {
            pin,
            server: server(ServerConfig::default()),
            schedule: generate(),
            generate,
            last: None,
            reference: None,
        }
    }
}

impl Workload for ServeWorkload {
    fn iterate(&mut self) {
        self.last = Some(
            self.server
                .run_load(&self.schedule, &Recorder::off(), false),
        );
    }

    fn verify(&mut self, checks: &mut Checks) -> u64 {
        let report = self.last.take().expect("verify follows iterate");
        let s = &report.stats;
        let sent = self.schedule.len() as u64;
        // A deliberate 400 or 404 in the mix is an answer; a 503 shed
        // or a request that got no response is a failure.
        let answered = s.ok + s.bad_requests + s.not_found;
        checks.ops(sent, sent - answered.min(sent), || {
            format!(
                "{} of {sent} requests shed or unanswered",
                sent - answered.min(sent)
            )
        });
        match &self.reference {
            None => self.reference = Some(report),
            Some(reference) => checks.op(report.digest() == reference.digest(), || {
                format!(
                    "digest changed between iterations: {} != {}",
                    report.digest(),
                    reference.digest()
                )
            }),
        }
        sent
    }

    fn check_once(&mut self, checks: &mut Checks) {
        let Some(reference) = &self.reference else {
            return;
        };
        // Without the cache the same offered load would overrun the
        // default queue; unbounded admission keeps the comparison about
        // content, not about shedding.
        let cold = server(ServerConfig {
            cache_capacity: 0,
            queue_capacity: usize::MAX,
            max_connections: usize::MAX,
            ..ServerConfig::default()
        })
        .run_load(&self.schedule, &Recorder::off(), false);
        checks.op(
            cold.stats.shed() == 0 && cold.stats.content_digest == reference.stats.content_digest,
            || "responses differ between cache on and cache_capacity 0".into(),
        );
    }

    fn pins(&self) -> Vec<Pin> {
        let (Some(section), Some(reference)) = (self.pin, &self.reference) else {
            return Vec::new();
        };
        vec![Pin {
            section,
            key: "digest".into(),
            value: reference.digest(),
            every_seed: false,
        }]
    }

    fn trace(&mut self, ctx: &mut TraceCtx<'_>, _checks: &mut Checks) {
        let report = self.reference.as_ref().expect("warm-up fixed a reference");
        let stages = Stages {
            analyzer: self.server.analyzer(),
            db: self.server.db(),
            index: ShardedFrameIndex::build(self.server.db(), self.server.config().shards),
            capacity: self.server.config().cache_capacity,
            schedule: &self.schedule,
        };
        let mut counts = StageCounts::default();
        replay_iterations(ctx, |tr| counts = stages.replay(tr));
        let tr = &*ctx.tracer;
        let l = &mut *ctx.layers;

        let requests = self.schedule.len() as f64;
        let ms = |name: &str| tr.self_ms(name).unwrap_or(0.0);
        l.set("serve.parse_us", ms("serve.parse") * 1e3 / requests);
        l.set(
            "serve.render_body_us",
            ms("serve.render_body") * 1e3 / counts.misses.max(1) as f64,
        );
        l.set("serve.serialize_us", ms("serve.serialize") * 1e3 / requests);
        if counts.frames > 0 {
            l.set(
                "serve.shard_lookup_ns",
                ms("serve.shard_lookup") * 1e6 / counts.frames as f64,
            );
            l.set("serve.sim_frame_p99_us", report.frame.p99_us as f64);
        } else {
            let why = "the schedule holds no frame requests";
            l.unmeasured("serve.shard_lookup_ns", why);
            l.unmeasured("serve.sim_frame_p99_us", why);
        }
        let attributed = attributed_ms(tr);
        l.set(
            "serve.unattributed_us_per_req",
            (ctx.iter_ms_p50 - attributed) * 1e3 / requests,
        );

        // What the service itself counted and modelled: exact.
        let s = &report.stats;
        l.set(
            "serve.cache_hit_pct",
            s.cache_hits as f64 * 100.0 / (s.cache_hits + s.cache_misses).max(1) as f64,
        );
        l.set("serve.batches_per_iter", s.batches as f64);
        l.set("serve.dedup_per_iter", s.batch_dedups as f64);
        l.set("serve.sim_whatif_p50_us", report.whatif.p50_us as f64);
        l.set("serve.sim_whatif_p99_us", report.whatif.p99_us as f64);
        l.set("serve.sim_qps", report.sim_qps);

        // Off-path rows.
        let reps = if ctx.quick { 1 } else { 5 };
        l.set(
            "serve.schedule_gen_ms",
            1e3 * median_secs(reps.min(3), || {
                std::hint::black_box((self.generate)());
            }),
        );
        let (get_ns, insert_ns) = cache_costs(stages.capacity.max(1), reps);
        l.set("serve.cache_get_ns", get_ns);
        l.set("serve.cache_insert_ns", insert_ns);
        for (name, points) in [("model.answer_33_us", 33), ("model.answer_129_us", 129)] {
            let keys: Vec<WhatIfRequest> = (0..64)
                .map(|k| key(PipelineKind::InSitu, 1.0 + 0.75 * f64::from(k), points))
                .collect();
            l.set(
                name,
                1e6 * median_secs(reps, || {
                    for k in &keys {
                        std::hint::black_box(stages.analyzer.answer(k));
                    }
                }) / keys.len() as f64,
            );
        }
    }
}

/// A request as the service's router would class it. The router is
/// private, so this mirrors it for the request shapes the schedules
/// hold; anything else is answered 400 like a malformed request.
enum Routed {
    WhatIf(WhatIfRequest),
    Frame(u64),
    Bad(&'static str),
}

fn route(req: &HttpRequest) -> Routed {
    match req.path.as_str() {
        "/whatif" => {
            let kind = match req.param("kind") {
                Some("post") => PipelineKind::PostProcessing,
                _ => PipelineKind::InSitu,
            };
            let spec = req.param("spec").and_then(SpecId::parse);
            let rate = req.param("rate_hours").and_then(|v| v.parse::<f64>().ok());
            let points = req.param("points").and_then(|v| v.parse::<u16>().ok());
            match (spec, rate, points) {
                (Some(spec), Some(rate), Some(points)) => {
                    WhatIfRequest::new(spec, kind, rate, points)
                        .map_or(Routed::Bad("unrepresentable rate"), Routed::WhatIf)
                }
                _ => Routed::Bad("bad what-if query"),
            }
        }
        "/frame" => req
            .param("timestep")
            .and_then(|v| v.parse().ok())
            .map_or(Routed::Bad("bad timestep"), Routed::Frame),
        _ => Routed::Bad("no such route"),
    }
}

/// The service's stages, borrowed from the server under test.
struct Stages<'a> {
    analyzer: &'a WhatIfAnalyzer,
    db: &'a CinemaDatabase,
    index: ShardedFrameIndex,
    capacity: usize,
    schedule: &'a LoadSchedule,
}

#[derive(Default, Clone, Copy)]
struct StageCounts {
    misses: u64,
    frames: u64,
}

impl Stages<'_> {
    /// Send every request of the schedule through each stage in turn.
    /// Per-request cache probes stand in for the service's per-batch
    /// ones, so batch-local deduplication is not replayed.
    fn replay(&self, tr: &mut Tracer) -> StageCounts {
        let mut counts = StageCounts::default();
        let parsed: Vec<_> = tr.scope("serve.parse", || {
            self.schedule
                .arrivals
                .iter()
                .map(|(_, bytes)| parse_request(bytes))
                .collect()
        });
        let routed: Vec<Routed> = parsed
            .iter()
            .map(|p| match p {
                Ok(req) => route(req),
                Err(e) => Routed::Bad(e.label()),
            })
            .collect();

        let mut cache = MemoCache::new(self.capacity);
        let mut bodies: Vec<Option<Rc<Vec<u8>>>> = Vec::with_capacity(routed.len());
        let probe = tr.open("serve.cache");
        for r in &routed {
            bodies.push(match r {
                Routed::WhatIf(key) => Some(cache.get(key).unwrap_or_else(|| {
                    counts.misses += 1;
                    let body = Rc::new(tr.scope("serve.render_body", || {
                        render_whatif_body(self.analyzer, key)
                    }));
                    cache.insert(*key, Rc::clone(&body));
                    body
                })),
                _ => None,
            });
        }
        tr.close(probe);

        let entries: Vec<_> = tr.scope("serve.shard_lookup", || {
            routed
                .iter()
                .map(|r| match r {
                    Routed::Frame(ts) => {
                        counts.frames += 1;
                        self.index.lookup(self.db, *ts)
                    }
                    _ => None,
                })
                .collect()
        });

        tr.scope("serve.serialize", || {
            let mut bytes_out = 0usize;
            for ((r, body), entry) in routed.iter().zip(&bodies).zip(&entries) {
                let resp = match (r, body, entry) {
                    (Routed::WhatIf(_), Some(body), _) => HttpResponse::ok_json(
                        String::from_utf8(body.as_ref().clone()).expect("json bodies are utf-8"),
                    ),
                    (Routed::Frame(_), _, Some(entry)) => HttpResponse::ok_png(entry.data.clone()),
                    (Routed::Frame(ts), _, None) => HttpResponse::not_found(&format!("frame {ts}")),
                    (Routed::Bad(why), _, _) => HttpResponse::bad_request(why),
                    (Routed::WhatIf(_), None, _) => unreachable!("every what-if got a body"),
                };
                bytes_out += resp.to_bytes().len();
            }
            std::hint::black_box(bytes_out);
        });
        counts
    }
}

/// `MemoCache::get` on resident keys and `MemoCache::insert` of new keys
/// into a full cache (each one evicting), nanoseconds per call.
fn cache_costs(capacity: usize, reps: usize) -> (f64, f64) {
    let keys: Vec<WhatIfRequest> = (0..2 * capacity as u64)
        .map(|k| key(PipelineKind::InSitu, 1.0 + 0.001 * k as f64, 33))
        .collect();
    let body = Rc::new(vec![0u8; 64]);
    let mut cache = MemoCache::new(capacity);
    for k in &keys[..capacity] {
        cache.insert(*k, Rc::clone(&body));
    }
    let get_s = median_secs(reps, || {
        for k in &keys[..capacity] {
            std::hint::black_box(cache.get(k));
        }
    });
    // Alternate the two halves so every insert is of an absent key.
    let mut half = 1;
    let insert_s = median_secs(reps, || {
        for k in &keys[half * capacity..(half + 1) * capacity] {
            cache.insert(*k, Rc::clone(&body));
        }
        half = 1 - half;
    });
    (
        get_s * 1e9 / capacity as f64,
        insert_s * 1e9 / capacity as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        assert_eq!(hot_schedule(42, 50), hot_schedule(42, 50));
        assert_ne!(hot_schedule(42, 50), hot_schedule(43, 50));
        assert_eq!(miss_schedule(42, 50), miss_schedule(42, 50));
        assert_ne!(miss_schedule(42, 50), miss_schedule(43, 50));
        assert_eq!(hot_schedule(1, 50).len(), 128 + 100);
    }

    #[test]
    fn the_mirror_router_classes_what_the_schedules_hold() {
        let mut whatif = 0;
        let mut frame = 0;
        let mut bad = 0;
        for (_, bytes) in &hot_schedule(7, 400).arrivals {
            match parse_request(bytes).map(|r| route(&r)) {
                Ok(Routed::WhatIf(k)) => {
                    assert_eq!(k.curve_points, 33);
                    whatif += 1;
                }
                Ok(Routed::Frame(_)) => frame += 1,
                Ok(Routed::Bad(_)) | Err(_) => bad += 1,
            }
        }
        assert!(
            whatif > frame && frame > bad && bad > 0,
            "{whatif}/{frame}/{bad}"
        );
    }
}
