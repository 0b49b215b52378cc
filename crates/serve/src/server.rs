//! The deterministic query reactor.
//!
//! [`Server::run_load`] replays a [`LoadSchedule`]
//! through a discrete-event reactor built on
//! [`DesEngine`]: client arrivals, micro-batch
//! deadlines and service completions are events on simulated time, while
//! the *work* each event does — HTTP parsing, what-if model evaluation,
//! sharded frame lookup, response serialization — is real computation on
//! real bytes. Service durations are charged from an explicit integer
//! [`CostModel`], so the latency distribution is a pure function of the
//! schedule and the configuration: bit-identical on every host and in
//! every run, which is what the CI gates compare.
//!
//! Production concerns are first-class:
//!
//! * **batching** — what-if requests gather in a bounded micro-batch
//!   window ([`Batcher`]); duplicate keys inside one batch share a
//!   single evaluation;
//! * **memoization** — evaluated bodies land in a bounded FIFO
//!   [`MemoCache`] keyed on the canonical
//!   [`WhatIfRequest`] tuple;
//! * **backpressure** — a bounded connection budget and a bounded
//!   service queue; beyond either, requests are shed with a typed 503
//!   (`Retry-After` set, reason in the body and the counters) without
//!   ever touching in-flight batches;
//! * **observability** — per-request spans, latency histograms, queue
//!   depth gauges and cache hit/shed counters through `ivis-obs`, so the
//!   PR 6 Perfetto/Prometheus exporters work unchanged.
//!
//! # The reply path
//!
//! A response is never assembled on the serving path. A service unit
//! builds one `Reply` per request: the status line and headers, written
//! once by [`crate::http`]'s head writer, and a handle on the body where
//! it already lives — the `Rc` the memo cache and the rest of the batch
//! share, the PNG inside the Cinema entry the shard lookup returned, or
//! the line of text a 400/404/503 or `/healthz` was built with. The
//! egress cost is charged on head plus body. Delivery reads the bytes
//! exactly once — request id (little-endian), head, body — and advances
//! both FNV-1a digests in that one loop: the stream chain carries on
//! from the previous reply, the content chain restarts at the offset
//! basis and is wrapping-added to the total, so it does not depend on
//! delivery order. Both equal what hashing the contiguous response once
//! per digest gives; a `#[cfg(test)]` oracle holds the loop to that, and
//! `tests/golden/serve_identity.txt` to the values the owned path
//! produced. The contiguous form is built only when
//! [`Server::run_load`] is asked to keep responses, for tests to read.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use ivis_model::{SpecId, WhatIfAnalyzer, WhatIfRequest};
use ivis_obs::{AttrValue, Component, Recorder, SpanId};
use ivis_sim::{DesEngine, SimDuration, SimTime};
use ivis_viz::CinemaDatabase;

use crate::batch::{BatchAdd, Batcher, ClosedBatch};
use crate::cache::MemoCache;
use crate::http::{format_get, parse_request, write_head, HttpRequest, HttpResponse, JSON, PNG};
use crate::load::LoadSchedule;
use crate::num::{push_fixed6, push_sci9, push_u64};
use crate::shard::ShardedFrameIndex;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Simulated service costs, all integer microseconds (or bytes per
/// microsecond), so charged durations never depend on float rounding.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Parsing + routing one request head.
    pub parse_us: u64,
    /// Evaluating one curve point of a cold what-if query.
    pub whatif_point_us: u64,
    /// Serving a memoized (or batch-deduplicated) what-if body.
    pub memo_hit_us: u64,
    /// One sharded index probe.
    pub frame_probe_us: u64,
    /// Fixed dispatch cost of one service batch.
    pub batch_overhead_us: u64,
    /// Egress bandwidth: response bytes pushed per microsecond.
    pub response_bytes_per_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            parse_us: 2,
            whatif_point_us: 40,
            memo_hit_us: 8,
            frame_probe_us: 12,
            batch_overhead_us: 20,
            response_bytes_per_us: 10_000,
        }
    }
}

impl CostModel {
    fn body_us(&self, bytes: usize) -> u64 {
        bytes as u64 / self.response_bytes_per_us.max(1)
    }
}

/// Server provisioning and policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent service executors (batches or single requests in
    /// service at once).
    pub service_slots: usize,
    /// Pending work units the queue holds before shedding.
    pub queue_capacity: usize,
    /// Admitted requests in flight before connection shedding.
    pub max_connections: usize,
    /// Micro-batch window: a what-if batch flushes this long after its
    /// first member arrives, unless it fills first.
    pub batch_window: SimDuration,
    /// Members that fill (and immediately flush) a batch.
    pub max_batch: usize,
    /// Memo-cache capacity in bodies; 0 disables memoization.
    pub cache_capacity: usize,
    /// Shards in the frame index.
    pub shards: usize,
    /// Simulated service costs.
    pub cost: CostModel,
    /// `Retry-After` seconds stamped on 503 responses.
    pub retry_after_s: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            service_slots: 8,
            queue_capacity: 64,
            max_connections: 65_536,
            batch_window: SimDuration::from_micros(200),
            max_batch: 64,
            cache_capacity: 4_096,
            shards: 16,
            cost: CostModel::default(),
            retry_after_s: 1,
        }
    }
}

/// Why a request was shed with a 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedReason {
    /// The connection budget was exhausted at arrival.
    Connections,
    /// The service queue was full when the work unit was submitted.
    QueueFull,
}

impl ShedReason {
    /// Stable label used in 503 bodies and trace events.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ShedReason::Connections => "connection budget exhausted",
            ShedReason::QueueFull => "queue full",
        }
    }
}

/// Latency class a finished request is accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// `/whatif` — model evaluations (batched).
    WhatIf,
    /// `/frame` — Cinema lookups.
    Frame,
    /// `/healthz`, 400s and 404s.
    Other,
    /// 503 sheds.
    Shed,
}

impl Class {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            Class::WhatIf => 0,
            Class::Frame => 1,
            Class::Other => 2,
            Class::Shed => 3,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Class::WhatIf => "whatif",
            Class::Frame => "frame",
            Class::Other => "other",
            Class::Shed => "shed",
        }
    }
}

/// Counters a load run accumulates — the digestible half of the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests that arrived.
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 400 responses.
    pub bad_requests: u64,
    /// 404 responses.
    pub not_found: u64,
    /// 503s from the connection budget.
    pub shed_connections: u64,
    /// 503s from the full queue.
    pub shed_queue: u64,
    /// Memo-cache hits.
    pub cache_hits: u64,
    /// Memo-cache misses.
    pub cache_misses: u64,
    /// Duplicate keys resolved inside a single batch.
    pub batch_dedups: u64,
    /// Batches serviced.
    pub batches: u64,
    /// Largest batch fill seen.
    pub max_batch_fill: usize,
    /// Deepest the service queue got.
    pub max_queue_depth: usize,
    /// Most admitted requests in flight at once.
    pub max_in_flight: usize,
    /// Order-sensitive FNV-1a over `(request id, response bytes)` in
    /// completion order — the replay witness.
    pub stream_digest: u64,
    /// Order-independent sum of per-request digests — comparable across
    /// configurations that reorder completions (e.g. cold vs memoized).
    pub content_digest: u64,
}

impl ServeStats {
    /// Total 503s.
    pub fn shed(&self) -> u64 {
        self.shed_connections + self.shed_queue
    }

    /// A stable one-line rendering of every counter plus both digests,
    /// used for bit-identity comparisons across thread counts, hosts
    /// and process runs.
    pub fn digest(&self) -> String {
        format!(
            "req={} ok={} bad={} nf={} shed_conn={} shed_q={} hits={} misses={} dedup={} \
             batches={} fill={} qdepth={} inflight={} stream={:016x} content={:016x}",
            self.requests,
            self.ok,
            self.bad_requests,
            self.not_found,
            self.shed_connections,
            self.shed_queue,
            self.cache_hits,
            self.cache_misses,
            self.batch_dedups,
            self.batches,
            self.max_batch_fill,
            self.max_queue_depth,
            self.max_in_flight,
            self.stream_digest,
            self.content_digest,
        )
    }
}

/// Deterministic latency summary for one class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Requests finished in this class.
    pub count: u64,
    /// Median latency, microseconds of simulated time.
    pub p50_us: u64,
    /// 99th-percentile latency.
    pub p99_us: u64,
    /// Worst latency.
    pub max_us: u64,
}

impl ClassStats {
    fn from_sorted(mut lat: Vec<u64>) -> ClassStats {
        lat.sort_unstable();
        let pick = |q: f64| -> u64 {
            if lat.is_empty() {
                0
            } else {
                lat[((lat.len() - 1) as f64 * q).round() as usize]
            }
        };
        ClassStats {
            count: lat.len() as u64,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            max_us: lat.last().copied().unwrap_or(0),
        }
    }
}

/// Everything one load replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Counter totals and digests.
    pub stats: ServeStats,
    /// Latency summary per class (`whatif`, `frame`, `other`, `shed`).
    pub whatif: ClassStats,
    /// Frame-lookup latencies.
    pub frame: ClassStats,
    /// Health/400/404 latencies.
    pub other: ClassStats,
    /// Shed (503) latencies.
    pub shed: ClassStats,
    /// Simulated time of the last completion.
    pub makespan: SimDuration,
    /// Completed requests per simulated second.
    pub sim_qps: f64,
    /// Full response bytes per request id, kept only when requested
    /// (tests); `None` in benchmark runs to bound memory.
    pub responses: Option<Vec<Option<Vec<u8>>>>,
}

impl LoadReport {
    /// The stats digest plus per-class percentiles — one comparable line.
    pub fn digest(&self) -> String {
        format!(
            "{} | whatif p50={} p99={} | frame p50={} p99={} | shed n={} | makespan_us={}",
            self.stats.digest(),
            self.whatif.p50_us,
            self.whatif.p99_us,
            self.frame.p50_us,
            self.frame.p99_us,
            self.shed.count,
            self.makespan.as_micros(),
        )
    }
}

/// A parsed-and-routed request, stored at arrival, consumed at service.
#[derive(Debug)]
enum Routed {
    WhatIf(WhatIfRequest),
    Frame {
        timestep: u64,
    },
    Health,
    /// Pre-built 400/404 response.
    Immediate(HttpResponse),
}

/// Parse raw request bytes and route them; bytes that do not parse route
/// to the 400 that says why.
fn route_raw(raw: &[u8]) -> Routed {
    match parse_request(raw) {
        Ok(http) => route(&http),
        Err(e) => Routed::Immediate(HttpResponse::bad_request(e.label())),
    }
}

/// Route a parsed HTTP request onto the query surface.
fn route(req: &HttpRequest) -> Routed {
    match req.path.as_str() {
        "/healthz" => Routed::Health,
        "/whatif" => {
            let spec = match SpecId::parse(req.param("spec").unwrap_or("100yr")) {
                Some(id) => id,
                None => return Routed::Immediate(HttpResponse::bad_request("unknown spec")),
            };
            let kind = match req.param("kind").unwrap_or("insitu") {
                "insitu" => ivis_core::PipelineKind::InSitu,
                "post" => ivis_core::PipelineKind::PostProcessing,
                _ => return Routed::Immediate(HttpResponse::bad_request("unknown kind")),
            };
            let rate: f64 = match req.param("rate_hours").and_then(|v| v.parse().ok()) {
                Some(r) => r,
                None => return Routed::Immediate(HttpResponse::bad_request("bad rate_hours")),
            };
            let points: u16 = match req.param("points").unwrap_or("33").parse() {
                Ok(p) if (1..=512).contains(&p) => p,
                _ => return Routed::Immediate(HttpResponse::bad_request("bad points")),
            };
            match WhatIfRequest::new(spec, kind, rate, points) {
                Some(key) => Routed::WhatIf(key),
                None => Routed::Immediate(HttpResponse::bad_request("unrepresentable rate")),
            }
        }
        "/frame" => match req.param("timestep").and_then(|v| v.parse().ok()) {
            Some(ts) => Routed::Frame { timestep: ts },
            None => Routed::Immediate(HttpResponse::bad_request("bad timestep")),
        },
        _ => Routed::Immediate(HttpResponse::not_found("no such route")),
    }
}

/// Widest possible what-if body header: the keys and punctuation
/// (110 B), the longest labels (5 + 15 B), a rate of at most 1e9 h at
/// `{:.6}` (17 B), a `u64` (20 B), two non-negative finite `{:.9e}`
/// (16 B each) and a percentage below 2^64 in magnitude at `{:.6}`
/// (28 B).
const WHATIF_HEAD_MAX: usize = 110 + 5 + 15 + 17 + 20 + 16 + 16 + 28;

/// Widest possible curve point: `{"hours":` (9 B), hours below 1e10 at
/// `{:.6}` (18 B), `,"energy_joules":` (17 B), a non-negative finite
/// `{:.9e}` (16 B), `,"storage_bytes":` (17 B), a `u64` (20 B), and the
/// closing brace and separating comma (2 B).
const WHATIF_POINT_MAX: usize = 9 + 18 + 17 + 16 + 17 + 20 + 2;

/// Render the JSON body of a what-if answer. Byte-deterministic: fixed
/// field order, fixed float formatting (`{:.6}` and `{:.9e}` bytes,
/// written by `crate::num`). The buffer is reserved once from the
/// widest body the answer can produce, so it never grows.
pub fn render_whatif_body(analyzer: &WhatIfAnalyzer, key: &WhatIfRequest) -> Vec<u8> {
    let ans = analyzer.answer(key);
    let mut out = Vec::with_capacity(WHATIF_HEAD_MAX + ans.curve.len() * WHATIF_POINT_MAX);
    out.extend_from_slice(b"{\"spec\":\"");
    out.extend_from_slice(key.spec.label().as_bytes());
    out.extend_from_slice(b"\",\"kind\":\"");
    out.extend_from_slice(key.kind.label().as_bytes());
    out.extend_from_slice(b"\",\"rate_hours\":");
    push_fixed6(&mut out, key.rate_hours());
    out.extend_from_slice(b",\"storage_bytes\":");
    push_u64(&mut out, ans.storage_bytes);
    out.extend_from_slice(b",\"exec_seconds\":");
    push_sci9(&mut out, ans.exec_seconds);
    out.extend_from_slice(b",\"energy_joules\":");
    push_sci9(&mut out, ans.energy_joules);
    out.extend_from_slice(b",\"saving_pct\":");
    push_fixed6(&mut out, ans.saving_pct);
    out.extend_from_slice(b",\"curve\":[");
    for (i, p) in ans.curve.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"hours\":");
        push_fixed6(&mut out, p.hours);
        out.extend_from_slice(b",\"energy_joules\":");
        push_sci9(&mut out, p.energy_joules);
        out.extend_from_slice(b",\"storage_bytes\":");
        push_u64(&mut out, p.storage_bytes);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
    out
}

/// The reference response bytes for a what-if key — what any 200 from
/// `/whatif` must equal byte-for-byte, memoized or not. Tests use this
/// to prove shedding and caching never corrupt content.
pub fn expected_whatif_response(analyzer: &WhatIfAnalyzer, key: &WhatIfRequest) -> Vec<u8> {
    HttpResponse::ok_json(String::from_utf8(render_whatif_body(analyzer, key)).unwrap()).to_bytes()
}

/// The query service: analyzer constants, the frame database and its
/// sharded index, and the provisioning config. Immutable across runs —
/// every [`Server::run_load`] replay starts from the same state.
pub struct Server {
    config: ServerConfig,
    analyzer: WhatIfAnalyzer,
    db: CinemaDatabase,
    index: ShardedFrameIndex,
}

/// Reactor events.
enum ServeEvent<'a> {
    /// Client `i` (schedule index) arrives.
    Arrival(u32),
    /// The micro-batch window for batch `id` expired.
    BatchDeadline(u64),
    /// A service unit finished; deliver its replies.
    Completion(Vec<Reply<'a>>),
}

/// Where a reply's body bytes live. None of the three is a copy of
/// bytes that already exist elsewhere.
enum Body<'a> {
    /// A what-if body shared with the memo cache and with every other
    /// member of the batch that asked for the same key.
    Shared(Rc<Vec<u8>>),
    /// A PNG borrowed from the Cinema entry the shard lookup returned.
    Frame(&'a [u8]),
    /// Text built for this one reply: 400, 404, 503, `/healthz`.
    Owned(Vec<u8>),
}

impl Body<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Body::Shared(body) => body,
            Body::Frame(png) => png,
            Body::Owned(text) => text,
        }
    }
}

/// One response on its way to a client: the serialized status line and
/// headers, and the body wherever it already lives.
struct Reply<'a> {
    /// Schedule index of the request this answers.
    id: u32,
    status: u16,
    head: Vec<u8>,
    body: Body<'a>,
}

impl<'a> Reply<'a> {
    fn new(
        id: u32,
        status: u16,
        content_type: &str,
        retry_after_s: Option<u32>,
        body: Body<'a>,
    ) -> Self {
        let mut head = Vec::with_capacity(96);
        write_head(
            &mut head,
            status,
            content_type,
            retry_after_s,
            body.bytes().len(),
        );
        Reply {
            id,
            status,
            head,
            body,
        }
    }

    /// A reply that takes over the body `resp` was built with.
    fn owned(id: u32, resp: HttpResponse) -> Self {
        Reply::new(
            id,
            resp.status,
            resp.content_type,
            resp.retry_after_s,
            Body::Owned(resp.body),
        )
    }

    /// Bytes on the wire: what the egress cost is charged for.
    fn wire_len(&self) -> usize {
        self.head.len() + self.body.bytes().len()
    }
}

struct ReqState {
    arrival: SimTime,
    span: SpanId,
    /// Latency class, fixed by the route at arrival (a shed overrides it).
    class: Class,
    /// Taken by the service unit that answers the request.
    routed: Option<Routed>,
}

struct World<'a> {
    cfg: &'a ServerConfig,
    analyzer: &'a WhatIfAnalyzer,
    db: &'a CinemaDatabase,
    index: &'a ShardedFrameIndex,
    schedule: &'a [(SimTime, Vec<u8>)],
    rec: &'a Recorder,
    cache: MemoCache,
    batcher: Batcher,
    queue: VecDeque<Work>,
    free_slots: usize,
    in_flight: usize,
    req: Vec<ReqState>,
    latencies: [Vec<u64>; Class::COUNT],
    stats: ServeStats,
    last_completion: SimTime,
    completed: u64,
    /// `(request id, contiguous response bytes)` in delivery order, when
    /// the caller asked to keep them.
    responses: Option<Vec<(u32, Vec<u8>)>>,
}

enum Work {
    Single(u32),
    Batch(ClosedBatch),
}

impl Server {
    /// Build a server over `db` with `config`.
    pub fn new(config: ServerConfig, analyzer: WhatIfAnalyzer, db: CinemaDatabase) -> Self {
        let index = ShardedFrameIndex::build(&db, config.shards);
        Server {
            config,
            analyzer,
            db,
            index,
        }
    }

    /// The provisioning config.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The backing frame database.
    pub fn db(&self) -> &CinemaDatabase {
        &self.db
    }

    /// The analyzer this server evaluates what-if queries with.
    pub fn analyzer(&self) -> &WhatIfAnalyzer {
        &self.analyzer
    }

    /// Replay `schedule` through the reactor. `recorder` may be
    /// [`Recorder::off`]; `keep_responses` retains every response's
    /// bytes in the report (tests only — memory scales with the
    /// schedule).
    pub fn run_load<'a>(
        &'a self,
        schedule: &'a LoadSchedule,
        recorder: &'a Recorder,
        keep_responses: bool,
    ) -> LoadReport {
        self.replay(schedule, recorder, keep_responses).finish()
    }

    /// Run the reactor to quiescence and hand back everything it
    /// accumulated, not yet summarised.
    fn replay<'a>(
        &'a self,
        schedule: &'a LoadSchedule,
        recorder: &'a Recorder,
        keep_responses: bool,
    ) -> World<'a> {
        let mut engine: DesEngine<ServeEvent<'a>> =
            DesEngine::with_capacity(schedule.arrivals.len().min(1 << 16) + 8);
        let mut world = World {
            cfg: &self.config,
            analyzer: &self.analyzer,
            db: &self.db,
            index: &self.index,
            schedule: &schedule.arrivals,
            rec: recorder,
            cache: MemoCache::new(self.config.cache_capacity),
            batcher: Batcher::new(self.config.max_batch.max(1)),
            queue: VecDeque::new(),
            free_slots: self.config.service_slots.max(1),
            in_flight: 0,
            req: Vec::with_capacity(schedule.arrivals.len()),
            latencies: std::array::from_fn(|_| Vec::new()),
            stats: ServeStats::default(),
            last_completion: SimTime::ZERO,
            completed: 0,
            responses: keep_responses.then(|| Vec::with_capacity(schedule.arrivals.len())),
        };
        for (i, (t, _)) in schedule.arrivals.iter().enumerate() {
            world.req.push(ReqState {
                arrival: *t,
                span: SpanId::NONE,
                class: Class::Other,
                routed: None,
            });
            engine.schedule_at(*t, ServeEvent::Arrival(i as u32));
        }
        engine.run(|eng, at, ev| world.on_event(eng, at, ev));
        debug_assert_eq!(world.in_flight, 0, "every admitted request must finish");
        world
    }
}

impl<'a> World<'a> {
    fn on_event(&mut self, eng: &mut DesEngine<ServeEvent<'a>>, at: SimTime, ev: ServeEvent<'a>) {
        match ev {
            ServeEvent::Arrival(i) => self.on_arrival(eng, at, i),
            ServeEvent::BatchDeadline(id) => {
                // A batch that filled first has already been submitted;
                // its deadline then closes nothing.
                if let Some(batch) = self.batcher.close_deadline(id) {
                    self.submit(eng, at, Work::Batch(batch));
                }
            }
            ServeEvent::Completion(replies) => self.on_completion(eng, at, replies),
        }
    }

    fn on_arrival(&mut self, eng: &mut DesEngine<ServeEvent<'a>>, at: SimTime, i: u32) {
        self.stats.requests += 1;
        self.rec.counter_add(at, "serve.requests", 1.0);
        if self.in_flight >= self.cfg.max_connections {
            self.stats.shed_connections += 1;
            self.shed_response(at, i, ShedReason::Connections);
            return;
        }
        self.in_flight += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.in_flight);
        let span = self.rec.span(at, "request", Component::Serve);
        let routed = route_raw(&self.schedule[i as usize].1);
        // A what-if is only ever answered 200 and a frame 200 or 404, so
        // the route alone decides the class a completion is filed under.
        let class = match routed {
            Routed::WhatIf(_) => Class::WhatIf,
            Routed::Frame { .. } => Class::Frame,
            Routed::Health | Routed::Immediate(_) => Class::Other,
        };
        self.rec
            .set_attr(span, "class", AttrValue::Str(class.label()));
        let state = &mut self.req[i as usize];
        state.span = span;
        state.class = class;
        state.routed = Some(routed);
        match class {
            Class::WhatIf => match self.batcher.add(i) {
                BatchAdd::Opened(id) => {
                    eng.schedule_in(self.cfg.batch_window, ServeEvent::BatchDeadline(id));
                }
                BatchAdd::Joined => {}
                BatchAdd::Full(batch) => self.submit(eng, at, Work::Batch(batch)),
            },
            _ => self.submit(eng, at, Work::Single(i)),
        }
    }

    fn submit(&mut self, eng: &mut DesEngine<ServeEvent<'a>>, at: SimTime, work: Work) {
        if self.free_slots > 0 {
            self.start(eng, at, work);
        } else if self.queue.len() < self.cfg.queue_capacity {
            self.queue.push_back(work);
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
            self.rec
                .gauge_set(at, "serve.queue_depth", self.queue.len() as f64);
            self.rec
                .histogram_record(at, "serve.queue_depth_dist", self.queue.len() as f64);
        } else {
            // Shedding affects only the rejected unit: in-flight batches
            // and queued work are untouched.
            let members: Vec<u32> = match work {
                Work::Single(i) => vec![i],
                Work::Batch(b) => b.members,
            };
            for m in members {
                self.stats.shed_queue += 1;
                self.in_flight -= 1;
                self.shed_response(at, m, ShedReason::QueueFull);
            }
        }
    }

    fn start(&mut self, eng: &mut DesEngine<ServeEvent<'a>>, at: SimTime, work: Work) {
        debug_assert!(self.free_slots > 0);
        self.free_slots -= 1;
        let cost = &self.cfg.cost;
        let mut replies: Vec<Reply<'a>> = Vec::new();
        let mut service_us: u64;
        match work {
            Work::Single(i) => {
                service_us = cost.parse_us;
                let reply = match self.req[i as usize]
                    .routed
                    .take()
                    .expect("routed at arrival")
                {
                    Routed::Frame { timestep } => {
                        service_us += cost.frame_probe_us;
                        match self.index.lookup(self.db, timestep) {
                            Some(entry) => Reply::new(i, 200, PNG, None, Body::Frame(&entry.data)),
                            None => Reply::owned(
                                i,
                                HttpResponse::not_found(&format!("frame {timestep}")),
                            ),
                        }
                    }
                    Routed::Health => {
                        Reply::owned(i, HttpResponse::ok_json("{\"status\":\"ok\"}".to_string()))
                    }
                    Routed::Immediate(resp) => Reply::owned(i, resp),
                    Routed::WhatIf(_) => unreachable!("what-if work is always batched"),
                };
                service_us += cost.body_us(reply.wire_len());
                replies.push(reply);
            }
            Work::Batch(batch) => {
                let fill = batch.members.len();
                self.stats.batches += 1;
                self.stats.max_batch_fill = self.stats.max_batch_fill.max(fill);
                self.rec.counter_add(at, "serve.batches", 1.0);
                service_us = cost.batch_overhead_us + cost.parse_us * fill as u64;
                replies.reserve_exact(fill);
                // One pass in arrival order. The first member to name a
                // key resolves its body, from the cache or by evaluating
                // it; later members share that body (batch-local dedup)
                // and pay the hit cost.
                let mut resolved: HashMap<WhatIfRequest, Rc<Vec<u8>>> =
                    HashMap::with_capacity(fill);
                for &m in &batch.members {
                    let Some(Routed::WhatIf(key)) = self.req[m as usize].routed.take() else {
                        unreachable!("batch members are what-if requests")
                    };
                    let body = if let Some(body) = resolved.get(&key) {
                        self.stats.batch_dedups += 1;
                        service_us += cost.memo_hit_us;
                        Rc::clone(body)
                    } else {
                        let body = match self.cache.get(&key) {
                            Some(body) => {
                                self.stats.cache_hits += 1;
                                self.rec.counter_add(at, "serve.cache_hits", 1.0);
                                service_us += cost.memo_hit_us;
                                body
                            }
                            None => {
                                self.stats.cache_misses += 1;
                                self.rec.counter_add(at, "serve.cache_misses", 1.0);
                                service_us += key.curve_points as u64 * cost.whatif_point_us;
                                let body = Rc::new(render_whatif_body(self.analyzer, &key));
                                self.cache.insert(key, Rc::clone(&body));
                                body
                            }
                        };
                        resolved.insert(key, Rc::clone(&body));
                        body
                    };
                    let reply = Reply::new(m, 200, JSON, None, Body::Shared(body));
                    service_us += cost.body_us(reply.wire_len());
                    replies.push(reply);
                }
            }
        }
        eng.schedule_in(
            SimDuration::from_micros(service_us),
            ServeEvent::Completion(replies),
        );
    }

    fn on_completion(
        &mut self,
        eng: &mut DesEngine<ServeEvent<'a>>,
        at: SimTime,
        replies: Vec<Reply<'a>>,
    ) {
        for reply in &replies {
            match reply.status {
                200 => self.stats.ok += 1,
                400 => self.stats.bad_requests += 1,
                404 => self.stats.not_found += 1,
                _ => {}
            }
            self.in_flight -= 1;
            self.finalize(at, self.req[reply.id as usize].class, reply);
        }
        self.free_slots += 1;
        if let Some(work) = self.queue.pop_front() {
            self.rec
                .gauge_set(at, "serve.queue_depth", self.queue.len() as f64);
            self.start(eng, at, work);
        }
    }

    /// Build and account a 503 immediately (no service slot consumed).
    fn shed_response(&mut self, at: SimTime, i: u32, reason: ShedReason) {
        self.rec.counter_add(at, "serve.shed", 1.0);
        self.rec.event(
            at,
            "shed",
            Component::Serve,
            &[("reason", AttrValue::Str(reason.label()))],
        );
        let resp = HttpResponse::unavailable(reason.label(), self.cfg.retry_after_s);
        self.finalize(at, Class::Shed, &Reply::owned(i, resp));
    }

    /// Deliver one reply: account its latency, close its span, and fold
    /// its bytes — request id, head, body, in that order — into both
    /// digests. This loop is the only place response bytes are read.
    fn finalize(&mut self, at: SimTime, class: Class, reply: &Reply<'_>) {
        let state = &self.req[reply.id as usize];
        let latency_us = at.duration_since(state.arrival).as_micros();
        self.latencies[class.index()].push(latency_us);
        self.rec
            .histogram_record(at, "serve.request_seconds", latency_us as f64 / 1e6);
        self.rec
            .set_attr(state.span, "class_final", AttrValue::Str(class.label()));
        self.rec.close(at, state.span);
        let (head, body) = (reply.head.as_slice(), reply.body.bytes());
        // Two independent FNV-1a chains advanced together: the stream
        // chain continues from every earlier reply, the content chain
        // starts fresh so its per-reply values can be summed in any order.
        let mut stream = self.stats.stream_digest ^ FNV_OFFSET;
        let mut content = FNV_OFFSET;
        for part in [&reply.id.to_le_bytes()[..], head, body] {
            for &b in part {
                stream = (stream ^ b as u64).wrapping_mul(FNV_PRIME);
                content = (content ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        self.stats.stream_digest = stream;
        self.stats.content_digest = self.stats.content_digest.wrapping_add(content);
        if let Some(kept) = &mut self.responses {
            kept.push((reply.id, [head, body].concat()));
        }
        self.last_completion = self.last_completion.max(at);
        self.completed += 1;
    }

    fn finish(self) -> LoadReport {
        let makespan = self.last_completion.duration_since(SimTime::ZERO);
        let secs = makespan.as_secs_f64();
        let sim_qps = if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        };
        let [a, b, c, d] = self.latencies;
        let responses = self.responses.map(|kept| {
            let mut by_id = vec![None; self.req.len()];
            for (id, bytes) in kept {
                by_id[id as usize] = Some(bytes);
            }
            by_id
        });
        LoadReport {
            whatif: ClassStats::from_sorted(a),
            frame: ClassStats::from_sorted(b),
            other: ClassStats::from_sorted(c),
            shed: ClassStats::from_sorted(d),
            stats: self.stats,
            makespan,
            sim_qps,
            responses,
        }
    }
}

/// Convenience: the raw bytes of a canonical what-if GET — the inverse
/// of the `/whatif` route, used by the load generator and tests.
pub fn whatif_target(key: &WhatIfRequest) -> Vec<u8> {
    let kind = match key.kind {
        ivis_core::PipelineKind::InSitu => "insitu",
        ivis_core::PipelineKind::PostProcessing => "post",
    };
    let mut target = b"/whatif?spec=".to_vec();
    target.extend_from_slice(key.spec.label().as_bytes());
    target.extend_from_slice(b"&kind=");
    target.extend_from_slice(kind.as_bytes());
    target.extend_from_slice(b"&rate_hours=");
    push_fixed6(&mut target, key.rate_hours());
    target.extend_from_slice(b"&points=");
    push_u64(&mut target, u64::from(key.curve_points));
    format_get(std::str::from_utf8(&target).expect("the target is ASCII"))
}

/// The raw bytes of a frame GET.
pub fn frame_target(timestep: u64) -> Vec<u8> {
    format_get(&format!("/frame?timestep={timestep}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadSchedule;
    use proptest::prelude::*;

    fn server(cache: usize) -> Server {
        let cfg = ServerConfig {
            cache_capacity: cache,
            ..ServerConfig::default()
        };
        Server::new(
            cfg,
            WhatIfAnalyzer::paper(),
            CinemaDatabase::synthetic("t", 32, 4, 4, 16),
        )
    }

    fn schedule_of(targets: Vec<Vec<u8>>) -> LoadSchedule {
        LoadSchedule {
            arrivals: targets
                .into_iter()
                .enumerate()
                .map(|(i, b)| (SimTime::from_micros(10 * i as u64), b))
                .collect(),
        }
    }

    /// The `core::fmt` body [`render_whatif_body`] replaced, kept as
    /// the reference its writers are held to.
    fn render_whatif_body_reference(analyzer: &WhatIfAnalyzer, key: &WhatIfRequest) -> Vec<u8> {
        use std::fmt::Write as _;
        let ans = analyzer.answer(key);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"spec\":\"{}\",\"kind\":\"{}\",\"rate_hours\":{:.6},\"storage_bytes\":{},\
             \"exec_seconds\":{:.9e},\"energy_joules\":{:.9e},\"saving_pct\":{:.6},\"curve\":[",
            key.spec.label(),
            key.kind.label(),
            key.rate_hours(),
            ans.storage_bytes,
            ans.exec_seconds,
            ans.energy_joules,
            ans.saving_pct,
        );
        for (i, p) in ans.curve.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"hours\":{:.6},\"energy_joules\":{:.9e},\"storage_bytes\":{}}}",
                if i == 0 { "" } else { "," },
                p.hours,
                p.energy_joules,
                p.storage_bytes,
            );
        }
        out.push_str("]}");
        out.into_bytes()
    }

    /// Every spec, kind and curve size at both ends of the rate range
    /// and at the rates the load generators use.
    fn key_grid() -> Vec<WhatIfRequest> {
        let mut keys = Vec::new();
        for spec in [SpecId::Paper60km, SpecId::Paper100yr] {
            for kind in [
                ivis_core::PipelineKind::InSitu,
                ivis_core::PipelineKind::PostProcessing,
            ] {
                for rate in [1e-6, 1.0, 1.75, 24.0, 48.25, 1e9] {
                    for points in [1, 33, 129, 512] {
                        keys.push(WhatIfRequest::new(spec, kind, rate, points).unwrap());
                    }
                }
            }
        }
        keys
    }

    #[test]
    fn whatif_bodies_equal_the_core_fmt_reference_and_never_grow() {
        let analyzer = WhatIfAnalyzer::paper();
        for key in key_grid() {
            let body = render_whatif_body(&analyzer, &key);
            assert_eq!(
                body,
                render_whatif_body_reference(&analyzer, &key),
                "{key:?}"
            );
            let reserved = WHATIF_HEAD_MAX + usize::from(key.curve_points) * WHATIF_POINT_MAX;
            assert_eq!(body.capacity(), reserved, "{key:?} outgrew its buffer");
        }
    }

    #[test]
    fn whatif_responses_match_the_reference_bytes() {
        let srv = server(64);
        let key = WhatIfRequest::new(SpecId::Paper100yr, ivis_core::PipelineKind::InSitu, 24.0, 5)
            .unwrap();
        let sched = schedule_of(vec![whatif_target(&key), whatif_target(&key)]);
        let report = srv.run_load(&sched, &Recorder::off(), true);
        let expected = expected_whatif_response(&srv.analyzer, &key);
        let responses = report.responses.unwrap();
        assert_eq!(responses[0].as_ref().unwrap(), &expected);
        assert_eq!(responses[1].as_ref().unwrap(), &expected);
        // Same batch, same key: one evaluation, one dedup.
        assert_eq!(report.stats.cache_misses, 1);
        assert_eq!(report.stats.batch_dedups, 1);
        assert_eq!(report.stats.ok, 2);
    }

    #[test]
    fn frame_lookups_return_the_stored_png() {
        let srv = server(64);
        let sched = schedule_of(vec![frame_target(16), frame_target(17)]);
        let report = srv.run_load(&sched, &Recorder::off(), true);
        let responses = report.responses.unwrap();
        let ok = responses[0].as_ref().unwrap();
        assert!(ok.starts_with(b"HTTP/1.1 200 OK\r\n"));
        let entry = srv.db().entry_by_timestep(16).unwrap();
        assert!(ok.ends_with(entry.data.as_slice()));
        assert!(responses[1].as_ref().unwrap().starts_with(b"HTTP/1.1 404"));
        assert_eq!(report.stats.not_found, 1);
    }

    #[test]
    fn missing_timestep_gets_typed_404_naming_the_frame() {
        let srv = server(64);
        // Far beyond every stored frame: absent from every shard, so the
        // probe must miss cleanly and the body must say which frame.
        let sched = schedule_of(vec![frame_target(1_000_000)]);
        let report = srv.run_load(&sched, &Recorder::off(), true);
        let responses = report.responses.unwrap();
        let resp = responses[0].as_ref().unwrap();
        assert!(resp.starts_with(b"HTTP/1.1 404"));
        let body = String::from_utf8_lossy(resp);
        assert!(body.contains("not found: frame 1000000"), "{body}");
        assert_eq!(report.stats.not_found, 1);
    }

    #[test]
    fn memoization_shortens_whatif_latency() {
        let key = WhatIfRequest::new(
            SpecId::Paper100yr,
            ivis_core::PipelineKind::PostProcessing,
            12.0,
            129,
        )
        .unwrap();
        // Space requests beyond the batch window so each is its own batch.
        let arrivals: Vec<(SimTime, Vec<u8>)> = (0..20)
            .map(|i| (SimTime::from_micros(i * 5_000), whatif_target(&key)))
            .collect();
        let sched = LoadSchedule { arrivals };
        let cold = server(0).run_load(&sched, &Recorder::off(), false);
        let warm = server(512).run_load(&sched, &Recorder::off(), false);
        assert_eq!(cold.stats.cache_misses, 20);
        assert_eq!(warm.stats.cache_misses, 1);
        assert!(
            warm.whatif.p50_us * 10 <= cold.whatif.p50_us,
            "memo hit ({} us) must be >=10x faster than cold ({} us)",
            warm.whatif.p50_us,
            cold.whatif.p50_us
        );
        // Same bytes either way.
        assert_eq!(cold.stats.content_digest, warm.stats.content_digest);
    }

    #[test]
    fn malformed_and_unknown_requests_get_4xx() {
        let srv = server(8);
        let sched = schedule_of(vec![
            b"BORK\r\n\r\n".to_vec(),
            format_get("/nope"),
            format_get("/whatif?rate_hours=abc"),
            format_get("/healthz"),
        ]);
        let report = srv.run_load(&sched, &Recorder::off(), true);
        let responses = report.responses.unwrap();
        assert!(responses[0].as_ref().unwrap().starts_with(b"HTTP/1.1 400"));
        assert!(responses[1].as_ref().unwrap().starts_with(b"HTTP/1.1 404"));
        assert!(responses[2].as_ref().unwrap().starts_with(b"HTTP/1.1 400"));
        assert!(responses[3].as_ref().unwrap().starts_with(b"HTTP/1.1 200"));
        assert_eq!(report.stats.bad_requests, 2);
    }

    #[test]
    fn connection_budget_sheds_with_typed_503() {
        let cfg = ServerConfig {
            max_connections: 2,
            service_slots: 1,
            ..ServerConfig::default()
        };
        let srv = Server::new(
            cfg,
            WhatIfAnalyzer::paper(),
            CinemaDatabase::synthetic("t", 8, 4, 4, 16),
        );
        // Four frame requests in the same microsecond: slots=1 and
        // max_connections=2 mean at least one must shed.
        let arrivals: Vec<(SimTime, Vec<u8>)> = (0..4)
            .map(|_| (SimTime::from_micros(1), frame_target(16)))
            .collect();
        let report = srv.run_load(&LoadSchedule { arrivals }, &Recorder::off(), true);
        assert!(report.stats.shed_connections > 0);
        let responses = report.responses.unwrap();
        let shed = responses
            .iter()
            .flatten()
            .find(|r| r.starts_with(b"HTTP/1.1 503"))
            .expect("a 503 response exists");
        let text = String::from_utf8(shed.to_vec()).unwrap();
        assert!(text.contains("Retry-After: 1"));
        assert!(text.contains("connection budget exhausted"));
        // Every arrival got exactly one response.
        assert_eq!(responses.iter().flatten().count(), 4);
    }

    #[test]
    fn replay_is_bit_identical() {
        let srv = server(128);
        let mut targets = Vec::new();
        for i in 0..40u64 {
            if i % 3 == 0 {
                targets.push(frame_target(16 * (i % 8)));
            } else {
                let key = WhatIfRequest::new(
                    SpecId::Paper60km,
                    ivis_core::PipelineKind::InSitu,
                    (i % 5 + 1) as f64,
                    9,
                )
                .unwrap();
                targets.push(whatif_target(&key));
            }
        }
        let sched = schedule_of(targets);
        let a = srv.run_load(&sched, &Recorder::off(), false);
        let b = srv.run_load(&sched, &Recorder::off(), false);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn zero_max_batch_behaves_as_one() {
        let key = WhatIfRequest::new(SpecId::Paper100yr, ivis_core::PipelineKind::InSitu, 8.0, 5)
            .unwrap();
        let sched = schedule_of(vec![
            whatif_target(&key),
            frame_target(16),
            whatif_target(&key),
        ]);
        let run = |max_batch| {
            let cfg = ServerConfig {
                max_batch,
                ..ServerConfig::default()
            };
            Server::new(
                cfg,
                WhatIfAnalyzer::paper(),
                CinemaDatabase::synthetic("t", 4, 4, 4, 16),
            )
            .run_load(&sched, &Recorder::off(), true)
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero, one);
        assert_eq!(
            (zero.stats.ok, zero.stats.batches, zero.stats.max_batch_fill),
            (3, 2, 1)
        );
    }

    #[test]
    fn a_batch_that_fills_in_its_window_is_submitted_once() {
        let key = WhatIfRequest::new(SpecId::Paper100yr, ivis_core::PipelineKind::InSitu, 8.0, 5)
            .unwrap();
        // Two what-ifs 10 us apart fill a two-member batch long before its
        // 200 us deadline, which then fires with nothing left to close.
        let sched = schedule_of(vec![whatif_target(&key), whatif_target(&key)]);
        let cfg = ServerConfig {
            max_batch: 2,
            ..ServerConfig::default()
        };
        let srv = Server::new(
            cfg,
            WhatIfAnalyzer::paper(),
            CinemaDatabase::synthetic("t", 4, 4, 4, 16),
        );
        let report = srv.run_load(&sched, &Recorder::off(), true);
        assert!(srv.config().batch_window > SimDuration::from_micros(10));
        assert_eq!((report.stats.batches, report.stats.max_batch_fill), (1, 2));
        let responses = report.responses.as_ref().unwrap();
        assert_eq!(responses.len(), 2);
        for resp in responses {
            assert!(resp.as_ref().unwrap().starts_with(b"HTTP/1.1 200"));
        }
        assert_eq!(report.stats.ok, 2);
        assert_eq!(report, srv.run_load(&sched, &Recorder::off(), true));
    }

    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// The two-walk formulation `finalize` replaced, kept as the
    /// reference its fused loop is held to: each response as one
    /// contiguous buffer, walked once for the stream digest and once
    /// more for the content digest.
    #[derive(Default)]
    struct TwoWalkOracle {
        stream: u64,
        content: u64,
    }

    impl TwoWalkOracle {
        fn deliver(&mut self, id: u32, bytes: &[u8]) {
            let id = id.to_le_bytes();
            self.stream = fnv1a(fnv1a(self.stream ^ FNV_OFFSET, &id), bytes);
            self.content = self
                .content
                .wrapping_add(fnv1a(fnv1a(FNV_OFFSET, &id), bytes));
        }
    }

    /// What `raw` must be answered with unless it is shed, built the
    /// owned way: a whole `HttpResponse` serialised by `to_bytes`.
    fn owned_response(srv: &Server, raw: &[u8]) -> Vec<u8> {
        match route_raw(raw) {
            Routed::WhatIf(key) => expected_whatif_response(&srv.analyzer, &key),
            Routed::Frame { timestep } => match srv.db.entry_by_timestep(timestep) {
                Some(entry) => HttpResponse::ok_png(entry.data.clone()),
                None => HttpResponse::not_found(&format!("frame {timestep}")),
            }
            .to_bytes(),
            Routed::Health => HttpResponse::ok_json("{\"status\":\"ok\"}".to_string()).to_bytes(),
            Routed::Immediate(resp) => resp.to_bytes(),
        }
    }

    /// What a kept replay delivered, in delivery order: request id,
    /// latency in simulated microseconds, response bytes.
    fn deliveries<'w>(world: &'w World<'_>) -> Vec<(u32, u64, &'w [u8])> {
        let mut seen = [0usize; Class::COUNT];
        let kept = world.responses.as_ref().expect("responses were kept");
        kept.iter()
            .map(|(id, bytes)| {
                let class = if bytes.starts_with(b"HTTP/1.1 503") {
                    Class::Shed
                } else {
                    world.req[*id as usize].class
                };
                let nth = &mut seen[class.index()];
                *nth += 1;
                let latency_us = world.latencies[class.index()][*nth - 1];
                (*id, latency_us, bytes.as_slice())
            })
            .collect()
    }

    const MIX_FRAMES: u64 = 12;

    /// A schedule from `(kind, parameter, gap to the previous arrival)`
    /// triples: half what-ifs over 16 keys, then frame hits, frame
    /// misses, malformed lines and health checks. Gaps straddle the
    /// 200 us batch window, so keys repeat inside and across batches.
    fn mix_schedule(asks: &[(u8, u32, u64)]) -> LoadSchedule {
        let mut at = 0;
        let arrivals = asks
            .iter()
            .map(|&(kind, n, gap_us)| {
                at += gap_us;
                let raw = match kind {
                    0..=4 => {
                        let pipeline = if n % 2 == 0 {
                            ivis_core::PipelineKind::InSitu
                        } else {
                            ivis_core::PipelineKind::PostProcessing
                        };
                        let rate = 1.0 + 0.75 * f64::from(n / 2);
                        whatif_target(
                            &WhatIfRequest::new(SpecId::Paper100yr, pipeline, rate, 5).unwrap(),
                        )
                    }
                    5 | 6 => frame_target(16 * (u64::from(n) % MIX_FRAMES)),
                    7 => frame_target(16 * MIX_FRAMES + u64::from(n)),
                    8 => b"BORK this is not http\r\n\r\n".to_vec(),
                    _ => format_get("/healthz"),
                };
                (SimTime::from_micros(at), raw)
            })
            .collect();
        LoadSchedule { arrivals }
    }

    fn mix_server(config: ServerConfig) -> Server {
        Server::new(
            config,
            WhatIfAnalyzer::paper(),
            CinemaDatabase::synthetic("mix", MIX_FRAMES, 6, 6, 16),
        )
    }

    /// The fused digests equal the two-walk oracle's over the kept bytes
    /// in delivery order, and every kept response is byte-equal to the
    /// owned `HttpResponse` serialised whole.
    fn assert_digests_and_bytes_match_the_owned_path(srv: &Server, schedule: &LoadSchedule) {
        let off = Recorder::off();
        let world = srv.replay(schedule, &off, true);
        let delivered = deliveries(&world);
        assert_eq!(delivered.len(), schedule.len(), "one reply per request");
        let sheds = [ShedReason::Connections, ShedReason::QueueFull]
            .map(|r| HttpResponse::unavailable(r.label(), srv.config.retry_after_s).to_bytes());
        let mut shed = [0u64; 2];
        let mut oracle = TwoWalkOracle::default();
        for &(id, _, bytes) in &delivered {
            oracle.deliver(id, bytes);
            if let Some(reason) = sheds.iter().position(|s| s == bytes) {
                shed[reason] += 1;
            } else {
                let owned = owned_response(srv, &schedule.arrivals[id as usize].1);
                assert_eq!(bytes, owned, "request {id}");
            }
        }
        let stats = &world.stats;
        assert_eq!(
            (stats.stream_digest, stats.content_digest),
            (oracle.stream, oracle.content)
        );
        assert_eq!(shed, [stats.shed_connections, stats.shed_queue]);
    }

    /// With every request its own service unit and a slot always free, a
    /// request's latency is a fixed cost plus the time its reply spends
    /// on the wire. At one byte per microsecond against a free wire the
    /// difference is the reply's length — all of it, head included.
    fn assert_egress_is_charged_on_the_whole_reply(schedule: &LoadSchedule, cache_capacity: usize) {
        let run = |response_bytes_per_us| {
            let srv = mix_server(ServerConfig {
                max_batch: 1,
                service_slots: schedule.len(),
                cache_capacity,
                cost: CostModel {
                    response_bytes_per_us,
                    ..CostModel::default()
                },
                ..ServerConfig::default()
            });
            let off = Recorder::off();
            let world = srv.replay(schedule, &off, true);
            let mut by_id = vec![(0, 0); schedule.len()];
            for (id, latency_us, bytes) in deliveries(&world) {
                by_id[id as usize] = (latency_us, bytes.len() as u64);
            }
            by_id
        };
        let (metered, free) = (run(1), run(u64::MAX));
        for (id, (&(slow, len), &(fast, _))) in metered.iter().zip(&free).enumerate() {
            assert_eq!(slow - fast, len, "request {id} was not charged its length");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn reply_path_matches_the_two_walk_oracle_and_the_owned_responses(
            asks in prop::collection::vec((0u8..10, 0u32..16, 0u64..300), 1..400),
            cache in 0usize..3,
            tight in any::<bool>(),
        ) {
            let schedule = mix_schedule(&asks);
            let cache_capacity = [0, 8, 4096][cache];
            let mut config = ServerConfig { cache_capacity, ..ServerConfig::default() };
            if tight {
                (config.service_slots, config.queue_capacity, config.max_connections) = (1, 2, 6);
            }
            assert_digests_and_bytes_match_the_owned_path(&mix_server(config), &schedule);
            assert_egress_is_charged_on_the_whole_reply(&schedule, cache_capacity);
        }
    }
}
