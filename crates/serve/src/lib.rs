//! `ivis-serve` — a deterministic query service over the campaign's
//! modeling and visualization layers.
//!
//! The paper's in-situ pipeline leaves two queryable artifacts behind:
//! the calibrated power/energy model (Eq. 4/6/7 what-if evaluations via
//! [`ivis_model::WhatIfAnalyzer`]) and the Cinema image database
//! ([`ivis_viz::CinemaDatabase`]). This crate puts a service in front of
//! both — an analyst-facing HTTP surface with the production concerns a
//! real deployment needs: request micro-batching, memoization of pure
//! evaluations, sharded index lookups, bounded queues with typed-503
//! backpressure, and full `ivis-obs` telemetry.
//!
//! There is no socket. The server is an event-driven reactor on the
//! workspace's discrete-event engine ([`ivis_sim::DesEngine`]): client
//! arrivals, batch deadlines and service completions are simulated
//! events, while parsing, evaluation, lookup and serialization are real
//! computation over real bytes. Service durations come from an integer
//! `CostModel`, so every latency percentile, counter and response
//! digest is a pure function of the schedule and configuration —
//! bit-identical across hosts and runs. That is
//! what lets CI gate on the numbers.
//!
//! Layout:
//!
//! * `http` — minimal deterministic HTTP/1.1 parse/serialize;
//! * `cache` — bounded FIFO memoization of what-if bodies;
//! * `shard` — sharded timestep index over the Cinema database;
//! * `batch` — the micro-batch accumulator;
//! * `load` — seeded load-schedule generation;
//! * `num` — byte-exact `{:.6}` / `{:.9e}` / `{}` writers for bodies;
//! * `server` — the reactor, [`Server::run_load`] and [`LoadReport`].

pub(crate) mod batch;
pub(crate) mod cache;
pub(crate) mod http;
pub(crate) mod load;
mod num;
pub(crate) mod server;
pub(crate) mod shard;

pub use cache::MemoCache;
pub use http::{format_get, parse_request, HttpRequest, HttpResponse};
pub use load::{LoadMix, LoadSchedule};
pub use server::{
    expected_whatif_response, frame_target, render_whatif_body, whatif_target, LoadReport,
    ServeStats, Server, ServerConfig,
};
pub use shard::ShardedFrameIndex;
