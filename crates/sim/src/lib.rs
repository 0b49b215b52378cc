//! # ivis-sim — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation (DES) substrate used by
//! the cluster, storage and pipeline models of the `insitu-vis` workspace.
//!
//! The engine is deliberately minimal but complete:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time.
//! * [`DesEngine`] — the event engine: one `BinaryHeap` of `(time, seq,
//!   event)` entries, where events are plain values and every scheduled
//!   event fires (there is no cancellation). Determinism is guaranteed
//!   by a monotonically increasing sequence number that breaks timestamp
//!   ties in insertion order. (A `BinaryHeap`-of-closures calendar
//!   survives as a test-only model queue the engine is property-tested
//!   against.)
//! * [`resource`] — analytic queueing servers: a processor-sharing
//!   [`resource::FairShareServer`] (models bandwidth-shared storage servers;
//!   it answers only "when is everything queued done", but keeps each job's
//!   remaining work because per-job completions land on whole microseconds
//!   and those rounded steps are in the pinned digests) and a FIFO
//!   [`resource::FcfsServer`] (models metadata servers).
//! * `rng` — the workspace's one deterministic PRNG, small and
//!   dependency-free (SplitMix64-seeded xoshiro256++) with uniform and
//!   normal samplers, so simulated measurements, eddy seeds and load
//!   schedules are reproducible across runs and platforms.
//! * [`stats`] — the workspace's one percentile.
//! * `trace` — time-series recording with step-function integration and
//!   fixed-interval resampling (this is what the simulated power meters use).
//!
//! The engine contains no I/O and no global state; every simulation is a
//! value.

pub(crate) mod engine;
#[cfg(test)]
mod event;
pub mod resource;
pub(crate) mod rng;
pub mod stats;
pub(crate) mod time;
pub(crate) mod trace;

pub use engine::DesEngine;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::TimeSeries;
