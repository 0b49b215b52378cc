//! # ivis-sim — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation (DES) substrate used by
//! the cluster, storage and pipeline models of the `insitu-vis` workspace.
//!
//! The engine is deliberately minimal but complete:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time.
//! * [`DesEngine`] — the event engine: events are plain values in a
//!   private slab arena, ordered by one `BinaryHeap` of `(time, seq,
//!   handle)` keys, with O(1) lazy cancellation via [`EventHandle`]s.
//!   Determinism is guaranteed by a monotonically increasing sequence
//!   number that breaks timestamp ties in insertion order. (A
//!   `BinaryHeap`-of-closures calendar survives as a test-only model
//!   queue the engine is property-tested against.)
//! * [`resource`] — analytic queueing servers: a processor-sharing
//!   [`resource::FairShareServer`] (models bandwidth-shared storage servers)
//!   and a FIFO [`resource::FcfsServer`] (models metadata servers).
//! * [`rng`] — the workspace's one deterministic PRNG, small and
//!   dependency-free (SplitMix64-seeded xoshiro256++) with uniform and
//!   normal samplers, so simulated measurements, eddy seeds and load
//!   schedules are reproducible across runs and platforms.
//! * [`stats`] — the workspace's one percentile.
//! * [`trace`] — time-series recording with step-function integration and
//!   fixed-interval resampling (this is what the simulated power meters use).
//!
//! The engine contains no I/O and no global state; every simulation is a
//! value.

mod arena;
pub mod engine;
#[cfg(test)]
mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use arena::EventHandle;
pub use engine::DesEngine;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::TimeSeries;
