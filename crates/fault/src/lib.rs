//! # ivis-fault — deterministic fault injection & graceful degradation
//!
//! The paper's storage story (a power-disproportional Lustre rack behind a
//! 193 %-dynamic-range compute cluster) only matters in practice because
//! real parallel filesystems degrade: OSTs brown out, MDS queues saturate,
//! RPCs drop, neighbors fill the rack, nodes straggle. This crate makes
//! those perturbations *first-class and reproducible* so the what-if
//! machinery can answer "what does a degraded storage rack cost in time
//! and energy?":
//!
//! * `plan` — a [`FaultPlan`]: scheduled faults with sim-time windows,
//!   seeded via `ivis-sim`'s deterministic RNG. The same plan replays
//!   bit-identically at any host thread count.
//! * `session` — a [`FaultSession`]: the live per-run state that maps
//!   active plan windows onto the storage hooks
//!   (`ParallelFileSystem::set_oss_bandwidth_scale` & friends), rolls
//!   transient-failure dice, and accumulates [`report::FaultStats`].
//! * `retry` — a [`RetryPolicy`]: bounded exponential backoff with
//!   deterministic jitter plus a per-operation latency SLO.
//! * `degrade` — a [`DegradationPolicy`]: under sustained pressure the
//!   pipeline sheds outputs (drops to a lower visualization rate /
//!   skips raw dumps), mirroring the paper's Eq. 6/7 rate scaling —
//!   level *L* keeps every 2^L-th output.
//! * `report` — the [`report::FaultStats`] counters every degraded run
//!   reports alongside its pipeline metrics.
//!
//! The crate is engine-agnostic: it owns policies and state machines, the
//! pipeline executors in `ivis-core` own the control flow. With an empty
//! plan every hook is a no-op and no RNG is ever drawn, so a fault-aware
//! run is bit-identical to a fault-naive one.

pub(crate) mod degrade;
pub(crate) mod plan;
pub(crate) mod report;
pub(crate) mod retry;
pub(crate) mod session;

pub use degrade::DegradationPolicy;
pub use plan::{FaultKind, FaultPlan, FaultWindow};
pub use report::FaultStats;
pub use retry::RetryPolicy;
pub use session::{FaultScenario, FaultSession, StorageState};
