//! # ivis-cluster — machine model of the *Caddy* compute cluster
//!
//! The paper's experiments ran on *Caddy*: 150 nodes (2 × 8-core Intel
//! E5-2670, 64 GB DRAM each) grouped into 15 ten-node **cages**, each cage
//! monitored by an Appro power meter, interconnected by QLogic InfiniBand
//! QDR. This crate models that machine:
//!
//! * [`topology`] — nodes, cages, cores; the `caddy()` preset.
//! * `phase` — the workload phases a coupled simulation+visualization job
//!   moves through (simulate, write, render, read, I/O-wait) and their
//!   component-utilization signatures, including the **busy-wait vs deep-idle
//!   I/O policy** that decides whether power stays flat (the paper's
//!   observation) or drops (the paper's §VIII hypothetical).
//! * [`interconnect`] — an InfiniBand QDR cost model (bandwidth/latency)
//!   and the FIFO shared link the in-transit hand-off contends on.
//! * `machine` — the instrumented machine: applies phase loads to nodes,
//!   drives the per-cage meters, and produces cluster-level power profiles.
//! * `straggler` — per-node slowdown tracking for fault injection: under
//!   bulk-synchronous execution the slowest node gates every step.

pub mod interconnect;
pub(crate) mod machine;
pub(crate) mod phase;
pub(crate) mod straggler;
pub mod topology;

pub use interconnect::SharedLink;
pub use machine::Machine;
pub use phase::{IoWaitPolicy, JobPhase, PhaseRecord, PhaseTimeline};
pub use straggler::StragglerSet;
pub use topology::{ClusterTopology, NodeId};
