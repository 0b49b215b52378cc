//! The one layered benchmark of insitu-vis.
//!
//! Seven workloads over the four paths a user can run (a paper-matrix
//! campaign, a 10k-node what-if, the native frame chain, a serve
//! replay), each measured twice: a timed pass with tracing off gives the
//! end-to-end metrics and their regression bounds; a traced pass
//! re-drives each layer's public functions from outside, under the
//! benchmark's own spans, and gives the per-layer metrics. See
//! `README.md` for the glossary and for how to read a trace file.

pub mod aa;
pub mod calibrate;
pub mod catalog;
pub mod cli;
pub mod harness;
pub mod host;
pub mod json;
pub mod stats;
pub mod trace;
pub mod workloads;
