//! # ivis-eddy — eddy identification and tracking
//!
//! The paper's visualization task (from Woodring et al.): identify ocean
//! eddies as connected regions where the Okubo-Weiss field falls below
//! `−0.2 σ_W`, then track them across timesteps. This crate implements that
//! pipeline:
//!
//! * [`segment`] — thresholding and connected-component labeling
//!   (union-find, periodic in x).
//! * [`features`] — per-eddy features: centroid (periodic-aware), area,
//!   equivalent radius, W minimum.
//! * [`tracking`] — greedy nearest-centroid frame-to-frame association with
//!   a gating radius; yields tracks with lifetimes.
//! * [`census`] — population statistics over frames and tracks.

pub mod census;
pub mod features;
pub mod metrics;
pub mod segment;
pub mod tracking;
