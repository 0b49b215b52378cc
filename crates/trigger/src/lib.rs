//! Adaptive multi-viewpoint visualization triggers.
//!
//! The source paper treats the visualization rate as a fixed input to
//! its Eq. 6/7 storage and rendering scalings. This crate makes the
//! rate a *dynamic output*: following the vizlab-kobe InSituVis design
//! (Kageyama & Yamada, arXiv:1301.4546), each analysis step renders a
//! grid of candidate viewpoints ([`ViewpointGrid::spherical`]), scores
//! every frame by Shannon image entropy (`image_entropy_bits`) and by
//! the Okubo-Weiss census mass visible in its window, keeps the
//! max-entropy camera, and adapts the sampling interval between
//! configured bounds with a hysteresis loop on census activity
//! ([`AdaptiveTrigger`]).
//!
//! Every decision is a pure function of field state — never wall clock,
//! never which thread analyzed a frame — so adaptive campaigns replay
//! bit-identically at any native frame-loop depth.

pub(crate) mod entropy;
pub(crate) mod trigger;
pub(crate) mod viewpoint;

pub use trigger::{
    score_viewpoints, select_best, AdaptiveTrigger, TriggerConfig, TriggerDecision, ViewpointScore,
};
pub use viewpoint::{extract_window, ViewpointGrid};
