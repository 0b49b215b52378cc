//! # ivis-model — the paper's performance/energy/storage model
//!
//! Section VI of the paper builds an application-aware, architecture-
//! specific model:
//!
//! ```text
//! E = P · t                                        (Eq. 1)
//! t = t_sim + t_i/o + t_viz                        (Eq. 2)
//! t = t_sim + α·S_io + β·N_viz                     (Eq. 3)
//! t = (iter_any/iter_ref)·t_sim.ref + α·S + β·N    (Eq. 4)
//! S_any = S_ref · rate_any / rate_ref              (Eq. 6)
//! N_any = N_ref · rate_any / rate_ref              (Eq. 7)
//! ```
//!
//! α and β come from a 3×3 linear solve over three measured configurations
//! (Eq. 5) or a least-squares fit over more. Section VII then uses the model
//! for what-if analysis: storage vs sampling rate (Fig. 9) and energy vs
//! sampling rate (Fig. 10) for a 100-simulated-year run.
//!
//! * `adaptive` — Eq. 6/7 fed by the *measured* effective rate of an
//!   adaptive-trigger campaign, plus the candidate sweep's render cost.
//! * `linalg` — the small dense solver (Gaussian elimination, least
//!   squares via normal equations).
//! * [`perf`] — Eq. 1–4 as a [`perf::PerfModel`].
//! * [`calibrate`] — exact and least-squares calibration from measured runs.
//! * [`scaling`] — Eq. 6/7 rate scaling.
//! * `staging` — the in-transit transport's provisioning sweep (staging
//!   nodes × queue depth × compression ratio), measured and predicted.
//! * [`validate`] — model-vs-measurement error reporting (Fig. 8).
//! * `whatif` — the §VII scenario engine (Figs. 9 & 10, budget solvers).
//! * [`sensitivity`] and [`uncertainty`] — elasticities of the calibrated
//!   model and parametric-bootstrap intervals on its constants.
//! * [`tradeoff`] — the cheapest pipeline and rate under storage, time
//!   and energy limits.
//! * `query` — canonical, memoizable what-if keys and the pure
//!   evaluator behind the `ivis-serve` query service.

pub(crate) mod adaptive;
pub mod calibrate;
pub(crate) mod linalg;
pub mod perf;
pub(crate) mod query;
pub mod scaling;
pub mod sensitivity;
pub(crate) mod staging;
pub mod tradeoff;
pub mod uncertainty;
pub mod validate;
pub(crate) mod whatif;

pub use adaptive::{AdaptivePlan, MeasuredRate};
pub use query::{SpecId, WhatIfRequest};
pub use staging::StagingSweep;
pub use whatif::WhatIfAnalyzer;
