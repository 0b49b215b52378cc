//! # ivis-ocean — the ocean simulation proxy for MPAS-O
//!
//! The paper couples the ocean component of MPAS (MPAS-O, a 60 km global
//! ocean run) to its visualization pipelines; the visualization task is to
//! identify and track **eddies** via the **Okubo-Weiss** field. We cannot
//! run MPAS-O itself, so this crate provides a real, laptop-scale ocean
//! model with the same relevant physics — a rotating shallow-water solver on
//! an Arakawa C grid that spins up genuine eddies — plus the bookkeeping
//! needed to reason about the paper-scale problem:
//!
//! * `field` — dense 2-D fields and their reductions.
//! * [`grid`] — the staggered C grid: spacing, periodicity, Coriolis
//!   (β-plane).
//! * [`shallow_water`] — the solver: forward–backward time stepping of the
//!   rotating shallow-water equations with bottom drag and wind forcing,
//!   mass-conserving by construction, allocation-free row-slice kernels.
//! * [`vortex`] — seeding of geostrophically balanced Gaussian eddies.
//! * [`mod@okubo_weiss`] — the W = s_n² + s_s² − ω² diagnostic the paper
//!   visualizes (negative W = rotation-dominated = eddy core).
//! * `problem` — the paper's problem specification (60 km grid, 30-minute
//!   steps, six simulated months, sampling every 8/24/72 simulated hours)
//!   and its derived counts (timesteps, outputs, raw bytes per output).
//! * [`cost`] — the per-step wall-clock cost model of the 60 km problem on
//!   the 150-node *Caddy* cluster, calibrated to the paper's measured
//!   t_sim = 603 s for 8640 steps.

pub mod cost;
pub(crate) mod field;
pub mod grid;
pub mod okubo_weiss;
pub(crate) mod problem;
pub mod shallow_water;
pub mod vortex;

pub use field::Field2D;
pub use grid::Grid;
pub use problem::{ProblemSpec, SamplingRate};
pub use shallow_water::{ShallowWaterModel, SwParams};
