//! # ivis-power — power & energy modeling and metering
//!
//! This crate provides the power side of the paper's measurement apparatus:
//!
//! * [`units`] — `Watts` / `Joules` newtypes with dimensional arithmetic
//!   (`P × Δt = E`).
//! * `component` — per-component power models (CPU with a
//!   utilization→power curve, DRAM, NIC, PSU overhead) composable into
//!   a node model.
//! * [`node`] — node-level power models, including the calibrated *Caddy*
//!   compute node (150 nodes ⇒ 15 kW idle, 44 kW at full load, the paper's
//!   published endpoints) and its per-component split of that wall power.
//! * [`meter`] — simulated metered PDUs: they observe a continuous power
//!   signal and report **one averaged sample per minute**, exactly like the
//!   Raritan rack meter and the Appro cage monitors in the paper.
//! * [`profile`] — power profiles (the paper's Fig. 4): energy integration,
//!   time-weighted average power, peaks, resampling at another meter
//!   cadence and time-weighted percentiles.
//! * [`proportionality`] — power-proportionality metrics: dynamic range,
//!   the idle/full-load ratios the paper reports (storage: +1.3 %,
//!   compute: +193 %).

pub(crate) mod component;
pub mod cost;
pub mod meter;
pub mod node;
pub mod profile;
pub mod proportionality;
pub mod units;
