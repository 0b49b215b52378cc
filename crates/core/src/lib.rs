//! # ivis-core — the paper's pipeline layer
//!
//! This crate is the primary contribution of the reproduced paper: coupled
//! simulation + visualization pipelines, instrumented for performance,
//! power, energy and storage, in both flavors the paper compares:
//!
//! * **Post-processing** (Fig. 1a): the simulation writes raw data every
//!   sample through a PIO-style collective writer; after the run, the data
//!   is read back and rendered.
//! * **In-situ** (Fig. 1b): a Catalyst-style adaptor copies simulation
//!   structures to visualization structures at every sample; images are
//!   rendered in place and only the (tiny) image database hits storage.
//!
//! Two execution backends share the same pipeline semantics:
//!
//! * [`campaign`] — the *measured-cluster* backend: runs a pipeline against
//!   the simulated 150-node *Caddy* machine ([`ivis_cluster`]) and its
//!   Lustre rack ([`ivis_storage`]), with per-minute power meters attached,
//!   and returns the full [`metrics::PipelineMetrics`] the paper reports.
//!   One [`Plan`] in, one [`Run`](campaign::Run) out:
//!   [`Campaign::execute`] is the entry point, and each pipeline family — in-situ, post-hoc (with or without
//!   a burst-buffer tier), in-transit ([`intransit`], `transport`) — has
//!   exactly one executor, an event chain in `des`.
//! * [`native`] — the *laptop* backend: actually time-steps the ocean,
//!   renders PNGs, encodes ncdf files and tracks eddies, measuring real
//!   wall-clock time. One [`NativePlan`](native::NativePlan) in, one
//!   [`NativeRun`](native::NativeRun) out: [`native::execute`] is the
//!   entry point, and every run goes through
//!   one native frame loop with four commit policies — store or shed a
//!   frame (in-situ, clean or faulted), the trigger (`adaptive`), store
//!   or shed a raw dump (post-processing's first pass), and keep every
//!   decoded dump as a frame (its second).
//!
//! Shared pieces: [`adaptor`] (the Catalyst analogue), `config`
//! (pipeline kind, sampling rate, cost constants).
//!
//! A third concern cuts across both backends: `resilience` runs the same
//! executors under an [`ivis_fault::FaultPlan`] (a plan's `faults`) with
//! retry/timeout/degradation machinery, so the [`Run`](campaign::Run)
//! degrades gracefully instead of panicking; a clean run is the same code under an empty plan.
//!
//! Every campaign executor also feeds one observability hook: `telemetry`
//! resamples a finished run's harvested power profiles into sampled W(t)
//! [`ivis_power::profile::PowerProfile`]s at a configurable cadence — the
//! paper's per-minute PDU view.

pub(crate) mod adaptive;
pub mod adaptor;
pub mod campaign;
pub(crate) mod config;
pub(crate) mod des;
pub mod intransit;
pub mod metrics;
pub mod native;
pub(crate) mod resilience;
pub(crate) mod telemetry;
pub(crate) mod transport;

/// The root suites' golden files and their one-line renderings, mounted
/// here so the unit tests hold the native frame loop to the same keys.
#[cfg(test)]
#[path = "../../../tests/common/golden.rs"]
mod golden;

pub use campaign::{Campaign, Plan};
pub use config::{PipelineConfig, PipelineKind};
pub use metrics::PipelineMetrics;
pub use resilience::PipelineError;
pub use telemetry::RunTelemetry;
pub use transport::{per_node_payload, CompressionConfig, TransportConfig, TransportStats};
