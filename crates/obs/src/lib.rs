//! Observability for the in-situ visualization pipelines.
//!
//! The paper this workspace reproduces is, at heart, an observability
//! study: it instruments a coupled simulation/visualization job with power
//! meters and phase timelines (Fig. 4) and turns the traces into a cost
//! model (Eq. 4–5). This crate gives the reproduction the same
//! introspection pathway:
//!
//! * `recorder` — a **sim-time-aware tracer**: spans open and close on
//!   [`ivis_sim::SimTime`], carry a [`ivis_cluster::JobPhase`]/component
//!   label plus key-value attributes, and nest (campaign → phase →
//!   per-write / per-frame activity). Recording is controlled by a
//!   `Sink`: with `Sink::Off` every hook is a branch on an enum
//!   discriminant and returns without allocating — no `dyn` dispatch, no
//!   external tracing dependencies.
//! * [`metrics`] — a registry of counters and gauges stored as
//!   [`ivis_sim::TimeSeries`] step functions, so time-weighted integrals
//!   and averages are exact rather than sampled.
//! * [`metrics`] also carries **log-bucketed histogram metrics**:
//!   HDR-style quarter-octave buckets with boundaries derived from the
//!   value's bit pattern, so distributions (queue depths, retry
//!   latencies, transport stalls) are deterministic across platforms and
//!   thread counts.
//! * [`telemetry`] — the paper's one-sample-per-minute PDU cadence,
//!   [`paper_cadence`](telemetry::paper_cadence), at which a harvested
//!   [`PowerProfile`] is resampled into the sampled W(t) signal.
//! * [`jsonl`], [`csv`], `gantt`, `exporters` — sinks: a
//!   stable-schema JSONL trace exporter (one record per line), CSV
//!   rows that plug into the bench harness's CSV export, an ASCII
//!   Gantt/timeline renderer (the terminal analogue of the paper's
//!   Fig. 4 power-profile plot), plus Chrome trace-event JSON (open it
//!   at <https://ui.perfetto.dev>) and a Prometheus text-exposition
//!   snapshot of the metrics registry.
//! * `energy` — the **per-phase energy attribution report**: joins a
//!   phase timeline against the compute/storage [`PowerProfile`]s to
//!   report joules by `JobPhase × {compute, storage}`, making the paper's
//!   §VIII busy-wait-I/O observation (and the `IoWaitPolicy::DeepIdle`
//!   ablation) directly inspectable.
//!
//! [`PowerProfile`]: ivis_power::profile::PowerProfile

pub mod csv;
pub(crate) mod energy;
#[cfg(test)]
mod export_oracle;
pub(crate) mod exporters;
pub(crate) mod gantt;
pub mod jsonl;
pub mod metrics;
pub(crate) mod recorder;
pub mod telemetry;

pub use energy::{attribute, EnergyAttribution};
pub use exporters::{to_chrome_trace, to_prometheus};
pub use gantt::{render_fig4, render_timeline};
pub use jsonl::to_jsonl;
pub use recorder::{AttrValue, Component, Recorder, SpanId, TraceBuffer};
