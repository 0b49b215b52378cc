//! Sim-time-aware span/event tracer.
//!
//! A [`Recorder`] is the handle instrumented code holds. It wraps a
//! [`Sink`]; with [`Sink::Off`] (the default) every recording method is a
//! single match on the enum discriminant followed by an immediate return —
//! no allocation, no `dyn` dispatch, no locking. With [`Sink::Memory`] the
//! events land in a shared [`TraceBuffer`] that the caller can drain into
//! JSONL/CSV/ASCII sinks or feed to the energy attributor after the run.
//!
//! Spans open and close on [`SimTime`] (not wall clock), so traces from
//! the discrete-event backend line up exactly with the campaign's power
//! meters; the native backend maps its wall-clock measurements onto
//! `SimTime` before recording.

use std::cell::RefCell;
use std::rc::Rc;

use ivis_cluster::{JobPhase, PhaseRecord, PhaseTimeline};
use ivis_sim::SimTime;

use crate::metrics::MetricsRegistry;

/// Which layer of the pipeline emitted a span or event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Campaign-level orchestration (the root span).
    Campaign,
    /// Compute cluster activity (simulate/visualize phases).
    Compute,
    /// Parallel file system / storage rack activity.
    Storage,
    /// Visualization-specific activity.
    Viz,
    /// The native (real computation) backend.
    Native,
    /// Fault injection, retries, and degradation decisions.
    Fault,
    /// The compute→staging transport (queue, link, compression).
    Transport,
    /// The post-hoc query service (requests, batches, cache, shedding).
    Serve,
}

impl Component {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Component::Campaign => "campaign",
            Component::Compute => "compute",
            Component::Storage => "storage",
            Component::Viz => "viz",
            Component::Native => "native",
            Component::Fault => "fault",
            Component::Transport => "transport",
            Component::Serve => "serve",
        }
    }
}

/// Attribute value attached to a span or event.
///
/// String attributes are `&'static str` so recording never allocates for
/// the key *or* the value; dynamic strings belong in metrics or in the
/// exporter layer, not the hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute (counts, byte sizes, indices).
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Floating-point attribute (watts, seconds, ratios).
    F64(f64),
    /// Static string attribute (labels, policy names).
    Str(&'static str),
}

/// Identifier of a span within one [`TraceBuffer`].
///
/// `SpanId::NONE` is both "no parent" and the id handed out while the
/// sink is off, so instrumented code can thread ids around without
/// checking whether tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

impl SpanId {
    /// Sentinel: no span. Returned by every open call when the sink is
    /// off; ignored by every close call.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id is the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// A closed or still-open interval of sim time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static name, e.g. `"simulate"` or `"pfs_write"`.
    pub name: &'static str,
    /// Emitting layer.
    pub component: Component,
    /// Job phase this span represents, if it is a phase span.
    pub phase: Option<JobPhase>,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Open time.
    pub start: SimTime,
    /// Close time; `None` while the span is open.
    pub end: Option<SimTime>,
    /// Key-value attributes set at open time or via `set_attr`.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// An instantaneous occurrence at a point in sim time.
#[derive(Debug, Clone)]
pub struct Event {
    /// Static name, e.g. `"output_written"`.
    pub name: &'static str,
    /// Emitting layer.
    pub component: Component,
    /// Span open at record time, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// Occurrence time.
    pub at: SimTime,
    /// Key-value attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// In-memory trace storage: spans, events and the metrics registry.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    spans: Vec<Span>,
    events: Vec<Event>,
    stack: Vec<SpanId>,
    /// Counters and gauges recorded alongside the trace.
    pub metrics: MetricsRegistry,
}

impl TraceBuffer {
    /// Open a span at `t`, parented to the innermost open span.
    pub(crate) fn open_span(
        &mut self,
        t: SimTime,
        name: &'static str,
        component: Component,
        phase: Option<JobPhase>,
    ) -> SpanId {
        let parent = self.stack.last().copied().unwrap_or(SpanId::NONE);
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            component,
            phase,
            parent,
            start: t,
            end: None,
            attrs: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` at `t`. Panics on double close or `t` before open.
    pub(crate) fn close_span(&mut self, t: SimTime, id: SpanId) {
        let span = &mut self.spans[id.0 as usize];
        assert!(span.end.is_none(), "span '{}' closed twice", span.name);
        assert!(
            t >= span.start,
            "span '{}' closed at {:?} before its open {:?}",
            span.name,
            t,
            span.start
        );
        span.end = Some(t);
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.remove(pos);
        }
    }

    /// Append an attribute to span `id`.
    pub(crate) fn set_attr(&mut self, id: SpanId, key: &'static str, value: AttrValue) {
        self.spans[id.0 as usize].attrs.push((key, value));
    }

    /// Record an instantaneous event at `t` under the innermost open span.
    pub(crate) fn record_event(
        &mut self,
        t: SimTime,
        name: &'static str,
        component: Component,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let parent = self.stack.last().copied().unwrap_or(SpanId::NONE);
        self.events.push(Event {
            name,
            component,
            parent,
            at: t,
            attrs: attrs.to_vec(),
        });
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All events, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Rebuild a [`PhaseTimeline`] from the closed phase spans.
    ///
    /// Phase spans are emitted in chronological, non-overlapping order by
    /// both backends, which is exactly the invariant `PhaseTimeline::push`
    /// enforces.
    pub fn phase_timeline(&self) -> PhaseTimeline {
        let mut tl = PhaseTimeline::new();
        for span in &self.spans {
            if let (Some(phase), Some(end)) = (span.phase, span.end) {
                tl.push(PhaseRecord {
                    phase,
                    start: span.start,
                    end,
                });
            }
        }
        tl
    }
}

/// Where trace data goes. Static dispatch: instrumented code matches on
/// the variant inline, so the off case compiles to a predictable branch.
#[derive(Debug, Clone, Default)]
pub(crate) enum Sink {
    /// Discard everything. All recording methods return immediately
    /// without allocating.
    #[default]
    Off,
    /// Append to a shared in-memory [`TraceBuffer`].
    Memory(Rc<RefCell<TraceBuffer>>),
}

/// Handle held by instrumented code. Cloning shares the underlying
/// buffer, so a caller can keep one clone and hand another to the
/// pipeline via its config.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    sink: Sink,
}

impl Recorder {
    /// A recorder that discards everything (the default).
    pub fn off() -> Self {
        Recorder { sink: Sink::Off }
    }

    /// A recorder writing to a fresh in-memory buffer.
    pub fn in_memory() -> Self {
        Recorder {
            sink: Sink::Memory(Rc::new(RefCell::new(TraceBuffer::default()))),
        }
    }

    /// Whether recording is enabled.
    pub fn is_on(&self) -> bool {
        !matches!(self.sink, Sink::Off)
    }

    /// Open a plain (non-phase) span.
    pub fn span(&self, t: SimTime, name: &'static str, component: Component) -> SpanId {
        match &self.sink {
            Sink::Off => SpanId::NONE,
            Sink::Memory(buf) => buf.borrow_mut().open_span(t, name, component, None),
        }
    }

    /// Open a span representing a [`JobPhase`]; its name is the phase label.
    pub fn phase_span(&self, t: SimTime, phase: JobPhase, component: Component) -> SpanId {
        match &self.sink {
            Sink::Off => SpanId::NONE,
            Sink::Memory(buf) => {
                buf.borrow_mut()
                    .open_span(t, phase.label(), component, Some(phase))
            }
        }
    }

    /// Close `id` at `t`. No-op when the sink is off or `id` is
    /// [`SpanId::NONE`].
    pub fn close(&self, t: SimTime, id: SpanId) {
        match &self.sink {
            Sink::Off => {}
            Sink::Memory(buf) => {
                if !id.is_none() {
                    buf.borrow_mut().close_span(t, id);
                }
            }
        }
    }

    /// Attach an attribute to an open or closed span.
    pub fn set_attr(&self, id: SpanId, key: &'static str, value: AttrValue) {
        match &self.sink {
            Sink::Off => {}
            Sink::Memory(buf) => {
                if !id.is_none() {
                    buf.borrow_mut().set_attr(id, key, value);
                }
            }
        }
    }

    /// Record an instantaneous event.
    pub fn event(
        &self,
        t: SimTime,
        name: &'static str,
        component: Component,
        attrs: &[(&'static str, AttrValue)],
    ) {
        match &self.sink {
            Sink::Off => {}
            Sink::Memory(buf) => buf.borrow_mut().record_event(t, name, component, attrs),
        }
    }

    /// Add `delta` to the named counter at `t`.
    pub fn counter_add(&self, t: SimTime, name: &'static str, delta: f64) {
        match &self.sink {
            Sink::Off => {}
            Sink::Memory(buf) => buf.borrow_mut().metrics.counter_add(t, name, delta),
        }
    }

    /// Set the named gauge to `value` at `t`.
    pub fn gauge_set(&self, t: SimTime, name: &'static str, value: f64) {
        match &self.sink {
            Sink::Off => {}
            Sink::Memory(buf) => buf.borrow_mut().metrics.gauge_set(t, name, value),
        }
    }

    /// Record one observation of `value` in the named histogram at `t`.
    pub fn histogram_record(&self, t: SimTime, name: &'static str, value: f64) {
        match &self.sink {
            Sink::Off => {}
            Sink::Memory(buf) => buf.borrow_mut().metrics.histogram_record(t, name, value),
        }
    }

    /// Run `f` against the buffer, if recording. Panics if the buffer is
    /// already mutably borrowed (i.e. called from inside a recording hook).
    pub fn with_buffer<R>(&self, f: impl FnOnce(&TraceBuffer) -> R) -> Option<R> {
        match &self.sink {
            Sink::Off => None,
            Sink::Memory(buf) => Some(f(&buf.borrow())),
        }
    }

    /// Take sole ownership of the buffer once the run is over. Returns
    /// `None` when the sink is off or other clones of this recorder are
    /// still alive.
    pub fn into_buffer(self) -> Option<TraceBuffer> {
        match self.sink {
            Sink::Off => None,
            Sink::Memory(buf) => Rc::try_unwrap(buf).ok().map(RefCell::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn off_sink_returns_sentinels_and_records_nothing() {
        let rec = Recorder::off();
        assert!(!rec.is_on());
        let id = rec.span(t(0.0), "root", Component::Campaign);
        assert!(id.is_none());
        rec.set_attr(id, "k", AttrValue::U64(1));
        rec.event(t(1.0), "e", Component::Compute, &[]);
        rec.counter_add(t(1.0), "c", 1.0);
        rec.gauge_set(t(1.0), "g", 2.0);
        rec.histogram_record(t(1.0), "h", 3.0);
        rec.close(t(2.0), id);
        assert!(rec.with_buffer(|_| ()).is_none());
    }

    #[test]
    fn spans_nest_and_events_attach_to_innermost() {
        let rec = Recorder::in_memory();
        let root = rec.span(t(0.0), "campaign", Component::Campaign);
        let phase = rec.phase_span(t(0.0), JobPhase::Simulate, Component::Compute);
        rec.event(
            t(0.5),
            "tick",
            Component::Compute,
            &[("k", AttrValue::U64(3))],
        );
        rec.close(t(1.0), phase);
        rec.close(t(1.0), root);

        rec.with_buffer(|buf| {
            assert_eq!(buf.spans().len(), 2);
            assert_eq!(buf.spans()[1].parent, root);
            assert_eq!(buf.spans()[1].phase, Some(JobPhase::Simulate));
            assert_eq!(buf.events().len(), 1);
            assert_eq!(buf.events()[0].parent, phase);
            assert_eq!(buf.events()[0].attrs[0], ("k", AttrValue::U64(3)));
        })
        .unwrap();
    }

    #[test]
    fn phase_timeline_roundtrips_phase_spans() {
        let rec = Recorder::in_memory();
        let root = rec.span(t(0.0), "campaign", Component::Campaign);
        for (phase, start, end) in [
            (JobPhase::Simulate, 0.0, 10.0),
            (JobPhase::Visualize, 10.0, 12.0),
            (JobPhase::WriteOutput, 12.0, 15.0),
        ] {
            let id = rec.phase_span(t(start), phase, Component::Compute);
            rec.close(t(end), id);
        }
        rec.close(t(15.0), root);

        let tl = rec.with_buffer(|b| b.phase_timeline()).unwrap();
        assert_eq!(tl.records().len(), 3);
        assert_eq!(tl.makespan().as_secs_f64(), 15.0);
        assert_eq!(tl.time_in(JobPhase::Visualize).as_secs_f64(), 2.0);
    }

    #[test]
    fn into_buffer_requires_sole_ownership() {
        let rec = Recorder::in_memory();
        let clone = rec.clone();
        assert!(rec.into_buffer().is_none(), "clone still alive");
        assert!(clone.into_buffer().is_some());
        assert!(Recorder::off().into_buffer().is_none());
    }

    #[test]
    fn clones_share_one_buffer() {
        let rec = Recorder::in_memory();
        let clone = rec.clone();
        let id = clone.span(t(0.0), "s", Component::Native);
        clone.close(t(1.0), id);
        assert_eq!(rec.with_buffer(|b| b.spans().len()), Some(1));
    }
}
