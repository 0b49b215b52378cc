//! The benchmark's own spans.
//!
//! This PR may not put timers inside the product crates, so spans are
//! recorded here, around calls into each crate's public functions. A
//! span's name is `<crate>.<what>`; the part before the first dot is the
//! layer its self time is billed to. Spans live in memory; the file is
//! written once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::stats::median;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same iteration) of the span that was open when
    /// this one started.
    pub parent: Option<u32>,
    /// Replay iteration the span belongs to.
    pub iter: u32,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Trace iterations whose spans are kept for the file; later ones only
/// feed the per-name self-time samples, so the file stays readable.
const KEPT_ITERATIONS: u32 = 3;

/// Records spans for one workload's traced pass.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    iter: u32,
    current: Vec<Span>,
    stack: Vec<u32>,
    kept: Vec<Span>,
    /// Per span name: one self-time total (ns) per finished iteration.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer; with `enabled` false every method returns at once
    /// without reading the clock, which is what the trace-overhead
    /// comparison runs against.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            iter: 0,
            current: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = self.current.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.current.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter: self.iter,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost-first");
        self.current[id.0 as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// End the current iteration: bill every span's self time to its
    /// name, keep the spans if the iteration is one of the first few, and
    /// start the next iteration.
    pub fn end_iteration(&mut self) {
        if !self.enabled {
            return;
        }
        assert!(self.stack.is_empty(), "iteration ended with open spans");
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, self_ns) in self.current.iter().zip(self_times_ns(&self.current)) {
            *totals.entry(span.name).or_default() += self_ns as f64;
        }
        for (name, ns) in totals {
            self.samples.entry(name).or_default().push(ns);
        }
        if self.iter < KEPT_ITERATIONS {
            self.kept.append(&mut self.current);
        } else {
            self.current.clear();
        }
        self.iter += 1;
    }

    /// Iterations finished so far.
    pub fn iterations(&self) -> u32 {
        self.iter
    }

    /// Median over iterations of the self time billed to span `name`,
    /// milliseconds per iteration. `None` if no such span was recorded.
    pub fn self_ms(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|s| median(s) / 1e6)
    }

    /// Median self time per iteration of every span whose layer (the
    /// name up to the first dot) is `layer`, milliseconds.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| median(s) / 1e6)
            .sum()
    }

    /// Layers seen, in name order.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self
            .samples
            .keys()
            .map(|n| n.split('.').next().unwrap_or(n))
            .collect();
        out.dedup();
        out
    }

    /// The trace file: kept spans plus the per-name self-time medians.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .kept
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("iter", Value::Num(f64::from(s.iter))),
                ])
            })
            .collect();
        let self_ms = self
            .samples
            .iter()
            .map(|(name, s)| (*name, Value::Num(median(s) / 1e6)))
            .collect::<Vec<_>>();
        Value::obj([
            ("workload", Value::str(workload)),
            ("iterations", Value::Num(f64::from(self.iter))),
            (
                "kept_iterations",
                Value::Num(f64::from(KEPT_ITERATIONS.min(self.iter))),
            ),
            (
                "note",
                Value::str(
                    "parent is an index into the spans of the same iter, in file order; \
                     self_ms_per_iter is the median over all iterations",
                ),
            ),
            ("self_ms_per_iter", Value::obj(self_ms)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        // root 0..100 > mid 10..60 > leaf 20..30
        let spans = [
            span("bench.root", 0, 100, None),
            span("core.mid", 10, 60, Some(0)),
            span("viz.leaf", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_each_count_once_and_overlap_is_not_double_billed() {
        // Two disjoint children, then two that overlap by 5 and one that
        // sticks out past the parent's end.
        let spans = [
            span("bench.root", 0, 100, None),
            span("a.x", 10, 20, Some(0)),
            span("a.y", 30, 50, Some(0)),
            span("b.p", 60, 75, Some(0)),
            span("b.q", 70, 80, Some(0)),
            span("b.r", 95, 120, Some(0)),
        ];
        // cover = 10 + 20 + (60..80 = 20) + (95..100 = 5) = 55
        assert_eq!(self_times_ns(&spans)[0], 45);
        assert_eq!(self_times_ns(&spans)[1..], [10, 20, 15, 10, 25]);
    }

    #[test]
    fn tracer_bills_self_time_by_name_and_layer() {
        let mut tr = Tracer::new(true);
        for _ in 0..2 {
            let root = tr.open("bench.replay");
            tr.scope("ocean.run", || std::hint::black_box((0..1000).sum::<u64>()));
            let outer = tr.open("viz.frame");
            tr.scope("viz.encode", || ());
            tr.close(outer);
            tr.close(root);
            tr.end_iteration();
        }
        assert_eq!(tr.iterations(), 2);
        assert_eq!(tr.layers(), vec!["bench", "ocean", "viz"]);
        let viz = tr.self_ms("viz.frame").unwrap() + tr.self_ms("viz.encode").unwrap();
        assert!((tr.layer_ms("viz") - viz).abs() < 1e-12);
        assert!(tr.self_ms("nope.none").is_none());
        let doc = tr.to_json("unit");
        assert_eq!(crate::json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("a.b");
        tr.close(id);
        tr.end_iteration();
        assert_eq!(tr.iterations(), 0);
        assert!(tr.self_ms("a.b").is_none());
    }
}
