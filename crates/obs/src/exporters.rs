//! Interop exporters: Chrome trace-event JSON (Perfetto) and Prometheus
//! text exposition.
//!
//! Both formats are emitted deterministically — fixed component/thread
//! numbering, buffer order for spans and events, first-use order for
//! metrics — so exported artifacts are byte-identical across thread
//! counts and can be golden-pinned. [`to_chrome_trace`] produces the
//! legacy Chrome JSON array format, which Perfetto's UI
//! (<https://ui.perfetto.dev>) opens directly; [`to_prometheus`] renders
//! a [`MetricsRegistry`] snapshot in the Prometheus text exposition
//! format, including cumulative `_bucket` lines for histogram metrics.
//!
//! Both write through the one byte writer [`to_jsonl`] uses (see
//! [`crate::jsonl`]): integers four digits per division from a pair
//! table, integral floats below 2^53 as their digits, and every other
//! distinct float formatted once per export. A Chrome record goes
//! straight into the output after its `,\n` separator; a counter series
//! escapes its metric's name once, into the `","name":"…","args":{"value":`
//! segment every one of its samples repeats.
//!
//! [`to_jsonl`]: crate::to_jsonl

use std::fmt::Write as _;

use crate::jsonl::{samples, Writer};
use crate::metrics::{MetricKind, MetricsRegistry};
use crate::recorder::{Component, TraceBuffer};

/// Fixed thread numbering for the Chrome export: every component maps to
/// one synthetic thread, in this order, so tids never depend on which
/// component happened to record first.
pub(crate) const COMPONENTS: [Component; 8] = [
    Component::Campaign,
    Component::Compute,
    Component::Storage,
    Component::Viz,
    Component::Native,
    Component::Fault,
    Component::Transport,
    Component::Serve,
];

/// `c`'s thread: its 1-based position in [`COMPONENTS`].
fn tid(c: Component) -> u64 {
    match c {
        Component::Campaign => 1,
        Component::Compute => 2,
        Component::Storage => 3,
        Component::Viz => 4,
        Component::Native => 5,
        Component::Fault => 6,
        Component::Transport => 7,
        Component::Serve => 8,
    }
}

/// Serialize a [`TraceBuffer`] as Chrome trace-event JSON.
///
/// Spans become complete (`ph:"X"`) events, instantaneous events become
/// instants (`ph:"i"`), and every metric sample becomes a counter
/// (`ph:"C"`) update, all in sim-time microseconds. Open spans (possible
/// only in a buffer exported mid-run) are skipped. One event per line,
/// so goldens diff readably.
pub fn to_chrome_trace(buf: &TraceBuffer) -> String {
    // Bytes per span, event and sample on the paper runs, rounded up.
    let mut w = Writer::reserved(buf, 112, 160, 84, true);
    // The metadata record comes first, so every later one starts `,\n`.
    w.push_str(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"insitu-vis\"}}",
    );
    let mut used = [false; COMPONENTS.len()];
    let spans = buf.spans().iter().map(|s| s.component);
    for c in spans.chain(buf.events().iter().map(|e| e.component)) {
        used[tid(c) as usize - 1] = true;
    }
    for (c, _) in COMPONENTS.into_iter().zip(used).filter(|&(_, u)| u) {
        w.push_str(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
        w.push_u64(tid(c));
        w.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        w.push_str(c.label());
        w.push_str("\"}}");
    }
    for span in buf.spans() {
        let Some(end) = span.end else { continue };
        w.push_str(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":");
        w.push_u64(tid(span.component));
        w.push_str(",\"ts\":");
        w.push_u64(span.start.as_micros());
        w.push_str(",\"dur\":");
        w.push_u64((end - span.start).as_micros());
        w.push_str(",\"name\":\"");
        w.push_escaped(span.name);
        w.push_str("\",\"cat\":\"");
        w.push_str(span.component.label());
        w.push_str("\",\"args\":");
        w.push_attrs(&span.attrs);
        w.push(b'}');
    }
    for ev in buf.events() {
        w.push_str(",\n{\"ph\":\"i\",\"pid\":1,\"tid\":");
        w.push_u64(tid(ev.component));
        w.push_str(",\"ts\":");
        w.push_u64(ev.at.as_micros());
        w.push_str(",\"s\":\"t\",\"name\":\"");
        w.push_escaped(ev.name);
        w.push_str("\",\"cat\":\"");
        w.push_str(ev.component.label());
        w.push_str("\",\"args\":");
        w.push_attrs(&ev.attrs);
        w.push(b'}');
    }
    for metric in buf.metrics.iter() {
        // Everything between a counter sample's `ts` and its value is the
        // same for the whole series: escape the name once.
        let mut named = Writer::with_capacity(metric.name().len() + 32);
        named.push_str(",\"name\":\"");
        named.push_escaped(metric.name());
        named.push_str("\",\"args\":{\"value\":");
        let named = named.finish();
        for &(t, v) in samples(metric) {
            w.push_str(",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":");
            w.push_u64(t.as_micros());
            w.push_str(&named);
            w.push_f64(v);
            w.push_str("}}");
        }
    }
    w.push_str("\n]}\n");
    w.finish()
}

/// Map a metric name to a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and a
/// name that is empty or starts with a digit gains a leading `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    out.extend(name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        }
    }));
    out
}

fn push_value(w: &mut Writer, v: f64) {
    if v.is_nan() {
        w.push_str("NaN");
    } else if v == f64::INFINITY {
        w.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        w.push_str("-Inf");
    } else {
        w.push_f64(v);
    }
}

/// Render a [`MetricsRegistry`] snapshot in the Prometheus text
/// exposition format, in first-use order.
///
/// Counters export their final cumulative total as `<name>_total`,
/// gauges their last value, histograms cumulative `_bucket{le=...}`
/// lines over the deterministic log-bucket grid plus `_sum` and
/// `_count`. This is an end-of-run snapshot: the time dimension lives in
/// the JSONL/Chrome exports, not here.
pub fn to_prometheus(reg: &MetricsRegistry) -> String {
    let mut out = Writer::with_capacity(0);
    for metric in reg.iter() {
        let name = sanitize(metric.name());
        match metric.kind() {
            MetricKind::Counter => {
                let _ = writeln!(out, "# TYPE {name}_total counter");
                let _ = write!(out, "{name}_total ");
                push_value(&mut out, metric.last_value());
                out.push(b'\n');
            }
            MetricKind::Gauge => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = write!(out, "{name} ");
                push_value(&mut out, metric.last_value());
                out.push(b'\n');
            }
            MetricKind::Histogram => {
                let h = metric.histogram().expect("histogram kind has a snapshot");
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cum = 0u64;
                for &(bound, count) in &h.buckets {
                    cum += count;
                    if bound == f64::INFINITY {
                        // The closing `+Inf` line below counts it.
                        continue;
                    }
                    let _ = write!(out, "{name}_bucket{{le=\"");
                    push_value(&mut out, bound);
                    let _ = writeln!(out, "\"}} {cum}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = write!(out, "{name}_sum ");
                push_value(&mut out, h.sum);
                out.push(b'\n');
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{AttrValue, Recorder};
    use ivis_cluster::JobPhase;
    use ivis_sim::SimTime;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn sample_recorder() -> Recorder {
        let rec = Recorder::in_memory();
        let root = rec.span(t(0.0), "campaign", Component::Campaign);
        rec.set_attr(root, "kind", AttrValue::Str("insitu"));
        let phase = rec.phase_span(t(0.0), JobPhase::Simulate, Component::Compute);
        rec.event(
            t(1.5),
            "output_written",
            Component::Storage,
            &[("bytes", AttrValue::U64(42))],
        );
        rec.counter_add(t(1.5), "pfs.bytes_written", 42.0);
        rec.gauge_set(t(1.5), "cluster.power_w", 46_300.0);
        rec.histogram_record(t(1.0), "transport.stall_seconds", 0.375);
        rec.histogram_record(t(1.6), "transport.stall_seconds", 1.375);
        rec.histogram_record(t(1.7), "transport.stall_seconds", 1.25);
        rec.close(t(2.0), phase);
        rec.close(t(2.0), root);
        rec
    }

    #[test]
    fn chrome_trace_shape_is_pinned() {
        let rec = sample_recorder();
        let text = rec.with_buffer(to_chrome_trace).unwrap();
        let expected = "\
{\"displayTimeUnit\":\"ms\",\"traceEvents\":[
{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"insitu-vis\"}},
{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"campaign\"}},
{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"compute\"}},
{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"storage\"}},
{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":2000000,\"name\":\"campaign\",\"cat\":\"campaign\",\"args\":{\"kind\":\"insitu\"}},
{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0,\"dur\":2000000,\"name\":\"simulate\",\"cat\":\"compute\",\"args\":{}},
{\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":1500000,\"s\":\"t\",\"name\":\"output_written\",\"cat\":\"storage\",\"args\":{\"bytes\":42}},
{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1500000,\"name\":\"pfs.bytes_written\",\"args\":{\"value\":42}},
{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1500000,\"name\":\"cluster.power_w\",\"args\":{\"value\":46300}},
{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1000000,\"name\":\"transport.stall_seconds\",\"args\":{\"value\":0.375}},
{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1600000,\"name\":\"transport.stall_seconds\",\"args\":{\"value\":1.375}},
{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1700000,\"name\":\"transport.stall_seconds\",\"args\":{\"value\":1.25}}
]}
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_snapshot_is_pinned() {
        let rec = sample_recorder();
        let text = rec.with_buffer(|b| to_prometheus(&b.metrics)).unwrap();
        let expected = "\
# TYPE pfs_bytes_written_total counter
pfs_bytes_written_total 42
# TYPE cluster_power_w gauge
cluster_power_w 46300
# TYPE transport_stall_seconds histogram
transport_stall_seconds_bucket{le=\"0.375\"} 1
transport_stall_seconds_bucket{le=\"1.25\"} 2
transport_stall_seconds_bucket{le=\"1.5\"} 3
transport_stall_seconds_bucket{le=\"+Inf\"} 3
transport_stall_seconds_sum 3
transport_stall_seconds_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_histogram_writes_one_inf_bucket() {
        // f64::MAX is in the top quarter-octave, whose bound is +inf.
        let rec = Recorder::in_memory();
        rec.histogram_record(t(1.0), "h", f64::MAX);
        rec.histogram_record(t(2.0), "h", 1.0);
        let text = rec.with_buffer(|b| to_prometheus(&b.metrics)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[..3],
            [
                "# TYPE h histogram",
                "h_bucket{le=\"1\"} 1",
                "h_bucket{le=\"+Inf\"} 2"
            ]
        );
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1, "{text}");
        assert_eq!(lines.last(), Some(&"h_count 2"));
    }

    #[test]
    fn open_spans_are_skipped_not_corrupted() {
        let rec = Recorder::in_memory();
        let _open = rec.span(t(0.0), "dangling", Component::Compute);
        let text = rec.with_buffer(to_chrome_trace).unwrap();
        assert!(!text.contains("dangling"));
        assert!(text.contains("thread_name"));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(sanitize("pfs.bytes-written"), "pfs_bytes_written");
        assert_eq!(sanitize("ok_name3"), "ok_name3");
        assert_eq!(sanitize("3d.frames"), "_3d_frames");
        assert_eq!(sanitize(""), "_");
        assert_eq!(sanitize(".x"), "_x");
    }

    /// Prometheus' metric-name grammar, `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn is_legal_name(name: &str) -> bool {
        let mut bytes = name.bytes();
        let legal = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b':';
        bytes
            .next()
            .is_some_and(|b| legal(b) && !b.is_ascii_digit())
            && bytes.all(legal)
    }

    fn any_name() -> impl Strategy<Value = String> {
        let pool: Vec<char> = "aZ_:09.- \"\\\n\u{0}é😀".chars().collect();
        prop::collection::vec(0..pool.len(), 0..8)
            .prop_map(move |picks| picks.into_iter().map(|i| pool[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn sanitized_names_match_the_prometheus_grammar(name in any_name()) {
            let out = sanitize(&name);
            prop_assert!(is_legal_name(&out), "{name:?} -> {out:?}");
        }
    }
}
