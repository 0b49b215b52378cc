//! The exporter bodies the shared writer replaced, kept as the reference
//! the exporters are held to byte for byte: `core::fmt` for every number,
//! one `String` per Chrome line, eight `any` scans for the used
//! components. The old JSONL body wrote span, event and metric names
//! unescaped (a bug the writer fixes), so the differential buffers below
//! draw those names from a pool that needs no escaping.

use std::fmt::Write as _;

use crate::exporters::COMPONENTS;
use crate::metrics::{MetricKind, MetricsRegistry};
use crate::recorder::{AttrValue, Component, SpanId, TraceBuffer};

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_escaped(out, k);
        out.push_str("\":");
        match *v {
            AttrValue::U64(x) => {
                let _ = write!(out, "{x}");
            }
            AttrValue::I64(x) => {
                let _ = write!(out, "{x}");
            }
            AttrValue::F64(x) => push_f64(out, x),
            AttrValue::Str(s) => {
                out.push('"');
                push_escaped(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

fn push_span_ref(out: &mut String, id: SpanId) {
    if id.is_none() {
        out.push_str("null");
    } else {
        let _ = write!(out, "{}", id.0);
    }
}

pub(crate) fn to_jsonl(buf: &TraceBuffer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"v\":1,\"type\":\"meta\",\"schema\":\"{}\",\"spans\":{},\"events\":{},\"metrics\":{}}}",
        crate::jsonl::SCHEMA,
        buf.spans().len(),
        buf.events().len(),
        buf.metrics.len()
    );
    for (id, span) in buf.spans().iter().enumerate() {
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{id},\"parent\":");
        push_span_ref(&mut out, span.parent);
        let _ = write!(
            out,
            ",\"name\":\"{}\",\"component\":\"{}\",\"phase\":",
            span.name,
            span.component.label()
        );
        match span.phase {
            Some(p) => {
                let _ = write!(out, "\"{}\"", p.label());
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"start_us\":{},\"end_us\":", span.start.as_micros());
        match span.end {
            Some(t) => {
                let _ = write!(out, "{}", t.as_micros());
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"attrs\":");
        push_attrs(&mut out, &span.attrs);
        out.push_str("}\n");
    }
    for ev in buf.events() {
        out.push_str("{\"type\":\"event\",\"span\":");
        push_span_ref(&mut out, ev.parent);
        let _ = write!(
            out,
            ",\"name\":\"{}\",\"component\":\"{}\",\"t_us\":{},\"attrs\":",
            ev.name,
            ev.component.label(),
            ev.at.as_micros()
        );
        push_attrs(&mut out, &ev.attrs);
        out.push_str("}\n");
    }
    for metric in buf.metrics.iter() {
        let _ = write!(
            out,
            "{{\"type\":\"metric\",\"name\":\"{}\",\"kind\":\"{}\",\"samples\":[",
            metric.name(),
            metric.kind().label()
        );
        let samples: &[(ivis_sim::SimTime, f64)] = match metric.kind() {
            MetricKind::Histogram => metric.observations(),
            _ => metric.series().samples(),
        };
        for (i, &(t, v)) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},", t.as_micros());
            push_f64(&mut out, v);
            out.push(']');
        }
        out.push_str("]}\n");
    }
    out
}

fn tid(c: Component) -> usize {
    1 + COMPONENTS
        .iter()
        .position(|&k| k == c)
        .expect("every component is numbered")
}

pub(crate) fn to_chrome_trace(buf: &TraceBuffer) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push_line = |out: &mut String, line: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(line);
    };
    push_line(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"insitu-vis\"}}",
    );
    let used: Vec<Component> = COMPONENTS
        .into_iter()
        .filter(|&c| {
            buf.spans().iter().any(|s| s.component == c)
                || buf.events().iter().any(|e| e.component == c)
        })
        .collect();
    for c in &used {
        let line = format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            tid(*c),
            c.label()
        );
        push_line(&mut out, &line);
    }
    for span in buf.spans() {
        let Some(end) = span.end else { continue };
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"",
            tid(span.component),
            span.start.as_micros(),
            (end - span.start).as_micros(),
        );
        push_escaped(&mut line, span.name);
        line.push_str("\",\"cat\":\"");
        push_escaped(&mut line, span.component.label());
        line.push_str("\",\"args\":");
        push_attrs(&mut line, &span.attrs);
        line.push('}');
        push_line(&mut out, &line);
    }
    for ev in buf.events() {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"",
            tid(ev.component),
            ev.at.as_micros(),
        );
        push_escaped(&mut line, ev.name);
        line.push_str("\",\"cat\":\"");
        push_escaped(&mut line, ev.component.label());
        line.push_str("\",\"args\":");
        push_attrs(&mut line, &ev.attrs);
        line.push('}');
        push_line(&mut out, &line);
    }
    for metric in buf.metrics.iter() {
        let samples: &[(ivis_sim::SimTime, f64)] = match metric.kind() {
            MetricKind::Histogram => metric.observations(),
            _ => metric.series().samples(),
        };
        for &(t, v) in samples {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"",
                t.as_micros()
            );
            push_escaped(&mut line, metric.name());
            line.push_str("\",\"args\":{\"value\":");
            push_f64(&mut line, v);
            line.push_str("}}");
            push_line(&mut out, &line);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Differs from the exporter's only on names that are empty or start
/// with a digit, which the differential buffers do not use.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn push_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

pub(crate) fn to_prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for metric in reg.iter() {
        let name = sanitize(metric.name());
        match metric.kind() {
            MetricKind::Counter => {
                let _ = writeln!(out, "# TYPE {name}_total counter");
                let _ = write!(out, "{name}_total ");
                push_value(&mut out, metric.last_value());
                out.push('\n');
            }
            MetricKind::Gauge => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = write!(out, "{name} ");
                push_value(&mut out, metric.last_value());
                out.push('\n');
            }
            MetricKind::Histogram => {
                let h = metric.histogram().expect("histogram kind has a snapshot");
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cum = 0u64;
                for &(bound, count) in &h.buckets {
                    cum += count;
                    if bound == f64::INFINITY {
                        continue;
                    }
                    let _ = write!(out, "{name}_bucket{{le=\"");
                    push_value(&mut out, bound);
                    let _ = writeln!(out, "\"}} {cum}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = write!(out, "{name}_sum ");
                push_value(&mut out, h.sum);
                out.push('\n');
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

mod tests {
    use ivis_cluster::JobPhase;
    use ivis_sim::SimTime;
    use proptest::prelude::*;

    use super::COMPONENTS;
    use crate::recorder::{AttrValue, SpanId, TraceBuffer};

    /// Span, event and metric names: plain, since the oracle's JSONL body
    /// does not escape them.
    const NAMES: [&str; 4] = ["campaign", "pfs_write", "handoff", "naïve-é"];
    const KEYS: [&str; 4] = ["bytes", "k\"ey", "tab\tkey\u{7f}", "ü"];
    const STRS: [&str; 6] = [
        "insitu",
        "q\"uote",
        "back\\slash",
        "ctl\u{0}\u{1}\u{1f}\n\r\t",
        "naïve 😀",
        "",
    ];
    const COUNTERS: [&str; 2] = ["pfs.bytes_written", "retries"];
    const GAUGES: [&str; 2] = ["cluster.power_w", "pfs.queued_write_seconds"];
    const HISTOGRAMS: [&str; 1] = ["transport.stall_seconds"];
    const PHASES: [JobPhase; 5] = [
        JobPhase::Simulate,
        JobPhase::WriteOutput,
        JobPhase::Visualize,
        JobPhase::ReadInput,
        JobPhase::Idle,
    ];

    fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
        pool[rng.below(pool.len())]
    }

    /// Any bit pattern (NaN, ±inf, subnormals), integral values on both
    /// sides of 2^53, `-0.0`, and short decimals like a gauge level.
    fn any_f64(rng: &mut TestRng) -> f64 {
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        match rng.below(5) {
            0 => f64::from_bits(rng.next_u64()),
            1 => sign * ((1u64 << 53) + rng.below(64) as u64 - 32) as f64,
            2 => sign * rng.below(100_000) as f64,
            3 => pick(
                rng,
                &[-0.0, 5e-324, f64::MAX, 1e21, 2f64.powi(60), f64::NAN],
            ),
            _ => sign * rng.below(1_000_000) as f64 / 1000.0,
        }
    }

    fn any_attr(rng: &mut TestRng) -> AttrValue {
        let bits = rng.next_u64() >> rng.below(64);
        match rng.below(4) {
            0 => AttrValue::U64(pick(rng, &[0, u64::MAX, bits])),
            1 => AttrValue::I64(pick(rng, &[i64::MIN, -1, bits as i64, -(bits as i64)])),
            2 => AttrValue::F64(any_f64(rng)),
            _ => AttrValue::Str(pick(rng, &STRS)),
        }
    }

    fn any_attrs(rng: &mut TestRng) -> Vec<(&'static str, AttrValue)> {
        (0..rng.below(4))
            .map(|_| (pick(rng, &KEYS), any_attr(rng)))
            .collect()
    }

    /// A buffer with some spans left open, every attr kind, gauges that
    /// alternate among 1–6 levels (memo hits and evictions) and histogram
    /// observations.
    fn any_buffer(rng: &mut TestRng) -> TraceBuffer {
        let mut buf = TraceBuffer::default();
        let levels: Vec<f64> = (0..1 + rng.below(6)).map(|_| any_f64(rng)).collect();
        let mut open: Vec<SpanId> = Vec::new();
        let mut now = 0u64;
        for _ in 0..rng.below(60) {
            now += rng.next_u64() % (1 << rng.below(40));
            let t = SimTime::from_micros(now);
            let component = pick(rng, &COMPONENTS);
            match rng.below(8) {
                0 => {
                    let phase = (rng.below(2) == 0).then(|| pick(rng, &PHASES));
                    open.push(buf.open_span(t, pick(rng, &NAMES), component, phase));
                }
                1 if !open.is_empty() => {
                    let id = open.swap_remove(rng.below(open.len()));
                    buf.close_span(t, id);
                }
                2 if !buf.spans().is_empty() => {
                    let id = SpanId(rng.below(buf.spans().len()) as u32);
                    buf.set_attr(id, pick(rng, &KEYS), any_attr(rng));
                }
                3 => buf.record_event(t, pick(rng, &NAMES), component, &any_attrs(rng)),
                4 => buf
                    .metrics
                    .counter_add(t, pick(rng, &COUNTERS), any_f64(rng)),
                5 | 6 => buf
                    .metrics
                    .gauge_set(t, pick(rng, &GAUGES), pick(rng, &levels[..])),
                _ => buf
                    .metrics
                    .histogram_record(t, pick(rng, &HISTOGRAMS), any_f64(rng)),
            }
        }
        buf
    }

    fn buffers() -> impl Strategy<Value = TraceBuffer> {
        (0u64..u64::MAX).prop_map(|seed| any_buffer(&mut TestRng::for_case(seed)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn exporters_match_the_oracle_byte_for_byte(buf in buffers()) {
            prop_assert_eq!(crate::to_jsonl(&buf), super::to_jsonl(&buf));
            prop_assert_eq!(crate::to_chrome_trace(&buf), super::to_chrome_trace(&buf));
            prop_assert_eq!(
                crate::to_prometheus(&buf.metrics),
                super::to_prometheus(&buf.metrics)
            );
        }
    }
}
