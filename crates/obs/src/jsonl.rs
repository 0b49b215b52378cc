//! JSONL trace exporter: one record per line, stable `ivis-trace-v1` schema,
//! and the one text writer every exporter of this crate shares.
//!
//! The schema is deliberately frozen (and pinned by a golden-file test in
//! `ivis-core`): line 1 is a `meta` record, followed by every span in open
//! order, every event in record order, and every metric with its full
//! sample series. Times are integer microseconds of sim time, matching
//! [`SimTime`]'s internal resolution, so the export is lossless.
//!
//! # The writer
//!
//! [`to_jsonl`], [`to_chrome_trace`] and [`to_prometheus`] append to one
//! byte buffer through a private `Writer`, reserved once from the span,
//! event and sample counts; each record is written into it exactly once,
//! with no per-line buffer, and the whole buffer is checked as UTF-8 once
//! at the end. Numbers skip `core::fmt` where they can:
//!
//! - integers (ids, tids, microsecond times, `U64` / `I64` attrs) are
//!   written four digits per division from a 200-byte table of digit
//!   pairs by [`digits_before`], the routine `ivis-serve`'s body writer
//!   shares;
//! - a float that is integral with `|v| < 2^53` is written as its sign and
//!   integer digits (`-0.0` as `-0`), which is exactly what `Display`
//!   prints. The bound matters: from 2^53 up, `Display` prints the
//!   shortest round-trip digits padded with zeros (`2^60` prints
//!   `1152921504606847000`, not the exact integer), so such values take
//!   the general path;
//! - any other finite float is formatted by `Display` once, then served
//!   from a four-slot memo keyed on its bit pattern and local to one
//!   export call.
//!
//! The memo pays because a trace repeats a few float levels many times.
//! Over an 8 h in-situ run, `cluster.power_w`'s 1 620 samples take 3
//! distinct values (one per phase level) and `pfs.queued_write_seconds`'s
//! 1 080 take 2, half of them integral; counters and
//! `bandwidth_utilization` are integral throughout. When values are all
//! distinct, a miss costs four `u64` compares. Non-finite floats are
//! written as `null`.
//!
//! [`SimTime`]: ivis_sim::SimTime
//! [`to_chrome_trace`]: crate::to_chrome_trace
//! [`to_prometheus`]: crate::to_prometheus

use std::fmt::{self, Write as _};

use ivis_sim::SimTime;

use crate::metrics::{Metric, MetricKind};
use crate::recorder::{AttrValue, SpanId, TraceBuffer};

/// Schema identifier embedded in the meta line.
pub(crate) const SCHEMA: &str = "ivis-trace-v1";

/// Formatted floats the memo holds at once: enough for the handful of
/// levels a gauge steps between.
const MEMO_SLOTS: usize = 4;

/// 2^53. Below it every integral `f64` is an exact integer, and `Display`
/// prints exactly its digits.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// The samples an exporter writes for `metric`. Counters and gauges give
/// their step function; histograms give the raw `(t, value)`
/// observations, which is the lossless form (the step function is just
/// the running count).
pub(crate) fn samples(metric: &Metric) -> &[(SimTime, f64)] {
    match metric.kind() {
        MetricKind::Histogram => metric.observations(),
        MetricKind::Counter | MetricKind::Gauge => metric.series().samples(),
    }
}

/// `"00" "01" … "99"`: two decimal digits per lookup.
pub(crate) const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `n`'s decimal digits to end just before `buf[end]`, four per
/// division, and return where they start. `buf[..end]` must hold them
/// (20 bytes always do).
#[inline]
pub fn digits_before(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    while n >= 10_000 {
        end = pairs_before(buf, end, n % 10_000, 2);
        n /= 10_000;
    }
    if n >= 100 {
        end = pairs_before(buf, end, n % 100, 1);
        n /= 100;
    }
    if n >= 10 {
        pairs_before(buf, end, n, 1)
    } else {
        buf[end - 1] = b'0' + n as u8;
        end - 1
    }
}

/// Write the low `2 · pairs` decimal digits of `n`, zero-padded, to end
/// just before `buf[end]`; return where they start.
#[inline]
pub fn pairs_before(buf: &mut [u8], mut end: usize, mut n: u64, pairs: usize) -> usize {
    for _ in 0..pairs {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    end
}

/// The byte buffer every exporter writes into; see the module docs.
pub(crate) struct Writer {
    /// Only whole UTF-8 sequences are appended; [`Writer::finish`]
    /// checks that once.
    out: Vec<u8>,
    /// Bit patterns of the memoized floats. NaN never reaches the memo,
    /// so its bits mark an empty slot.
    memo_bits: [u64; MEMO_SLOTS],
    memo_text: [String; MEMO_SLOTS],
    /// The slot the next miss overwrites (round robin).
    memo_next: usize,
}

impl Writer {
    /// A writer whose buffer holds `bytes` before it first grows.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: Vec::with_capacity(bytes),
            memo_bits: [f64::NAN.to_bits(); MEMO_SLOTS],
            memo_text: Default::default(),
            memo_next: 0,
        }
    }

    /// A writer reserved for `buf`'s records at about `span`, `event` and
    /// `sample` bytes each, plus each sample's metric name when `named`
    /// (the Chrome export repeats it per sample).
    pub(crate) fn reserved(
        buf: &TraceBuffer,
        span: usize,
        event: usize,
        sample: usize,
        named: bool,
    ) -> Self {
        let samples: usize = buf
            .metrics
            .iter()
            .map(|m| samples(m).len() * (sample + if named { m.name().len() } else { 0 }))
            .sum();
        Writer::with_capacity(buf.spans().len() * span + buf.events().len() * event + samples)
    }

    /// The text written so far.
    pub(crate) fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends only UTF-8")
    }

    pub(crate) fn push_str(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
    }

    /// One ASCII byte.
    pub(crate) fn push(&mut self, b: u8) {
        debug_assert!(b.is_ascii());
        self.out.push(b);
    }

    pub(crate) fn push_u64(&mut self, x: u64) {
        let mut digits = [0u8; 20];
        let i = digits_before(&mut digits, 20, x);
        self.out.extend_from_slice(&digits[i..]);
    }

    pub(crate) fn push_i64(&mut self, x: i64) {
        if x < 0 {
            self.out.push(b'-');
        }
        self.push_u64(x.unsigned_abs());
    }

    /// `v` as `Display` prints it, or `null` if it is not finite.
    pub(crate) fn push_f64(&mut self, v: f64) {
        if !v.is_finite() {
            self.push_str("null");
            return;
        }
        let magnitude = v.abs();
        if magnitude < EXACT_INT_BOUND && (magnitude as u64) as f64 == magnitude {
            if v.is_sign_negative() {
                self.out.push(b'-');
            }
            return self.push_u64(magnitude as u64);
        }
        let bits = v.to_bits();
        let slot = match self.memo_bits.iter().position(|&b| b == bits) {
            Some(slot) => slot,
            None => {
                let slot = self.memo_next;
                self.memo_next = (slot + 1) % MEMO_SLOTS;
                self.memo_bits[slot] = bits;
                let text = &mut self.memo_text[slot];
                text.clear();
                let _ = write!(text, "{v}");
                slot
            }
        };
        self.out.extend_from_slice(self.memo_text[slot].as_bytes());
    }

    /// `s` as the inside of a JSON string literal.
    pub(crate) fn push_escaped(&mut self, s: &str) {
        if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
            return self.push_str(s);
        }
        const HEX: &[u8; 16] = b"0123456789abcdef";
        // Byte by byte: the bytes of a multi-byte character are all
        // `>= 0x80`, so they are copied through whole.
        for b in s.bytes() {
            match b {
                b'"' => self.push_str("\\\""),
                b'\\' => self.push_str("\\\\"),
                b'\n' => self.push_str("\\n"),
                b'\r' => self.push_str("\\r"),
                b'\t' => self.push_str("\\t"),
                b if b < 0x20 => {
                    self.push_str("\\u00");
                    self.out.push(HEX[usize::from(b >> 4)]);
                    self.out.push(HEX[usize::from(b & 0xf)]);
                }
                b => self.out.push(b),
            }
        }
    }

    pub(crate) fn push_attrs(&mut self, attrs: &[(&'static str, AttrValue)]) {
        self.out.push(b'{');
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            self.out.push(b'"');
            self.push_escaped(k);
            self.push_str("\":");
            match *v {
                AttrValue::U64(x) => self.push_u64(x),
                AttrValue::I64(x) => self.push_i64(x),
                AttrValue::F64(x) => self.push_f64(x),
                AttrValue::Str(s) => {
                    self.out.push(b'"');
                    self.push_escaped(s);
                    self.out.push(b'"');
                }
            }
        }
        self.out.push(b'}');
    }

    fn push_span_ref(&mut self, id: SpanId) {
        if id.is_none() {
            self.push_str("null");
        } else {
            self.push_u64(u64::from(id.0));
        }
    }
}

/// For the end-of-run Prometheus text, whose lines read best as `format!`
/// templates.
impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

/// Serialize the whole buffer to JSONL.
pub fn to_jsonl(buf: &TraceBuffer) -> String {
    // Bytes per span, event and sample on the paper runs, rounded up.
    let mut w = Writer::reserved(buf, 160, 160, 24, false);
    w.push_str("{\"v\":1,\"type\":\"meta\",\"schema\":\"");
    w.push_str(SCHEMA);
    w.push_str("\",\"spans\":");
    w.push_u64(buf.spans().len() as u64);
    w.push_str(",\"events\":");
    w.push_u64(buf.events().len() as u64);
    w.push_str(",\"metrics\":");
    w.push_u64(buf.metrics.len() as u64);
    w.push_str("}\n");
    for (id, span) in buf.spans().iter().enumerate() {
        w.push_str("{\"type\":\"span\",\"id\":");
        w.push_u64(id as u64);
        w.push_str(",\"parent\":");
        w.push_span_ref(span.parent);
        w.push_str(",\"name\":\"");
        w.push_escaped(span.name);
        w.push_str("\",\"component\":\"");
        w.push_str(span.component.label());
        w.push_str("\",\"phase\":");
        match span.phase {
            Some(p) => {
                w.push(b'"');
                w.push_str(p.label());
                w.push(b'"');
            }
            None => w.push_str("null"),
        }
        w.push_str(",\"start_us\":");
        w.push_u64(span.start.as_micros());
        w.push_str(",\"end_us\":");
        match span.end {
            Some(t) => w.push_u64(t.as_micros()),
            None => w.push_str("null"),
        }
        w.push_str(",\"attrs\":");
        w.push_attrs(&span.attrs);
        w.push_str("}\n");
    }
    for ev in buf.events() {
        w.push_str("{\"type\":\"event\",\"span\":");
        w.push_span_ref(ev.parent);
        w.push_str(",\"name\":\"");
        w.push_escaped(ev.name);
        w.push_str("\",\"component\":\"");
        w.push_str(ev.component.label());
        w.push_str("\",\"t_us\":");
        w.push_u64(ev.at.as_micros());
        w.push_str(",\"attrs\":");
        w.push_attrs(&ev.attrs);
        w.push_str("}\n");
    }
    for metric in buf.metrics.iter() {
        w.push_str("{\"type\":\"metric\",\"name\":\"");
        w.push_escaped(metric.name());
        w.push_str("\",\"kind\":\"");
        w.push_str(metric.kind().label());
        w.push_str("\",\"samples\":[");
        for (i, &(t, v)) in samples(metric).iter().enumerate() {
            if i > 0 {
                w.push(b',');
            }
            w.push(b'[');
            w.push_u64(t.as_micros());
            w.push(b',');
            w.push_f64(v);
            w.push(b']');
        }
        w.push_str("]}\n");
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Component, Recorder};
    use ivis_cluster::JobPhase;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn written(f: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer::with_capacity(0);
        f(&mut w);
        w.finish()
    }

    #[test]
    fn export_shape_matches_schema() {
        let rec = Recorder::in_memory();
        let root = rec.span(t(0.0), "campaign", Component::Campaign);
        rec.set_attr(root, "kind", AttrValue::Str("insitu"));
        let phase = rec.phase_span(t(0.0), JobPhase::Simulate, Component::Compute);
        rec.event(
            t(1.5),
            "output_written",
            Component::Storage,
            &[("index", AttrValue::U64(0)), ("bytes", AttrValue::U64(42))],
        );
        rec.gauge_set(t(1.5), "pfs.utilization", 0.25);
        rec.close(t(2.0), phase);
        rec.close(t(2.0), root);

        let text = rec.with_buffer(to_jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 2 + 1 + 1);
        assert_eq!(
            lines[0],
            "{\"v\":1,\"type\":\"meta\",\"schema\":\"ivis-trace-v1\",\"spans\":2,\"events\":1,\"metrics\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"span\",\"id\":0,\"parent\":null,\"name\":\"campaign\",\"component\":\"campaign\",\"phase\":null,\"start_us\":0,\"end_us\":2000000,\"attrs\":{\"kind\":\"insitu\"}}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"simulate\",\"component\":\"compute\",\"phase\":\"simulate\",\"start_us\":0,\"end_us\":2000000,\"attrs\":{}}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"event\",\"span\":1,\"name\":\"output_written\",\"component\":\"storage\",\"t_us\":1500000,\"attrs\":{\"index\":0,\"bytes\":42}}"
        );
        assert_eq!(
            lines[4],
            "{\"type\":\"metric\",\"name\":\"pfs.utilization\",\"kind\":\"gauge\",\"samples\":[[1500000,0.25]]}"
        );
    }

    #[test]
    fn histogram_metrics_export_raw_observations() {
        let rec = Recorder::in_memory();
        rec.histogram_record(t(1.0), "transport.stall_seconds", 0.5);
        rec.histogram_record(t(2.0), "transport.stall_seconds", 1.5);
        let text = rec.with_buffer(to_jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1],
            "{\"type\":\"metric\",\"name\":\"transport.stall_seconds\",\"kind\":\"histogram\",\"samples\":[[1000000,0.5],[2000000,1.5]]}"
        );
    }

    #[test]
    fn names_are_escaped() {
        const NAME: &str = "a\"b\\c\n";
        let rec = Recorder::in_memory();
        let span = rec.span(t(0.0), NAME, Component::Compute);
        rec.event(t(0.5), NAME, Component::Compute, &[]);
        rec.gauge_set(t(0.5), NAME, 1.0);
        rec.close(t(1.0), span);
        let text = rec.with_buffer(to_jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "the name's newline must not split a record");
        for line in &lines[1..] {
            assert!(line.contains("\"name\":\"a\\\"b\\\\c\\n\""), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let text = written(|w| {
            w.push_f64(f64::NAN);
            w.push(b' ');
            w.push_f64(f64::INFINITY);
            w.push(b' ');
            w.push_f64(f64::NEG_INFINITY);
        });
        assert_eq!(text, "null null null");
    }

    #[test]
    fn strings_are_escaped() {
        let text = written(|w| w.push_escaped("a\"b\\c\nd\u{1}\u{1f}\r\t é"));
        assert_eq!(text, "a\\\"b\\\\c\\nd\\u0001\\u001f\\r\\t é");
    }

    #[test]
    fn integer_extremes_print_as_display_does() {
        for x in [0, 9, 10, u64::MAX] {
            assert_eq!(written(|w| w.push_u64(x)), format!("{x}"));
        }
        for x in [i64::MIN, -1, 0, i64::MAX] {
            assert_eq!(written(|w| w.push_i64(x)), format!("{x}"));
        }
    }

    #[test]
    fn push_u64_is_exact_at_every_digit_count_edge() {
        let mut edges = vec![0, 9, 10, 99, 100, 9_999, 10_000, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        for x in edges {
            assert_eq!(written(|w| w.push_u64(x)), x.to_string());
        }
    }

    #[test]
    fn float_edge_cases_print_as_display_does() {
        let two53 = EXACT_INT_BOUND;
        for (v, want) in [
            (-0.0, "-0"),
            (two53 - 1.0, "9007199254740991"),
            (two53, "9007199254740992"),
            (two53 + 2.0, "9007199254740994"),
            (2f64.powi(60), "1152921504606847000"),
            (1e21, "1000000000000000000000"),
            (5e-324, &format!("{}", 5e-324)),
            (f64::MAX, &format!("{}", f64::MAX)),
        ] {
            assert_eq!(written(|w| w.push_f64(v)), want, "{v:e}");
            assert_eq!(want, format!("{v}"));
        }
    }

    #[test]
    fn memo_serves_repeats_and_evicts_round_robin() {
        // Six levels through four slots, twice over: every value misses or
        // hits depending on the order, and each must print as itself.
        let levels = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let order = [0, 1, 0, 2, 3, 4, 0, 5, 1, 1, 3, 2, 5, 4, 0];
        let text = written(|w| {
            for &i in &order {
                w.push_f64(levels[i]);
                w.push(b' ');
            }
        });
        let want: String = order.iter().map(|&i| format!("{} ", levels[i])).collect();
        assert_eq!(text, want);
    }

    fn bit_patterns() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..u64::MAX).prop_map(f64::from_bits),
            (-(1i64 << 54)..1i64 << 54).prop_map(|n| n as f64),
            (0u64..u64::MAX).prop_map(|b| (f64::from_bits(b) * 1e3).round() / 1e3),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn push_u64_matches_display(x in (0u64..u64::MAX), shift in 0u32..64) {
            let x = x >> shift;
            prop_assert_eq!(written(|w| w.push_u64(x)), format!("{x}"));
        }

        #[test]
        fn push_i64_matches_display(x in (0u64..u64::MAX), shift in 0u32..64) {
            let x = (x as i64) >> shift;
            prop_assert_eq!(written(|w| w.push_i64(x)), format!("{x}"));
        }

        #[test]
        fn push_f64_matches_display(v in bit_patterns()) {
            let want = if v.is_finite() { format!("{v}") } else { "null".into() };
            prop_assert_eq!(written(|w| w.push_f64(v)), want);
        }
    }
}
