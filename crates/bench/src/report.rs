//! The one `BENCH_*.json` format: a [`Json`] value with one reader
//! (`Json::parse`), one writer (`Json::to_text`) and one comparison
//! ([`compare`]), plus the [`Bench`] harness every `*_bench` binary runs
//! on.
//!
//! A report is a `host` block followed by the sections a binary adds. The
//! executors are deterministic, so the committed report is the reference a
//! run is checked against: under `--check` the fresh report is compared
//! leaf by leaf with the committed `BENCH_<name>.json` (at
//! `CHECK_THRESHOLD_PCT`, ratios only), and every [`Bench::gate`] the
//! binary stated must hold. `bench_diff` runs the same [`compare`] on any
//! two files.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::time::Instant;

/// A JSON value; objects keep their fields in written order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Build a [`Json::Obj`] from `"key" => value` pairs, each value converted
/// with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![
            $(($key.to_string(), $crate::report::Json::from($value))),*
        ])
    };
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}

from_number!(f64, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Why [`Json::parse`] rejected its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParseError {
    /// Byte offset into the input where reading stopped.
    pub offset: usize,
    /// What was expected there.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for ParseError {}

/// How deep containers may nest: the reader recurses once per level, so
/// input must not choose the stack depth. Reports nest three deep.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary: it only ever steps over ASCII bytes.
    i: usize,
}

type Parsed<T> = Result<T, ParseError>;

impl Parser<'_> {
    fn err<T>(&self, what: &'static str) -> Parsed<T> {
        Err(ParseError {
            offset: self.i,
            what,
        })
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while self.byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
        self.byte()
    }

    fn value(&mut self, depth: usize) -> Parsed<Json> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.err("nesting too deep"),
            Some(b'{') => self
                .seq(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return p.err("expected an object key");
                    }
                    let key = p.string()?;
                    if p.peek() != Some(b':') {
                        return p.err("expected ':'");
                    }
                    p.i += 1;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected a value"),
            None => self.err("unexpected end of input"),
        }
    }

    /// The comma-separated entries of a container up to `close`; `i` is
    /// on the opening bracket.
    fn seq<T>(&mut self, close: u8, entry: impl Fn(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        self.i += 1;
        let mut entries = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(entries);
        }
        loop {
            entries.push(entry(self)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(entries);
                }
                _ => return self.err("expected ',' or a closing bracket"),
            }
        }
    }

    fn string(&mut self) -> Parsed<String> {
        self.i += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice: both are ASCII, so multi-byte UTF-8 passes whole.
            let start = self.i;
            while self.byte().is_some_and(|b| b != b'"' && b != b'\\') {
                self.i += 1;
            }
            out.push_str(&self.text[start..self.i]);
            let Some(quote_or_backslash) = self.byte() else {
                return self.err("unterminated string");
            };
            self.i += 1;
            if quote_or_backslash == b'"' {
                return Ok(out);
            }
            let c = match self.byte() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    // The writer emits non-ASCII as raw UTF-8, so a UTF-16
                    // surrogate escape is rejected rather than paired.
                    let hex = self.text.get(self.i + 1..self.i + 5);
                    let code = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    match code.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?)) {
                        Some(c) => {
                            self.i += 4;
                            c
                        }
                        None => return self.err("bad \\u escape"),
                    }
                }
                _ => return self.err("bad escape"),
            };
            self.i += 1;
            out.push(c);
        }
    }

    fn number(&mut self) -> Parsed<Json> {
        let start = self.i;
        while matches!(
            self.byte(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        match self.text[start..self.i].parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => {
                self.i = start;
                self.err("expected a finite number")
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Parsed<Json> {
        if !self.text[self.i..].starts_with(word) {
            return self.err("expected true, false or null");
        }
        self.i += word.len();
        Ok(value)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("String writes cannot fail"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Read and parse the report at `path`; the error names the path.
pub fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

impl Json {
    /// Read one JSON document. Every input either parses or yields the
    /// byte offset where it stopped making sense.
    pub(crate) fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, i: 0 };
        let v = p.value(0)?;
        if p.peek().is_some() {
            return p.err("trailing characters");
        }
        Ok(v)
    }

    /// The document as text: a container holding only scalars on one
    /// line, any other one entry per line. Numbers are written exactly
    /// (shortest round-trip form), a non-finite one as `null`.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, entries): (_, _, Vec<_>) = match self {
            Json::Num(x) if x.is_finite() => {
                return write!(out, "{x}").expect("String writes cannot fail")
            }
            Json::Null | Json::Num(_) => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let inline = entries
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let newline = |level: usize| format!("\n{}", "  ".repeat(level));
        let (sep, end) = if inline {
            (" ".to_string(), " ".to_string())
        } else {
            (newline(indent + 1), newline(indent))
        };
        out.push(open);
        for (i, (key, v)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&sep);
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write(out, indent + 1);
        }
        if !entries.is_empty() {
            out.push_str(&end);
        }
        out.push(close);
    }

    /// Every scalar leaf by dotted path (`end_to_end.pipelined_fps`,
    /// `tiers.1k.digest`, …). An array element is keyed by its `config`
    /// string when it has one, so rows line up after reordering or
    /// insertion, and by index otherwise. `null` leaves are absent.
    pub(crate) fn flatten(&self) -> BTreeMap<String, Json> {
        let mut out = BTreeMap::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into(&self, prefix: &str, out: &mut BTreeMap<String, Json>) {
        let join = |key: &str| match prefix {
            "" => key.to_string(),
            _ => format!("{prefix}.{key}"),
        };
        match self {
            Json::Obj(fields) => fields
                .iter()
                .for_each(|(k, v)| v.flatten_into(&join(k), out)),
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    let label = match item {
                        Json::Obj(fields) => {
                            fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                                ("config", Json::Str(s)) => Some(s.clone()),
                                _ => None,
                            })
                        }
                        _ => None,
                    };
                    item.flatten_into(&join(&label.unwrap_or_else(|| i.to_string())), out);
                }
            }
            Json::Null => {}
            leaf => {
                out.insert(prefix.to_string(), leaf.clone());
            }
        }
    }
}

// --- comparison ---

#[derive(Debug, Clone, Copy, PartialEq)]
enum Direction {
    HigherBetter,
    LowerBetter,
    Informational,
}

/// A leaf's direction, from its name: throughputs (`*_per_sec`, `*fps`,
/// `speedup`) are higher-better, durations and overheads (`*_s`, `*_ms`,
/// `*_us`, `*seconds`, `*overhead_pct`) lower-better, everything else
/// (shapes, byte counts) informational only.
fn direction(path: &str) -> Direction {
    let name = path.rsplit('.').next().unwrap_or(path);
    let higher = ["per_sec", "fps", "speedup"];
    if higher.iter().any(|h| name.contains(h)) {
        return Direction::HigherBetter;
    }
    if name.contains("overhead_pct")
        || name.ends_with("_s")
        || name.ends_with("_ms")
        || name.ends_with("_us")
        || name.ends_with("seconds")
    {
        return Direction::LowerBetter;
    }
    Direction::Informational
}

/// Harmful movement of `new` relative to `old`, as a positive percentage
/// (relative for ordinary leaves, absolute points for `*_pct` leaves —
/// an overhead going 0.1% → 1.5% is a 1.4-point move, not a 1400% one).
fn regression_pct(path: &str, old: f64, new: f64) -> f64 {
    let name = path.rsplit('.').next().unwrap_or(path);
    let harmful = match direction(path) {
        Direction::HigherBetter => old - new,
        Direction::LowerBetter => new - old,
        Direction::Informational => return 0.0,
    };
    if name.ends_with("_pct") || old.abs() < 1e-12 {
        harmful
    } else {
        harmful / old.abs() * 100.0
    }
}

/// Does this leaf stay comparable when the two generations come from
/// different machines? Percentages and speedups are self-normalized;
/// seconds and throughputs measure the host.
fn machine_normalized(path: &str) -> bool {
    let name = path.rsplit('.').next().unwrap_or(path);
    name.ends_with("_pct") || name.contains("speedup")
}

/// Compare two generations of a report leaf by leaf, print the diff and a
/// summary line, and return `(unchanged_count, regressions)`.
///
/// - A changed string or bool (a digest, a witness) is a failure.
/// - A leaf of `old` missing from `new` is always a failure, whatever
///   `ratios_only` says: a renamed or dropped metric would otherwise
///   silently un-gate itself.
/// - A directional number fails when it moves the harmful way by more
///   than `threshold` percent (points for `*_pct` leaves); with
///   `ratios_only`, only machine-normalized leaves (`*_pct`,
///   `*speedup*`) can, since raw seconds from another machine measure
///   that machine.
/// - `host.*` is ignored: the host is allowed to differ.
pub fn compare(old: &Json, new: &Json, threshold: f64, ratios_only: bool) -> (usize, Vec<String>) {
    let leaves = |doc: &Json| {
        let mut leaves = doc.flatten();
        leaves.retain(|path, _| !path.starts_with("host."));
        leaves
    };
    let (old, new) = (leaves(old), leaves(new));
    let mut regressions = Vec::new();
    let mut unchanged = 0usize;
    for (path, old_leaf) in &old {
        let Some(new_leaf) = new.get(path) else {
            println!("- {path}: removed [MISSING LEAF]");
            regressions.push(format!(
                "{path}: present in baseline but missing from candidate"
            ));
            continue;
        };
        match (old_leaf, new_leaf) {
            (Json::Num(a), Json::Num(b)) => {
                if a == b {
                    unchanged += 1;
                    continue;
                }
                let reg = regression_pct(path, *a, *b);
                let gated = !ratios_only || machine_normalized(path);
                let rel = if a.abs() > 1e-12 {
                    format!("{:+.2}%", (b - a) / a.abs() * 100.0)
                } else {
                    format!("{:+.4}", b - a)
                };
                let tag = match direction(path) {
                    _ if reg > threshold && gated => "REGRESSION",
                    Direction::Informational => "info",
                    _ if reg > 0.0 && !gated => "worse (not gated: machine-bound)",
                    _ if reg > 0.0 => "worse (within threshold)",
                    _ => "better",
                };
                println!("  {path}: {a} -> {b} ({rel}) [{tag}]");
                if reg > threshold && gated {
                    regressions.push(format!("{path}: {a} -> {b} ({reg:.2} past threshold)"));
                }
            }
            (a, b) if a == b => unchanged += 1,
            (a, b) => {
                println!("  {path}: {a:?} -> {b:?} [WITNESS CHANGED]");
                regressions.push(format!("{path}: witness changed"));
            }
        }
    }
    for path in new.keys() {
        if !old.contains_key(path) {
            println!("+ {path}: added");
        }
    }
    println!(
        "compared {} leaves: {unchanged} unchanged, {} regression(s) (threshold {threshold}%)",
        old.len(),
        regressions.len()
    );
    (unchanged, regressions)
}

// --- the harness ---

/// `--check`'s threshold, ratios only: CI's settings before `--check` did
/// the comparison itself. The committed report may come from another
/// machine, so only ratios and witnesses gate, with room for runner noise.
pub(crate) const CHECK_THRESHOLD_PCT: f64 = 60.0;

/// Minimum wall-clock seconds of `f` over `reps` runs, after one warmup
/// run; what `f` returns is passed through `black_box`, so the work
/// cannot be optimized away. Minimum, not median: the work is
/// deterministic, so the best observation is the least-noisy estimate of
/// its cost.
pub fn time_min_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One bench binary's run: where its report goes, the committed report
/// under `--check`, the sections it measured and the gates that failed.
#[derive(Debug)]
pub struct Bench {
    out_path: String,
    committed: Option<Json>,
    host_threads: usize,
    sections: Vec<(String, Json)>,
    failed_gates: Vec<String>,
}

impl Bench {
    /// Read `[OUT] [--check]` for the bench `name`; the report goes to
    /// `OUT`, by default `BENCH_<name>.json`. Under `--check` that
    /// committed file is parsed now, before anything writes (CI writes to
    /// the same path), and the process exits 1 if it cannot be.
    pub fn from_args(name: &str) -> Bench {
        let committed_path = format!("BENCH_{name}.json");
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out_path = args.iter().rfind(|a| *a != "--check");
        let committed = args.iter().any(|a| a == "--check").then(|| {
            read(&committed_path).unwrap_or_else(|e| {
                eprintln!("FAIL: --check needs the committed report: {e}");
                std::process::exit(1);
            })
        });
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host = obj! {
            "available_parallelism" => host_threads,
            "zsim_threads" => std::env::var("ZSIM_THREADS").ok(),
        };
        Bench {
            out_path: out_path.unwrap_or(&committed_path).clone(),
            committed,
            host_threads,
            sections: vec![("host".to_string(), host)],
            failed_gates: Vec::new(),
        }
    }

    /// `available_parallelism` of this host.
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Where the report will be written.
    pub fn out_path(&self) -> &str {
        &self.out_path
    }

    /// Append the section `key` to the report, and echo it to stderr.
    pub fn section(&mut self, key: &str, value: Json) {
        eprint!("{key}: {}", value.to_text());
        self.sections.push((key.to_string(), value));
    }

    /// State a condition `--check` enforces; `detail` says what failed.
    pub fn gate(&mut self, pass: bool, detail: impl FnOnce() -> String) {
        if !pass {
            self.failed_gates.push(detail());
        }
    }

    /// A parallel speedup `x`, or `null` on a one-core host, where nothing
    /// can overlap and a ≈ 1.0× would prove nothing.
    pub fn parallel_ratio(&self, x: f64) -> Json {
        if self.host_threads > 1 {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// Write the report. Under `--check`, compare it with the committed
    /// one and, after a `FAIL:` line per regression and failed gate, exit
    /// 1 if there is any.
    pub fn finish(self) {
        let report = Json::Obj(self.sections);
        std::fs::write(&self.out_path, report.to_text()).expect("write the bench report");
        eprintln!("wrote {}", self.out_path);
        let Some(committed) = self.committed else {
            self.failed_gates
                .iter()
                .for_each(|g| eprintln!("gate not met: {g}"));
            return;
        };
        let (_, mut failures) = compare(&committed, &report, CHECK_THRESHOLD_PCT, true);
        failures.extend(self.failed_gates);
        if failures.is_empty() {
            eprintln!("OK: the committed report matches and every gate holds");
            return;
        }
        failures.iter().for_each(|f| eprintln!("FAIL: {f}"));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test documents parse")
    }

    fn leaves(text: &str) -> BTreeMap<String, Json> {
        doc(text).flatten()
    }

    #[test]
    fn parses_and_flattens_bench_shapes() {
        let out = leaves(
            r#"{ "host": { "available_parallelism": 1, "zsim_threads": null },
                 "rows": [
                   { "config": "in-situ@8h", "clean_s": 0.5, "ok": true },
                   { "config": "post@8h", "clean_s": 0.25 }
                 ],
                 "end_to_end": { "pipelined_fps": 12.5, "note": "x" } }"#,
        );
        assert_eq!(out.get("rows.in-situ@8h.clean_s"), Some(&Json::Num(0.5)));
        assert_eq!(out.get("rows.in-situ@8h.ok"), Some(&Json::Bool(true)));
        assert_eq!(out.get("end_to_end.pipelined_fps"), Some(&Json::Num(12.5)));
        assert_eq!(out.get("end_to_end.note"), Some(&Json::Str("x".into())));
        // nulls vanish; host stays at this layer (compare ignores it).
        assert!(!out.contains_key("host.zsim_threads"));
        assert!(out.contains_key("host.available_parallelism"));
    }

    #[test]
    fn directions_follow_leaf_names() {
        assert_eq!(
            direction("end_to_end.pipelined_fps"),
            Direction::HigherBetter
        );
        assert_eq!(
            direction("solver.optimized_steps_per_sec"),
            Direction::HigherBetter
        );
        assert_eq!(direction("png_encode.speedup"), Direction::HigherBetter);
        assert_eq!(direction("rows.x.clean_s"), Direction::LowerBetter);
        assert_eq!(
            direction("no_fault_overhead.aggregate_overhead_pct"),
            Direction::LowerBetter
        );
        assert_eq!(direction("solver.nx"), Direction::Informational);
        assert_eq!(direction("png_encode.png_bytes"), Direction::Informational);
    }

    #[test]
    fn regressions_are_directional() {
        // fps dropping 20% is a 20% regression; rising is negative.
        assert!((regression_pct("a.fps", 10.0, 8.0) - 20.0).abs() < 1e-9);
        assert!(regression_pct("a.fps", 10.0, 12.0) < 0.0);
        // durations regress upward.
        assert!((regression_pct("a.clean_s", 1.0, 1.3) - 30.0).abs() < 1e-9);
        // pct leaves move in absolute points.
        assert!((regression_pct("a.overhead_pct", 0.1, 1.5) - 1.4).abs() < 1e-9);
        // informational leaves never regress.
        assert_eq!(regression_pct("a.nx", 256.0, 64.0), 0.0);
    }

    #[test]
    fn string_escapes_round_trip() {
        let out = leaves(r#"{ "d": "a\"b\\c\nd" }"#);
        assert_eq!(out.get("d"), Some(&Json::Str("a\"b\\c\nd".into())));
    }

    #[test]
    fn missing_candidate_leaf_is_a_hard_failure() {
        // A baseline metric vanishing from the candidate must regress —
        // otherwise it prints "removed" and sails through --check.
        let old = doc(r#"{ "rows": [ { "config": "a", "clean_s": 1.0, "fps": 5.0 } ] }"#);
        let new = doc(r#"{ "rows": [ { "config": "a", "clean_s": 1.0 } ] }"#);
        let (_, regressions) = compare(&old, &new, 10.0, false);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("rows.a.fps"));
        assert!(regressions[0].contains("missing from candidate"));
    }

    #[test]
    fn missing_leaf_fails_even_under_ratios_only() {
        // ratios_only exempts machine-bound magnitudes, not shape: a
        // dropped duration leaf is still a candidate defect.
        let old = doc(r#"{ "t": { "wall_s": 2.0 } }"#);
        let new = doc(r#"{ "t": {} }"#);
        let (_, regressions) = compare(&old, &new, 10.0, true);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("t.wall_s"));
    }

    #[test]
    fn added_leaves_and_equal_leaves_do_not_regress() {
        let old = doc(r#"{ "host": { "available_parallelism": 1 }, "a_s": 1.0, "w": "digest" }"#);
        let new = doc(
            r#"{ "host": { "available_parallelism": 2 }, "a_s": 1.0, "w": "digest", "b_s": 9.0 }"#,
        );
        let (unchanged, regressions) = compare(&old, &new, 10.0, false);
        assert_eq!(unchanged, 2);
        assert!(regressions.is_empty());
    }

    #[test]
    fn witness_strings_still_gate_on_change() {
        let old = doc(r#"{ "digest": "aaaa" }"#);
        let new = doc(r#"{ "digest": "bbbb" }"#);
        let (_, regressions) = compare(&old, &new, 10.0, true);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("witness changed"));
    }

    const BASELINE: &str = r#"{
  "rows": [
    { "config": "in-situ@8h", "wall_s": 0.007, "digest": "exec_us=1 | level=0" },
    { "config": "in-situ@8h/seed42", "digest": "exec_us=2" }
  ]
}"#;

    #[test]
    fn finds_the_row_by_exact_label() {
        let out = leaves(BASELINE);
        let digest = |row: &str| out.get(&format!("rows.{row}.digest"));
        assert_eq!(
            digest("in-situ@8h"),
            Some(&Json::Str("exec_us=1 | level=0".into()))
        );
        assert_eq!(
            digest("in-situ@8h/seed42"),
            Some(&Json::Str("exec_us=2".into()))
        );
        assert_eq!(digest("in-situ@24h"), None);
    }

    #[test]
    fn reports_changed_and_missing_witnesses() {
        let same = doc(BASELINE);
        assert!(compare(&same, &same, 60.0, true).1.is_empty());
        let bad = doc(r#"{ "rows": [
                 { "config": "in-situ@8h", "wall_s": 0.007, "digest": "exec_us=9" },
                 { "config": "post@8h", "digest": "exec_us=3" } ] }"#);
        let (_, failures) = compare(&same, &bad, 60.0, true);
        assert_eq!(failures.len(), 3);
        assert!(failures[0].contains("rows.in-situ@8h.digest: witness changed"));
        assert!(failures[1].contains("rows.in-situ@8h/seed42.config: present in baseline"));
        assert!(failures[2].contains("rows.in-situ@8h/seed42.digest: present in baseline"));
    }

    #[test]
    fn malformed_input_is_a_typed_error_with_its_offset() {
        let err = |text: &str| Json::parse(text).expect_err(text);
        assert_eq!(err(r#"{"a": "\"#).offset, 8);
        assert_eq!(err(r#"{"a": "\u12"#).offset, 8);
        assert_eq!(err(r#"{"a": "\ud83d\ude00"}"#).what, "bad \\u escape");
        assert_eq!(err(r#"{"a": 1e999}"#).what, "expected a finite number");
        assert_eq!(err(r#"{"a": 1} x"#).offset, 9);
        assert_eq!(err("").what, "unexpected end of input");
        assert_eq!(err(&"[".repeat(MAX_DEPTH + 1)).what, "nesting too deep");
        assert_eq!(err(&"[".repeat(MAX_DEPTH)).what, "unexpected end of input");
    }

    #[test]
    fn strings_decode_as_utf8_and_non_finite_numbers_write_as_null() {
        assert_eq!(doc(r#""é 😀 é""#), Json::Str("é 😀 é".into()));
        let v = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(1.5),
        ]);
        assert_eq!(v.to_text(), "[ null, null, 1.5 ]\n");
    }

    /// A tree of depth ≤ `depth`: every kind of value, any finite `f64`
    /// bit pattern, keys and strings over all of Unicode.
    fn any_json(rng: &mut TestRng, depth: u32) -> Json {
        let any_string = |rng: &mut TestRng| -> String {
            let syntax = b"\"\\/\n\t\r\x01 ab{}[],:";
            (0..rng.below(8))
                .map(|_| match rng.below(3) {
                    0 => char::from(syntax[rng.below(syntax.len())]),
                    1 => char::from_u32(rng.next_u64() as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => char::from(rng.below(0x80) as u8),
                })
                .collect()
        };
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(rng.below(2001) as f64 - 1000.0),
            3 => Json::Num(
                Some(f64::from_bits(rng.next_u64()))
                    .filter(|x| x.is_finite())
                    .unwrap_or(0.0),
            ),
            4 => Json::Str(any_string(rng)),
            5 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| any_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (any_string(rng), any_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn trees(depth: u32) -> impl Strategy<Value = Json> {
        (0u64..u64::MAX).prop_map(move |seed| any_json(&mut TestRng::for_case(seed), depth))
    }

    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u16..256).prop_map(|b| b as u8), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_to_text(v in trees(4)) {
            prop_assert_eq!(Json::parse(&v.to_text()), Ok(v));
        }

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(raw in bytes(0..64)) {
            let text = String::from_utf8_lossy(&raw);
            if let Err(e) = Json::parse(&text) {
                prop_assert!(e.offset <= text.len());
            }
        }

        #[test]
        fn parse_never_panics_on_damaged_reports(v in trees(3), cut in 0usize..4096, junk in bytes(0..4)) {
            // Truncate a valid document anywhere and splice in noise: the
            // reader must stop with an offset, never index past the end.
            let text = v.to_text();
            let at = (0..=cut % (text.len() + 1)).rev().find(|&i| text.is_char_boundary(i));
            let damaged = format!("{}{}", &text[..at.unwrap_or(0)], String::from_utf8_lossy(&junk));
            if let Err(e) = Json::parse(&damaged) {
                prop_assert!(e.offset <= damaged.len());
            }
        }
    }
}
