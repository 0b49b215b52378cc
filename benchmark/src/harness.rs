//! Runs one workload in this process: the timed pass with tracing off
//! (end-to-end metrics) or the traced pass (per-layer metrics), and
//! renders the result the way the driver's contract asks.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::calibrate::{Calibrator, Timing};
use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::host;
use crate::json::Value;
use crate::stats::{median, summarize, MIN_TIMED_SAMPLES};
use crate::trace::Tracer;
use crate::workloads;

/// Untimed iterations before the first timed one.
const WARMUP_ITERATIONS: usize = 3;
/// Times the whole set-up is repeated in the timed pass; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 3;

/// What one process is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two iterations, one set-up, every check on: what the unit tests
    /// drive. Numbers from a quick run mean nothing.
    pub quick: bool,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// One operation: `ok` or a failure described by `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), why);
    }

    /// `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages.push(why());
        }
    }
}

/// A per-layer value: measured, or not measurable here and why.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    Value(f64),
    Unmeasured(&'static str),
}

/// Per-layer readings of one traced pass, by catalog name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Reading>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::per_layer(name).is_some(),
            "{name} is not in the catalog"
        );
        self.0.insert(name, Reading::Value(value));
    }

    pub fn unmeasured(&mut self, name: &'static str, why: &'static str) {
        assert!(
            catalog::per_layer(name).is_some(),
            "{name} is not in the catalog"
        );
        self.0.insert(name, Reading::Unmeasured(why));
    }

    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.0.get(name)
    }
}

/// What a workload's traced pass works with.
pub struct TraceCtx<'a> {
    pub tracer: &'a mut Tracer,
    pub layers: &'a mut Layers,
    /// Median end-to-end iteration measured just before, milliseconds.
    pub iter_ms_p50: f64,
    /// Wall-clock budget for the replay iterations, seconds.
    pub replay_seconds: f64,
    /// Fewest replay iterations, whatever the budget.
    pub min_replays: usize,
    pub quick: bool,
}

/// One output of a workload that `expected/seed42.json` pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    pub section: &'static str,
    pub key: String,
    pub value: String,
    /// Whether the output is the same for every seed (else it is pinned
    /// for the default seed only).
    pub every_seed: bool,
}

/// One workload, set up from a seed.
pub trait Workload {
    /// One timed unit of work. Keeps its output for [`Workload::verify`].
    fn iterate(&mut self);

    /// Check the last iteration's output (untimed) and return the work
    /// units it completed. The first call fixes the reference every
    /// later iteration must equal.
    fn verify(&mut self, checks: &mut Checks) -> u64;

    /// Cross-checks made once per run, after the timed loop: a second
    /// implementation or a cache-off run must give the same output.
    fn check_once(&mut self, checks: &mut Checks);

    /// The reference iteration's outputs in the form `expected/` pins
    /// them. Empty when the inputs are not the pinned ones (`quick`).
    fn pins(&self) -> Vec<Pin>;

    /// The traced pass: replay the layers the iteration went through
    /// under spans, measure the off-path rows, fill `ctx.layers`.
    fn trace(&mut self, ctx: &mut TraceCtx<'_>, checks: &mut Checks);
}

/// Hold the workload's outputs against `expected/seed42.json`: every
/// pin that applies to this seed must be in the file and equal.
fn check_pins(w: &dyn Workload, seed: u64, checks: &mut Checks) {
    for pin in w.pins() {
        if !(pin.every_seed || seed == workloads::DEFAULT_SEED) {
            continue;
        }
        let want = workloads::expected_str(pin.section, &pin.key);
        checks.op(want.as_deref() == Some(pin.value.as_str()), || {
            format!(
                "{}.{}: {} != pinned {}",
                pin.section,
                pin.key,
                pin.value,
                want.as_deref().unwrap_or("(nothing)")
            )
        });
    }
}

/// One iteration of every workload on the default seed, as the
/// document `expected/seed42.json` holds (`pins` subcommand).
pub fn current_pins() -> Value {
    rayon::set_num_threads(host::bench_threads());
    let mut sections: Vec<(String, Value)> = Vec::new();
    for info in &catalog::WORKLOADS {
        let mut w = workloads::build(info.name, workloads::DEFAULT_SEED, false);
        w.iterate();
        w.verify(&mut Checks::default());
        for pin in w.pins() {
            let entry = (pin.key, Value::Str(pin.value));
            match sections.iter_mut().find(|(name, _)| name == pin.section) {
                Some((_, Value::Obj(members))) => {
                    if !members.contains(&entry) {
                        members.push(entry);
                    }
                }
                _ => sections.push((pin.section.to_string(), Value::Obj(vec![entry]))),
            }
        }
    }
    Value::Obj(sections)
}

/// `{"value": v, "unit": u}`, the shape every reported number has.
fn measured(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

/// Metrics of one finished pass.
pub struct PassResult {
    pub opts: RunOpts,
    pub checks: Checks,
    pub iters: usize,
    /// `(name, unit, reading)` in catalog order.
    pub metrics: Vec<(&'static str, &'static str, Reading)>,
    /// Timed pass only, reported but not gated: the calibrated 75th
    /// percentile, the raw wall-clock twins of the calibrated timings,
    /// and the host's kernel time. Printed and kept in the detail file;
    /// not part of the contract line.
    pub extras: Vec<(&'static str, &'static str, f64)>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The one-line JSON object the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`. A per-layer metric this
    /// workload does not measure reads 0.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, reading)| {
            let value = match reading {
                Reading::Value(v) => *v,
                Reading::Unmeasured(_) => 0.0,
            };
            (*name, measured(value, unit))
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }

    /// The detail file: the same numbers plus what the contract line
    /// has no room for (iterations, threads, reasons).
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|(name, unit, reading)| {
            let body = match reading {
                Reading::Value(v) => measured(*v, unit),
                Reading::Unmeasured(why) => Value::obj([
                    ("value", Value::str("unmeasured")),
                    ("unit", Value::str(*unit)),
                    ("reason", Value::str(*why)),
                ]),
            };
            (*name, body)
        });
        Value::obj([
            ("workload", Value::str(self.opts.workload.as_str())),
            ("seed", Value::Num(self.opts.seed as f64)),
            ("trace", Value::Bool(self.opts.trace)),
            ("seconds", Value::Num(self.opts.seconds)),
            ("quick", Value::Bool(self.opts.quick)),
            ("iters", Value::Num(self.iters as f64)),
            ("nproc", Value::Num(host::nproc() as f64)),
            ("threads", Value::Num(host::bench_threads() as f64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            (
                "failures",
                Value::Arr(self.checks.messages.iter().map(Value::str).collect()),
            ),
            ("metrics", Value::obj(metrics)),
            (
                "extras",
                Value::obj(
                    self.extras
                        .iter()
                        .map(|(name, unit, v)| (*name, measured(*v, unit))),
                ),
            ),
        ])
    }

    /// Human-readable metric lines: every metric by name with its unit.
    pub fn print(&self) {
        let info = catalog::workload(&self.opts.workload).expect("known workload");
        println!(
            "# {} seed={} trace={} iters={} threads={} attempted={} failed={}",
            self.opts.workload,
            self.opts.seed,
            u8::from(self.opts.trace),
            self.iters,
            host::bench_threads(),
            self.checks.attempted,
            self.checks.failed
        );
        for (name, unit, reading) in &self.metrics {
            match reading {
                Reading::Value(v) => println!("{:<34} {v:>16.6} {unit}", name),
                Reading::Unmeasured(why) => {
                    println!("{:<34} {:>16} {unit}  ({why})", name, "unmeasured")
                }
            }
            if *name == "work_per_s" {
                if let Reading::Value(v) = reading {
                    println!("{:<34} {v:>16.6} 1/s", format!("{}_per_s", info.work_unit));
                }
            }
        }
        for (name, unit, v) in &self.extras {
            println!("{:<34} {v:>16.6} {unit}  (not gated)", name);
        }
        for msg in &self.checks.messages {
            println!("FAIL: {msg}");
        }
    }
}

/// Where artifacts go: `out/` beside the package manifest.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest_dir.join("out")
}

fn write_out(name: &str, doc: &Value) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(name), doc.to_pretty())
}

/// Name of a pass's detail file under [`out_dir`].
pub fn detail_file(workload: &str, trace: bool) -> String {
    format!("{}_{workload}.json", if trace { "layers" } else { "e2e" })
}

/// Run one pass of one workload in this process.
pub fn run_pass(opts: &RunOpts, process_start: Instant) -> Result<PassResult, String> {
    if catalog::workload(&opts.workload).is_none() {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    let set = host::forbidden_env_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: they change what the measured code does",
            set.join(", ")
        ));
    }
    rayon::set_num_threads(host::bench_threads());
    let result = if opts.trace {
        traced_pass(opts)
    } else {
        timed_pass(opts, process_start)
    }?;
    write_out(&detail_file(&opts.workload, opts.trace), &result.detail())
        .map_err(|e| format!("cannot write under {}: {e}", out_dir().display()))?;
    Ok(result)
}

/// Build the workload and run its warm-up iterations.
fn set_up(opts: &RunOpts, checks: &mut Checks) -> Box<dyn Workload> {
    let mut w = workloads::build(&opts.workload, opts.seed, opts.quick);
    let warmups = if opts.quick { 1 } else { WARMUP_ITERATIONS };
    for _ in 0..warmups {
        w.iterate();
        w.verify(checks);
    }
    w
}

/// Timed iterations until both the time budget and the sample floor are
/// met. Returns each iteration's timing and the work units completed.
fn timed_loop(
    w: &mut dyn Workload,
    cal: &mut Calibrator,
    seconds: f64,
    min_iters: usize,
    checks: &mut Checks,
) -> (Vec<Timing>, u64) {
    let mut samples = Vec::new();
    let mut work = 0;
    let begun = Instant::now();
    while samples.len() < min_iters || begun.elapsed().as_secs_f64() < seconds {
        samples.push(cal.time(|| w.iterate()));
        work += w.verify(checks);
    }
    (samples, work)
}

fn timed_pass(opts: &RunOpts, process_start: Instant) -> Result<PassResult, String> {
    let mut checks = Checks::default();
    let mut cal = Calibrator::default();
    // Set-up, several times over so `setup_s` is a median; the first
    // one also carries everything since the process started.
    let repeats = if opts.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut workload = None;
    for k in 0..repeats {
        drop(workload.take());
        let kernel_before = cal.kernel();
        let started = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        workload = Some(set_up(opts, &mut checks));
        setups.push(cal.finish(started, kernel_before));
    }
    let mut w = workload.expect("at least one set-up");

    let min_iters = if opts.quick { 2 } else { MIN_TIMED_SAMPLES };
    let seconds = if opts.quick { 0.0 } else { opts.seconds };
    let (samples, work) = timed_loop(w.as_mut(), &mut cal, seconds, min_iters, &mut checks);
    w.check_once(&mut checks);
    check_pins(w.as_ref(), opts.seed, &mut checks);

    let calibrated = |ts: &[Timing]| ts.iter().map(|t| t.calibrated).collect::<Vec<_>>();
    let wall = |ts: &[Timing]| ts.iter().map(|t| t.wall).collect::<Vec<_>>();
    let summary = summarize(&calibrated(&samples), min_iters)?;
    let value = |name: &str| match name {
        "setup_s" => median(&calibrated(&setups)),
        "iter_ms_p50" => summary.p50 * 1e3,
        "work_per_s" => work as f64 / summary.total,
        "peak_rss_mb" => host::peak_rss_mb().unwrap_or(f64::NAN),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, Reading::Value(value(m.name))))
        .collect();
    let raw = summarize(&wall(&samples), min_iters)?;
    Ok(PassResult {
        opts: opts.clone(),
        checks,
        iters: summary.n,
        metrics,
        extras: vec![
            ("iter_ms_p75", "ms", summary.p75 * 1e3),
            ("setup_wall_s", "s", median(&wall(&setups))),
            ("iter_wall_ms_p50", "ms", raw.p50 * 1e3),
            ("iter_wall_ms_p75", "ms", raw.p75 * 1e3),
            ("work_per_wall_s", "1/s", work as f64 / raw.total),
            ("host_kernel_ms", "ms", cal.median_kernel_secs() * 1e3),
        ],
    })
}

/// Cost of one `Instant::now()` pair, nanoseconds.
fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

fn traced_pass(opts: &RunOpts) -> Result<PassResult, String> {
    let mut checks = Checks::default();
    let mut w = set_up(opts, &mut checks);

    // Reference end-to-end iterations, untraced: what the replay's
    // layer times are a share of.
    let (min_ref, min_replays) = if opts.quick { (2, 1) } else { (10, 5) };
    let seconds = if opts.quick { 0.0 } else { opts.seconds };
    // Raw wall time here: the replay's span times it is compared with
    // are raw too, taken in the same process moments later.
    let mut cal = Calibrator::default();
    let (samples, _) = timed_loop(w.as_mut(), &mut cal, seconds * 0.3, min_ref, &mut checks);
    let wall: Vec<f64> = samples.iter().map(|t| t.wall).collect();
    let reference = summarize(&wall, min_ref)?;

    let mut tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let mut ctx = TraceCtx {
        tracer: &mut tracer,
        layers: &mut layers,
        iter_ms_p50: reference.p50 * 1e3,
        replay_seconds: seconds * 0.3,
        min_replays,
        quick: opts.quick,
    };
    w.trace(&mut ctx, &mut checks);
    w.check_once(&mut checks);
    check_pins(w.as_ref(), opts.seed, &mut checks);

    layers.set("bench.iters", reference.n as f64);
    layers.set("bench.iter_ms_p75", reference.p75 * 1e3);
    layers.set("bench.threads", host::bench_threads() as f64);
    layers.set("bench.timer_ns", timer_ns());
    layers.set("bench.host_kernel_ms", cal.median_kernel_secs() * 1e3);
    layers.set(
        "bench.fail_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    write_out(
        &format!("trace_{}.json", opts.workload),
        &tracer.to_json(&opts.workload),
    )
    .map_err(|e| format!("cannot write under {}: {e}", out_dir().display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let reading = match layers.get(m.name) {
                Some(r) => r.clone(),
                None if m.on.contains(&opts.workload.as_str()) => {
                    Reading::Unmeasured("the traced pass did not produce it")
                }
                None => Reading::Unmeasured("not on this workload's path"),
            };
            (m.name, m.unit, reading)
        })
        .collect();
    Ok(PassResult {
        opts: opts.clone(),
        checks,
        iters: reference.n,
        metrics,
        extras: Vec::new(),
    })
}
