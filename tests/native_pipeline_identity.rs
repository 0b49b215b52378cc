//! The pipelined native backend is a pure performance transform: every
//! output it produces — PNG bytes, the Cinema index JSON, eddy tracks and
//! census, fault statistics and the recorded trace — must be
//! **bit-identical** to what the sequential loops produced, at every
//! pipeline depth — and so at every thread count, since a depth-*k* run
//! works its frames on *k* threads. Those outputs are pinned under the
//! `native/` keys of `tests/golden/native_identity.txt`. Wall-clock
//! timestamps are the one thing two real executions can never agree on,
//! so traces are normalized (microsecond fields zeroed) before they are
//! pinned; everything else is byte-compared: record order, span tree,
//! names, phases, attrs, and sample values.

mod common;

use common::{blob, frames_line, normalize_trace, Golden};
use ivis_core::native::{execute, NativeConfig, NativePlan, NativeRun};
use ivis_core::PipelineKind;
use ivis_fault::{FaultKind, FaultPlan, FaultScenario, FaultWindow, RetryPolicy};
use ivis_obs::{to_jsonl, Recorder};

const DEPTHS: [usize; 3] = [1, 2, 4];

/// `cfg` as `kind` at `depth` under `scenario`, tracing into `rec`.
fn run(
    cfg: &NativeConfig,
    kind: PipelineKind,
    depth: usize,
    scenario: &FaultScenario,
    rec: &Recorder,
) -> NativeRun {
    let plan = NativePlan {
        depth,
        faults: Some(scenario.clone()),
        ..NativePlan::new(cfg.clone(), kind)
    };
    execute(&plan, rec).expect("a valid plan")
}

/// One traced in-situ run's pinned artifacts: the frames line, the
/// normalized trace and the fault statistics.
fn traced(cfg: &NativeConfig, depth: usize, scenario: &FaultScenario) -> [String; 3] {
    let rec = Recorder::in_memory();
    let out = run(cfg, PipelineKind::InSitu, depth, scenario, &rec);
    let (r, trace) = (&out.report, rec.with_buffer(to_jsonl).unwrap());
    let trace = normalize_trace(&trace);
    assert!(trace.contains("\"start_us\":0"), "normalizer broken?");
    [
        frames_line(&r.cinema, &r.tracks, &r.final_census),
        blob(&trace),
        out.stats.digest(),
    ]
}

fn transient_io(seed: u64, fail_prob: f64, until_s: u64) -> FaultScenario {
    FaultScenario::with_plan(FaultPlan::new(seed).inject(
        FaultWindow::of_secs(0, until_s),
        FaultKind::TransientIo { fail_prob },
    ))
}

#[test]
fn pipelined_outputs_are_bit_identical_to_sequential_at_all_thread_counts() {
    let golden = Golden::load();
    let annotated = NativeConfig {
        annotate: true,
        ..NativeConfig::tiny()
    };
    for (name, cfg) in [
        ("tiny", NativeConfig::tiny()),
        ("tiny-annotate", annotated),
        ("small", NativeConfig::small()),
    ] {
        // A clean run is a faulted run under the empty scenario.
        let none = FaultScenario::none();
        let runs = DEPTHS.map(|d| traced(&cfg, d, &none));
        for [frames, trace, _] in &runs {
            golden.check(&format!("native/{name}/frames"), frames);
            golden.check(&format!("native/{name}/trace"), trace);
        }
    }
}

/// Post-processing: the raw ncdf bytes written, then the frames rendered
/// from them — recorded from the serial two-stage loop, now two pipelined
/// passes of the frame loop.
#[test]
fn postproc_outputs_match_the_sequential_goldens() {
    let golden = Golden::load();
    let annotated = NativeConfig {
        annotate: true,
        ..NativeConfig::tiny()
    };
    for (name, cfg) in [
        ("tiny", NativeConfig::tiny()),
        ("tiny-annotate", annotated),
        ("small", NativeConfig::small()),
    ] {
        let runs = DEPTHS.map(|depth| {
            let rec = Recorder::in_memory();
            let none = FaultScenario::none();
            let r = run(&cfg, PipelineKind::PostProcessing, depth, &none, &rec).report;
            let trace = normalize_trace(&rec.with_buffer(to_jsonl).unwrap());
            [
                frames_line(&r.cinema, &r.tracks, &r.final_census),
                blob(&trace),
                r.raw_bytes.to_string(),
            ]
        });
        for [frames, trace, raw_bytes] in &runs {
            golden.check(&format!("native/{name}/postproc/frames"), frames);
            golden.check(&format!("native/{name}/postproc/trace"), trace);
            golden.check(&format!("native/{name}/postproc/raw_bytes"), raw_bytes);
        }
    }
}

/// `native_bench`'s end-to-end configuration (twelve annotated 720×512
/// frames): the in-situ digest `BENCH_native.json` commits is the one the
/// sequential loop produced, and its post-processing digest is pinned
/// beside it.
#[test]
fn bench_configuration_digest_matches_golden() {
    let cfg = NativeConfig {
        steps: 96,
        output_every: 8,
        image_width: 720,
        image_height: 512,
        annotate: true,
        ..NativeConfig::small()
    };
    // Depths 1 and 4 only: the bench itself re-checks the digest at every
    // depth, and the small configurations above cover depth 2.
    let (golden, none) = (Golden::load(), FaultScenario::none());
    for depth in [1, 4] {
        for (kind, key) in [
            (PipelineKind::InSitu, "native/bench/digest"),
            (PipelineKind::PostProcessing, "native/bench/postproc/digest"),
        ] {
            let out = run(&cfg, kind, depth, &none, &Recorder::off());
            golden.check(key, &out.digest());
        }
    }
}

/// Faulted runs: a shed frame was rendered speculatively, yet leaves no
/// image, no index entry and no Visualize phase, and every fault decision
/// is a function of the plan seed and the frame order alone — never of
/// the depth.
#[test]
fn faulted_outputs_match_the_sequential_goldens() {
    let golden = Golden::load();
    let tiny = NativeConfig::tiny();
    // Twelve frames, so the degradation state machine has room to
    // escalate, shed by level and recover.
    let long = NativeConfig {
        output_every: 2,
        ..NativeConfig::tiny()
    };
    let mut outage = transient_io(1, 1.0, u64::MAX / 2_000_000);
    outage.retry = RetryPolicy::no_retries();
    let mut scenarios = vec![
        ("tiny/fault/none".to_string(), &tiny, FaultScenario::none()),
        ("tiny/fault/outage".to_string(), &tiny, outage),
    ];
    for (name, cfg) in [("tiny", &tiny), ("tiny-12", &long)] {
        let mut pin = |plan: &str, seed, fail_prob, until_s| {
            let scenario = transient_io(seed, fail_prob, until_s);
            scenarios.push((format!("{name}/fault/{plan}-seed{seed}"), cfg, scenario));
        };
        pin("io50", 9, 0.5, u64::MAX / 2_000_000);
        if name == "tiny-12" {
            pin("io80", 9, 0.8, u64::MAX / 2_000_000);
        }
        // The plans of fault_injection.rs::seeded_native_run_replays_bit_identically.
        for seed in [1, 42, 1337] {
            pin("io40", seed, 0.4, 1_000_000);
        }
    }
    for (key, cfg, scenario) in &scenarios {
        let runs = DEPTHS.map(|d| traced(cfg, d, scenario));
        for [frames, trace, stats] in &runs {
            golden.check(&format!("native/{key}/frames"), frames);
            golden.check(&format!("native/{key}/trace"), trace);
            golden.check(&format!("native/{key}/stats"), stats);
        }
    }
}

#[test]
fn normalize_trace_zeroes_only_time_fields() {
    let line = "{\"type\":\"span\",\"id\":3,\"start_us\":12345,\"end_us\":67890,\
                \"attrs\":{\"frame\":7}}\n\
                {\"type\":\"event\",\"t_us\":42,\"attrs\":{\"eddies\":5}}\n\
                {\"type\":\"metric\",\"samples\":[[999,1],[1000,2.5]]}";
    let want = "{\"type\":\"span\",\"id\":3,\"start_us\":0,\"end_us\":0,\
                \"attrs\":{\"frame\":7}}\n\
                {\"type\":\"event\",\"t_us\":0,\"attrs\":{\"eddies\":5}}\n\
                {\"type\":\"metric\",\"samples\":[[0,1],[0,2.5]]}";
    assert_eq!(normalize_trace(line), want);
}
