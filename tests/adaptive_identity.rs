//! The adaptive-trigger executor's determinism contract: every decision
//! the hysteresis controller takes, every PNG it emits and every trace
//! record it writes must be **bit-identical** to what the sequential
//! reference loop produced — pinned under the `adaptive/` keys of
//! `tests/golden/native_identity.txt` — at every thread count and every
//! candidate-grid size. Wall-clock microseconds are the one thing two
//! real executions can never agree on, so traces are normalized before
//! they are pinned; everything else is byte-compared.
//!
//! Also here: the adaptive campaign must beat the fixed 72 h rate at
//! equal recall, and a proptest that the *measured* effective rate — the
//! dynamic output the model consumes — always stays within the
//! configured interval band, whatever the ocean does.

mod common;

use common::{at_all_thread_counts, blob, decisions_line, frames_line, normalize_trace, Golden};
use ivis_bench::adaptive::AdaptiveComparison;
use ivis_core::native::{execute, NativeConfig, NativePlan, NativeRun};
use ivis_core::PipelineKind;
use ivis_obs::{to_jsonl, Recorder};
use ivis_trigger::TriggerConfig;
use proptest::prelude::*;

const CANDIDATE_COUNTS: [usize; 3] = [1, 5, 10];

/// `cfg` under `tc` at the default depth, tracing into `rec`.
fn adaptive(cfg: &NativeConfig, tc: &TriggerConfig, rec: &Recorder) -> NativeRun {
    let plan = NativePlan {
        trigger: Some(tc.clone()),
        ..NativePlan::new(cfg.clone(), PipelineKind::InSitu)
    };
    execute(&plan, rec).expect("a valid adaptive plan")
}

/// One traced run's pinned artifacts: digest, decisions, frames line and
/// the normalized trace.
fn traced(cfg: &NativeConfig, tc: &TriggerConfig) -> [String; 4] {
    let rec = Recorder::in_memory();
    let r = adaptive(cfg, tc, &rec);
    let trace = normalize_trace(&rec.with_buffer(to_jsonl).unwrap());
    assert!(trace.contains("\"start_us\":0"), "normalizer broken?");
    let report = &r.report;
    [
        r.digest(),
        decisions_line(&r.decisions),
        frames_line(&report.cinema, &report.tracks, &report.final_census),
        blob(&trace),
    ]
}

#[test]
fn adaptive_outputs_are_bit_identical_at_all_thread_and_candidate_counts() {
    let golden = Golden::load();
    let tiny = NativeConfig::tiny();
    let small = NativeConfig::small();
    let mut cases: Vec<(String, &NativeConfig, TriggerConfig)> = CANDIDATE_COUNTS
        .iter()
        .map(|&c| (format!("tiny/c{c}"), &tiny, TriggerConfig::new(8, c)))
        .collect();
    // One candidate pinned to the fixed cadence: the fixed pipeline's frames.
    let mut fixed_cadence = TriggerConfig::new(tiny.output_every, 1);
    fixed_cadence.min_interval = tiny.output_every;
    fixed_cadence.max_interval = tiny.output_every;
    cases.push(("tiny/c1-fixed-cadence".into(), &tiny, fixed_cadence));
    // `AdaptiveComparison::default_scenario`'s adaptive campaign.
    let scenario = TriggerConfig::new(small.output_every, 5);
    cases.push(("small/c5".into(), &small, scenario));
    for (key, cfg, tc) in &cases {
        // At the default depth; ivis-core's unit tests sweep depths 1/2/4.
        let [digest, decisions, frames, trace] = at_all_thread_counts(|| traced(cfg, tc));
        golden.check(&format!("adaptive/{key}/digest"), &digest);
        golden.check(&format!("adaptive/{key}/decisions"), &decisions);
        golden.check(&format!("adaptive/{key}/frames"), &frames);
        golden.check(&format!("adaptive/{key}/trace"), &trace);
    }
}

/// The rate lever on the paper's 60 km problem: on the same ocean the
/// hysteresis controller relaxes below the fixed cadence, emits strictly
/// fewer frames, and prices strictly below the fixed 72 h campaign in
/// both energy and storage, at no loss of eddy-track recall.
#[test]
fn adaptive_beats_fixed_72h_at_equal_recall() {
    let c = AdaptiveComparison::default_scenario();
    assert!(c.gate_pass(), "{}", c.gate_summary());
    assert!(
        c.rate_ratio > 1.0,
        "controller should relax on a quiet ocean"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the ocean does, the measured effective rate — the
    /// dynamic output fed to Eq. 6/7 — stays inside the configured
    /// band: no two emissions closer than `min_interval`, none farther
    /// apart than `max_interval` plus one analysis, and the mean
    /// interval at least `min_interval`.
    #[test]
    fn effective_rate_stays_within_configured_bounds(
        analysis_pow in 2u32..4,       // analysis every 4 or 8 steps
        span in 1u32..3,               // max = min << span
        candidates in 1usize..6,
        steps in 16u64..48,
        seed in 0u64..1024,
    ) {
        let analysis = 1u64 << analysis_pow;
        let mut cfg = NativeConfig::tiny();
        cfg.steps = steps;
        cfg.seed = seed;
        let mut tc = TriggerConfig::new(analysis, candidates);
        tc.max_interval = tc.min_interval << span;
        let r = adaptive(&cfg, &tc, &Recorder::off());
        let mut last: Option<u64> = None;
        for d in r.decisions.iter().filter(|d| d.emit) {
            prop_assert!(
                d.interval_steps >= tc.min_interval && d.interval_steps <= tc.max_interval,
                "interval {} outside [{}, {}]",
                d.interval_steps, tc.min_interval, tc.max_interval
            );
            if let Some(prev) = last {
                let gap = d.step - prev;
                prop_assert!(gap >= tc.min_interval, "gap {gap} under min");
                prop_assert!(
                    gap <= tc.max_interval + tc.analysis_interval,
                    "gap {gap} over max"
                );
            }
            last = Some(d.step);
        }
        if r.report.frames > 0 {
            let steps_per_frame = cfg.steps as f64 / r.report.frames as f64;
            prop_assert!(steps_per_frame >= tc.min_interval as f64);
        }
    }
}
