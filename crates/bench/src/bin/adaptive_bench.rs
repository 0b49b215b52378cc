//! Adaptive-trigger benchmark: rate-as-an-output against the fixed 72 h
//! baseline, with the determinism contract asserted before anything is
//! timed.
//!
//! Three contracts from the adaptive-trigger issue land here, and the
//! numbers behind them go to `BENCH_adaptive.json` (or the path given as
//! the first non-flag argument) as a tracked perf trajectory:
//!
//! * **bit-identity** — the adaptive executor must produce one digest at
//!   1, 2 and 8 worker threads (asserted: a nondeterministic trigger is
//!   not worth measuring). Under `--check` the digest must also be the one
//!   the committed `BENCH_adaptive.json` holds;
//! * **the rate lever** — on the same ocean, the hysteresis controller
//!   must emit strictly fewer frames than the fixed cadence and price
//!   strictly below it on the paper's 60 km problem (energy *and*
//!   storage), at no loss of eddy-track recall — a `--check` gate;
//! * **wall trajectory** — the executor's end-to-end wall time rides
//!   along so its host cost stays on the same trajectory as the other
//!   bench artifacts.

use ivis_bench::adaptive::AdaptiveComparison;
use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench};
use ivis_core::native::{execute, NativeConfig, NativePlan};
use ivis_core::PipelineKind;
use ivis_model::MeasuredRate;
use ivis_obs::Recorder;
use ivis_trigger::TriggerConfig;

fn main() {
    let mut bench = Bench::from_args("adaptive");
    let cfg = NativeConfig::small();
    let tc = TriggerConfig::new(cfg.output_every, 5);
    let plan = NativePlan {
        trigger: Some(tc.clone()),
        ..NativePlan::new(cfg.clone(), PipelineKind::InSitu)
    };
    let run = || execute(&plan, &Recorder::off()).expect("a valid adaptive plan");

    // Correctness first: one digest at every thread count.
    let digest = run().digest();
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let got = run().digest();
        assert_eq!(got, digest, "adaptive digest diverged at {threads} threads");
    }
    rayon::set_num_threads(0);
    eprintln!("digest {digest} invariant across 1/2/8 threads");

    // --- the rate lever on the paper's 60 km problem ---
    let cmp = AdaptiveComparison::run(&cfg, &tc);
    eprintln!("gate: {}", cmp.gate_summary());
    bench.gate(cmp.gate_pass(), || {
        format!(
            "the adaptive campaign did not strictly beat the fixed 72 h \
             baseline at equal recall ({})",
            cmp.gate_summary()
        )
    });

    // --- wall trajectory ---
    let wall_s = time_min_s(3, run);

    let (a, f) = (&cmp.adaptive, &cmp.fixed);
    let config = obj! {
        "candidates" => tc.candidates, "analysis_interval" => tc.analysis_interval,
        "min_interval" => tc.min_interval, "max_interval" => tc.max_interval,
        "fixed_output_every" => cfg.output_every,
    };
    let effective = MeasuredRate::from_counts(cfg.steps, a.report.frames).steps_per_output;
    let adaptive = obj! {
        "analyses" => a.decisions.len(), "frames" => a.report.frames,
        "effective_interval_steps" => effective, "rate_ratio" => cmp.rate_ratio,
        "image_bytes" => a.report.image_bytes, "tracks" => cmp.adaptive_recall,
    };
    let fixed = obj! {
        "frames" => f.frames, "image_bytes" => f.image_bytes, "tracks" => cmp.fixed_recall,
    };
    let model = obj! {
        "adaptive_energy_gj" => cmp.adaptive_energy_gj, "fixed_energy_gj" => cmp.fixed_energy_gj,
        "adaptive_storage_gb" => cmp.adaptive_storage_gb, "fixed_storage_gb" => cmp.fixed_storage_gb,
    };
    let rows = vec![obj! { "config" => "pipelined", "wall_s" => wall_s }];
    bench.section("config", config);
    bench.section("digest", digest.into());
    bench.section("adaptive", adaptive);
    bench.section("fixed", fixed);
    bench.section("model_60km", model);
    bench.section("rows", rows.into());
    bench.finish();
}
