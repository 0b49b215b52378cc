//! Adaptive-trigger benchmark: rate-as-an-output against the fixed 72 h
//! baseline, with the determinism contract asserted before anything is
//! timed.
//!
//! Three contracts from the adaptive-trigger issue land here, and the
//! numbers behind them go to `BENCH_adaptive.json` (or the path given as
//! the first non-flag argument) as a tracked perf trajectory:
//!
//! * **bit-identity** — the adaptive executor must produce one digest at
//!   1, 2 and 8 worker threads (a nondeterministic trigger is not worth
//!   measuring). With `--check`, that digest must also be the one the
//!   committed `BENCH_adaptive.json` holds, read before it is overwritten:
//!   the executor is deterministic, so the baseline is the reference;
//! * **the rate lever** — on the same ocean, the hysteresis controller
//!   must emit strictly fewer frames than the fixed cadence and price
//!   strictly below it on the paper's 60 km problem (energy *and*
//!   storage), at no loss of eddy-track recall. With `--check`, exits
//!   nonzero if it does not — the CI gate;
//! * **wall trajectory** — the executor's end-to-end wall time rides
//!   along so its host cost stays on the same trajectory as the other
//!   bench artifacts.

use std::time::Instant;

use ivis_bench::adaptive::AdaptiveComparison;
use ivis_core::adaptive::run_native_adaptive;
use ivis_core::native::NativeConfig;
use ivis_trigger::TriggerConfig;

/// Minimum wall-clock seconds of `f` over `reps` runs (after warmup).
fn time_min_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup + lazy init
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The committed baseline `--check` compares the digest against.
const BASELINE: &str = "BENCH_adaptive.json";

fn main() {
    let mut out_path = BASELINE.to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }
    let baseline = ivis_bench::baseline::load_for_check(check, BASELINE);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let zsim = std::env::var("ZSIM_THREADS").ok();

    let cfg = NativeConfig::small();
    let tc = TriggerConfig::new(cfg.output_every, 5);
    let reps = 3;

    // Correctness first: one digest at every thread count.
    let digest = run_native_adaptive(&cfg, &tc).digest();
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let got = run_native_adaptive(&cfg, &tc).digest();
        assert_eq!(got, digest, "adaptive digest diverged at {threads} threads");
    }
    rayon::set_num_threads(0);
    eprintln!("digest {digest} invariant across 1/2/8 threads");

    // --- the rate lever on the paper's 60 km problem ---
    let cmp = AdaptiveComparison::run(&cfg, &tc);
    let gate_pass = cmp.gate_pass();
    eprintln!(
        "adaptive: {} analyses, {} frames (emit fraction {:.2}), \
         effective interval {:.1} steps ({:.2}x the fixed rate)",
        cmp.adaptive.analyses,
        cmp.adaptive.frames,
        cmp.adaptive.emit_fraction(),
        cmp.adaptive.effective_interval_steps(),
        cmp.rate_ratio
    );
    eprintln!("gate: {}", cmp.gate_summary());

    // --- wall trajectory ---
    let wall_s = time_min_s(reps, || {
        std::hint::black_box(run_native_adaptive(&cfg, &tc));
    });
    eprintln!("wall: {:.3} ms", wall_s * 1e3);

    let json = format!(
        "{{\n  \"host\": {{ \"available_parallelism\": {host_threads}, \"zsim_threads\": {} }},\n  \
         \"config\": {{ \"candidates\": {}, \"analysis_interval\": {}, \"min_interval\": {}, \
         \"max_interval\": {}, \"fixed_output_every\": {} }},\n  \
         \"digest\": \"{digest}\",\n  \
         \"digest_invariant_1_2_8\": true,\n  \
         \"adaptive\": {{ \"analyses\": {}, \"frames\": {}, \"effective_interval_steps\": {:.6}, \
         \"rate_ratio\": {:.6}, \"image_bytes\": {}, \"tracks\": {} }},\n  \
         \"fixed\": {{ \"frames\": {}, \"image_bytes\": {}, \"tracks\": {} }},\n  \
         \"model_60km\": {{ \"adaptive_energy_gj\": {:.6}, \"fixed_energy_gj\": {:.6}, \
         \"adaptive_storage_gb\": {:.6}, \"fixed_storage_gb\": {:.6} }},\n  \
         \"rows\": [\n    {{ \"config\": \"pipelined\", \"wall_s\": {wall_s:.6} }}\n  ],\n  \
         \"rate_gate\": {{ \"adaptive_frames\": {}, \"fixed_frames\": {}, \
         \"adaptive_recall\": {}, \"fixed_recall\": {}, \"pass\": {gate_pass} }}\n}}\n",
        zsim.map_or("null".to_string(), |v| format!("\"{v}\"")),
        tc.candidates,
        tc.analysis_interval,
        tc.min_interval,
        tc.max_interval,
        cfg.output_every,
        cmp.adaptive.analyses,
        cmp.adaptive.frames,
        cmp.adaptive.effective_interval_steps(),
        cmp.rate_ratio,
        cmp.adaptive.image_bytes,
        cmp.adaptive_recall,
        cmp.fixed.frames,
        cmp.fixed.image_bytes,
        cmp.fixed_recall,
        cmp.adaptive_energy_gj,
        cmp.fixed_energy_gj,
        cmp.adaptive_storage_gb,
        cmp.fixed_storage_gb,
        cmp.adaptive.frames,
        cmp.fixed.frames,
        cmp.adaptive_recall,
        cmp.fixed_recall,
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline {
        let pinned = format!("\"digest\": \"{digest}\"");
        let mut failures = Vec::new();
        if !baseline.contains(&pinned) {
            failures.push(format!("digest {digest} is not the one {BASELINE} commits"));
        }
        if !gate_pass {
            failures.push(format!(
                "the adaptive campaign did not strictly beat the fixed 72 h \
                 baseline at equal recall ({})",
                cmp.gate_summary()
            ));
        }
        ivis_bench::baseline::exit_on_failures(&failures);
    }
}
