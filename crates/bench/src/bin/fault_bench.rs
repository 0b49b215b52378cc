//! Fault-path benchmark: the executors under an **empty** fault plan
//! across the paper's six measured configurations, and one *seeded*
//! fault scenario per pipeline.
//!
//! A clean run is the fault-aware executor under an empty plan — the
//! same code, so there is no second path to price it against; the
//! empty-plan timings are a tracked trajectory of `run_faulted` itself
//! (`bench_diff` gates it against the committed generation). The seeded
//! runs record [`ivis_core::FaultedRun::digest`], so the artifact doubles
//! as a cross-thread, cross-seed determinism witness: CI compares the
//! digests produced at `ZSIM_THREADS=1` and `ZSIM_THREADS=8`.
//!
//! Writes `BENCH_fault.json` (or the path given as the first non-flag
//! argument). With `--check`, exits nonzero if a seeded digest differs
//! from the one the committed `BENCH_fault.json` records.

use std::time::Instant;

use ivis_core::{Campaign, PipelineConfig};
use ivis_fault::{FaultPlan, FaultScenario};
use ivis_sim::SimDuration;

/// Minimum wall-clock seconds of `f` over `reps` runs (after warmup).
///
/// Minimum, not median: the work is deterministic, so the best
/// observation is the least-noisy estimate of the true cost.
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

/// The committed baseline `--check` compares digests against.
const BASELINE: &str = "BENCH_fault.json";

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

    let campaign = Campaign::paper();
    let none = FaultScenario::none();

    // --- the empty-plan path across the 2 pipelines × 3 rates matrix ---
    let mut rows = Vec::new();
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("{}@{}h", pc.kind.label(), pc.rate.every_hours);
        let resilient_s = time_min_s(5, || {
            std::hint::black_box(campaign.run_faulted(&pc, &none).unwrap());
        });
        eprintln!("{label:>20}: resilient {:.3} ms", resilient_s * 1e3);
        rows.push(format!(
            "    {{ \"config\": \"{label}\", \"resilient_s\": {resilient_s:.6} }}"
        ));
    }

    // --- seeded determinism witness: digest of one faulted run per kind ---
    // The horizon matches the clean runs' machine wall clock (the
    // 8-hour-rate runs finish inside ~1300–2700 s of simulated time), so
    // the randomly placed windows actually overlap the run.
    let horizon = SimDuration::from_secs(1_300);
    let mut digests = Vec::new();
    for pc in [
        PipelineConfig::paper(ivis_core::PipelineKind::InSitu, 8.0),
        PipelineConfig::paper(ivis_core::PipelineKind::PostProcessing, 8.0),
    ] {
        let scenario = FaultScenario::with_plan(FaultPlan::random(42, horizon));
        let run = campaign
            .run_faulted(&pc, &scenario)
            .expect("random plan at seed 42 completes degraded, not dead");
        let label = format!("{}@{}h/seed42", pc.kind.label(), pc.rate.every_hours);
        eprintln!("{label:>20}: {}", run.digest());
        digests.push((label, run.digest()));
    }

    let digest_json: Vec<String> = digests
        .iter()
        .map(|(label, d)| format!("    {{ \"config\": \"{label}\", \"digest\": \"{d}\" }}"))
        .collect();
    let json = format!(
        "{{\n  \"host\": {{ \"available_parallelism\": {host_threads}, \"zsim_threads\": {} }},\n  \
         \"empty_plan\": {{\n  \"rows\": [\n{}\n  ] }},\n  \
         \"seeded_digests\": [\n{}\n  ]\n}}\n",
        zsim.map_or("null".to_string(), |v| format!("\"{v}\"")),
        rows.join(",\n"),
        digest_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline {
        ivis_bench::baseline::exit_on_failures(&ivis_bench::baseline::digest_mismatches(
            &baseline, &digests,
        ));
    }
}
