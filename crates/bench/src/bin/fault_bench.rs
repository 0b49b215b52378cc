//! Fault-path benchmark: the executors under an **empty** fault plan
//! across the paper's six measured configurations, and one *seeded*
//! fault scenario per pipeline.
//!
//! A clean run is the fault-aware executor under an empty plan — the
//! same code, so there is no second path to price it against; the
//! empty-plan timings are a tracked trajectory of `run_faulted` itself.
//! The seeded runs record [`ivis_core::FaultedRun::digest`], so the
//! artifact doubles as a cross-thread, cross-seed determinism witness.
//!
//! Writes `BENCH_fault.json` (or the path given as the first non-flag
//! argument). With `--check`, exits nonzero if a seeded digest differs
//! from the one the committed `BENCH_fault.json` records.

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench};
use ivis_core::{Campaign, PipelineConfig};
use ivis_fault::{FaultPlan, FaultScenario};
use ivis_sim::SimDuration;

fn main() {
    let mut bench = Bench::from_args("fault");
    let campaign = Campaign::paper();
    let none = FaultScenario::none();

    // --- the empty-plan path across the 2 pipelines × 3 rates matrix ---
    let mut rows = Vec::new();
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("{}@{}h", pc.kind.label(), pc.rate.every_hours);
        let resilient_s = time_min_s(5, || campaign.run_faulted(&pc, &none).unwrap());
        rows.push(obj! { "config" => label, "resilient_s" => resilient_s });
    }
    bench.section("empty_plan", obj! { "rows" => rows });

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
        digests.push(obj! { "config" => label, "digest" => run.digest() });
    }
    bench.section("seeded_digests", digests.into());
    bench.finish();
}
