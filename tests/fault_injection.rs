//! The CI fault matrix: determinism and graceful degradation of the
//! resilient pipeline executors under injected storage/compute faults.
//!
//! Three layers of guarantee, each exercised end-to-end through the
//! public API:
//!
//! 1. **Inert scenarios are free.** An empty [`FaultPlan`] must reproduce
//!    the clean entry point bit-for-bit (energy, times) across the paper's
//!    whole 2 × 3 configuration matrix.
//! 2. **Seeded runs replay exactly.** Every fault decision derives from
//!    the plan's seed in sim-time, never from thread interleaving — so a
//!    faulted run's [`Run::digest`] carries its fault stats and
//!    `des_identity` pins it per seed, and a native run's frames and stats
//!    are equal on a second run. The CI `fault-matrix` job runs this test
//!    once per seed in {1, 42, 1337}; `FAULT_SEED` narrows the seed list
//!    for a single matrix cell.
//! 3. **No plan can wedge the pipeline.** Property test: an *arbitrary*
//!    random plan either completes with a degraded-but-consistent report
//!    (energy attribution tiles to 1e-6, output accounting closes, the
//!    native Cinema index matches the frames actually written) or fails
//!    with a typed [`PipelineError`] — never a panic, never a hang
//!    (wall-clock watchdog). Post-hoc behind a burst buffer and native
//!    post-hoc are held to the same contract at the `FAULT_SEED` seeds.

use insitu_vis::fault::{FaultKind, FaultPlan, FaultScenario, FaultWindow};
use insitu_vis::pipeline::campaign::{Campaign, Plan, Run};
use insitu_vis::pipeline::native::{execute, NativeConfig, NativePlan, NativeRun};
use insitu_vis::pipeline::{PipelineConfig, PipelineError, PipelineKind};
use insitu_vis::sim::SimDuration;
use insitu_vis::storage::burst_buffer::BurstBufferConfig;
use ivis_obs::{to_jsonl, Recorder};
use proptest::prelude::*;

/// Seeds under test: `FAULT_SEED` (comma-separated) or the CI defaults.
fn fault_seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEED") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("FAULT_SEED must be u64 list"))
            .collect(),
        Err(_) => vec![1, 42, 1337],
    }
}

/// `pc` on the whole machine under `scenario`.
fn execute_faulted(
    campaign: &Campaign,
    pc: &PipelineConfig,
    scenario: &FaultScenario,
) -> Result<Run, PipelineError> {
    campaign.execute(&Plan {
        faults: Some(scenario.clone()),
        ..Plan::new(pc.clone())
    })
}

/// A native `kind` run under `scenario`, untraced, at the default depth.
fn run_native_faulted(
    cfg: &NativeConfig,
    kind: PipelineKind,
    scenario: &FaultScenario,
) -> NativeRun {
    let plan = NativePlan {
        faults: Some(scenario.clone()),
        ..NativePlan::new(cfg.clone(), kind)
    };
    execute(&plan, &Recorder::off()).expect("a valid native plan")
}

/// The native plans of the seed matrix: transient I/O failures at 40 %
/// over the whole run.
fn native_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).inject(
        FaultWindow::of_secs(0, 1_000_000),
        FaultKind::TransientIo { fail_prob: 0.4 },
    )
}

#[test]
fn empty_plan_reproduces_clean_runs_across_paper_matrix() {
    let campaign = Campaign::paper();
    let none = FaultScenario::none();
    for pc in PipelineConfig::paper_matrix() {
        let clean = campaign.run(&pc);
        let faulted = execute_faulted(&campaign, &pc, &none).expect("empty scenario cannot fail");
        let m = &faulted.metrics;
        assert_eq!(clean.execution_time, m.execution_time, "{:?}", pc.kind);
        assert_eq!(
            clean.energy_total().joules().to_bits(),
            m.energy_total().joules().to_bits(),
            "energy must be bit-identical for {:?}@{}h",
            pc.kind,
            pc.rate.every_hours
        );
        assert_eq!(faulted.stats.outputs_written, clean.num_outputs);
        assert_eq!(faulted.stats.injected_io_failures, 0);
    }
}

#[test]
fn seeded_digest_and_trace_are_bit_identical_across_thread_counts() {
    for seed in fault_seeds() {
        let plan = FaultPlan::random(seed, SimDuration::from_secs(1_300));
        for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
            let pc = PipelineConfig::paper(kind, 8.0);
            let mut campaign = Campaign::paper_noisy(seed);
            let rec = Recorder::in_memory();
            campaign.config.recorder = rec.clone();
            let run = execute_faulted(&campaign, &pc, &FaultScenario::with_plan(plan.clone()))
                .expect("random plans degrade runs, they do not kill them");
            let digest = run.digest();
            let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
            assert!(
                digest.contains("written="),
                "digest must carry fault stats: {digest}"
            );
            assert!(!trace.is_empty(), "traced run must emit spans");
        }
    }
}

#[test]
fn buffered_posthoc_degrades_gracefully_or_fails_typed() {
    // The burst buffer is a storage tier of the post-hoc chain, so the raw
    // dumps it absorbs retry, shed and degrade like any other write.
    for seed in fault_seeds() {
        let mut campaign = Campaign::paper();
        let rec = Recorder::in_memory();
        campaign.config.recorder = rec.clone();
        let plan = Plan {
            burst_buffer: Some(BurstBufferConfig::two_tb_nvram()),
            faults: Some(FaultScenario::with_plan(FaultPlan::random(
                seed,
                SimDuration::from_secs(1_300),
            ))),
            ..Plan::new(PipelineConfig::paper(PipelineKind::PostProcessing, 8.0))
        };
        match campaign.execute(&plan) {
            Ok(run) => {
                assert_eq!(run.stats.outputs_total(), 540, "seed {seed}");
                assert_eq!(run.metrics.num_outputs, run.stats.outputs_written);
                let residual = campaign
                    .attribution(&run.metrics)
                    .expect("recorder is on")
                    .residual()
                    .joules()
                    .abs();
                assert!(residual < 1e-6, "seed {seed}: residual {residual} J");
            }
            Err(PipelineError::Storage { .. } | PipelineError::RetriesExhausted { .. }) => {}
            Err(e) => panic!("seed {seed}: buffered post-hoc reported {e}"),
        }
    }
}

#[test]
fn seeded_native_run_replays_bit_identically() {
    // The native backend really renders and encodes PNGs; faults there
    // are injected against *simulated* time, so the artifact set must
    // also be a pure function of the seed.
    let cfg = NativeConfig::tiny();
    for seed in fault_seeds() {
        let scenario = FaultScenario::with_plan(native_plan(seed));
        let replay = || {
            let out = run_native_faulted(&cfg, PipelineKind::InSitu, &scenario);
            let frames: Vec<Vec<u8>> = out
                .report
                .cinema
                .entries()
                .iter()
                .map(|e| e.data.clone())
                .collect();
            (out.report.cinema.index_json(), frames, out.stats.digest())
        };
        let first = replay();
        assert_eq!(replay(), first, "seed {seed}: the replay differs");
        let (index, frames, stats) = first;
        assert_eq!(
            index.matches("\"file\":").count(),
            frames.len(),
            "Cinema index must list exactly the frames written (seed {seed}): {stats}"
        );
    }
}

#[test]
fn native_posthoc_sheds_whole_samples_and_replays_bit_identically() {
    // Post-processing stores each sample's raw dump under the same fault
    // policy: a shed sample leaves no raw file and so no frame. Twelve
    // samples, so the degradation state machine has room to act.
    let cfg = NativeConfig {
        output_every: 2,
        ..NativeConfig::tiny()
    };
    for seed in fault_seeds() {
        let scenario = FaultScenario::with_plan(native_plan(seed));
        let replay = || {
            let rec = Recorder::in_memory();
            let plan = NativePlan {
                faults: Some(scenario.clone()),
                ..NativePlan::new(cfg.clone(), PipelineKind::PostProcessing)
            };
            let out = execute(&plan, &rec).expect("a valid native plan");
            // One read phase per raw file the second pass found.
            let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
            let raw_files = trace.matches("\"name\":\"read\"").count() as u64;
            let r = &out.report;
            assert_eq!(r.cinema.len() as u64, r.frames, "seed {seed}");
            (out.digest(), out.stats.clone(), r.frames, raw_files)
        };
        let first = replay();
        assert_eq!(replay(), first, "seed {seed}: the replay differs");
        let (digest, stats, frames, raw_files) = first;
        assert_eq!(
            stats.outputs_shed + stats.outputs_written,
            12,
            "seed {seed}"
        );
        assert_eq!(frames, stats.outputs_written, "seed {seed}");
        assert_eq!(raw_files, stats.outputs_written, "seed {seed}");
        assert!(
            stats.injected_io_failures > 0,
            "seed {seed}: the plan must bite"
        );
        assert_eq!(digest.len(), 16);
    }
}

/// Run `f` under a wall-clock watchdog: the property is that no fault
/// plan can make a pipeline hang, so a run that outlives the timeout is
/// itself a failure.
fn with_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("faulted pipeline run wedged: watchdog expired");
    worker.join().expect("worker panicked");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_plan_degrades_gracefully_or_fails_typed(
        seed in 0u64..1_000_000,
        horizon_s in 60u64..5_000,
    ) {
        let plan = FaultPlan::random(seed, SimDuration::from_secs(horizon_s));
        let scenario = FaultScenario::with_plan(plan);
        let outcome = with_watchdog(move || {
            let mut campaign = Campaign::paper();
            let rec = Recorder::in_memory();
            campaign.config.recorder = rec.clone();
            let pc = PipelineConfig::paper(PipelineKind::PostProcessing, 24.0);
            let n_out = pc.spec.num_outputs(pc.rate);
            let result = execute_faulted(&campaign, &pc, &scenario);
            let residual = result.as_ref().ok().and_then(|run| {
                campaign
                    .attribution(&run.metrics)
                    .map(|att| att.residual().joules().abs())
            });
            (result, n_out, residual)
        });
        let (result, n_out, residual) = outcome;
        match result {
            Ok(run) => {
                // Degraded but consistent: every scheduled output is
                // accounted for (written, degradation-shed, or shed on
                // disk pressure), energy is finite, and the per-phase
                // attribution still tiles the metered total.
                prop_assert_eq!(run.stats.outputs_total(), n_out);
                prop_assert!(run.metrics.energy_total().joules().is_finite());
                prop_assert!(run.retry_energy.joules() >= 0.0);
                let residual = residual.expect("recorder was on");
                prop_assert!(residual < 1e-6, "attribution residual {residual} J");
            }
            // The typed failure paths are the only acceptable errors.
            Err(PipelineError::Storage { .. }) | Err(PipelineError::RetriesExhausted { .. }) => {}
            // The campaign backend never decodes raw frame bytes and the
            // paper configuration is valid and lasts minutes, so any of
            // these would be a bug.
            Err(
                e @ (PipelineError::CorruptFrame { .. }
                | PipelineError::InvalidConfig { .. }
                | PipelineError::MakespanPastBudget { .. }),
            ) => prop_assert!(false, "campaign executor reported {e}"),
        }
    }

    #[test]
    fn any_plan_keeps_native_cinema_index_consistent(
        seed in 0u64..1_000_000,
        fail_prob in 0.0f64..1.0,
    ) {
        let plan = FaultPlan::new(seed).inject(
            FaultWindow::of_secs(0, 1_000_000),
            FaultKind::TransientIo { fail_prob },
        );
        let scenario = FaultScenario::with_plan(plan);
        let out = with_watchdog(move || {
            run_native_faulted(&NativeConfig::tiny(), PipelineKind::InSitu, &scenario)
        });
        // However many frames survive, the index and the image set agree.
        prop_assert_eq!(out.report.frames as usize, out.report.cinema.entries().len());
        prop_assert_eq!(out.report.frames, out.stats.outputs_written);
        prop_assert_eq!(out.stats.outputs_total(), 3);
    }
}
