//! The adaptive native executor: rate as a *dynamic output*.
//!
//! The fixed native pipelines ([`crate::native`]) sample every
//! `output_every` steps no matter what the ocean is doing. A
//! [`NativePlan`](crate::native::NativePlan) with a `trigger` instead runs
//! the [`ivis_trigger`] loop: every `analysis_interval` steps it scores a
//! spherical grid of candidate viewpoints by Shannon image entropy and
//! Okubo-Weiss census mass, keeps the max-entropy camera, and lets a
//! hysteresis controller widen or tighten the emission interval between
//! configured bounds — so a campaign densely samples eddy births and
//! mergers and coasts through quiet stretches.
//!
//! It is the native frame loop ([`crate::native`]) with a work and a
//! commit policy of its own. The *work* — segmentation, candidate
//! windows, evaluation renders, entropy, the full-resolution render of
//! the winning camera — is a pure function of the snapshot, so up to
//! `depth` analyses run speculatively on the worker pool, with the
//! candidate evaluations fanned out underneath by
//! [`ivis_trigger::score_viewpoints`]. The *commit policy* is the trigger,
//! whose state is inherently sequential; it runs in analysis order and
//! only flips the emit bit. All outputs are therefore **bit-identical** at
//! every depth and thread count (the `adaptive/` keys of
//! `tests/golden/native_identity.txt`).
//!
//! The winner renders through [`FieldRenderer::render`] and
//! [`encode_png`]; `single_candidate_emits_whole_field_views` compares
//! that with the fixed pipelines' `render_frame` on the same frames — the
//! one live differential check between two renderers.

use ivis_cluster::JobPhase;
use ivis_eddy::census::frame_census;
use ivis_eddy::features::extract_features;
use ivis_eddy::segment::segment_eddies;
use ivis_ocean::grid::Grid;
use ivis_trigger::{
    extract_window, score_viewpoints, select_best, AdaptiveTrigger, TriggerConfig, TriggerDecision,
    ViewpointGrid, ViewpointScore,
};
use ivis_viz::png::encode_png;
use ivis_viz::render::FieldRenderer;

use crate::adaptor::VizSnapshot;
use crate::native::{
    render_pass, simulate, Commit, NativeConfig, NativeReport, RenderedFrame, WallTracer,
};
use crate::resilience::PipelineError;

/// One analysis step, a pure function of the snapshot and so safe to run
/// speculatively on any worker: segment, score every candidate, pick the
/// winner and render it at full resolution. [`score_viewpoints`] scores
/// the candidates sequentially; the frame loop runs analyses in parallel.
fn analyze_snapshot(
    renderer: &FieldRenderer,
    grid: &Grid,
    vgrid: &ViewpointGrid,
    tc: &TriggerConfig,
    snap: &VizSnapshot,
) -> (RenderedFrame, Vec<ViewpointScore>) {
    let w = &snap.okubo_weiss;
    let seg = segment_eddies(w, 0.2, 3);
    let feats = extract_features(grid, w, &seg);
    let census = frame_census(&feats);
    let (lx, ly) = grid.extent();
    let scores = score_viewpoints(vgrid, w, &feats, lx, ly, tc);
    let best = select_best(&scores);
    let win = vgrid.views()[best].window(tc.zoom);
    // The winner re-renders at full output resolution from a same-shape
    // resample of its window; for the polar overview this reproduces the
    // fixed pipeline's whole-field frame exactly.
    let sub = extract_window(w, &win, w.nx(), w.ny());
    let png = encode_png(&renderer.render(&sub));
    (RenderedFrame { feats, census, png }, scores)
}

/// The adaptive pass of [`crate::native::execute`]: analyze every
/// `analysis_interval` steps and let the trigger decide, in analysis
/// order, which analyses emit; every decision lands in `decisions`.
pub(crate) fn run(
    cfg: &NativeConfig,
    tc: &TriggerConfig,
    depth: usize,
    wtr: WallTracer,
    decisions: &mut Vec<TriggerDecision>,
) -> Result<NativeReport, PipelineError> {
    let grid = cfg.grid();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let vgrid = ViewpointGrid::spherical(tc.candidates);
    let mut trigger = AdaptiveTrigger::new(tc.clone()).map_err(PipelineError::invalid)?;
    let mut emitted = 0u64;
    render_pass(
        cfg,
        depth,
        wtr,
        JobPhase::Simulate,
        simulate(cfg, tc.analysis_interval),
        |snap| analyze_snapshot(&renderer, &grid, &vgrid, tc, snap),
        // An emit stores the frame under the next emitted-frame number.
        |_, snap, census, scores, _| {
            let decision = trigger.analyze(snap.timestep, census, &scores);
            let verdict = match decision.emit {
                true => Commit::Emit(emitted),
                false => Commit::Skip,
            };
            emitted += u64::from(decision.emit);
            decisions.push(decision);
            verdict
        },
    )
}

#[cfg(test)]
mod tests {
    use ivis_obs::Recorder;

    use super::*;
    use crate::native::{execute, run_native_insitu, NativePlan, NativeRun};
    use crate::PipelineKind;

    fn tiny_trigger() -> TriggerConfig {
        TriggerConfig::new(8, 5)
    }

    fn adaptive(cfg: &NativeConfig, tc: &TriggerConfig, depth: usize) -> NativeRun {
        let plan = NativePlan {
            depth,
            trigger: Some(tc.clone()),
            ..NativePlan::new(cfg.clone(), PipelineKind::InSitu)
        };
        execute(&plan, &Recorder::off()).expect("a valid adaptive plan")
    }

    #[test]
    fn pipelined_matches_sequential_exactly() {
        use crate::golden::{decisions_line, frames_line, Golden};
        let cfg = NativeConfig::tiny();
        let golden = Golden::load();
        // At every depth: analyses run inside the batch fan-out.
        for depth in [1, 2, 4] {
            let r = adaptive(&cfg, &tiny_trigger(), depth);
            golden.check("adaptive/tiny/c5/digest", &r.digest());
            golden.check("adaptive/tiny/c5/decisions", &decisions_line(&r.decisions));
            let frames = frames_line(&r.report.cinema, &r.report.tracks, &r.report.final_census);
            golden.check("adaptive/tiny/c5/frames", &frames);
        }
    }

    #[test]
    fn every_analysis_is_accounted_for() {
        let cfg = NativeConfig::tiny();
        let r = adaptive(&cfg, &tiny_trigger(), 2);
        // 24 steps analyzed every 8 → 3 analyses.
        assert_eq!(r.decisions.len(), 3);
        assert!(r.report.frames >= 1, "first analysis always emits");
        assert!(r.report.frames <= 3);
        assert_eq!(r.report.cinema.len() as u64, r.report.frames);
        assert!(r.report.image_bytes > 0);
        assert_eq!(r.stats.outputs_total(), 0, "no fault session ran");
    }

    #[test]
    fn single_candidate_emits_whole_field_views() {
        // candidates = 1 degenerates to the fixed pipeline's overview
        // camera: with the trigger pinned to the fixed cadence, the
        // emitted PNGs — FieldRenderer::render + encode_png — equal the
        // fixed in-situ pipeline's render_frame output.
        let cfg = NativeConfig::tiny();
        let mut tc = TriggerConfig::new(cfg.output_every, 1);
        tc.min_interval = cfg.output_every;
        tc.max_interval = cfg.output_every;
        let adaptive = adaptive(&cfg, &tc, 2).report;
        let fixed = run_native_insitu(&cfg);
        assert_eq!(adaptive.frames, fixed.frames);
        for (ea, eb) in adaptive.cinema.entries().iter().zip(fixed.cinema.entries()) {
            assert_eq!(ea.timestep, eb.timestep);
            assert_eq!(ea.data, eb.data, "frame {} differs", ea.timestep);
        }
    }

    #[test]
    fn effective_interval_stays_within_band() {
        let cfg = NativeConfig::small();
        let tc = TriggerConfig::new(16, 5);
        let r = adaptive(&cfg, &tc, 2);
        let mut last: Option<u64> = None;
        for d in r.decisions.iter().filter(|d| d.emit) {
            if let Some(prev) = last {
                let gap = d.step - prev;
                assert!(gap >= tc.min_interval, "gap {gap} under min");
                // An emission can only happen at an analysis point, so the
                // widest spacing is max_interval rounded up to the next one.
                assert!(
                    gap <= tc.max_interval + tc.analysis_interval,
                    "gap {gap} over max"
                );
            }
            last = Some(d.step);
        }
        let steps_per_frame = cfg.steps as f64 / r.report.frames as f64;
        assert!(steps_per_frame >= tc.min_interval as f64);
    }

    #[test]
    fn digest_is_replay_stable() {
        let cfg = NativeConfig::tiny();
        let tc = tiny_trigger();
        assert_eq!(
            adaptive(&cfg, &tc, 2).digest(),
            adaptive(&cfg, &tc, 4).digest()
        );
    }

    #[test]
    fn an_inconsistent_trigger_is_a_typed_error_not_a_panic() {
        let mut tc = tiny_trigger();
        tc.min_interval = 64;
        let plan = NativePlan {
            trigger: Some(tc),
            ..NativePlan::new(NativeConfig::tiny(), PipelineKind::InSitu)
        };
        match execute(&plan, &Recorder::off()) {
            Err(PipelineError::InvalidConfig { detail }) => {
                assert!(detail.contains("min_interval 64"), "{detail}")
            }
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|r| r.digest())
            ),
        }
    }
}
