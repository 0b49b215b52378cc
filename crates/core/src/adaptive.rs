//! The adaptive native executor: rate as a *dynamic output*.
//!
//! The fixed native pipelines ([`crate::native`]) sample every
//! `output_every` steps no matter what the ocean is doing. This executor
//! instead runs the [`ivis_trigger`] loop: every `analysis_interval`
//! steps it scores a spherical grid of candidate viewpoints by Shannon
//! image entropy and Okubo-Weiss census mass, keeps the max-entropy
//! camera, and lets a hysteresis controller widen or tighten the
//! emission interval between configured bounds — so a campaign densely
//! samples eddy births and mergers and coasts through quiet stretches.
//!
//! It is the native frame loop ([`crate::native`], "One frame loop") with
//! two closures of its own. The *work* — segmentation, candidate windows,
//! evaluation renders, entropy, the full-resolution render of the winning
//! camera — is a pure function of the snapshot, so the loop computes it
//! speculatively, up to `depth` analyses at a time on the worker pool with
//! the candidate evaluations fanned out underneath by
//! [`ivis_trigger::score_viewpoints`]. The *commit policy* is the trigger:
//! its state is inherently sequential (each decision depends on the
//! previous census), so it runs in analysis order on the calling thread
//! and only flips the emit bit. All outputs (PNG bytes, Cinema index,
//! decisions, tracks, digest) are therefore **bit-identical** at every
//! depth and thread count; the sequential loop this replaced lives on as
//! the `adaptive/` keys of `tests/golden/native_identity.txt`.

use std::time::Duration;

use ivis_eddy::census::{frame_census, FrameCensus};
use ivis_eddy::features::extract_features;
use ivis_eddy::segment::segment_eddies;
use ivis_eddy::tracking::Track;
use ivis_obs::Recorder;
use ivis_ocean::grid::Grid;
use ivis_trigger::{
    extract_window, score_viewpoints, select_best, AdaptiveTrigger, TriggerConfig, TriggerDecision,
    ViewpointGrid, ViewpointScore,
};
use ivis_viz::png::encode_png;
use ivis_viz::render::FieldRenderer;
use ivis_viz::CinemaDatabase;

use crate::adaptor::VizSnapshot;
use crate::native::{
    default_pipeline_depth, frame_loop, outputs_digest, Commit, NativeConfig, RenderedFrame,
};

/// What an adaptive campaign produced.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Analyses performed (one per `analysis_interval` chunk).
    pub analyses: u64,
    /// Frames actually emitted (≤ `analyses`).
    pub frames: u64,
    /// Simulation steps the campaign covered.
    pub total_steps: u64,
    /// Every trigger decision, in analysis order.
    pub decisions: Vec<TriggerDecision>,
    /// The Cinema database of emitted frames.
    pub cinema: CinemaDatabase,
    /// Finished eddy tracks over the *emitted* frames.
    pub tracks: Vec<Track>,
    /// Census at the last analysis.
    pub final_census: FrameCensus,
    /// Image database bytes.
    pub image_bytes: u64,
    /// Wall time in the solver.
    pub wall_sim: Duration,
    /// Wall time analyzing + rendering + tracking.
    pub wall_viz: Duration,
    /// End-to-end wall time (smaller than `wall_sim + wall_viz` at
    /// depth > 1, where the phases overlap).
    pub wall_end_to_end: Duration,
}

impl AdaptiveReport {
    /// The *measured* effective sampling interval, in steps per emitted
    /// frame — the dynamic output Eq. 6/7 consume via
    /// `ivis_model`'s adaptive extension.
    pub fn effective_interval_steps(&self) -> f64 {
        if self.frames == 0 {
            return self.total_steps as f64;
        }
        self.total_steps as f64 / self.frames as f64
    }

    /// Fraction of analyses that emitted a frame.
    pub fn emit_fraction(&self) -> f64 {
        if self.analyses == 0 {
            return 0.0;
        }
        self.frames as f64 / self.analyses as f64
    }

    /// Order-sensitive FNV-1a witness of everything observable: every
    /// decision (step, emit, interval, activity bits, winning candidate
    /// and its entropy bits), the Cinema index, every PNG byte, the
    /// track count and the final census. Two runs are interchangeable
    /// iff their digests match; the identity tests hold this to the
    /// committed goldens across thread counts and depths.
    pub fn digest(&self) -> String {
        let mut head = Vec::new();
        for d in &self.decisions {
            head.extend(d.step.to_le_bytes());
            head.push(d.emit as u8);
            head.extend(d.interval_steps.to_le_bytes());
            head.extend(d.activity.to_bits().to_le_bytes());
            head.extend((d.best_viewpoint as u64).to_le_bytes());
            head.extend(d.best_entropy_bits.to_bits().to_le_bytes());
        }
        outputs_digest(&head, &self.cinema, &self.tracks, &self.final_census)
    }
}

/// One analysis step, a pure function of the snapshot and so safe to run
/// speculatively on any worker: segment, score every candidate, pick the
/// winner and render it at full resolution. The candidate evaluations fan
/// out on the worker pool inside [`score_viewpoints`]; the result is
/// order-collected, so the output is bit-identical at any thread count.
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

/// Run the adaptive in-situ pipeline natively, pipelined like
/// [`crate::native::run_native_insitu`] at the default depth.
pub fn run_native_adaptive(cfg: &NativeConfig, tc: &TriggerConfig) -> AdaptiveReport {
    run_native_adaptive_with(cfg, tc, &Recorder::off())
}

/// [`run_native_adaptive`] with a trace recorder.
pub fn run_native_adaptive_with(
    cfg: &NativeConfig,
    tc: &TriggerConfig,
    rec: &Recorder,
) -> AdaptiveReport {
    adaptive_at_depth(cfg, tc, default_pipeline_depth(), rec)
}

fn adaptive_at_depth(
    cfg: &NativeConfig,
    tc: &TriggerConfig,
    depth: usize,
    rec: &Recorder,
) -> AdaptiveReport {
    tc.validate();
    let grid = cfg.grid();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let vgrid = ViewpointGrid::spherical(tc.candidates);
    let mut trigger = AdaptiveTrigger::new(tc.clone());
    let mut decisions: Vec<TriggerDecision> = Vec::new();
    let mut emitted = 0u64;
    let run = frame_loop(
        cfg,
        tc.analysis_interval,
        depth,
        rec,
        "adaptive",
        |snap| analyze_snapshot(&renderer, &grid, &vgrid, tc, snap),
        // The trigger policy: every analysis is decided in order; an emit
        // stores the frame under the next emitted-frame number.
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
    );
    AdaptiveReport {
        analyses: decisions.len() as u64,
        frames: run.frames,
        total_steps: cfg.steps,
        decisions,
        cinema: run.cinema,
        tracks: run.tracks,
        final_census: run.final_census,
        image_bytes: run.image_bytes,
        wall_sim: run.wall_sim,
        wall_viz: run.wall_viz,
        wall_end_to_end: run.wall_end_to_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trigger() -> TriggerConfig {
        TriggerConfig::new(8, 5)
    }

    #[test]
    fn pipelined_matches_sequential_exactly() {
        use crate::golden::{decisions_line, frames_line, Golden};
        let cfg = NativeConfig::tiny();
        let golden = Golden::load();
        // At every depth: analyses run inside the batch fan-out, with the
        // candidate fan-out underneath.
        for depth in [1, 2, 4] {
            let r = adaptive_at_depth(&cfg, &tiny_trigger(), depth, &Recorder::off());
            golden.check("adaptive/tiny/c5/digest", &r.digest());
            golden.check("adaptive/tiny/c5/decisions", &decisions_line(&r.decisions));
            let frames = frames_line(&r.cinema, &r.tracks, &r.final_census);
            golden.check("adaptive/tiny/c5/frames", &frames);
        }
    }

    #[test]
    fn every_analysis_is_accounted_for() {
        let cfg = NativeConfig::tiny();
        let r = run_native_adaptive(&cfg, &tiny_trigger());
        // 24 steps analyzed every 8 → 3 analyses.
        assert_eq!(r.analyses, 3);
        assert_eq!(r.decisions.len(), 3);
        assert!(r.frames >= 1, "first analysis always emits");
        assert!(r.frames <= r.analyses);
        assert_eq!(r.cinema.len() as u64, r.frames);
        assert!(r.image_bytes > 0);
    }

    #[test]
    fn single_candidate_emits_whole_field_views() {
        // candidates = 1 degenerates to the fixed pipeline's overview
        // camera: with the trigger pinned to the fixed cadence, the
        // emitted PNGs equal the fixed in-situ pipeline's frames.
        let cfg = NativeConfig::tiny();
        let mut tc = TriggerConfig::new(cfg.output_every, 1);
        tc.min_interval = cfg.output_every;
        tc.max_interval = cfg.output_every;
        let adaptive = run_native_adaptive(&cfg, &tc);
        let fixed = crate::native::run_native_insitu(&cfg);
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
        let r = run_native_adaptive(&cfg, &tc);
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
        assert!(r.effective_interval_steps() >= tc.min_interval as f64);
    }

    #[test]
    fn digest_is_replay_stable() {
        let cfg = NativeConfig::tiny();
        let tc = tiny_trigger();
        assert_eq!(
            run_native_adaptive(&cfg, &tc).digest(),
            run_native_adaptive(&cfg, &tc).digest()
        );
    }
}
