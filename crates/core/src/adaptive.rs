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
//! Two paths share every per-analysis computation:
//!
//! * [`run_native_adaptive_sequential`] — the strictly-serialized golden
//!   baseline: solve, analyze, decide, maybe emit, repeat.
//! * [`run_native_adaptive`] — the pipelined path: a producer thread
//!   advances the solver and adapts snapshots behind a bounded channel
//!   (the PR 8 depth-*k* hand-off) while the consumer analyzes earlier
//!   snapshots, with the candidate evaluations themselves fanned out on
//!   the worker pool inside [`ivis_trigger::score_viewpoints`].
//!
//! The trigger state is inherently sequential (each decision depends on
//! the previous census), but everything *per snapshot* — segmentation,
//! candidate windows, evaluation renders, entropy, the full-resolution
//! render of the winning camera — is a pure function of the snapshot, so
//! the pipelined consumer computes it all speculatively and the
//! sequential controller only flips the emit bit at commit time. All
//! outputs (PNG bytes, Cinema index, decisions, tracks, digest) are
//! **bit-identical** between both paths at every thread count.

use std::time::{Duration, Instant};

use ivis_cluster::JobPhase;
use ivis_eddy::census::{frame_census, FrameCensus};
use ivis_eddy::features::{extract_features, EddyFeature};
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

use crate::adaptor::{CatalystAdaptor, VizSnapshot};
use crate::native::{note_frame, open_native_root, tracker_for, Fnv1a, NativeConfig, WallTracer};

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
    /// End-to-end wall time (smaller than `wall_sim + wall_viz` on the
    /// pipelined path, where the phases overlap).
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
    /// iff their digests match; the identity tests compare this across
    /// thread counts and against the sequential baseline.
    pub fn digest(&self) -> String {
        let mut h = Fnv1a::default();
        for d in &self.decisions {
            h.eat(&d.step.to_le_bytes());
            h.eat(&[d.emit as u8]);
            h.eat(&d.interval_steps.to_le_bytes());
            h.eat(&d.activity.to_bits().to_le_bytes());
            h.eat(&(d.best_viewpoint as u64).to_le_bytes());
            h.eat(&d.best_entropy_bits.to_bits().to_le_bytes());
        }
        h.eat_outputs(&self.cinema, &self.tracks, &self.final_census);
        h.hex()
    }
}

/// Everything one analysis step computes that is a pure function of the
/// snapshot — safe to run speculatively on any worker.
struct AnalyzedFrame {
    feats: Vec<EddyFeature>,
    census: FrameCensus,
    scores: Vec<ViewpointScore>,
    /// Full-resolution PNG of the winning candidate's window.
    png: Vec<u8>,
    d_worker: Duration,
}

/// Segment, score every candidate, pick the winner and render it at full
/// resolution. The candidate evaluations fan out on the worker pool
/// inside [`score_viewpoints`]; the result is order-collected, so the
/// output is bit-identical at any thread count.
fn analyze_snapshot(
    renderer: &FieldRenderer,
    grid: &Grid,
    vgrid: &ViewpointGrid,
    tc: &TriggerConfig,
    snap: &VizSnapshot,
) -> AnalyzedFrame {
    let t0 = Instant::now();
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
    AnalyzedFrame {
        feats,
        census,
        scores,
        png,
        d_worker: t0.elapsed(),
    }
}

/// Run the adaptive in-situ pipeline natively with solver/analysis
/// pipelining (bounded depth-`k` hand-off, PR 8 style). Outputs are
/// bit-identical to [`run_native_adaptive_sequential`] at every thread
/// count and depth.
pub fn run_native_adaptive(cfg: &NativeConfig, tc: &TriggerConfig) -> AdaptiveReport {
    run_native_adaptive_with(cfg, tc, &Recorder::off())
}

/// [`run_native_adaptive`] with a trace recorder: phase wall times are
/// measured on their own threads and replayed on the virtual sim-time
/// axis in sequential order after the join, so the recorded trace has
/// the same span/event structure as the sequential path's.
pub fn run_native_adaptive_with(
    cfg: &NativeConfig,
    tc: &TriggerConfig,
    rec: &Recorder,
) -> AdaptiveReport {
    tc.validate();
    let depth = crate::native::default_pipeline_depth();
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let grid = model.grid().clone();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let vgrid = ViewpointGrid::spherical(tc.candidates);
    let mut trigger = AdaptiveTrigger::new(tc.clone());
    let mut cinema = CinemaDatabase::new("adaptive-eddies");
    let mut tracker = tracker_for(&grid);
    let root = open_native_root(rec, cfg, "adaptive");
    let mut frames = 0u64;
    let mut decisions: Vec<TriggerDecision> = Vec::new();
    let mut census = frame_census(&[]);
    let mut timings: Vec<(Duration, Duration, Option<FrameCensus>)> = Vec::new();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(Duration, Duration, VizSnapshot)>(depth);
    let (ret_tx, ret_rx) = std::sync::mpsc::channel::<VizSnapshot>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut adaptor = CatalystAdaptor::new();
            let mut step = 0u64;
            while step < cfg.steps {
                let chunk = tc.analysis_interval.min(cfg.steps - step);
                let t0 = Instant::now();
                model.run(chunk);
                let d_sim = t0.elapsed();
                step += chunk;
                let t1 = Instant::now();
                let snap = match ret_rx.try_recv() {
                    Ok(mut recycled) => {
                        adaptor.adapt_into(&model, &mut recycled);
                        recycled
                    }
                    Err(_) => adaptor.adapt(&model),
                };
                let d_adapt = t1.elapsed();
                if tx.send((d_sim, d_adapt, snap)).is_err() {
                    return; // consumer gone (it panicked); just stop
                }
            }
        });
        // Consumer: per-snapshot analysis is speculative and pure (the
        // candidate fan-out runs on the worker pool); only the trigger
        // decision and the commit are sequential.
        while let Ok((d_sim, d_adapt, snap)) = rx.recv() {
            let af = analyze_snapshot(&renderer, &grid, &vgrid, tc, &snap);
            let t_commit = Instant::now();
            let decision = trigger.analyze(snap.timestep, &af.census, &af.scores);
            census = af.census;
            let emitted = if decision.emit {
                tracker.observe(frames, &af.feats);
                cinema.add_encoded(snap.timestep, snap.sim_hours, af.png);
                frames += 1;
                Some(census.clone())
            } else {
                None
            };
            decisions.push(decision);
            let d_commit = t_commit.elapsed();
            timings.push((d_sim, d_adapt + af.d_worker + d_commit, emitted));
            let _ = ret_tx.send(snap); // producer may already be done
        }
    });
    let wall_end_to_end = t_run.elapsed();
    let mut wtr = WallTracer::new(rec);
    let mut wall_sim = Duration::ZERO;
    let mut wall_viz = Duration::ZERO;
    let mut frame_no = 0u64;
    for (d_sim, d_viz, emitted) in &timings {
        wall_sim += *d_sim;
        wtr.phase(JobPhase::Simulate, *d_sim);
        wall_viz += *d_viz;
        wtr.phase(JobPhase::Visualize, *d_viz);
        if let Some(c) = emitted {
            note_frame(rec, wtr.now(), frame_no, c);
            frame_no += 1;
        }
    }
    let image_bytes = cinema.total_bytes();
    if rec.is_on() {
        rec.counter_add(wtr.now(), "native.image_bytes", image_bytes as f64);
    }
    rec.close(wtr.now(), root);
    AdaptiveReport {
        analyses: timings.len() as u64,
        frames,
        total_steps: cfg.steps,
        decisions,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
        image_bytes,
        wall_sim,
        wall_viz,
        wall_end_to_end,
    }
}

/// The strictly-serialized adaptive loop, kept as the golden baseline
/// the pipelined path is tested against: solve a chunk, analyze, decide,
/// maybe emit — one analysis fully commits before the next solver chunk
/// begins.
pub fn run_native_adaptive_sequential(cfg: &NativeConfig, tc: &TriggerConfig) -> AdaptiveReport {
    run_native_adaptive_sequential_with(cfg, tc, &Recorder::off())
}

/// [`run_native_adaptive_sequential`] with a trace recorder.
pub fn run_native_adaptive_sequential_with(
    cfg: &NativeConfig,
    tc: &TriggerConfig,
    rec: &Recorder,
) -> AdaptiveReport {
    tc.validate();
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let grid = model.grid().clone();
    let mut adaptor = CatalystAdaptor::new();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let vgrid = ViewpointGrid::spherical(tc.candidates);
    let mut trigger = AdaptiveTrigger::new(tc.clone());
    let mut cinema = CinemaDatabase::new("adaptive-eddies");
    let mut tracker = tracker_for(&grid);
    let root = open_native_root(rec, cfg, "adaptive");
    let mut wtr = WallTracer::new(rec);
    let mut wall_sim = Duration::ZERO;
    let mut wall_viz = Duration::ZERO;
    let mut frames = 0u64;
    let mut analyses = 0u64;
    let mut decisions: Vec<TriggerDecision> = Vec::new();
    let mut census = frame_census(&[]);
    let mut step = 0u64;
    while step < cfg.steps {
        let chunk = tc.analysis_interval.min(cfg.steps - step);
        let t0 = Instant::now();
        model.run(chunk);
        let d_sim = t0.elapsed();
        wall_sim += d_sim;
        wtr.phase(JobPhase::Simulate, d_sim);
        step += chunk;
        let t1 = Instant::now();
        let snap = adaptor.adapt(&model);
        let af = analyze_snapshot(&renderer, &grid, &vgrid, tc, &snap);
        let decision = trigger.analyze(snap.timestep, &af.census, &af.scores);
        census = af.census;
        let emitted = decision.emit;
        if emitted {
            tracker.observe(frames, &af.feats);
            cinema.add_encoded(snap.timestep, snap.sim_hours, af.png);
        }
        decisions.push(decision);
        analyses += 1;
        let d_viz = t1.elapsed();
        wall_viz += d_viz;
        wtr.phase(JobPhase::Visualize, d_viz);
        if emitted {
            note_frame(rec, wtr.now(), frames, &census);
            frames += 1;
        }
    }
    let image_bytes = cinema.total_bytes();
    if rec.is_on() {
        rec.counter_add(wtr.now(), "native.image_bytes", image_bytes as f64);
    }
    rec.close(wtr.now(), root);
    AdaptiveReport {
        analyses,
        frames,
        total_steps: cfg.steps,
        decisions,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
        image_bytes,
        wall_sim,
        wall_viz,
        wall_end_to_end: t_run.elapsed(),
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
        let cfg = NativeConfig::tiny();
        let tc = tiny_trigger();
        let a = run_native_adaptive(&cfg, &tc);
        let b = run_native_adaptive_sequential(&cfg, &tc);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.cinema.index_json(), b.cinema.index_json());
        assert_eq!(a.tracks, b.tracks);
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
        let fixed = crate::native::run_native_insitu_sequential(&cfg);
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
