//! The native (laptop-scale) backend: actually run everything.
//!
//! Where [`crate::campaign`] *models* the paper-scale run on a simulated
//! cluster, this backend really executes the coupled pipeline at a reduced
//! resolution: the shallow-water solver steps, the adaptor copies, the
//! renderer rasterizes PNGs, ncdf files are encoded and decoded, and eddies
//! are tracked — with real wall-clock timing per phase. The examples and the
//! cognitive-fidelity tests (do both pipelines see the *same* eddies?) run
//! on this backend.
//!
//! ## One plan, one frame loop
//!
//! [`execute`] runs one [`NativePlan`]. Every run — in-situ (fixed-rate,
//! faulted or adaptive) and both passes of post-processing — is the same
//! private depth-*k* producer/consumer, `frame_loop`: a producer thread
//! pulls snapshots off a *source* (the solver and adaptor, or the stored
//! raw dumps) while the calling thread works on up to *k* of them
//! **frame-parallel** on the worker pool (the work is a pure function of
//! the deep-copied [`VizSnapshot`]) and commits strictly in frame order
//! under a *commit policy*. In-situ renders, then stores or sheds each
//! frame under a [`FaultSession`] — a clean run **is** a faulted run under
//! [`FaultScenario::none`]; `crate::adaptive` analyzes and lets the
//! trigger decide; post-processing encodes raw dumps and stores or sheds
//! them, then decodes them one at a time and renders every one. A strictly
//! serialized run is depth 1.
//!
//! Chunk placement never changes *what* is computed, so all outputs are
//! **bit-identical** at every depth and thread count; the serial loops
//! this replaced live on as `tests/golden/native_identity.txt`.
//!
//! Both pipelines render through `render_frame`, so comparing their frames
//! checks the raw round trip, not a second renderer; the live differential
//! check between two renderers is
//! `adaptive::single_candidate_emits_whole_field_views`.

use std::cell::RefCell;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ivis_cluster::JobPhase;
use ivis_eddy::census::{frame_census, FrameCensus};
use ivis_eddy::features::{extract_features, EddyFeature};
use ivis_eddy::segment::segment_eddies;
use ivis_eddy::tracking::{EddyTracker, Track};
use ivis_fault::{FaultScenario, FaultSession, FaultStats};
use ivis_obs::{AttrValue, Component, Recorder, SpanId};
use ivis_ocean::grid::Grid;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_ocean::Field2D;
use ivis_sim::SimTime;
use ivis_storage::ncdf::{NcFile, VarData};
use ivis_trigger::{TriggerConfig, TriggerDecision};
use ivis_viz::png::{encoded_png_size, PngEncoder};
use ivis_viz::raster::{ImageBuffer, SampleTables};
use ivis_viz::render::FieldRenderer;
use ivis_viz::CinemaDatabase;
use rayon::prelude::*;

use crate::adaptor::{CatalystAdaptor, VizSnapshot};
use crate::config::PipelineKind;
use crate::resilience::PipelineError;

/// Configuration of a native run.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Cell size, meters.
    pub cell_m: f64,
    /// Timesteps to run.
    pub steps: u64,
    /// Steps between outputs.
    pub output_every: u64,
    /// Random eddies to seed.
    pub num_eddies: usize,
    /// RNG seed for eddy placement.
    pub seed: u64,
    /// Output image width.
    pub image_width: usize,
    /// Output image height.
    pub image_height: usize,
    /// Draw annotations (colorbar, timestep label, velocity arrows) on each
    /// frame, like a presentation-ready ParaView view. Needs an
    /// `image_width` of at least 10 for the colorbar.
    pub annotate: bool,
}

impl NativeConfig {
    /// A seconds-scale demo configuration.
    pub fn small() -> Self {
        NativeConfig {
            nx: 96,
            ny: 64,
            cell_m: 60_000.0,
            steps: 96,
            output_every: 16,
            num_eddies: 6,
            seed: 42,
            image_width: 192,
            image_height: 128,
            annotate: false,
        }
    }

    /// A sub-second configuration for tests.
    pub fn tiny() -> Self {
        NativeConfig {
            nx: 32,
            ny: 24,
            cell_m: 60_000.0,
            steps: 24,
            output_every: 8,
            num_eddies: 3,
            seed: 7,
            image_width: 64,
            image_height: 48,
            annotate: false,
        }
    }

    pub(crate) fn grid(&self) -> Grid {
        Grid::channel(self.nx, self.ny, self.cell_m)
    }

    fn build_model(&self) -> ShallowWaterModel {
        let grid = self.grid();
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        seed_random_eddies(&mut m, self.num_eddies, self.seed);
        m
    }
}

/// One native run. Start from [`NativePlan::new`] and set the rest with
/// struct-update syntax:
///
/// ```
/// use ivis_core::native::{execute, NativeConfig, NativePlan};
/// use ivis_core::PipelineKind;
///
/// let tiny = NativePlan::new(NativeConfig::tiny(), PipelineKind::PostProcessing);
/// let run = execute(&NativePlan { depth: 1, ..tiny }, &ivis_obs::Recorder::off()).unwrap();
/// assert_eq!(run.report.frames, 3); // 24 steps, one sample every 8
/// ```
#[derive(Debug, Clone)]
pub struct NativePlan {
    /// The ocean, the sampling cadence and the images.
    pub config: NativeConfig,
    /// In-situ or post-processing.
    pub kind: PipelineKind,
    /// Frames in flight at once (≥ 1). Outputs never depend on it.
    pub depth: usize,
    /// Analyze every `analysis_interval` steps and let the trigger decide
    /// which analyses emit a frame (in-situ only).
    pub trigger: Option<TriggerConfig>,
    /// Faults to inject and the policies that survive them (not on
    /// adaptive plans).
    pub faults: Option<FaultScenario>,
}

impl NativePlan {
    /// A clean, fixed-rate run of `kind` at [`default_pipeline_depth`].
    pub fn new(config: NativeConfig, kind: PipelineKind) -> Self {
        NativePlan {
            config,
            kind,
            depth: default_pipeline_depth(),
            trigger: None,
            faults: None,
        }
    }

    /// Reject what would hang, panic or mean nothing, before anything runs.
    fn validate(&self) -> Result<(), PipelineError> {
        let cfg = &self.config;
        let problem = match (&self.trigger, self.kind) {
            _ if self.depth == 0 => "pipeline depth must be at least 1",
            _ if cfg.nx < 4 || cfg.ny < 4 => "the grid needs at least 4×4 cells",
            _ if !(cfg.cell_m.is_finite() && cfg.cell_m > 0.0) => {
                "cell size must be finite and positive"
            }
            _ if cfg.image_width == 0 || cfg.image_height == 0 => "images must be at least 1×1",
            _ if cfg.annotate && colorbar_width(cfg.image_width) < 2 => {
                "annotated images must be at least 10 pixels wide for the colorbar"
            }
            (Some(_), PipelineKind::PostProcessing) => {
                "a trigger decides which in-situ analyses emit; post-processing has none"
            }
            (Some(_), _) if self.faults.is_some() => "adaptive runs have no fault model",
            (Some(tc), _) => return tc.validate().map_err(PipelineError::invalid),
            (None, _) if cfg.output_every == 0 => "output_every must be at least 1",
            (None, _) => return Ok(()),
        };
        Err(PipelineError::invalid(problem.to_string()))
    }
}

/// What a native run produced and how long each phase really took.
#[derive(Debug, Clone)]
pub struct NativeReport {
    /// Frames (outputs) produced.
    pub frames: u64,
    /// Wall time in the solver.
    pub wall_sim: Duration,
    /// Wall time adapting + rendering + tracking.
    pub wall_viz: Duration,
    /// Wall time encoding/decoding/storing output.
    pub wall_io: Duration,
    /// End-to-end wall time of the whole run: smaller than the sum of
    /// `wall_sim`, `wall_viz` and `wall_io` at depth > 1, where the source
    /// phases overlap the work.
    pub wall_end_to_end: Duration,
    /// Raw (ncdf) bytes produced — zero for in-situ.
    pub raw_bytes: u64,
    /// Image database bytes.
    pub image_bytes: u64,
    /// The Cinema image database.
    pub cinema: CinemaDatabase,
    /// Finished eddy tracks.
    pub tracks: Vec<Track>,
    /// Census of the final frame.
    pub final_census: FrameCensus,
}

impl NativeReport {
    /// Storage reduction of in-situ relative to a post-processing run
    /// (percent) given this report is the in-situ one.
    pub fn storage_reduction_vs(&self, post: &NativeReport) -> f64 {
        let post_total = (post.raw_bytes + post.image_bytes) as f64;
        let own_total = (self.raw_bytes + self.image_bytes) as f64;
        (post_total - own_total) / post_total * 100.0
    }
}

/// Everything one [`execute`] produced.
#[derive(Debug, Clone)]
pub struct NativeRun {
    /// The usual report. `frames`, the Cinema database and the tracks
    /// cover only the frames actually written — the Cinema index always
    /// matches the images present, however many samples were shed.
    pub report: NativeReport,
    /// What the fault layer did: every sample written or shed on a
    /// fixed-rate run, all zero on an adaptive one.
    pub stats: FaultStats,
    /// Every trigger decision, in analysis order; empty without a trigger.
    pub decisions: Vec<TriggerDecision>,
}

impl NativeRun {
    /// Order-sensitive FNV-1a-64 witness of everything observable: every
    /// trigger decision (step, emit, interval, activity bits, winning
    /// candidate and its entropy bits), the Cinema index, every PNG byte,
    /// the track count and the final census. Two runs are interchangeable
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
        let r = &self.report;
        let index = r.cinema.index_json();
        let tail = [
            r.tracks.len() as u64,
            r.final_census.count as u64,
            r.final_census.total_area_m2.to_bits(),
        ]
        .map(u64::to_le_bytes);
        let parts = [&head[..], index.as_bytes()]
            .into_iter()
            .chain(r.cinema.entries().iter().map(|e| e.data.as_slice()))
            .chain(tail.iter().map(|t| t.as_slice()));
        let h = parts.flatten().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{h:016x}")
    }
}

/// Maps the native backend's wall-clock measurements onto a gap-free
/// virtual [`SimTime`] axis (t = accumulated measured wall time), so the
/// same trace schema, Gantt renderer and timeline tooling work on real
/// runs. Phase spans are recorded after the fact, once their duration is
/// known; the per-phase totals become the report's `wall_*` fields.
pub(crate) struct WallTracer<'a> {
    rec: &'a Recorder,
    root: SpanId,
    kind: &'static str,
    started: Instant,
    elapsed: Duration,
    sim: Duration,
    viz: Duration,
    io: Duration,
}

impl<'a> WallTracer<'a> {
    /// Open the run's root span with its shape.
    fn open(rec: &'a Recorder, cfg: &NativeConfig, kind: &'static str) -> Self {
        let root = rec.span(SimTime::ZERO, "native", Component::Native);
        rec.set_attr(root, "kind", AttrValue::Str(kind));
        rec.set_attr(root, "nx", AttrValue::U64(cfg.nx as u64));
        rec.set_attr(root, "ny", AttrValue::U64(cfg.ny as u64));
        rec.set_attr(root, "steps", AttrValue::U64(cfg.steps));
        WallTracer {
            rec,
            root,
            kind,
            started: Instant::now(),
            elapsed: Duration::ZERO,
            sim: Duration::ZERO,
            viz: Duration::ZERO,
            io: Duration::ZERO,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.elapsed.as_secs_f64())
    }

    /// Record that `phase` just ran for `took` of wall time.
    fn phase(&mut self, phase: JobPhase, took: Duration) {
        let start = self.now();
        self.elapsed += took;
        match phase {
            JobPhase::Simulate => self.sim += took,
            JobPhase::Visualize => self.viz += took,
            _ => self.io += took,
        }
        let id = self.rec.phase_span(start, phase, Component::Native);
        self.rec.close(self.now(), id);
    }

    /// Record one stored frame: event plus frame counter.
    fn frame(&self, frame: u64, census: &FrameCensus) {
        let t = self.now();
        let attrs = [
            ("frame", AttrValue::U64(frame)),
            ("eddies", AttrValue::U64(census.count as u64)),
        ];
        self.rec.event(t, "frame_rendered", Component::Viz, &attrs);
        self.rec.counter_add(t, "native.frames", 1.0);
    }

    /// Close the run — the image-bytes counter, then the root span — and
    /// report what its last pass committed.
    fn finish(self, cinema: CinemaDatabase, tracks: Vec<Track>, last: FrameCensus) -> NativeReport {
        let wall_end_to_end = self.started.elapsed();
        let image_bytes = cinema.total_bytes();
        self.rec
            .counter_add(self.now(), "native.image_bytes", image_bytes as f64);
        self.rec.close(self.now(), self.root);
        NativeReport {
            frames: cinema.len() as u64,
            wall_sim: self.sim,
            wall_viz: self.viz,
            wall_io: self.io,
            wall_end_to_end,
            raw_bytes: 0,
            image_bytes,
            cinema,
            tracks,
            final_census: last,
        }
    }
}

/// Width of an annotated frame's colorbar: a third of the image, at least
/// 40 pixels, and at most the image less 8. Under 2 pixels there is no
/// colorbar to draw, which [`NativePlan::validate`] refuses.
fn colorbar_width(image_width: usize) -> usize {
    (image_width / 3).max(40).min(image_width.saturating_sub(8))
}

/// Draw the presentation-ready overlays (velocity arrows, colorbar, time
/// label) on a rendered frame.
fn annotate_frame(
    renderer: &FieldRenderer,
    img: &mut ImageBuffer,
    snap: &VizSnapshot,
    lo: f64,
    hi: f64,
) {
    use ivis_viz::annotate::{draw_colorbar, draw_text, GLYPH_H};
    use ivis_viz::color::Rgb;
    use ivis_viz::glyphs::overlay_velocity_arrows;
    overlay_velocity_arrows(img, &snap.uc, &snap.vc, 24, Rgb::new(40, 40, 40));
    let bar_w = colorbar_width(img.width());
    let bar_y = img.height().saturating_sub(GLYPH_H + 10);
    draw_colorbar(img, 4, bar_y, bar_w, 6, renderer.colormap, lo, hi);
    let label = format!("T = {:.0} H", snap.sim_hours);
    draw_text(img, 4, 2, &label, Rgb::BLACK);
}

/// Everything a frame worker produced for one snapshot. Commit order (and
/// therefore tracker state and the Cinema index) is imposed by the
/// consumer, not by which worker finished first.
pub(crate) struct RenderedFrame {
    pub(crate) feats: Vec<EddyFeature>,
    pub(crate) census: FrameCensus,
    pub(crate) png: Vec<u8>,
}

/// Per-thread rendering scratch, reused across frames: the sample tables
/// (rebuilt in place when the frame shape repeats), the RGB image buffer
/// and the PNG encoder's scanline scratch. With these, a steady-state
/// frame allocates only its own output PNG.
#[derive(Default)]
struct FrameScratch {
    tables: Option<SampleTables>,
    img: Option<ImageBuffer>,
    enc: PngEncoder,
}

thread_local! {
    static FRAME_SCRATCH: RefCell<FrameScratch> = RefCell::default();
}

/// Segment, extract, rasterize, annotate and PNG-encode one snapshot — a
/// pure function of the snapshot, safe to run on any worker. Pixels and
/// bytes are bit-identical to [`FieldRenderer::render`] + PNG encode: the
/// rebuilt tables equal freshly built ones, rows are shaded with the same
/// [`SampleTables::shade_row`], and the encoder is deterministic.
fn render_frame(
    renderer: &FieldRenderer,
    grid: &Grid,
    snap: &VizSnapshot,
    annotate: bool,
) -> RenderedFrame {
    let w = &snap.okubo_weiss;
    let seg = segment_eddies(w, 0.2, 3);
    let feats = extract_features(grid, w, &seg);
    let census = frame_census(&feats);
    let (lo, hi) = renderer.resolve_range(w);
    // The scratch is taken out of the cell, not borrowed in place: a
    // thread that waits on the pool runs other queued work meanwhile, so
    // should anything under this call ever fan out, a nested
    // `render_frame` finds an empty scratch and builds its own.
    let mut scratch = FRAME_SCRATCH.take();
    let FrameScratch { tables, img, enc } = &mut scratch;
    let tables = match tables {
        Some(t) if t.matches(w, renderer.width, renderer.height) => {
            t.rebuild(w);
            t
        }
        slot => slot.insert(SampleTables::new(w, renderer.width, renderer.height)),
    };
    let img = match img {
        Some(i) if i.width() == renderer.width && i.height() == renderer.height => i,
        slot => slot.insert(ImageBuffer::new(renderer.width, renderer.height)),
    };
    for (y, row) in img.pixels_mut().chunks_mut(renderer.width).enumerate() {
        tables.shade_row(y, renderer.colormap, lo, hi, row);
    }
    if annotate {
        annotate_frame(renderer, img, snap, lo, hi);
    }
    let mut png = Vec::with_capacity(encoded_png_size(renderer.width, renderer.height) as usize);
    enc.encode_into(img, &mut png);
    FRAME_SCRATCH.set(scratch);
    RenderedFrame { feats, census, png }
}

/// [`render_frame`] at `cfg`'s image size, as a frame loop's work.
fn renders(cfg: &NativeConfig) -> impl Fn(&VizSnapshot) -> (RenderedFrame, ()) + Sync + '_ {
    let grid = cfg.grid();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    move |snap| (render_frame(&renderer, &grid, snap, cfg.annotate), ())
}

/// The pipeline depth [`NativePlan::new`] uses:
/// `min(4, available_parallelism)` — deeper than the host can render in
/// parallel only buys memory traffic.
pub fn default_pipeline_depth() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(4)
}

/// One snapshot off a frame loop's source, with how long its source phase
/// took (Simulate or ReadInput) and how long everything after that has
/// taken so far: adaptation, then the frame loop's work.
pub(crate) struct Sample {
    snap: VizSnapshot,
    source: Duration,
    after: Duration,
}

/// What a frame loop's source yields: the next sample, the error that
/// ends the run, or `None` once exhausted.
type Pulled = Option<Result<Sample, PipelineError>>;

/// The solver as a frame loop's source: advance `chunk` steps (fewer at
/// the end of the run), then adapt a snapshot — into the recycled one, if
/// the loop handed one back.
pub(crate) fn simulate(
    cfg: &NativeConfig,
    chunk: u64,
) -> impl FnMut(Option<VizSnapshot>) -> Pulled + Send + '_ {
    let mut model = cfg.build_model();
    let mut adaptor = CatalystAdaptor::new();
    move |recycled: Option<VizSnapshot>| {
        let left = cfg.steps.saturating_sub(model.steps());
        if left == 0 {
            return None;
        }
        let t0 = Instant::now();
        model.run(chunk.min(left));
        let source = t0.elapsed();
        let t1 = Instant::now();
        let snap = match recycled {
            Some(mut snap) => {
                adaptor.adapt_into(&model, &mut snap);
                snap
            }
            None => adaptor.adapt(&model),
        };
        let after = t1.elapsed();
        Some(Ok(Sample {
            snap,
            source,
            after,
        }))
    }
}

/// What a commit policy decided for one frame, and so what the trace
/// records after the frame's source phase.
pub(crate) enum Commit {
    /// Dropped by the fault layer: nothing stored, no Visualize phase (the
    /// policy stamped its own shed events).
    Shed,
    /// Looked at but not stored: a Visualize phase, no frame.
    Skip,
    /// Store it as frame `n` — the tracker's and the trace's frame number.
    Emit(u64),
}

/// The one native frame loop (see the module docs). A producer thread
/// pulls samples off `source` — called with a committed snapshot to
/// recycle, if one has come back — at most `depth` ahead of the oldest
/// uncommitted one. The calling thread drains up to `depth` queued
/// samples, runs `work` on them in parallel — it must be a pure function
/// of the snapshot, and is speculative: a frame the policy then sheds or
/// skips was worked on and is thrown away — and calls `commit` strictly
/// in source order, the sample's `after` grown by its work time.
/// Everything stateful (fault RNG, trigger hysteresis, tracker, Cinema
/// index, trace) therefore sees the order a serialized run would, at any
/// depth and thread count. The first source error, in source order, ends
/// the loop.
pub(crate) fn frame_loop<Y: Send>(
    depth: usize,
    mut source: impl FnMut(Option<VizSnapshot>) -> Pulled + Send,
    work: impl Fn(&VizSnapshot) -> Y + Sync,
    mut commit: impl FnMut(&Sample, Y),
) -> Result<(), PipelineError> {
    let (tx, rx) = mpsc::sync_channel(depth);
    // Committed snapshots flow back to the producer for recycling, so
    // steady-state adaptation reuses buffers instead of allocating.
    let (ret_tx, ret_rx) = mpsc::channel();
    std::thread::scope(|s| {
        // Owned by the consumer: if it unwinds or returns an error, the
        // receiver drops and the producer's next `send` fails instead of
        // blocking on a full queue that the scope would then wait on
        // forever.
        let rx = rx;
        s.spawn(move || {
            while let Some(sample) = source(ret_rx.try_recv().ok()) {
                if tx.send(sample).is_err() {
                    return; // consumer gone; just stop
                }
            }
        });
        let mut batch = Vec::with_capacity(depth);
        // Loop ends when the producer is done and the queue drained.
        while let Ok(first) = rx.recv() {
            batch.push(first?);
            for next in rx.try_iter().take(depth - 1) {
                batch.push(next?);
            }
            let worked: Vec<_> = batch
                .par_iter()
                .map(|s: &Sample| {
                    let t0 = Instant::now();
                    (work(&s.snap), t0.elapsed())
                })
                .collect();
            for (mut sample, (out, took)) in batch.drain(..).zip(worked) {
                sample.after += took;
                commit(&sample, out);
                let _ = ret_tx.send(sample.snap); // producer may already be done
            }
        }
        Ok(())
    })
}

/// A run's last frame loop, whose work renders: each sample's source
/// phase is traced as `source_phase`, `policy` decides in frame order
/// whether the frame is stored, skipped or shed, a stored frame joins the
/// tracker and the Cinema database, and the run is reported.
pub(crate) fn render_pass<X: Send>(
    cfg: &NativeConfig,
    depth: usize,
    mut wtr: WallTracer,
    source_phase: JobPhase,
    source: impl FnMut(Option<VizSnapshot>) -> Pulled + Send,
    work: impl Fn(&VizSnapshot) -> (RenderedFrame, X) + Sync,
    mut policy: impl FnMut(u64, &VizSnapshot, &FrameCensus, X, SimTime) -> Commit,
) -> Result<NativeReport, PipelineError> {
    let grid = cfg.grid();
    // Gate: eddies drift slowly; six cells per frame is plenty.
    let mut tracker = EddyTracker::new(6.0 * grid.dx, 2, grid.extent().0);
    let mut cinema = CinemaDatabase::new(format!("{}-eddies", wtr.kind));
    let mut census = frame_census(&[]);
    let mut index = 0u64;
    frame_loop(depth, source, work, |s, (frame, extra)| {
        wtr.phase(source_phase, s.source);
        let t_commit = Instant::now();
        let verdict = policy(index, &s.snap, &frame.census, extra, wtr.now());
        index += 1;
        if let Commit::Emit(n) = verdict {
            tracker.observe(n, &frame.feats);
            cinema.add_encoded(s.snap.timestep, s.snap.sim_hours, frame.png);
        }
        if !matches!(verdict, Commit::Shed) {
            census = frame.census;
            wtr.phase(JobPhase::Visualize, s.after + t_commit.elapsed());
        }
        if let Commit::Emit(n) = verdict {
            wtr.frame(n, &census);
        }
    })?;
    Ok(wtr.finish(cinema, tracker.finish(), census))
}

/// Execute one native plan: validate it, then run it through the frame
/// loop — in-situ as one pass, post-processing as two. Tracing goes into
/// `rec` ([`Recorder::off`] for none).
///
/// An invalid plan is [`PipelineError::InvalidConfig`] and nothing runs; a
/// raw dump that fails to decode is [`PipelineError::CorruptFrame`].
/// Outputs are bit-identical at every depth and thread count.
///
/// Faults act on the in-memory per-sample store — the image in-situ, the
/// raw dump in post-processing — through `TransientIo` windows in
/// *simulated* time and the degradation state machine (see
/// `store_or_shed`). Every sample is written or counted as shed, decided
/// in sample order: never by `depth`, and alike in both pipelines.
pub fn execute(plan: &NativePlan, rec: &Recorder) -> Result<NativeRun, PipelineError> {
    plan.validate()?;
    let (cfg, depth) = (&plan.config, plan.depth);
    let clean = FaultScenario::none();
    let mut session = FaultSession::new(plan.faults.as_ref().unwrap_or(&clean));
    let mut decisions = Vec::new();
    let report = match (plan.kind, &plan.trigger) {
        (PipelineKind::PostProcessing, _) => {
            let mut wtr = WallTracer::open(rec, cfg, "postproc");
            // Pass 1: simulate, and store every sample's raw dump unless
            // the fault session sheds it.
            let mut raw = Vec::new();
            let mut index = 0u64;
            let store = |s: &Sample, bytes: Vec<u8>| {
                wtr.phase(JobPhase::Simulate, s.source);
                let t_commit = Instant::now();
                let verdict = store_or_shed(&mut session, index, &s.snap, rec, wtr.now());
                if let Commit::Emit(n) = verdict {
                    wtr.phase(JobPhase::WriteOutput, s.after + t_commit.elapsed());
                    rec.counter_add(wtr.now(), "native.raw_bytes", bytes.len() as f64);
                    raw.push((n, bytes));
                }
                index += 1;
            };
            frame_loop(depth, simulate(cfg, cfg.output_every), encode_raw, store)?;
            let raw_bytes = raw.iter().map(|(_, bytes)| bytes.len() as u64).sum();
            // Pass 2: read them back and render.
            NativeReport {
                raw_bytes,
                ..render_raw(cfg, depth, wtr, raw)?
            }
        }
        (_, Some(tc)) => {
            let wtr = WallTracer::open(rec, cfg, "adaptive");
            crate::adaptive::run(cfg, tc, depth, wtr, &mut decisions)?
        }
        (_, None) => render_pass(
            cfg,
            depth,
            WallTracer::open(rec, cfg, "insitu"),
            JobPhase::Simulate,
            simulate(cfg, cfg.output_every),
            renders(cfg),
            |frame, snap, _, (), now| store_or_shed(&mut session, frame, snap, rec, now),
        )?,
    };
    Ok(NativeRun {
        report,
        stats: session.into_stats(),
        decisions,
    })
}

/// The fixed-rate commit policy: store sample `frame` unless the fault
/// session sheds it. The store may fail transiently; retries are free in
/// wall time (the store is in memory), and exhaustion sheds the sample
/// rather than aborting the solver. Fault windows are in simulated time.
fn store_or_shed(
    session: &mut FaultSession,
    frame: u64,
    snap: &VizSnapshot,
    rec: &Recorder,
    now: SimTime,
) -> Commit {
    let reason = if session.should_shed(frame) {
        "degraded"
    } else {
        let sim_t = SimTime::from_secs_f64(snap.sim_hours * 3600.0);
        let mut failed = 0u32;
        loop {
            if !session.roll_io_failure(sim_t) {
                session.stats.outputs_written += 1;
                let _ = session.clean();
                return Commit::Emit(frame);
            }
            rec.counter_add(now, "fault.injected_failures", 1.0);
            failed += 1;
            let _ = session.pressure();
            if failed >= session.retry.max_attempts {
                break "retries-exhausted";
            }
            // Draw the jitter so the retry schedule matches the campaign
            // backend's RNG discipline; no wall time passes here.
            let _backoff = session.backoff_for(failed);
            rec.counter_add(now, "fault.retries", 1.0);
        }
    };
    session.stats.outputs_shed += 1;
    let attrs = [
        ("index", AttrValue::U64(frame)),
        ("reason", AttrValue::Str(reason)),
    ];
    rec.event(now, "output_shed", Component::Fault, &attrs);
    rec.counter_add(now, "fault.sheds", 1.0);
    Commit::Shed
}

/// Post-processing's second pass: read the stored dumps back one at a
/// time, dropping each once decoded, and render every one as the frame of
/// its sample number.
fn render_raw(
    cfg: &NativeConfig,
    depth: usize,
    wtr: WallTracer,
    raw: Vec<(u64, Vec<u8>)>,
) -> Result<NativeReport, PipelineError> {
    let numbers: Vec<u64> = raw.iter().map(|&(n, _)| n).collect();
    let mut dumps = raw.into_iter();
    let read = move |_: Option<VizSnapshot>| {
        let (frame, bytes) = dumps.next()?;
        let t0 = Instant::now();
        let snap = decode_raw(frame, &bytes);
        let source = t0.elapsed();
        Some(snap.map(|snap| Sample {
            snap,
            source,
            after: Duration::ZERO,
        }))
    };
    render_pass(
        cfg,
        depth,
        wtr,
        JobPhase::ReadInput,
        read,
        renders(cfg),
        |k, _, _, (), _| Commit::Emit(numbers[k as usize]),
    )
}

/// Encode a snapshot as an ncdf-lite file (the post-processing raw output):
/// the Okubo-Weiss field plus everything the renderer needs to reproduce the
/// in-situ frames exactly (SSH, centered velocities).
fn encode_raw(snap: &VizSnapshot) -> Vec<u8> {
    let w = &snap.okubo_weiss;
    let mut f = NcFile::new();
    let dy = f.add_dim("y", w.ny() as u64);
    let dx = f.add_dim("x", w.nx() as u64);
    f.add_attr("timestep", snap.timestep.to_string());
    f.add_attr("sim_hours", format!("{}", snap.sim_hours));
    for (name, field) in [
        ("W", w),
        ("ssh", &snap.ssh),
        ("uc", &snap.uc),
        ("vc", &snap.vc),
    ] {
        f.add_var(name, vec![dy, dx], VarData::F64(field.data().to_vec()))
            .expect("shape is consistent");
    }
    f.encode()
}

/// Decode a raw file back into a [`VizSnapshot`]. Every way the bytes
/// can disappoint — truncation, a missing variable or attribute, a
/// wrong dtype, a shape that doesn't match the declared dims — comes
/// back as a typed [`PipelineError::CorruptFrame`] instead of a panic,
/// so one bad file fails one run, never the process.
fn decode_raw(frame: u64, bytes: &[u8]) -> Result<VizSnapshot, PipelineError> {
    let corrupt = |detail: String| PipelineError::CorruptFrame { frame, detail };
    let f = NcFile::decode(bytes).map_err(|e| corrupt(format!("decode failed: {e}")))?;
    let &[(_, ny), (_, nx), ..] = &f.dims[..] else {
        return Err(corrupt("missing y or x dimension".into()));
    };
    let (nx, ny) = (nx as usize, ny as usize);
    let field = |name: &str| {
        let data = match f.var(name).map(|v| &v.data) {
            Some(VarData::F64(xs)) if xs.len() == nx * ny => xs,
            Some(VarData::F64(xs)) => {
                let n = xs.len();
                return Err(corrupt(format!(
                    "variable {name:?}: {n} values for a {nx}×{ny} grid"
                )));
            }
            Some(other) => {
                return Err(corrupt(format!(
                    "variable {name:?}: expected f64 data, got {other:?}"
                )))
            }
            None => return Err(corrupt(format!("variable {name:?} missing"))),
        };
        let mut field = Field2D::zeros(nx, ny);
        field.data_mut().copy_from_slice(data);
        Ok(field)
    };
    let attr = |name: &str| {
        f.attr(name)
            .ok_or_else(|| corrupt(format!("attribute {name:?} missing")))
    };
    let unparsable = |name: &str, e: &dyn std::fmt::Display| {
        corrupt(format!("attribute {name:?} unparsable: {e}"))
    };
    Ok(VizSnapshot {
        timestep: attr("timestep")?
            .parse()
            .map_err(|e| unparsable("timestep", &e))?,
        sim_hours: attr("sim_hours")?
            .parse()
            .map_err(|e| unparsable("sim_hours", &e))?,
        ssh: field("ssh")?,
        uc: field("uc")?,
        vc: field("vc")?,
        okubo_weiss: field("W")?,
    })
}

// Kept for `benchmark/`, which links them; use `execute` everywhere else.

/// A clean, untraced in-situ run at [`default_pipeline_depth`]; panics on
/// an invalid configuration.
pub fn run_native_insitu(cfg: &NativeConfig) -> NativeReport {
    forward(cfg, PipelineKind::InSitu, default_pipeline_depth())
}

/// [`run_native_insitu`] strictly serialized: depth 1, same outputs.
pub fn run_native_insitu_sequential(cfg: &NativeConfig) -> NativeReport {
    forward(cfg, PipelineKind::InSitu, 1)
}

/// [`run_native_insitu`], post-processing.
pub fn run_native_postproc(cfg: &NativeConfig) -> NativeReport {
    forward(cfg, PipelineKind::PostProcessing, default_pipeline_depth())
}

fn forward(cfg: &NativeConfig, kind: PipelineKind, depth: usize) -> NativeReport {
    let plan = NativePlan {
        depth,
        ..NativePlan::new(cfg.clone(), kind)
    };
    execute(&plan, &Recorder::off())
        .unwrap_or_else(|e| panic!("native run failed: {e}"))
        .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{self, Golden};

    fn plan(cfg: NativeConfig, kind: PipelineKind, depth: usize) -> NativePlan {
        NativePlan {
            depth,
            ..NativePlan::new(cfg, kind)
        }
    }

    /// Execute a valid plan, untraced.
    fn run(plan: &NativePlan) -> NativeRun {
        execute(plan, &Recorder::off()).expect("a valid plan")
    }

    /// `cfg` in-situ at `depth` under `scenario`.
    fn faulted(cfg: &NativeConfig, depth: usize, scenario: &FaultScenario) -> NativeRun {
        run(&NativePlan {
            faults: Some(scenario.clone()),
            ..plan(cfg.clone(), PipelineKind::InSitu, depth)
        })
    }

    fn frames_line(r: &NativeReport) -> String {
        golden::frames_line(&r.cinema, &r.tracks, &r.final_census)
    }

    #[test]
    fn both_pipelines_produce_identical_images() {
        // The cognitive-fidelity claim: in-situ loses nothing relative to
        // post-processing (f64 roundtrips exactly through ncdf-lite).
        let cfg = NativeConfig::tiny();
        let a = run_native_insitu(&cfg);
        let b = run_native_postproc(&cfg);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.cinema.len(), b.cinema.len());
        for (ea, eb) in a.cinema.entries().iter().zip(b.cinema.entries()) {
            assert_eq!(ea.timestep, eb.timestep);
            assert_eq!(ea.data, eb.data, "frame {} differs", ea.timestep);
        }
    }

    #[test]
    fn both_pipelines_track_the_same_eddies() {
        let cfg = NativeConfig::tiny();
        let a = run_native_insitu(&cfg);
        let b = run_native_postproc(&cfg);
        assert_eq!(a.tracks.len(), b.tracks.len());
        assert_eq!(a.final_census, b.final_census);
    }

    #[test]
    fn insitu_writes_orders_of_magnitude_less() {
        let cfg = NativeConfig::tiny();
        let a = run_native_insitu(&cfg);
        let b = run_native_postproc(&cfg);
        assert_eq!(a.raw_bytes, 0);
        assert!(b.raw_bytes > 0);
        // Raw field data dwarfs what post-processing adds in images.
        let reduction = a.storage_reduction_vs(&b);
        assert!(reduction > 0.0, "reduction = {reduction}%");
    }

    #[test]
    fn frames_and_eddies_exist() {
        let cfg = NativeConfig::tiny();
        let r = run_native_insitu(&cfg);
        assert_eq!(r.frames, 3); // 24 steps / every 8
        assert!(r.final_census.count > 0, "seeded eddies should be detected");
        assert!(!r.tracks.is_empty());
        assert!(r.image_bytes > 0);
    }

    #[test]
    fn wall_times_are_measured() {
        let cfg = NativeConfig::tiny();
        let r = run_native_postproc(&cfg);
        assert!(r.wall_sim > Duration::ZERO);
        assert!(r.wall_viz > Duration::ZERO);
        assert!(r.wall_io > Duration::ZERO);
    }

    #[test]
    fn raw_roundtrip_is_exact() {
        let field = |k: f64| Field2D::from_fn(8, 6, move |i, j| (i as f64 * k).sin() + j as f64);
        let snap = VizSnapshot {
            timestep: 123,
            sim_hours: 61.5,
            ssh: field(0.3),
            uc: field(0.5),
            vc: field(0.7),
            okubo_weiss: field(0.9),
        };
        let bytes = encode_raw(&snap);
        let back = decode_raw(0, &bytes).expect("round-trip decodes");
        assert_eq!(back.okubo_weiss.data(), snap.okubo_weiss.data());
        assert_eq!(back.ssh.data(), snap.ssh.data());
        assert_eq!(back.uc.data(), snap.uc.data());
        assert_eq!(back.vc.data(), snap.vc.data());
        assert_eq!(back.timestep, 123);
        assert_eq!(back.sim_hours, 61.5);
    }

    #[test]
    fn corrupt_raw_bytes_fail_typed_not_panic() {
        let field = |k: f64| Field2D::from_fn(8, 6, move |i, j| (i as f64 * k).sin() + j as f64);
        let snap = VizSnapshot {
            timestep: 7,
            sim_hours: 3.5,
            ssh: field(0.3),
            uc: field(0.5),
            vc: field(0.7),
            okubo_weiss: field(0.9),
        };
        let good = encode_raw(&snap);
        // Truncation at every prefix length must yield a typed error,
        // never a panic (and never a bogus success).
        for cut in [0, 1, 4, good.len() / 2, good.len() - 1] {
            let err = decode_raw(3, &good[..cut]).expect_err("truncated bytes must fail");
            match &err {
                PipelineError::CorruptFrame { frame, detail } => {
                    assert_eq!(*frame, 3);
                    assert!(!detail.is_empty());
                }
                other => panic!("expected CorruptFrame, got {other}"),
            }
            assert!(err.to_string().contains("corrupt frame 3"), "{err}");
        }
        // Garbage bytes too.
        assert!(decode_raw(0, b"not an ncdf file at all").is_err());
        // A structurally valid file missing the expected variables.
        let mut stripped = NcFile::new();
        stripped.add_dim("y", 6);
        stripped.add_dim("x", 8);
        stripped.add_attr("timestep", "7".to_string());
        stripped.add_attr("sim_hours", "3.5".to_string());
        let err = decode_raw(1, &stripped.encode()).expect_err("missing vars must fail");
        assert!(err.to_string().contains("\"ssh\""), "{err}");
    }

    /// A stored dump that no longer decodes fails the second pass with a
    /// typed error naming its sample, instead of panicking mid-run.
    #[test]
    fn a_corrupt_dump_fails_the_second_pass_typed() {
        let cfg = NativeConfig::tiny();
        let rec = Recorder::off();
        let snap = CatalystAdaptor::new().adapt(&cfg.build_model());
        let good = encode_raw(&snap);
        let raw = vec![
            (0, good.clone()),
            (5, good[..good.len() / 2].to_vec()),
            (6, good),
        ];
        let wtr = WallTracer::open(&rec, &cfg, "postproc");
        match render_raw(&cfg, 2, wtr, raw) {
            Err(PipelineError::CorruptFrame { frame: 5, .. }) => {}
            other => panic!(
                "expected frame 5 corrupt, got {:?}",
                other.map(|r| r.frames)
            ),
        }
    }

    #[test]
    fn pipelined_matches_sequential_exactly() {
        let r = run_native_insitu(&NativeConfig::tiny());
        Golden::load().check("native/tiny/frames", &frames_line(&r));
    }

    #[test]
    fn depth_k_matches_sequential_exactly() {
        // Annotate so the worker's overlay path is exercised too.
        let cfg = NativeConfig {
            annotate: true,
            ..NativeConfig::tiny()
        };
        let golden = Golden::load();
        for depth in [1, 2, 4] {
            let r = run(&plan(cfg.clone(), PipelineKind::InSitu, depth));
            golden.check("native/tiny-annotate/frames", &frames_line(&r.report));
            let r = run(&plan(cfg.clone(), PipelineKind::PostProcessing, depth));
            golden.check(
                "native/tiny-annotate/postproc/frames",
                &frames_line(&r.report),
            );
            golden.check(
                "native/tiny-annotate/postproc/raw_bytes",
                &r.report.raw_bytes.to_string(),
            );
        }
    }

    #[test]
    fn default_depth_is_at_least_one() {
        assert!(default_pipeline_depth() >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = NativeConfig::tiny();
        let a = run_native_insitu(&cfg);
        let b = run_native_insitu(&cfg);
        assert_eq!(a.image_bytes, b.image_bytes);
        assert_eq!(a.tracks.len(), b.tracks.len());
    }

    #[test]
    fn faulted_empty_scenario_matches_sequential_exactly() {
        let cfg = NativeConfig::tiny();
        let golden = Golden::load();
        for depth in [1, 2, 4] {
            let faulted = faulted(&cfg, depth, &FaultScenario::none());
            golden.check("native/tiny/frames", &frames_line(&faulted.report));
            golden.check("native/tiny/fault/none/stats", &faulted.stats.digest());
            assert_eq!(faulted.stats.outputs_written, faulted.report.frames);
        }
    }

    /// The plan of `tiny-12/fault/io80-seed9`: twelve frames, eight shed —
    /// most by degradation level — so the loop renders frames the policy
    /// then throws away. Neither the stats nor the stored frames may
    /// notice, at any depth.
    fn io80_seed9() -> (NativeConfig, FaultScenario) {
        use ivis_fault::{FaultKind, FaultPlan, FaultWindow};
        let cfg = NativeConfig {
            output_every: 2,
            ..NativeConfig::tiny()
        };
        let scenario = FaultScenario::with_plan(FaultPlan::new(9).inject(
            FaultWindow::of_secs(0, u64::MAX / 2_000_000),
            FaultKind::TransientIo { fail_prob: 0.8 },
        ));
        (cfg, scenario)
    }

    #[test]
    fn speculative_rendering_of_shed_frames_is_invisible() {
        let (cfg, scenario) = io80_seed9();
        let golden = Golden::load();
        for depth in [1, 2, 4] {
            let out = faulted(&cfg, depth, &scenario);
            golden.check(
                "native/tiny-12/fault/io80-seed9/frames",
                &frames_line(&out.report),
            );
            golden.check("native/tiny-12/fault/io80-seed9/stats", &out.stats.digest());
        }
    }

    /// The fault session decides per sample, in sample order, on simulated
    /// time: post-processing sheds exactly the samples in-situ sheds, so
    /// the frames, tracks and stats of both pipelines agree.
    #[test]
    fn posthoc_under_faults_loses_exactly_the_frames_insitu_loses() {
        let (cfg, scenario) = io80_seed9();
        let insitu = faulted(&cfg, 2, &scenario);
        let post = run(&NativePlan {
            faults: Some(scenario),
            ..plan(cfg, PipelineKind::PostProcessing, 2)
        });
        assert_eq!(post.stats, insitu.stats);
        assert_eq!(post.report.frames, 4);
        let pngs = |r: &NativeRun| -> Vec<(u64, Vec<u8>)> {
            let entries = r.report.cinema.entries().iter();
            entries.map(|e| (e.timestep, e.data.clone())).collect()
        };
        assert_eq!(pngs(&post), pngs(&insitu));
        assert_eq!(post.report.tracks, insitu.report.tracks);
        assert_eq!(post.report.final_census, insitu.report.final_census);
    }

    /// Run the loop on twelve chunks at `depth` with the given closures
    /// under a 60 s watchdog; true iff the call unwound.
    fn loop_unwinds(
        depth: usize,
        work: impl Fn(&VizSnapshot) + Sync + Send + 'static,
        commit: impl FnMut(u64) + Send + 'static,
    ) -> bool {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cfg = NativeConfig {
                output_every: 2,
                ..NativeConfig::tiny()
            };
            let (mut commit, mut index) = (commit, 0);
            let run = std::panic::AssertUnwindSafe(|| {
                let source = simulate(&cfg, cfg.output_every);
                frame_loop(depth, source, work, |_, ()| {
                    commit(index);
                    index += 1;
                })
            });
            let _ = done_tx.send(std::panic::catch_unwind(run).is_err());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the frame loop hung instead of unwinding")
    }

    #[test]
    fn a_panicking_commit_unwinds_instead_of_hanging() {
        // Depth 1 with ten chunks still to come: the producer is blocked on
        // the full hand-off when the consumer dies.
        let unwound = loop_unwinds(
            1,
            |_| {},
            |i| assert!(i < 1, "commit policy blew up on the second frame"),
        );
        assert!(unwound);
    }

    #[test]
    fn a_panicking_worker_unwinds_instead_of_hanging() {
        let work = |snap: &VizSnapshot| {
            assert!(snap.timestep < 6, "frame worker blew up inside the batch");
        };
        assert!(loop_unwinds(2, work, |_| {}));
    }

    #[test]
    fn total_outage_sheds_every_frame_without_panicking() {
        use ivis_fault::{FaultKind, FaultPlan, FaultWindow, RetryPolicy};
        let cfg = NativeConfig::tiny();
        let plan = FaultPlan::new(1).inject(
            FaultWindow::of_secs(0, u64::MAX / 2_000_000),
            FaultKind::TransientIo { fail_prob: 1.0 },
        );
        let mut scenario = FaultScenario::with_plan(plan);
        scenario.retry = RetryPolicy::no_retries();
        let faulted = faulted(&cfg, 2, &scenario);
        assert_eq!(faulted.report.frames, 0);
        assert_eq!(faulted.report.cinema.len(), 0, "index matches zero images");
        assert!(faulted.report.tracks.is_empty());
        assert_eq!(faulted.stats.outputs_shed, 3);
        assert_eq!(faulted.stats.outputs_total(), 3);
    }

    #[test]
    fn partial_faults_keep_cinema_index_consistent() {
        use ivis_fault::{FaultKind, FaultPlan, FaultWindow};
        let cfg = NativeConfig::tiny();
        let plan = FaultPlan::new(9).inject(
            FaultWindow::of_secs(0, u64::MAX / 2_000_000),
            FaultKind::TransientIo { fail_prob: 0.5 },
        );
        let scenario = FaultScenario::with_plan(plan);
        let a = faulted(&cfg, 2, &scenario);
        // The index always matches the images actually written...
        assert_eq!(a.report.cinema.len() as u64, a.report.frames);
        assert_eq!(a.report.frames, a.stats.outputs_written);
        assert_eq!(a.stats.outputs_total(), 3, "every frame accounted for");
        // ...and the whole degraded run replays deterministically.
        let b = faulted(&cfg, 4, &scenario);
        assert_eq!(a.report.cinema.index_json(), b.report.cinema.index_json());
        assert_eq!(a.stats, b.stats);
    }

    /// The validation error of a plan that must be rejected.
    fn rejected(plan: &NativePlan) -> String {
        match execute(plan, &Recorder::off()) {
            Err(PipelineError::InvalidConfig { detail }) => detail,
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|r| r.digest())
            ),
        }
    }

    #[test]
    fn zero_output_every_is_rejected_instead_of_hanging() {
        // The loop's chunk would be zero steps, so the solver would never
        // advance and frames would pile up forever.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
                let cfg = NativeConfig {
                    output_every: 0,
                    ..NativeConfig::tiny()
                };
                let _ = tx.send(rejected(&plan(cfg, kind, 2)));
            }
        });
        for _ in 0..2 {
            let detail = rx.recv_timeout(Duration::from_secs(60)).expect("hung");
            assert!(detail.contains("output_every"), "{detail}");
        }
    }

    #[test]
    fn zero_sized_images_are_rejected_instead_of_panicking() {
        for (w, h) in [(0, 48), (64, 0)] {
            let cfg = NativeConfig {
                image_width: w,
                image_height: h,
                ..NativeConfig::tiny()
            };
            let detail = rejected(&plan(cfg, PipelineKind::InSitu, 2));
            assert!(detail.contains("1×1"), "{detail}");
        }
    }

    #[test]
    fn annotated_images_too_narrow_for_the_colorbar_are_rejected() {
        let annotated = |w| NativeConfig {
            image_width: w,
            annotate: true,
            ..NativeConfig::tiny()
        };
        for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
            for w in [1, 9] {
                let detail = rejected(&plan(annotated(w), kind, 2));
                assert!(detail.contains("10 pixels"), "{detail}");
            }
            assert_eq!(run(&plan(annotated(10), kind, 2)).report.frames, 3);
        }
    }

    /// [`rejected`], also proving the plan was refused before anything
    /// ran: the recorder saw no span and no event.
    fn rejected_before_running(cfg: NativeConfig) -> String {
        let rec = Recorder::in_memory();
        let detail = match execute(&plan(cfg, PipelineKind::InSitu, 2), &rec) {
            Err(PipelineError::InvalidConfig { detail }) => detail,
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|r| r.digest())
            ),
        };
        let ran = rec
            .with_buffer(|buf| buf.spans().len() + buf.events().len())
            .expect("recorder is on");
        assert_eq!(ran, 0, "a refused plan must not run: {detail}");
        detail
    }

    #[test]
    fn grids_below_4x4_are_rejected_instead_of_panicking() {
        for (nx, ny) in [(3, 24), (32, 3), (0, 0)] {
            let detail = rejected_before_running(NativeConfig {
                nx,
                ny,
                ..NativeConfig::tiny()
            });
            assert!(detail.contains("4×4"), "{detail}");
        }
    }

    #[test]
    fn cell_sizes_not_finite_and_positive_are_rejected_instead_of_panicking() {
        for cell_m in [0.0, -60_000.0, f64::NAN, f64::INFINITY] {
            let detail = rejected_before_running(NativeConfig {
                cell_m,
                ..NativeConfig::tiny()
            });
            assert!(detail.contains("cell size"), "{detail}");
        }
    }

    #[test]
    fn zero_depth_is_rejected() {
        let detail = rejected(&plan(NativeConfig::tiny(), PipelineKind::InSitu, 0));
        assert!(detail.contains("depth"), "{detail}");
    }

    #[test]
    fn a_trigger_on_a_posthoc_plan_is_rejected() {
        let plan = NativePlan {
            trigger: Some(TriggerConfig::new(8, 5)),
            ..NativePlan::new(NativeConfig::tiny(), PipelineKind::PostProcessing)
        };
        assert!(rejected(&plan).contains("post-processing"));
    }

    #[test]
    fn faults_on_an_adaptive_plan_are_rejected() {
        let plan = NativePlan {
            trigger: Some(TriggerConfig::new(8, 5)),
            faults: Some(FaultScenario::none()),
            ..NativePlan::new(NativeConfig::tiny(), PipelineKind::InSitu)
        };
        assert!(rejected(&plan).contains("fault"));
    }
}
