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
//! ## Pipelined execution
//!
//! [`run_native_insitu`] overlaps the solver with visualization the way
//! in-transit systems stage analysis: a producer thread advances the model
//! and adapts snapshots while the consumer renders, encodes and tracks
//! earlier frames, hand-off over a bounded channel of depth *k*
//! ([`default_pipeline_depth`], overridable per call via
//! [`run_native_insitu_depth`] or globally with the `ZSIM_PIPELINE_DEPTH`
//! environment variable). The consumer drains up to `k` queued snapshots
//! at a time and renders + encodes them **frame-parallel** on the worker
//! pool — each frame's segmentation, rasterization and PNG encode is an
//! independent pure function of its deep-copied [`VizSnapshot`] — then
//! commits the results strictly in frame order: eddy-tracker observations,
//! Cinema index entries and phase timings are appended by a single thread
//! in ascending frame order no matter which worker rendered what.
//!
//! Because chunk placement never changes *what* is computed, all outputs
//! (PNG bytes, Cinema index, eddy tracks, trace structure) are
//! **bit-identical** to [`run_native_insitu_sequential`] at every depth
//! and thread count; the strictly-serialized loop is kept as the golden
//! baseline. Phase wall times are measured on each thread and replayed
//! through the same wall tracer in sequential order after the join, so
//! recorded traces have the same span/event/counter sequence either way.
//! Workers keep per-thread scratch (sample tables, image buffer, PNG
//! encoder) in thread-local storage, so steady-state rendering allocates
//! only each frame's own output PNG.

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
use ivis_viz::png::{encoded_png_size, PngEncoder};
use ivis_viz::raster::{ImageBuffer, SampleTables};
use ivis_viz::render::FieldRenderer;
use ivis_viz::CinemaDatabase;
use rayon::prelude::*;

use crate::adaptor::{CatalystAdaptor, VizSnapshot};
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
    /// frame, like a presentation-ready ParaView view.
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

    pub(crate) fn build_model(&self) -> ShallowWaterModel {
        let grid = Grid::channel(self.nx, self.ny, self.cell_m);
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        seed_random_eddies(&mut m, self.num_eddies, self.seed);
        m
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
    /// End-to-end wall time of the whole run. For the sequential paths
    /// this is ≈ [`NativeReport::wall_total`]; for the pipelined in-situ
    /// path it is smaller, because solver and visualization overlap.
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
    /// Total wall time.
    pub fn wall_total(&self) -> Duration {
        self.wall_sim + self.wall_viz + self.wall_io
    }

    /// Storage reduction of in-situ relative to a post-processing run
    /// (percent) given this report is the in-situ one.
    pub fn storage_reduction_vs(&self, post: &NativeReport) -> f64 {
        let post_total = (post.raw_bytes + post.image_bytes) as f64;
        let own_total = (self.raw_bytes + self.image_bytes) as f64;
        (post_total - own_total) / post_total * 100.0
    }

    /// Order-sensitive FNV-1a witness of everything observable: the
    /// Cinema index, every PNG byte, the track count and the final
    /// census. Two runs are interchangeable iff their digests match.
    pub fn digest(&self) -> String {
        let mut h = Fnv1a::default();
        h.eat_outputs(&self.cinema, &self.tracks, &self.final_census);
        h.hex()
    }
}

/// Running FNV-1a-64 behind the reports' `digest()`s.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// What every native report ends its digest with.
    pub(crate) fn eat_outputs(
        &mut self,
        cinema: &CinemaDatabase,
        tracks: &[Track],
        census: &FrameCensus,
    ) {
        self.eat(cinema.index_json().as_bytes());
        for e in cinema.entries() {
            self.eat(&e.data);
        }
        self.eat(&(tracks.len() as u64).to_le_bytes());
        self.eat(&(census.count as u64).to_le_bytes());
        self.eat(&census.total_area_m2.to_bits().to_le_bytes());
    }

    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Maps the native backend's wall-clock measurements onto a gap-free
/// virtual [`SimTime`] axis (t = accumulated measured wall time), so the
/// same trace schema, Gantt renderer and timeline tooling work on real
/// runs. Phase spans are recorded after the fact, once their duration is
/// known.
pub(crate) struct WallTracer<'a> {
    rec: &'a Recorder,
    elapsed: Duration,
}

impl<'a> WallTracer<'a> {
    pub(crate) fn new(rec: &'a Recorder) -> Self {
        WallTracer {
            rec,
            elapsed: Duration::ZERO,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.elapsed.as_secs_f64())
    }

    /// Record that `phase` just ran for `took` of wall time.
    pub(crate) fn phase(&mut self, phase: JobPhase, took: Duration) {
        let start = self.now();
        self.elapsed += took;
        if self.rec.is_on() {
            let id = self.rec.phase_span(start, phase, Component::Native);
            self.rec.close(self.now(), id);
        }
    }
}

pub(crate) fn tracker_for(grid: &Grid) -> EddyTracker {
    let (lx, _) = grid.extent();
    // Gate: eddies drift slowly; half a basin-width per frame is plenty.
    EddyTracker::new(6.0 * grid.dx, 2, lx)
}

/// Draw the presentation-ready overlays (velocity arrows, colorbar, time
/// label) on a rendered frame — shared by the serial and frame-parallel
/// paths so their annotated pixels are identical.
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
    let bar_w = (img.width() / 3).max(40).min(img.width().saturating_sub(8));
    let bar_y = img.height().saturating_sub(GLYPH_H + 10);
    draw_colorbar(img, 4, bar_y, bar_w, 6, renderer.colormap, lo, hi);
    let label = format!("T = {:.0} H", snap.sim_hours);
    draw_text(img, 4, 2, &label, Rgb::BLACK);
}

fn visualize_frame(
    renderer: &FieldRenderer,
    cinema: &mut CinemaDatabase,
    tracker: &mut EddyTracker,
    grid: &Grid,
    snap: &VizSnapshot,
    frame: u64,
    annotate: bool,
) -> FrameCensus {
    let w = &snap.okubo_weiss;
    let seg = segment_eddies(w, 0.2, 3);
    let feats = extract_features(grid, w, &seg);
    tracker.observe(frame, &feats);
    let mut img = renderer.render(w);
    if annotate {
        let (lo, hi) = renderer.resolve_range(w);
        annotate_frame(renderer, &mut img, snap, lo, hi);
    }
    cinema.add_image(snap.timestep, snap.sim_hours, &img);
    frame_census(&feats)
}

/// Everything a frame worker produced for one snapshot. Commit order (and
/// therefore tracker state and the Cinema index) is imposed by the
/// consumer, not by which worker finished first.
struct RenderedFrame {
    feats: Vec<EddyFeature>,
    census: FrameCensus,
    png: Vec<u8>,
    /// Wall time this worker spent on the frame (segmentation through
    /// encode), attributed to the visualize phase at commit.
    d_worker: Duration,
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
/// bytes are bit-identical to the serial [`visualize_frame`] path: the
/// rebuilt tables equal freshly built ones, rows are shaded with the same
/// [`SampleTables::shade_row`], and the encoder is deterministic.
fn render_frame(
    renderer: &FieldRenderer,
    grid: &Grid,
    snap: &VizSnapshot,
    annotate: bool,
) -> RenderedFrame {
    let t0 = Instant::now();
    let w = &snap.okubo_weiss;
    let seg = segment_eddies(w, 0.2, 3);
    let feats = extract_features(grid, w, &seg);
    let census = frame_census(&feats);
    let (lo, hi) = renderer.resolve_range(w);
    // The scratch is taken out of the cell, not borrowed in place:
    // `annotate_frame` runs a parallel reduce, and a thread waiting on the
    // pool may pick up another frame's `render_frame` meanwhile. That
    // nested call finds an empty scratch and builds its own.
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
    RenderedFrame {
        feats,
        census,
        png,
        d_worker: t0.elapsed(),
    }
}

/// The pipeline depth [`run_native_insitu`] uses: the `ZSIM_PIPELINE_DEPTH`
/// environment variable if set (≥ 1), else `min(4, available_parallelism)`
/// — deeper than the host can render in parallel only buys memory traffic.
pub fn default_pipeline_depth() -> usize {
    if let Some(d) = std::env::var("ZSIM_PIPELINE_DEPTH")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return d.max(1);
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(4)
}

/// Open the native backend's root span with the run's shape.
pub(crate) fn open_native_root(rec: &Recorder, cfg: &NativeConfig, kind: &'static str) -> SpanId {
    let root = rec.span(SimTime::ZERO, "native", Component::Native);
    rec.set_attr(root, "kind", AttrValue::Str(kind));
    rec.set_attr(root, "nx", AttrValue::U64(cfg.nx as u64));
    rec.set_attr(root, "ny", AttrValue::U64(cfg.ny as u64));
    rec.set_attr(root, "steps", AttrValue::U64(cfg.steps));
    root
}

/// Record one rendered frame: event plus frame/eddy counters.
pub(crate) fn note_frame(rec: &Recorder, t: SimTime, frame: u64, census: &FrameCensus) {
    if !rec.is_on() {
        return;
    }
    rec.event(
        t,
        "frame_rendered",
        Component::Viz,
        &[
            ("frame", AttrValue::U64(frame)),
            ("eddies", AttrValue::U64(census.count as u64)),
        ],
    );
    rec.counter_add(t, "native.frames", 1.0);
}

/// Run the in-situ pipeline natively: simulate, adapt, render and track;
/// only images are "written". Solver and visualization run **pipelined**
/// with up to [`default_pipeline_depth`] frames in flight, rendered and
/// encoded frame-parallel on the worker pool (see the module docs);
/// outputs are bit-identical to [`run_native_insitu_sequential`].
pub fn run_native_insitu(cfg: &NativeConfig) -> NativeReport {
    run_native_insitu_with(cfg, &Recorder::off())
}

/// [`run_native_insitu`] with a trace recorder: per-phase wall times are
/// measured on their own threads, then replayed as spans on a virtual
/// sim-time axis in the same order the sequential path records them.
pub fn run_native_insitu_with(cfg: &NativeConfig, rec: &Recorder) -> NativeReport {
    run_native_insitu_depth_with(cfg, default_pipeline_depth(), rec)
}

/// [`run_native_insitu`] at an explicit pipeline depth: the producer may
/// run up to `depth` output chunks ahead, and up to `depth` frames render
/// and encode concurrently. Outputs are bit-identical to
/// [`run_native_insitu_sequential`] at **every** depth and thread count.
pub fn run_native_insitu_depth(cfg: &NativeConfig, depth: usize) -> NativeReport {
    run_native_insitu_depth_with(cfg, depth, &Recorder::off())
}

/// [`run_native_insitu_depth`] with a trace recorder.
pub fn run_native_insitu_depth_with(
    cfg: &NativeConfig,
    depth: usize,
    rec: &Recorder,
) -> NativeReport {
    let depth = depth.max(1);
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let grid = model.grid().clone();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let mut cinema = CinemaDatabase::new("insitu-eddies");
    let mut tracker = tracker_for(&grid);
    let root = open_native_root(rec, cfg, "insitu");
    let mut frames = 0u64;
    let mut census = frame_census(&[]);
    // Per-frame (simulate, adapt+visualize) durations and the frame's
    // census, kept so the trace can be replayed sequentially after the
    // join.
    let mut timings: Vec<(Duration, Duration, FrameCensus)> = Vec::new();
    // Depth-k hand-off: the producer may run at most `depth` chunks ahead
    // of the oldest uncommitted frame.
    let (tx, rx) = mpsc::sync_channel::<(Duration, Duration, VizSnapshot)>(depth);
    // Committed snapshots flow back to the producer for recycling, so
    // steady-state adaptation reuses buffers instead of allocating.
    let (ret_tx, ret_rx) = mpsc::channel::<VizSnapshot>();
    std::thread::scope(|s| {
        // Owned by the consumer: if it unwinds, the receiver drops and the
        // producer's next `send` fails instead of blocking on a full queue
        // that the scope would then wait on forever.
        let rx = rx;
        s.spawn(move || {
            let mut adaptor = CatalystAdaptor::new();
            let mut step = 0u64;
            while step < cfg.steps {
                let chunk = cfg.output_every.min(cfg.steps - step);
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
        // Consumer: drain up to `depth` queued snapshots, render + encode
        // them frame-parallel, then commit strictly in frame order so
        // tracker state and Cinema entries match the sequential path.
        let mut batch: Vec<(Duration, Duration, VizSnapshot)> = Vec::with_capacity(depth);
        // Loop ends when the producer is done and the queue drained.
        while let Ok(first) = rx.recv() {
            batch.push(first);
            while batch.len() < depth {
                match rx.try_recv() {
                    Ok(more) => batch.push(more),
                    Err(_) => break,
                }
            }
            let annotate = cfg.annotate;
            let rendered: Vec<RenderedFrame> = batch
                .par_iter()
                .map(|(_, _, snap)| render_frame(&renderer, &grid, snap, annotate))
                .collect();
            for ((d_sim, d_adapt, snap), rf) in batch.drain(..).zip(rendered) {
                let t_commit = Instant::now();
                tracker.observe(frames, &rf.feats);
                cinema.add_encoded(snap.timestep, snap.sim_hours, rf.png);
                census = rf.census;
                let d_commit = t_commit.elapsed();
                timings.push((d_sim, d_adapt + rf.d_worker + d_commit, census.clone()));
                frames += 1;
                let _ = ret_tx.send(snap); // producer may already be done
            }
        }
    });
    let wall_end_to_end = t_run.elapsed();
    // Replay the measured phases through the tracer in the interleaved
    // order the sequential path would have recorded them.
    let mut wtr = WallTracer::new(rec);
    let mut wall_sim = Duration::ZERO;
    let mut wall_viz = Duration::ZERO;
    for (frame, (d_sim, d_viz, c)) in timings.iter().enumerate() {
        wall_sim += *d_sim;
        wtr.phase(JobPhase::Simulate, *d_sim);
        wall_viz += *d_viz;
        wtr.phase(JobPhase::Visualize, *d_viz);
        note_frame(rec, wtr.now(), frame as u64, c);
    }
    let image_bytes = cinema.total_bytes();
    if rec.is_on() {
        rec.counter_add(wtr.now(), "native.image_bytes", image_bytes as f64);
    }
    rec.close(wtr.now(), root);
    NativeReport {
        frames,
        wall_sim,
        wall_viz,
        wall_io: Duration::ZERO, // image bytes counted; kept in memory here
        wall_end_to_end,
        raw_bytes: 0,
        image_bytes,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
    }
}

/// The original strictly-serialized in-situ loop, kept as the golden
/// baseline the pipelined path is tested (and benchmarked) against.
pub fn run_native_insitu_sequential(cfg: &NativeConfig) -> NativeReport {
    run_native_insitu_sequential_with(cfg, &Recorder::off())
}

/// [`run_native_insitu_sequential`] with a trace recorder.
pub fn run_native_insitu_sequential_with(cfg: &NativeConfig, rec: &Recorder) -> NativeReport {
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let mut adaptor = CatalystAdaptor::new();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let mut cinema = CinemaDatabase::new("insitu-eddies");
    let mut tracker = tracker_for(model.grid());
    let root = open_native_root(rec, cfg, "insitu");
    let mut wtr = WallTracer::new(rec);
    let mut wall_sim = Duration::ZERO;
    let mut wall_viz = Duration::ZERO;
    let mut frames = 0u64;
    let mut census = frame_census(&[]);
    let mut step = 0u64;
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        let t0 = Instant::now();
        model.run(chunk);
        let d_sim = t0.elapsed();
        wall_sim += d_sim;
        wtr.phase(JobPhase::Simulate, d_sim);
        step += chunk;
        let t1 = Instant::now();
        let snap = adaptor.adapt(&model);
        census = visualize_frame(
            &renderer,
            &mut cinema,
            &mut tracker,
            model.grid(),
            &snap,
            frames,
            cfg.annotate,
        );
        let d_viz = t1.elapsed();
        wall_viz += d_viz;
        wtr.phase(JobPhase::Visualize, d_viz);
        note_frame(rec, wtr.now(), frames, &census);
        frames += 1;
    }
    let image_bytes = cinema.total_bytes();
    if rec.is_on() {
        rec.counter_add(wtr.now(), "native.image_bytes", image_bytes as f64);
    }
    rec.close(wtr.now(), root);
    NativeReport {
        frames,
        wall_sim,
        wall_viz,
        wall_io: Duration::ZERO, // image bytes counted; kept in memory here
        wall_end_to_end: t_run.elapsed(),
        raw_bytes: 0,
        image_bytes,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
    }
}

/// What a fault-aware native run produced.
#[derive(Debug, Clone)]
pub struct NativeFaultReport {
    /// The usual report. `frames`, the Cinema database and the tracks
    /// cover only the frames actually written — the Cinema index always
    /// matches the images present, however many frames were shed.
    pub report: NativeReport,
    /// What the fault layer did.
    pub stats: FaultStats,
}

/// Run the native in-situ pipeline under a fault scenario.
///
/// The native backend has no parallel filesystem, so only two fault kinds
/// apply: `TransientIo` windows make the per-frame image store step fail
/// probabilistically (retried without wall cost — the store is in-memory —
/// and shed once the retry budget is exhausted), and the degradation state
/// machine sheds frames outright at elevated levels. Brownouts, MDS stalls
/// and disk pressure are storage-model faults and have no native analogue;
/// compute stragglers don't apply to a single host. Fault windows are
/// matched against *simulated* time (`snap.sim_hours`), so a plan is
/// meaningful regardless of host speed, and the run never panics or hangs:
/// every frame is either written or counted as shed.
///
/// With [`FaultScenario::none`] the outputs (Cinema index, PNG bytes, eddy
/// tracks) are bit-identical to [`run_native_insitu_sequential`].
pub fn run_native_insitu_faulted(
    cfg: &NativeConfig,
    scenario: &FaultScenario,
) -> NativeFaultReport {
    run_native_insitu_faulted_with(cfg, scenario, &Recorder::off())
}

/// [`run_native_insitu_faulted`] with a trace recorder.
pub fn run_native_insitu_faulted_with(
    cfg: &NativeConfig,
    scenario: &FaultScenario,
    rec: &Recorder,
) -> NativeFaultReport {
    let t_run = Instant::now();
    let mut session = FaultSession::new(scenario);
    let mut model = cfg.build_model();
    let mut adaptor = CatalystAdaptor::new();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let mut cinema = CinemaDatabase::new("insitu-eddies");
    let mut tracker = tracker_for(model.grid());
    let root = open_native_root(rec, cfg, "insitu");
    let mut wtr = WallTracer::new(rec);
    let mut wall_sim = Duration::ZERO;
    let mut wall_viz = Duration::ZERO;
    let mut written = 0u64;
    let mut frame = 0u64;
    let mut census = frame_census(&[]);
    let mut step = 0u64;
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        let t0 = Instant::now();
        model.run(chunk);
        let d_sim = t0.elapsed();
        wall_sim += d_sim;
        wtr.phase(JobPhase::Simulate, d_sim);
        step += chunk;
        let t1 = Instant::now();
        let snap = adaptor.adapt(&model);
        // Fault windows are scheduled in simulated time.
        let sim_t = SimTime::from_secs_f64(snap.sim_hours * 3600.0);
        if session.should_shed(frame) {
            session.stats.outputs_shed += 1;
            rec.event(
                wtr.now(),
                "output_shed",
                Component::Fault,
                &[
                    ("index", AttrValue::U64(frame)),
                    ("reason", AttrValue::Str("degraded")),
                ],
            );
            rec.counter_add(wtr.now(), "fault.sheds", 1.0);
            frame += 1;
            continue;
        }
        // The image store step may fail transiently. Retries are free in
        // wall time (the store is in-memory); exhaustion sheds the frame
        // rather than aborting the solver.
        let mut failed = 0u32;
        let stored = loop {
            if !session.roll_io_failure(sim_t) {
                break true;
            }
            rec.counter_add(wtr.now(), "fault.injected_failures", 1.0);
            failed += 1;
            let _ = session.pressure();
            if failed >= session.retry.max_attempts {
                break false;
            }
            // Draw the jitter so the retry schedule matches the campaign
            // backend's RNG discipline; no wall time passes here.
            let _backoff = session.backoff_for(failed);
            rec.counter_add(wtr.now(), "fault.retries", 1.0);
        };
        if stored {
            census = visualize_frame(
                &renderer,
                &mut cinema,
                &mut tracker,
                model.grid(),
                &snap,
                frame,
                cfg.annotate,
            );
            let d_viz = t1.elapsed();
            wall_viz += d_viz;
            wtr.phase(JobPhase::Visualize, d_viz);
            note_frame(rec, wtr.now(), frame, &census);
            session.stats.outputs_written += 1;
            let _ = session.clean();
            written += 1;
        } else {
            session.stats.outputs_shed += 1;
            rec.event(
                wtr.now(),
                "output_shed",
                Component::Fault,
                &[
                    ("index", AttrValue::U64(frame)),
                    ("reason", AttrValue::Str("retries-exhausted")),
                ],
            );
            rec.counter_add(wtr.now(), "fault.sheds", 1.0);
        }
        frame += 1;
    }
    let image_bytes = cinema.total_bytes();
    if rec.is_on() {
        rec.counter_add(wtr.now(), "native.image_bytes", image_bytes as f64);
    }
    rec.close(wtr.now(), root);
    NativeFaultReport {
        report: NativeReport {
            frames: written,
            wall_sim,
            wall_viz,
            wall_io: Duration::ZERO,
            wall_end_to_end: t_run.elapsed(),
            raw_bytes: 0,
            image_bytes,
            cinema,
            tracks: tracker.finish(),
            final_census: census,
        },
        stats: session.into_stats(),
    }
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
    f.encode().to_vec()
}

/// Decode a raw file back into a [`VizSnapshot`]. Every way the bytes
/// can disappoint — truncation, a missing variable or attribute, a
/// wrong dtype, a shape that doesn't match the declared dims — comes
/// back as a typed [`PipelineError::CorruptFrame`] instead of a panic,
/// so one bad file fails one frame, not the whole campaign.
fn decode_raw(frame: u64, bytes: &[u8]) -> Result<VizSnapshot, PipelineError> {
    let corrupt = |detail: String| PipelineError::CorruptFrame { frame, detail };
    let f = NcFile::decode(bytes).map_err(|e| corrupt(format!("decode failed: {e}")))?;
    let ny = f
        .dims
        .first()
        .ok_or_else(|| corrupt("missing y dimension".into()))?
        .1 as usize;
    let nx = f
        .dims
        .get(1)
        .ok_or_else(|| corrupt("missing x dimension".into()))?
        .1 as usize;
    let to_field = |name: &str| -> Result<Field2D, PipelineError> {
        let var = f
            .var(name)
            .ok_or_else(|| corrupt(format!("variable {name:?} missing")))?;
        let data = match &var.data {
            VarData::F64(xs) => xs,
            other => {
                return Err(corrupt(format!(
                    "variable {name:?}: expected f64 data, got {other:?}"
                )))
            }
        };
        if data.len() != nx * ny {
            return Err(corrupt(format!(
                "variable {name:?}: {} values for a {nx}×{ny} grid",
                data.len()
            )));
        }
        let mut field = Field2D::zeros(nx, ny);
        field.data_mut().copy_from_slice(data);
        Ok(field)
    };
    let attr = |name: &str| -> Result<&str, PipelineError> {
        f.attr(name)
            .ok_or_else(|| corrupt(format!("attribute {name:?} missing")))
    };
    Ok(VizSnapshot {
        timestep: attr("timestep")?
            .parse()
            .map_err(|e| corrupt(format!("attribute \"timestep\" unparsable: {e}")))?,
        sim_hours: attr("sim_hours")?
            .parse()
            .map_err(|e| corrupt(format!("attribute \"sim_hours\" unparsable: {e}")))?,
        ssh: to_field("ssh")?,
        uc: to_field("uc")?,
        vc: to_field("vc")?,
        okubo_weiss: to_field("W")?,
    })
}

/// Run the post-processing pipeline natively: simulate and write raw ncdf
/// every sample; afterwards read everything back, render and track.
pub fn run_native_postproc(cfg: &NativeConfig) -> NativeReport {
    run_native_postproc_with(cfg, &Recorder::off())
}

/// [`run_native_postproc`] with a trace recorder. Raw-file encodes are
/// traced as write phases and the stage-2 decodes as read phases, so the
/// exported timeline shows the paper's two-stage structure.
///
/// The raw store is produced and consumed inside this call, so decode
/// failures are impossible by construction; the fallible surface for
/// callers holding their own bytes is [`try_run_native_postproc`].
pub fn run_native_postproc_with(cfg: &NativeConfig, rec: &Recorder) -> NativeReport {
    try_run_native_postproc_with(cfg, rec).expect("self-produced raw files always decode")
}

/// [`run_native_postproc`], surfacing stage-2 decode failures as typed
/// [`PipelineError::CorruptFrame`] errors instead of panicking.
pub fn try_run_native_postproc(cfg: &NativeConfig) -> Result<NativeReport, PipelineError> {
    try_run_native_postproc_with(cfg, &Recorder::off())
}

/// [`try_run_native_postproc`] with a trace recorder.
pub fn try_run_native_postproc_with(
    cfg: &NativeConfig,
    rec: &Recorder,
) -> Result<NativeReport, PipelineError> {
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let mut adaptor = CatalystAdaptor::new();
    let root = open_native_root(rec, cfg, "postproc");
    let mut wtr = WallTracer::new(rec);
    let mut wall_sim = Duration::ZERO;
    let mut wall_io = Duration::ZERO;
    let mut store: Vec<Vec<u8>> = Vec::new();
    let mut step = 0u64;
    // Stage 1: simulate + write raw.
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        let t0 = Instant::now();
        model.run(chunk);
        let d_sim = t0.elapsed();
        wall_sim += d_sim;
        wtr.phase(JobPhase::Simulate, d_sim);
        step += chunk;
        let t1 = Instant::now();
        let snap = adaptor.adapt(&model);
        store.push(encode_raw(&snap));
        let d_io = t1.elapsed();
        wall_io += d_io;
        wtr.phase(JobPhase::WriteOutput, d_io);
        if rec.is_on() {
            let bytes = store.last().map_or(0, |b| b.len() as u64);
            rec.counter_add(wtr.now(), "native.raw_bytes", bytes as f64);
        }
    }
    let raw_bytes: u64 = store.iter().map(|b| b.len() as u64).sum();
    // Stage 2: read back, render, track.
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let mut cinema = CinemaDatabase::new("postproc-eddies");
    let mut tracker = tracker_for(model.grid());
    let mut wall_viz = Duration::ZERO;
    let mut census = frame_census(&[]);
    for (frame, bytes) in store.iter().enumerate() {
        let t0 = Instant::now();
        let snap = decode_raw(frame as u64, bytes)?;
        let d_read = t0.elapsed();
        wall_io += d_read;
        wtr.phase(JobPhase::ReadInput, d_read);
        let t1 = Instant::now();
        census = visualize_frame(
            &renderer,
            &mut cinema,
            &mut tracker,
            model.grid(),
            &snap,
            frame as u64,
            cfg.annotate,
        );
        let d_viz = t1.elapsed();
        wall_viz += d_viz;
        wtr.phase(JobPhase::Visualize, d_viz);
        note_frame(rec, wtr.now(), frame as u64, &census);
    }
    let image_bytes = cinema.total_bytes();
    if rec.is_on() {
        rec.counter_add(wtr.now(), "native.image_bytes", image_bytes as f64);
    }
    rec.close(wtr.now(), root);
    Ok(NativeReport {
        frames: store.len() as u64,
        wall_sim,
        wall_viz,
        wall_io,
        wall_end_to_end: t_run.elapsed(),
        raw_bytes,
        image_bytes,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(r.wall_total(), r.wall_sim + r.wall_viz + r.wall_io);
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

    #[test]
    fn try_postproc_matches_infallible_path() {
        let cfg = NativeConfig::tiny();
        let a = try_run_native_postproc(&cfg).expect("healthy run decodes");
        let b = run_native_postproc(&cfg);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.cinema.index_json(), b.cinema.index_json());
        assert_eq!(a.tracks, b.tracks);
    }

    #[test]
    fn pipelined_matches_sequential_exactly() {
        let cfg = NativeConfig::tiny();
        let a = run_native_insitu(&cfg);
        let b = run_native_insitu_sequential(&cfg);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.cinema.index_json(), b.cinema.index_json());
        for (ea, eb) in a.cinema.entries().iter().zip(b.cinema.entries()) {
            assert_eq!(ea.data, eb.data, "frame {} differs", ea.timestep);
        }
        assert_eq!(a.tracks, b.tracks);
        assert_eq!(a.final_census, b.final_census);
    }

    #[test]
    fn depth_k_matches_sequential_exactly() {
        // Annotate so the worker's overlay path is exercised too.
        let mut cfg = NativeConfig::tiny();
        cfg.annotate = true;
        let golden = run_native_insitu_sequential(&cfg);
        for depth in [1, 2, 4] {
            let r = run_native_insitu_depth(&cfg, depth);
            assert_eq!(r.frames, golden.frames, "depth {depth}");
            assert_eq!(
                r.cinema.index_json(),
                golden.cinema.index_json(),
                "depth {depth}"
            );
            for (ea, eb) in r.cinema.entries().iter().zip(golden.cinema.entries()) {
                assert_eq!(ea.data, eb.data, "depth {depth} frame {}", ea.timestep);
            }
            assert_eq!(r.tracks, golden.tracks, "depth {depth}");
            assert_eq!(r.final_census, golden.final_census, "depth {depth}");
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
        let clean = run_native_insitu_sequential(&cfg);
        let faulted = run_native_insitu_faulted(&cfg, &FaultScenario::none());
        let r = &faulted.report;
        assert_eq!(clean.frames, r.frames);
        assert_eq!(clean.cinema.index_json(), r.cinema.index_json());
        for (ea, eb) in clean.cinema.entries().iter().zip(r.cinema.entries()) {
            assert_eq!(ea.data, eb.data, "frame {} differs", ea.timestep);
        }
        assert_eq!(clean.tracks, r.tracks);
        assert_eq!(clean.final_census, r.final_census);
        assert_eq!(faulted.stats.outputs_written, clean.frames);
        assert_eq!(faulted.stats.outputs_shed, 0);
        assert_eq!(faulted.stats.injected_io_failures, 0);
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
        let faulted = run_native_insitu_faulted(&cfg, &scenario);
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
        let a = run_native_insitu_faulted(&cfg, &scenario);
        // The index always matches the images actually written...
        assert_eq!(a.report.cinema.len() as u64, a.report.frames);
        assert_eq!(a.report.frames, a.stats.outputs_written);
        assert_eq!(a.stats.outputs_total(), 3, "every frame accounted for");
        // ...and the whole degraded run replays deterministically.
        let b = run_native_insitu_faulted(&cfg, &scenario);
        assert_eq!(a.report.cinema.index_json(), b.report.cinema.index_json());
        assert_eq!(a.stats, b.stats);
    }
}
