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
//! ## One frame loop
//!
//! Every in-situ run — fixed-rate, faulted, adaptive — is the same private
//! depth-*k* producer/consumer, `frame_loop`: a producer thread advances
//! the model and adapts snapshots while the calling thread drains up to *k*
//! queued snapshots at a time, works on them **frame-parallel** on the
//! worker pool (a frame's segmentation, rasterization and PNG encode is a
//! pure function of its deep-copied [`VizSnapshot`]) and commits strictly
//! in frame order. The users differ only in two closures: the per-snapshot
//! *work*, and the *commit policy* that decides whether a frame is stored,
//! skipped or shed. [`run_native_insitu_at`] renders every `output_every`
//! steps and commits under a [`FaultSession`] — a clean run **is** a
//! faulted run under [`FaultScenario::none`]; [`crate::adaptive`] analyzes
//! every `analysis_interval` steps and commits under the trigger
//! controller; a strictly serialized run is depth 1.
//!
//! Chunk placement never changes *what* is computed, so all outputs (PNG
//! bytes, Cinema index, eddy tracks, fault statistics, trace structure)
//! are **bit-identical** at every depth and thread count; the sequential
//! loops this replaced live on as `tests/golden/native_identity.txt`.
//! Workers keep per-thread scratch (sample tables, image buffer, PNG
//! encoder), so steady-state rendering allocates only each frame's PNG.
//!
//! [`run_native_postproc`] is the one independent renderer left (two
//! sequential stages, row-parallel rasterizer), which keeps
//! `both_pipelines_produce_identical_images` a live differential oracle.

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
    /// End-to-end wall time of the whole run: ≈ [`NativeReport::wall_total`]
    /// for post-processing, smaller for in-situ at depth > 1, where solver
    /// and visualization overlap.
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
        outputs_digest(&[], &self.cinema, &self.tracks, &self.final_census)
    }
}

/// FNV-1a-64 over `head`, then what every native report's digest ends
/// with: Cinema index, PNG bytes, track count, final census.
pub(crate) fn outputs_digest(
    head: &[u8],
    cinema: &CinemaDatabase,
    tracks: &[Track],
    census: &FrameCensus,
) -> String {
    let index = cinema.index_json();
    let tail = [
        tracks.len() as u64,
        census.count as u64,
        census.total_area_m2.to_bits(),
    ]
    .map(u64::to_le_bytes);
    let parts = [head, index.as_bytes()]
        .into_iter()
        .chain(cinema.entries().iter().map(|e| e.data.as_slice()))
        .chain(tail.iter().map(|t| t.as_slice()));
    let h = parts.flatten().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Maps the native backend's wall-clock measurements onto a gap-free
/// virtual [`SimTime`] axis (t = accumulated measured wall time), so the
/// same trace schema, Gantt renderer and timeline tooling work on real
/// runs. Phase spans are recorded after the fact, once their duration is
/// known; the per-phase totals become the report's `wall_*` fields.
struct WallTracer<'a> {
    rec: &'a Recorder,
    root: SpanId,
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
        if self.rec.is_on() {
            let id = self.rec.phase_span(start, phase, Component::Native);
            self.rec.close(self.now(), id);
        }
    }

    /// Record one stored frame: event plus frame counter.
    fn frame(&self, frame: u64, census: &FrameCensus) {
        if !self.rec.is_on() {
            return;
        }
        let t = self.now();
        self.rec.event(
            t,
            "frame_rendered",
            Component::Viz,
            &[
                ("frame", AttrValue::U64(frame)),
                ("eddies", AttrValue::U64(census.count as u64)),
            ],
        );
        self.rec.counter_add(t, "native.frames", 1.0);
    }

    /// Close the run: the image-bytes counter, then the root span.
    fn finish(&self, image_bytes: u64) {
        if self.rec.is_on() {
            self.rec
                .counter_add(self.now(), "native.image_bytes", image_bytes as f64);
        }
        self.rec.close(self.now(), self.root);
    }
}

fn tracker_for(grid: &Grid) -> EddyTracker {
    let (lx, _) = grid.extent();
    // Gate: eddies drift slowly; half a basin-width per frame is plenty.
    EddyTracker::new(6.0 * grid.dx, 2, lx)
}

/// Draw the presentation-ready overlays (velocity arrows, colorbar, time
/// label) on a rendered frame — shared by the in-situ workers and the
/// post-processing renderer so their annotated pixels are identical.
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
/// bytes are bit-identical to post-processing's `render` + `add_image`: the
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
    RenderedFrame { feats, census, png }
}

/// The pipeline depth [`run_native_insitu`] uses:
/// `min(4, available_parallelism)` — deeper than the host can render in
/// parallel only buys memory traffic.
pub fn default_pipeline_depth() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(4)
}

/// What a commit policy decided for one frame, and so what the trace
/// records after the frame's Simulate phase.
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
/// advances the model `chunk_steps` at a time and adapts a snapshot per
/// chunk, at most `depth` chunks ahead of the oldest uncommitted one. The
/// calling thread drains up to `depth` queued snapshots, runs `work` on them
/// in parallel — it must be a pure function of the snapshot, and is
/// speculative: a frame the policy then sheds or skips was rendered and is
/// thrown away — and calls `commit(index, snapshot, census, extra, now)`
/// strictly in chunk order, `now` being the trace time after the chunk's
/// Simulate phase. Everything stateful (fault RNG, trigger hysteresis,
/// tracker, Cinema index, trace) therefore sees the order a serialized run
/// would, at any depth and thread count.
pub(crate) fn frame_loop<X: Send>(
    cfg: &NativeConfig,
    chunk_steps: u64,
    depth: usize,
    rec: &Recorder,
    kind: &'static str,
    work: impl Fn(&VizSnapshot) -> (RenderedFrame, X) + Sync,
    mut commit: impl FnMut(u64, &VizSnapshot, &FrameCensus, X, SimTime) -> Commit,
) -> NativeReport {
    let depth = depth.max(1);
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let mut tracker = tracker_for(model.grid());
    let mut cinema = CinemaDatabase::new(format!("{kind}-eddies"));
    let mut wtr = WallTracer::open(rec, cfg, kind);
    let mut census = frame_census(&[]);
    let mut index = 0u64;
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
                let chunk = chunk_steps.min(cfg.steps - step);
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
                if tx.send((d_sim, t1.elapsed(), snap)).is_err() {
                    return; // consumer gone (it panicked); just stop
                }
            }
        });
        let mut batch = Vec::with_capacity(depth);
        // Loop ends when the producer is done and the queue drained.
        while let Ok(first) = rx.recv() {
            batch.push(first);
            batch.extend(rx.try_iter().take(depth - 1));
            let worked: Vec<_> = batch
                .par_iter()
                .map(|(_, _, snap)| {
                    let t0 = Instant::now();
                    (work(snap), t0.elapsed())
                })
                .collect();
            for ((d_sim, d_adapt, snap), ((frame, extra), d_work)) in batch.drain(..).zip(worked) {
                wtr.phase(JobPhase::Simulate, d_sim);
                let t_commit = Instant::now();
                let verdict = commit(index, &snap, &frame.census, extra, wtr.now());
                index += 1;
                if let Commit::Emit(n) = verdict {
                    tracker.observe(n, &frame.feats);
                    cinema.add_encoded(snap.timestep, snap.sim_hours, frame.png);
                }
                if !matches!(verdict, Commit::Shed) {
                    census = frame.census;
                    wtr.phase(JobPhase::Visualize, d_adapt + d_work + t_commit.elapsed());
                }
                if let Commit::Emit(n) = verdict {
                    wtr.frame(n, &census);
                }
                let _ = ret_tx.send(snap); // producer may already be done
            }
        }
    });
    let wall_end_to_end = t_run.elapsed();
    let image_bytes = cinema.total_bytes();
    wtr.finish(image_bytes);
    NativeReport {
        frames: cinema.len() as u64,
        wall_sim: wtr.sim,
        wall_viz: wtr.viz,
        wall_io: Duration::ZERO, // image bytes counted; kept in memory here
        wall_end_to_end,
        raw_bytes: 0,
        image_bytes,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
    }
}

/// Run the in-situ pipeline natively: simulate, adapt, render and track;
/// only images are "written". Solver and visualization run pipelined with
/// up to [`default_pipeline_depth`] frames in flight, rendered and encoded
/// frame-parallel on the worker pool (see the module docs).
pub fn run_native_insitu(cfg: &NativeConfig) -> NativeReport {
    let depth = default_pipeline_depth();
    run_native_insitu_at(cfg, depth, &FaultScenario::none(), &Recorder::off()).report
}

/// [`run_native_insitu`] strictly serialized — depth 1, same outputs. Kept
/// only until the benchmark package, which links it as its single-threaded
/// baseline, is redefined (ROADMAP 1(b)).
pub fn run_native_insitu_sequential(cfg: &NativeConfig) -> NativeReport {
    run_native_insitu_at(cfg, 1, &FaultScenario::none(), &Recorder::off()).report
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

/// The explicit in-situ entry point: up to `depth` output chunks and
/// frames in flight, under a fault scenario, tracing into `rec`. Outputs
/// are bit-identical at **every** depth and thread count.
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
/// every frame is either written or counted as shed. Fault decisions are
/// taken at commit, in frame order, so they never depend on `depth`.
pub fn run_native_insitu_at(
    cfg: &NativeConfig,
    depth: usize,
    scenario: &FaultScenario,
    rec: &Recorder,
) -> NativeFaultReport {
    let mut session = FaultSession::new(scenario);
    let grid = cfg.grid();
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let report = frame_loop(
        cfg,
        cfg.output_every,
        depth,
        rec,
        "insitu",
        |snap| (render_frame(&renderer, &grid, snap, cfg.annotate), ()),
        |frame, snap, _, (), now| store_or_shed(&mut session, frame, snap, rec, now),
    );
    NativeFaultReport {
        report,
        stats: session.into_stats(),
    }
}

/// The fixed-rate commit policy: store frame `frame` unless the fault
/// session sheds it.
fn store_or_shed(
    session: &mut FaultSession,
    frame: u64,
    snap: &VizSnapshot,
    rec: &Recorder,
    now: SimTime,
) -> Commit {
    let shed_because = if session.should_shed(frame) {
        Some("degraded")
    } else {
        // The image store step may fail transiently. Retries are free in
        // wall time (the store is in-memory); exhaustion sheds the frame
        // rather than aborting the solver. Fault windows are scheduled in
        // simulated time.
        let sim_t = SimTime::from_secs_f64(snap.sim_hours * 3600.0);
        let mut failed = 0u32;
        loop {
            if !session.roll_io_failure(sim_t) {
                break None;
            }
            rec.counter_add(now, "fault.injected_failures", 1.0);
            failed += 1;
            let _ = session.pressure();
            if failed >= session.retry.max_attempts {
                break Some("retries-exhausted");
            }
            // Draw the jitter so the retry schedule matches the campaign
            // backend's RNG discipline; no wall time passes here.
            let _backoff = session.backoff_for(failed);
            rec.counter_add(now, "fault.retries", 1.0);
        }
    };
    match shed_because {
        Some(reason) => {
            session.stats.outputs_shed += 1;
            rec.event(
                now,
                "output_shed",
                Component::Fault,
                &[
                    ("index", AttrValue::U64(frame)),
                    ("reason", AttrValue::Str(reason)),
                ],
            );
            rec.counter_add(now, "fault.sheds", 1.0);
            Commit::Shed
        }
        None => {
            session.stats.outputs_written += 1;
            let _ = session.clean();
            Commit::Emit(frame)
        }
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
pub fn run_native_postproc_with(cfg: &NativeConfig, rec: &Recorder) -> NativeReport {
    let t_run = Instant::now();
    let mut model = cfg.build_model();
    let mut adaptor = CatalystAdaptor::new();
    let mut wtr = WallTracer::open(rec, cfg, "postproc");
    let mut store: Vec<Vec<u8>> = Vec::new();
    let mut step = 0u64;
    // Stage 1: simulate + write raw.
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        let t0 = Instant::now();
        model.run(chunk);
        wtr.phase(JobPhase::Simulate, t0.elapsed());
        step += chunk;
        let t1 = Instant::now();
        let snap = adaptor.adapt(&model);
        store.push(encode_raw(&snap));
        wtr.phase(JobPhase::WriteOutput, t1.elapsed());
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
    let mut census = frame_census(&[]);
    for (frame, bytes) in store.iter().enumerate() {
        let t0 = Instant::now();
        // Produced a few lines up, so a decode failure is a bug here, not
        // an input error.
        let snap = decode_raw(frame as u64, bytes).expect("self-produced raw files decode");
        wtr.phase(JobPhase::ReadInput, t0.elapsed());
        let t1 = Instant::now();
        let w = &snap.okubo_weiss;
        let feats = extract_features(model.grid(), w, &segment_eddies(w, 0.2, 3));
        tracker.observe(frame as u64, &feats);
        let mut img = renderer.render(w);
        if cfg.annotate {
            let (lo, hi) = renderer.resolve_range(w);
            annotate_frame(&renderer, &mut img, &snap, lo, hi);
        }
        cinema.add_image(snap.timestep, snap.sim_hours, &img);
        census = frame_census(&feats);
        wtr.phase(JobPhase::Visualize, t1.elapsed());
        wtr.frame(frame as u64, &census);
    }
    let image_bytes = cinema.total_bytes();
    wtr.finish(image_bytes);
    NativeReport {
        frames: store.len() as u64,
        wall_sim: wtr.sim,
        wall_viz: wtr.viz,
        wall_io: wtr.io,
        wall_end_to_end: t_run.elapsed(),
        raw_bytes,
        image_bytes,
        cinema,
        tracks: tracker.finish(),
        final_census: census,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{self, Golden};

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

    fn frames_line(r: &NativeReport) -> String {
        golden::frames_line(&r.cinema, &r.tracks, &r.final_census)
    }

    #[test]
    fn pipelined_matches_sequential_exactly() {
        let r = run_native_insitu(&NativeConfig::tiny());
        Golden::load().check("native/tiny/frames", &frames_line(&r));
    }

    #[test]
    fn depth_k_matches_sequential_exactly() {
        // Annotate so the worker's overlay path is exercised too.
        let mut cfg = NativeConfig::tiny();
        cfg.annotate = true;
        let golden = Golden::load();
        for depth in [1, 2, 4] {
            let r = run_native_insitu_at(&cfg, depth, &FaultScenario::none(), &Recorder::off());
            golden.check("native/tiny-annotate/frames", &frames_line(&r.report));
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
            let faulted =
                run_native_insitu_at(&cfg, depth, &FaultScenario::none(), &Recorder::off());
            golden.check("native/tiny/frames", &frames_line(&faulted.report));
            golden.check("native/tiny/fault/none/stats", &faulted.stats.digest());
            assert_eq!(faulted.stats.outputs_written, faulted.report.frames);
        }
    }

    /// The plan of `tiny-12/fault/io80-seed9`: twelve frames, eight shed —
    /// most by degradation level — so the loop renders frames the policy
    /// then throws away. Neither the stats nor the stored frames may
    /// notice, at any depth.
    #[test]
    fn speculative_rendering_of_shed_frames_is_invisible() {
        use ivis_fault::{FaultKind, FaultPlan, FaultWindow};
        let cfg = NativeConfig {
            output_every: 2,
            ..NativeConfig::tiny()
        };
        let scenario = FaultScenario::with_plan(FaultPlan::new(9).inject(
            FaultWindow::of_secs(0, u64::MAX / 2_000_000),
            FaultKind::TransientIo { fail_prob: 0.8 },
        ));
        let golden = Golden::load();
        for depth in [1, 2, 4] {
            let out = run_native_insitu_at(&cfg, depth, &scenario, &Recorder::off());
            golden.check(
                "native/tiny-12/fault/io80-seed9/frames",
                &frames_line(&out.report),
            );
            golden.check("native/tiny-12/fault/io80-seed9/stats", &out.stats.digest());
        }
    }

    /// Run the loop on twelve chunks at `depth` with the given closures
    /// under a 60 s watchdog; true iff the call unwound.
    fn loop_unwinds(
        depth: usize,
        work: impl Fn(&VizSnapshot) -> (RenderedFrame, ()) + Sync + Send + 'static,
        commit: impl FnMut(u64) -> Commit + Send + 'static,
    ) -> bool {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cfg = NativeConfig {
                output_every: 2,
                ..NativeConfig::tiny()
            };
            let mut commit = commit;
            let run = std::panic::AssertUnwindSafe(|| {
                frame_loop(
                    &cfg,
                    cfg.output_every,
                    depth,
                    &Recorder::off(),
                    "insitu",
                    work,
                    |i, _, _, (), _| commit(i),
                )
            });
            let _ = done_tx.send(std::panic::catch_unwind(run).is_err());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the frame loop hung instead of unwinding")
    }

    fn blank_frame(_: &VizSnapshot) -> (RenderedFrame, ()) {
        let frame = RenderedFrame {
            feats: Vec::new(),
            census: frame_census(&[]),
            png: Vec::new(),
        };
        (frame, ())
    }

    #[test]
    fn a_panicking_commit_unwinds_instead_of_hanging() {
        // Depth 1 with ten chunks still to come: the producer is blocked on
        // the full hand-off when the consumer dies.
        let unwound = loop_unwinds(1, blank_frame, |i| {
            assert!(i < 1, "commit policy blew up on the second frame");
            Commit::Emit(i)
        });
        assert!(unwound);
    }

    #[test]
    fn a_panicking_worker_unwinds_instead_of_hanging() {
        let work = |snap: &VizSnapshot| {
            assert!(snap.timestep < 6, "frame worker blew up inside the batch");
            blank_frame(snap)
        };
        assert!(loop_unwinds(2, work, Commit::Emit));
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
        let faulted = run_native_insitu_at(&cfg, 2, &scenario, &Recorder::off());
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
        let a = run_native_insitu_at(&cfg, 2, &scenario, &Recorder::off());
        // The index always matches the images actually written...
        assert_eq!(a.report.cinema.len() as u64, a.report.frames);
        assert_eq!(a.report.frames, a.stats.outputs_written);
        assert_eq!(a.stats.outputs_total(), 3, "every frame accounted for");
        // ...and the whole degraded run replays deterministically.
        let b = run_native_insitu_at(&cfg, 4, &scenario, &Recorder::off());
        assert_eq!(a.report.cinema.index_json(), b.report.cinema.index_json());
        assert_eq!(a.stats, b.stats);
    }
}
