//! The native workloads: `native_insitu` and `native_postproc`.
//!
//! One iteration is one whole native run. The traced pass runs a
//! hand-written sequential frame loop — solver, adaptor, (ncdf encode
//! and decode on the post-processing path,) segmentation, features,
//! table rebuild, shading, annotation, PNG encode, tracking, Cinema
//! commit — through the same public functions the executors call, one
//! span per stage per frame. Its PNGs must equal the executor's byte for
//! byte, which is what makes its stage times a breakdown of the
//! executor's work and not of something else.

use ivis_core::adaptor::{CatalystAdaptor, VizSnapshot};
use ivis_core::native::{
    default_pipeline_depth, run_native_insitu, run_native_insitu_sequential, run_native_postproc,
    NativeConfig, NativeReport,
};
use ivis_eddy::census::frame_census;
use ivis_eddy::features::extract_features;
use ivis_eddy::segment::segment_eddies;
use ivis_eddy::tracking::EddyTracker;
use ivis_ocean::grid::Grid;
use ivis_ocean::okubo_weiss::okubo_weiss_into;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_ocean::Field2D;
use ivis_storage::ncdf::{NcFile, VarData};
use ivis_trigger::{score_viewpoints, TriggerConfig, ViewpointGrid};
use ivis_viz::annotate::{draw_colorbar, draw_text, GLYPH_H};
use ivis_viz::color::Rgb;
use ivis_viz::glyphs::overlay_velocity_arrows;
use ivis_viz::png::{adler32, crc32, encoded_png_size, PngEncoder};
use ivis_viz::raster::{ImageBuffer, SampleTables};
use ivis_viz::render::FieldRenderer;
use ivis_viz::CinemaDatabase;

use super::{attributed_ms, hash_words, median_secs, replay_iterations, FNV_OFFSET};
use crate::harness::{Checks, Pin, TraceCtx, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Which native executor an iteration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `run_native_insitu`: pipelined producer/consumer, no storage codec.
    InSitu,
    /// `run_native_postproc`: sequential, ncdf write then read.
    PostProc,
}

/// The native configuration both workloads share: a 256×128 ocean, 24
/// frames of 720×512, 12 eddies placed by `seed`.
///
/// `annotate` is off. With it on, `run_native_insitu` draws velocity
/// arrows while it holds its thread-local frame scratch; the arrows take
/// a parallel `max_abs`, and a pool thread waiting there can pick up the
/// next frame's render task, borrow the same scratch again and panic
/// ("RefCell already borrowed" at `native.rs:304`) — after which the run
/// hangs. It took about one run in 600 here; a benchmark cannot carry a
/// workload that does that, and this PR may not fix product code.
pub fn native_config(seed: u64, quick: bool) -> NativeConfig {
    if quick {
        NativeConfig {
            seed,
            ..NativeConfig::tiny()
        }
    } else {
        NativeConfig {
            nx: 256,
            ny: 128,
            cell_m: 60_000.0,
            steps: 192,
            output_every: 8,
            num_eddies: 12,
            seed,
            image_width: 720,
            image_height: 512,
            annotate: false,
        }
    }
}

pub struct NativeWorkload {
    path: Path,
    cfg: NativeConfig,
    /// Whether the configuration is the pinned size.
    pinned: bool,
    last: Option<NativeReport>,
    reference: Option<NativeReport>,
    /// `NativeReport` wall times of every verified iteration, ms.
    walls: [Vec<f64>; 3],
}

impl NativeWorkload {
    pub fn new(path: Path, seed: u64, quick: bool) -> Self {
        NativeWorkload {
            path,
            cfg: native_config(seed, quick),
            pinned: !quick,
            last: None,
            reference: None,
            walls: Default::default(),
        }
    }

    fn run(&self, path: Path) -> NativeReport {
        match path {
            Path::InSitu => run_native_insitu(&self.cfg),
            Path::PostProc => run_native_postproc(&self.cfg),
        }
    }

    fn frames(&self) -> u64 {
        self.cfg.steps.div_ceil(self.cfg.output_every)
    }
}

/// Frames of `got` whose PNG bytes differ from `want`'s, counting a
/// length mismatch as every frame.
fn differing_frames(got: &CinemaDatabase, want: &CinemaDatabase) -> u64 {
    if got.len() != want.len() {
        return got.len().max(want.len()) as u64;
    }
    got.entries()
        .iter()
        .zip(want.entries())
        .filter(|(a, b)| a.timestep != b.timestep || a.data != b.data)
        .count() as u64
}

impl Workload for NativeWorkload {
    fn iterate(&mut self) {
        // Dropping the previous report (tens of megabytes of PNGs) is
        // `verify`'s job, outside the timed region.
        debug_assert!(self.last.is_none());
        self.last = Some(self.run(self.path));
    }

    fn verify(&mut self, checks: &mut Checks) -> u64 {
        let report = self.last.take().expect("verify follows iterate");
        let frames = self.frames();
        let png = encoded_png_size(self.cfg.image_width, self.cfg.image_height);
        checks.op(
            report.frames == frames && report.cinema.len() as u64 == frames,
            || {
                format!(
                    "{} frames and {} Cinema entries, expected {frames}",
                    report.frames,
                    report.cinema.len()
                )
            },
        );
        // The image database is its PNGs plus its JSON index.
        let index = report.cinema.index_json().len() as u64;
        checks.op(
            report.image_bytes == frames * png + index
                && report
                    .cinema
                    .entries()
                    .iter()
                    .all(|e| e.data.len() as u64 == png),
            || {
                format!(
                    "image_bytes {} != {frames} frames x {png} bytes + {index} index bytes",
                    report.image_bytes
                )
            },
        );
        for (samples, wall) in
            self.walls
                .iter_mut()
                .zip([report.wall_sim, report.wall_viz, report.wall_io])
        {
            samples.push(wall.as_secs_f64() * 1e3);
        }
        match &self.reference {
            None => self.reference = Some(report),
            Some(reference) => {
                let bad = differing_frames(&report.cinema, &reference.cinema);
                checks.ops(frames, bad, || {
                    format!("{bad} frames differ from the first iteration's")
                });
            }
        }
        frames
    }

    fn check_once(&mut self, checks: &mut Checks) {
        let Some(reference) = &self.reference else {
            return;
        };
        let frames = self.frames();
        let other = match self.path {
            Path::InSitu => Path::PostProc,
            Path::PostProc => Path::InSitu,
        };
        let bad = differing_frames(&self.run(other).cinema, &reference.cinema);
        checks.ops(frames, bad, || {
            format!("{bad} frames differ between the in-situ and post-processing executors")
        });
        let replayed = replay_run(&self.cfg, self.path, &mut Tracer::new(false));
        let bad = differing_frames(&replayed.cinema, &reference.cinema);
        checks.ops(frames, bad, || {
            format!("{bad} frames of the replay loop differ from the executor's")
        });
    }

    fn pins(&self) -> Vec<Pin> {
        let Some(reference) = self.reference.as_ref().filter(|_| self.pinned) else {
            return Vec::new();
        };
        let hash = reference
            .cinema
            .entries()
            .iter()
            .fold(FNV_OFFSET, |h, e| hash_words(h, &e.data));
        vec![Pin {
            section: "native",
            key: "cinema".into(),
            value: format!("frames={} png_hash={hash:#018x}", reference.frames),
            every_seed: false,
        }]
    }

    fn trace(&mut self, ctx: &mut TraceCtx<'_>, _checks: &mut Checks) {
        let cfg = self.cfg.clone();
        let path = self.path;
        let mut last = None;
        replay_iterations(ctx, |tr| last = Some(replay_run(&cfg, path, tr)));
        let replayed = last.expect("at least one replay iteration");
        let tr = &*ctx.tracer;
        let l = &mut *ctx.layers;

        let frames = self.frames() as f64;
        let ms = |name: &str| tr.self_ms(name).unwrap_or(0.0);
        let per_frame_us = |name: &str| ms(name) * 1e3 / frames;
        l.set("ocean.steps_per_iter", cfg.steps as f64);
        l.set("ocean.step_us", ms("ocean.run") * 1e3 / cfg.steps as f64);
        // h, u and v each read once and written once per step.
        l.set(
            "ocean.step_computed_bytes",
            (6 * 8 * cfg.nx * cfg.ny) as f64,
        );
        l.set("core.adapt_us", per_frame_us("core.adapt"));
        l.set("eddy.segment_us", per_frame_us("eddy.segment"));
        l.set("eddy.features_us", per_frame_us("eddy.features"));
        l.set("eddy.track_us", per_frame_us("eddy.track"));
        l.set("eddy.detections_per_iter", replayed.detections as f64);
        l.set("viz.table_rebuild_us", per_frame_us("viz.table_rebuild"));
        l.set("viz.shade_ms", ms("viz.shade") / frames);
        l.set("viz.png_encode_ms", ms("viz.png_encode") / frames);
        let png_bytes: f64 = replayed
            .cinema
            .entries()
            .iter()
            .map(|e| e.data.len() as f64)
            .sum();
        l.set("viz.png_mb_per_s", png_bytes / 1e3 / ms("viz.png_encode"));
        l.set("viz.png_bytes_per_frame", png_bytes / frames);
        l.set("viz.cinema_add_us", per_frame_us("viz.cinema_add"));
        if path == Path::PostProc {
            let raw = replayed.raw_bytes as f64;
            l.set(
                "storage.ncdf_encode_mb_per_s",
                raw / 1e3 / ms("storage.ncdf_encode"),
            );
            l.set(
                "storage.ncdf_decode_mb_per_s",
                raw / 1e3 / ms("storage.ncdf_decode"),
            );
            l.set("storage.ncdf_bytes_per_frame", raw / frames);
        }
        let attributed = attributed_ms(tr);
        l.set("core.unattributed_ms", ctx.iter_ms_p50 - attributed);
        for (name, samples) in ["core.wall_sim_ms", "core.wall_viz_ms", "core.wall_io_ms"]
            .into_iter()
            .zip(&self.walls)
        {
            l.set(name, median(samples));
        }

        // Off-path rows.
        let reps = if ctx.quick { 1 } else { 3 };
        if path == Path::InSitu {
            let seq_ms = 1e3
                * median_secs(reps, || {
                    std::hint::black_box(run_native_insitu_sequential(&cfg));
                });
            l.set("core.native_seq_ms", seq_ms);
            l.set("core.pipeline_gain", seq_ms / ctx.iter_ms_p50);
            l.set("core.pipeline_depth", default_pipeline_depth() as f64);
        }
        let snap = &replayed.last_snapshot;
        let grid = Grid::channel(cfg.nx, cfg.ny, cfg.cell_m);
        // The overlays the workloads leave off (see `native_config`),
        // drawn on the last frame.
        let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
        let (lo, hi) = renderer.resolve_range(&snap.okubo_weiss);
        l.set(
            "viz.annotate_us",
            1e6 * median_secs(5, || {
                let mut img = replayed.last_image.clone();
                annotate(&renderer, &mut img, snap, lo, hi);
                std::hint::black_box(img);
            }),
        );
        let mut w = snap.okubo_weiss.clone();
        let calls = if ctx.quick { 10 } else { 200 };
        l.set(
            "ocean.okubo_weiss_us",
            1e6 * median_secs(5, || {
                for _ in 0..calls {
                    okubo_weiss_into(&grid, &snap.uc, &snap.vc, &mut w);
                }
                std::hint::black_box(&w);
            }) / calls as f64,
        );
        // 4 MB of scanline-like bytes: resident in this host's caches,
        // so these are compute rates, not memory bandwidths.
        let payload: Vec<u8> = (0u32..4_000_000)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        l.set(
            "viz.crc32_mb_per_s",
            4.0 / median_secs(9, || {
                std::hint::black_box(crc32(std::hint::black_box(&payload)));
            }),
        );
        l.set(
            "viz.adler32_mb_per_s",
            4.0 / median_secs(9, || {
                std::hint::black_box(adler32(std::hint::black_box(&payload)));
            }),
        );
        let (lx, ly) = grid.extent();
        let feats = extract_features(
            &grid,
            &snap.okubo_weiss,
            &segment_eddies(&snap.okubo_weiss, 0.2, 3),
        );
        let trigger = TriggerConfig::new(cfg.output_every, 5);
        let views = ViewpointGrid::spherical(5);
        l.set(
            "trigger.score_ms",
            1e3 * median_secs(5, || {
                std::hint::black_box(score_viewpoints(
                    &views,
                    &snap.okubo_weiss,
                    &feats,
                    lx,
                    ly,
                    &trigger,
                ));
            }),
        );
    }
}

/// What one run of the replay loop produced.
struct Replayed {
    cinema: CinemaDatabase,
    raw_bytes: u64,
    detections: usize,
    last_snapshot: VizSnapshot,
    last_image: ImageBuffer,
}

/// The post-processing raw file of a snapshot, as `run_native_postproc`
/// lays it out: W, SSH and centered velocities as f64 variables.
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

/// Decode a raw file produced by [`encode_raw`] back into a snapshot.
fn decode_raw(bytes: &[u8]) -> VizSnapshot {
    let f = NcFile::decode(bytes).expect("self-produced raw files decode");
    let (ny, nx) = (f.dims[0].1 as usize, f.dims[1].1 as usize);
    let field = |name: &str| {
        let VarData::F64(data) = &f.var(name).expect("variable written above").data else {
            panic!("variable {name} is f64");
        };
        let mut out = Field2D::zeros(nx, ny);
        out.data_mut().copy_from_slice(data);
        out
    };
    let attr = |name: &str| f.attr(name).expect("attribute written above");
    VizSnapshot {
        timestep: attr("timestep").parse().expect("integer timestep"),
        sim_hours: attr("sim_hours").parse().expect("float hours"),
        ssh: field("ssh"),
        uc: field("uc"),
        vc: field("vc"),
        okubo_weiss: field("W"),
    }
}

/// The overlays `run_native_*` draw on an annotated frame.
fn annotate(renderer: &FieldRenderer, img: &mut ImageBuffer, snap: &VizSnapshot, lo: f64, hi: f64) {
    overlay_velocity_arrows(img, &snap.uc, &snap.vc, 24, Rgb::new(40, 40, 40));
    let bar_w = (img.width() / 3).max(40).min(img.width().saturating_sub(8));
    let bar_y = img.height().saturating_sub(GLYPH_H + 10);
    draw_colorbar(img, 4, bar_y, bar_w, 6, renderer.colormap, lo, hi);
    draw_text(
        img,
        4,
        2,
        &format!("T = {:.0} H", snap.sim_hours),
        Rgb::BLACK,
    );
}

/// One native run as a plain sequential loop over public functions,
/// each stage under its own span.
fn replay_run(cfg: &NativeConfig, path: Path, tr: &mut Tracer) -> Replayed {
    let grid = Grid::channel(cfg.nx, cfg.ny, cfg.cell_m);
    let mut model = ShallowWaterModel::new(grid.clone(), SwParams::eddy_channel(&grid));
    seed_random_eddies(&mut model, cfg.num_eddies, cfg.seed);
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let mut tracker = EddyTracker::new(6.0 * grid.dx, 2, grid.extent().0);
    let mut cinema = CinemaDatabase::new(match path {
        Path::InSitu => "insitu-eddies",
        Path::PostProc => "postproc-eddies",
    });
    let mut adaptor = CatalystAdaptor::new();
    let mut snapshot: Option<VizSnapshot> = None;
    let mut tables: Option<SampleTables> = None;
    let mut img = ImageBuffer::new(cfg.image_width, cfg.image_height);
    let mut enc = PngEncoder::new();
    let mut raw_bytes = 0u64;
    let mut detections = 0usize;
    let mut frame = 0u64;
    let mut step = 0u64;
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        tr.scope("ocean.run", || model.run(chunk));
        step += chunk;
        tr.scope("core.adapt", || match &mut snapshot {
            Some(snap) => adaptor.adapt_into(&model, snap),
            slot => *slot = Some(adaptor.adapt(&model)),
        });
        let mut snap = snapshot.as_ref().expect("adapted above");
        let decoded;
        if path == Path::PostProc {
            let raw = tr.scope("storage.ncdf_encode", || encode_raw(snap));
            raw_bytes += raw.len() as u64;
            decoded = tr.scope("storage.ncdf_decode", || decode_raw(&raw));
            snap = &decoded;
        }
        let w = &snap.okubo_weiss;
        let seg = tr.scope("eddy.segment", || segment_eddies(w, 0.2, 3));
        let feats = tr.scope("eddy.features", || {
            let feats = extract_features(&grid, w, &seg);
            std::hint::black_box(frame_census(&feats));
            feats
        });
        detections += feats.len();
        let (lo, hi) = tr.scope("viz.resolve_range", || renderer.resolve_range(w));
        tr.scope("viz.table_rebuild", || match &mut tables {
            Some(t) if t.matches(w, renderer.width, renderer.height) => t.rebuild(w),
            slot => *slot = Some(SampleTables::new(w, renderer.width, renderer.height)),
        });
        let t = tables.as_ref().expect("built above");
        tr.scope("viz.shade", || {
            for (y, row) in img.pixels_mut().chunks_mut(renderer.width).enumerate() {
                t.shade_row(y, renderer.colormap, lo, hi, row);
            }
        });
        if cfg.annotate {
            tr.scope("viz.annotate", || {
                annotate(&renderer, &mut img, snap, lo, hi)
            });
        }
        let png = tr.scope("viz.png_encode", || {
            let mut png =
                Vec::with_capacity(encoded_png_size(renderer.width, renderer.height) as usize);
            enc.encode_into(&img, &mut png);
            png
        });
        tr.scope("eddy.track", || {
            tracker.observe(frame, &feats);
        });
        tr.scope("viz.cinema_add", || {
            cinema.add_encoded(snap.timestep, snap.sim_hours, png)
        });
        frame += 1;
    }
    Replayed {
        cinema,
        raw_bytes,
        detections,
        last_snapshot: snapshot.expect("at least one frame"),
        last_image: img,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_config_is_a_pure_function_of_the_seed() {
        let bytes = |seed| format!("{:?}", native_config(seed, false));
        assert_eq!(bytes(42), bytes(42));
        assert_ne!(bytes(42), bytes(43));
    }

    #[test]
    fn raw_files_round_trip_through_the_replay_codec() {
        let cfg = native_config(7, true);
        let replayed = replay_run(&cfg, Path::PostProc, &mut Tracer::new(false));
        let snap = &replayed.last_snapshot;
        let back = decode_raw(&encode_raw(snap));
        assert_eq!(back.timestep, snap.timestep);
        assert_eq!(back.okubo_weiss.data(), snap.okubo_weiss.data());
        assert_eq!(back.uc.data(), snap.uc.data());
        assert!(replayed.raw_bytes > 0);
    }
}
