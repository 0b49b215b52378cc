//! Frame-chain throughput benchmark for the native backend: solver
//! steps/sec, checksum throughput (four-stream CRC-32, 16-lane Adler-32), the
//! sample-table build, streaming PNG encode throughput, end-to-end
//! frames/sec of the in-situ frame loop (plus the post-processing run's
//! digest on the same ocean), and the loop at explicit depths.
//!
//! Writes `BENCH_native.json` (or the path given as the first non-flag
//! argument). The kernel rows are absolute throughputs: each optimized
//! kernel is held bit-identical to its scalar form by `#[cfg(test)]`
//! oracles in its own crate, not re-timed against it here. Every
//! frame-loop row carries the run's content digest, and on one core the
//! depth ratios are `null`: the loop cannot overlap anything there.
//!
//! With `--check`, also exits nonzero if the default depth is slower than
//! depth 1 beyond 15% noise: pipelining must never cost throughput, how
//! much it gains is the host's business.

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench};
use ivis_core::native::{default_pipeline_depth, execute, NativeConfig, NativePlan, NativeRun};
use ivis_core::PipelineKind;
use ivis_obs::Recorder;
use ivis_ocean::grid::Grid;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_viz::png::{adler32, crc32, PngEncoder};
use ivis_viz::raster::SampleTables;
use ivis_viz::render::FieldRenderer;

fn spun_up_model(grid: Grid, warmup_steps: u64) -> ShallowWaterModel {
    let params = SwParams::eddy_channel(&grid);
    let mut m = ShallowWaterModel::new(grid, params);
    seed_random_eddies(&mut m, 6, 42);
    m.run(warmup_steps);
    m
}

fn main() {
    let mut bench = Bench::from_args("native");

    // --- solver: zero-alloc row-slice steps/sec ---
    // The paper-analogue grid (256×128 of 60 km cells), spun up so the
    // stencils see real eddies.
    let (nx, ny) = (256usize, 128usize);
    let mut model = spun_up_model(Grid::channel(nx, ny, 60_000.0), 32);
    let steps = 200u64;
    let sps = steps as f64 / time_min_s(5, || (0..steps).for_each(|_| model.step()));
    let solver = obj! {
        "nx" => nx, "ny" => ny, "steps_timed" => steps, "optimized_steps_per_sec" => sps,
    };
    bench.section("solver", solver);

    // --- checksums and the sample-table build ---
    // A pseudo-random 4 MB buffer stands in for raw scanline bytes.
    let payload: Vec<u8> = (0u32..4_000_000)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let payload_mb = payload.len() as f64 / 1e6;
    let adler_mbps = payload_mb / time_min_s(15, || adler32(&payload));
    let crc_mbps = payload_mb / time_min_s(15, || crc32(&payload));
    let (iw, ih) = (720usize, 512usize);
    let field = {
        let m = spun_up_model(Grid::channel(96, 64, 60_000.0), 32);
        ivis_core::adaptor::CatalystAdaptor::new()
            .adapt(&m)
            .okubo_weiss
    };
    let hblend_ms = time_min_s(15, || SampleTables::new(&field, iw, ih)) * 1e3;
    let simd = obj! {
        "adler32" => obj! { "payload_bytes" => payload.len(), "mb_per_sec" => adler_mbps },
        "crc32" => obj! { "payload_bytes" => payload.len(), "sliced_mb_per_sec" => crc_mbps },
        "hblend_build" => obj! { "width" => iw, "height" => ih, "scalar_ms" => hblend_ms },
    };
    bench.section("simd", simd);

    // --- PNG encode: single-pass streaming ---
    let img = FieldRenderer::okubo_weiss(iw, ih).render(&field);
    let mut enc = PngEncoder::new();
    let mut buf = Vec::new();
    enc.encode_into(&img, &mut buf);
    let png_bytes = buf.len();
    let png_mbps = png_bytes as f64
        / 1e6
        / time_min_s(30, || {
            enc.encode_into(&img, &mut buf);
            std::hint::black_box(&buf);
        });
    let png_encode = obj! {
        "width" => iw, "height" => ih, "png_bytes" => png_bytes,
        "streaming_mb_per_sec" => png_mbps,
    };
    bench.section("png_encode", png_encode);

    // --- end to end: the frame loop at its default depth ---
    // Annotated 720×512 frames make the visualize stage substantial, so
    // the overlap has something to hide the solver behind.
    let cfg = NativeConfig {
        nx: 96,
        ny: 64,
        cell_m: 60_000.0,
        steps: 96,
        output_every: 8,
        num_eddies: 6,
        seed: 42,
        image_width: iw,
        image_height: ih,
        annotate: true,
    };
    let run = |kind, depth| -> NativeRun {
        let plan = NativePlan {
            depth,
            ..NativePlan::new(cfg.clone(), kind)
        };
        execute(&plan, &Recorder::off()).expect("the bench configuration is valid")
    };
    let at_depth = |depth| run(PipelineKind::InSitu, depth);
    let pipe = at_depth(default_pipeline_depth());
    let frames = pipe.report.frames as f64;
    let pipe_s = time_min_s(3, || at_depth(default_pipeline_depth()));
    let postproc = run(PipelineKind::PostProcessing, default_pipeline_depth());
    let end_to_end = obj! {
        "frames" => pipe.report.frames, "image_width" => iw, "image_height" => ih,
        "pipeline_depth" => default_pipeline_depth(), "pipelined_fps" => frames / pipe_s,
        "digest" => pipe.digest(), "postproc_digest" => postproc.digest(),
    };
    bench.section("end_to_end", end_to_end);

    // --- the frame loop at explicit depths: digest, then frames/sec ---
    let depths = [1usize, 2, 4].map(|depth| {
        let digest = at_depth(depth).digest();
        (depth, digest, time_min_s(3, || at_depth(depth)))
    });
    let depth1_s = depths[0].2;
    let rows: Vec<_> = depths
        .into_iter()
        .map(|(depth, digest, secs)| {
            let (fps, ratio) = (frames / secs, depth1_s / secs);
            obj! {
                "config" => format!("depth-{depth}"), "depth" => depth, "fps" => fps,
                "speedup_vs_depth_1" => bench.parallel_ratio(ratio), "digest" => digest,
            }
        })
        .collect();
    bench.section("frame_pipeline_depth", rows.into());

    // Pipelining must not cost throughput. On one core the default depth
    // *is* 1.
    const TOLERANCE: f64 = 1.15;
    let pass = bench.host_threads() == 1 || pipe_s <= depth1_s * TOLERANCE;
    bench.gate(pass, || {
        format!(
            "default depth {} runs {pipe_s:.3} s > depth 1 {depth1_s:.3} s x {TOLERANCE}",
            default_pipeline_depth()
        )
    });
    bench.finish();
}
