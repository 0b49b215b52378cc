//! Frame-chain throughput benchmark for the native backend: solver
//! stepping (reference vs laned zero-allocation), lane kernels (striped
//! Adler-32, slice-by-8 CRC-32, the laned sample-table build), PNG
//! encoding (copy-chain vs single-pass streaming), end-to-end frames/sec
//! of the in-situ frame loop, and the loop at explicit depths.
//!
//! Writes `BENCH_native.json` (or the path given as the first non-flag
//! argument). Every optimized kernel is asserted **bit-identical** to its
//! retained reference implementation before it is timed, every frame-loop
//! row carries the run's content digest, and on one core the depth ratios
//! are `null`: the loop cannot overlap anything there.
//!
//! With `--check`, also exits nonzero if the default depth is slower than
//! depth 1 beyond 15% noise — the `parallel_bench` rule: pipelining must
//! never cost throughput, how much it gains is the host's business.

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench};
use ivis_core::native::{
    default_pipeline_depth, run_native_insitu, run_native_insitu_at, NativeConfig,
};
use ivis_fault::FaultScenario;
use ivis_obs::Recorder;
use ivis_ocean::grid::Grid;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_viz::png::{
    adler32, adler32_reference, crc32, crc32_reference, encode_png_reference, PngEncoder,
};
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

    // --- solver: per-step from_fn allocations vs zero-alloc ping-pong ---
    // The paper-analogue grid (256×128 of 60 km cells), spun up so the
    // stencils see real eddies. Bit-identity is asserted over a prefix
    // before anything is timed.
    let (nx, ny) = (256usize, 128usize);
    let mut a = spun_up_model(Grid::channel(nx, ny, 60_000.0), 32);
    let mut b = spun_up_model(Grid::channel(nx, ny, 60_000.0), 32);
    for step in 0..16 {
        a.step_reference();
        b.step();
        assert_eq!(
            a.state().h.data(),
            b.state().h.data(),
            "solver diverged from reference at verification step {step}"
        );
        assert_eq!(a.state().u.data(), b.state().u.data());
        assert_eq!(a.state().v.data(), b.state().v.data());
    }
    let steps = 200u64;
    let ref_sps = steps as f64 / time_min_s(5, || (0..steps).for_each(|_| a.step_reference()));
    let opt_sps = steps as f64 / time_min_s(5, || (0..steps).for_each(|_| b.step()));
    let solver = obj! {
        "nx" => nx, "ny" => ny, "steps_timed" => steps,
        "reference_steps_per_sec" => ref_sps, "optimized_steps_per_sec" => opt_sps,
        "speedup" => opt_sps / ref_sps,
    };
    bench.section("solver", solver);

    // --- lane kernels: checksums and the sample-table build ---
    // A pseudo-random 4 MB buffer stands in for raw scanline bytes; each
    // fast kernel is witnessed equal to its reference before timing.
    let payload: Vec<u8> = (0u32..4_000_000)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let payload_mb = payload.len() as f64 / 1e6;
    assert_eq!(
        adler32(&payload),
        adler32_reference(&payload),
        "striped Adler-32 must match the serial reference"
    );
    assert_eq!(
        crc32(&payload),
        crc32_reference(&payload),
        "slice-by-8 CRC-32 must match the bytewise reference"
    );
    let adler_ref_mbps = payload_mb / time_min_s(15, || adler32_reference(&payload));
    let adler_opt_mbps = payload_mb / time_min_s(15, || adler32(&payload));
    let crc_ref_mbps = payload_mb / time_min_s(15, || crc32_reference(&payload));
    let crc_opt_mbps = payload_mb / time_min_s(15, || crc32(&payload));
    let (iw, ih) = (720usize, 512usize);
    let field = {
        let m = spun_up_model(Grid::channel(96, 64, 60_000.0), 32);
        ivis_core::adaptor::CatalystAdaptor::new()
            .adapt(&m)
            .okubo_weiss
    };
    assert_eq!(
        SampleTables::new(&field, iw, ih).hblend(),
        SampleTables::new_reference(&field, iw, ih).hblend(),
        "laned table build must match the scalar reference"
    );
    let hblend_ref_ms = time_min_s(15, || SampleTables::new_reference(&field, iw, ih)) * 1e3;
    let hblend_opt_ms = time_min_s(15, || SampleTables::new(&field, iw, ih)) * 1e3;
    let simd = obj! {
        "adler32" => obj! {
            "payload_bytes" => payload.len(), "reference_mb_per_sec" => adler_ref_mbps,
            "striped_mb_per_sec" => adler_opt_mbps, "speedup" => adler_opt_mbps / adler_ref_mbps,
        },
        "crc32" => obj! {
            "payload_bytes" => payload.len(), "reference_mb_per_sec" => crc_ref_mbps,
            "sliced_mb_per_sec" => crc_opt_mbps, "speedup" => crc_opt_mbps / crc_ref_mbps,
        },
        "hblend_build" => obj! {
            "width" => iw, "height" => ih, "scalar_ms" => hblend_ref_ms,
            "laned_ms" => hblend_opt_ms, "speedup" => hblend_ref_ms / hblend_opt_ms,
        },
    };
    bench.section("simd", simd);

    // --- PNG encode: three-copy chain vs single-pass streaming ---
    let img = FieldRenderer::okubo_weiss(iw, ih).render(&field);
    let golden = encode_png_reference(&img);
    let mut enc = PngEncoder::new();
    let mut buf = Vec::new();
    enc.encode_into(&img, &mut buf);
    assert_eq!(buf, golden, "streaming encoder must match reference bytes");
    let png_mb = golden.len() as f64 / 1e6;
    let ref_mbps = png_mb / time_min_s(30, || encode_png_reference(&img));
    let opt_mbps = png_mb
        / time_min_s(30, || {
            enc.encode_into(&img, &mut buf);
            std::hint::black_box(&buf);
        });
    let png_encode = obj! {
        "width" => iw, "height" => ih, "png_bytes" => golden.len(),
        "reference_mb_per_sec" => ref_mbps, "streaming_mb_per_sec" => opt_mbps,
        "speedup" => opt_mbps / ref_mbps,
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
    let pipe = run_native_insitu(&cfg);
    let frames = pipe.frames as f64;
    let pipe_s = time_min_s(3, || run_native_insitu(&cfg));
    let end_to_end = obj! {
        "frames" => pipe.frames, "image_width" => iw, "image_height" => ih,
        "pipeline_depth" => default_pipeline_depth(), "pipelined_fps" => frames / pipe_s,
        "digest" => pipe.digest(),
    };
    bench.section("end_to_end", end_to_end);

    // --- the frame loop at explicit depths: digest, then frames/sec ---
    let at_depth =
        |depth| run_native_insitu_at(&cfg, depth, &FaultScenario::none(), &Recorder::off()).report;
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

    // The parallel_bench rule. On one core the default depth *is* 1.
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
