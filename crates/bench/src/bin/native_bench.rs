//! Frame-chain throughput benchmark for the native backend: solver
//! stepping (reference vs laned zero-allocation), lane kernels (striped
//! Adler-32, slice-by-8 CRC-32, the laned sample-table build), PNG
//! encoding (copy-chain vs single-pass streaming), end-to-end frames/sec
//! of the in-situ frame loop, and the loop at explicit depths.
//!
//! Writes `BENCH_native.json` (or the path given as the first non-flag
//! argument), mirroring `BENCH_parallel.json`'s role as a tracked perf
//! trajectory. Every optimized kernel is verified **bit-identical** to its
//! retained reference implementation before it is timed, every frame-loop
//! row carries the run's content digest, and the host's
//! `available_parallelism` is recorded: on one core the loop cannot
//! overlap anything, so the depth ratios are written as `null` there
//! instead of a misleading ≈ 1.0x.
//!
//! With `--check`, exits nonzero if a digest differs from the one the
//! committed `BENCH_native.json` holds (read before it is overwritten; the
//! frame loop is deterministic, so the baseline is the reference — there
//! is no second implementation to run against), or if the default depth
//! is slower than depth 1 beyond 15% noise — the `parallel_bench` rule:
//! pipelining must never cost throughput, how much it gains is the host's
//! business.

use std::time::Instant;

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

/// Median wall-clock seconds of `f` over `reps` runs (after warmup).
fn time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup + lazy init
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn spun_up_model(grid: Grid, warmup_steps: u64) -> ShallowWaterModel {
    let params = SwParams::eddy_channel(&grid);
    let mut m = ShallowWaterModel::new(grid, params);
    seed_random_eddies(&mut m, 6, 42);
    m.run(warmup_steps);
    m
}

/// The committed baseline `--check` compares digests against.
const BASELINE: &str = "BENCH_native.json";

fn main() {
    let mut out_path = BASELINE.to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }
    let baseline = ivis_bench::baseline::load_for_check(check, BASELINE);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let zsim = std::env::var("ZSIM_THREADS").ok();

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
    let steps_timed = 200u64;
    let ref_s = time_s(5, || {
        for _ in 0..steps_timed {
            a.step_reference();
        }
    });
    let opt_s = time_s(5, || {
        for _ in 0..steps_timed {
            b.step();
        }
    });
    let ref_sps = steps_timed as f64 / ref_s;
    let opt_sps = steps_timed as f64 / opt_s;
    eprintln!(
        "solver {nx}x{ny}: reference {ref_sps:.0} steps/s, optimized {opt_sps:.0} steps/s ({:.2}x)",
        opt_sps / ref_sps
    );

    // --- PNG encode: three-copy chain vs single-pass streaming ---
    let (iw, ih) = (720usize, 512usize);
    let renderer = FieldRenderer::okubo_weiss(iw, ih);
    let field = {
        let m = spun_up_model(Grid::channel(96, 64, 60_000.0), 32);
        ivis_core::adaptor::CatalystAdaptor::new()
            .adapt(&m)
            .okubo_weiss
    };

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
    let adler_ref_s = time_s(15, || {
        std::hint::black_box(adler32_reference(&payload));
    });
    let adler_opt_s = time_s(15, || {
        std::hint::black_box(adler32(&payload));
    });
    let crc_ref_s = time_s(15, || {
        std::hint::black_box(crc32_reference(&payload));
    });
    let crc_opt_s = time_s(15, || {
        std::hint::black_box(crc32(&payload));
    });
    let (adler_ref_mbps, adler_opt_mbps) = (payload_mb / adler_ref_s, payload_mb / adler_opt_s);
    let (crc_ref_mbps, crc_opt_mbps) = (payload_mb / crc_ref_s, payload_mb / crc_opt_s);
    eprintln!(
        "adler32: reference {adler_ref_mbps:.0} MB/s, striped {adler_opt_mbps:.0} MB/s ({:.2}x)",
        adler_opt_mbps / adler_ref_mbps
    );
    eprintln!(
        "crc32: reference {crc_ref_mbps:.0} MB/s, slice-by-8 {crc_opt_mbps:.0} MB/s ({:.2}x)",
        crc_opt_mbps / crc_ref_mbps
    );
    assert_eq!(
        SampleTables::new(&field, iw, ih).hblend(),
        SampleTables::new_reference(&field, iw, ih).hblend(),
        "laned table build must match the scalar reference"
    );
    let hblend_ref_s = time_s(15, || {
        std::hint::black_box(SampleTables::new_reference(&field, iw, ih));
    });
    let hblend_opt_s = time_s(15, || {
        std::hint::black_box(SampleTables::new(&field, iw, ih));
    });
    eprintln!(
        "hblend build {iw}x{ih}: scalar {:.3} ms, laned {:.3} ms ({:.2}x)",
        hblend_ref_s * 1e3,
        hblend_opt_s * 1e3,
        hblend_ref_s / hblend_opt_s
    );

    let img = renderer.render(&field);
    let golden = encode_png_reference(&img);
    let mut enc = PngEncoder::new();
    let mut buf = Vec::new();
    enc.encode_into(&img, &mut buf);
    assert_eq!(buf, golden, "streaming encoder must match reference bytes");
    let png_mb = golden.len() as f64 / 1e6;
    let ref_enc_s = time_s(30, || {
        std::hint::black_box(encode_png_reference(&img));
    });
    let opt_enc_s = time_s(30, || {
        enc.encode_into(&img, &mut buf);
        std::hint::black_box(&buf);
    });
    let ref_mbps = png_mb / ref_enc_s;
    let opt_mbps = png_mb / opt_enc_s;
    eprintln!(
        "png {iw}x{ih}: reference {ref_mbps:.0} MB/s, streaming {opt_mbps:.0} MB/s ({:.2}x)",
        opt_mbps / ref_mbps
    );

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
    let e2e_digest = pipe.digest();
    let frames = pipe.frames as f64;
    let pipe_s = time_s(3, || {
        std::hint::black_box(run_native_insitu(&cfg));
    });
    let pipe_fps = frames / pipe_s;
    eprintln!(
        "end-to-end ({} frames): {pipe_fps:.2} fps, digest {e2e_digest}",
        pipe.frames
    );

    // --- the frame loop at explicit depths: digest, then frames/sec ---
    let at_depth =
        |depth| run_native_insitu_at(&cfg, depth, &FaultScenario::none(), &Recorder::off()).report;
    let depths = [1usize, 2, 4].map(|depth| {
        let digest = at_depth(depth).digest();
        let secs = time_s(3, || {
            std::hint::black_box(at_depth(depth));
        });
        (depth, digest, secs)
    });
    let depth1_s = depths[0].2;
    let mut digests = vec![("end_to_end".to_string(), e2e_digest.clone())];
    let mut depth_sections = Vec::new();
    for (depth, digest, secs) in depths {
        // One core cannot overlap the stages: no ratio to report.
        let ratio = if host_threads > 1 {
            format!("{:.3}", depth1_s / secs)
        } else {
            "null".to_string()
        };
        let fps = frames / secs;
        eprintln!("frame loop depth {depth}: {fps:.2} fps ({ratio}x vs depth 1)");
        depth_sections.push(format!(
            "    {{ \"config\": \"depth-{depth}\", \"depth\": {depth}, \"fps\": {fps:.3}, \
             \"speedup_vs_depth_1\": {ratio}, \"digest\": \"{digest}\" }}"
        ));
        digests.push((format!("depth-{depth}"), digest));
    }

    let json = format!(
        "{{\n  \"host\": {{ \"available_parallelism\": {host_threads}, \"zsim_threads\": {} }},\n  \
         \"solver\": {{ \"nx\": {nx}, \"ny\": {ny}, \"steps_timed\": {steps_timed}, \
         \"reference_steps_per_sec\": {ref_sps:.1}, \"optimized_steps_per_sec\": {opt_sps:.1}, \
         \"speedup\": {:.3}, \"bit_identical\": true }},\n  \
         \"simd\": {{\n    \
         \"adler32\": {{ \"payload_bytes\": {}, \"reference_mb_per_sec\": {adler_ref_mbps:.1}, \
         \"striped_mb_per_sec\": {adler_opt_mbps:.1}, \"speedup\": {:.3}, \"bit_identical\": true }},\n    \
         \"crc32\": {{ \"payload_bytes\": {}, \"reference_mb_per_sec\": {crc_ref_mbps:.1}, \
         \"sliced_mb_per_sec\": {crc_opt_mbps:.1}, \"speedup\": {:.3}, \"bit_identical\": true }},\n    \
         \"hblend_build\": {{ \"width\": {iw}, \"height\": {ih}, \"scalar_ms\": {:.4}, \
         \"laned_ms\": {:.4}, \"speedup\": {:.3}, \"bit_identical\": true }}\n  }},\n  \
         \"png_encode\": {{ \"width\": {iw}, \"height\": {ih}, \"png_bytes\": {}, \
         \"reference_mb_per_sec\": {ref_mbps:.1}, \"streaming_mb_per_sec\": {opt_mbps:.1}, \
         \"speedup\": {:.3}, \"bit_identical\": true }},\n  \
         \"end_to_end\": {{ \"config\": \"end_to_end\", \"frames\": {}, \"image_width\": {iw}, \
         \"image_height\": {ih}, \"pipeline_depth\": {}, \"pipelined_fps\": {pipe_fps:.3}, \
         \"digest\": \"{e2e_digest}\" }},\n  \
         \"frame_pipeline_depth\": [\n{}\n  ]\n}}\n",
        zsim.map_or("null".to_string(), |v| format!("\"{v}\"")),
        opt_sps / ref_sps,
        payload.len(),
        adler_opt_mbps / adler_ref_mbps,
        payload.len(),
        crc_opt_mbps / crc_ref_mbps,
        hblend_ref_s * 1e3,
        hblend_opt_s * 1e3,
        hblend_ref_s / hblend_opt_s,
        golden.len(),
        opt_mbps / ref_mbps,
        pipe.frames,
        default_pipeline_depth(),
        depth_sections.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline {
        let mut failures = ivis_bench::baseline::digest_mismatches(&baseline, &digests);
        // The parallel_bench rule. On one core the default depth *is* 1.
        const TOLERANCE: f64 = 1.15;
        if host_threads > 1 && pipe_s > depth1_s * TOLERANCE {
            failures.push(format!(
                "default depth {} runs {:.3} s > depth 1 {:.3} s x {TOLERANCE}",
                default_pipeline_depth(),
                pipe_s,
                depth1_s
            ));
        }
        ivis_bench::baseline::exit_on_failures(&failures);
        eprintln!("OK: digests match {BASELINE}; default depth not slower than depth 1");
    }
}
