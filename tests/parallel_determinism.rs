//! Thread-count independence of the frame kernels and the what-if sweeps.
//!
//! Rendering, the Okubo-Weiss kernel, the ±2σ range and the Eq. 4 what-if
//! sweeps run sequentially (DESIGN §8: a fan-out stays only where it
//! measures ≥ 1.2×), so they must produce **bit-identical** output at any
//! thread count. The two fan-outs that stay, the native frame batch and
//! the staging sweep, collect in input order; `native_pipeline_identity`
//! and `des_identity` hold them to their goldens. (`ivis-viz`'s unit tests
//! also hold the renderer to the seed's naive per-pixel renderer, a
//! `#[cfg(test)]` oracle.)
//!
//! `rayon::set_num_threads` is process-global, and these tests run
//! concurrently on the harness's own threads; that is harmless precisely
//! *because* of the contract under test — results cannot depend on the
//! momentary thread count — but it means no test may assume a particular
//! setting is still active while it computes.

use ivis_core::PipelineKind;
use ivis_model::WhatIfAnalyzer;
use ivis_ocean::grid::Grid;
use ivis_ocean::okubo_weiss::okubo_weiss;
use ivis_ocean::{Field2D, ProblemSpec, SamplingRate};
use ivis_viz::raster::rasterize;
use ivis_viz::render::FieldRenderer;
use ivis_viz::Colormap;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `f` at each thread count and assert every result equals the first.
fn identical_at_all_thread_counts<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let mut out = None;
    for n in THREAD_COUNTS {
        rayon::set_num_threads(n);
        let r = f();
        match &out {
            None => out = Some(r),
            Some(first) => assert_eq!(&r, first, "output changed at {n} threads"),
        }
    }
    rayon::set_num_threads(0);
    out.unwrap()
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// An eddying synthetic velocity pair large enough that `Field2D::sum`
/// spans several chunks (6144 cells > its grain of 1024).
fn test_flow() -> (Grid, Field2D, Field2D) {
    let grid = Grid::channel(96, 64, 60_000.0);
    let uc = Field2D::from_fn(96, 64, |i, j| {
        (i as f64 * 0.13).sin() * (j as f64 * 0.07).cos() * 0.4
    });
    let vc = Field2D::from_fn(96, 64, |i, j| {
        (i as f64 * 0.11).cos() * (j as f64 * 0.09).sin() * 0.4
    });
    (grid, uc, vc)
}

#[test]
fn okubo_weiss_field_is_bit_identical_across_thread_counts() {
    let (grid, uc, vc) = test_flow();
    let bits = identical_at_all_thread_counts(|| f64_bits(okubo_weiss(&grid, &uc, &vc).data()));
    assert_eq!(bits.len(), 96 * 64);
    assert!(bits.iter().any(|&b| f64::from_bits(b) < 0.0), "no eddies?");
}

#[test]
fn fig2_render_is_bit_identical_and_matches_sequential_golden() {
    let (grid, uc, vc) = test_flow();
    let w = okubo_weiss(&grid, &uc, &vc);
    let renderer = FieldRenderer::okubo_weiss(192, 128);
    // The 1-thread render is the sequential golden every other thread
    // count must reproduce.
    let img = identical_at_all_thread_counts(|| renderer.render(&w));
    // Reuse the renderer's own ±2σ range so the comparison isolates the
    // rasterization path.
    let (lo, hi) = renderer.resolve_range(&w);
    let direct = rasterize(&w, 192, 128, Colormap::OkuboWeiss, lo, hi);
    assert_eq!(img, direct, "renderer diverged from the raster kernel");
}

#[test]
fn symmetric_sigma_range_is_bit_identical_across_thread_counts() {
    let (grid, uc, vc) = test_flow();
    let w = okubo_weiss(&grid, &uc, &vc);
    let renderer = FieldRenderer::okubo_weiss(16, 16);
    let (lo, hi) = identical_at_all_thread_counts(|| {
        let (lo, hi) = renderer.resolve_range(&w);
        (lo.to_bits(), hi.to_bits())
    });
    assert!(f64::from_bits(hi) > f64::from_bits(lo));
}

#[test]
fn eq4_whatif_sweeps_are_bit_identical_and_match_sequential_maps() {
    let a = WhatIfAnalyzer::paper();
    let spec = ProblemSpec::paper_100yr();
    let hours: Vec<f64> = (1..=96).map(|i| i as f64 * 4.0).collect();
    for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
        let storage = identical_at_all_thread_counts(|| a.storage_curve(kind, &spec, &hours));
        let energy_bits = identical_at_all_thread_counts(|| {
            a.energy_curve(kind, &spec, &hours)
                .iter()
                .map(|&(h, e)| (h.to_bits(), e.joules().to_bits()))
                .collect::<Vec<_>>()
        });
        // The curves are element-wise maps, so they must equal the plain
        // iterator chain exactly.
        let seq_storage: Vec<(f64, u64)> = hours
            .iter()
            .map(|&h| {
                (
                    h,
                    a.storage_bytes(kind, &spec, SamplingRate::every_hours(h)),
                )
            })
            .collect();
        assert_eq!(storage, seq_storage);
        let seq_energy_bits: Vec<(u64, u64)> = hours
            .iter()
            .map(|&h| {
                let e = a.energy(kind, &spec, SamplingRate::every_hours(h));
                (h.to_bits(), e.joules().to_bits())
            })
            .collect();
        assert_eq!(energy_bits, seq_energy_bits);
    }
}
