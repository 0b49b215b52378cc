//! Lane-kernel and frame-pipeline identity: every SIMD-width kernel must be
//! **bit-identical** to its retained scalar reference, and the depth-k
//! frame pipeline must reproduce the sequential goldens at every depth ×
//! thread-count combination.
//!
//! The laned kernels (striped Adler-32, slice-by-8 CRC-32, the sample-table
//! horizontal/vertical blends, the shallow-water interior stencils) are
//! pure speed transforms: they evaluate the exact per-element expression
//! tree of the scalar code with fixed lane width and fixed reduction order
//! (DESIGN.md §8), so equality here is `==` on bits, not an epsilon.
//! Proptest drives arbitrary lengths — including every tail 0..lane-width —
//! because tail handling is where laned kernels classically diverge.

mod common;

use ivis_core::native::{run_native_insitu_at, NativeConfig};
use ivis_fault::FaultScenario;
use ivis_obs::Recorder;
use ivis_ocean::grid::Grid;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::{seed_vortex, Vortex};
use ivis_ocean::Field2D;
use ivis_viz::png::{adler32, adler32_reference, crc32, crc32_reference};
use ivis_viz::raster::{rasterize, rasterize_reference, SampleTables};
use ivis_viz::Colormap;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Striped Adler-32 == serial Adler-32 on arbitrary byte strings,
    /// including lengths spanning the NMAX block boundary and every
    /// 8-byte-stripe tail.
    #[test]
    fn striped_adler32_matches_reference(
        words in prop::collection::vec(0u64..1_000_000, 0..12_000),
        pad in 0usize..9,
    ) {
        let mut data: Vec<u8> = words.iter().map(|&v| (v % 256) as u8).collect();
        data.truncate(data.len().saturating_sub(pad)); // exercise tails
        prop_assert_eq!(adler32(&data), adler32_reference(&data));
    }

    /// Slice-by-8 CRC-32 == bytewise CRC-32 on arbitrary byte strings.
    #[test]
    fn sliced_crc32_matches_reference(
        words in prop::collection::vec(0u64..1_000_000, 0..12_000),
        pad in 0usize..9,
    ) {
        let mut data: Vec<u8> = words.iter().map(|&v| (v % 256) as u8).collect();
        data.truncate(data.len().saturating_sub(pad));
        prop_assert_eq!(crc32(&data), crc32_reference(&data));
    }

    /// Laned sample-table build and laned row shading == scalar golden at
    /// arbitrary field shapes and output sizes (widths cover every lane
    /// tail 1..4).
    #[test]
    fn laned_rasterizer_matches_reference(
        nx in 1usize..40,
        ny in 1usize..24,
        width in 1usize..50,
        height in 1usize..40,
        seed in 0u64..1000,
    ) {
        let f = Field2D::from_fn(nx, ny, |i, j| {
            let k = seed as f64 * 0.013;
            (i as f64 * (0.31 + k)).sin() * (j as f64 * 0.17).cos() + (i + j) as f64 * 1e-3
        });
        let tables = SampleTables::new(&f, width, height);
        let golden = SampleTables::new_reference(&f, width, height);
        prop_assert_eq!(tables.hblend(), golden.hblend());
        let fast = rasterize(&f, width, height, Colormap::OkuboWeiss, -1.5, 1.5);
        let refr = rasterize_reference(&f, width, height, Colormap::OkuboWeiss, -1.5, 1.5);
        prop_assert_eq!(fast, refr);
    }

    /// Laned shallow-water stencils == scalar reference stepping, bitwise
    /// in h/u/v, over arbitrary grids (widths cover every lane tail) and
    /// forcing parameters.
    #[test]
    fn laned_solver_step_matches_reference(
        nx in 4usize..37,
        ny in 4usize..17,
        wind in 0.0f64..0.3,
        steps in 1u64..12,
    ) {
        let make = || {
            let grid = Grid::channel(nx, ny, 60_000.0);
            let mut params = SwParams::eddy_channel(&grid);
            params.wind_accel = wind;
            let mut m = ShallowWaterModel::new(grid, params);
            let (lx, ly) = m.grid().extent();
            seed_vortex(
                &mut m,
                &Vortex {
                    x: lx * 0.5,
                    y: ly * 0.5,
                    radius: 150_000.0,
                    amplitude: 0.9,
                },
            );
            m
        };
        let mut fast = make();
        let mut golden = make();
        for s in 0..steps {
            fast.step();
            golden.step_reference();
            let (f, g) = (fast.state(), golden.state());
            prop_assert_eq!(f.h.data(), g.h.data(), "h diverged at step {}", s);
            prop_assert_eq!(f.u.data(), g.u.data(), "u diverged at step {}", s);
            prop_assert_eq!(f.v.data(), g.v.data(), "v diverged at step {}", s);
        }
    }
}

/// The depth-k frame pipeline reproduces the sequential loop's goldens —
/// PNG bytes, Cinema index, eddy tracks, final census — at every depth ×
/// thread-count combination, with annotations on (the worker's overlay
/// path included).
#[test]
fn frame_pipeline_identity_across_depths_and_threads() {
    let mut cfg = NativeConfig::tiny();
    cfg.annotate = true;
    let golden = common::Golden::load();
    for threads in [1, 2, 8] {
        rayon::set_num_threads(threads);
        for depth in [1, 2, 4] {
            let r = run_native_insitu_at(&cfg, depth, &FaultScenario::none(), &Recorder::off());
            let r = r.report;
            golden.check(
                "native/tiny-annotate/frames",
                &common::frames_line(&r.cinema, &r.tracks, &r.final_census),
            );
        }
    }
    rayon::set_num_threads(0);
}
