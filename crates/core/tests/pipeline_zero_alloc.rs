//! The depth-k frame pipeline's steady state must not touch the heap.
//!
//! Mirrors `crates/ocean/tests/zero_alloc_step.rs` one layer up: with
//! recycled buffers, each steady-state frame of the in-situ chain —
//! solver step, [`CatalystAdaptor::adapt_into`] into a recycled snapshot,
//! [`SampleTables::rebuild`], serial row shading into a reused image and
//! [`PngEncoder::encode_into`] into a reused output buffer — performs zero
//! allocations. The eddy-analysis stages (segmentation, feature
//! extraction) build per-frame component lists by design and are outside
//! this audit; the pipeline pays for them once per frame regardless of
//! depth. This file holds exactly one test (its own process) so no sibling
//! test can allocate concurrently and pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ivis_core::adaptor::CatalystAdaptor;
use ivis_ocean::grid::Grid;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_viz::png::{encoded_png_size, PngEncoder};
use ivis_viz::raster::SampleTables;
use ivis_viz::render::{FieldRenderer, RangeMode};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frame_chain_is_allocation_free() {
    let (width, height) = (96, 64);
    let grid = Grid::channel(96, 64, 60_000.0);
    let params = SwParams::eddy_channel(&grid);
    let mut model = ShallowWaterModel::new(grid, params);
    seed_random_eddies(&mut model, 4, 11);
    let mut adaptor = CatalystAdaptor::new();
    // Fixed range: resolving a σ-based range computes field statistics,
    // which is analysis, not rendering — out of scope like segmentation.
    let renderer = FieldRenderer {
        width,
        height,
        colormap: ivis_viz::color::Colormap::OkuboWeiss,
        range: RangeMode::Fixed(-1e-10, 1e-10),
    };
    let mut enc = PngEncoder::new();
    let mut png = Vec::with_capacity(encoded_png_size(width, height) as usize);

    // Warm-up frame: allocates the snapshot, tables, image and scanline
    // scratch that steady-state frames then recycle.
    model.run(8);
    let mut snap = adaptor.adapt(&model);
    let mut tables = SampleTables::new(&snap.okubo_weiss, width, height);
    let mut img = ivis_viz::raster::ImageBuffer::new(width, height);
    let (lo, hi) = renderer.resolve_range(&snap.okubo_weiss);
    for (y, row) in img.pixels_mut().chunks_mut(width).enumerate() {
        tables.shade_row(y, renderer.colormap, lo, hi, row);
    }
    enc.encode_into(&img, &mut png);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        model.run(8);
        adaptor.adapt_into(&model, &mut snap);
        tables.rebuild(&snap.okubo_weiss);
        let (lo, hi) = renderer.resolve_range(&snap.okubo_weiss);
        for (y, row) in img.pixels_mut().chunks_mut(width).enumerate() {
            tables.shade_row(y, renderer.colormap, lo, hi, row);
        }
        enc.encode_into(&img, &mut png);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state frame chain allocated {} times over 10 frames",
        after - before
    );
    // The chain actually did something.
    assert_eq!(model.steps(), 88);
    assert_eq!(snap.timestep, 88);
    assert_eq!(png.len(), encoded_png_size(width, height) as usize);
}
