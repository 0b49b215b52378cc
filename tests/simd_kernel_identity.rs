//! Frame-pipeline identity: the depth-k frame pipeline must reproduce the
//! sequential goldens at every depth × thread-count combination.
//!
//! The laned kernels themselves (slice-by-8 CRC-32, the raster's vertical
//! blend, the shallow-water interior stencils) are held bit-for-bit to
//! their `#[cfg(test)]` scalar oracles by proptests in `ivis-viz` and
//! `ivis-ocean` (DESIGN.md §8); this file pins what they feed.

mod common;

use ivis_core::native::{execute, NativeConfig, NativePlan};
use ivis_core::PipelineKind;
use ivis_obs::Recorder;

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
            let plan = NativePlan {
                depth,
                ..NativePlan::new(cfg.clone(), PipelineKind::InSitu)
            };
            let r = execute(&plan, &Recorder::off()).unwrap().report;
            golden.check(
                "native/tiny-annotate/frames",
                &common::frames_line(&r.cinema, &r.tracks, &r.final_census),
            );
        }
    }
    rayon::set_num_threads(0);
}
