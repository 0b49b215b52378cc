//! Scaling benchmark for the threaded rayon shim: fig2 render + fig9
//! sweep at 1, 2, 4 and 8 worker threads.
//!
//! Writes `BENCH_parallel.json` (or the path given as the first non-flag
//! argument). Each section's 1-thread time is its baseline. The host's
//! `available_parallelism` is recorded so single-core results read
//! honestly: thread counts above it cannot add wall-clock speedup there.
//!
//! With `--check`, exits nonzero if any threaded configuration of any
//! section runs slower than its own 1-thread time beyond a 15% noise
//! tolerance — the CI gate for the shim's auto-granularity scheduling:
//! dispatching must never cost wall-clock time, whatever the grain.

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench, Json};
use ivis_core::adaptor::CatalystAdaptor;
use ivis_core::PipelineKind;
use ivis_model::WhatIfAnalyzer;
use ivis_ocean::grid::Grid;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_ocean::{Field2D, ProblemSpec};
use ivis_viz::render::FieldRenderer;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn spun_up_field() -> Field2D {
    let grid = Grid::channel(96, 64, 60_000.0);
    let params = SwParams::eddy_channel(&grid);
    let mut m = ShallowWaterModel::new(grid, params);
    seed_random_eddies(&mut m, 6, 42);
    m.run(32);
    CatalystAdaptor::new().adapt(&m).okubo_weiss
}

/// Milliseconds of `f` at each of [`THREADS`], gated: no threaded run may
/// be slower than the 1-thread one beyond 15%. Returns the `threaded_ms`
/// object.
fn per_thread_ms<R>(
    bench: &mut Bench,
    section: &str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> Json {
    const TOLERANCE: f64 = 1.15;
    let ms: Vec<f64> = THREADS
        .iter()
        .map(|&n| {
            rayon::set_num_threads(n);
            time_min_s(reps, &mut f) * 1e3
        })
        .collect();
    rayon::set_num_threads(0);
    let base = ms[0];
    for (&n, &t) in THREADS.iter().zip(&ms).skip(1) {
        bench.gate(t <= base * TOLERANCE, || {
            format!("{section}: {n} threads {t:.4} ms > 1 thread {base:.4} ms x {TOLERANCE}")
        });
    }
    let threaded = THREADS
        .iter()
        .zip(&ms)
        .map(|(n, &t)| (n.to_string(), Json::Num(t)))
        .collect();
    Json::Obj(threaded)
}

fn main() {
    let mut bench = Bench::from_args("parallel");

    // --- fig2 render: 1 thread vs N ---
    let w_field = spun_up_field();
    let mut fig2_rows = Vec::new();
    for (width, height) in [(192usize, 128usize), (720, 512)] {
        let renderer = FieldRenderer::okubo_weiss(width, height);
        let reps = if width >= 700 { 15 } else { 40 };
        let threaded_ms =
            per_thread_ms(&mut bench, &format!("fig2 {width}x{height}"), reps, || {
                renderer.render(&w_field)
            });
        fig2_rows.push(obj! { "width" => width, "height" => height, "threaded_ms" => threaded_ms });
    }
    bench.section("fig2_render", fig2_rows.into());

    // --- fig9 sweep: Eq. 4 what-if grid, 1 thread vs N ---
    let analyzer = WhatIfAnalyzer::paper();
    let spec = ProblemSpec::paper_100yr();
    let hours: Vec<f64> = (1..=20_000).map(|i| i as f64 * 0.25).collect();
    let threaded_ms = per_thread_ms(&mut bench, "fig9", 9, || {
        (
            analyzer.storage_curve(PipelineKind::PostProcessing, &spec, &hours),
            analyzer.energy_curve(PipelineKind::PostProcessing, &spec, &hours),
        )
    });
    let fig9 = obj! { "grid_points" => hours.len(), "threaded_ms" => threaded_ms };
    bench.section("fig9_sweep", fig9);
    bench.finish();
}
