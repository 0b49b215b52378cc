//! Eddy tracking on the native backend — the paper's Fig. 2 scenario,
//! actually executed: spin up an eddying channel, run the in-situ pipeline,
//! export a Cinema image database of Okubo-Weiss renders, and report the
//! eddy census and tracks.
//!
//! ```sh
//! cargo run --release --example eddy_tracking [output_dir]
//! ```

use std::env;
use std::path::PathBuf;

use insitu_vis::eddy::census::track_census;
use insitu_vis::pipeline::native::{execute, NativeConfig, NativePlan};
use insitu_vis::pipeline::PipelineKind;
use ivis_obs::Recorder;

fn main() {
    let out: PathBuf = env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| env::temp_dir().join("ivis_eddy_cinema"));

    let cfg = NativeConfig {
        nx: 128,
        ny: 96,
        cell_m: 60_000.0,
        steps: 240,
        output_every: 12,
        num_eddies: 8,
        seed: 2017,
        image_width: 512,
        image_height: 384,
        annotate: true,
    };
    println!(
        "Simulating a {}x{} channel ({} km cells), {} steps, output every {} steps...",
        cfg.nx,
        cfg.ny,
        cfg.cell_m / 1000.0,
        cfg.steps,
        cfg.output_every
    );
    let plan = NativePlan::new(cfg.clone(), PipelineKind::InSitu);
    let report = execute(&plan, &Recorder::off())
        .expect("the example's configuration is valid")
        .report;

    println!(
        "\nPipeline wall time: sim {:.2?}, viz {:.2?} (adaptor + render + track)",
        report.wall_sim, report.wall_viz
    );
    println!(
        "Frames: {}; image database: {:.2} MB across {} PNGs",
        report.frames,
        report.image_bytes as f64 / 1e6,
        report.cinema.len()
    );
    println!(
        "Final frame census: {} eddies, mean radius {:.0} km, strongest W = {:.3e}",
        report.final_census.count,
        report.final_census.mean_radius_m / 1000.0,
        report.final_census.strongest_w
    );

    let lx = cfg.nx as f64 * cfg.cell_m;
    let census = track_census(&report.tracks, lx);
    println!(
        "Tracks: {} total; mean lifetime {:.1} frames (max {}), mean path {:.0} km",
        census.count,
        census.mean_lifetime_frames,
        census.max_lifetime_frames,
        census.mean_path_m / 1000.0
    );
    for t in report.tracks.iter().filter(|t| t.points.len() >= 3).take(5) {
        let first = &t.points[0];
        let last = t.points.last().expect("non-empty track");
        println!(
            "  track {:>3}: frames {:>2}..{:<2}  ({:>6.0},{:>6.0}) km -> ({:>6.0},{:>6.0}) km, path {:>6.0} km",
            t.id,
            first.frame,
            last.frame,
            first.feature.x / 1000.0,
            first.feature.y / 1000.0,
            last.feature.x / 1000.0,
            last.feature.y / 1000.0,
            t.path_length(lx) / 1000.0
        );
    }

    report
        .cinema
        .export_to_dir(&out)
        .expect("writable output dir");
    println!(
        "\nCinema database written to {} (open the PNGs, green = eddies)",
        out.display()
    );
}
