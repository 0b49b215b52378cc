//! The experiment harness: regenerate every table and figure of the paper.
//!
//! ```text
//! experiments [all|fig2|fig3|fig4|fig5|fig6|fig7|eq5|fig8|fig9|fig10|
//!              proportionality|ablations|extensions|csv [dir]|intransit|
//!              fault|native|adaptive|trace [insitu|post] [hours]|
//!              power-trace [insitu|post] [hours]|table1]
//! ```
//!
//! Each subcommand prints the measured values next to the paper's published
//! numbers (where the paper states them; several artifacts are chart-only).
//! `ablations` adds the §VIII design-choice sweeps: I/O-wait policy,
//! storage power proportionality and stripe count.

use std::env;
use std::path::{Path, PathBuf};

use ivis_bench::*;
use ivis_core::native::{execute, NativeConfig, NativePlan, NativeReport};
use ivis_core::PipelineKind;
use ivis_eddy::census::track_census;
use ivis_eddy::features::extract_features;
use ivis_eddy::metrics::{sampling_sweep, DetectionSequence};
use ivis_eddy::segment::segment_eddies;
use ivis_model::sensitivity::elasticities;
use ivis_model::uncertainty::{bootstrap_calibration, bootstrap_prediction};
use ivis_model::{MeasuredRate, WhatIfAnalyzer};
use ivis_obs::Recorder;
use ivis_ocean::okubo_weiss::okubo_weiss;
use ivis_ocean::vortex::seed_random_eddies;
use ivis_ocean::{Grid, ProblemSpec, SamplingRate, ShallowWaterModel, SwParams};
use ivis_power::units::Joules;
use ivis_sim::SimTime;
use ivis_storage::layout::StripeLayout;
use ivis_storage::pfs::PfsConfig;
use ivis_storage::{ParallelFileSystem, PfsError};

const USAGE: &str = "usage: experiments [all|fig2..fig10|eq5|proportionality|ablations|extensions|csv [dir]|intransit|fault|native|adaptive|trace [insitu|post] [hours]|power-trace [insitu|post] [hours]|table1]";

/// Print `msg` and the usage line, then exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value of an output write, or exit 2 with the I/O error, as
/// [`usage_error`] does: a path the caller cannot write is their error,
/// not a panic.
fn written<T>(result: std::io::Result<T>, path: &Path) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// The `[insitu|post] [hours]` arguments of `trace` and `power-trace`:
/// in-situ and `default_hours` when absent. An unknown kind, or an
/// interval that is not a positive, finite number of hours, is an error.
fn parse_kind_hours(args: &[String], default_hours: f64) -> Result<(PipelineKind, f64), String> {
    let kind = match args.first().map(String::as_str) {
        None | Some("insitu") => PipelineKind::InSitu,
        Some("post") => PipelineKind::PostProcessing,
        Some(other) => return Err(format!("unknown pipeline kind: {other}")),
    };
    let hours = match args.get(1) {
        None => default_hours,
        Some(arg) => arg
            .parse::<f64>()
            .ok()
            .filter(|h| *h > 0.0 && h.is_finite())
            .ok_or_else(|| {
                format!("sampling interval must be a positive number of hours: {arg}")
            })?,
    };
    Ok((kind, hours))
}

/// A clean, untraced native run of `kind` on `cfg`.
fn native_run(cfg: &NativeConfig, kind: PipelineKind) -> NativeReport {
    let plan = NativePlan::new(cfg.clone(), kind);
    let run = execute(&plan, &Recorder::off());
    run.expect("the experiment configurations are valid").report
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn print_rows(rows: &[Row]) {
    for r in rows {
        println!("{}", r.render());
    }
}

fn fig2() {
    banner("Fig. 2 — Okubo-Weiss visualization (native pipeline)");
    let cfg = NativeConfig::small();
    let report = native_run(&cfg, PipelineKind::InSitu);
    println!(
        "  rendered {} frames, {} image bytes; final frame: {} eddies, mean radius {:.1} km",
        report.frames,
        report.image_bytes,
        report.final_census.count,
        report.final_census.mean_radius_m / 1_000.0
    );
    let census = track_census(&report.tracks, cfg.nx as f64 * cfg.cell_m);
    println!(
        "  tracks: {} total; mean lifetime {:.1} frames (max {}), mean path {:.0} km",
        census.count,
        census.mean_lifetime_frames,
        census.max_lifetime_frames,
        census.mean_path_m / 1_000.0
    );
    let out = env::temp_dir().join("ivis_fig2_cinema");
    written(report.cinema.export_to_dir(&out), &out);
    println!("  Cinema database exported to {}", out.display());
    if let Some(last) = report.cinema.entries().last() {
        println!(
            "  final frame: {} ({} bytes PNG)",
            last.filename,
            last.data.len()
        );
    }
}

fn fig3() {
    banner("Fig. 3 — execution time, in-situ vs post-processing");
    print_rows(&fig3_rows());
}

fn fig4() {
    banner("Fig. 4 — power profile of the post-processing pipeline @ 8 h");
    println!("  minute | compute kW | storage kW");
    for (min, cw, sw) in fig4_profile() {
        println!("  {min:>6.1} | {:>10.2} | {:>10.3}", cw / 1e3, sw / 1e3);
    }
}

fn fig5() {
    banner("Fig. 5 — average power (expect: all ≈ equal, ~46 kW)");
    print_rows(&fig5_rows());
}

fn fig6() {
    banner("Fig. 6 — energy");
    print_rows(&fig6_rows());
}

fn fig7() {
    banner("Fig. 7 — storage");
    print_rows(&fig7_rows());
}

fn eq5() {
    banner("Eq. 5 — model calibration from three measured configs");
    let (model, pts, rows) = eq5_calibration();
    print_rows(&rows);
    let iter = ProblemSpec::paper_60km().total_steps();
    let u = bootstrap_calibration(&pts, iter, 0.003, 500, 0.95, 7);
    println!(
        "  95 % bootstrap intervals under 0.3 % meter noise ({} replicates):",
        u.replicates
    );
    println!(
        "    t_sim [{:.1}, {:.1}] s | alpha [{:.2}, {:.2}] s/GB | beta [{:.3}, {:.3}] s/image",
        u.t_sim.lo, u.t_sim.hi, u.alpha.lo, u.alpha.hi, u.beta.lo, u.beta.hi
    );
    let iv = bootstrap_prediction(&pts, iter, 0.003, 500, 0.95, 11, iter, 230.0, 540.0);
    println!(
        "    predicted post @ 8 h: {:.0} s in [{:.0}, {:.0}] s",
        iv.point, iv.lo, iv.hi
    );
    println!("  elasticities (share of predicted time):");
    for (label, s_gb, n) in [("post @ 8 h", 230.0, 540.0), ("in-situ @ 8 h", 0.6, 540.0)] {
        let e = elasticities(&model, iter, s_gb, n);
        println!(
            "    {label:<13} | t_sim {:>3.0} % | alpha {:>3.0} % | beta {:>3.0} %",
            e.t_sim * 100.0,
            e.alpha * 100.0,
            e.beta * 100.0
        );
    }
}

fn fig8() {
    banner("Fig. 8 — model validation (paper: <0.5 % error)");
    let report = fig8_validation();
    for r in &report.rows {
        println!(
            "  measured {:>8.1} s | predicted {:>8.1} s | error {:>+6.3} %",
            r.measured.t_seconds,
            r.predicted_seconds,
            r.rel_error * 100.0
        );
    }
    println!(
        "  max |error| = {:.3} %, mean = {:.3} %",
        report.max_abs_rel_error() * 100.0,
        report.mean_abs_rel_error() * 100.0
    );
}

fn fig9() {
    banner("Fig. 9 — storage vs sampling rate (100 simulated years)");
    let (curve, crossover) = fig9_rows();
    println!("  every (h) | post-proc TB | in-situ TB");
    for (h, post, insitu) in curve {
        println!("  {h:>9.0} | {post:>12.3} | {insitu:>10.6}");
    }
    println!("{}", crossover.render());
    let (written, outputs) = rack_fill();
    println!(
        "  daily raw outputs on the 7.7 TB rack: full after {written} of {outputs} \
         (~{:.1} simulated years)",
        written as f64 / 365.0
    );
}

/// Write the 100-year run's daily raw outputs to the simulated Lustre rack
/// until it refuses one: `(outputs written, outputs scheduled)`.
fn rack_fill() -> (u64, u64) {
    let spec = ProblemSpec::paper_100yr();
    let outputs = spec.num_outputs(SamplingRate::daily());
    let mut fs = ParallelFileSystem::caddy_lustre();
    let mut now = SimTime::ZERO;
    for k in 0..outputs {
        match fs.write(now, &format!("/raw/out_{k:06}.nc"), spec.raw_output_bytes()) {
            Ok(done) => now = done,
            Err(PfsError::NoSpace { .. }) => return (k, outputs),
            Err(e) => panic!("a healthy rack fails only on space: {e}"),
        }
    }
    (outputs, outputs)
}

fn fig10() {
    banner("Fig. 10 — energy vs sampling rate (100 simulated years)");
    let (curve, rows) = fig10_rows();
    println!("  every (h) | post-proc GJ | in-situ GJ");
    for (h, post, insitu) in curve {
        println!("  {h:>9.0} | {post:>12.1} | {insitu:>10.1}");
    }
    print_rows(&rows);
    let a = WhatIfAnalyzer::paper();
    let spec = ProblemSpec::paper_100yr();
    println!("  budget (GJ) | post-proc max rate | in-situ max rate");
    for budget_gj in [60.0, 100.0, 200.0] {
        let budget = Joules(budget_gj * 1e9);
        let every = |kind| match a.max_rate_under_energy_budget(kind, &spec, budget) {
            Some(h) if h.is_finite() => format!("every {h:.1} h"),
            _ => "infeasible".to_string(),
        };
        println!(
            "  {budget_gj:>11.0} | {:>18} | {:>16}",
            every(PipelineKind::PostProcessing),
            every(PipelineKind::InSitu)
        );
    }
}

fn proportionality() {
    banner("Power proportionality (§V) — storage vs compute subsystems");
    print_rows(&proportionality_rows());
}

fn ablations() {
    banner("Ablation — I/O wait policy (§VIII)");
    print_rows(&ablation_iowait_rows());
    banner("Ablation — storage power proportionality sweep (§VIII)");
    println!("  proportional fraction | in-situ power saving (W)");
    for (f, w) in ablation_storage_proportionality_rows() {
        println!("  {f:>20.4} | {w:>10.2}");
    }
    banner("Ablation — stripe count, aggregate pipe fixed (§VIII)");
    println!("  OSS | simulated 1 GB write (s)");
    for n in [1usize, 2, 4, 8] {
        let mut cfg = PfsConfig::caddy_lustre();
        cfg.oss_bandwidth_bps = cfg.aggregate_bandwidth_bps() / n as f64;
        cfg.num_oss = n;
        cfg.stripe = StripeLayout::lustre_default(n);
        let done = ParallelFileSystem::new(cfg)
            .write(SimTime::ZERO, "/x", 1_000_000_000)
            .expect("a healthy filesystem accepts the write");
        println!("  {n:>3} | {:>10.3}", done.as_secs_f64());
    }
}

fn extensions() {
    banner("Extension — in-transit pipeline vs staging-partition size (@72 h)");
    let (rows, baseline) = extension_intransit_rows(72.0);
    println!("  staging nodes | exec (s) | avg power (kW)   [in-situ baseline {baseline:.0} s]");
    for (staging, secs, kw) in rows {
        println!("  {staging:>13} | {secs:>8.0} | {kw:>8.2}");
    }
    banner("Extension — burst-buffered post-processing (@8 h)");
    print_rows(&extension_burst_buffer_rows());
    banner("Extension — machine-size scaling of the in-situ energy saving (@8 h)");
    println!("  nodes | in-situ energy saving (%) | post avg power (kW)");
    for (nodes, saving, kw) in extension_scaling_rows() {
        println!("  {nodes:>5} | {saving:>25.1} | {kw:>18.2}");
    }
    tracking_fidelity();
}

/// Detect eddies densely on the native solver, then re-track at coarser
/// temporal strides: how much of the census a lower sampling rate loses.
fn tracking_fidelity() {
    banner("Extension — eddy-tracking fidelity vs temporal stride (native solver)");
    let grid = Grid::channel(96, 64, 60_000.0);
    let mut model = ShallowWaterModel::new(grid.clone(), SwParams::eddy_channel(&grid));
    seed_random_eddies(&mut model, 8, 321);
    // 120 detections 34 steps (≈ 2 simulated hours) apart: long enough for
    // the β-plane drift to move cores by whole cells between coarse samples.
    let steps_per_frame = 34;
    let detections: DetectionSequence = (0..120)
        .map(|_| {
            model.run(steps_per_frame);
            let (uc, vc) = model.centered_velocities();
            let w = okubo_weiss(model.grid(), &uc, &vc);
            extract_features(model.grid(), &w, &segment_eddies(&w, 0.2, 3))
        })
        .collect();
    let gate = grid.dx; // one cell: tight enough to expose coarse sampling
    println!(
        "  {} frames every {:.1} simulated hours, {:.1} eddies per frame, gate {:.0} km",
        detections.len(),
        steps_per_frame as f64 * model.params().dt / 3600.0,
        detections.iter().map(Vec::len).sum::<usize>() as f64 / detections.len() as f64,
        gate / 1_000.0
    );
    println!("  stride | frames kept | tracks | track ratio | mean hop (km) | hop/gate");
    let strides = [1, 2, 5, 10, 20, 30];
    for q in sampling_sweep(&detections, &strides, gate, 1, grid.extent().0) {
        println!(
            "  {:>6} | {:>11} | {:>6} | {:>11.2} | {:>13.1} | {:>8.2}",
            q.stride,
            detections.len().div_ceil(q.stride),
            q.tracks,
            q.fragmentation,
            q.mean_hop_m / 1_000.0,
            q.mean_hop_m / gate
        );
    }
}

fn intransit() {
    use ivis_core::campaign::Campaign;
    use ivis_model::StagingSweep;

    banner("In-transit transport — staging × depth × compression sweep (@8 h)");
    let sweep = StagingSweep::run(Campaign::paper, 8.0, &[10, 25, 50], &[1, 4], &[1.0, 4.0]);
    println!(
        "  staging | depth | ratio | measured (s) | predicted (s) | err (%) | stall (s) | wire (GB)"
    );
    for p in &sweep.points {
        println!(
            "  {:>7} | {:>5} | {:>5.1} | {:>12.1} | {:>13.1} | {:>7.2} | {:>9.1} | {:>9.2}",
            p.staging_nodes,
            p.depth,
            p.compression_ratio,
            p.measured_seconds,
            p.predicted_seconds,
            p.rel_error() * 100.0,
            p.stall_seconds,
            p.wire_bytes as f64 / 1e9
        );
    }
    let best = sweep.best();
    println!(
        "  best: {} staging nodes, depth {}, ratio {:.1} → {:.1} s  \
         (max Eq. 4/6/7 model error {:.1} %)",
        best.staging_nodes,
        best.depth,
        best.compression_ratio,
        best.measured_seconds,
        sweep.max_rel_error() * 100.0
    );
}

fn fault() {
    banner("What-if — energy vs sampling rate under a 50% OSS brownout");
    for kind in [
        ivis_core::PipelineKind::PostProcessing,
        ivis_core::PipelineKind::InSitu,
    ] {
        println!("  {}:", kind.label());
        println!("  every (h) | clean GJ | degraded GJ | time stretch (%) | outputs shed");
        for r in degraded_storage_rows(kind) {
            println!(
                "  {:>9.0} | {:>8.3} | {:>11.3} | {:>16.2} | {:>12}",
                r.hours, r.clean_gj, r.degraded_gj, r.time_stretch_pct, r.outputs_shed
            );
        }
    }
}

fn native() {
    banner("Native backend — both pipelines, real wall-clock");
    let cfg = NativeConfig::small();
    let a = native_run(&cfg, PipelineKind::InSitu);
    let b = native_run(&cfg, PipelineKind::PostProcessing);
    println!(
        "  in-situ : sim {:>8.2?} viz {:>8.2?} io {:>8.2?} | raw {:>10} B | images {:>10} B | {} tracks",
        a.wall_sim, a.wall_viz, a.wall_io, a.raw_bytes, a.image_bytes, a.tracks.len()
    );
    println!(
        "  post    : sim {:>8.2?} viz {:>8.2?} io {:>8.2?} | raw {:>10} B | images {:>10} B | {} tracks",
        b.wall_sim, b.wall_viz, b.wall_io, b.raw_bytes, b.image_bytes, b.tracks.len()
    );
    println!(
        "  storage reduction (in-situ vs post): {:.2} %",
        a.storage_reduction_vs(&b)
    );
}

fn adaptive() {
    use ivis_bench::adaptive::AdaptiveComparison;

    banner("Adaptive triggers — rate as a dynamic output vs the fixed 72 h rate");
    let c = AdaptiveComparison::default_scenario();
    println!(
        "  trigger : {} candidates, analysis every {} steps, interval band [{}, {}]",
        c.trigger.candidates,
        c.trigger.analysis_interval,
        c.trigger.min_interval,
        c.trigger.max_interval
    );
    println!("  decision |  step | emit | interval | activity | best view | entropy (bits)");
    for (i, d) in c.adaptive.decisions.iter().enumerate() {
        println!(
            "  {i:>8} | {:>5} | {:>4} | {:>8} | {:>8.3} | {:>9} | {:>6.3}",
            d.step,
            if d.emit { "yes" } else { "-" },
            d.interval_steps,
            d.activity,
            d.best_viewpoint,
            d.best_entropy_bits
        );
    }
    // The last analysis falls on the campaign's last step.
    let steps = c.adaptive.decisions.last().map_or(0, |d| d.step);
    let frames = c.adaptive.report.frames;
    println!(
        "  measured: {} frames over {} steps → effective interval {:.1} steps \
         ({:.2}x the fixed rate)",
        frames,
        steps,
        MeasuredRate::from_counts(steps, frames).steps_per_output,
        c.rate_ratio
    );
    println!("  priced on the paper's 60 km problem (Eq. 4 + measured rate):");
    println!(
        "    energy : adaptive {:.3} GJ vs fixed {:.3} GJ ({:.1} % saving)",
        c.adaptive_energy_gj,
        c.fixed_energy_gj,
        (1.0 - c.adaptive_energy_gj / c.fixed_energy_gj) * 100.0
    );
    println!(
        "    storage: adaptive {:.4} GB vs fixed {:.4} GB ({:.1} % saving)",
        c.adaptive_storage_gb,
        c.fixed_storage_gb,
        (1.0 - c.adaptive_storage_gb / c.fixed_storage_gb) * 100.0
    );
    println!(
        "    recall : adaptive {} vs fixed {} eddy tracks",
        c.adaptive_recall, c.fixed_recall
    );
    println!("  gate: {}", c.gate_summary());
}

fn trace(kind: PipelineKind, hours: f64) {
    use ivis_bench::obs_export::{config_label, render_trace_summary, trace_jsonl, traced_run};
    use ivis_cluster::IoWaitPolicy;

    banner(&format!(
        "Trace — {} @ {hours} h, busy-wait vs deep-idle (§VIII ablation)",
        kind.label()
    ));
    let out_dir = PathBuf::from("target/traces");
    written(std::fs::create_dir_all(&out_dir), &out_dir);
    for policy in [IoWaitPolicy::BusyWait, IoWaitPolicy::DeepIdle] {
        let policy_label = match policy {
            IoWaitPolicy::BusyWait => "busy-wait",
            IoWaitPolicy::DeepIdle => "deep-idle",
        };
        let traced = traced_run(kind, hours, policy);
        println!("\n--- io_policy = {policy_label} ---");
        print!("{}", render_trace_summary(&traced, 72));
        println!(
            "  metered total {:.2} MJ, attributed {:.2} MJ",
            traced.metrics.energy_total().megajoules(),
            traced.attribution.attributed_total().megajoules()
        );
        let file = out_dir.join(format!(
            "{}_{policy_label}.jsonl",
            config_label(kind, hours).replace('@', "_")
        ));
        written(std::fs::write(&file, trace_jsonl(&traced)), &file);
        println!("  JSONL trace written to {}", file.display());
    }
    println!("\n  diff the two JSONL dumps (or the tables above) to see where the");
    println!("  busy-wait policy spends compute energy during I/O phases.");
}

fn power_trace(kind: PipelineKind, hours: f64) {
    use ivis_core::campaign::Campaign;
    use ivis_obs::telemetry::paper_cadence;

    banner(&format!(
        "Power trace — {} @ {hours} h, per-minute PDU view (paper cadence)",
        kind.label()
    ));
    let campaign = Campaign::paper();
    let m = campaign.run(&ivis_core::PipelineConfig::paper(kind, hours));
    let tel = ivis_core::RunTelemetry::from_metrics(&m, paper_cadence());
    println!("  minute | compute kW | storage kW |   total kW");
    let storage = tel.storage.rows();
    for (i, (minute, cw)) in tel.compute.rows().iter().enumerate() {
        let sw = storage.get(i).map_or(0.0, |&(_, w)| w);
        println!(
            "  {minute:>6.1} | {:>10.2} | {:>10.3} | {:>10.2}",
            cw / 1e3,
            sw / 1e3,
            (cw + sw) / 1e3
        );
    }
    for tl in [&tel.compute, &tel.storage] {
        let s = tl.stats();
        println!(
            "  {:<7}: peak {:>8.2} kW | mean {:>8.2} kW | p50 {:>8.2} | p95 {:>8.2} | p99 {:>8.2} kW",
            tl.label(),
            s.peak.watts() / 1e3,
            s.mean.watts() / 1e3,
            s.p50.watts() / 1e3,
            s.p95.watts() / 1e3,
            s.p99.watts() / 1e3
        );
    }
    println!(
        "  sampled energy {:.2} MJ (metered {:.2} MJ)",
        (tel.compute.energy() + tel.storage.energy()).joules() / 1e6,
        m.energy_total().megajoules()
    );
    let dir = PathBuf::from("target/figures");
    written(std::fs::create_dir_all(&dir), &dir);
    for (name, csv) in [
        ("phase_power.csv", obs_export::phase_power_csv()),
        ("phase_energy.csv", obs_export::phase_energy_csv()),
    ] {
        let file = dir.join(name);
        written(std::fs::write(&file, csv), &file);
    }
    println!(
        "  W(t) for the full paper matrix written to {} (alongside phase_energy.csv)",
        dir.join("phase_power.csv").display()
    );
}

fn table1() {
    banner("Table I — comparison with related work (qualitative)");
    println!("  Power:        related work estimated; this work measured (simulated meters)");
    println!("  Component:    related work interconnect; this work storage + compute");
    println!("  Application:  combustion vs climate simulation (MPAS-O proxy)");
    println!("  Interference: none — dedicated machine model");
    println!("  Task:         topological analysis vs eddy tracking (Okubo-Weiss)");
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "eq5" => eq5(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "proportionality" => proportionality(),
        "ablations" => ablations(),
        "extensions" => extensions(),
        "csv" => {
            let dir = PathBuf::from(
                args.get(1)
                    .cloned()
                    .unwrap_or_else(|| "target/figures".into()),
            );
            let files = written(ivis_bench::csv::export_all(&dir), &dir);
            println!("wrote {} CSV files to {}:", files.len(), dir.display());
            for f in files {
                println!("  {f}");
            }
        }
        "intransit" => intransit(),
        "fault" => fault(),
        "native" => native(),
        "adaptive" => adaptive(),
        "trace" => {
            let (kind, hours) =
                parse_kind_hours(&args[1..], 72.0).unwrap_or_else(|e| usage_error(&e));
            trace(kind, hours);
        }
        "power-trace" => {
            let (kind, hours) =
                parse_kind_hours(&args[1..], 8.0).unwrap_or_else(|e| usage_error(&e));
            power_trace(kind, hours);
        }
        "table1" => table1(),
        "all" => {
            table1();
            fig2();
            fig3();
            fig4();
            fig5();
            fig6();
            fig7();
            eq5();
            fig8();
            fig9();
            fig10();
            proportionality();
            ablations();
            extensions();
            intransit();
            fault();
            native();
            adaptive();
        }
        other => usage_error(&format!("unknown experiment: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(PipelineKind, f64), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_kind_hours(&args, 72.0)
    }

    #[test]
    fn absent_arguments_default_to_insitu_and_the_default_interval() {
        assert_eq!(parse(&[]), Ok((PipelineKind::InSitu, 72.0)));
        assert_eq!(parse(&["post"]), Ok((PipelineKind::PostProcessing, 72.0)));
        assert_eq!(parse(&["insitu", "24"]), Ok((PipelineKind::InSitu, 24.0)));
        assert_eq!(
            parse(&["post", "0.5"]),
            Ok((PipelineKind::PostProcessing, 0.5))
        );
    }

    #[test]
    fn unknown_kind_is_an_error() {
        assert!(parse(&["sideways"]).is_err());
        assert!(parse(&["sideways", "8"]).is_err());
    }

    #[test]
    fn unparsable_or_non_positive_intervals_are_errors() {
        for bad in ["abc", "", "0", "-5", "inf", "-inf", "NaN"] {
            assert!(parse(&["post", bad]).is_err(), "{bad:?} accepted");
        }
    }
}
