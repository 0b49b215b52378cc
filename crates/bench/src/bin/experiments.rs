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

use ivis_bench::*;
use ivis_core::native::{execute, NativeConfig, NativePlan, NativeReport};
use ivis_core::PipelineKind;
use ivis_model::MeasuredRate;
use ivis_obs::Recorder;
use ivis_sim::SimTime;
use ivis_storage::layout::StripeLayout;
use ivis_storage::pfs::PfsConfig;
use ivis_storage::ParallelFileSystem;

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
    let out = env::temp_dir().join("ivis_fig2_cinema");
    report
        .cinema
        .export_to_dir(&out)
        .expect("temp dir is writable");
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
    let (_, rows) = eq5_calibration();
    print_rows(&rows);
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
}

fn fig10() {
    banner("Fig. 10 — energy vs sampling rate (100 simulated years)");
    let (curve, rows) = fig10_rows();
    println!("  every (h) | post-proc GJ | in-situ GJ");
    for (h, post, insitu) in curve {
        println!("  {h:>9.0} | {post:>12.1} | {insitu:>10.1}");
    }
    print_rows(&rows);
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

fn trace(args: &[String]) {
    use ivis_bench::obs_export::{config_label, render_trace_summary, trace_jsonl, traced_run};
    use ivis_cluster::IoWaitPolicy;
    use ivis_core::PipelineKind;

    let kind = match args.first().map(String::as_str) {
        Some("post") => PipelineKind::PostProcessing,
        _ => PipelineKind::InSitu,
    };
    let hours: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(72.0);
    banner(&format!(
        "Trace — {} @ {hours} h, busy-wait vs deep-idle (§VIII ablation)",
        kind.label()
    ));
    let out_dir = std::path::PathBuf::from("target/traces");
    std::fs::create_dir_all(&out_dir).expect("trace dir writable");
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
        std::fs::write(&file, trace_jsonl(&traced)).expect("trace file writable");
        println!("  JSONL trace written to {}", file.display());
    }
    println!("\n  diff the two JSONL dumps (or the tables above) to see where the");
    println!("  busy-wait policy spends compute energy during I/O phases.");
}

fn power_trace(args: &[String]) {
    use ivis_core::campaign::Campaign;
    use ivis_core::PipelineKind;
    use ivis_obs::telemetry::paper_cadence;

    let kind = match args.first().map(String::as_str) {
        Some("post") => PipelineKind::PostProcessing,
        _ => PipelineKind::InSitu,
    };
    let hours: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8.0);
    banner(&format!(
        "Power trace — {} @ {hours} h, per-minute PDU view (paper cadence)",
        kind.label()
    ));
    let campaign = Campaign::paper();
    let m = campaign.run(&ivis_core::PipelineConfig::paper(kind, hours));
    let tel = campaign.telemetry(&m, paper_cadence());
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
    let dir = std::path::PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("output dir writable");
    std::fs::write(dir.join("phase_power.csv"), obs_export::phase_power_csv())
        .expect("csv writable");
    std::fs::write(dir.join("phase_energy.csv"), obs_export::phase_energy_csv())
        .expect("csv writable");
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
            let dir = std::path::PathBuf::from(
                args.get(1)
                    .cloned()
                    .unwrap_or_else(|| "target/figures".into()),
            );
            let files = ivis_bench::csv::export_all(&dir).expect("output dir writable");
            println!("wrote {} CSV files to {}:", files.len(), dir.display());
            for f in files {
                println!("  {f}");
            }
        }
        "intransit" => intransit(),
        "fault" => fault(),
        "native" => native(),
        "adaptive" => adaptive(),
        "trace" => trace(&args[1..]),
        "power-trace" => power_trace(&args[1..]),
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
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!(
                "usage: experiments [all|fig2..fig10|eq5|proportionality|ablations|extensions|csv [dir]|intransit|fault|native|adaptive|trace [insitu|post] [hours]|power-trace [insitu|post] [hours]|table1]"
            );
            std::process::exit(2);
        }
    }
}
