//! Telemetry-overhead benchmark: what the observability layer costs.
//!
//! Two questions, answered across the paper's six measured
//! configurations:
//!
//! 1. **Sampling cost** (gated): reconstructing the per-component W(t)
//!    [`PowerTimeline`]s from a finished run's power profiles at the
//!    paper cadence, timed by itself (`telemetry_s`) and reported as a
//!    share of the untraced (`Recorder::off()`) run (`overhead_pct`).
//!    Timing it alone rather than as the difference of two full runs
//!    keeps run-to-run noise out of a sub-percent figure. The
//!    off-recorder hot path itself is audited allocation-free by
//!    `crates/obs/tests/off_zero_alloc.rs`; this bench enforces the
//!    wall-clock half: with `--check`, exits nonzero if the aggregate
//!    overhead exceeds 2%.
//! 2. **Full tracing cost** (informational): the same runs with an
//!    in-memory recorder capturing every span, event and metric.
//!
//! The `exporters` section then times the JSONL, Perfetto and Prometheus
//! exports of each traced run and records their byte counts and an
//! FNV-1a-64 digest of each text, so `--check` fails on any exported
//! byte that drifts, in all six configurations.
//!
//! Writes `BENCH_obs.json` (or the path given as the first non-flag
//! argument) plus the Perfetto-loadable Chrome trace and Prometheus
//! snapshot of the traced in-situ @ 72 h run next to it — the artifacts
//! the CI obs job uploads.
//!
//! [`PowerTimeline`]: ivis_obs::telemetry::PowerTimeline

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench, Json};
use ivis_core::{Campaign, PipelineConfig, RunTelemetry};
use ivis_obs::telemetry::paper_cadence;
use ivis_obs::{to_chrome_trace, to_jsonl, to_prometheus, Recorder, TraceBuffer};
use ivis_sim::SimDuration;

/// The sampling budget, percent of an untraced run.
const BUDGET_PCT: f64 = 2.0;

/// `pc` on the paper campaign with an in-memory recorder, its sampled
/// W(t) published as gauges.
fn traced_run(pc: &PipelineConfig, cadence: SimDuration) -> Recorder {
    let mut traced = Campaign::paper();
    let rec = Recorder::in_memory();
    traced.config.recorder = rec.clone();
    let m = traced.run(pc);
    RunTelemetry::from_metrics(&m, cadence).record_gauges(&rec);
    rec
}

fn fnv1a64(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:#018x}")
}

type Export = fn(&TraceBuffer) -> String;

/// One config's exports: `<export>_s`, `<export>_bytes` and
/// `<export>_digest` for each of the three.
fn export_row(label: String, buf: &TraceBuffer, reps: usize) -> Json {
    let exporters: [(&str, Export); 3] = [
        ("jsonl", to_jsonl),
        ("perfetto", to_chrome_trace),
        ("prometheus", |b| to_prometheus(&b.metrics)),
    ];
    let mut row = vec![("config".to_string(), Json::from(label))];
    for (name, export) in exporters {
        let text = export(buf);
        row.push((format!("{name}_s"), time_min_s(reps, || export(buf)).into()));
        row.push((format!("{name}_bytes"), text.len().into()));
        row.push((format!("{name}_digest"), fnv1a64(&text).into()));
    }
    Json::Obj(row)
}

fn main() {
    let mut bench = Bench::from_args("obs");
    let campaign = Campaign::paper();
    let cadence = paper_cadence();
    let reps = 5;

    let mut rows = Vec::new();
    let mut export_rows = Vec::new();
    let mut plain_total = 0.0;
    let mut telem_total = 0.0;
    let mut traced_total = 0.0;
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("{}@{}h", pc.kind.label(), pc.rate.every_hours);
        // Correctness first: the sampled timelines must conserve the
        // metered energy before their cost is worth measuring.
        let m = campaign.run(&pc);
        let tel = RunTelemetry::from_metrics(&m, cadence);
        let sampled = (tel.compute.energy() + tel.storage.energy()).joules();
        let metered = m.energy_total().joules();
        assert!(
            (sampled - metered).abs() <= 1e-6 * (1.0 + metered.abs()),
            "{label}: sampled {sampled} J vs metered {metered} J"
        );

        let plain_s = time_min_s(reps, || campaign.run(&pc));
        // The step is microseconds: more repetitions cost nothing.
        let telem_s = time_min_s(reps * 10, || RunTelemetry::from_metrics(&m, cadence));
        let traced_s = time_min_s(reps, || traced_run(&pc, cadence));
        let overhead_pct = telem_s / plain_s * 100.0;
        let traced_pct = (traced_s / plain_s - 1.0) * 100.0;
        plain_total += plain_s;
        telem_total += telem_s;
        traced_total += traced_s;
        let rec = traced_run(&pc, cadence);
        let exported = rec.with_buffer(|b| export_row(label.clone(), b, reps * 4));
        export_rows.push(exported.expect("recorder is on"));
        rows.push(obj! {
            "config" => label, "plain_s" => plain_s, "telemetry_s" => telem_s,
            "overhead_pct" => overhead_pct, "traced_s" => traced_s, "traced_overhead_pct" => traced_pct,
        });
    }
    let aggregate_pct = telem_total / plain_total * 100.0;
    let traced_aggregate_pct = (traced_total / plain_total - 1.0) * 100.0;
    bench.gate(aggregate_pct <= BUDGET_PCT, || {
        format!(
            "power-timeline sampling costs {aggregate_pct:.2}% of the \
             untraced runs ({BUDGET_PCT}% budget)"
        )
    });
    let overhead = obj! {
        "cadence_s" => cadence.as_secs_f64(), "rows" => rows,
        "aggregate_overhead_pct" => aggregate_pct,
        "traced_aggregate_overhead_pct" => traced_aggregate_pct,
    };
    bench.section("telemetry_overhead", overhead);
    bench.section("exporters", obj! { "rows" => export_rows });

    // --- the uploadable artifacts: one fully traced paper run ---
    let pc = PipelineConfig::paper(ivis_core::PipelineKind::InSitu, 72.0);
    let rec = traced_run(&pc, cadence);
    let chrome = rec.with_buffer(to_chrome_trace).expect("recorder is on");
    let prom = rec
        .with_buffer(|b| to_prometheus(&b.metrics))
        .expect("recorder is on");
    let dir = std::path::Path::new(bench.out_path())
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let perfetto_path = dir.join("obs_trace.perfetto.json");
    let prom_path = dir.join("obs_metrics.prom");
    std::fs::write(&perfetto_path, &chrome).expect("write perfetto trace");
    std::fs::write(&prom_path, &prom).expect("write prometheus snapshot");
    eprintln!(
        "wrote {} ({} trace events) and {}",
        perfetto_path.display(),
        chrome.matches("\"ph\":").count(),
        prom_path.display()
    );
    bench.finish();
}
