//! In-transit transport benchmark: the staged depth-k transport at the
//! paper's most demanding (8 h) rate.
//!
//! Two contracts from the transport issue are enforced here, and the
//! numbers behind them land in `BENCH_intransit.json` (or the path given
//! as the first non-flag argument) as a tracked perf trajectory:
//!
//! * **determinism** — each row records its metrics digest; with
//!   `--check` it must equal the one the committed `BENCH_intransit.json`
//!   records (the `depth1` digest is also the synchronous hand-off pinned
//!   as `sync/s10@8h` in `tests/golden/executor_identity.txt`);
//! * **the depth lever** — a depth-4 queue must *strictly* shorten the
//!   simulated makespan versus depth 1 when staging is the bottleneck
//!   (10 staging nodes at the 8 h rate). With `--check`, exits nonzero
//!   if it does not — the CI gate.
//!
//! Wall-clock timings of the executor ride along so the hot path's host
//! cost stays on the same trajectory as the other bench artifacts.

use std::time::Instant;

use ivis_core::campaign::Campaign;
use ivis_core::intransit::{reported_kind, InTransitConfig};
use ivis_core::{CompressionConfig, PipelineConfig, PipelineKind, TransportConfig};

/// Minimum wall-clock seconds of `f` over `reps` runs (after warmup).
fn time_min_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup + lazy init
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn pc_8h() -> PipelineConfig {
    let mut pc = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
    pc.kind = reported_kind();
    pc
}

fn it_config(transport: TransportConfig) -> InTransitConfig {
    InTransitConfig {
        staging_nodes: 10,
        transport,
        ..InTransitConfig::caddy_default()
    }
}

/// The committed baseline `--check` compares digests against.
const BASELINE: &str = "BENCH_intransit.json";

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

    let campaign = Campaign::paper();
    let pc = pc_8h();

    // --- the provisioning ladder at 10 staging nodes / 8 h ---
    let configs: [(&str, TransportConfig); 3] = [
        ("depth1", TransportConfig::synchronous()),
        ("depth4", TransportConfig::pipelined(4)),
        (
            "depth4+zfp",
            TransportConfig::pipelined(4).with_compression(CompressionConfig::zfp_like()),
        ),
    ];
    let mut rows = Vec::new();
    let mut witnesses = Vec::new();
    let mut makespans = Vec::new();
    for (label, transport) in configs {
        let it = it_config(transport);
        let (m, stats) = campaign.run_intransit_with_stats(&pc, &it);
        let wall_s = time_min_s(3, || {
            std::hint::black_box(campaign.run_intransit_with_stats(&pc, &it));
        });
        let makespan = m.execution_time.as_secs_f64();
        let stall = stats.stall_time.as_secs_f64();
        eprintln!(
            "{label:>12}: makespan {makespan:>7.1} s, stall {stall:>7.1} s, wire {:>6.2} GB, \
             in-flight ≤{}, host {:.3} ms",
            stats.bytes_shipped as f64 / 1e9,
            stats.max_in_flight,
            wall_s * 1e3
        );
        let digest = m.digest();
        rows.push(format!(
            "    {{ \"config\": \"{label}\", \"makespan_s\": {makespan:.6}, \
             \"stall_s\": {stall:.6}, \"wire_bytes\": {}, \"max_in_flight\": {}, \
             \"wall_s\": {wall_s:.6}, \"digest\": \"{digest}\" }}",
            stats.bytes_shipped, stats.max_in_flight,
        ));
        witnesses.push((label.to_string(), digest));
        makespans.push(makespan);
    }

    let (d1_s, d4_s) = (makespans[0], makespans[1]);
    let saving_pct = (1.0 - d4_s / d1_s) * 100.0;
    let gate_pass = d4_s < d1_s;
    eprintln!(
        "gate: depth4 {d4_s:.1} s vs depth1 {d1_s:.1} s ({saving_pct:+.2}% saving) → {}",
        if gate_pass { "PASS" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"host\": {{ \"available_parallelism\": {host_threads}, \"zsim_threads\": {} }},\n  \
         \"config\": {{ \"rate_hours\": 8.0, \"staging_nodes\": 10 }},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"depth_gate\": {{ \"depth1_s\": {d1_s:.6}, \"depth4_s\": {d4_s:.6}, \
         \"saving_pct\": {saving_pct:.3}, \"pass\": {gate_pass} }}\n}}\n",
        zsim.map_or("null".to_string(), |v| format!("\"{v}\"")),
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    let mut failures = baseline.map_or(Vec::new(), |b| {
        ivis_bench::baseline::digest_mismatches(&b, &witnesses)
    });
    if check && !gate_pass {
        failures.push(format!(
            "depth-4 transport did not strictly beat depth 1 at the \
             staging-bound 8 h point ({d4_s:.1} s vs {d1_s:.1} s)"
        ));
    }
    ivis_bench::baseline::exit_on_failures(&failures);
}
