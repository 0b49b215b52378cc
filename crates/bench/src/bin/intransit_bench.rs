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
//!   (10 staging nodes at the 8 h rate) — a `--check` gate.
//!
//! Wall-clock timings of the executor ride along so the hot path's host
//! cost stays on the same trajectory as the other bench artifacts.

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench};
use ivis_core::campaign::{Campaign, Plan};
use ivis_core::intransit::{reported_kind, InTransitConfig};
use ivis_core::{CompressionConfig, PipelineConfig, PipelineKind, TransportConfig};

fn pc_8h() -> PipelineConfig {
    let mut pc = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
    pc.kind = reported_kind();
    pc
}

/// Few enough staging nodes that staging is the bottleneck at 8 h.
const STAGING_NODES: usize = 10;

fn staged_plan(transport: TransportConfig) -> Plan {
    Plan {
        staging: Some(InTransitConfig {
            staging_nodes: STAGING_NODES,
            transport,
            ..InTransitConfig::caddy_default()
        }),
        ..Plan::new(pc_8h())
    }
}

fn main() {
    let mut bench = Bench::from_args("intransit");
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
    let mut makespans = Vec::new();
    for (label, transport) in configs {
        let plan = staged_plan(transport);
        let run = campaign.execute(&plan).expect("10 staging nodes fit");
        let (m, stats) = (run.metrics, run.transport.expect("a staged run"));
        let wall_s = time_min_s(3, || campaign.execute(&plan));
        let makespan = m.execution_time.as_secs_f64();
        let stall = stats.stall_time.as_secs_f64();
        rows.push(obj! {
            "config" => label, "makespan_s" => makespan, "stall_s" => stall,
            "wire_bytes" => stats.bytes_shipped, "max_in_flight" => stats.max_in_flight,
            "wall_s" => wall_s, "digest" => m.digest(),
        });
        makespans.push(makespan);
    }

    let (d1_s, d4_s) = (makespans[0], makespans[1]);
    let saving_pct = (1.0 - d4_s / d1_s) * 100.0;
    bench.gate(d4_s < d1_s, || {
        format!(
            "depth-4 transport did not strictly beat depth 1 at the \
             staging-bound 8 h point ({d4_s:.1} s vs {d1_s:.1} s)"
        )
    });

    let config = obj! { "rate_hours" => pc.rate.every_hours, "staging_nodes" => STAGING_NODES };
    let depth_gate = obj! { "depth1_s" => d1_s, "depth4_s" => d4_s, "saving_pct" => saving_pct };
    bench.section("config", config);
    bench.section("rows", rows.into());
    bench.section("depth_gate", depth_gate);
    bench.finish();
}
