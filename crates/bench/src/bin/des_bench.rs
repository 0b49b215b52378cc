//! Discrete-event-engine benchmark: raw [`ivis_sim::DesEngine`]
//! throughput, the pipeline executors across the paper matrix, and the
//! 10k-, 100k- and 1M-node *exascale what-if* campaigns on
//! [`Campaign::caddy_scaled`].
//!
//! Two things are tracked:
//!
//! * **identity** — each run's metrics digest is recorded, so the
//!   artifact doubles as a cross-machine determinism witness
//!   (`tests/des_identity.rs` is the full contract);
//! * **speed** — the timer-wheel/arena engine sustains millions of
//!   events per second, and a campaign's cost follows its event count,
//!   not the size of the simulated machine.
//!
//! Writes `BENCH_des.json` (or the path given as the first non-flag
//! argument). With `--check`, exits nonzero if any digest differs from
//! the one the committed `BENCH_des.json` records, the raw engine drops
//! below 1M events/s, the 10k-node campaign takes longer than 0.01 s of
//! wall clock (the 100k-node one 0.05 s, the 1M-node one 0.25 s), or the
//! process ever held more than 64 MiB. The campaign budgets are ≥ 20×
//! what this host needs and still below what per-cage work per phase
//! change cost at 10k nodes (0.029 s), so they catch that coming back,
//! not jitter; trajectory gating is `bench_diff --ratios-only`'s job.

use std::time::Instant;

use ivis_core::{Campaign, PipelineConfig, PipelineKind};
use ivis_sim::{DesEngine, SimDuration, SimTime};

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

/// One self-rescheduling event chain: the single-token shape every
/// executor uses, so this is the per-event floor of a campaign run.
fn hot_chain(events: u64) {
    let mut eng: DesEngine<u64> = DesEngine::new();
    eng.schedule_at(SimTime::ZERO, 0);
    let mut handler = |eng: &mut DesEngine<u64>, _at: SimTime, k: u64| {
        if k + 1 < events {
            eng.schedule_in(SimDuration::from_micros(7), k + 1);
        }
    };
    eng.run(&mut handler);
    assert_eq!(eng.events_executed(), events);
}

/// Pre-load `events` timers scattered (deterministically) across five
/// decades of delay, then drain: exercises wheel cascades and the
/// calendar overflow, the worst case for queue maintenance.
fn wheel_churn(events: u64) {
    let mut eng: DesEngine<u64> = DesEngine::with_capacity(events as usize);
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    for k in 0..events {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // 1 µs .. ~100 s, biased low like real pipelines.
        let us = 1 + (lcg >> 33) % 100_000_000;
        eng.schedule_at(SimTime::from_micros(us), k);
    }
    let mut fired = 0u64;
    let mut last = SimTime::ZERO;
    let mut handler = |_: &mut DesEngine<u64>, at: SimTime, _: u64| {
        assert!(at >= last, "wheel fired out of order");
        last = at;
        fired += 1;
    };
    eng.run(&mut handler);
    assert_eq!(fired, events);
}

/// The process's peak resident set so far in MiB (`VmHWM`), where the
/// platform reports one.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What a 1M-node campaign may leave resident: cost follows events, so a
/// few MiB; per-cage meters would be gigabytes.
const VM_HWM_BUDGET_MIB: f64 = 64.0;

/// The committed baseline `--check` compares digests against.
const BASELINE: &str = "BENCH_des.json";

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
    let mut failures: Vec<String> = Vec::new();

    // --- raw engine throughput ---
    const CHAIN_EVENTS: u64 = 1_000_000;
    const CHURN_EVENTS: u64 = 200_000;
    let chain_s = time_min_s(3, || hot_chain(CHAIN_EVENTS));
    let chain_eps = CHAIN_EVENTS as f64 / chain_s;
    let churn_s = time_min_s(3, || wheel_churn(CHURN_EVENTS));
    let churn_eps = CHURN_EVENTS as f64 / churn_s;
    eprintln!("{:>22}: {chain_eps:.0} events/s", "engine/hot_chain");
    eprintln!("{:>22}: {churn_eps:.0} events/s", "engine/wheel_churn");
    if check && chain_eps < 1e6 {
        failures.push(format!(
            "engine hot chain sustained only {chain_eps:.0} events/s (1M floor)"
        ));
    }

    // --- the executors across the paper matrix ---
    let campaign = Campaign::paper();
    let mut witnesses = Vec::new();
    let mut rows = Vec::new();
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("{}@{}h", pc.kind.label(), pc.rate.every_hours);
        let (m, events) = campaign
            .try_run_des_with_events(&pc)
            .expect("clean run cannot fail");
        let wall_s = time_min_s(5, || {
            std::hint::black_box(campaign.run(&pc));
        });
        let eps = events as f64 / wall_s;
        eprintln!(
            "{label:>22}: {:.3} ms ({events} events, {eps:.0} ev/s)",
            wall_s * 1e3
        );
        let digest = m.digest();
        rows.push(format!(
            "    {{ \"config\": \"{label}\", \"des_s\": {wall_s:.6}, \"des_events\": {events}, \
             \"des_events_per_sec\": {eps:.0}, \"digest\": \"{digest}\" }}"
        ));
        witnesses.push((label, digest));
    }

    // --- the exascale what-ifs: 10 000- to 1 000 000-node Caddys ---
    let pc = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
    let mut big_rows = Vec::new();
    for (label, nodes, budget_s) in [
        ("caddy10k/in-situ@8h", 10_000, 0.01),
        ("caddy100k/in-situ@8h", 100_000, 0.05),
        ("caddy1m/in-situ@8h", 1_000_000, 0.25),
    ] {
        let big = Campaign::caddy_scaled(nodes);
        let (m, events) = big
            .try_run_des_with_events(&pc)
            .expect("clean run cannot fail");
        let wall_s = time_min_s(3, || {
            std::hint::black_box(big.run(&pc));
        });
        let digest = m.digest();
        eprintln!(
            "{label:>22}: {:.3} ms ({events} events) digest {digest}",
            wall_s * 1e3
        );
        if check && wall_s > budget_s {
            failures.push(format!(
                "{nodes}-node campaign took {wall_s:.4} s of wall clock ({budget_s} s budget)"
            ));
        }
        big_rows.push(format!(
            "    {{ \"config\": \"{label}\", \"wall_s\": {wall_s:.6}, \"des_events\": {events}, \
             \"digest\": \"{digest}\" }}"
        ));
        witnesses.push((label.to_string(), digest));
    }
    let vm_hwm = vm_hwm_mib();
    if let Some(mib) = vm_hwm {
        eprintln!("{:>22}: {mib:.1} MiB", "VmHWM");
        if check && mib > VM_HWM_BUDGET_MIB {
            failures.push(format!(
                "peak resident set {mib:.1} MiB after the 1M-node campaign \
                 ({VM_HWM_BUDGET_MIB} MiB budget)"
            ));
        }
    }
    if let Some(baseline) = &baseline {
        failures.extend(ivis_bench::baseline::digest_mismatches(
            baseline, &witnesses,
        ));
    }

    // --- artifact ---
    let json = format!(
        "{{\n  \"host\": {{ \"available_parallelism\": {host_threads}, \"zsim_threads\": {} }},\n  \
         \"engine\": {{ \"rows\": [\n    \
         {{ \"config\": \"engine/hot_chain\", \"events\": {CHAIN_EVENTS}, \"events_per_sec\": {chain_eps:.0} }},\n    \
         {{ \"config\": \"engine/wheel_churn\", \"events\": {CHURN_EVENTS}, \"events_per_sec\": {churn_eps:.0} }}\n  ] }},\n  \
         \"paper_matrix\": {{\n  \"rows\": [\n{}\n  ] }},\n  \
         \"exascale\": {{\n  \"vm_hwm_mib\": {},\n  \"rows\": [\n{}\n  ] }}\n}}\n",
        zsim.map_or("null".to_string(), |v| format!("\"{v}\"")),
        rows.join(",\n"),
        vm_hwm.map_or("null".to_string(), |mib| format!("{mib:.1}")),
        big_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if check {
        ivis_bench::baseline::exit_on_failures(&failures);
    }
}
