//! Discrete-event-engine benchmark: raw [`ivis_sim::DesEngine`]
//! throughput, the pipeline executors across the paper matrix, the cost of
//! building the paper machine's 15 cage meters on demand, and the 10k-,
//! 100k- and 1M-node *exascale what-if* campaigns on
//! [`Campaign::caddy_scaled`].
//!
//! Two things are tracked:
//!
//! * **identity** — each run's metrics digest is recorded, so the
//!   artifact doubles as a cross-machine determinism witness
//!   (`tests/des_identity.rs` is the full contract);
//! * **speed** — the heap/arena engine sustains millions of events per
//!   second, and a campaign's cost follows its event count, not the size
//!   of the simulated machine.
//!
//! Writes `BENCH_des.json` (or the path given as the first non-flag
//! argument). With `--check`, exits nonzero if any digest differs from
//! the one the committed `BENCH_des.json` records, the raw engine drops
//! below 1M events/s, the 10k-node campaign takes longer than 0.01 s of
//! wall clock (the 100k-node one 0.05 s, the 1M-node one 0.25 s), or the
//! process ever held more than 64 MiB. The campaign budgets are ≥ 20×
//! what this host needs and still below what per-cage work per phase
//! change cost at 10k nodes (0.029 s), so they catch that coming back,
//! not jitter.

use ivis_bench::obj;
use ivis_bench::report::{time_min_s, Bench};
use ivis_cluster::{IoWaitPolicy, JobPhase, Machine};
use ivis_core::{Campaign, PipelineConfig, PipelineKind, Plan};
use ivis_power::meter::aggregate;
use ivis_sim::{DesEngine, SimDuration, SimTime};

/// One self-rescheduling event chain: the single-token shape every
/// executor uses, so this is the per-event floor of a campaign run.
fn hot_chain(events: u64) {
    let mut eng: DesEngine<u64> = DesEngine::new();
    eng.schedule_at(SimTime::ZERO, 0);
    let handler = |eng: &mut DesEngine<u64>, _at: SimTime, k: u64| {
        if k + 1 < events {
            eng.schedule_in(SimDuration::from_micros(7), k + 1);
        }
    };
    eng.run(handler);
    assert_eq!(eng.events_executed(), events);
}

/// Pre-load `events` timers scattered (deterministically) across five
/// decades of delay, then drain: the heap's worst case, every pop sifting
/// through a queue of up to 200 k entries. (The row keeps its old
/// `engine/wheel_churn` name, which the benchmark catalog cites.)
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
    let handler = |_: &mut DesEngine<u64>, at: SimTime, _: u64| {
        assert!(at >= last, "queue fired out of order");
        last = at;
        fired += 1;
    };
    eng.run(handler);
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

fn main() {
    let mut bench = Bench::from_args("des");

    // --- raw engine throughput ---
    const CHAIN_EVENTS: u64 = 1_000_000;
    const CHURN_EVENTS: u64 = 200_000;
    let chain_eps = CHAIN_EVENTS as f64 / time_min_s(3, || hot_chain(CHAIN_EVENTS));
    let churn_eps = CHURN_EVENTS as f64 / time_min_s(3, || wheel_churn(CHURN_EVENTS));
    bench.gate(chain_eps >= 1e6, || {
        format!("engine hot chain sustained only {chain_eps:.0} events/s (1M floor)")
    });
    let engine = obj! { "rows" => vec![
        obj! { "config" => "engine/hot_chain", "events" => CHAIN_EVENTS, "events_per_sec" => chain_eps },
        obj! { "config" => "engine/wheel_churn", "events" => CHURN_EVENTS, "events_per_sec" => churn_eps },
    ] };
    bench.section("engine", engine);

    // --- the executors across the paper matrix ---
    let campaign = Campaign::paper();
    let mut rows = Vec::new();
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("{}@{}h", pc.kind.label(), pc.rate.every_hours);
        let run = campaign
            .execute(&Plan::new(pc.clone()))
            .expect("clean run cannot fail");
        let wall_s = time_min_s(5, || campaign.run(&pc));
        let eps = run.events as f64 / wall_s;
        rows.push(obj! {
            "config" => label, "des_s" => wall_s, "des_events" => run.events,
            "des_events_per_sec" => eps, "digest" => run.metrics.digest(),
        });
    }
    bench.section("paper_matrix", obj! { "rows" => rows });

    // --- cage meters: replay the observation log, then merge it ---
    // The paper machine after 200 phase changes. A clone taken before any
    // read carries no replayed meters, so each timed call replays the log.
    const PHASE_CHANGES: u64 = 200;
    let phases = [
        JobPhase::Simulate,
        JobPhase::WriteOutput,
        JobPhase::Visualize,
    ];
    let mut machine = Machine::caddy(IoWaitPolicy::BusyWait);
    let mut t = SimTime::ZERO;
    for k in 0..PHASE_CHANGES {
        machine.begin_phase(t, phases[k as usize % phases.len()]);
        t += SimDuration::from_secs(7);
    }
    machine.finish(t);
    let unread = machine.clone();
    let replay_us = time_min_s(200, || unread.clone().cage_meters().len()) * 1e6;
    let cages = machine.cage_meters().len();
    let aggregate_us =
        time_min_s(200, || aggregate("compute-cluster", machine.cage_meters())) * 1e6;
    let cage_meters = obj! {
        "cages" => cages, "phase_changes" => PHASE_CHANGES,
        "replay_us" => replay_us, "aggregate_us" => aggregate_us,
    };
    bench.section("cage_meters", cage_meters);

    // --- the exascale what-ifs: 10 000- to 1 000 000-node Caddys ---
    let pc = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
    let mut big_rows = Vec::new();
    for (label, nodes, budget_s) in [
        ("caddy10k/in-situ@8h", 10_000, 0.01),
        ("caddy100k/in-situ@8h", 100_000, 0.05),
        ("caddy1m/in-situ@8h", 1_000_000, 0.25),
    ] {
        let big = Campaign::caddy_scaled(nodes);
        let run = big
            .execute(&Plan::new(pc.clone()))
            .expect("clean run cannot fail");
        let wall_s = time_min_s(3, || big.run(&pc));
        bench.gate(wall_s <= budget_s, || {
            format!("{nodes}-node campaign took {wall_s:.4} s of wall clock ({budget_s} s budget)")
        });
        big_rows.push(obj! {
            "config" => label, "wall_s" => wall_s, "des_events" => run.events,
            "digest" => run.metrics.digest(),
        });
    }
    let vm_hwm = vm_hwm_mib();
    if let Some(mib) = vm_hwm {
        bench.gate(mib <= VM_HWM_BUDGET_MIB, || {
            format!(
                "peak resident set {mib:.1} MiB after the 1M-node campaign \
                 ({VM_HWM_BUDGET_MIB} MiB budget)"
            )
        });
    }
    let exascale = obj! { "vm_hwm_mib" => vm_hwm, "rows" => big_rows };
    bench.section("exascale", exascale);
    bench.finish();
}
