//! Fig. 5 — average power comparison.
//!
//! Regenerates the figure rows and times the power-averaging path: the
//! cluster meter the machine maintains, and beside it the merge of the 15
//! cage meters it replaced and the replay of the observation log that
//! builds those meters when somebody asks for them.

use criterion::{criterion_group, criterion_main, Criterion};
use ivis_bench::fig5_rows;
use ivis_cluster::{IoWaitPolicy, JobPhase, Machine};
use ivis_power::meter::aggregate;
use ivis_sim::SimTime;

fn bench_fig5(c: &mut Criterion) {
    for row in fig5_rows() {
        println!("{}", row.render());
    }
    // A representative metered machine trace to aggregate.
    let mut machine = Machine::caddy(IoWaitPolicy::BusyWait);
    let mut t = SimTime::ZERO;
    for k in 0..200 {
        let phase = if k % 3 == 0 {
            JobPhase::Simulate
        } else if k % 3 == 1 {
            JobPhase::WriteOutput
        } else {
            JobPhase::Visualize
        };
        machine.begin_phase(t, phase);
        t += ivis_sim::SimDuration::from_secs(7);
    }
    machine.finish(t);

    let mut g = c.benchmark_group("fig5_power");
    g.bench_function("cluster_meter_150_nodes", |b| {
        b.iter(|| machine.cluster_meter())
    });
    // Cloned before anything reads the cage meters (a clone carries the
    // replayed meters once they exist), so each iteration replays the log.
    let unread = machine.clone();
    g.bench_function("replay_15_cage_meters", |b| {
        b.iter(|| unread.clone().cage_meters().len())
    });
    g.bench_function("aggregate_15_replayed_cage_meters", |b| {
        b.iter(|| aggregate("compute-cluster", machine.cage_meters()))
    });
    let meter = machine.cluster_meter();
    g.bench_function("minute_averaged_report", |b| {
        b.iter(|| meter.report(SimTime::ZERO, t))
    });
    g.bench_function("average_power_from_profile", |b| {
        let profile = meter.profile(SimTime::ZERO, t);
        b.iter(|| profile.average_power())
    });
    g.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
