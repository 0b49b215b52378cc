//! Microbenchmarks of the simulation substrate itself: the DES engine,
//! the processor-sharing server, the time-series recorder and the solver
//! kernels. These are the hot paths behind every campaign run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ivis_ocean::grid::Grid;
use ivis_ocean::okubo_weiss::okubo_weiss;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_sim::resource::FairShareServer;
use ivis_sim::{DesEngine, SimDuration, SimTime, TimeSeries};

fn bench_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");

    g.bench_function("des_10k_events", |b| {
        b.iter(|| {
            let mut eng: DesEngine<u64> = DesEngine::new();
            eng.schedule_at(SimTime::ZERO, 1);
            eng.run(&mut |eng: &mut DesEngine<u64>, _: SimTime, n: u64| {
                if n < 10_000 {
                    eng.schedule_in(SimDuration::from_micros(13), n + 1);
                }
            });
            eng.events_executed()
        })
    });

    g.bench_function("fair_share_1k_jobs", |b| {
        b.iter_batched(
            || FairShareServer::new(1.0e8),
            |mut srv| {
                for i in 0..1_000u64 {
                    srv.submit(SimTime::from_micros(i * 50), 1_000.0 + i as f64);
                }
                srv.drain_until(SimTime::from_secs(3_600)).len()
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("timeseries_push_and_integrate", |b| {
        b.iter(|| {
            let mut ts = TimeSeries::new();
            for i in 0..5_000u64 {
                ts.push(SimTime::from_micros(i * 997), (i % 37) as f64);
            }
            ts.integrate(SimTime::ZERO, SimTime::from_secs(5), 0.0)
        })
    });

    // Solver kernels on the paper-analogue grid.
    let grid = Grid::channel(256, 128, 60_000.0);
    let params = SwParams::eddy_channel(&grid);
    let mut model = ShallowWaterModel::new(grid, params);
    seed_random_eddies(&mut model, 12, 5);
    g.bench_function("shallow_water_step_256x128", |b| {
        b.iter(|| {
            model.step();
            model.state().h.get(0, 0)
        })
    });
    let (uc, vc) = model.centered_velocities();
    g.bench_function("okubo_weiss_256x128", |b| {
        b.iter(|| okubo_weiss(model.grid(), &uc, &vc))
    });
    g.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
