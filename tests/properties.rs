//! Cross-crate property-based tests (proptest) on the core invariants.

use insitu_vis::eddy::segment::label_components;
use insitu_vis::model::calibrate::{calibrate_exact, CalibrationPoint};
use insitu_vis::model::perf::PerfModel;
use insitu_vis::ocean::Field2D;
use insitu_vis::power::units::Watts;
use insitu_vis::sim::resource::FairShareServer;
use insitu_vis::sim::stats::percentile;
use insitu_vis::sim::{SimDuration, SimTime, TimeSeries};
use insitu_vis::storage::layout::StripeLayout;
use insitu_vis::storage::ncdf::{NcFile, VarData};
use insitu_vis::viz::png::{encode_png, encoded_png_size};
use insitu_vis::viz::raster::{rasterize, sample_bilinear};
use insitu_vis::viz::Colormap;
use insitu_vis::viz::ImageBuffer;
use proptest::prelude::*;
use rayon::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fair_share_conserves_work(jobs in prop::collection::vec((1.0f64..1e6, 0u64..100), 1..20)) {
        // A work-conserving server at capacity C is empty at
        // h = max(h, t_i) + w_i / C after each arrival (t_i, w_i) in time
        // order. Processor sharing serves the same work, so its drain
        // horizon is h up to rounding: the horizon itself rounds to the
        // microsecond, and each job leaves at the next whole microsecond
        // after it finishes, which idles at most 1 µs of capacity per job.
        let capacity = 1000.0;
        let mut srv = FairShareServer::new(capacity);
        let mut arrivals: Vec<(u64, f64)> = jobs.iter().map(|&(w, t)| (t, w)).collect();
        arrivals.sort_by_key(|a| a.0);
        let mut h = 0.0f64;
        for &(t, w) in &arrivals {
            srv.submit(SimTime::from_secs(t), w);
            h = h.max(t as f64) + w / capacity;
        }
        let horizon = srv.drained_at().as_micros() as f64;
        let h_us = h * 1e6;
        prop_assert!(horizon >= h_us - 1.0, "horizon {} µs is before {} µs", horizon, h_us);
        let slack = (arrivals.len() + 1) as f64;
        prop_assert!(horizon <= h_us + slack, "horizon {} µs is past {} µs", horizon, h_us);
    }

    #[test]
    fn timeseries_integral_is_additive(
        vals in prop::collection::vec(0.0f64..1e4, 1..30),
        split in 1u64..1000,
    ) {
        let mut ts = TimeSeries::new();
        for (i, v) in vals.iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64 * 10), *v);
        }
        let end = SimTime::from_secs(1_000);
        let mid = SimTime::from_secs(split.min(999));
        let whole = ts.integrate(SimTime::ZERO, end, 0.0);
        let parts = ts.integrate(SimTime::ZERO, mid, 0.0) + ts.integrate(mid, end, 0.0);
        prop_assert!((whole - parts).abs() < 1e-6 * whole.abs().max(1.0));
    }

    #[test]
    fn meter_resampling_preserves_energy(
        vals in prop::collection::vec(0.0f64..5e4, 2..40),
    ) {
        // Interval-averaging loses shape, never energy.
        let mut ts = TimeSeries::new();
        for (i, v) in vals.iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64 * 17), *v);
        }
        let end = SimTime::from_secs(vals.len() as u64 * 17 + 60);
        let exact = ts.integrate(SimTime::ZERO, end, 0.0);
        let resampled = ts.resample_avg(SimTime::ZERO, end, SimDuration::from_mins(1), 0.0);
        let mut prev = SimTime::ZERO;
        let mut acc = 0.0;
        for (at, avg) in resampled {
            acc += avg * (at - prev).as_secs_f64();
            prev = at;
        }
        prop_assert!((acc - exact).abs() < 1e-6 * exact.abs().max(1.0));
    }

    #[test]
    fn stripe_distribution_partitions_bytes(
        stripe_size in 1u64..10_000,
        count in 1usize..16,
        offset in 0u64..1_000_000,
        len in 0u64..10_000_000,
    ) {
        let layout = StripeLayout::new(stripe_size, count);
        let dist = layout.distribute(offset, len);
        prop_assert_eq!(dist.len(), count);
        prop_assert_eq!(dist.iter().sum::<u64>(), len);
        // No OST receives more than its fair share plus one stripe.
        let fair = len / count as u64;
        for &b in &dist {
            prop_assert!(b <= fair + stripe_size);
        }
    }

    #[test]
    fn ncdf_roundtrip_arbitrary_contents(
        ny in 1u64..12,
        nx in 1u64..12,
        seed in 0u64..1000,
    ) {
        let n = (nx * ny) as usize;
        let data: Vec<f64> = (0..n).map(|i| ((i as u64 * 2654435761 + seed) as f64) * 1e-3).collect();
        let mut f = NcFile::new();
        let dy = f.add_dim("y", ny);
        let dx = f.add_dim("x", nx);
        f.add_attr("seed", seed.to_string());
        f.add_var("v", vec![dy, dx], VarData::F64(data)).expect("consistent");
        let encoded = f.encode();
        prop_assert_eq!(encoded.len() as u64, f.encoded_size());
        let back = NcFile::decode(&encoded).expect("roundtrip");
        prop_assert_eq!(back, f);
    }

    #[test]
    fn png_size_prediction_always_exact(w in 1usize..64, h in 1usize..64) {
        let img = ImageBuffer::new(w, h);
        prop_assert_eq!(encode_png(&img).len() as u64, encoded_png_size(w, h));
    }

    #[test]
    fn bilinear_sampling_within_field_bounds(
        nx in 2usize..16,
        ny in 2usize..16,
        fx in -20.0f64..40.0,
        fy in -20.0f64..40.0,
    ) {
        let field = Field2D::from_fn(nx, ny, |i, j| (i * 31 + j * 17) as f64 % 13.0);
        let v = sample_bilinear(&field, fx, fy);
        prop_assert!(v >= field.min() - 1e-9 && v <= field.max() + 1e-9);
    }

    #[test]
    fn rasterize_never_panics_and_uses_palette(
        nx in 4usize..12,
        ny in 4usize..12,
        w in 1usize..32,
        h in 1usize..32,
    ) {
        let field = Field2D::from_fn(nx, ny, |i, j| (i as f64) - (j as f64));
        let img = rasterize(&field, w, h, Colormap::Viridis, field.min(), field.max() + 1e-9);
        prop_assert_eq!(img.pixels().len(), w * h);
    }

    #[test]
    fn connected_components_cover_mask_exactly(
        nx in 2usize..12,
        ny in 2usize..12,
        bits in prop::collection::vec(any::<bool>(), 4..144),
    ) {
        let mask: Vec<bool> = (0..nx * ny).map(|i| bits[i % bits.len()]).collect();
        let seg = label_components(nx, ny, &mask);
        let labeled = seg.labels.iter().filter(|l| l.is_some()).count();
        let expected = mask.iter().filter(|&&b| b).count();
        prop_assert_eq!(labeled, expected);
        prop_assert_eq!(seg.component_sizes().iter().sum::<usize>(), expected);
        // Labels are dense 0..num_components.
        for l in seg.labels.iter().flatten() {
            prop_assert!((*l as usize) < seg.num_components);
        }
    }

    #[test]
    fn model_is_linear_in_workload(
        s1 in 0.0f64..500.0,
        s2 in 0.0f64..500.0,
        n1 in 0.0f64..1000.0,
        n2 in 0.0f64..1000.0,
    ) {
        let m = PerfModel::paper();
        let separate = m.predict_seconds(8640, s1, n1) + m.predict_seconds(8640, s2, n2);
        let combined = m.predict_seconds(8640, s1 + s2, n1 + n2) + m.t_sim_ref;
        prop_assert!((separate - combined).abs() < 1e-6);
    }

    #[test]
    fn calibration_inverts_prediction(
        t_sim in 100.0f64..2000.0,
        alpha in 0.5f64..20.0,
        beta in 0.1f64..5.0,
    ) {
        let truth = PerfModel { t_sim_ref: t_sim, iter_ref: 8640, alpha, beta };
        let pts = [
            CalibrationPoint::new(truth.predict_seconds(8640, 0.1, 60.0), 0.1, 60.0),
            CalibrationPoint::new(truth.predict_seconds(8640, 0.6, 540.0), 0.6, 540.0),
            CalibrationPoint::new(truth.predict_seconds(8640, 80.0, 180.0), 80.0, 180.0),
        ];
        let fit = calibrate_exact(&pts, 8640).expect("well-conditioned");
        prop_assert!((fit.t_sim_ref - t_sim).abs() < 1e-6 * t_sim);
        prop_assert!((fit.alpha - alpha).abs() < 1e-6 * alpha.max(1.0));
        prop_assert!((fit.beta - beta).abs() < 1e-6 * beta.max(1.0));
    }

    #[test]
    fn percentile_extremes_match_folded_min_and_max(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(percentile(&xs, 0.0).expect("non-empty"), min);
        prop_assert_eq!(percentile(&xs, 1.0).expect("non-empty"), max);
    }

    #[test]
    fn watts_joules_dimensional_consistency(
        p in 0.0f64..1e6,
        secs in 1u64..100_000,
    ) {
        let e = Watts(p).over(SimDuration::from_secs(secs));
        let back = e.average_over(SimDuration::from_secs(secs));
        prop_assert!((back.watts() - p).abs() < 1e-9 * p.max(1.0));
    }

    // --- rayon shim: the threaded backend agrees with std iterators ---

    #[test]
    fn par_collect_preserves_input_order(
        xs in prop::collection::vec(0u64..1_000_000, 0..4000),
    ) {
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| x * 2).collect();
        prop_assert_eq!(doubled, expect);
    }

    // --- one recorder over consecutive windows still tiles metered energy ---

    #[test]
    fn recorder_windows_tile_metered_energy(
        compute_w in prop::collection::vec(50.0f64..500.0, 6..7),
        storage_w in 10.0f64..100.0,
        sim_secs in 5u64..25,
    ) {
        use insitu_vis::cluster::JobPhase;
        use insitu_vis::power::meter::MeterSample;
        use insitu_vis::power::profile::PowerProfile;
        use ivis_obs::{attribute, Component, Recorder};

        // Six consecutive 30-s windows of sim time, each a simulate phase
        // then a write phase, tile [0, 180] in one buffer.
        let window = 30u64;
        let rec = Recorder::in_memory();
        for k in 0..6u64 {
            let t0 = k * window;
            let sim =
                rec.phase_span(SimTime::from_secs(t0), JobPhase::Simulate, Component::Compute);
            rec.counter_add(SimTime::from_secs(t0), "outputs", 1.0);
            rec.close(SimTime::from_secs(t0 + sim_secs), sim);
            let io = rec.phase_span(
                SimTime::from_secs(t0 + sim_secs),
                JobPhase::WriteOutput,
                Component::Storage,
            );
            rec.close(SimTime::from_secs(t0 + window), io);
        }
        let buffer = rec.into_buffer().expect("sole owner");
        prop_assert_eq!(buffer.metrics.get("outputs").expect("counter").last_value(), 6.0);

        // Meter both subsystems over exactly the traced window and check
        // the attribution tiles the metered energy.
        let meter = |watts: &dyn Fn(usize) -> f64| {
            PowerProfile::from_meter_samples(
                SimTime::ZERO,
                (1..=18).map(|i| MeterSample {
                    at: SimTime::from_secs(i * 10),
                    avg: Watts(watts(((i - 1) / 3) as usize)),
                }).collect(),
            )
        };
        let compute = meter(&|k| compute_w[k]);
        let storage = meter(&|_| storage_w);
        let att = attribute(&buffer.phase_timeline(), &compute, &storage);
        let residual = att.residual().joules().abs();
        prop_assert!(residual < 1e-6, "residual {} J", residual);
    }
}
