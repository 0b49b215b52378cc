//! Consistency between the measured campaign and the analytical model:
//! a model calibrated from three campaign runs must predict configurations
//! it never saw, and the Eq. 6/7 scalings must match what the instrumented
//! filesystem actually accounted; and the model itself is exactly linear
//! in the sampling rate.

use insitu_vis::model::calibrate::{calibrate_exact, calibrate_least_squares, CalibrationPoint};
use insitu_vis::model::scaling::{scale_image_count, scale_storage_bytes};
use insitu_vis::model::WhatIfAnalyzer;
use insitu_vis::ocean::{ProblemSpec, SamplingRate};
use insitu_vis::pipeline::campaign::Campaign;
use insitu_vis::pipeline::metrics::model_point;
use insitu_vis::pipeline::{PipelineConfig, PipelineKind};
use proptest::prelude::*;

fn point(campaign: &Campaign, kind: PipelineKind, h: f64) -> CalibrationPoint {
    let m = campaign.run(&PipelineConfig::paper(kind, h));
    let (t, s, n) = model_point(&m);
    CalibrationPoint::new(t, s, n)
}

#[test]
fn calibrated_model_predicts_unseen_rates() {
    let campaign = Campaign::paper();
    let model = calibrate_exact(
        &[
            point(&campaign, PipelineKind::InSitu, 72.0),
            point(&campaign, PipelineKind::InSitu, 8.0),
            point(&campaign, PipelineKind::PostProcessing, 24.0),
        ],
        8640,
    )
    .expect("well-conditioned");
    // Predict configurations the calibration never saw: 12 h and 48 h.
    for (kind, h) in [
        (PipelineKind::PostProcessing, 12.0),
        (PipelineKind::PostProcessing, 48.0),
        (PipelineKind::InSitu, 12.0),
        (PipelineKind::InSitu, 48.0),
    ] {
        let measured = campaign.run(&PipelineConfig::paper(kind, h));
        let (t, s, n) = model_point(&measured);
        let predicted = model.predict_seconds(8640, s, n);
        let rel = (predicted - t).abs() / t;
        assert!(
            rel < 0.01,
            "{} @{h}h: predicted {predicted:.0}s vs measured {t:.0}s ({:.2}% off)",
            kind.label(),
            rel * 100.0
        );
    }
}

#[test]
fn least_squares_over_full_matrix_matches_exact_solve() {
    let campaign = Campaign::paper();
    let exact = calibrate_exact(
        &[
            point(&campaign, PipelineKind::InSitu, 72.0),
            point(&campaign, PipelineKind::InSitu, 8.0),
            point(&campaign, PipelineKind::PostProcessing, 24.0),
        ],
        8640,
    )
    .expect("solvable");
    let all: Vec<CalibrationPoint> = campaign
        .run_paper_matrix()
        .iter()
        .map(|m| {
            let (t, s, n) = model_point(m);
            CalibrationPoint::new(t, s, n)
        })
        .collect();
    let ls = calibrate_least_squares(&all, 8640).expect("solvable");
    assert!(
        (exact.alpha - ls.alpha).abs() < 0.1,
        "{} vs {}",
        exact.alpha,
        ls.alpha
    );
    assert!((exact.beta - ls.beta).abs() < 0.05);
    assert!((exact.t_sim_ref - ls.t_sim_ref).abs() < 5.0);
}

#[test]
fn eq6_scaling_matches_campaign_accounting() {
    // Storage measured at 24 h, scaled by Eq. 6 to 8 h and 72 h, must match
    // the filesystem's own accounting of those runs.
    let campaign = Campaign::paper();
    let r24 = SamplingRate::every_hours(24.0);
    let s24 = campaign
        .run(&PipelineConfig::paper(PipelineKind::PostProcessing, 24.0))
        .storage_bytes;
    for h in [8.0, 72.0] {
        let measured = campaign
            .run(&PipelineConfig::paper(PipelineKind::PostProcessing, h))
            .storage_bytes;
        let scaled = scale_storage_bytes(s24, r24, SamplingRate::every_hours(h));
        let rel = (measured as f64 - scaled as f64).abs() / measured as f64;
        assert!(
            rel < 0.01,
            "@{h}h: Eq.6 gives {scaled}, campaign accounted {measured}"
        );
    }
}

#[test]
fn eq7_scaling_matches_output_counts() {
    let campaign = Campaign::paper();
    let r24 = SamplingRate::every_hours(24.0);
    let n24 = campaign
        .run(&PipelineConfig::paper(PipelineKind::InSitu, 24.0))
        .num_outputs;
    for (h, expect) in [(8.0, 540u64), (72.0, 60u64)] {
        let scaled = scale_image_count(n24, r24, SamplingRate::every_hours(h));
        assert_eq!(scaled, expect);
    }
}

#[test]
fn model_decomposition_matches_campaign_phases() {
    // The campaign's phase timeline and the model's Eq. 2/3 decomposition
    // agree on where the time goes.
    let campaign = Campaign::paper();
    let model = calibrate_exact(
        &[
            point(&campaign, PipelineKind::InSitu, 72.0),
            point(&campaign, PipelineKind::InSitu, 8.0),
            point(&campaign, PipelineKind::PostProcessing, 24.0),
        ],
        8640,
    )
    .expect("solvable");
    let m = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, 8.0));
    let (t_sim, t_io, t_viz) = model.decompose(8640, m.storage_gb(), m.num_outputs as f64);
    assert!((m.t_sim.as_secs_f64() - t_sim).abs() / t_sim < 0.01);
    assert!((m.t_io.as_secs_f64() - t_io).abs() / t_io < 0.03);
    assert!((m.t_viz.as_secs_f64() - t_viz).abs() / t_viz < 0.03);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Metamorphic Eq. 6/7: at a fixed spec, sampling k times as often
    /// stores exactly k times the bytes (and Eq. 6 predicts it from the
    /// coarse run), and multiplies the rate-dependent energy term — all
    /// of E except the simulation floor — by k, to 1e-12 relative.
    #[test]
    fn storage_and_energy_are_linear_in_rate(
        fine_h in 1u64..49,
        k in 1u64..65,
        coarse_outputs in 1u64..2_000,
        post in any::<bool>(),
    ) {
        let kind = if post { PipelineKind::PostProcessing } else { PipelineKind::InSitu };
        // Integral intervals and a duration both divide exactly, so each
        // output count is exact in f64: coarse N, fine k·N.
        let coarse_h = fine_h * k;
        let spec = ProblemSpec {
            duration_hours: (coarse_h * coarse_outputs) as f64,
            ..ProblemSpec::paper_60km()
        };
        let (fine, coarse) = (
            SamplingRate::every_hours(fine_h as f64),
            SamplingRate::every_hours(coarse_h as f64),
        );
        prop_assert_eq!(spec.num_outputs(fine), k * spec.num_outputs(coarse));

        let a = WhatIfAnalyzer::paper();
        let s_coarse = a.storage_bytes(kind, &spec, coarse);
        let s_fine = a.storage_bytes(kind, &spec, fine);
        prop_assert_eq!(s_fine, k * s_coarse);
        prop_assert_eq!(scale_storage_bytes(s_coarse, coarse, fine), s_fine);

        let floor = a.power.watts() * a.model.decompose(spec.total_steps(), 0.0, 0.0).0;
        let dynamic = |rate| a.energy(kind, &spec, rate).joules() - floor;
        let (e_coarse, e_fine) = (dynamic(coarse), dynamic(fine));
        let want = k as f64 * e_coarse;
        prop_assert!(
            (e_fine - want).abs() <= 1e-12 * want.abs(),
            "{} k={}: {} vs {} x {}", kind.label(), k, e_fine, k, e_coarse
        );
    }
}
