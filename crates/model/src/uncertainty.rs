//! Uncertainty quantification for the calibrated model.
//!
//! The paper reports point estimates (t_sim = 603, α = 6.3, β = 1.2) from
//! one set of measurements. Real meters are noisy; this module propagates
//! that noise through the calibration by parametric bootstrap: re-sample the
//! measured times with the meter's noise level, re-solve Eq. 5, and report
//! percentile intervals on the constants and on downstream what-if
//! predictions. This answers "how many digits of the paper's constants are
//! meaningful?" — a question the paper leaves open.

use ivis_sim::stats::percentile;
use ivis_sim::SimRng;

use crate::calibrate::{calibrate_exact, CalibrationPoint};

/// A percentile interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Point estimate (from the unperturbed fit).
    pub point: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Whether `x` lies inside the interval.
    #[cfg(test)]
    fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Half-width relative to the point estimate.
    #[cfg(test)]
    fn rel_halfwidth(&self) -> f64 {
        (self.hi - self.lo) / 2.0 / self.point.abs()
    }
}

/// Bootstrap result for the three calibration constants.
#[derive(Debug, Clone)]
pub struct CalibrationUncertainty {
    /// Simulation-time constant, seconds.
    pub t_sim: Interval,
    /// α, s/GB.
    pub alpha: Interval,
    /// β, s/image.
    pub beta: Interval,
    /// Bootstrap replicates that produced a solvable system.
    pub replicates: usize,
}

fn interval(mut samples: Vec<f64>, point: f64, level: f64) -> Interval {
    // A NaN replicate is a degenerate perturbed fit; drop it like the
    // singular systems `calibrate_exact` already rejects, rather than
    // letting it poison both bounds.
    samples.retain(|x| !x.is_nan());
    let tail = (1.0 - level) / 2.0;
    match (percentile(&samples, tail), percentile(&samples, 1.0 - tail)) {
        (Some(lo), Some(hi)) => Interval { lo, point, hi },
        // No usable replicates: degrade to a zero-width interval at the
        // point estimate instead of panicking.
        _ => Interval {
            lo: point,
            point,
            hi: point,
        },
    }
}

/// Parametric bootstrap of the Eq. 5 calibration.
///
/// Each replicate perturbs every measured time by multiplicative Gaussian
/// noise with relative std-dev `noise_rel`, re-solves the 3×3 system, and
/// collects the constants. `level` is the confidence level (e.g. 0.95).
///
/// # Panics
/// Panics if inputs are degenerate (no replicates, bad level).
pub fn bootstrap_calibration(
    points: &[CalibrationPoint; 3],
    iter_ref: u64,
    noise_rel: f64,
    replicates: usize,
    level: f64,
    seed: u64,
) -> CalibrationUncertainty {
    assert!(replicates >= 10, "need a sensible replicate count");
    assert!((0.5..1.0).contains(&level), "level must be in [0.5, 1)");
    assert!(noise_rel >= 0.0, "noise must be non-negative");
    let point_fit = calibrate_exact(points, iter_ref).expect("base calibration must be solvable");
    let mut rng = SimRng::new(seed);
    let mut t_sims = Vec::with_capacity(replicates);
    let mut alphas = Vec::with_capacity(replicates);
    let mut betas = Vec::with_capacity(replicates);
    for _ in 0..replicates {
        let perturbed = [
            perturb(points[0], &mut rng, noise_rel),
            perturb(points[1], &mut rng, noise_rel),
            perturb(points[2], &mut rng, noise_rel),
        ];
        if let Ok(fit) = calibrate_exact(&perturbed, iter_ref) {
            t_sims.push(fit.t_sim_ref);
            alphas.push(fit.alpha);
            betas.push(fit.beta);
        }
    }
    let n = t_sims.len();
    assert!(n >= replicates / 2, "too many singular replicates");
    CalibrationUncertainty {
        t_sim: interval(t_sims, point_fit.t_sim_ref, level),
        alpha: interval(alphas, point_fit.alpha, level),
        beta: interval(betas, point_fit.beta, level),
        replicates: n,
    }
}

fn perturb(p: CalibrationPoint, rng: &mut SimRng, noise_rel: f64) -> CalibrationPoint {
    CalibrationPoint {
        t_seconds: p.t_seconds * rng.noise_factor(noise_rel),
        ..p
    }
}

/// Propagate calibration uncertainty into a what-if prediction: the interval
/// on the predicted execution time at `(iter, s_gb, n_viz)` under the same
/// bootstrap.
#[allow(clippy::too_many_arguments)]
pub fn bootstrap_prediction(
    points: &[CalibrationPoint; 3],
    iter_ref: u64,
    noise_rel: f64,
    replicates: usize,
    level: f64,
    seed: u64,
    iter: u64,
    s_gb: f64,
    n_viz: f64,
) -> Interval {
    let point_fit = calibrate_exact(points, iter_ref).expect("base calibration must be solvable");
    let mut rng = SimRng::new(seed);
    let mut preds = Vec::with_capacity(replicates);
    for _ in 0..replicates {
        let perturbed = [
            perturb(points[0], &mut rng, noise_rel),
            perturb(points[1], &mut rng, noise_rel),
            perturb(points[2], &mut rng, noise_rel),
        ];
        if let Ok(fit) = calibrate_exact(&perturbed, iter_ref) {
            preds.push(fit.predict_seconds(iter, s_gb, n_viz));
        }
    }
    interval(preds, point_fit.predict_seconds(iter, s_gb, n_viz), level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::paper_points;

    /// Uncertainty of the paper's own calibration at its meter noise
    /// level (±0.3 %).
    fn paper_uncertainty() -> CalibrationUncertainty {
        bootstrap_calibration(&paper_points(), 8_640, 0.003, 400, 0.95, 0xB007)
    }

    #[test]
    fn intervals_cover_the_point_estimates() {
        let u = paper_uncertainty();
        assert!(u.t_sim.contains(u.t_sim.point));
        assert!(u.alpha.contains(u.alpha.point));
        assert!(u.beta.contains(u.beta.point));
        assert!(u.replicates >= 200);
    }

    #[test]
    fn paper_constants_are_well_determined_except_alpha_tail() {
        // 0.3 % time noise: t_sim and β are tightly pinned (they dominate
        // two equations each); α is looser because only one calibration
        // point carries real I/O volume.
        let u = paper_uncertainty();
        assert!(
            u.t_sim.rel_halfwidth() < 0.02,
            "t_sim ± {:.3}",
            u.t_sim.rel_halfwidth()
        );
        assert!(
            u.beta.rel_halfwidth() < 0.05,
            "beta ± {:.3}",
            u.beta.rel_halfwidth()
        );
        assert!(
            u.alpha.rel_halfwidth() < 0.10,
            "alpha ± {:.3}",
            u.alpha.rel_halfwidth()
        );
        // And the paper's published constants fall inside the intervals.
        assert!(u.t_sim.contains(603.0));
        assert!(u.alpha.contains(6.3));
        assert!(u.beta.contains(1.2));
    }

    #[test]
    fn zero_noise_collapses_the_interval() {
        let u = bootstrap_calibration(&paper_points(), 8_640, 0.0, 50, 0.95, 1);
        assert!(u.alpha.hi - u.alpha.lo < 1e-9);
        assert!(u.t_sim.hi - u.t_sim.lo < 1e-9);
    }

    #[test]
    fn more_noise_widens_intervals() {
        let narrow = bootstrap_calibration(&paper_points(), 8_640, 0.002, 300, 0.95, 7);
        let wide = bootstrap_calibration(&paper_points(), 8_640, 0.02, 300, 0.95, 7);
        assert!(
            wide.alpha.rel_halfwidth() > 2.0 * narrow.alpha.rel_halfwidth(),
            "wide {} vs narrow {}",
            wide.alpha.rel_halfwidth(),
            narrow.alpha.rel_halfwidth()
        );
    }

    #[test]
    fn prediction_interval_brackets_post_8h() {
        // Predict the held-out post @8 h configuration with uncertainty.
        let iv = bootstrap_prediction(
            &paper_points(),
            8_640,
            0.003,
            300,
            0.95,
            42,
            8_640,
            230.0,
            540.0,
        );
        assert!(iv.contains(iv.point));
        // The model's point prediction is ~2700 s; the interval must be a
        // few percent wide, not degenerate and not huge.
        assert!((iv.point - 2700.0).abs() < 15.0);
        assert!(iv.rel_halfwidth() > 0.001 && iv.rel_halfwidth() < 0.15);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = bootstrap_calibration(&paper_points(), 8_640, 0.005, 100, 0.9, 3);
        let b = bootstrap_calibration(&paper_points(), 8_640, 0.005, 100, 0.9, 3);
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.t_sim, b.t_sim);
    }

    #[test]
    #[should_panic(expected = "sensible replicate count")]
    fn tiny_replicate_count_rejected() {
        let _ = bootstrap_calibration(&paper_points(), 8_640, 0.01, 2, 0.95, 0);
    }

    #[test]
    fn nan_replicates_are_dropped_not_poisonous() {
        // One poisoned replicate used to panic the sort (and, before
        // that, silently corrupt both bounds). Now it is filtered and
        // the interval comes from the surviving finite samples.
        let iv = interval(vec![1.0, f64::NAN, 2.0, 3.0, 4.0], 2.5, 0.5);
        assert!(iv.lo.is_finite() && iv.hi.is_finite());
        assert!(iv.lo >= 1.0 && iv.hi <= 4.0 && iv.lo <= iv.hi);
    }

    #[test]
    fn all_nan_replicates_degrade_to_point() {
        let iv = interval(vec![f64::NAN, f64::NAN], 7.0, 0.95);
        assert_eq!((iv.lo, iv.point, iv.hi), (7.0, 7.0, 7.0));
    }

    mod interval_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `interval` is total over arbitrary replicate vectors: it
            /// never panics and, whenever at least one finite sample
            /// survives, returns ordered finite-or-infinite bounds.
            #[test]
            fn interval_total_over_arbitrary_floats(
                xs in prop::collection::vec(
                    prop_oneof![
                        any::<f64>(),
                        (0u8..1).prop_map(|_| f64::NAN),
                    ],
                    0..32,
                ),
                level in 0.5f64..0.99,
            ) {
                let iv = interval(xs.clone(), 1.0, level);
                prop_assert!(!iv.lo.is_nan() && !iv.hi.is_nan());
                prop_assert!(iv.lo <= iv.hi, "lo {} > hi {}", iv.lo, iv.hi);
            }
        }
    }
}
