//! Model calibration from measured runs (Eq. 5).
//!
//! Three measured configurations give an exact 3×3 solve for
//! `(t_sim, α, β)`; more give a least-squares fit. Inputs are
//! `(t_seconds, s_io_gb, n_viz)` triples, all taken at the *reference*
//! iteration count.

use crate::linalg::{least_squares, solve, LinalgError};
use crate::perf::PerfModel;

/// One measured configuration at the reference iteration count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Measured execution time, seconds.
    pub t_seconds: f64,
    /// Data written, GB (decimal).
    pub s_io_gb: f64,
    /// Image sets produced.
    pub n_viz: f64,
}

impl CalibrationPoint {
    /// Convenience constructor.
    pub fn new(t_seconds: f64, s_io_gb: f64, n_viz: f64) -> Self {
        CalibrationPoint {
            t_seconds,
            s_io_gb,
            n_viz,
        }
    }
}

/// The paper's three calibration rows (Eq. 5): in-situ @72 h, in-situ @8 h,
/// post-processing @24 h.
#[cfg(test)]
pub(crate) fn paper_points() -> [CalibrationPoint; 3] {
    [
        CalibrationPoint::new(676.0, 0.1, 60.0),
        CalibrationPoint::new(1261.0, 0.6, 540.0),
        CalibrationPoint::new(1322.0, 80.0, 180.0),
    ]
}

fn design(points: &[CalibrationPoint]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let a = points
        .iter()
        .map(|p| vec![1.0, p.s_io_gb, p.n_viz])
        .collect();
    let b = points.iter().map(|p| p.t_seconds).collect();
    (a, b)
}

fn model_from(x: &[f64], iter_ref: u64) -> PerfModel {
    PerfModel {
        t_sim_ref: x[0],
        iter_ref,
        alpha: x[1],
        beta: x[2],
    }
}

/// Exact calibration from exactly three points (the paper's linear solver).
pub fn calibrate_exact(
    points: &[CalibrationPoint; 3],
    iter_ref: u64,
) -> Result<PerfModel, LinalgError> {
    let (a, b) = design(points);
    Ok(model_from(&solve(&a, &b)?, iter_ref))
}

/// Least-squares calibration from three or more points (the paper's
/// "alternatively, regression techniques may be used").
pub fn calibrate_least_squares(
    points: &[CalibrationPoint],
    iter_ref: u64,
) -> Result<PerfModel, LinalgError> {
    let (a, b) = design(points);
    Ok(model_from(&least_squares(&a, &b)?, iter_ref))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_recovers_published_constants() {
        let model = calibrate_exact(&paper_points(), 8640).unwrap();
        assert!(
            (model.t_sim_ref - 603.0).abs() < 2.0,
            "t_sim = {}",
            model.t_sim_ref
        );
        assert!((model.alpha - 6.3).abs() < 0.15, "alpha = {}", model.alpha);
        assert!((model.beta - 1.2).abs() < 0.05, "beta = {}", model.beta);
    }

    #[test]
    fn exact_calibration_interpolates_its_inputs() {
        let pts = paper_points();
        let model = calibrate_exact(&pts, 8640).unwrap();
        for p in &pts {
            let pred = model.predict_seconds(8640, p.s_io_gb, p.n_viz);
            assert!(
                (pred - p.t_seconds).abs() < 1e-6,
                "exact fit must pass through inputs"
            );
        }
    }

    #[test]
    fn least_squares_equals_exact_for_three_points() {
        let pts = paper_points();
        let a = calibrate_exact(&pts, 8640).unwrap();
        let b = calibrate_least_squares(&pts, 8640).unwrap();
        assert!((a.t_sim_ref - b.t_sim_ref).abs() < 1e-6);
        assert!((a.alpha - b.alpha).abs() < 1e-9);
        assert!((a.beta - b.beta).abs() < 1e-9);
    }

    #[test]
    fn least_squares_handles_redundant_noisy_points() {
        // Generate from a known model, add ±0.5 s alternating noise.
        let truth = PerfModel {
            t_sim_ref: 600.0,
            iter_ref: 8640,
            alpha: 6.0,
            beta: 1.0,
        };
        let mut pts = Vec::new();
        for (i, &(s, n)) in [
            (0.1, 60.0),
            (0.6, 540.0),
            (80.0, 180.0),
            (230.0, 540.0),
            (26.6, 60.0),
            (0.2, 180.0),
        ]
        .iter()
        .enumerate()
        {
            let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
            pts.push(CalibrationPoint::new(
                truth.predict_seconds(8640, s, n) + noise,
                s,
                n,
            ));
        }
        let fit = calibrate_least_squares(&pts, 8640).unwrap();
        assert!((fit.t_sim_ref - 600.0).abs() < 2.0);
        assert!((fit.alpha - 6.0).abs() < 0.05);
        assert!((fit.beta - 1.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_points_rejected() {
        // Three identical rows are singular.
        let p = CalibrationPoint::new(100.0, 1.0, 1.0);
        assert!(calibrate_exact(&[p, p, p], 8640).is_err());
    }
}
