//! Sensitivity analysis of the calibrated model.
//!
//! The what-if engine answers point questions; planners also want to know
//! *which knob matters*: if α (storage bandwidth) improved 2×, how much
//! faster does post-processing get? If β (render cost) doubled, does in-situ
//! still win? This module computes elasticities — the relative change of the
//! predicted time per relative change of each parameter.

use crate::perf::PerfModel;

/// Elasticities of the predicted execution time at a given workload point:
/// `∂ln t / ∂ln p` for each model parameter `p`. They sum to 1 for this
/// model (t is a sum of terms each linear in exactly one parameter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elasticities {
    /// Sensitivity to `t_sim_ref` (simulation speed).
    pub t_sim: f64,
    /// Sensitivity to `α` (storage bandwidth).
    pub alpha: f64,
    /// Sensitivity to `β` (render cost).
    pub beta: f64,
}

/// Elasticities of `t = scale·t_sim + α·S + β·N` at `(iter, s_gb, n)`.
pub fn elasticities(model: &PerfModel, iter: u64, s_gb: f64, n: f64) -> Elasticities {
    let (t_sim, t_io, t_viz) = model.decompose(iter, s_gb, n);
    let t = t_sim + t_io + t_viz;
    assert!(t > 0.0, "degenerate workload");
    Elasticities {
        t_sim: t_sim / t,
        alpha: t_io / t,
        beta: t_viz / t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticities_sum_to_one() {
        let m = PerfModel::paper();
        let e = elasticities(&m, 8640, 230.0, 540.0);
        assert!((e.t_sim + e.alpha + e.beta - 1.0).abs() < 1e-12);
        // Post @8h is I/O-dominated.
        assert!(e.alpha > e.t_sim && e.alpha > e.beta, "{e:?}");
    }

    #[test]
    fn insitu_is_viz_and_sim_dominated() {
        let m = PerfModel::paper();
        let e = elasticities(&m, 8640, 0.6, 540.0);
        assert!(e.alpha < 0.01, "storage barely matters in-situ: {e:?}");
        assert!(e.beta > 0.4);
    }

    #[test]
    #[should_panic(expected = "degenerate workload")]
    fn zero_workload_rejected() {
        let m = PerfModel {
            t_sim_ref: 0.0,
            iter_ref: 1,
            alpha: 1.0,
            beta: 1.0,
        };
        let _ = elasticities(&m, 0, 0.0, 0.0);
    }
}
