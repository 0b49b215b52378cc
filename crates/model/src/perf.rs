//! Eqs. 2–4: the performance model. Energy (Eq. 1) is its time times the
//! pipeline-independent average power; the what-if layer applies it.

/// The calibrated performance model (Eq. 4):
/// `t = (iter_any / iter_ref) · t_sim_ref + α·S_io + β·N_viz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Simulation-phase seconds in the reference run.
    pub t_sim_ref: f64,
    /// Timesteps in the reference run.
    pub iter_ref: u64,
    /// Seconds to read/write 1 GB (decimal) — the paper's α.
    pub alpha: f64,
    /// Seconds to produce one image set — the paper's β.
    pub beta: f64,
}

impl PerfModel {
    /// The paper's published calibration: t_sim = 603 s for 8640 steps,
    /// α = 6.3 s/GB, β = 1.2 s/image.
    pub fn paper() -> Self {
        PerfModel {
            t_sim_ref: 603.0,
            iter_ref: 8_640,
            alpha: 6.3,
            beta: 1.2,
        }
    }

    /// Predicted execution time (seconds) for a run with `iter_any`
    /// timesteps writing `s_io_gb` GB and producing `n_viz` image sets
    /// (Eq. 4).
    pub fn predict_seconds(&self, iter_any: u64, s_io_gb: f64, n_viz: f64) -> f64 {
        assert!(s_io_gb >= 0.0 && n_viz >= 0.0, "negative workload");
        let scale = iter_any as f64 / self.iter_ref as f64;
        scale * self.t_sim_ref + self.alpha * s_io_gb + self.beta * n_viz
    }

    /// The three-way decomposition (Eq. 2/3) of a prediction:
    /// `(t_sim, t_io, t_viz)` seconds.
    pub fn decompose(&self, iter_any: u64, s_io_gb: f64, n_viz: f64) -> (f64, f64, f64) {
        (
            iter_any as f64 / self.iter_ref as f64 * self.t_sim_ref,
            self.alpha * s_io_gb,
            self.beta * n_viz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_reproduces_eq5_rows() {
        let m = PerfModel::paper();
        // in-situ @72h: 0.1 GB, 60 images → 676 s.
        assert!((m.predict_seconds(8640, 0.1, 60.0) - 675.6).abs() < 1.0);
        // in-situ @8h: 0.6 GB, 540 images → 1255 s (measured 1261).
        assert!((m.predict_seconds(8640, 0.6, 540.0) - 1254.8).abs() < 1.0);
        // post @24h: 80 GB, 180 images → 1323 s (measured 1322).
        assert!((m.predict_seconds(8640, 80.0, 180.0) - 1323.0).abs() < 1.0);
    }

    #[test]
    fn simulation_scales_with_iterations() {
        let m = PerfModel::paper();
        let six_months = m.predict_seconds(8640, 0.0, 0.0);
        let hundred_years = m.predict_seconds(1_752_000, 0.0, 0.0);
        assert!((six_months - 603.0).abs() < 1e-9);
        assert!((hundred_years / six_months - 1_752_000.0 / 8_640.0).abs() < 1e-9);
    }

    #[test]
    fn decomposition_sums_to_prediction() {
        let m = PerfModel::paper();
        let (s, io, viz) = m.decompose(8640, 80.0, 180.0);
        assert!((s + io + viz - m.predict_seconds(8640, 80.0, 180.0)).abs() < 1e-9);
        assert!((io - 504.0).abs() < 1e-9);
        assert!((viz - 216.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative workload")]
    fn negative_inputs_rejected() {
        let _ = PerfModel::paper().predict_seconds(1, -1.0, 0.0);
    }
}
