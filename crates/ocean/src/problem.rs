//! The paper's problem specification and derived quantities.
//!
//! Direct measurements in the paper use: a **60 km** global ocean grid, a
//! **half-hour** timestep, **six simulated months** of integration, and
//! output sampling every **8, 24 or 72 simulated hours**. The what-if
//! analyses extrapolate to **100 simulated years**. This module captures
//! those knobs and the byte/count arithmetic derived from them.

/// Simulated hours in the paper's six-month measurement runs
/// (180 days × 24 h).
pub(crate) const SIX_MONTHS_HOURS: f64 = 4_320.0;

/// Simulated hours in the 100-year what-if scenario (365-day years).
pub(crate) const HUNDRED_YEARS_HOURS: f64 = 876_000.0;

/// How often output products (raw data or images) are written, in simulated
/// hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SamplingRate {
    /// Simulated hours between consecutive outputs.
    pub every_hours: f64,
}

impl SamplingRate {
    /// Output every `h` simulated hours.
    ///
    /// # Panics
    /// Panics if `h` is not positive.
    pub fn every_hours(h: f64) -> Self {
        assert!(
            h > 0.0 && h.is_finite(),
            "sampling interval must be positive"
        );
        SamplingRate { every_hours: h }
    }

    /// Output once per simulated day.
    pub fn daily() -> Self {
        SamplingRate::every_hours(24.0)
    }

    /// Number of outputs over `duration_hours` of simulated time.
    pub(crate) fn outputs_over(&self, duration_hours: f64) -> u64 {
        (duration_hours / self.every_hours).floor() as u64
    }

    /// Relative rate versus another sampling rate (Eq. 6/7 of the paper:
    /// counts scale as `rate_any / rate_ref`).
    pub fn relative_to(&self, reference: SamplingRate) -> f64 {
        reference.every_hours / self.every_hours
    }
}

/// The coupled-simulation problem the pipelines run.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// Nominal grid spacing, km (descriptive).
    pub grid_km: f64,
    /// Horizontal cells in the mesh.
    pub num_cells: u64,
    /// Vertical levels.
    pub num_levels: u32,
    /// Variables written per raw output.
    pub output_vars: u32,
    /// Simulated minutes per timestep.
    pub step_minutes: f64,
    /// Total simulated hours.
    pub duration_hours: f64,
}

impl ProblemSpec {
    /// The paper's measured configuration: 60 km grid, half-hour steps, six
    /// simulated months. Cell/level/variable counts are set so one raw
    /// output encodes to ≈426 MB — the size implied by the paper's Fig. 7
    /// (230 GB for 540 outputs at the 8-hour rate).
    pub fn paper_60km() -> Self {
        ProblemSpec {
            grid_km: 60.0,
            num_cells: 665_509,
            num_levels: 40,
            output_vars: 2,
            step_minutes: 30.0,
            duration_hours: SIX_MONTHS_HOURS,
        }
    }

    /// The 100-year what-if configuration (same mesh, longer run).
    pub fn paper_100yr() -> Self {
        ProblemSpec {
            duration_hours: HUNDRED_YEARS_HOURS,
            ..ProblemSpec::paper_60km()
        }
    }

    /// Total timesteps in the run.
    pub fn total_steps(&self) -> u64 {
        (self.duration_hours * 60.0 / self.step_minutes).round() as u64
    }

    /// Timesteps between consecutive outputs at `rate`.
    pub fn steps_per_output(&self, rate: SamplingRate) -> u64 {
        (rate.every_hours * 60.0 / self.step_minutes)
            .round()
            .max(1.0) as u64
    }

    /// Number of outputs at `rate`.
    pub fn num_outputs(&self, rate: SamplingRate) -> u64 {
        rate.outputs_over(self.duration_hours)
    }

    /// Bytes of one raw (netCDF-style) output:
    /// `cells × levels × vars × 8 B` plus a small header allowance.
    ///
    /// # Panics
    /// Panics if the size does not fit `u64`; see
    /// [`checked_raw_output_bytes`](Self::checked_raw_output_bytes).
    pub fn raw_output_bytes(&self) -> u64 {
        self.checked_raw_output_bytes()
            .expect("raw output size overflows u64")
    }

    /// [`raw_output_bytes`](Self::raw_output_bytes), or `None` if it does
    /// not fit `u64`.
    pub fn checked_raw_output_bytes(&self) -> Option<u64> {
        self.num_cells
            .checked_mul(u64::from(self.num_levels))?
            .checked_mul(u64::from(self.output_vars))?
            .checked_mul(8)?
            .checked_add(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Raw bytes a post-processing run writes at `rate` (Fig. 7).
    fn total_raw_bytes(spec: &ProblemSpec, rate: SamplingRate) -> u64 {
        spec.num_outputs(rate) * spec.raw_output_bytes()
    }

    #[test]
    fn paper_step_and_output_counts() {
        let spec = ProblemSpec::paper_60km();
        assert_eq!(spec.total_steps(), 8_640); // 180 days × 48 steps/day
        let [r8, r24, r72] = [8.0, 24.0, 72.0].map(SamplingRate::every_hours);
        assert_eq!(spec.num_outputs(r8), 540);
        assert_eq!(spec.num_outputs(r24), 180);
        assert_eq!(spec.num_outputs(r72), 60);
        assert_eq!(spec.steps_per_output(r8), 16);
        assert_eq!(spec.steps_per_output(r72), 144);
    }

    #[test]
    fn raw_output_size_matches_fig7() {
        let spec = ProblemSpec::paper_60km();
        let per_output_gb = spec.raw_output_bytes() as f64 / 1e9;
        // 230 GB / 540 outputs ≈ 0.4259 GB.
        assert!(
            (per_output_gb - 0.42593).abs() < 0.002,
            "per-output = {per_output_gb} GB"
        );
        let total_gb = total_raw_bytes(&spec, SamplingRate::every_hours(8.0)) as f64 / 1e9;
        assert!((total_gb - 230.0).abs() < 1.0, "total = {total_gb} GB");
    }

    #[test]
    fn fig7_other_rates() {
        let spec = ProblemSpec::paper_60km();
        let gb24 = total_raw_bytes(&spec, SamplingRate::every_hours(24.0)) as f64 / 1e9;
        let gb72 = total_raw_bytes(&spec, SamplingRate::every_hours(72.0)) as f64 / 1e9;
        // Paper: ~80 GB and ~27 GB.
        assert!((gb24 - 76.7).abs() < 4.0, "24h total = {gb24}");
        assert!((gb72 - 25.6).abs() < 2.0, "72h total = {gb72}");
    }

    #[test]
    fn hundred_year_run_counts() {
        let spec = ProblemSpec::paper_100yr();
        assert_eq!(spec.num_outputs(SamplingRate::daily()), 36_500);
        assert_eq!(spec.total_steps(), 1_752_000);
    }

    #[test]
    fn sampling_rate_relative_scaling() {
        let r8 = SamplingRate::every_hours(8.0);
        let r24 = SamplingRate::every_hours(24.0);
        // Sampling every 8 h is 3× the rate of every 24 h.
        assert!((r8.relative_to(r24) - 3.0).abs() < 1e-12);
        assert!((r24.relative_to(r8) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn storage_scales_linearly_with_rate() {
        // Eq. 6: doubling the rate doubles the bytes.
        let spec = ProblemSpec::paper_60km();
        let s12 = total_raw_bytes(&spec, SamplingRate::every_hours(12.0));
        let s24 = total_raw_bytes(&spec, SamplingRate::every_hours(24.0));
        assert_eq!(s12, 2 * s24);
    }

    #[test]
    fn checked_raw_output_bytes_is_none_past_u64() {
        let spec = ProblemSpec::paper_60km();
        assert_eq!(
            spec.checked_raw_output_bytes(),
            Some(spec.raw_output_bytes())
        );
        let huge = ProblemSpec {
            num_cells: u64::MAX / 8,
            ..spec
        };
        assert_eq!(huge.checked_raw_output_bytes(), None);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let _ = SamplingRate::every_hours(0.0);
    }
}
