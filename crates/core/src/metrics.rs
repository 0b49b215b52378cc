//! The measured quantities of one pipeline run — the rows behind the
//! paper's Figs. 3, 5, 6 and 7.

use ivis_power::profile::PowerProfile;
use ivis_power::units::{Joules, Watts};
use ivis_sim::SimDuration;

use crate::config::PipelineKind;

/// Everything the instrumented run produces.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Pipeline flavor.
    pub kind: PipelineKind,
    /// Sampling interval in simulated hours.
    pub rate_hours: f64,
    /// Total execution time (Fig. 3).
    pub execution_time: SimDuration,
    /// Time in the simulation phase (the model's t_sim).
    pub t_sim: SimDuration,
    /// Time in I/O phases (the model's t_i/o).
    pub t_io: SimDuration,
    /// Time in visualization phases (the model's t_viz).
    pub t_viz: SimDuration,
    /// Bytes committed to the filesystem (Fig. 7).
    pub storage_bytes: u64,
    /// Output products written.
    pub num_outputs: u64,
    /// Compute-cluster power profile, from the cage meters (Fig. 4).
    pub compute_profile: PowerProfile,
    /// Storage-rack power profile, from the rack meter (Fig. 4).
    pub storage_profile: PowerProfile,
}

impl PipelineMetrics {
    /// Average compute power over the run (from the metered profile).
    pub fn avg_power_compute(&self) -> Watts {
        self.compute_profile.average_power()
    }

    /// Average storage power over the run.
    pub fn avg_power_storage(&self) -> Watts {
        self.storage_profile.average_power()
    }

    /// Average total power (Fig. 5: compute + storage).
    pub fn avg_power_total(&self) -> Watts {
        self.avg_power_compute() + self.avg_power_storage()
    }

    /// Total energy (Fig. 6): compute + storage, from the metered profiles.
    pub fn energy_total(&self) -> Joules {
        self.compute_profile.energy() + self.storage_profile.energy()
    }

    /// Storage footprint in GB (decimal, as the paper plots).
    pub fn storage_gb(&self) -> f64 {
        self.storage_bytes as f64 / 1e9
    }

    /// A replay-stability witness: every duration in exact microseconds,
    /// every metered energy as raw `f64` bits. Two runs with equal
    /// digests are bit-identical in everything the paper reports — this
    /// is what `tests/golden/executor_identity.txt` and the `BENCH_*.json`
    /// baselines pin.
    pub fn digest(&self) -> String {
        format!(
            "kind={} rate_mh={} exec_us={} t_sim_us={} t_io_us={} t_viz_us={} bytes={} outputs={} e_compute={:#x} e_storage={:#x}",
            self.kind.label(),
            // Exact millihours, so 0.5-hour rates stay integral.
            (self.rate_hours * 1000.0).round() as i64,
            self.execution_time.as_micros(),
            self.t_sim.as_micros(),
            self.t_io.as_micros(),
            self.t_viz.as_micros(),
            self.storage_bytes,
            self.num_outputs,
            self.compute_profile.energy().joules().to_bits(),
            self.storage_profile.energy().joules().to_bits(),
        )
    }

    /// A one-line report row.
    pub fn row(&self) -> String {
        format!(
            "{:<16} every {:>3} h | t={:>8.1} s (sim {:>7.1} io {:>7.1} viz {:>6.1}) | P={:>8.2} kW | E={:>8.2} MJ | S={:>9.3} GB",
            self.kind.label(),
            self.rate_hours,
            self.execution_time.as_secs_f64(),
            self.t_sim.as_secs_f64(),
            self.t_io.as_secs_f64(),
            self.t_viz.as_secs_f64(),
            self.avg_power_total().kilowatts(),
            self.energy_total().megajoules(),
            self.storage_gb(),
        )
    }
}

/// Percentage saving of `a` relative to `b`: `(b − a) / b × 100`.
///
/// A zero (or non-finite) baseline has no meaningful percentage — return
/// 0 % rather than the `inf`/`NaN` that would otherwise leak into every
/// downstream comparison row.
fn saving_pct(a: f64, b: f64) -> f64 {
    if b == 0.0 || !b.is_finite() || !a.is_finite() {
        return 0.0;
    }
    (b - a) / b * 100.0
}

/// In-situ vs post-processing comparison at one sampling rate — the
/// "51 % faster, 50 % less energy, 99.5 % less disk" numbers.
#[derive(Debug, Clone)]
pub struct PipelineComparison {
    /// Sampling interval, simulated hours.
    pub rate_hours: f64,
    /// Execution-time saving of in-situ over post-processing, percent.
    pub time_saving_pct: f64,
    /// Energy saving, percent.
    pub energy_saving_pct: f64,
    /// Storage reduction, percent.
    pub storage_reduction_pct: f64,
    /// Average-power difference (in-situ − post), watts.
    pub power_delta: Watts,
}

/// Compare an in-situ run against a post-processing run at the same rate.
///
/// # Panics
/// Panics if the runs' kinds or rates do not line up.
pub fn compare(insitu: &PipelineMetrics, post: &PipelineMetrics) -> PipelineComparison {
    assert_eq!(
        insitu.kind,
        PipelineKind::InSitu,
        "first arg must be in-situ"
    );
    assert_eq!(
        post.kind,
        PipelineKind::PostProcessing,
        "second arg must be post-processing"
    );
    assert!(
        (insitu.rate_hours - post.rate_hours).abs() < 1e-9,
        "sampling rates differ"
    );
    PipelineComparison {
        rate_hours: insitu.rate_hours,
        time_saving_pct: saving_pct(
            insitu.execution_time.as_secs_f64(),
            post.execution_time.as_secs_f64(),
        ),
        energy_saving_pct: saving_pct(insitu.energy_total().joules(), post.energy_total().joules()),
        storage_reduction_pct: saving_pct(insitu.storage_bytes as f64, post.storage_bytes as f64),
        power_delta: insitu.avg_power_total() - post.avg_power_total(),
    }
}

/// Derive the paper's model inputs from a run: `(t_sim_secs, s_io_gb,
/// n_viz)` — one calibration row of Eq. 5.
pub fn model_point(m: &PipelineMetrics) -> (f64, f64, f64) {
    (
        m.execution_time.as_secs_f64(),
        m.storage_gb(),
        m.num_outputs as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_power::meter::MeterSample;
    use ivis_sim::SimTime;

    fn profile(watts: f64, secs: u64) -> PowerProfile {
        PowerProfile::from_meter_samples(
            SimTime::ZERO,
            vec![MeterSample {
                at: SimTime::from_secs(secs),
                avg: Watts(watts),
            }],
        )
    }

    fn metrics(kind: PipelineKind, t: u64, bytes: u64, p: f64) -> PipelineMetrics {
        PipelineMetrics {
            kind,
            rate_hours: 8.0,
            execution_time: SimDuration::from_secs(t),
            t_sim: SimDuration::from_secs(t / 2),
            t_io: SimDuration::from_secs(t / 4),
            t_viz: SimDuration::from_secs(t / 4),
            storage_bytes: bytes,
            num_outputs: 540,
            compute_profile: profile(p, t),
            storage_profile: profile(2273.0, t),
        }
    }

    #[test]
    fn derived_metrics() {
        let m = metrics(PipelineKind::InSitu, 1000, 600_000_000, 44_000.0);
        assert_eq!(m.avg_power_compute(), Watts(44_000.0));
        assert_eq!(m.avg_power_total(), Watts(46_273.0));
        assert!((m.energy_total().joules() - 46_273_000.0).abs() < 1.0);
        assert!((m.storage_gb() - 0.6).abs() < 1e-12);
        assert!(m.row().contains("in-situ"));
    }

    #[test]
    fn comparison_reproduces_headline_shape() {
        let insitu = metrics(PipelineKind::InSitu, 1261, 600_000_000, 44_000.0);
        let post = metrics(
            PipelineKind::PostProcessing,
            2573,
            230_000_000_000,
            44_000.0,
        );
        let c = compare(&insitu, &post);
        assert!(
            (c.time_saving_pct - 51.0).abs() < 1.0,
            "{}",
            c.time_saving_pct
        );
        assert!((c.energy_saving_pct - 51.0).abs() < 1.0);
        assert!(c.storage_reduction_pct > 99.5);
        assert!(c.power_delta.watts().abs() < 1.0);
    }

    #[test]
    fn saving_pct_guards_degenerate_baselines() {
        assert_eq!(saving_pct(50.0, 100.0), 50.0);
        assert_eq!(saving_pct(150.0, 100.0), -50.0);
        // Zero baseline: no sensible percentage, not inf/NaN.
        assert_eq!(saving_pct(10.0, 0.0), 0.0);
        assert_eq!(saving_pct(0.0, 0.0), 0.0);
        assert_eq!(saving_pct(10.0, f64::NAN), 0.0);
        assert_eq!(saving_pct(f64::INFINITY, 100.0), 0.0);
        // A zero-storage comparison flows through compare() finitely.
        let insitu = metrics(PipelineKind::InSitu, 100, 0, 1000.0);
        let mut post = metrics(PipelineKind::PostProcessing, 200, 0, 1000.0);
        post.rate_hours = 8.0;
        let c = compare(&insitu, &post);
        assert_eq!(c.storage_reduction_pct, 0.0);
        assert!(c.time_saving_pct.is_finite());
    }

    #[test]
    fn model_point_extraction() {
        let m = metrics(PipelineKind::InSitu, 676, 100_000_000, 44_000.0);
        let (t, s, n) = model_point(&m);
        assert_eq!(t, 676.0);
        assert!((s - 0.1).abs() < 1e-12);
        assert_eq!(n, 540.0);
    }

    #[test]
    #[should_panic(expected = "first arg must be in-situ")]
    fn compare_order_enforced() {
        let a = metrics(PipelineKind::PostProcessing, 1, 1, 1.0);
        let b = metrics(PipelineKind::PostProcessing, 1, 1, 1.0);
        let _ = compare(&a, &b);
    }
}
