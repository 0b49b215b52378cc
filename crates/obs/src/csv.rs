//! CSV rows for per-phase energy attribution reports.
//!
//! These produce the same "header line + comma rows + trailing newline"
//! shape as the bench harness's figure exports, so `ivis-bench` can drop
//! them straight into its CSV output directory.

use std::fmt::Write as _;

use crate::energy::EnergyAttribution;

/// Header for multi-config per-phase energy tables.
pub const ENERGY_CSV_HEADER: &str = "config,phase,seconds,compute_j,storage_j,total_j";

/// Render one attribution as rows under [`ENERGY_CSV_HEADER`], labelled
/// with `config` (no header line; callers concatenate configs).
pub fn energy_csv_rows(config: &str, att: &EnergyAttribution) -> String {
    let mut out = String::new();
    for r in att.rows() {
        let _ = writeln!(
            out,
            "{config},{},{},{},{},{}",
            r.phase.label(),
            r.seconds,
            r.compute.joules(),
            r.storage.joules(),
            r.total().joules()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::attribute;
    use ivis_cluster::{JobPhase, PhaseRecord, PhaseTimeline};
    use ivis_power::meter::MeterSample;
    use ivis_power::profile::PowerProfile;
    use ivis_power::units::Watts;
    use ivis_sim::SimTime;

    #[test]
    fn energy_csv_rows_shape() {
        let profile = |w: f64| {
            PowerProfile::from_meter_samples(
                SimTime::ZERO,
                vec![MeterSample {
                    at: SimTime::from_secs(100),
                    avg: Watts(w),
                }],
            )
        };
        let mut tl = PhaseTimeline::new();
        tl.push(PhaseRecord {
            phase: JobPhase::Simulate,
            start: SimTime::ZERO,
            end: SimTime::from_secs(100),
        });
        let att = attribute(&tl, &profile(10.0), &profile(1.0));
        assert_eq!(
            energy_csv_rows("insitu-72h", &att),
            "insitu-72h,simulate,100,1000,100,1100\n"
        );
    }
}
