//! Per-phase energy attribution: the §VIII analysis as a first-class report.
//!
//! The paper's key observation about in-situ I/O is that the compute
//! nodes' busy-wait during writes keeps rack power near its compute level,
//! so "I/O time" is charged energy at close to full power. Attribution
//! makes that visible: it joins a [`PhaseTimeline`] against the compute
//! and storage [`PowerProfile`]s, integrating each profile over each phase
//! record's window with [`PowerProfile::energy_between`]. Because the
//! timeline tiles the profile window and `energy_between` clips exactly,
//! the attributed joules sum back to the metered totals (conservation).

use ivis_cluster::{JobPhase, PhaseTimeline};
use ivis_power::profile::PowerProfile;
use ivis_power::units::Joules;
use ivis_sim::SimTime;

/// Canonical phase ordering used by reports.
pub(crate) const PHASE_ORDER: [JobPhase; 5] = [
    JobPhase::Simulate,
    JobPhase::WriteOutput,
    JobPhase::Visualize,
    JobPhase::ReadInput,
    JobPhase::Idle,
];

/// Energy charged to one job phase, split by subsystem.
#[derive(Debug, Clone, Copy)]
pub struct PhaseEnergy {
    /// The phase being charged.
    pub phase: JobPhase,
    /// Total seconds the campaign spent in this phase.
    pub seconds: f64,
    /// Compute-cluster energy during this phase.
    pub compute: Joules,
    /// Storage-rack energy during this phase.
    pub storage: Joules,
}

impl PhaseEnergy {
    /// Compute plus storage energy for this phase.
    pub(crate) fn total(&self) -> Joules {
        self.compute + self.storage
    }
}

/// The per-phase energy report for one pipeline run.
#[derive(Debug, Clone)]
pub struct EnergyAttribution {
    rows: Vec<PhaseEnergy>,
    window: (SimTime, SimTime),
    metered_compute: Joules,
    metered_storage: Joules,
}

impl EnergyAttribution {
    /// Rows in [`PHASE_ORDER`]; phases the run never entered are omitted.
    pub(crate) fn rows(&self) -> &[PhaseEnergy] {
        &self.rows
    }

    /// The row for `phase`, if the run entered it.
    pub fn get(&self, phase: JobPhase) -> Option<&PhaseEnergy> {
        self.rows.iter().find(|r| r.phase == phase)
    }

    /// Sum of attributed compute energy across phases.
    pub(crate) fn attributed_compute(&self) -> Joules {
        self.rows.iter().map(|r| r.compute).sum()
    }

    /// Sum of attributed storage energy across phases.
    pub(crate) fn attributed_storage(&self) -> Joules {
        self.rows.iter().map(|r| r.storage).sum()
    }

    /// Sum of all attributed energy.
    pub fn attributed_total(&self) -> Joules {
        self.attributed_compute() + self.attributed_storage()
    }

    /// Total energy the meters reported (compute + storage profiles).
    pub(crate) fn metered_total(&self) -> Joules {
        self.metered_compute + self.metered_storage
    }

    /// Metered minus attributed energy — profile energy falling outside
    /// the timeline. Zero (up to float summation order) when the timeline
    /// covers the whole profile window.
    pub fn residual(&self) -> Joules {
        self.metered_total() - self.attributed_total()
    }

    /// Fraction of all attributed energy charged to `phase` (0 if absent
    /// or if nothing was attributed).
    pub(crate) fn share(&self, phase: JobPhase) -> f64 {
        let total = self.attributed_total().joules();
        if total <= 0.0 {
            return 0.0;
        }
        self.get(phase).map_or(0.0, |r| r.total().joules() / total)
    }

    /// Render the report as a fixed-width ASCII table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12} {:>14} {:>14} {:>14} {:>7}\n",
            "phase", "seconds", "compute_j", "storage_j", "total_j", "share"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>12.1} {:>14.1} {:>14.1} {:>14.1} {:>6.1}%\n",
                r.phase.label(),
                r.seconds,
                r.compute.joules(),
                r.storage.joules(),
                r.total().joules(),
                100.0 * self.share(r.phase)
            ));
        }
        let dur = (self.window.1 - self.window.0).as_secs_f64();
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>14.1} {:>14.1} {:>14.1} {:>6.1}%\n",
            "total",
            dur,
            self.attributed_compute().joules(),
            self.attributed_storage().joules(),
            self.attributed_total().joules(),
            100.0
        ));
        out
    }
}

/// Join `timeline` against the compute and storage profiles, producing
/// joules by `JobPhase × {compute, storage}`.
pub fn attribute(
    timeline: &PhaseTimeline,
    compute: &PowerProfile,
    storage: &PowerProfile,
) -> EnergyAttribution {
    let mut acc: Vec<PhaseEnergy> = Vec::new();
    for rec in timeline.records() {
        let c = compute.energy_between(rec.start, rec.end);
        let s = storage.energy_between(rec.start, rec.end);
        let secs = rec.duration().as_secs_f64();
        match acc.iter_mut().find(|r| r.phase == rec.phase) {
            Some(row) => {
                row.seconds += secs;
                row.compute += c;
                row.storage += s;
            }
            None => acc.push(PhaseEnergy {
                phase: rec.phase,
                seconds: secs,
                compute: c,
                storage: s,
            }),
        }
    }
    acc.sort_by_key(|r| PHASE_ORDER.iter().position(|&p| p == r.phase));
    let window = timeline
        .records()
        .first()
        .map(|f| (f.start, timeline.records().last().unwrap().end))
        .unwrap_or((SimTime::ZERO, SimTime::ZERO));
    EnergyAttribution {
        rows: acc,
        window,
        metered_compute: compute.energy(),
        metered_storage: storage.energy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_cluster::PhaseRecord;
    use ivis_power::meter::MeterSample;
    use ivis_power::units::Watts;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn profile(samples: &[(u64, f64)]) -> PowerProfile {
        PowerProfile::from_meter_samples(
            SimTime::ZERO,
            samples
                .iter()
                .map(|&(at, w)| MeterSample {
                    at: t(at),
                    avg: Watts(w),
                })
                .collect(),
        )
    }

    fn timeline(recs: &[(JobPhase, u64, u64)]) -> PhaseTimeline {
        let mut tl = PhaseTimeline::new();
        for &(phase, start, end) in recs {
            tl.push(PhaseRecord {
                phase,
                start: t(start),
                end: t(end),
            });
        }
        tl
    }

    #[test]
    fn attribution_conserves_metered_energy() {
        // Compute: 100 W for 60 s then 300 W for 60 s; storage flat 50 W.
        let compute = profile(&[(60, 100.0), (120, 300.0)]);
        let storage = profile(&[(60, 50.0), (120, 50.0)]);
        let tl = timeline(&[
            (JobPhase::Simulate, 0, 40),
            (JobPhase::Visualize, 40, 70),
            (JobPhase::WriteOutput, 70, 120),
        ]);
        let att = attribute(&tl, &compute, &storage);
        assert_eq!(att.rows().len(), 3);
        let diff = att.residual().joules().abs();
        assert!(diff < 1e-6, "residual {diff}");
        // Visualize straddles the 60 s boundary: 20 s at 100 W + 10 s at 300 W.
        let viz = att.get(JobPhase::Visualize).unwrap();
        assert!((viz.compute.joules() - (20.0 * 100.0 + 10.0 * 300.0)).abs() < 1e-9);
        assert!((viz.storage.joules() - 30.0 * 50.0).abs() < 1e-9);
        assert!((viz.seconds - 30.0).abs() < 1e-12);
    }

    #[test]
    fn rows_follow_canonical_order_and_merge_repeats() {
        let compute = profile(&[(100, 10.0)]);
        let storage = profile(&[(100, 1.0)]);
        let tl = timeline(&[
            (JobPhase::Simulate, 0, 20),
            (JobPhase::WriteOutput, 20, 40),
            (JobPhase::Simulate, 40, 80),
            (JobPhase::Idle, 80, 100),
        ]);
        let att = attribute(&tl, &compute, &storage);
        let phases: Vec<JobPhase> = att.rows().iter().map(|r| r.phase).collect();
        assert_eq!(
            phases,
            [JobPhase::Simulate, JobPhase::WriteOutput, JobPhase::Idle]
        );
        let sim = att.get(JobPhase::Simulate).unwrap();
        assert!((sim.seconds - 60.0).abs() < 1e-12);
        assert!((sim.compute.joules() - 600.0).abs() < 1e-9);
        assert!((att.share(JobPhase::Simulate) - 600.0 * 1.1 / 1100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_attributes_nothing() {
        let compute = profile(&[(10, 100.0)]);
        let storage = profile(&[(10, 10.0)]);
        let att = attribute(&PhaseTimeline::new(), &compute, &storage);
        assert!(att.rows().is_empty());
        assert_eq!(att.attributed_total(), Joules::ZERO);
        assert!((att.residual().joules() - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_a_fixed_width_table() {
        let compute = profile(&[(100, 10.0)]);
        let storage = profile(&[(100, 1.0)]);
        let tl = timeline(&[(JobPhase::Simulate, 0, 100)]);
        let s = attribute(&tl, &compute, &storage).render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("phase"));
        assert!(lines[1].starts_with("simulate"));
        assert!(lines[2].starts_with("total"));
    }
}
