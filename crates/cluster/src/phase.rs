//! Workload phases of a coupled simulation + visualization job.
//!
//! The pipelines in the paper move the whole machine through a small set of
//! phases; each phase has a characteristic component-utilization signature
//! that the power model converts into watts. The key modeling decision —
//! taken straight from the paper's measurements — is how **I/O wait** is
//! treated: on *Caddy*, ranks blocked in PIO/MPI collectives busy-wait, so
//! compute power barely drops during writes. [`IoWaitPolicy`] makes that
//! choice explicit so the §VIII ablation ("put CPUs in a low-power state
//! during I/O") can be evaluated.

use ivis_power::node::NodeLoad;
use ivis_sim::{SimDuration, SimTime};

/// What the compute nodes do while waiting on storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoWaitPolicy {
    /// Ranks spin in the MPI/PIO progress engine (what the paper measured).
    #[default]
    BusyWait,
    /// CPUs drop to a deep idle state during I/O (the paper's §VIII
    /// hypothetical improvement).
    DeepIdle,
}

/// A phase of a coupled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobPhase {
    /// Time-stepping the ocean model (compute-bound).
    Simulate,
    /// Writing output (raw data or images) to the parallel filesystem;
    /// compute ranks wait per the [`IoWaitPolicy`].
    WriteOutput,
    /// Rendering images (in-situ on the same nodes, or post-hoc).
    Visualize,
    /// Reading raw data back for post-processing visualization.
    ReadInput,
    /// Nothing scheduled (machine idle).
    Idle,
}

impl JobPhase {
    /// Every phase, in declaration order: `ALL[p.index()] == p`.
    pub(crate) const ALL: [JobPhase; 5] = [
        JobPhase::Simulate,
        JobPhase::WriteOutput,
        JobPhase::Visualize,
        JobPhase::ReadInput,
        JobPhase::Idle,
    ];

    /// This phase's position in [`JobPhase::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The node-load signature of this phase under the given I/O policy.
    pub(crate) fn load(self, policy: IoWaitPolicy) -> NodeLoad {
        match self {
            JobPhase::Simulate => NodeLoad::COMPUTE,
            JobPhase::Visualize => NodeLoad::RENDER,
            JobPhase::WriteOutput | JobPhase::ReadInput => match policy {
                IoWaitPolicy::BusyWait => NodeLoad::IO_BUSY_WAIT,
                IoWaitPolicy::DeepIdle => NodeLoad::IO_DEEP_IDLE,
            },
            JobPhase::Idle => NodeLoad::IDLE,
        }
    }

    /// Short label used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Simulate => "simulate",
            JobPhase::WriteOutput => "write",
            JobPhase::Visualize => "visualize",
            JobPhase::ReadInput => "read",
            JobPhase::Idle => "idle",
        }
    }
}

/// One executed phase: what ran and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// The phase.
    pub phase: JobPhase,
    /// When it started.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
}

impl PhaseRecord {
    /// Phase duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The sequence of phases a pipeline executed — the raw material for the
/// per-phase breakdowns in the paper's model (t_sim, t_i/o, t_viz).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimeline {
    records: Vec<PhaseRecord>,
}

impl PhaseTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        PhaseTimeline {
            records: Vec::new(),
        }
    }

    /// Append a completed phase.
    ///
    /// # Panics
    /// Panics if the record overlaps or precedes the previous one, or if
    /// `end < start`.
    pub fn push(&mut self, rec: PhaseRecord) {
        assert!(rec.end >= rec.start, "phase ends before it starts");
        if let Some(last) = self.records.last() {
            assert!(
                rec.start >= last.end,
                "phase records must be contiguous and ordered"
            );
        }
        self.records.push(rec);
    }

    /// All records in execution order.
    pub fn records(&self) -> &[PhaseRecord] {
        &self.records
    }

    /// Total time spent in `phase`.
    pub fn time_in(&self, phase: JobPhase) -> SimDuration {
        self.records
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.duration())
            .fold(SimDuration::ZERO, |a, d| a + d)
    }

    /// Total span from first start to last end (zero when empty).
    pub fn makespan(&self) -> SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.end - f.start,
            _ => SimDuration::ZERO,
        }
    }

    /// The paper's three-way decomposition: `(t_sim, t_io, t_viz)`, where
    /// I/O combines writes and reads.
    pub fn decompose(&self) -> (SimDuration, SimDuration, SimDuration) {
        let t_sim = self.time_in(JobPhase::Simulate);
        let t_io = self.time_in(JobPhase::WriteOutput) + self.time_in(JobPhase::ReadInput);
        let t_viz = self.time_in(JobPhase::Visualize);
        (t_sim, t_io, t_viz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn phase_loads_respect_policy() {
        assert_eq!(
            JobPhase::WriteOutput.load(IoWaitPolicy::BusyWait),
            NodeLoad::IO_BUSY_WAIT
        );
        assert_eq!(
            JobPhase::WriteOutput.load(IoWaitPolicy::DeepIdle),
            NodeLoad::IO_DEEP_IDLE
        );
        assert_eq!(
            JobPhase::Simulate.load(IoWaitPolicy::DeepIdle),
            NodeLoad::COMPUTE
        );
        assert_eq!(JobPhase::Idle.load(IoWaitPolicy::BusyWait), NodeLoad::IDLE);
    }

    #[test]
    fn timeline_accumulates_per_phase() {
        let mut tl = PhaseTimeline::new();
        tl.push(PhaseRecord {
            phase: JobPhase::Simulate,
            start: t(0),
            end: t(10),
        });
        tl.push(PhaseRecord {
            phase: JobPhase::WriteOutput,
            start: t(10),
            end: t(14),
        });
        tl.push(PhaseRecord {
            phase: JobPhase::Simulate,
            start: t(14),
            end: t(24),
        });
        tl.push(PhaseRecord {
            phase: JobPhase::Visualize,
            start: t(24),
            end: t(27),
        });
        assert_eq!(tl.time_in(JobPhase::Simulate), SimDuration::from_secs(20));
        assert_eq!(tl.time_in(JobPhase::WriteOutput), SimDuration::from_secs(4));
        assert_eq!(tl.makespan(), SimDuration::from_secs(27));
        let (s, io, v) = tl.decompose();
        assert_eq!(s, SimDuration::from_secs(20));
        assert_eq!(io, SimDuration::from_secs(4));
        assert_eq!(v, SimDuration::from_secs(3));
    }

    #[test]
    fn empty_timeline_is_zero() {
        let tl = PhaseTimeline::new();
        assert_eq!(tl.makespan(), SimDuration::ZERO);
        assert_eq!(tl.time_in(JobPhase::Simulate), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "contiguous and ordered")]
    fn overlapping_records_rejected() {
        let mut tl = PhaseTimeline::new();
        tl.push(PhaseRecord {
            phase: JobPhase::Simulate,
            start: t(0),
            end: t(10),
        });
        tl.push(PhaseRecord {
            phase: JobPhase::WriteOutput,
            start: t(5),
            end: t(12),
        });
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(JobPhase::Simulate.label(), "simulate");
        assert_eq!(JobPhase::ReadInput.label(), "read");
    }
}
