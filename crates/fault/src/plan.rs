//! Scheduled fault plans: what goes wrong, when, and how badly.

use ivis_sim::{SimDuration, SimRng, SimTime};

/// A half-open sim-time window `[start, end)` during which a fault is
/// active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant the fault is no longer active.
    pub end: SimTime,
}

impl FaultWindow {
    /// Create a window.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub(crate) fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "fault window ends before it starts");
        FaultWindow { start, end }
    }

    /// Convenience: a window given in whole seconds of sim-time.
    pub fn of_secs(start_s: u64, end_s: u64) -> Self {
        FaultWindow::new(SimTime::from_secs(start_s), SimTime::from_secs(end_s))
    }

    /// Whether `t` falls inside the window.
    pub(crate) fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// The perturbations a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// OSS bandwidth derated to `scale ×` nominal (0 < scale ≤ 1).
    OssBrownout {
        /// Fraction of nominal bandwidth that survives.
        scale: f64,
    },
    /// Every metadata operation takes `surcharge` longer (MDS queue
    /// saturation).
    MdsStall {
        /// Extra service time per metadata op.
        surcharge: SimDuration,
    },
    /// Each storage data operation fails with probability `fail_prob`
    /// (dropped RPCs, OST evictions). Failed operations are transient:
    /// they mutate nothing and are safe to retry.
    TransientIo {
        /// Per-operation failure probability in `[0, 1]`.
        fail_prob: f64,
    },
    /// `reserve_bytes` of rack capacity are withheld — full-disk
    /// pressure from a neighboring tenant.
    DiskPressure {
        /// Capacity withheld from the filesystem's free space.
        reserve_bytes: u64,
    },
    /// One compute node runs `slowdown ×` slower; under bulk-synchronous
    /// execution it gates every simulation step.
    ComputeStraggler {
        /// Slowdown factor (≥ 1).
        slowdown: f64,
    },
    /// The compute→staging interconnect is derated to `scale ×` nominal
    /// bandwidth (congestion from a neighboring job, a failed link in a
    /// bonded pair). Only the in-transit hand-off path consults it.
    LinkBrownout {
        /// Fraction of nominal link bandwidth that survives.
        scale: f64,
    },
}

/// One fault with its activity window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScheduledFault {
    /// When the fault is active.
    pub window: FaultWindow,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A deterministic, seedable schedule of faults.
///
/// The seed drives *every* random decision a faulted run makes (failure
/// dice, backoff jitter), so a plan replays bit-identically regardless of
/// host thread count. An empty plan draws no randomness at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the run's fault RNG (failure rolls and backoff jitter).
    pub seed: u64,
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The no-fault plan: every hook stays a no-op.
    pub(crate) fn empty() -> Self {
        FaultPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// An empty plan with the given seed, ready for
    /// [`inject`](Self::inject).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Schedule `kind` during `window` (builder style).
    ///
    /// # Panics
    /// Panics if the fault's parameters are out of range (scale outside
    /// `(0, 1]`, probability outside `[0, 1]`, slowdown below 1, or any
    /// non-finite value).
    pub fn inject(mut self, window: FaultWindow, kind: FaultKind) -> Self {
        match kind {
            FaultKind::OssBrownout { scale } => {
                assert!(
                    scale.is_finite() && scale > 0.0 && scale <= 1.0,
                    "brownout scale must be in (0, 1], got {scale}"
                );
            }
            FaultKind::LinkBrownout { scale } => {
                assert!(
                    scale.is_finite() && scale > 0.0 && scale <= 1.0,
                    "link brownout scale must be in (0, 1], got {scale}"
                );
            }
            FaultKind::TransientIo { fail_prob } => {
                assert!(
                    fail_prob.is_finite() && (0.0..=1.0).contains(&fail_prob),
                    "failure probability must be in [0, 1], got {fail_prob}"
                );
            }
            FaultKind::ComputeStraggler { slowdown } => {
                assert!(
                    slowdown.is_finite() && slowdown >= 1.0,
                    "straggler slowdown must be >= 1, got {slowdown}"
                );
            }
            FaultKind::MdsStall { .. } | FaultKind::DiskPressure { .. } => {}
        }
        self.faults.push(ScheduledFault { window, kind });
        self
    }

    /// Whether the plan schedules no faults.
    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// All scheduled faults.
    pub(crate) fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Faults whose window contains `t`.
    pub(crate) fn active_at(&self, t: SimTime) -> impl Iterator<Item = &ScheduledFault> {
        self.faults.iter().filter(move |f| f.window.contains(t))
    }

    /// A random but fully seed-determined plan over `[0, horizon)`:
    /// 1–4 faults of mixed kinds with windows inside the horizon. The
    /// same `(seed, horizon)` always yields the same plan — this is what
    /// the CI fault matrix replays at different thread counts.
    pub fn random(seed: u64, horizon: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0xF417_F417);
        let h = horizon.as_secs_f64();
        let mut plan = FaultPlan::new(seed);
        let n = 1 + rng.below(4);
        for _ in 0..n {
            let start = rng.uniform() * 0.8 * h;
            let len = (0.05 + 0.25 * rng.uniform()) * h;
            let window = FaultWindow::new(
                SimTime::from_secs_f64(start),
                SimTime::from_secs_f64((start + len).min(h)),
            );
            let kind = match rng.below(5) {
                0 => FaultKind::OssBrownout {
                    scale: 0.25 + 0.5 * rng.uniform(),
                },
                1 => FaultKind::MdsStall {
                    surcharge: SimDuration::from_millis(1 + rng.below(2000)),
                },
                2 => FaultKind::TransientIo {
                    fail_prob: 0.05 + 0.4 * rng.uniform(),
                },
                3 => FaultKind::DiskPressure {
                    reserve_bytes: (rng.uniform() * 7.7e12) as u64,
                },
                _ => FaultKind::ComputeStraggler {
                    slowdown: 1.0 + 2.0 * rng.uniform(),
                },
            };
            plan = plan.inject(window, kind);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::of_secs(10, 20);
        assert!(!w.contains(SimTime::from_secs(9)));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_secs(19)));
        assert!(!w.contains(SimTime::from_secs(20)));
    }

    #[test]
    fn active_at_filters_by_window() {
        let plan = FaultPlan::new(1)
            .inject(
                FaultWindow::of_secs(0, 10),
                FaultKind::OssBrownout { scale: 0.5 },
            )
            .inject(
                FaultWindow::of_secs(5, 15),
                FaultKind::TransientIo { fail_prob: 0.1 },
            );
        assert_eq!(plan.active_at(SimTime::from_secs(2)).count(), 1);
        assert_eq!(plan.active_at(SimTime::from_secs(7)).count(), 2);
        assert_eq!(plan.active_at(SimTime::from_secs(12)).count(), 1);
        assert_eq!(plan.active_at(SimTime::from_secs(20)).count(), 0);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let h = SimDuration::from_hours(1);
        let a = FaultPlan::random(42, h);
        let b = FaultPlan::random(42, h);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::random(43, h);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "brownout scale")]
    fn out_of_range_brownout_rejected() {
        let _ = FaultPlan::new(0).inject(
            FaultWindow::of_secs(0, 1),
            FaultKind::OssBrownout { scale: 1.5 },
        );
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::new(0).inject(
            FaultWindow::of_secs(0, 1),
            FaultKind::TransientIo { fail_prob: 2.0 },
        );
    }
}
