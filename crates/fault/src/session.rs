//! The live fault state of one pipeline run.

use ivis_cluster::topology::NodeId;
use ivis_cluster::StragglerSet;
use ivis_sim::{SimDuration, SimRng, SimTime};
use ivis_storage::ParallelFileSystem;

use crate::degrade::{DegradationPolicy, DegradationState};
use crate::plan::{FaultKind, FaultPlan};
use crate::report::FaultStats;
use crate::retry::RetryPolicy;

/// A plan plus the policies for surviving it — everything a pipeline
/// executor needs to run fault-aware.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// What goes wrong, when.
    pub plan: FaultPlan,
    /// How operations retry.
    pub retry: RetryPolicy,
    /// When the pipeline sheds load.
    pub degradation: DegradationPolicy,
}

impl FaultScenario {
    /// No faults, default policies. A run under this scenario is
    /// bit-identical to a fault-naive run.
    pub fn none() -> Self {
        FaultScenario {
            plan: FaultPlan::empty(),
            retry: RetryPolicy::storage_default(),
            degradation: DegradationPolicy::standard(),
        }
    }

    /// The given plan with default retry/degradation policies.
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultScenario {
            plan,
            retry: RetryPolicy::storage_default(),
            degradation: DegradationPolicy::standard(),
        }
    }

    /// Describes the first delay this scenario can add to one storage
    /// operation that is longer than `limit`: the MDS surcharges of all
    /// its stalls together (overlapping stalls add), or the longest
    /// backoff its retry policy draws (`max_backoff` stretched by the
    /// jitter). `None` when both fit.
    pub fn delay_past(&self, limit: SimDuration) -> Option<String> {
        let mds = self
            .plan
            .faults()
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::MdsStall { surcharge } => Some(surcharge.as_micros()),
                _ => None,
            })
            .fold(0u64, u64::saturating_add);
        if mds > limit.as_micros() {
            return Some(format!("MDS surcharges of {mds} us in all"));
        }
        let backoff = self.retry.max_backoff.as_secs_f64() * (1.0 + self.retry.jitter_rel.max(0.0));
        if backoff > limit.as_secs_f64() {
            return Some(format!("a retry backoff of up to {backoff} s"));
        }
        None
    }
}

/// The aggregate storage-side degradation at one instant, folded from
/// every active fault: the worst brownout wins, MDS surcharges add,
/// the largest reservation wins, the highest failure probability wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageState {
    /// OSS bandwidth derating (1.0 = nominal).
    pub oss_scale: f64,
    /// Extra metadata latency.
    pub mds_surcharge: SimDuration,
    /// Capacity withheld from free space.
    pub reserved_bytes: u64,
    /// Per-operation transient failure probability.
    pub io_fail_prob: f64,
}

impl StorageState {
    /// No degradation.
    pub(crate) const NOMINAL: StorageState = StorageState {
        oss_scale: 1.0,
        mds_surcharge: SimDuration::ZERO,
        reserved_bytes: 0,
        io_fail_prob: 0.0,
    };
}

/// Per-run fault state: maps the plan's active windows onto the storage
/// and cluster hooks, rolls the failure dice, tracks degradation and
/// accumulates [`FaultStats`].
///
/// Determinism contract: every random decision comes from one forked
/// [`SimRng`] seeded by the plan, and the RNG is only consulted while a
/// `TransientIo` window is active (plus backoff jitter after a failure).
/// An empty plan therefore draws nothing, and a seeded plan replays
/// bit-identically at any host thread count.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    /// Retry policy in force.
    pub retry: RetryPolicy,
    /// Degradation policy in force.
    pub degradation: DegradationPolicy,
    /// Live degradation level.
    pub state: DegradationState,
    /// Counters accumulated so far.
    pub stats: FaultStats,
    rng: SimRng,
    stragglers: StragglerSet,
    applied: StorageState,
    backoff_windows: Vec<(SimTime, SimTime)>,
}

impl FaultSession {
    /// Start a session for one run of `scenario`.
    pub fn new(scenario: &FaultScenario) -> Self {
        FaultSession {
            plan: scenario.plan.clone(),
            retry: scenario.retry,
            degradation: scenario.degradation,
            state: DegradationState::new(),
            stats: FaultStats::default(),
            rng: SimRng::new(scenario.plan.seed ^ 0xFA01_7001),
            stragglers: StragglerSet::new(),
            applied: StorageState::NOMINAL,
            backoff_windows: Vec::new(),
        }
    }

    /// Fold every active storage fault at `now` into one target state.
    pub(crate) fn storage_state(&self, now: SimTime) -> StorageState {
        let mut s = StorageState::NOMINAL;
        for f in self.plan.active_at(now) {
            match f.kind {
                FaultKind::OssBrownout { scale } => s.oss_scale = s.oss_scale.min(scale),
                FaultKind::MdsStall { surcharge } => s.mds_surcharge += surcharge,
                FaultKind::DiskPressure { reserve_bytes } => {
                    s.reserved_bytes = s.reserved_bytes.max(reserve_bytes)
                }
                FaultKind::TransientIo { fail_prob } => {
                    s.io_fail_prob = s.io_fail_prob.max(fail_prob)
                }
                FaultKind::ComputeStraggler { .. } | FaultKind::LinkBrownout { .. } => {}
            }
        }
        s
    }

    /// The compute→staging link derating at `now`: the deepest active
    /// [`FaultKind::LinkBrownout`] wins; 1.0 when none is active. Pure —
    /// no RNG, no state — so consulting it on every hand-off preserves the
    /// empty-plan bit-identity contract.
    pub fn link_scale(&self, now: SimTime) -> f64 {
        let mut scale = 1.0f64;
        for f in self.plan.active_at(now) {
            if let FaultKind::LinkBrownout { scale: s } = f.kind {
                scale = scale.min(s);
            }
        }
        scale
    }

    /// Apply the storage state at `now` to `pfs`, touching the hooks only
    /// when something changed. Returns the new state on a transition (so
    /// the caller can record it) and `None` when nothing changed.
    pub fn sync_storage(
        &mut self,
        now: SimTime,
        pfs: &mut ParallelFileSystem,
    ) -> Option<StorageState> {
        if self.plan.is_empty() {
            return None;
        }
        let target = self.storage_state(now);
        if target == self.applied {
            return None;
        }
        pfs.set_oss_bandwidth_scale(now, target.oss_scale);
        pfs.set_mds_surcharge(target.mds_surcharge);
        pfs.set_reserved_bytes(target.reserved_bytes);
        self.applied = target;
        Some(target)
    }

    /// Roll the transient-failure die for a storage operation submitted
    /// at `now`. Draws from the RNG only while a `TransientIo` window is
    /// active; counts an injected failure when it comes up.
    pub fn roll_io_failure(&mut self, now: SimTime) -> bool {
        let p = self.storage_state(now).io_fail_prob;
        if p <= 0.0 {
            return false;
        }
        let fail = self.rng.uniform() < p;
        if fail {
            self.stats.injected_io_failures += 1;
        }
        fail
    }

    /// The bulk-synchronous compute slowdown at `now`: active straggler
    /// windows are mapped onto a [`StragglerSet`] (one synthetic node per
    /// scheduled fault) and the slowest node gates the step.
    pub fn compute_slowdown(&mut self, now: SimTime) -> f64 {
        if self.plan.is_empty() {
            return 1.0;
        }
        self.stragglers.clear_all();
        for (i, f) in self.plan.faults().iter().enumerate() {
            if let FaultKind::ComputeStraggler { slowdown } = f.kind {
                if f.window.contains(now) {
                    self.stragglers.set(NodeId(i), slowdown);
                }
            }
        }
        self.stragglers.bsp_slowdown()
    }

    /// Backoff before the next attempt after `failed` failures, with
    /// jitter from the session RNG. Counts the retry.
    pub fn backoff_for(&mut self, failed: u32) -> SimDuration {
        self.stats.retries += 1;
        self.retry.backoff(failed, &mut self.rng)
    }

    /// Record one backoff interval (for energy attribution).
    pub fn note_backoff(&mut self, from: SimTime, to: SimTime) {
        self.stats.backoff += to - from;
        self.backoff_windows.push((from, to));
    }

    /// Every backoff interval recorded so far.
    pub fn backoff_windows(&self) -> &[(SimTime, SimTime)] {
        &self.backoff_windows
    }

    /// Should output `k` be shed at the current degradation level?
    pub fn should_shed(&self, k: u64) -> bool {
        self.state.should_shed(k)
    }

    /// Record a pressure event; returns the new level on escalation.
    pub fn pressure(&mut self) -> Option<u8> {
        let escalated = self.state.on_pressure(&self.degradation);
        if escalated.is_some() {
            self.stats.escalations += 1;
        }
        escalated
    }

    /// Record a clean output; returns the new level on recovery.
    pub fn clean(&mut self) -> Option<u8> {
        let recovered = self.state.on_clean(&self.degradation);
        if recovered.is_some() {
            self.stats.recoveries += 1;
        }
        recovered
    }

    /// Finalize and return the run's stats.
    pub fn into_stats(mut self) -> FaultStats {
        self.stats.final_level = self.state.level();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultWindow;

    fn brownout_plan() -> FaultPlan {
        FaultPlan::new(7)
            .inject(
                FaultWindow::of_secs(10, 20),
                FaultKind::OssBrownout { scale: 0.5 },
            )
            .inject(
                FaultWindow::of_secs(15, 25),
                FaultKind::OssBrownout { scale: 0.3 },
            )
            .inject(
                FaultWindow::of_secs(10, 30),
                FaultKind::MdsStall {
                    surcharge: SimDuration::from_millis(5),
                },
            )
    }

    #[test]
    fn delay_past_adds_stalls_and_stretches_backoff() {
        let limit = SimDuration::from_secs(100);
        let stalls = |a, b| {
            let stall = |s| FaultKind::MdsStall {
                surcharge: SimDuration::from_secs(s),
            };
            let plan = FaultPlan::new(1)
                .inject(FaultWindow::of_secs(0, 10), stall(a))
                .inject(FaultWindow::of_secs(50, 60), stall(b));
            FaultScenario::with_plan(plan).delay_past(limit)
        };
        assert_eq!(stalls(50, 50), None);
        assert!(stalls(50, 51).is_some());
        let mut s = FaultScenario::none();
        s.retry.max_backoff = SimDuration::from_secs(80);
        for (jitter, past) in [(0.25, false), (0.3, true), (f64::INFINITY, true)] {
            s.retry.jitter_rel = jitter;
            assert_eq!(s.delay_past(limit).is_some(), past, "jitter {jitter}");
        }
    }

    #[test]
    fn link_scale_folds_worst_active_and_ignores_storage() {
        let plan = FaultPlan::new(9)
            .inject(
                FaultWindow::of_secs(10, 20),
                FaultKind::LinkBrownout { scale: 0.5 },
            )
            .inject(
                FaultWindow::of_secs(15, 25),
                FaultKind::LinkBrownout { scale: 0.2 },
            )
            .inject(
                FaultWindow::of_secs(0, 100),
                FaultKind::OssBrownout { scale: 0.1 },
            );
        let s = FaultSession::new(&FaultScenario::with_plan(plan));
        assert_eq!(s.link_scale(SimTime::from_secs(5)), 1.0);
        assert_eq!(s.link_scale(SimTime::from_secs(12)), 0.5);
        assert_eq!(s.link_scale(SimTime::from_secs(17)), 0.2, "deepest wins");
        assert_eq!(s.link_scale(SimTime::from_secs(30)), 1.0);
        // Link brownouts never leak into the storage hooks.
        assert_eq!(
            s.storage_state(SimTime::from_secs(12)).oss_scale,
            0.1,
            "storage state sees only the OSS brownout"
        );
    }

    #[test]
    fn storage_state_folds_worst_active() {
        let s = FaultSession::new(&FaultScenario::with_plan(brownout_plan()));
        assert_eq!(
            s.storage_state(SimTime::from_secs(5)),
            StorageState::NOMINAL
        );
        let mid = s.storage_state(SimTime::from_secs(17));
        assert_eq!(mid.oss_scale, 0.3, "deepest brownout wins");
        assert_eq!(mid.mds_surcharge, SimDuration::from_millis(5));
        let late = s.storage_state(SimTime::from_secs(22));
        assert_eq!(late.oss_scale, 0.3);
        assert_eq!(late.mds_surcharge, SimDuration::from_millis(5));
        let tail = s.storage_state(SimTime::from_secs(27));
        assert_eq!(tail.oss_scale, 1.0);
        assert_eq!(tail.mds_surcharge, SimDuration::from_millis(5));
    }

    #[test]
    fn sync_applies_only_on_transitions() {
        let mut s = FaultSession::new(&FaultScenario::with_plan(brownout_plan()));
        let mut pfs = ParallelFileSystem::caddy_lustre();
        assert!(s.sync_storage(SimTime::from_secs(5), &mut pfs).is_none());
        assert!(s.sync_storage(SimTime::from_secs(12), &mut pfs).is_some());
        assert_eq!(pfs.oss_bandwidth_scale(), 0.5);
        // Same state again: no transition.
        assert!(s.sync_storage(SimTime::from_secs(13), &mut pfs).is_none());
        assert!(s.sync_storage(SimTime::from_secs(17), &mut pfs).is_some());
        assert_eq!(pfs.oss_bandwidth_scale(), 0.3);
        assert!(s.sync_storage(SimTime::from_secs(40), &mut pfs).is_some());
        assert_eq!(pfs.oss_bandwidth_scale(), 1.0, "recovery restores nominal");
        assert_eq!(pfs.mds_surcharge(), SimDuration::ZERO);
    }

    #[test]
    fn empty_plan_session_is_inert() {
        let mut s = FaultSession::new(&FaultScenario::none());
        let mut pfs = ParallelFileSystem::caddy_lustre();
        for sec in 0..100 {
            let t = SimTime::from_secs(sec);
            assert!(s.sync_storage(t, &mut pfs).is_none());
            assert!(!s.roll_io_failure(t));
            assert_eq!(s.compute_slowdown(t), 1.0);
            assert!(!s.should_shed(sec));
        }
        let stats = s.into_stats();
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn straggler_windows_gate_compute() {
        let plan = FaultPlan::new(1)
            .inject(
                FaultWindow::of_secs(0, 10),
                FaultKind::ComputeStraggler { slowdown: 1.5 },
            )
            .inject(
                FaultWindow::of_secs(5, 15),
                FaultKind::ComputeStraggler { slowdown: 2.0 },
            );
        let mut s = FaultSession::new(&FaultScenario::with_plan(plan));
        assert_eq!(s.compute_slowdown(SimTime::from_secs(2)), 1.5);
        assert_eq!(s.compute_slowdown(SimTime::from_secs(7)), 2.0);
        assert_eq!(s.compute_slowdown(SimTime::from_secs(12)), 2.0);
        assert_eq!(s.compute_slowdown(SimTime::from_secs(20)), 1.0);
    }

    #[test]
    fn failure_rolls_are_seed_deterministic() {
        let plan = FaultPlan::new(99).inject(
            FaultWindow::of_secs(0, 1000),
            FaultKind::TransientIo { fail_prob: 0.3 },
        );
        let scenario = FaultScenario::with_plan(plan);
        let rolls = |scenario: &FaultScenario| {
            let mut s = FaultSession::new(scenario);
            (0..200)
                .map(|i| s.roll_io_failure(SimTime::from_secs(i)))
                .collect::<Vec<bool>>()
        };
        let a = rolls(&scenario);
        let b = rolls(&scenario);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "some failures should fire at p=0.3");
        assert!(!a.iter().all(|&x| x), "not all should fail");
    }
}
