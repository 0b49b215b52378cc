//! Analytic queueing servers used by the storage and cluster models.
//!
//! * [`FairShareServer`] — an exact processor-sharing (PS) server: all active
//!   jobs share the capacity equally. This models a bandwidth-shared object
//!   storage server (OSS): N clients writing concurrently each see `C/N`
//!   bytes/s, and the aggregate never exceeds `C`.
//! * [`FcfsServer`] — a single first-come-first-served server with explicit
//!   per-request service times. This models a metadata server (MDS) handling
//!   opens/creates serially.

use crate::time::{SimDuration, SimTime};

/// Identifier of a job inside a server. Unique per server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// A completion record returned when draining a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Which job completed.
    pub job: JobId,
    /// When it completed.
    pub at: SimTime,
}

#[derive(Debug, Clone)]
struct PsJob {
    id: JobId,
    /// Remaining work, in abstract units (e.g. bytes).
    remaining: f64,
}

/// An exact processor-sharing server with capacity `capacity` work-units/sec.
///
/// ```
/// use ivis_sim::resource::FairShareServer;
/// use ivis_sim::SimTime;
///
/// // 100 units/s; two jobs of 100 units submitted together share the
/// // capacity, so both finish at t = 2 s.
/// let mut srv = FairShareServer::new(100.0);
/// let a = srv.submit(SimTime::ZERO, 100.0);
/// let b = srv.submit(SimTime::ZERO, 100.0);
/// let done = srv.drain_until(SimTime::from_secs(10));
/// assert_eq!(done.len(), 2);
/// assert_eq!(done[0].at, SimTime::from_secs(2));
/// assert_eq!(done[1].at, SimTime::from_secs(2));
/// assert!(done.iter().any(|c| c.job == a) && done.iter().any(|c| c.job == b));
/// ```
#[derive(Debug, Clone)]
pub struct FairShareServer {
    capacity: f64,
    clock: SimTime,
    next_id: u64,
    active: Vec<PsJob>,
    pending: Vec<Completion>,
    work_done: f64,
}

impl FairShareServer {
    /// Create a server with the given capacity (work units per second).
    ///
    /// # Panics
    /// Panics if `capacity` is not finite and positive.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        FairShareServer {
            capacity,
            clock: SimTime::ZERO,
            next_id: 0,
            active: Vec::new(),
            pending: Vec::new(),
            work_done: 0.0,
        }
    }

    /// The configured capacity in work units per second.
    #[cfg(test)]
    fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Total work completed so far.
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Change the service capacity at time `t` — e.g. a bandwidth brownout
    /// (or its recovery) injected by a fault plan.
    ///
    /// The server first advances to `t` under the old capacity, so work
    /// served before the change is unaffected; everything still queued is
    /// served at the new rate from `t` on. This keeps the processor-sharing
    /// arithmetic exact across the change.
    ///
    /// # Panics
    /// Panics if `new_capacity` is not finite and positive, or if `t`
    /// precedes the server clock.
    pub fn set_capacity(&mut self, t: SimTime, new_capacity: f64) {
        assert!(
            new_capacity.is_finite() && new_capacity > 0.0,
            "capacity must be positive, got {new_capacity}"
        );
        assert!(
            t >= self.clock,
            "set_capacity at {t} precedes server clock {}",
            self.clock
        );
        self.advance(t);
        self.capacity = new_capacity;
    }

    /// Submit a job of `work` units at time `now`.
    ///
    /// Jobs that complete strictly before `now` are buffered and surfaced by
    /// the next [`drain_until`](Self::drain_until) call; the arithmetic is
    /// exact regardless of interleaving.
    ///
    /// # Panics
    /// Panics if `now` precedes the server clock or `work` is not positive.
    pub fn submit(&mut self, now: SimTime, work: f64) -> JobId {
        assert!(work.is_finite() && work > 0.0, "work must be positive");
        assert!(
            now >= self.clock,
            "submit at {now} precedes server clock {}",
            self.clock
        );
        self.advance(now);
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.active.push(PsJob {
            id,
            remaining: work,
        });
        id
    }

    /// Earliest pending completion time, if any job is active.
    ///
    /// The delta is rounded *up* to the next microsecond: rounding to
    /// nearest could leave a sub-microsecond residue of work that never
    /// completes, stalling the drain loops. Ceiling guarantees that
    /// advancing to the returned time retires at least the smallest job.
    pub(crate) fn next_completion_at(&self) -> Option<SimTime> {
        let min_rem = self
            .active
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        if min_rem.is_finite() {
            let n = self.active.len() as f64;
            let dt = min_rem * n / self.capacity;
            let micros = (dt * 1e6).ceil().max(1.0) as u64;
            Some(self.clock + SimDuration::from_micros(micros))
        } else {
            None
        }
    }

    /// Advance the server to `t` and return every completion at or before
    /// `t` (including any buffered by intervening [`submit`](Self::submit)
    /// calls), with exact completion times, in completion order.
    pub fn drain_until(&mut self, t: SimTime) -> Vec<Completion> {
        self.advance(t);
        let mut out = std::mem::take(&mut self.pending);
        out.sort_by_key(|c| (c.at, c.job));
        out
    }

    /// Time at which all currently queued work completes, assuming no new
    /// arrivals. Returns the server clock if idle.
    pub fn drained_at(&self) -> SimTime {
        let total: f64 = self.active.iter().map(|j| j.remaining).sum();
        self.clock + SimDuration::from_secs_f64(total / self.capacity)
    }

    /// Advance the processor-sharing state to `t`, buffering completions.
    fn advance(&mut self, t: SimTime) {
        while let Some(at) = self.next_completion_at() {
            if at > t {
                break;
            }
            self.consume(at);
            // Remove all jobs whose remaining hit ~0 (ties complete together).
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i].remaining <= 1e-9 {
                    let job = self.active.swap_remove(i);
                    self.pending.push(Completion { job: job.id, at });
                } else {
                    i += 1;
                }
            }
        }
        self.consume(t);
    }

    /// Consume work between the internal clock and `t` assuming the active
    /// set does not change in between. Callers guarantee no completion occurs
    /// strictly inside the interval.
    fn consume(&mut self, t: SimTime) {
        if t <= self.clock {
            return;
        }
        let dt = (t - self.clock).as_secs_f64();
        let n = self.active.len();
        if n > 0 {
            let per_job = self.capacity * dt / n as f64;
            for j in &mut self.active {
                let used = per_job.min(j.remaining);
                j.remaining -= per_job.min(j.remaining);
                self.work_done += used;
            }
        }
        self.clock = t;
    }
}

/// A single FCFS server: requests are served one at a time in arrival order.
#[derive(Debug, Clone, Default)]
pub struct FcfsServer {
    clock: SimTime,
    /// Time at which the server becomes free of all queued work.
    free_at: SimTime,
}

impl FcfsServer {
    /// Create an idle server with its clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a request at `now` requiring `service` time. Returns the time
    /// at which the request will complete (after queueing).
    ///
    /// # Panics
    /// Panics if `now` precedes the server clock.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        assert!(
            now >= self.clock,
            "submit at {now} precedes server clock {}",
            self.clock
        );
        self.clock = now;
        self.free_at = self.free_at.max(now) + service;
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_at_full_capacity() {
        let mut srv = FairShareServer::new(50.0);
        srv.submit(SimTime::ZERO, 100.0);
        let done = srv.drain_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, SimTime::from_secs(2));
    }

    #[test]
    fn equal_jobs_finish_together() {
        let mut srv = FairShareServer::new(100.0);
        for _ in 0..4 {
            srv.submit(SimTime::ZERO, 25.0);
        }
        let done = srv.drain_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 4);
        for c in &done {
            assert_eq!(c.at, SimTime::from_secs(1)); // 100 units total / 100 per sec
        }
    }

    #[test]
    fn unequal_jobs_processor_sharing_order() {
        // Jobs of 10 and 30 units, capacity 10/s. Shared: each gets 5/s.
        // Small job done at t=2 (10/5). Then big has 30-10=20 left at 10/s,
        // done at t=2+2=4.
        let mut srv = FairShareServer::new(10.0);
        let small = srv.submit(SimTime::ZERO, 10.0);
        let big = srv.submit(SimTime::ZERO, 30.0);
        let done = srv.drain_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].job, small);
        assert_eq!(done[0].at, SimTime::from_secs(2));
        assert_eq!(done[1].job, big);
        assert_eq!(done[1].at, SimTime::from_secs(4));
    }

    #[test]
    fn late_arrival_shares_remaining_capacity() {
        // Capacity 10/s. Job A = 40 units at t=0. At t=2, A has 20 left.
        // Job B = 10 units arrives at t=2; both run at 5/s. B done at t=4;
        // A then has 10 left at 10/s, done at t=5.
        let mut srv = FairShareServer::new(10.0);
        let a = srv.submit(SimTime::ZERO, 40.0);
        let b = srv.submit(SimTime::from_secs(2), 10.0);
        let done = srv.drain_until(SimTime::from_secs(10));
        assert_eq!(done[0].job, b);
        assert_eq!(done[0].at, SimTime::from_secs(4));
        assert_eq!(done[1].job, a);
        assert_eq!(done[1].at, SimTime::from_secs(5));
    }

    #[test]
    fn aggregate_rate_never_exceeds_capacity() {
        let mut srv = FairShareServer::new(160.0);
        for _ in 0..64 {
            srv.submit(SimTime::ZERO, 10.0);
        }
        // 640 units at 160/s => all done at t=4, not earlier.
        let done = srv.drain_until(SimTime::from_secs(100));
        let last = done.iter().map(|c| c.at).max().unwrap();
        assert_eq!(last, SimTime::from_secs(4));
        assert!((srv.work_done() - 640.0).abs() < 1e-6);
    }

    #[test]
    fn drained_at_matches_total_work() {
        let mut srv = FairShareServer::new(8.0);
        srv.submit(SimTime::ZERO, 16.0);
        srv.submit(SimTime::ZERO, 8.0);
        assert_eq!(srv.drained_at(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FairShareServer::new(0.0);
    }

    #[test]
    fn capacity_change_is_exact_mid_job() {
        // 100 units at 10/s. At t=5, 50 units remain; halving the capacity
        // to 5/s means the rest takes 10 more seconds: done at t=15.
        let mut srv = FairShareServer::new(10.0);
        srv.submit(SimTime::ZERO, 100.0);
        srv.set_capacity(SimTime::from_secs(5), 5.0);
        assert_eq!(srv.capacity(), 5.0);
        assert_eq!(srv.drained_at(), SimTime::from_secs(15));
        let done = srv.drain_until(SimTime::from_secs(20));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, SimTime::from_secs(15));
    }

    #[test]
    fn capacity_restore_recovers_full_rate() {
        let mut srv = FairShareServer::new(10.0);
        srv.submit(SimTime::ZERO, 100.0);
        srv.set_capacity(SimTime::from_secs(2), 2.0); // 80 left at 2/s
        srv.set_capacity(SimTime::from_secs(7), 10.0); // 70 left at 10/s
        assert_eq!(srv.drained_at(), SimTime::from_secs(14));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn set_capacity_rejects_zero() {
        let mut srv = FairShareServer::new(10.0);
        srv.set_capacity(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn fcfs_serializes_requests() {
        let mut srv = FcfsServer::new();
        let t1 = srv.submit(SimTime::ZERO, SimDuration::from_secs(2));
        let t2 = srv.submit(SimTime::ZERO, SimDuration::from_secs(3));
        assert_eq!(t1, SimTime::from_secs(2));
        assert_eq!(t2, SimTime::from_secs(5));
    }

    #[test]
    fn fcfs_idle_gap_then_new_request() {
        let mut srv = FcfsServer::new();
        srv.submit(SimTime::ZERO, SimDuration::from_secs(1));
        let t = srv.submit(SimTime::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(t, SimTime::from_secs(11));
    }
}
