//! Analytic queueing servers used by the storage and cluster models.
//!
//! * [`FairShareServer`] — an exact processor-sharing (PS) server: all active
//!   jobs share the capacity equally. This models a bandwidth-shared object
//!   storage server (OSS): N clients writing concurrently each see `C/N`
//!   bytes/s, and the aggregate never exceeds `C`. Callers read only the
//!   drain horizon ([`FairShareServer::drained_at`]), yet the server keeps
//!   each job's remaining work: a job leaves at the next whole microsecond
//!   after it finishes, and those rounded steps are part of every pinned
//!   run digest — a server that kept only the total backlog drifts by a
//!   few microseconds.
//! * [`FcfsServer`] — a single first-come-first-served server with explicit
//!   per-request service times. This models a metadata server (MDS) handling
//!   opens/creates serially.

use crate::time::{SimDuration, SimTime};

/// An exact processor-sharing server with capacity `capacity` work-units/sec.
///
/// ```
/// use ivis_sim::resource::FairShareServer;
/// use ivis_sim::SimTime;
///
/// // 100 units/s; two jobs of 100 units submitted together share the
/// // capacity, so the server is empty at t = 2 s.
/// let mut srv = FairShareServer::new(100.0);
/// srv.submit(SimTime::ZERO, 100.0);
/// srv.submit(SimTime::ZERO, 100.0);
/// assert_eq!(srv.drained_at(), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone)]
pub struct FairShareServer {
    capacity: f64,
    clock: SimTime,
    /// Remaining work of each active job, in abstract units (e.g. bytes).
    active: Vec<f64>,
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
            active: Vec::new(),
        }
    }

    /// The configured capacity in work units per second.
    #[cfg(test)]
    fn capacity(&self) -> f64 {
        self.capacity
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

    /// Submit a job of `work` units at time `now`, first retiring every job
    /// that completes by `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the server clock or `work` is not positive.
    pub fn submit(&mut self, now: SimTime, work: f64) {
        assert!(work.is_finite() && work > 0.0, "work must be positive");
        assert!(
            now >= self.clock,
            "submit at {now} precedes server clock {}",
            self.clock
        );
        self.advance(now);
        self.active.push(work);
    }

    /// Earliest pending completion time, if any job is active.
    ///
    /// The delta is rounded *up* to the next microsecond: rounding to
    /// nearest could leave a sub-microsecond residue of work that never
    /// completes, stalling the advance loop. Ceiling guarantees that
    /// advancing to the returned time retires at least the smallest job.
    fn next_completion_at(&self) -> Option<SimTime> {
        let min_rem = self.active.iter().copied().fold(f64::INFINITY, f64::min);
        if min_rem.is_finite() {
            let n = self.active.len() as f64;
            let dt = min_rem * n / self.capacity;
            let micros = (dt * 1e6).ceil().max(1.0) as u64;
            Some(self.clock + SimDuration::from_micros(micros))
        } else {
            None
        }
    }

    /// Time at which all currently queued work completes, assuming no new
    /// arrivals. Returns the server clock if idle.
    pub fn drained_at(&self) -> SimTime {
        let total: f64 = self.active.iter().sum();
        self.clock + SimDuration::from_secs_f64(total / self.capacity)
    }

    /// Advance the processor-sharing state to `t`, retiring every job that
    /// completes on the way.
    fn advance(&mut self, t: SimTime) {
        while let Some(at) = self.next_completion_at() {
            if at > t {
                break;
            }
            self.consume(at);
            // Remove all jobs whose remaining hit ~0 (ties complete together).
            // `swap_remove`, not `retain`: `drained_at` sums in this order.
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i] <= 1e-9 {
                    self.active.swap_remove(i);
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
            for remaining in &mut self.active {
                *remaining -= per_job.min(*remaining);
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
        assert_eq!(srv.drained_at(), SimTime::from_secs(2));
    }

    #[test]
    fn equal_jobs_finish_together() {
        let mut srv = FairShareServer::new(100.0);
        for _ in 0..4 {
            srv.submit(SimTime::ZERO, 25.0);
        }
        // 100 units total / 100 per sec.
        assert_eq!(srv.drained_at(), SimTime::from_secs(1));
    }

    #[test]
    fn unequal_jobs_processor_sharing_order() {
        // Jobs of 10 and 30 units, capacity 10/s. Shared: each gets 5/s.
        // Small job done at t=2 (10/5). Then big has 30-10=20 left at 10/s,
        // done at t=2+2=4.
        let mut srv = FairShareServer::new(10.0);
        srv.submit(SimTime::ZERO, 10.0);
        srv.submit(SimTime::ZERO, 30.0);
        assert_eq!(srv.drained_at(), SimTime::from_secs(4));
    }

    #[test]
    fn late_arrival_shares_remaining_capacity() {
        // Capacity 10/s. Job A = 40 units at t=0. At t=2, A has 20 left.
        // Job B = 10 units arrives at t=2; both run at 5/s. B done at t=4;
        // A then has 10 left at 10/s, done at t=5.
        let mut srv = FairShareServer::new(10.0);
        srv.submit(SimTime::ZERO, 40.0);
        srv.submit(SimTime::from_secs(2), 10.0);
        assert_eq!(srv.active, [20.0, 10.0]);
        assert_eq!(srv.drained_at(), SimTime::from_secs(5));
    }

    #[test]
    fn finished_jobs_leave_the_server() {
        // Each 10-unit job is done 1 s after it arrives; the next arrives
        // 2 s after it, so the server never holds more than the newest.
        let mut srv = FairShareServer::new(10.0);
        for k in 0..1_000 {
            srv.submit(SimTime::from_secs(2 * k), 10.0);
            assert_eq!(srv.active.len(), 1);
        }
        assert_eq!(srv.drained_at(), SimTime::from_secs(1_999));
    }

    #[test]
    fn aggregate_rate_never_exceeds_capacity() {
        let mut srv = FairShareServer::new(160.0);
        for _ in 0..64 {
            srv.submit(SimTime::ZERO, 10.0);
        }
        // 640 units at 160/s => all done at t=4, not earlier.
        assert_eq!(srv.drained_at(), SimTime::from_secs(4));
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
