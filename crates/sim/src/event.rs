//! The model event calendar: a `BinaryHeap` of boxed closures, compiled
//! for tests only. It is the obviously-correct `(time, seq)` queue the
//! value-carrying [`DesEngine`](crate::engine::DesEngine) is property-tested
//! against (`engine::tests::properties`).
//!
//! Events are `FnOnce(&mut Simulation<W>, &mut W)` closures, so any component
//! of the world can schedule follow-up work. Ties in the timestamp are broken
//! by insertion order (a monotonically increasing sequence number), which
//! makes runs bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

type Action<W> = Box<dyn FnOnce(&mut Simulation<W>, &mut W)>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    action: Action<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event simulation over a world type `W`.
///
/// The simulation owns only the clock and the event calendar; all domain
/// state lives in `W`, which is threaded through every event by `&mut`.
pub(crate) struct Simulation<W> {
    now: SimTime,
    seq: u64,
    executed: u64,
    queue: BinaryHeap<Scheduled<W>>,
}

impl<W> Default for Simulation<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Simulation<W> {
    /// Create an empty simulation with the clock at zero.
    pub(crate) fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// The current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub(crate) fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub(crate) fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the current clock).
    pub(crate) fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Simulation<W>, &mut W) + 'static,
    ) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            action: Box::new(action),
        });
    }

    /// Schedule an event `delay` after the current time.
    pub(crate) fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Simulation<W>, &mut W) + 'static,
    ) {
        self.schedule_at(self.now + delay, action);
    }

    /// Run until the calendar is empty. Returns the final clock value.
    pub(crate) fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Run until the calendar is empty or the next event lies beyond
    /// `deadline`. The clock is left at the last executed event (or at
    /// `deadline` if events beyond it remain pending).
    pub(crate) fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        while let Some(head) = self.queue.peek() {
            if head.at > deadline {
                self.now = deadline;
                return self.now;
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            debug_assert!(ev.at >= self.now, "event calendar went backwards");
            self.now = ev.at;
            self.executed += 1;
            (ev.action)(self, world);
        }
        self.now
    }

    /// Execute at most one pending event. Returns `false` if the calendar is
    /// empty.
    pub(crate) fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            None => false,
            Some(ev) => {
                debug_assert!(ev.at >= self.now, "event calendar went backwards");
                self.now = ev.at;
                self.executed += 1;
                (ev.action)(self, world);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new();
        let mut out = Vec::new();
        sim.schedule_at(SimTime::from_secs(3), |_, w| w.push(3));
        sim.schedule_at(SimTime::from_secs(1), |_, w| w.push(1));
        sim.schedule_at(SimTime::from_secs(2), |_, w| w.push(2));
        let end = sim.run(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_secs(3));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new();
        let mut out = Vec::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(5), move |_, w: &mut Vec<u32>| w.push(i));
        }
        sim.run(&mut out);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Simulation<Vec<u64>> = Simulation::new();
        let mut out = Vec::new();
        fn tick(sim: &mut Simulation<Vec<u64>>, w: &mut Vec<u64>) {
            w.push(sim.now().as_micros());
            if w.len() < 5 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_at(SimTime::ZERO, tick);
        sim.run(&mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[4], 4_000_000);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new();
        let mut out = Vec::new();
        sim.schedule_at(SimTime::from_secs(1), |_, w| w.push(1));
        sim.schedule_at(SimTime::from_secs(10), |_, w| w.push(10));
        let t = sim.run_until(&mut out, SimTime::from_secs(5));
        assert_eq!(out, vec![1]);
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(sim.events_pending(), 1);
        // Resuming picks up the remaining event.
        sim.run(&mut out);
        assert_eq!(out, vec![1, 10]);
    }

    #[test]
    fn step_executes_one_event() {
        let mut sim: Simulation<u32> = Simulation::new();
        let mut w = 0;
        sim.schedule_at(SimTime::from_secs(1), |_, w| *w += 1);
        sim.schedule_at(SimTime::from_secs(2), |_, w| *w += 1);
        assert!(sim.step(&mut w));
        assert_eq!(w, 1);
        assert!(sim.step(&mut w));
        assert!(!sim.step(&mut w));
        assert_eq!(w, 2);
    }

    #[test]
    fn step_after_deadline_advance_upholds_time_order() {
        // Regression: `step` used to skip the no-time-travel invariant
        // `run_until` enforces. After a deadline advances the clock past a
        // still-pending event's schedule point minus slack, stepping must
        // keep the clock monotone (and must not trip the debug assert for
        // legitimately future events).
        let mut sim: Simulation<Vec<u32>> = Simulation::new();
        let mut out = Vec::new();
        sim.schedule_at(SimTime::from_secs(10), |_, w| w.push(10));
        let t = sim.run_until(&mut out, SimTime::from_secs(5));
        assert_eq!(t, SimTime::from_secs(5)); // clock moved, event pending
        assert!(sim.step(&mut out));
        assert_eq!(out, vec![10]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert!(sim.now() >= t, "step moved the clock backwards");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), |sim, _| {
            sim.schedule_at(SimTime::from_secs(1), |_, _| {});
        });
        sim.run(&mut ());
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> Vec<u32> {
            let mut sim: Simulation<Vec<u32>> = Simulation::new();
            let mut out = Vec::new();
            for i in 0..100u32 {
                let t = SimTime::from_micros(((i as u64 * 7919) % 50) * 10);
                sim.schedule_at(t, move |_, w: &mut Vec<u32>| w.push(i));
            }
            sim.run(&mut out);
            out
        }
        assert_eq!(run_once(), run_once());
    }
}
