//! The indexed discrete-event engine: arena-allocated events popped from
//! the hierarchical timer wheel.
//!
//! Events are plain values of a caller-chosen type `E` (no per-event
//! `Box`), the queue is the [`TimerWheel`] index, and scheduling returns
//! an [`EventHandle`] that supports O(1) cancellation. Events fire in
//! `(time, seq)` order where `seq` is the insertion counter, so a run is
//! a pure function of the schedule regardless of host, thread count or
//! wall clock; a differential proptest below holds that order equal to a
//! `BinaryHeap` model calendar's.
//!
//! Dispatch goes through [`EventHandler`] (implemented for free by
//! `FnMut(&mut DesEngine<E>, SimTime, E)` closures), which receives the
//! engine mutably so handlers can schedule and cancel follow-up events.

use crate::arena::{EventArena, EventHandle};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// Receives fired events. The world/handler owns all domain state; the
/// engine owns only the clock and the queue.
pub trait EventHandler<E> {
    /// Called once per live event, in `(time, seq)` order, with the
    /// engine clock already advanced to `at`.
    fn handle(&mut self, engine: &mut DesEngine<E>, at: SimTime, event: E);
}

impl<E, F: FnMut(&mut DesEngine<E>, SimTime, E)> EventHandler<E> for F {
    fn handle(&mut self, engine: &mut DesEngine<E>, at: SimTime, event: E) {
        self(engine, at, event)
    }
}

/// An indexed discrete-event engine over event type `E`.
///
/// ```
/// use ivis_sim::{DesEngine, SimDuration, SimTime};
///
/// let mut engine: DesEngine<&str> = DesEngine::new();
/// engine.schedule_in(SimDuration::from_secs(2), "late");
/// let tok = engine.schedule_in(SimDuration::from_secs(1), "cancelled");
/// engine.schedule_in(SimDuration::from_secs(1), "early");
/// assert_eq!(engine.cancel(tok), Some("cancelled"));
/// let mut seen = Vec::new();
/// engine.run(&mut |_: &mut DesEngine<&str>, at: SimTime, ev| seen.push((at, ev)));
/// assert_eq!(
///     seen,
///     vec![
///         (SimTime::from_secs(1), "early"),
///         (SimTime::from_secs(2), "late"),
///     ]
/// );
/// ```
pub struct DesEngine<E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    arena: EventArena<E>,
    wheel: TimerWheel,
}

impl<E> Default for DesEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> DesEngine<E> {
    /// An empty engine with the clock at zero.
    pub fn new() -> Self {
        DesEngine {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            arena: EventArena::new(),
            wheel: TimerWheel::new(),
        }
    }

    /// An engine whose arena is pre-sized for `cap` concurrent events.
    pub fn with_capacity(cap: usize) -> Self {
        DesEngine {
            arena: EventArena::with_capacity(cap),
            ..DesEngine::new()
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events fired so far (cancelled events never count).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Live (scheduled, not yet fired or cancelled) events.
    pub fn events_pending(&self) -> usize {
        self.arena.len()
    }

    /// Schedule `event` at absolute time `at`; the returned handle
    /// cancels it.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let handle = self.arena.insert(event);
        let seq = self.seq;
        self.seq += 1;
        self.wheel.insert(at, seq, handle);
        handle
    }

    /// Schedule `event` a `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a scheduled event, returning its payload, or `None` if it
    /// already fired or was already cancelled. O(1): the wheel keeps its
    /// index entry and skips it lazily at pop time.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        self.arena.remove(handle)
    }

    /// Run until no live event remains. Returns the final clock value.
    pub fn run<H: EventHandler<E>>(&mut self, handler: &mut H) -> SimTime {
        self.run_until(handler, SimTime::MAX)
    }

    /// Run until no live event remains or the next one lies beyond
    /// `deadline`; in the latter case the clock parks at `deadline` and
    /// the event stays queued (with its original sequence number, so
    /// resuming preserves FIFO ties).
    pub fn run_until<H: EventHandler<E>>(&mut self, handler: &mut H, deadline: SimTime) -> SimTime {
        while let Some(entry) = self.wheel.pop() {
            if entry.at > deadline {
                self.wheel.insert(entry.at, entry.seq, entry.handle);
                if deadline > self.now {
                    self.now = deadline;
                }
                return self.now;
            }
            let Some(event) = self.arena.remove(entry.handle) else {
                continue; // cancelled: stale index entry
            };
            debug_assert!(entry.at >= self.now, "event queue went backwards");
            self.now = entry.at;
            self.executed += 1;
            handler.handle(self, entry.at, event);
        }
        self.now
    }

    /// Fire at most one live event. Returns `false` if none remains.
    pub fn step<H: EventHandler<E>>(&mut self, handler: &mut H) -> bool {
        while let Some(entry) = self.wheel.pop() {
            let Some(event) = self.arena.remove(entry.handle) else {
                continue;
            };
            debug_assert!(entry.at >= self.now, "event queue went backwards");
            self.now = entry.at;
            self.executed += 1;
            handler.handle(self, entry.at, event);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(engine: &mut DesEngine<u32>) -> Vec<(u64, u32)> {
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut DesEngine<u32>, at: SimTime, ev: u32| {
            seen.push((at.as_micros(), ev));
        });
        seen
    }

    #[test]
    fn fires_in_time_then_insertion_order() {
        let mut engine = DesEngine::new();
        engine.schedule_at(SimTime::from_micros(50), 1);
        engine.schedule_at(SimTime::from_micros(10), 2);
        engine.schedule_at(SimTime::from_micros(50), 3);
        assert_eq!(collect(&mut engine), vec![(10, 2), (50, 1), (50, 3)]);
        assert_eq!(engine.events_executed(), 3);
    }

    #[test]
    fn cancel_then_fire_skips_only_the_cancelled_event() {
        let mut engine = DesEngine::new();
        let a = engine.schedule_at(SimTime::from_micros(10), 1);
        engine.schedule_at(SimTime::from_micros(10), 2);
        let c = engine.schedule_at(SimTime::from_micros(20), 3);
        engine.schedule_at(SimTime::from_micros(30), 4);
        assert_eq!(engine.cancel(a), Some(1));
        assert_eq!(engine.cancel(c), Some(3));
        assert_eq!(engine.cancel(c), None, "double cancel is a no-op");
        assert_eq!(engine.events_pending(), 2);
        assert_eq!(collect(&mut engine), vec![(10, 2), (30, 4)]);
        assert_eq!(engine.events_executed(), 2, "cancelled events never fire");
    }

    #[test]
    fn handlers_schedule_and_cancel_follow_ups() {
        let mut engine: DesEngine<u32> = DesEngine::new();
        engine.schedule_at(SimTime::from_micros(5), 0);
        let mut fired = Vec::new();
        let mut victim: Option<crate::arena::EventHandle> = None;
        engine.run(&mut |eng: &mut DesEngine<u32>, at: SimTime, ev: u32| {
            fired.push((at.as_micros(), ev));
            if ev == 0 {
                // Chain two follow-ups, then cancel the second from the
                // first — cancel-then-fire across handler invocations.
                eng.schedule_in(SimDuration::from_micros(1), 1);
                victim = Some(eng.schedule_in(SimDuration::from_micros(2), 99));
            } else if ev == 1 {
                assert_eq!(eng.cancel(victim.take().unwrap()), Some(99));
                eng.schedule_in(SimDuration::from_micros(5), 2);
            }
        });
        assert_eq!(fired, vec![(5, 0), (6, 1), (11, 2)]);
    }

    #[test]
    fn run_until_parks_and_resumes_with_fifo_ties_intact() {
        let mut engine = DesEngine::new();
        engine.schedule_at(SimTime::from_micros(100), 1);
        engine.schedule_at(SimTime::from_micros(100), 2);
        engine.schedule_at(SimTime::from_micros(10), 0);
        let mut seen = Vec::new();
        let t = engine.run_until(
            &mut |_: &mut DesEngine<u32>, at: SimTime, ev: u32| seen.push((at.as_micros(), ev)),
            SimTime::from_micros(50),
        );
        assert_eq!(t, SimTime::from_micros(50));
        assert_eq!(seen, vec![(10, 0)]);
        assert_eq!(engine.events_pending(), 2);
        // Scheduling between the parked clock and the future events is
        // the wheel's rebase path; order must survive.
        engine.schedule_at(SimTime::from_micros(60), 5);
        engine.run(&mut |_: &mut DesEngine<u32>, at: SimTime, ev: u32| {
            seen.push((at.as_micros(), ev));
        });
        assert_eq!(seen, vec![(10, 0), (60, 5), (100, 1), (100, 2)]);
    }

    #[test]
    fn step_fires_exactly_one_live_event() {
        let mut engine = DesEngine::new();
        let a = engine.schedule_at(SimTime::from_micros(1), 1);
        engine.schedule_at(SimTime::from_micros(2), 2);
        engine.cancel(a);
        let mut seen = Vec::new();
        let mut h = |_: &mut DesEngine<u32>, at: SimTime, ev: u32| seen.push((at.as_micros(), ev));
        assert!(engine.step(&mut h));
        assert!(!engine.step(&mut h));
        assert_eq!(seen, vec![(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine: DesEngine<u32> = DesEngine::new();
        engine.schedule_at(SimTime::from_micros(10), 0);
        engine.run(&mut |eng: &mut DesEngine<u32>, _: SimTime, _: u32| {
            eng.schedule_at(SimTime::from_micros(5), 1);
        });
    }

    #[test]
    fn deterministic_across_runs_and_handle_reuse_patterns() {
        fn run_once(prewarm: usize) -> Vec<(u64, u32)> {
            let mut engine = DesEngine::with_capacity(prewarm);
            // Different arena histories (slot indices, generations) must
            // not leak into the fire order.
            let warm: Vec<_> = (0..prewarm as u32)
                .map(|i| engine.schedule_at(SimTime::from_micros(1), i))
                .collect();
            for h in warm {
                engine.cancel(h);
            }
            for i in 0..200u32 {
                let t = (u64::from(i) * 7919) % 4096;
                engine.schedule_at(SimTime::from_micros(t), i);
            }
            let mut seen = Vec::new();
            engine.run(&mut |_: &mut DesEngine<u32>, at: SimTime, ev: u32| {
                seen.push((at.as_micros(), ev));
            });
            seen
        }
        assert_eq!(run_once(0), run_once(0));
        assert_eq!(run_once(0), run_once(64));
    }

    mod properties {
        use super::*;
        use crate::event::Simulation;
        use proptest::prelude::*;

        type Firing = (SimTime, u64);

        /// The follow-ups event `id` schedules when it fires with `hops`
        /// generations left: a pure function of `(id, hops)`, so the
        /// schedule depends on nothing but the plan. Delays span zero
        /// (same-tick ties), a few ticks, milliseconds (wheel cascades)
        /// and beyond one wheel epoch (calendar overflow).
        fn follow_ups(id: u64, hops: u32) -> Vec<(SimDuration, u64)> {
            if hops == 0 {
                return Vec::new();
            }
            let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(hops);
            (0..1 + (h >> 60) % 2)
                .map(|c| {
                    let hc = h.wrapping_add(c.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    let us = match (hc >> 40) % 4 {
                        0 => 0,
                        1 => (hc >> 32) % 8,
                        2 => (hc >> 32) % 5_000_000,
                        _ => (hc >> 32) % 100_000_000,
                    };
                    (SimDuration::from_micros(us), 2 * id + c + 1)
                })
                .collect()
        }

        fn engine_order(plan: &[(u64, u64)], hops: u32) -> Vec<Firing> {
            let mut engine: DesEngine<(u64, u32)> = DesEngine::new();
            for &(us, id) in plan {
                engine.schedule_at(SimTime::from_micros(us), (id, hops));
            }
            let mut fired = Vec::new();
            engine.run(&mut |eng: &mut DesEngine<(u64, u32)>,
                             at: SimTime,
                             (id, hops): (u64, u32)| {
                fired.push((at, id));
                for (delay, child) in follow_ups(id, hops) {
                    eng.schedule_in(delay, (child, hops - 1));
                }
            });
            fired
        }

        /// The same plan on the boxed-closure model calendar.
        fn model_order(plan: &[(u64, u64)], hops: u32) -> Vec<Firing> {
            fn fire(
                sim: &mut Simulation<Vec<Firing>>,
                fired: &mut Vec<Firing>,
                id: u64,
                hops: u32,
            ) {
                fired.push((sim.now(), id));
                for (delay, child) in follow_ups(id, hops) {
                    sim.schedule_in(delay, move |sim, fired| fire(sim, fired, child, hops - 1));
                }
            }
            let mut sim: Simulation<Vec<Firing>> = Simulation::new();
            for &(us, id) in plan {
                sim.schedule_at(SimTime::from_micros(us), move |sim, fired| {
                    fire(sim, fired, id, hops)
                });
            }
            let mut fired = Vec::new();
            sim.run(&mut fired);
            fired
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any initial schedule whose handlers schedule follow-ups
            /// fires in a total order that is a pure function of the
            /// plan: identical run-to-run, time-monotone, and identical
            /// to the model calendar executing the same plan.
            #[test]
            fn firing_order_is_a_pure_function_of_the_plan(
                plan in prop::collection::vec((0u64..200_000_000, 0u64..1_000), 1..24),
                hops in 0u32..5,
            ) {
                let a = engine_order(&plan, hops);
                prop_assert_eq!(&a, &engine_order(&plan, hops), "engine differs run-to-run");
                prop_assert_eq!(&a, &model_order(&plan, hops), "engine diverged from the model calendar");
                prop_assert!(a.len() >= plan.len());
                for w in a.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0);
                }
            }
        }
    }
}
