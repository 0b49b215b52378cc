//! The discrete-event engine: arena-allocated events popped from one
//! binary heap.
//!
//! Events are plain values of a caller-chosen type `E` (no per-event
//! `Box`), the queue is a `BinaryHeap` of `(time, seq, handle)` keys, and
//! scheduling returns an [`EventHandle`] that supports O(1) cancellation.
//! Events fire in `(time, seq)` order where `seq` is the insertion
//! counter, so a run is a pure function of the schedule regardless of
//! host, thread count or wall clock; a differential proptest below holds
//! that order equal to a boxed-closure model calendar's, and a second one
//! holds cancellation to a sorted-`Vec` model.
//!
//! The heap fits the traffic the engine carries: the executors' chains
//! keep one event pending, and the serve reactor preloads its arrivals in
//! time order. [`DesEngine::run`] hands every fired event to a closure
//! that receives the engine mutably, so handlers can schedule and cancel
//! follow-up events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arena::{EventArena, EventHandle};
use crate::time::{SimDuration, SimTime};

/// A discrete-event engine over event type `E`.
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
/// engine.run(|_, at, ev| seen.push((at, ev)));
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
    /// Min-heap on `(time, seq)`; `seq` is unique, so the handle never
    /// decides the order. Entries of cancelled events stay until they
    /// reach the top and are skipped there.
    queue: BinaryHeap<Reverse<(SimTime, u64, EventHandle)>>,
}

impl<E> Default for DesEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> DesEngine<E> {
    /// An empty engine with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An engine pre-sized for `cap` concurrent events.
    pub fn with_capacity(cap: usize) -> Self {
        DesEngine {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            arena: EventArena::with_capacity(cap),
            queue: BinaryHeap::with_capacity(cap),
        }
    }

    /// Events fired so far (cancelled events never count).
    pub fn events_executed(&self) -> u64 {
        self.executed
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
        self.queue.push(Reverse((at, self.seq, handle)));
        self.seq += 1;
        handle
    }

    /// Schedule `event` a `delay` after the current time.
    ///
    /// # Panics
    /// Panics with "simulated time overflow" if the current time plus
    /// `delay` is past `SimTime::MAX`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a scheduled event, returning its payload, or `None` if it
    /// already fired or was already cancelled. O(1): the queue keeps its
    /// entry, and [`run`](Self::run) skips it when it reaches the top.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        self.arena.remove(handle)
    }

    /// Fire events in `(time, seq)` order until none is live, with the
    /// clock advanced to each event's time before `handler` sees it.
    /// Returns the final clock value.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) -> SimTime {
        while let Some(Reverse((at, _, handle))) = self.queue.pop() {
            let Some(event) = self.arena.remove(handle) else {
                continue; // cancelled: stale queue entry
            };
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.executed += 1;
            handler(self, at, event);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(engine: &mut DesEngine<u32>) -> Vec<(u64, u32)> {
        let mut seen = Vec::new();
        engine.run(|_, at, ev| seen.push((at.as_micros(), ev)));
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
        assert_eq!(collect(&mut engine), vec![(10, 2), (30, 4)]);
        assert_eq!(engine.events_executed(), 2, "cancelled events never fire");
    }

    #[test]
    fn handlers_schedule_and_cancel_follow_ups() {
        let mut engine: DesEngine<u32> = DesEngine::new();
        engine.schedule_at(SimTime::from_micros(5), 0);
        let mut fired = Vec::new();
        let mut victim: Option<EventHandle> = None;
        engine.run(|eng, at, ev| {
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
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine: DesEngine<u32> = DesEngine::new();
        engine.schedule_at(SimTime::from_micros(10), 0);
        engine.run(|eng, _, _| {
            eng.schedule_at(SimTime::from_micros(5), 1);
        });
    }

    #[test]
    #[should_panic(expected = "simulated time overflow")]
    fn scheduling_past_the_end_of_time_panics() {
        let mut engine: DesEngine<u32> = DesEngine::new();
        engine.schedule_at(SimTime::from_secs(1), 0);
        engine.run(|eng, _, _| {
            eng.schedule_in(SimDuration::from_secs_f64(1e300), 1);
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
            collect(&mut engine)
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
        /// (same-tick ties), a few ticks, seconds and minutes.
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
            engine.run(|eng, at, (id, hops)| {
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

        /// What the event scheduled `id`-th does when it fires, once
        /// `scheduled` events exist: the delays of the follow-ups it
        /// schedules, then the indices of the earlier-scheduled events it
        /// cancels. A victim may have fired already, share a timestamp
        /// with a live event, or be picked twice.
        fn script(id: u64, scheduled: usize, salt: u64) -> (Vec<u64>, Vec<usize>) {
            let mut h = (id ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = || {
                h ^= h >> 29;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h >> 32
            };
            let children = if scheduled < 96 { next() % 3 } else { 0 };
            let delays = (0..children)
                .map(|_| match next() % 3 {
                    0 => 0,
                    1 => next() % 4,
                    _ => next() % 1_000,
                })
                .collect();
            let mut victims = Vec::new();
            for _ in 0..next() % 3 {
                let v = (next() % scheduled as u64) as usize;
                victims.push(v);
                if next() % 4 == 0 {
                    victims.push(v);
                }
            }
            (delays, victims)
        }

        /// Firings `(µs, id)` and every `cancel` result, in call order.
        type Outcome = (Vec<(u64, u64)>, Vec<Option<u64>>);

        fn engine_cancels(plan: &[u64], salt: u64) -> Outcome {
            let mut engine: DesEngine<u64> = DesEngine::new();
            let mut handles: Vec<EventHandle> = plan
                .iter()
                .zip(0..)
                .map(|(&us, id)| engine.schedule_at(SimTime::from_micros(us), id))
                .collect();
            let (mut fired, mut cancels) = (Vec::new(), Vec::new());
            engine.run(|eng, at, id| {
                fired.push((at.as_micros(), id));
                let (delays, victims) = script(id, handles.len(), salt);
                for d in delays {
                    let child = handles.len() as u64;
                    handles.push(eng.schedule_in(SimDuration::from_micros(d), child));
                }
                for v in victims {
                    cancels.push(eng.cancel(handles[v]));
                }
            });
            (fired, cancels)
        }

        /// The same script on a `Vec` of `(µs, id)` kept sorted; an id is
        /// its scheduling order, i.e. the engine's `seq`.
        fn model_cancels(plan: &[u64], salt: u64) -> Outcome {
            let mut pending: Vec<(u64, u64)> = plan.iter().copied().zip(0..).collect();
            pending.sort_unstable();
            let mut scheduled = plan.len();
            let (mut fired, mut cancels) = (Vec::new(), Vec::new());
            while !pending.is_empty() {
                let (at, id) = pending.remove(0);
                fired.push((at, id));
                let (delays, victims) = script(id, scheduled, salt);
                for d in delays {
                    let key = (at + d, scheduled as u64);
                    pending.insert(pending.partition_point(|&e| e < key), key);
                    scheduled += 1;
                }
                for v in victims {
                    let slot = pending.iter().position(|&(_, id)| id == v as u64);
                    cancels.push(slot.map(|i| pending.remove(i).1));
                }
            }
            (fired, cancels)
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

            /// Handlers that cancel earlier-scheduled events — fired,
            /// tied, live or already cancelled — get each payload back
            /// exactly once, and the survivors fire in `(time, seq)`
            /// order, exactly as the sorted-`Vec` model drops and fires
            /// them.
            #[test]
            fn cancellation_matches_a_sorted_vec_model(
                plan in prop::collection::vec(0u64..2_000, 1..16),
                salt in 0u64..u64::MAX,
            ) {
                let (fired, cancels) = engine_cancels(&plan, salt);
                let (model_fired, model_cancels) = model_cancels(&plan, salt);
                prop_assert_eq!(&fired, &model_fired, "survivors fired out of the model's order");
                prop_assert_eq!(&cancels, &model_cancels, "cancel results diverged from the model");
                // Every event scheduled before the last one either fired
                // or came back from `cancel`, and none did both or twice.
                let mut ids: Vec<u64> = fired.iter().map(|f| f.1).collect();
                ids.extend(cancels.iter().flatten());
                ids.sort_unstable();
                prop_assert!(ids.iter().copied().eq(0..ids.len() as u64));
            }
        }
    }
}
