//! The discrete-event engine: one binary heap of pending events.
//!
//! Events are plain values of a caller-chosen type `E` (no per-event
//! `Box`), held in a `BinaryHeap` of `(time, seq, event)` entries ordered
//! on `(time, seq)` alone, where `seq` is the insertion counter. Events
//! therefore fire in `(time, seq)` order, and a run is a pure function of
//! the schedule regardless of host, thread count or wall clock; a
//! differential proptest below holds that order equal to a boxed-closure
//! model calendar's.
//!
//! A scheduled event always fires: there is no cancellation. A caller
//! that may no longer want an event makes its handler a no-op instead,
//! as the serve reactor's batch deadlines do once their batch has filled.
//! The heap fits the traffic the engine carries: the executors' chains
//! keep one event pending, and the serve reactor preloads its arrivals in
//! time order. [`DesEngine::run`] hands every fired event to a closure
//! that receives the engine mutably, so handlers can schedule follow-up
//! events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A discrete-event engine over event type `E`.
///
/// ```
/// use ivis_sim::{DesEngine, SimDuration, SimTime};
///
/// let mut engine: DesEngine<&str> = DesEngine::new();
/// engine.schedule_in(SimDuration::from_secs(2), "late");
/// engine.schedule_in(SimDuration::from_secs(1), "early");
/// engine.schedule_in(SimDuration::from_secs(1), "tied");
/// let mut seen = Vec::new();
/// engine.run(|_, at, ev| seen.push((at, ev)));
/// assert_eq!(
///     seen,
///     vec![
///         (SimTime::from_secs(1), "early"),
///         (SimTime::from_secs(1), "tied"),
///         (SimTime::from_secs(2), "late"),
///     ]
/// );
/// ```
pub struct DesEngine<E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    queue: BinaryHeap<Scheduled<E>>,
}

/// One pending event. `seq` is unique, so `(at, seq)` orders entries
/// totally and the payload never takes part in a comparison.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
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
            queue: BinaryHeap::with_capacity(cap),
        }
    }

    /// Events fired so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` a `delay` after the current time.
    ///
    /// # Panics
    /// Panics with "simulated time overflow" if the current time plus
    /// `delay` is past `SimTime::MAX`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Fire every event in `(time, seq)` order until the heap is empty,
    /// including those the handler schedules, with the clock advanced to
    /// each event's time before `handler` sees it. Returns the final
    /// clock value.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) -> SimTime {
        while let Some(Scheduled { at, event, .. }) = self.queue.pop() {
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
