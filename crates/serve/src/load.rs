//! Deterministic load generation.
//!
//! A [`LoadSchedule`] is a sorted list of `(arrival time, request
//! bytes)` pairs — the full client population flattened onto one
//! simulated timeline. [`LoadSchedule::generate`] builds one as a pure
//! function of `(seed, mix, shape)` using the workspace's seeded
//! xoshiro generator, so the same parameters produce the same byte
//! stream on every host; the benchmark and the determinism tests both
//! lean on that.

use ivis_core::PipelineKind;
use ivis_model::{SpecId, WhatIfRequest};
use ivis_sim::{SimRng, SimTime};

use crate::server::{frame_target, whatif_target};

/// The traffic composition, in integer percent so mixes hash and
/// compare exactly.
#[derive(Debug, Clone, Copy)]
pub struct LoadMix {
    /// Percent of requests that are `/whatif` queries.
    pub whatif_pct: u8,
    /// Distinct what-if rate values the population draws from — the
    /// memoization working-set size.
    pub distinct_rates: u32,
    /// Curve points each what-if query asks for.
    pub curve_points: u16,
    /// Scenario the what-if queries target.
    pub spec: SpecId,
    /// Percent of `/frame` lookups aimed at timesteps that do not
    /// exist (exercises the 404 path).
    pub frame_miss_pct: u8,
    /// Percent of all requests that are malformed bytes (exercises the
    /// 400 path).
    pub malformed_pct: u8,
}

impl Default for LoadMix {
    fn default() -> Self {
        LoadMix {
            whatif_pct: 70,
            distinct_rates: 64,
            curve_points: 33,
            spec: SpecId::Paper100yr,
            frame_miss_pct: 5,
            malformed_pct: 1,
        }
    }
}

/// A flattened client population: `(arrival, raw request bytes)`
/// sorted by arrival time (stable, so equal-time order is the
/// generation order and the replay is unambiguous).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSchedule {
    /// The timeline the reactor replays.
    pub arrivals: Vec<(SimTime, Vec<u8>)>,
}

impl LoadSchedule {
    /// Generate a schedule for `clients` simulated clients issuing
    /// `reqs_per_client` requests each, with arrivals uniform over
    /// `[0, spread_us)` microseconds.
    ///
    /// `frames` and `steps_per_frame` describe the Cinema database the
    /// schedule will be replayed against, so hit/miss targeting is
    /// exact: existing timesteps are multiples of `steps_per_frame`
    /// below `frames * steps_per_frame`, and deliberate misses aim one
    /// past the last frame.
    pub fn generate(
        seed: u64,
        clients: u32,
        reqs_per_client: u32,
        spread_us: u64,
        mix: LoadMix,
        frames: u64,
        steps_per_frame: u64,
    ) -> LoadSchedule {
        assert!(spread_us > 0, "spread must be positive");
        assert!(frames > 0, "need at least one frame to target");
        let mut rng = SimRng::new(seed);
        // Integer draws reduce with a plain modulo, not `SimRng::below`:
        // the recorded schedules (and every digest replayed from them)
        // were generated that way.
        let below = |rng: &mut SimRng, n: u64| rng.next_u64() % n;
        let total = clients as usize * reqs_per_client as usize;
        let mut arrivals: Vec<(SimTime, Vec<u8>)> = Vec::with_capacity(total);
        for _ in 0..total {
            let t = SimTime::from_micros(below(&mut rng, spread_us));
            let roll = below(&mut rng, 100) as u8;
            let bytes = if roll < mix.malformed_pct {
                // Not even a request line — the parser must 400 it.
                b"BORK this is not http\r\n\r\n".to_vec()
            } else if roll < mix.malformed_pct.saturating_add(mix.whatif_pct) {
                let step = below(&mut rng, u64::from(mix.distinct_rates.max(1)));
                // Rates ladder over [1h, 49h) in 0.75h steps modulo the
                // working set; all exactly representable in micro-hours.
                let rate_hours = 1.0 + 0.75 * (step % 64) as f64;
                let kind = if rng.uniform() < 0.5 {
                    PipelineKind::InSitu
                } else {
                    PipelineKind::PostProcessing
                };
                let key = WhatIfRequest::new(mix.spec, kind, rate_hours, mix.curve_points)
                    .expect("generated rates are representable");
                whatif_target(&key)
            } else {
                let miss = below(&mut rng, 100) as u8;
                if miss < mix.frame_miss_pct {
                    frame_target(frames * steps_per_frame + 1)
                } else {
                    let f = below(&mut rng, frames);
                    frame_target(f * steps_per_frame)
                }
            };
            arrivals.push((t, bytes));
        }
        arrivals.sort_by_key(|(t, _)| *t);
        LoadSchedule { arrivals }
    }

    /// Requests in the schedule.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let mix = LoadMix::default();
        let a = LoadSchedule::generate(42, 10, 4, 100_000, mix, 32, 16);
        let b = LoadSchedule::generate(42, 10, 4, 100_000, mix, 32, 16);
        let c = LoadSchedule::generate(43, 10, 4, 100_000, mix, 32, 16);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let s = LoadSchedule::generate(7, 20, 5, 50_000, LoadMix::default(), 8, 16);
        let times: Vec<u64> = s.arrivals.iter().map(|(t, _)| t.as_micros()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert!(times.iter().all(|&t| t < 50_000));
    }

    #[test]
    fn mix_controls_the_request_vocabulary() {
        let mix = LoadMix {
            whatif_pct: 100,
            malformed_pct: 0,
            ..LoadMix::default()
        };
        let s = LoadSchedule::generate(1, 8, 8, 10_000, mix, 8, 16);
        assert!(s
            .arrivals
            .iter()
            .all(|(_, b)| b.starts_with(b"GET /whatif?")));

        let frames_only = LoadMix {
            whatif_pct: 0,
            malformed_pct: 0,
            frame_miss_pct: 0,
            ..LoadMix::default()
        };
        let s = LoadSchedule::generate(1, 8, 8, 10_000, frames_only, 8, 16);
        assert!(s
            .arrivals
            .iter()
            .all(|(_, b)| b.starts_with(b"GET /frame?")));
    }
}
