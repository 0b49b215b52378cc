//! Power profiles: the paper's Fig. 4 artifact.
//!
//! A [`PowerProfile`] is a sequence of interval-averaged power samples over a
//! window, as reported by a meter, with the derived metrics the paper uses:
//! time-weighted **average power** (Fig. 5), **energy** `E = P̄·t` (Fig. 6)
//! and peak power.

use ivis_sim::{SimDuration, SimTime};

use crate::meter::MeterSample;
use crate::units::{Joules, Watts};

/// An interval-averaged power profile over `[start, end]`.
#[derive(Debug, Clone)]
pub struct PowerProfile {
    start: SimTime,
    samples: Vec<MeterSample>,
}

impl PowerProfile {
    /// Build a profile from meter samples. `start` is the beginning of the
    /// first averaging interval.
    ///
    /// # Panics
    /// Panics if samples are not strictly time-ordered or start before
    /// `start`.
    pub fn from_meter_samples(start: SimTime, samples: Vec<MeterSample>) -> Self {
        let mut prev = start;
        for s in &samples {
            assert!(s.at > prev, "meter samples must be strictly time-ordered");
            prev = s.at;
        }
        PowerProfile { start, samples }
    }

    /// Beginning of the profile window.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// End of the profile window (start when empty).
    pub fn end(&self) -> SimTime {
        self.samples.last().map_or(self.start, |s| s.at)
    }

    /// Window length.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end() - self.start
    }

    /// The raw samples.
    pub fn samples(&self) -> &[MeterSample] {
        &self.samples
    }

    /// Exact energy implied by the samples (Σ avg·interval).
    pub fn energy(&self) -> Joules {
        let mut prev = self.start;
        let mut total = Joules::ZERO;
        for s in &self.samples {
            total += s.avg.over(s.at - prev);
            prev = s.at;
        }
        total
    }

    /// Exact energy over the sub-window `[from, to]`, clipping each
    /// averaging interval to the window. Summing `energy_between` over a
    /// partition of the profile window reproduces [`PowerProfile::energy`],
    /// which is what makes per-phase energy attribution conservative.
    ///
    /// # Panics
    /// Panics if `to < from`.
    pub fn energy_between(&self, from: SimTime, to: SimTime) -> Joules {
        assert!(to >= from, "energy window end precedes start");
        let mut prev = self.start;
        let mut total = Joules::ZERO;
        for s in &self.samples {
            let lo = if prev > from { prev } else { from };
            let hi = if s.at < to { s.at } else { to };
            if hi > lo {
                total += s.avg.over(hi - lo);
            }
            prev = s.at;
            if prev >= to {
                break;
            }
        }
        total
    }

    /// Total energy over a set of disjoint windows: the sum of
    /// [`energy_between`](Self::energy_between) over each. The fault layer
    /// uses this to attribute the energy spent inside retry/backoff
    /// intervals of a degraded run.
    ///
    /// # Panics
    /// Panics if any window's end precedes its start.
    pub fn energy_over(&self, windows: &[(SimTime, SimTime)]) -> Joules {
        windows.iter().fold(Joules::ZERO, |acc, &(from, to)| {
            acc + self.energy_between(from, to)
        })
    }

    /// Time-weighted average power over the window.
    ///
    /// Returns zero power for an empty profile.
    pub fn average_power(&self) -> Watts {
        let d = self.duration();
        if d.is_zero() {
            return Watts::ZERO;
        }
        self.energy().average_over(d)
    }

    /// Highest sample.
    pub fn peak(&self) -> Watts {
        self.samples
            .iter()
            .map(|s| s.avg)
            .fold(Watts::ZERO, |a, b| if b > a { b } else { a })
    }

    /// Lowest sample (zero for an empty profile).
    pub fn floor(&self) -> Watts {
        self.samples
            .iter()
            .map(|s| s.avg)
            .fold(None, |acc: Option<Watts>, b| {
                Some(match acc {
                    None => b,
                    Some(a) => {
                        if b < a {
                            b
                        } else {
                            a
                        }
                    }
                })
            })
            .unwrap_or(Watts::ZERO)
    }

    /// Render the profile as `(minutes_since_start, watts)` rows, the shape
    /// plotted in the paper's Fig. 4.
    pub fn as_rows(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| ((s.at - self.start).as_secs_f64() / 60.0, s.avg.watts()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample(at: u64, w: f64) -> MeterSample {
        MeterSample {
            at: t(at),
            avg: Watts(w),
        }
    }

    #[test]
    fn energy_and_average() {
        let p = PowerProfile::from_meter_samples(
            SimTime::ZERO,
            vec![sample(60, 100.0), sample(120, 300.0)],
        );
        assert_eq!(p.duration(), SimDuration::from_mins(2));
        assert!((p.energy().joules() - (100.0 * 60.0 + 300.0 * 60.0)).abs() < 1e-9);
        assert_eq!(p.average_power(), Watts(200.0));
        assert_eq!(p.peak(), Watts(300.0));
        assert_eq!(p.floor(), Watts(100.0));
    }

    #[test]
    fn energy_between_clips_intervals_and_tiles_exactly() {
        let p = PowerProfile::from_meter_samples(
            SimTime::ZERO,
            vec![sample(60, 100.0), sample(120, 300.0)],
        );
        // Window straddling the sample boundary: 30 s at 100 W + 30 s at 300 W.
        let mid = p.energy_between(t(30), t(90));
        assert!((mid.joules() - (100.0 * 30.0 + 300.0 * 30.0)).abs() < 1e-9);
        // A partition of the full window sums back to energy().
        let parts = p.energy_between(t(0), t(45)).joules()
            + p.energy_between(t(45), t(100)).joules()
            + p.energy_between(t(100), t(120)).joules();
        assert!((parts - p.energy().joules()).abs() < 1e-9);
        // Windows outside the profile contribute nothing.
        assert_eq!(p.energy_between(t(120), t(500)), Joules::ZERO);
        assert_eq!(p.energy_between(t(7), t(7)), Joules::ZERO);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = PowerProfile::from_meter_samples(t(5), vec![]);
        assert_eq!(p.energy(), Joules::ZERO);
        assert_eq!(p.average_power(), Watts::ZERO);
        assert_eq!(p.duration(), SimDuration::ZERO);
        assert_eq!(p.end(), t(5));
    }

    #[test]
    fn uneven_intervals_weighted_correctly() {
        // 60s at 100W then a 30s partial interval at 400W.
        let p = PowerProfile::from_meter_samples(
            SimTime::ZERO,
            vec![sample(60, 100.0), sample(90, 400.0)],
        );
        let e = 100.0 * 60.0 + 400.0 * 30.0;
        assert!((p.energy().joules() - e).abs() < 1e-9);
        assert!((p.average_power().watts() - e / 90.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly time-ordered")]
    fn unordered_samples_rejected() {
        let _ =
            PowerProfile::from_meter_samples(SimTime::ZERO, vec![sample(60, 1.0), sample(60, 2.0)]);
    }

    #[test]
    fn rows_in_minutes() {
        let p = PowerProfile::from_meter_samples(t(60), vec![sample(120, 10.0), sample(180, 20.0)]);
        let rows = p.as_rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].0 - 1.0).abs() < 1e-12);
        assert!((rows[1].0 - 2.0).abs() < 1e-12);
        assert_eq!(rows[1].1, 20.0);
    }
}
