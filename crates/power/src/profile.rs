//! Power profiles: the paper's Fig. 4 artifact.
//!
//! A [`PowerProfile`] is a sequence of interval-averaged power samples over a
//! window, as reported by a meter, with the derived metrics the paper uses:
//! time-weighted **average power** (Fig. 5), **energy** `E = P̄·t` (Fig. 6)
//! and peak power. It is also the one sampled W(t) signal: a harvested
//! profile [resampled](PowerProfile::resample) at the paper's one-minute
//! cadence (or down to one second) is what the telemetry exports and
//! [`PowerProfile::stats`] summarizes.
//!
//! Interval averaging moves power *within* a reporting interval but never
//! creates or destroys energy, so a resampled profile integrates to the
//! exact integral of its source; the property test at the bottom of this
//! module pins that to 1e-6 against [`PowerProfile::energy_between`].

use ivis_sim::{SimDuration, SimTime};

use crate::meter::{MeterSample, MeteredPdu};
use crate::units::{Joules, Watts};

/// An interval-averaged power profile over `[start, end]`.
#[derive(Debug, Clone)]
pub struct PowerProfile {
    start: SimTime,
    samples: Vec<MeterSample>,
}

/// Summary of a [`PowerProfile`]'s step signal: peak, time-weighted mean
/// and exact time-weighted percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileStats {
    /// Highest sample.
    pub peak: Watts,
    /// Time-weighted mean power.
    pub mean: Watts,
    /// Exact time-weighted median.
    pub p50: Watts,
    /// Exact time-weighted 95th percentile.
    pub p95: Watts,
    /// Exact time-weighted 99th percentile.
    pub p99: Watts,
}

impl PowerProfile {
    /// Build a profile from meter samples. `start` is the beginning of the
    /// first averaging interval.
    ///
    /// # Panics
    /// Panics if samples are not strictly time-ordered or start before
    /// `start`.
    pub fn from_meter_samples(start: SimTime, samples: Vec<MeterSample>) -> Self {
        let profile = PowerProfile { start, samples };
        assert!(
            profile.steps().all(|(from, s)| s.at > from),
            "meter samples must be strictly time-ordered"
        );
        profile
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

    /// Each sample with the start of its averaging interval: the step
    /// signal as `(from, sample)`, the sample holding over
    /// `[from, sample.at]`.
    pub fn steps(&self) -> impl Iterator<Item = (SimTime, MeterSample)> + '_ {
        let starts = std::iter::once(self.start).chain(self.samples.iter().map(|s| s.at));
        starts.zip(self.samples.iter().copied())
    }

    /// Exact energy implied by the samples (Σ avg·interval).
    pub fn energy(&self) -> Joules {
        self.steps().fold(Joules::ZERO, |total, (from, s)| {
            total + s.avg.over(s.at - from)
        })
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
        let mut total = Joules::ZERO;
        for (start, s) in self.steps() {
            let lo = if start > from { start } else { from };
            let hi = if s.at < to { s.at } else { to };
            if hi > lo {
                total += s.avg.over(hi - lo);
            }
            if s.at >= to {
                break;
            }
        }
        total
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
            .reduce(|a, b| if b < a { b } else { a })
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

    /// This profile as a meter reporting every `cadence` would have seen
    /// it: the samples replay as a step signal into a fresh
    /// [`MeteredPdu`], read back over the same window.
    ///
    /// # Panics
    /// Panics if `cadence` is zero.
    pub fn resample(&self, cadence: SimDuration) -> PowerProfile {
        let mut pdu = MeteredPdu::new("", cadence, Watts::ZERO);
        for (from, s) in self.steps() {
            pdu.observe(from, s.avg);
        }
        pdu.profile(self.start, self.end())
    }

    /// Peak, mean and percentiles of the step signal. A percentile is
    /// exact and time-weighted: the power level below which the signal
    /// spent that share of the window. All-zero for an empty profile.
    pub fn stats(&self) -> ProfileStats {
        let mut intervals: Vec<(f64, Watts)> = self
            .steps()
            .map(|(from, s)| ((s.at - from).as_secs_f64(), s.avg))
            .collect();
        let total: f64 = intervals.iter().map(|&(s, _)| s).sum();
        if total <= 0.0 {
            return ProfileStats::default();
        }
        let joules: f64 = intervals.iter().map(|&(s, w)| s * w.watts()).sum();
        intervals.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("watt samples are finite"));
        let quantile = |q: f64| -> Watts {
            let target = q * total;
            let mut cum = 0.0;
            for &(secs, w) in &intervals {
                cum += secs;
                if cum >= target {
                    return w;
                }
            }
            intervals.last().expect("window is non-empty").1
        };
        ProfileStats {
            peak: self.peak(),
            mean: Watts(joules / total),
            p50: quantile(0.5),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
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
        assert_eq!(p.stats(), ProfileStats::default());
        let r = p.resample(SimDuration::from_secs(60));
        assert!(r.samples.is_empty());
        assert_eq!(r.stats(), ProfileStats::default());
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

    /// A 3-minute profile at 1-min cadence: 100 W, 300 W, 100 W.
    fn square_profile() -> PowerProfile {
        PowerProfile::from_meter_samples(
            SimTime::ZERO,
            vec![sample(60, 100.0), sample(120, 300.0), sample(180, 100.0)],
        )
    }

    #[test]
    fn resampling_preserves_energy_at_every_cadence() {
        let p = square_profile();
        for secs in [1, 7, 30, 60, 90, 600] {
            let r = p.resample(SimDuration::from_secs(secs));
            assert!(
                (r.energy().joules() - p.energy().joules()).abs() < 1e-6,
                "cadence {secs}s: {} vs {}",
                r.energy().joules(),
                p.energy().joules()
            );
        }
    }

    #[test]
    fn fine_cadence_reproduces_the_signal() {
        let p = square_profile();
        let fine = p.resample(SimDuration::from_secs(1));
        assert_eq!(fine.samples.len(), 180);
        assert_eq!(fine.samples[0].avg, Watts(100.0));
        assert_eq!(fine.samples[90].avg, Watts(300.0));
        assert_eq!(fine.end(), t(180));
        // Coarse cadence averages across the steps.
        let coarse = p.resample(SimDuration::from_secs(90));
        assert_eq!(coarse.samples.len(), 2);
        assert!(
            (coarse.samples[0].avg.watts() - (60.0 * 100.0 + 30.0 * 300.0) / 90.0).abs() < 1e-9
        );
    }

    #[test]
    fn stats_are_exact_time_weighted_quantiles() {
        let st = square_profile()
            .resample(SimDuration::from_secs(60))
            .stats();
        assert_eq!(st.peak, Watts(300.0));
        // 2 min at 100 W + 1 min at 300 W.
        assert!((st.mean.watts() - (2.0 * 100.0 + 300.0) / 3.0).abs() < 1e-9);
        assert_eq!(st.p50, Watts(100.0)); // signal is <= 100 W for 2/3 of the time
        assert_eq!(st.p95, Watts(300.0));
        assert_eq!(st.p99, Watts(300.0));
    }

    mod energy_conservation_props {
        use super::*;
        use proptest::prelude::*;

        /// Strategy: a step signal as (dwell seconds, watts) pairs.
        fn signal() -> impl Strategy<Value = Vec<(u32, f64)>> {
            prop::collection::vec(((1u32..600), (0.0f64..50_000.0)), 1..24)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For an arbitrary power signal metered at an arbitrary
            /// interval, resampling the harvested profile at an arbitrary
            /// cadence preserves the integral to 1e-6: the sampled W(t)
            /// carries exactly the energy `energy_between` attributes over
            /// the same window.
            #[test]
            fn resampled_integral_matches_energy_between(
                sig in signal(),
                meter_secs in 1u64..120,
                cadence_secs in 1u64..600,
            ) {
                let mut pdu = MeteredPdu::new(
                    "m",
                    SimDuration::from_secs(meter_secs),
                    Watts::ZERO,
                );
                let mut now = SimTime::ZERO;
                for &(dwell, watts) in &sig {
                    pdu.observe(now, Watts(watts));
                    now += SimDuration::from_secs(dwell as u64);
                }
                let profile = pdu.profile(SimTime::ZERO, now);
                let got = profile
                    .resample(SimDuration::from_secs(cadence_secs))
                    .energy()
                    .joules();
                let want = profile
                    .energy_between(profile.start(), profile.end())
                    .joules();
                let tol = 1e-6 * (1.0 + want.abs());
                prop_assert!(
                    (got - want).abs() < tol,
                    "resampled {got} J vs energy_between {want} J"
                );
            }
        }
    }
}
