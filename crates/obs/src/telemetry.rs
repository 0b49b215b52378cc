//! Time-resolved power telemetry: sampled W(t) timelines.
//!
//! The paper's primary instrument is not an energy total but a **power
//! trace**: the Raritan PDU on the Lustre rack and the Appro cage
//! monitors each emit one interval-averaged watt sample per minute, and
//! every characterization figure is derived from those timelines. A
//! [`PowerTimeline`] reconstructs that signal from a [`PowerProfile`]
//! harvested from the campaign meters and replays it through
//! [`MeteredPdu`] interval averaging at a configurable cadence
//! ([`paper_cadence`], one minute, down to one second).
//!
//! Interval averaging moves power *within* a reporting interval but
//! never creates or destroys energy, so the integral of a sampled
//! timeline equals the exact integral of the source signal; the property
//! test at the bottom of this module pins that invariant to 1e-6 against
//! [`PowerProfile::energy_between`], which is what makes the timelines
//! safe to use for attribution-grade accounting and not just plotting.

use ivis_power::meter::{MeterSample, MeteredPdu};
use ivis_power::profile::PowerProfile;
use ivis_power::units::{Joules, Watts};
use ivis_sim::{SimDuration, SimTime};

/// The paper's reporting cadence: one interval-averaged sample per minute.
pub fn paper_cadence() -> SimDuration {
    SimDuration::from_mins(1)
}

/// A sampled W(t) signal: interval-averaged power samples at a fixed
/// cadence, labelled by the component they meter.
#[derive(Debug, Clone)]
pub struct PowerTimeline {
    label: String,
    start: SimTime,
    samples: Vec<MeterSample>,
}

/// Rolling-window summary of a [`PowerTimeline`]: peak, time-weighted
/// mean and exact time-weighted percentiles of the sampled signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineStats {
    /// Window length actually covered by samples.
    pub duration: SimDuration,
    /// Highest sample in the window.
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

impl PowerTimeline {
    /// Resample a harvested [`PowerProfile`] at `cadence`.
    ///
    /// The profile's own interval-averaged samples are replayed as a step
    /// signal into a fresh [`MeteredPdu`] and read back at the requested
    /// cadence — exactly the pathway a physical meter at that cadence
    /// would have seen.
    ///
    /// # Panics
    /// Panics if `cadence` is zero.
    pub fn from_profile(
        label: impl Into<String>,
        profile: &PowerProfile,
        cadence: SimDuration,
    ) -> Self {
        let label = label.into();
        let mut pdu = MeteredPdu::new(label.clone(), cadence, Watts::ZERO);
        let mut prev = profile.start();
        for s in profile.samples() {
            pdu.observe(prev, s.avg);
            prev = s.at;
        }
        let samples = pdu.report(profile.start(), profile.end());
        PowerTimeline {
            label,
            start: profile.start(),
            samples,
        }
    }

    /// Component label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Beginning of the sampled window.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// End of the sampled window (start when empty).
    pub fn end(&self) -> SimTime {
        self.samples.last().map_or(self.start, |s| s.at)
    }

    /// The timeline as a [`PowerProfile`], for reuse of the attribution
    /// machinery (Fig. 4 rows).
    pub(crate) fn as_profile(&self) -> PowerProfile {
        PowerProfile::from_meter_samples(self.start, self.samples.clone())
    }

    /// Exact integral of the sampled signal over the whole window.
    pub fn energy(&self) -> Joules {
        let mut prev = self.start;
        let mut total = Joules::ZERO;
        for s in &self.samples {
            total += s.avg.over(s.at - prev);
            prev = s.at;
        }
        total
    }

    /// `(minutes_since_start, watts)` rows — the shape the paper plots in
    /// Fig. 4 and `phase_power.csv` serializes.
    pub fn rows(&self) -> Vec<(f64, f64)> {
        self.as_profile().as_rows()
    }

    /// `(interval_start, average_watts)` pairs — the step function form
    /// used to publish the timeline as a gauge.
    pub fn gauge_samples(&self) -> Vec<(SimTime, Watts)> {
        let mut prev = self.start;
        let mut out = Vec::with_capacity(self.samples.len());
        for s in &self.samples {
            out.push((prev, s.avg));
            prev = s.at;
        }
        out
    }

    /// Clipped `(seconds, watts)` intervals covering `[from, to]`.
    fn clipped(&self, from: SimTime, to: SimTime) -> Vec<(f64, Watts)> {
        assert!(to >= from, "stats window end precedes start");
        let mut prev = self.start;
        let mut out = Vec::new();
        for s in &self.samples {
            let lo = if prev > from { prev } else { from };
            let hi = if s.at < to { s.at } else { to };
            if hi > lo {
                out.push(((hi - lo).as_secs_f64(), s.avg));
            }
            prev = s.at;
            if prev >= to {
                break;
            }
        }
        out
    }

    /// Rolling-window stats over `[from, to]`. Percentiles are exact
    /// time-weighted quantiles of the step signal: the reported value is
    /// the power level below which the signal spent `q` of the window.
    /// All-zero when the window holds no samples.
    ///
    /// # Panics
    /// Panics if `to < from`.
    pub(crate) fn stats_over(&self, from: SimTime, to: SimTime) -> TimelineStats {
        let mut intervals = self.clipped(from, to);
        let total: f64 = intervals.iter().map(|&(s, _)| s).sum();
        if total <= 0.0 {
            return TimelineStats {
                duration: SimDuration::ZERO,
                peak: Watts::ZERO,
                mean: Watts::ZERO,
                p50: Watts::ZERO,
                p95: Watts::ZERO,
                p99: Watts::ZERO,
            };
        }
        let peak = intervals
            .iter()
            .map(|&(_, w)| w)
            .fold(Watts::ZERO, |a, b| if b > a { b } else { a });
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
        TimelineStats {
            duration: SimDuration::from_secs_f64(total),
            peak,
            mean: Watts(joules / total),
            p50: quantile(0.5),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }

    /// Rolling-window stats over the whole sampled window.
    pub fn stats(&self) -> TimelineStats {
        self.stats_over(self.start, self.end())
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
            let tl = PowerTimeline::from_profile("m", &p, SimDuration::from_secs(secs));
            assert!(
                (tl.energy().joules() - p.energy().joules()).abs() < 1e-6,
                "cadence {secs}s: {} vs {}",
                tl.energy().joules(),
                p.energy().joules()
            );
        }
    }

    #[test]
    fn fine_cadence_reproduces_the_signal() {
        let p = square_profile();
        let tl = PowerTimeline::from_profile("m", &p, SimDuration::from_secs(1));
        assert_eq!(tl.samples.len(), 180);
        assert_eq!(tl.samples[0].avg, Watts(100.0));
        assert_eq!(tl.samples[90].avg, Watts(300.0));
        assert_eq!(tl.end(), t(180));
        // Coarse cadence averages across the steps.
        let coarse = PowerTimeline::from_profile("m", &p, SimDuration::from_secs(90));
        assert_eq!(coarse.samples.len(), 2);
        assert!(
            (coarse.samples[0].avg.watts() - (60.0 * 100.0 + 30.0 * 300.0) / 90.0).abs() < 1e-9
        );
    }

    #[test]
    fn stats_are_exact_time_weighted_quantiles() {
        let p = square_profile();
        let tl = PowerTimeline::from_profile("m", &p, SimDuration::from_secs(60));
        let st = tl.stats();
        assert_eq!(st.duration, SimDuration::from_mins(3));
        assert_eq!(st.peak, Watts(300.0));
        // 2 min at 100 W + 1 min at 300 W.
        assert!((st.mean.watts() - (2.0 * 100.0 + 300.0) / 3.0).abs() < 1e-9);
        assert_eq!(st.p50, Watts(100.0)); // signal is <= 100 W for 2/3 of the time
        assert_eq!(st.p95, Watts(300.0));
        assert_eq!(st.p99, Watts(300.0));
    }

    #[test]
    fn empty_profile_gives_empty_timeline_and_zero_stats() {
        let p = PowerProfile::from_meter_samples(t(5), vec![]);
        let tl = PowerTimeline::from_profile("m", &p, SimDuration::from_secs(60));
        assert!(tl.samples.is_empty());
        assert_eq!(tl.energy(), Joules::ZERO);
        let st = tl.stats();
        assert_eq!(st.peak, Watts::ZERO);
        assert_eq!(st.duration, SimDuration::ZERO);
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

            /// The tentpole invariant: for an arbitrary power signal
            /// metered at an arbitrary interval, resampling the harvested
            /// profile at an arbitrary cadence preserves the integral to
            /// 1e-6 — the sampled W(t) timeline carries exactly the energy
            /// `energy_between` attributes over the same window.
            #[test]
            fn sampled_timeline_integral_matches_energy_between(
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
                let tl = PowerTimeline::from_profile(
                    "m",
                    &profile,
                    SimDuration::from_secs(cadence_secs),
                );
                let got = tl.energy().joules();
                let want = profile
                    .energy_between(profile.start(), profile.end())
                    .joules();
                let tol = 1e-6 * (1.0 + want.abs());
                prop_assert!(
                    (got - want).abs() < tol,
                    "timeline {got} J vs energy_between {want} J"
                );
            }
        }
    }
}
