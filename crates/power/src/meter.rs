//! Simulated power meters.
//!
//! The paper's instrumentation reports **one averaged power sample per
//! minute**: the Raritan metered PDU on the Lustre rack and the Appro
//! cage-level monitors on the compute cluster both integrate the true signal
//! within each interval and emit its average. [`MeteredPdu`] reproduces that
//! pathway: models write the *true* (instantaneous) power signal into the
//! meter; reading it back yields interval-averaged samples, from which
//! derived metrics (energy, average power) are computed exactly as the paper
//! computes them.

use ivis_sim::{SimDuration, SimTime, TimeSeries};

use crate::profile::PowerProfile;
use crate::units::Watts;

/// One reported meter sample: the average power over the interval ending at
/// `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterSample {
    /// End of the averaging interval.
    pub at: SimTime,
    /// Average power over the interval.
    pub avg: Watts,
}

/// A metered PDU that observes a continuous power signal and reports
/// interval-averaged samples.
#[derive(Debug, Clone)]
pub struct MeteredPdu {
    label: String,
    interval: SimDuration,
    signal: TimeSeries,
    baseline: Watts,
}

impl MeteredPdu {
    /// Create a meter reporting at the given interval. `baseline` is the
    /// power assumed before the first observation (meters on always-on
    /// equipment never see zero).
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(label: impl Into<String>, interval: SimDuration, baseline: Watts) -> Self {
        assert!(!interval.is_zero(), "meter interval must be positive");
        MeteredPdu {
            label: label.into(),
            interval,
            signal: TimeSeries::new(),
            baseline,
        }
    }

    /// A Raritan-style rack meter: one sample per minute.
    pub fn raritan_rack(label: impl Into<String>, baseline: Watts) -> Self {
        MeteredPdu::new(label, SimDuration::from_mins(1), baseline)
    }

    /// An Appro cage monitor: one sample per minute.
    pub fn appro_cage(label: impl Into<String>, baseline: Watts) -> Self {
        MeteredPdu::new(label, SimDuration::from_mins(1), baseline)
    }

    /// Human-readable meter label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The reporting interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The power assumed before the first observation.
    pub fn baseline(&self) -> Watts {
        self.baseline
    }

    /// This meter, having observed `signal` instead of what it has seen.
    pub fn with_signal(mut self, signal: TimeSeries) -> Self {
        self.signal = signal;
        self
    }

    /// Record that the observed equipment draws `power` from time `t`
    /// onward (until the next observation).
    pub fn observe(&mut self, t: SimTime, power: Watts) {
        self.signal.push(t, power.watts());
    }

    /// The true (unquantized) signal — available in simulation, not in the
    /// real world; used to validate that metering loses little information.
    pub fn true_signal(&self) -> &TimeSeries {
        &self.signal
    }

    /// Interval-averaged samples covering `[from, to]`, as the physical
    /// meter would report them.
    pub fn report(&self, from: SimTime, to: SimTime) -> Vec<MeterSample> {
        self.signal
            .resample_avg(from, to, self.interval, self.baseline.watts())
            .into_iter()
            .map(|(at, avg)| MeterSample {
                at,
                avg: Watts(avg),
            })
            .collect()
    }

    /// A [`PowerProfile`] built from the reported (quantized) samples.
    pub fn profile(&self, from: SimTime, to: SimTime) -> PowerProfile {
        PowerProfile::from_meter_samples(from, self.report(from, to))
    }

    /// Exact energy over `[from, to]` from the true signal: the oracle
    /// the sampled energy is tested against.
    #[cfg(test)]
    fn true_energy(&self, from: SimTime, to: SimTime) -> crate::units::Joules {
        crate::units::Joules(self.signal.integrate(from, to, self.baseline.watts()))
    }
}

/// Sums several meters' true signals into one aggregate meter (e.g. the 15
/// cage monitors covering all 150 *Caddy* nodes).
pub fn aggregate(label: impl Into<String>, meters: &[MeteredPdu]) -> MeteredPdu {
    assert!(!meters.is_empty(), "cannot aggregate zero meters");
    let interval = meters[0].interval;
    let baseline = Watts(meters.iter().map(|m| m.baseline.watts()).sum());
    let mut signal = meters[0].signal.clone();
    let mut base_acc = meters[0].baseline.watts();
    for m in &meters[1..] {
        assert_eq!(
            m.interval, interval,
            "aggregated meters must share an interval"
        );
        signal = signal.sum_with(&m.signal, base_acc, m.baseline.watts());
        base_acc += m.baseline.watts();
    }
    MeteredPdu {
        label: label.into(),
        interval,
        signal,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn minute_averaging_matches_paper_semantics() {
        let mut pdu = MeteredPdu::raritan_rack("lustre", Watts(2273.0));
        // Load ramps to full for 30s inside the first minute.
        pdu.observe(t(15), Watts(2302.0));
        pdu.observe(t(45), Watts(2273.0));
        let samples = pdu.report(SimTime::ZERO, t(60));
        assert_eq!(samples.len(), 1);
        // 15s idle + 30s full + 15s idle => avg = 2273 + 29*0.5 = 2287.5
        assert!((samples[0].avg.watts() - 2287.5).abs() < 1e-9);
    }

    #[test]
    fn report_covers_whole_window() {
        let mut pdu = MeteredPdu::appro_cage("cage0", Watts(1000.0));
        pdu.observe(SimTime::ZERO, Watts(2000.0));
        let samples = pdu.report(SimTime::ZERO, t(330));
        // 5 full minutes + one 30s partial.
        assert_eq!(samples.len(), 6);
        assert_eq!(samples[5].at, t(330));
        for s in &samples {
            assert_eq!(s.avg, Watts(2000.0));
        }
    }

    #[test]
    fn sampled_energy_equals_true_energy_for_aligned_signal() {
        // When power changes only at minute boundaries, metering is lossless.
        let mut pdu = MeteredPdu::raritan_rack("m", Watts(100.0));
        pdu.observe(t(0), Watts(100.0));
        pdu.observe(t(60), Watts(200.0));
        pdu.observe(t(120), Watts(100.0));
        let e_meter = pdu.profile(t(0), t(180)).energy();
        let e_true = pdu.true_energy(t(0), t(180));
        assert!((e_meter.joules() - e_true.joules()).abs() < 1e-6);
        assert!((e_true.joules() - (100.0 * 120.0 + 200.0 * 60.0)).abs() < 1e-6);
    }

    #[test]
    fn sampled_energy_equals_true_energy_even_when_quantized() {
        // Interval averaging preserves the integral exactly (it only loses
        // the shape within the interval).
        let mut pdu = MeteredPdu::raritan_rack("m", Watts(0.0));
        pdu.observe(t(10), Watts(500.0));
        pdu.observe(t(70), Watts(0.0));
        pdu.observe(t(95), Watts(300.0));
        let e_meter = pdu.profile(t(0), t(180)).energy();
        let e_true = pdu.true_energy(t(0), t(180));
        assert!((e_meter.joules() - e_true.joules()).abs() < 1e-6);
    }

    #[test]
    fn baseline_applies_before_first_observation() {
        let pdu = MeteredPdu::raritan_rack("idle-rack", Watts(2273.0));
        let samples = pdu.report(SimTime::ZERO, t(120));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].avg, Watts(2273.0));
    }

    #[test]
    fn aggregate_sums_signals() {
        let mut a = MeteredPdu::appro_cage("cage0", Watts(1000.0));
        let mut b = MeteredPdu::appro_cage("cage1", Watts(1000.0));
        a.observe(t(0), Watts(2933.0));
        b.observe(t(60), Watts(2933.0));
        let agg = aggregate("cluster", &[a, b]);
        let samples = agg.report(SimTime::ZERO, t(120));
        assert!((samples[0].avg.watts() - 3933.0).abs() < 1e-9);
        assert!((samples[1].avg.watts() - 5866.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = MeteredPdu::new("bad", SimDuration::ZERO, Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot aggregate zero meters")]
    fn aggregate_empty_rejected() {
        let _ = aggregate("x", &[]);
    }
}
