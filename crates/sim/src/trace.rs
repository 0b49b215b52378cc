//! Time-series recording with step-function semantics.
//!
//! A [`TimeSeries`] holds `(SimTime, f64)` samples interpreted as a
//! right-continuous step function: the value set at time `t` holds until the
//! next sample. This matches how the machine models emit power: "from now on,
//! the node draws P watts". Integration and fixed-interval averaging over
//! this representation are exact, which is what the simulated Raritan/Appro
//! meters rely on.

use crate::time::{SimDuration, SimTime};

/// A right-continuous step-function time series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Record that the value becomes `value` at time `t`.
    ///
    /// Samples must be pushed in non-decreasing time order. Re-recording at
    /// the same timestamp replaces the previous value (last write wins),
    /// matching "the state changed twice in the same instant".
    ///
    /// # Panics
    /// Panics if `t` precedes the last recorded sample.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last_t, last_v)) = self.samples.last() {
            assert!(t >= last_t, "samples must be time-ordered: {t} < {last_t}");
            if t == last_t {
                let n = self.samples.len();
                self.samples[n - 1].1 = value;
                return;
            }
            if last_v == value {
                // Coalesce runs of identical values to keep traces compact.
                return;
            }
        }
        self.samples.push((t, value));
    }

    /// Number of stored change-points.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` iff no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw change-points.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// The value at time `t` (the last change-point at or before `t`).
    /// Returns `default` before the first sample or when empty.
    pub fn value_at(&self, t: SimTime, default: f64) -> f64 {
        match self.samples.partition_point(|&(st, _)| st <= t) {
            0 => default,
            i => self.samples[i - 1].1,
        }
    }

    /// Exact integral of the step function over `[from, to]`.
    ///
    /// The value before the first change-point is taken as `default`.
    /// Units: value-units × seconds (e.g. watts → joules).
    pub fn integrate(&self, from: SimTime, to: SimTime, default: f64) -> f64 {
        assert!(to >= from, "integrate: to < from");
        if from == to {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cur_t = from;
        let mut cur_v = self.value_at(from, default);
        let start = self.samples.partition_point(|&(st, _)| st <= from);
        for &(st, sv) in &self.samples[start..] {
            if st >= to {
                break;
            }
            acc += cur_v * (st - cur_t).as_secs_f64();
            cur_t = st;
            cur_v = sv;
        }
        acc += cur_v * (to - cur_t).as_secs_f64();
        acc
    }

    /// Time-weighted average over `[from, to]`.
    pub fn mean_over(&self, from: SimTime, to: SimTime, default: f64) -> f64 {
        let span = (to - from).as_secs_f64();
        if span == 0.0 {
            return self.value_at(from, default);
        }
        self.integrate(from, to, default) / span
    }

    /// Resample into fixed-width intervals, each reporting the time-weighted
    /// average of the underlying signal — exactly what a metered PDU that
    /// "makes multiple measurements within the interval and reports an
    /// average" produces. Returns `(interval_end_time, average)` pairs
    /// covering `[from, to]`; a final partial interval is averaged over its
    /// actual width.
    pub fn resample_avg(
        &self,
        from: SimTime,
        to: SimTime,
        interval: SimDuration,
        default: f64,
    ) -> Vec<(SimTime, f64)> {
        assert!(!interval.is_zero(), "interval must be positive");
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            let end = (t + interval).min(to);
            out.push((end, self.mean_over(t, end, default)));
            t = end;
        }
        out
    }

    /// Merge: the pointwise sum of two step functions (e.g. adding per-cage
    /// power traces into a cluster trace).
    pub fn sum_with(
        &self,
        other: &TimeSeries,
        default_self: f64,
        default_other: f64,
    ) -> TimeSeries {
        let mut out = TimeSeries::new();
        let mut times: Vec<SimTime> = self
            .samples
            .iter()
            .map(|s| s.0)
            .chain(other.samples.iter().map(|s| s.0))
            .collect();
        times.sort_unstable();
        times.dedup();
        for t in times {
            out.push(
                t,
                self.value_at(t, default_self) + other.value_at(t, default_other),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_at_steps() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), 10.0);
        ts.push(t(3), 20.0);
        assert_eq!(ts.value_at(t(0), 5.0), 5.0);
        assert_eq!(ts.value_at(t(1), 5.0), 10.0);
        assert_eq!(ts.value_at(t(2), 5.0), 10.0);
        assert_eq!(ts.value_at(t(3), 5.0), 20.0);
        assert_eq!(ts.value_at(t(100), 5.0), 20.0);
    }

    #[test]
    fn integrate_exactly() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 10.0);
        ts.push(t(2), 30.0);
        ts.push(t(4), 0.0);
        // [0,2): 10*2 = 20, [2,4): 30*2 = 60, [4,6): 0 => 80
        assert!((ts.integrate(t(0), t(6), 0.0) - 80.0).abs() < 1e-9);
        // Sub-interval [1,3): 10*1 + 30*1 = 40
        assert!((ts.integrate(t(1), t(3), 0.0) - 40.0).abs() < 1e-9);
        // Before first sample uses default
        assert!((ts.integrate(t(0), t(2), 99.0) - 20.0).abs() < 1e-9);
        let mut ts2 = TimeSeries::new();
        ts2.push(t(5), 1.0);
        assert!((ts2.integrate(t(0), t(5), 7.0) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_window() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 100.0);
        ts.push(t(1), 200.0);
        assert!((ts.mean_over(t(0), t(2), 0.0) - 150.0).abs() < 1e-9);
        assert_eq!(ts.mean_over(t(1), t(1), 0.0), 200.0);
    }

    #[test]
    fn resample_matches_meter_semantics() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 0.0);
        ts.push(t(30), 100.0); // half a minute at 0, half at 100
        let samples = ts.resample_avg(t(0), t(120), SimDuration::from_mins(1), 0.0);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, t(60));
        assert!((samples[0].1 - 50.0).abs() < 1e-9);
        assert!((samples[1].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn resample_partial_final_interval() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 10.0);
        let samples = ts.resample_avg(t(0), t(90), SimDuration::from_mins(1), 0.0);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].0, t(90));
        assert!((samples[1].1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn coalesces_identical_values() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 5.0);
        ts.push(t(1), 5.0);
        ts.push(t(2), 5.0);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn same_time_overwrites() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), 5.0);
        ts.push(t(1), 9.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(t(1), 0.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(t(2), 1.0);
        ts.push(t(1), 2.0);
    }

    #[test]
    fn sum_with_combines_pointwise() {
        let mut a = TimeSeries::new();
        a.push(t(0), 1.0);
        a.push(t(2), 3.0);
        let mut b = TimeSeries::new();
        b.push(t(1), 10.0);
        let s = a.sum_with(&b, 0.0, 0.0);
        assert_eq!(s.value_at(t(0), 0.0), 1.0);
        assert_eq!(s.value_at(t(1), 0.0), 11.0);
        assert_eq!(s.value_at(t(2), 0.0), 13.0);
    }
}
