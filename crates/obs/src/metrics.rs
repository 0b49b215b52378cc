//! Metrics registry built on [`TimeSeries`] step functions.
//!
//! Counters and gauges are stored as right-continuous step functions in
//! sim time, the same representation the power meters use. That means
//! integrals (`byte-seconds queued`), time-weighted means (`average PFS
//! utilization`) and time-weighted histograms are *exact* over any
//! window — there is no sampling interval to tune and no aliasing.

use ivis_sim::{SimTime, TimeSeries};

/// How a metric's samples are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative total; each `counter_add` pushes the running sum.
    Counter,
    /// Last-write-wins instantaneous value.
    Gauge,
    /// Distribution of individual observations in deterministic
    /// log-spaced buckets (see `log_bucket_upper`); every raw
    /// observation is retained, because the JSONL export writes each one
    /// and the snapshot's sum, min and max come from the data, not from
    /// bucket midpoints.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Smallest canonical log-bucket upper bound that is `>= v`.
///
/// The bucket grid is HDR-style: every power of two is subdivided into
/// four quarter-octave buckets, so boundaries are `2^e × (1 + k/4)` for
/// `k ∈ {0..3}` — all exactly representable in an `f64`. The bound is
/// derived purely from the value's bit pattern (no `log2`, no libm), so
/// the grid is identical on every platform and thread count. Values
/// `<= 0`, NaN and subnormals collapse into a single `0.0` bucket;
/// values in the top quarter-octave of the finite range round up to
/// `+inf` (the exporter's `+Inf` bucket).
pub(crate) fn log_bucket_upper(v: f64) -> f64 {
    if v <= 0.0 || !v.is_finite() {
        return 0.0;
    }
    let bits = v.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp == 0 {
        // Subnormal: far below any measured duration or depth.
        return 0.0;
    }
    if bits & ((1u64 << 50) - 1) == 0 {
        // Exactly on a quarter-octave boundary: it is its own bound.
        return v;
    }
    let quarter = (bits >> 50) & 0x3;
    let upper_bits = if quarter == 3 {
        (exp + 1) << 52
    } else {
        (exp << 52) | ((quarter + 1) << 50)
    };
    f64::from_bits(upper_bits)
}

/// Count-per-bucket summary of a histogram metric, in ascending bound
/// order, plus the exact aggregates the exporters need.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(upper_bound, count)` per occupied bucket, ascending by bound.
    pub buckets: Vec<(f64, u64)>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    fn from_observations(obs: &[(SimTime, f64)]) -> Self {
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &(_, v) in obs {
            let bound = log_bucket_upper(v);
            match buckets.binary_search_by(|b| b.0.partial_cmp(&bound).expect("bounds are ordered"))
            {
                Ok(i) => buckets[i].1 += 1,
                Err(i) => buckets.insert(i, (bound, 1)),
            }
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        HistogramSnapshot {
            buckets,
            count: obs.len() as u64,
            sum,
            min,
            max,
        }
    }
}

/// One named metric: a step function plus its kind.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    kind: MetricKind,
    series: TimeSeries,
    total: f64,
    /// Raw `(time, value)` observations; populated for histograms only.
    observations: Vec<(SimTime, f64)>,
}

impl Metric {
    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Counter or gauge.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// The underlying step function (cumulative total for counters).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Final cumulative total (counters) or last value (gauges).
    pub fn last_value(&self) -> f64 {
        self.total
    }

    /// Time-weighted mean over `[from, to]`, treating the value before
    /// the first sample as `default`.
    pub fn mean_over(&self, from: SimTime, to: SimTime, default: f64) -> f64 {
        self.series.mean_over(from, to, default)
    }

    /// Raw `(time, value)` observations. Empty unless the metric is a
    /// histogram.
    pub fn observations(&self) -> &[(SimTime, f64)] {
        &self.observations
    }

    /// Log-bucketed summary of a histogram metric's observations;
    /// `None` for counters and gauges.
    pub fn histogram(&self) -> Option<HistogramSnapshot> {
        match self.kind {
            MetricKind::Histogram => Some(HistogramSnapshot::from_observations(&self.observations)),
            _ => None,
        }
    }
}

/// Registry of counters and gauges, addressed by static name.
///
/// A run registers about twenty names and updates them thousands of
/// times, so a lookup is a linear scan of the metrics in first-use
/// order: first for the very `&'static str` it was registered with (one
/// pointer and length compare per metric), then, if a copy of the name
/// lives elsewhere, by content. Either way one name is one metric.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    fn position(&self, name: &str) -> Option<usize> {
        let metrics = &self.metrics;
        metrics
            .iter()
            .position(|m| std::ptr::eq(m.name, name))
            .or_else(|| metrics.iter().position(|m| m.name == name))
    }

    fn slot(&mut self, name: &'static str, kind: MetricKind) -> &mut Metric {
        let idx = self.position(name).unwrap_or_else(|| {
            self.metrics.push(Metric {
                name,
                kind,
                series: TimeSeries::new(),
                total: 0.0,
                observations: Vec::new(),
            });
            self.metrics.len() - 1
        });
        let m = &mut self.metrics[idx];
        assert_eq!(
            m.kind, kind,
            "metric '{name}' registered as {:?}, used as {kind:?}",
            m.kind
        );
        m
    }

    /// Add `delta` to the counter `name` at time `t`, recording the new
    /// cumulative total as a step.
    pub(crate) fn counter_add(&mut self, t: SimTime, name: &'static str, delta: f64) {
        let m = self.slot(name, MetricKind::Counter);
        m.total += delta;
        let total = m.total;
        m.series.push(t, total);
    }

    /// Set the gauge `name` to `value` at time `t`.
    pub(crate) fn gauge_set(&mut self, t: SimTime, name: &'static str, value: f64) {
        let m = self.slot(name, MetricKind::Gauge);
        m.total = value;
        m.series.push(t, value);
    }

    /// Record one observation of `value` in the histogram `name` at time
    /// `t`. The raw sample is retained for the JSONL export; the
    /// step-function view tracks the cumulative observation count and
    /// `last_value` the running sum of observed values.
    pub(crate) fn histogram_record(&mut self, t: SimTime, name: &'static str, value: f64) {
        let m = self.slot(name, MetricKind::Histogram);
        m.observations.push((t, value));
        m.total += value;
        let count = m.observations.len() as f64;
        m.series.push(t, count);
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.position(name).map(|i| &self.metrics[i])
    }

    /// All metrics, in first-use order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Number of registered metrics.
    pub(crate) fn len(&self) -> usize {
        self.metrics.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn counter_accumulates_cumulative_total() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add(t(0.0), "outputs", 1.0);
        reg.counter_add(t(10.0), "outputs", 1.0);
        reg.counter_add(t(20.0), "outputs", 3.0);
        let m = reg.get("outputs").unwrap();
        assert_eq!(m.kind(), MetricKind::Counter);
        assert_eq!(m.last_value(), 5.0);
        assert_eq!(m.series().value_at(t(15.0), 0.0), 2.0);
    }

    #[test]
    fn gauge_is_last_write_wins_step_function() {
        let mut reg = MetricsRegistry::default();
        reg.gauge_set(t(0.0), "util", 0.0);
        reg.gauge_set(t(10.0), "util", 1.0);
        reg.gauge_set(t(30.0), "util", 0.5);
        let m = reg.get("util").unwrap();
        // 10 s at 0.0, 20 s at 1.0, 10 s at 0.5 over [0, 40].
        let mean = m.mean_over(t(0.0), t(40.0), 0.0);
        assert!((mean - (20.0 + 5.0) / 40.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add(t(0.0), "x", 1.0);
        reg.gauge_set(t(1.0), "x", 2.0);
    }

    #[test]
    fn one_name_at_two_addresses_is_one_metric() {
        let copy: &'static str = String::from("outputs").leak();
        assert!(!std::ptr::eq(copy, "outputs"));
        let mut reg = MetricsRegistry::default();
        reg.counter_add(t(0.0), "outputs", 1.0);
        reg.counter_add(t(10.0), copy, 2.0);
        reg.counter_add(t(20.0), "outputs", 4.0);
        assert_eq!(reg.len(), 1);
        for name in ["outputs", copy] {
            let m = reg.get(name).unwrap();
            assert_eq!(m.last_value(), 7.0);
            assert_eq!(m.series().len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "metric 'x' registered as Counter, used as Gauge")]
    fn kind_mismatch_through_a_copied_name_panics() {
        let copy: &'static str = String::from("x").leak();
        let mut reg = MetricsRegistry::default();
        reg.counter_add(t(0.0), "x", 1.0);
        reg.gauge_set(t(1.0), copy, 2.0);
    }

    #[test]
    fn log_buckets_are_quarter_octaves() {
        // Exact boundaries map to themselves.
        for b in [0.25, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0] {
            assert_eq!(log_bucket_upper(b), b, "boundary {b}");
        }
        // Interior values round up to the next quarter-octave.
        assert_eq!(log_bucket_upper(1.1), 1.25);
        assert_eq!(log_bucket_upper(1.3), 1.5);
        assert_eq!(log_bucket_upper(1.9), 2.0);
        assert_eq!(log_bucket_upper(3.9), 4.0);
        assert_eq!(log_bucket_upper(0.3), 0.3125); // 2^-2 × 1.25
        assert_eq!(log_bucket_upper(100.0), 112.0); // 2^6 × 1.75
                                                    // Degenerate inputs share the zero bucket.
        assert_eq!(log_bucket_upper(0.0), 0.0);
        assert_eq!(log_bucket_upper(-4.0), 0.0);
        assert_eq!(log_bucket_upper(f64::NAN), 0.0);
        // The bound is always >= the value and within 25 %.
        for i in 1..2000 {
            let v = i as f64 * 0.0137;
            let b = log_bucket_upper(v);
            assert!(b >= v, "{b} < {v}");
            assert!(b <= v * 1.25 + f64::EPSILON, "{b} > 1.25×{v}");
        }
    }

    #[test]
    fn histogram_metric_records_and_snapshots() {
        let mut reg = MetricsRegistry::default();
        for (at, v) in [(0.0, 1.1), (1.0, 1.2), (2.0, 1.9), (3.0, 8.0)] {
            reg.histogram_record(t(at), "lat", v);
        }
        let m = reg.get("lat").unwrap();
        assert_eq!(m.kind(), MetricKind::Histogram);
        assert_eq!(m.observations().len(), 4);
        // Step view counts observations; last_value sums them.
        assert_eq!(m.series().value_at(t(1.5), 0.0), 2.0);
        assert!((m.last_value() - 12.2).abs() < 1e-12);
        let h = m.histogram().unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets, vec![(1.25, 2), (2.0, 1), (8.0, 1)]);
        assert!((h.sum - 12.2).abs() < 1e-12);
        assert_eq!(h.min, 1.1);
        assert_eq!(h.max, 8.0);
        // Counters and gauges have no histogram view.
        reg.counter_add(t(0.0), "c", 1.0);
        assert!(reg.get("c").unwrap().histogram().is_none());
    }
}
