//! Canonical what-if queries: a hashable key plus a pure evaluator.
//!
//! The serving layer (`ivis-serve`) memoizes Eq. 4/6/7 evaluations, which
//! is only sound if (a) two requests that mean the same thing compare
//! equal and (b) evaluation is a pure function of the key. This module
//! provides both halves: [`WhatIfRequest`] canonicalizes the free-form
//! query surface (f64 sampling rates quantized to a fixed grid, the
//! problem spec reduced to a closed enum) into a `Hash + Eq + Ord` tuple,
//! and [`WhatIfAnalyzer::answer`] maps a key to a [`WhatIfAnswer`] using
//! nothing but the analyzer's calibrated constants.

use std::borrow::Cow;
use std::sync::OnceLock;

use ivis_core::PipelineKind;
use ivis_ocean::{ProblemSpec, SamplingRate};

use crate::whatif::WhatIfAnalyzer;

/// Sampling-rate quantum: one millionth of a simulated hour (3.6 ms).
/// Rates closer together than this are the same query.
pub(crate) const RATE_QUANTUM_PER_HOUR: f64 = 1e6;

/// Largest curve whose factors are kept once built: the most points the
/// serving layer accepts.
const KEPT_CURVE_POINTS: usize = 512;

/// The sweep grid's factors `10^(i / n)` for `i` in `0..n`, `n` the
/// curve size: one table per size up to [`KEPT_CURVE_POINTS`], built on
/// first use; a larger curve builds its own.
fn curve_factors(points: u16) -> Cow<'static, [f64]> {
    static TABLES: [OnceLock<Box<[f64]>>; KEPT_CURVE_POINTS + 1] =
        [const { OnceLock::new() }; KEPT_CURVE_POINTS + 1];
    let build = || -> Box<[f64]> {
        let n = f64::from(points.max(1));
        (0..points).map(|i| 10f64.powf(f64::from(i) / n)).collect()
    };
    match TABLES.get(usize::from(points)) {
        Some(table) => Cow::Borrowed(table.get_or_init(build)),
        None => Cow::Owned(build().into_vec()),
    }
}

/// The closed set of problem specifications the query surface exposes.
///
/// Serving arbitrary `ProblemSpec` structs would make the memo key
/// unbounded (and float-field hashing fragile); the paper's analyses only
/// ever use these two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecId {
    /// Six simulated months on the 60 km mesh (the measured runs).
    Paper60km,
    /// One hundred simulated years (the Figs. 9/10 extrapolation).
    Paper100yr,
}

impl SpecId {
    /// The spec this id names.
    pub(crate) fn spec(self) -> ProblemSpec {
        match self {
            SpecId::Paper60km => ProblemSpec::paper_60km(),
            SpecId::Paper100yr => ProblemSpec::paper_100yr(),
        }
    }

    /// Stable label used in URLs and reports.
    pub fn label(self) -> &'static str {
        match self {
            SpecId::Paper60km => "60km",
            SpecId::Paper100yr => "100yr",
        }
    }

    /// Parse a label produced by [`SpecId::label`].
    pub fn parse(s: &str) -> Option<SpecId> {
        match s {
            "60km" => Some(SpecId::Paper60km),
            "100yr" => Some(SpecId::Paper100yr),
            _ => None,
        }
    }
}

/// A canonicalized what-if query — the memoization key.
///
/// Construction quantizes the sampling interval onto a micro-hour grid,
/// so any two f64 rates within `RATE_QUANTUM_PER_HOUR` of each other
/// produce identical keys and the derived [`SamplingRate`] is recovered
/// exactly (`rate_hours` is a pure function of the integer field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WhatIfRequest {
    /// Which problem the query is about.
    pub spec: SpecId,
    /// Which pipeline the query evaluates.
    pub kind: PipelineKind,
    /// Sampling interval in micro-hours (canonical integer form).
    pub rate_micro_hours: u64,
    /// Number of points in the rate-sweep curve attached to the answer.
    pub curve_points: u16,
}

impl WhatIfRequest {
    /// Canonicalize a query. Returns `None` for non-finite or
    /// non-positive rates (there is nothing meaningful to evaluate).
    pub fn new(
        spec: SpecId,
        kind: PipelineKind,
        rate_hours: f64,
        curve_points: u16,
    ) -> Option<Self> {
        if !rate_hours.is_finite() || rate_hours <= 0.0 {
            return None;
        }
        let q = (rate_hours * RATE_QUANTUM_PER_HOUR).round();
        if !(1.0..=1e15).contains(&q) {
            return None;
        }
        Some(WhatIfRequest {
            spec,
            kind,
            rate_micro_hours: q as u64,
            curve_points,
        })
    }

    /// The canonical sampling interval, hours.
    pub fn rate_hours(&self) -> f64 {
        self.rate_micro_hours as f64 / RATE_QUANTUM_PER_HOUR
    }

    /// The canonical sampling rate.
    pub(crate) fn rate(&self) -> SamplingRate {
        SamplingRate::every_hours(self.rate_hours())
    }

    /// Every point of the sweep grid, in order.
    #[cfg(test)]
    fn curve_hours(&self) -> Vec<f64> {
        (0..self.curve_points).map(|i| self.curve_hour(i)).collect()
    }

    /// Point `i` of the sweep grid: `curve_points` intervals spaced
    /// geometrically over one decade starting at the query rate. A pure
    /// function of the key, so memoized and cold evaluations see the same
    /// grid. [`WhatIfAnalyzer::answer`] reads the factors from
    /// `curve_factors` instead; this is the definition it is held to.
    #[cfg(test)]
    fn curve_hour(&self, i: u16) -> f64 {
        let n = f64::from(self.curve_points.max(1));
        self.rate_hours() * 10f64.powf(f64::from(i) / n)
    }
}

/// One point of the rate-sweep curve in a [`WhatIfAnswer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Sampling interval, hours.
    pub hours: f64,
    /// Predicted campaign energy at that interval, joules.
    pub energy_joules: f64,
    /// Predicted storage footprint at that interval, bytes.
    pub storage_bytes: u64,
}

/// The evaluated answer to a [`WhatIfRequest`] — Eqs. 4, 6 and 7 at the
/// query point plus the one-decade sweep curve.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfAnswer {
    /// The key this answer was computed from.
    pub request: WhatIfRequest,
    /// Eq. 6: storage footprint, bytes.
    pub storage_bytes: u64,
    /// Eq. 4: predicted execution time, seconds.
    pub exec_seconds: f64,
    /// Eq. 7: predicted campaign energy, joules.
    pub energy_joules: f64,
    /// In-situ saving over post-processing at this rate, percent.
    pub saving_pct: f64,
    /// The sweep curve: `curve_points` intervals spaced geometrically over
    /// one decade starting at the query rate.
    pub curve: Vec<CurvePoint>,
}

impl WhatIfAnalyzer {
    /// Evaluate a canonical what-if query.
    ///
    /// This is a pure function of `(self, req)`: same analyzer constants
    /// and same key produce a bit-identical answer, which is what lets
    /// the serving layer cache answers and batch duplicate keys. The
    /// curve is one sequential pass over the grid; each point is
    /// evaluated exactly as [`WhatIfAnalyzer::energy_curve`] and
    /// [`WhatIfAnalyzer::storage_curve`] evaluate it, so the two agree
    /// bit for bit.
    pub fn answer(&self, req: &WhatIfRequest) -> WhatIfAnswer {
        let spec = req.spec.spec();
        let rate_hours = req.rate_hours();
        let mut curve = Vec::with_capacity(usize::from(req.curve_points));
        for &factor in curve_factors(req.curve_points).iter() {
            let hours = rate_hours * factor;
            let at = SamplingRate::every_hours(hours);
            curve.push(CurvePoint {
                hours,
                energy_joules: self.energy(req.kind, &spec, at).joules(),
                storage_bytes: self.storage_bytes(req.kind, &spec, at),
            });
        }
        let rate = req.rate();
        WhatIfAnswer {
            request: *req,
            storage_bytes: self.storage_bytes(req.kind, &spec, rate),
            exec_seconds: self.execution_seconds(req.kind, &spec, rate),
            energy_joules: self.energy(req.kind, &spec, rate).joules(),
            saving_pct: self.energy_saving_pct(&spec, rate),
            curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearby_rates_canonicalize_to_one_key() {
        let a = WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, 24.0, 8).unwrap();
        let b =
            WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, 24.0 + 1e-9, 8).unwrap();
        assert_eq!(a, b);
        // ... but a full quantum apart is a different query.
        let c =
            WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, 24.0 + 2e-6, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_rates_are_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-12] {
            assert!(
                WhatIfRequest::new(SpecId::Paper60km, PipelineKind::InSitu, bad, 4).is_none(),
                "rate {bad} should not canonicalize"
            );
        }
    }

    #[test]
    fn answer_is_pure_and_matches_direct_evaluation() {
        let a = WhatIfAnalyzer::paper();
        let req =
            WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::PostProcessing, 24.0, 16).unwrap();
        let x = a.answer(&req);
        let y = a.answer(&req);
        assert_eq!(x, y, "same key must produce a bit-identical answer");
        let spec = ProblemSpec::paper_100yr();
        let rate = SamplingRate::every_hours(24.0);
        assert_eq!(
            x.storage_bytes,
            a.storage_bytes(PipelineKind::PostProcessing, &spec, rate)
        );
        assert_eq!(
            x.energy_joules.to_bits(),
            a.energy(PipelineKind::PostProcessing, &spec, rate)
                .joules()
                .to_bits()
        );
        assert_eq!(x.curve.len(), 16);
        assert_eq!(x.curve[0].hours, 24.0);
    }

    #[test]
    fn answer_curve_equals_the_fig9_and_fig10_sweeps_bit_for_bit() {
        let a = WhatIfAnalyzer::paper();
        for spec in [SpecId::Paper60km, SpecId::Paper100yr] {
            for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
                for rate in [1e-6, 0.75, 24.0, 1e9] {
                    for points in [1, 33, 129, 512] {
                        let req = WhatIfRequest::new(spec, kind, rate, points).unwrap();
                        let hours = req.curve_hours();
                        let energy = a.energy_curve(kind, &spec.spec(), &hours);
                        let storage = a.storage_curve(kind, &spec.spec(), &hours);
                        let curve = a.answer(&req).curve;
                        assert_eq!(curve.len(), hours.len());
                        for ((p, (h, e)), (_, s)) in curve.iter().zip(&energy).zip(&storage) {
                            assert_eq!(p.hours.to_bits(), h.to_bits());
                            assert_eq!(p.energy_joules.to_bits(), e.joules().to_bits());
                            assert_eq!(p.storage_bytes, *s);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn curves_past_the_kept_tables_build_the_same_grid() {
        let a = WhatIfAnalyzer::paper();
        for points in [0, 511, 513, 2_000] {
            let req =
                WhatIfRequest::new(SpecId::Paper100yr, PipelineKind::InSitu, 24.0, points).unwrap();
            let hours: Vec<u64> = req.curve_hours().iter().map(|h| h.to_bits()).collect();
            let answered: Vec<u64> = a
                .answer(&req)
                .curve
                .iter()
                .map(|p| p.hours.to_bits())
                .collect();
            assert_eq!(answered, hours, "{points} points");
        }
    }

    #[test]
    fn curve_grid_is_a_pure_function_of_the_key() {
        let req = WhatIfRequest::new(SpecId::Paper60km, PipelineKind::InSitu, 8.0, 33).unwrap();
        assert_eq!(req.curve_hours(), req.curve_hours());
        assert_eq!(req.curve_hours().len(), 33);
        // Geometric over one decade: last point just below 10x the rate.
        let hs = req.curve_hours();
        assert!(hs[32] < 80.0 && hs[32] > 70.0);
    }

    #[test]
    fn rate_round_trips_through_the_integer_form() {
        for h in [0.5, 8.0, 24.0, 72.0, 8760.0] {
            let req = WhatIfRequest::new(SpecId::Paper60km, PipelineKind::InSitu, h, 1).unwrap();
            assert_eq!(req.rate_hours(), h, "exact grid rates survive");
        }
    }
}
