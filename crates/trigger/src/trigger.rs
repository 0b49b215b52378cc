//! The adaptive trigger: score candidate viewpoints, pick the best
//! camera, and adapt the sampling interval to what the field is doing.
//!
//! Each analysis step the executor hands the trigger one global eddy
//! census plus the per-viewpoint scores for the current field. The
//! trigger then makes two decisions, both pure functions of field
//! state (never wall clock, never thread count):
//!
//! 1. **Which camera** — the candidate whose rendered frame carries the
//!    most Shannon entropy (ties break to the lowest index, so the
//!    polar overview wins when everything looks alike).
//! 2. **How often** — a hysteresis loop on census *activity* (eddy
//!    count changes and relative core-mass swings between consecutive
//!    analyses). High activity halves the sampling interval, quiet
//!    stretches double it, and the interval is always clamped to the
//!    configured `[min_interval, max_interval]` band.

use ivis_eddy::census::FrameCensus;
use ivis_eddy::features::EddyFeature;
use ivis_ocean::Field2D;
use ivis_viz::render::FieldRenderer;

use crate::entropy::image_entropy_bits;
use crate::viewpoint::{extract_window, ViewWindow, Viewpoint, ViewpointGrid};

/// Knobs for the adaptive trigger. All intervals are in analysis
/// periods of the driving executor (simulation steps between `analyze`
/// calls), so the trigger itself never sees absolute time.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerConfig {
    /// Simulation steps between analyses (the cadence `analyze` is called at).
    pub analysis_interval: u64,
    /// Number of candidate viewpoints on the spherical grid (≥ 1).
    pub candidates: usize,
    /// Tightest allowed emission interval, in steps.
    pub min_interval: u64,
    /// Most relaxed allowed emission interval, in steps.
    pub max_interval: u64,
    /// Activity at or above this tightens the interval (halves it).
    pub tighten_threshold: f64,
    /// Activity at or below this relaxes the interval (doubles it).
    pub relax_threshold: f64,
    /// Domain fraction a non-polar candidate window covers per axis.
    pub zoom: f64,
    /// Width of the low-res evaluation render each candidate is scored on.
    pub eval_width: usize,
    /// Height of the low-res evaluation render.
    pub eval_height: usize,
}

impl TriggerConfig {
    /// A small deterministic default tuned for the native tiny/small
    /// scenarios: analyze every `analysis_interval` steps with
    /// `candidates` cameras, adapt between 1× and 4× that cadence.
    pub fn new(analysis_interval: u64, candidates: usize) -> Self {
        let analysis_interval = analysis_interval.max(1);
        TriggerConfig {
            analysis_interval,
            candidates: candidates.max(1),
            min_interval: analysis_interval,
            max_interval: analysis_interval * 4,
            tighten_threshold: 1.0,
            relax_threshold: 0.25,
            zoom: 0.5,
            eval_width: 48,
            eval_height: 32,
        }
    }

    /// Reject an inconsistent configuration at configuration time, not
    /// mid-campaign; the error names the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.analysis_interval < 1 {
            return Err("analysis_interval must be ≥ 1".to_string());
        }
        if self.min_interval < 1 {
            return Err("min_interval must be ≥ 1".to_string());
        }
        if self.min_interval > self.max_interval {
            return Err(format!(
                "min_interval {} must be ≤ max_interval {}",
                self.min_interval, self.max_interval
            ));
        }
        // NaN on either side is as bad as an inverted pair.
        let order = self.relax_threshold.partial_cmp(&self.tighten_threshold);
        if matches!(order, None | Some(std::cmp::Ordering::Greater)) {
            return Err(format!(
                "relax_threshold {} must be ≤ tighten_threshold {}",
                self.relax_threshold, self.tighten_threshold
            ));
        }
        if self.candidates < 1 {
            return Err("need at least one candidate".to_string());
        }
        if self.eval_width < 2 || self.eval_height < 2 {
            return Err("evaluation render must be at least 2×2".to_string());
        }
        Ok(())
    }
}

/// Score of one candidate viewpoint for one analysis step.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewpointScore {
    /// The candidate camera.
    pub viewpoint: Viewpoint,
    /// Shannon entropy of its evaluation render, bits.
    pub entropy_bits: f64,
    /// Eddies whose centroid falls inside its window.
    pub census_count: usize,
    /// Total core area inside its window, m².
    pub census_mass_m2: f64,
}

/// Is a feature centroid (fractional coords `u`,`v`) inside the window,
/// honoring x-periodicity?
fn window_contains(win: &ViewWindow, u: f64, v: f64) -> bool {
    let mut du = (u - win.cx).abs();
    if du > 0.5 {
        du = 1.0 - du;
    }
    du <= win.half_w && (v - win.cy).abs() <= win.half_h
}

/// Score every candidate on the grid against the current Okubo-Weiss
/// field and its extracted features. `lx`/`ly` are the physical domain
/// extents (to place feature centroids in fractional coordinates).
///
/// Candidates score one after another, in index order: the executor
/// already runs whole analyses in parallel, and a second fan-out under
/// them measured no faster (EXPERIMENTS.md, Fan-out sites). Each score is
/// a pure function of `(field, feats, viewpoint)`.
pub fn score_viewpoints(
    grid: &ViewpointGrid,
    w: &Field2D,
    feats: &[EddyFeature],
    lx: f64,
    ly: f64,
    cfg: &TriggerConfig,
) -> Vec<ViewpointScore> {
    let renderer = FieldRenderer::okubo_weiss(cfg.eval_width, cfg.eval_height);
    grid.views()
        .iter()
        .map(|vp| {
            let win = vp.window(cfg.zoom);
            let sub = extract_window(w, &win, cfg.eval_width, cfg.eval_height);
            let entropy_bits = image_entropy_bits(&renderer.render(&sub));
            let mut census_count = 0;
            let mut census_mass_m2 = 0.0;
            for f in feats {
                if window_contains(&win, f.x / lx, f.y / ly) {
                    census_count += 1;
                    census_mass_m2 += f.area_m2;
                }
            }
            ViewpointScore {
                viewpoint: *vp,
                entropy_bits,
                census_count,
                census_mass_m2,
            }
        })
        .collect()
}

/// Index of the winning candidate: maximum entropy, ties (and NaN
/// scores, which compare as "not greater") falling back to the lowest
/// index — the polar overview.
pub fn select_best(scores: &[ViewpointScore]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate().skip(1) {
        if s.entropy_bits > scores[best].entropy_bits {
            best = i;
        }
    }
    best
}

/// One trigger decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDecision {
    /// Simulation step the decision was made at.
    pub step: u64,
    /// Whether a full-resolution frame should be emitted now.
    pub emit: bool,
    /// The emission interval in force *after* this analysis, steps.
    pub interval_steps: u64,
    /// The census activity that drove the adaptation.
    pub activity: f64,
    /// Winning candidate index.
    pub best_viewpoint: usize,
    /// Winning candidate's entropy, bits.
    pub best_entropy_bits: f64,
}

/// The stateful rate controller. Feed it one `(census, scores)` pair per
/// analysis step, in step order; it returns the emit/interval decision.
#[derive(Debug, Clone)]
pub struct AdaptiveTrigger {
    cfg: TriggerConfig,
    interval: u64,
    last_emit: Option<u64>,
    prev: Option<FrameCensus>,
}

impl AdaptiveTrigger {
    /// Build a trigger; starts at the configured `analysis_interval`
    /// clamped into the `[min, max]` band.
    ///
    /// # Errors
    ///
    /// The rule [`TriggerConfig::validate`] names, if it rejects `cfg`.
    pub fn new(cfg: TriggerConfig) -> Result<Self, String> {
        cfg.validate()?;
        let interval = cfg
            .analysis_interval
            .clamp(cfg.min_interval, cfg.max_interval);
        Ok(AdaptiveTrigger {
            cfg,
            interval,
            last_emit: None,
            prev: None,
        })
    }

    /// Census activity between consecutive analyses: the eddy-count
    /// delta plus the relative swing in total core mass. Zero when
    /// nothing changed; ≥ 1 whenever an eddy was born, died, or merged.
    /// The very first analysis scores the population itself so a busy
    /// initial field starts tight.
    fn activity(&self, census: &FrameCensus) -> f64 {
        match &self.prev {
            None => census.count as f64,
            Some(p) => {
                let count_delta = census.count.abs_diff(p.count) as f64;
                let denom = census.total_area_m2.max(p.total_area_m2);
                let mass_delta = if denom > 0.0 {
                    (census.total_area_m2 - p.total_area_m2).abs() / denom
                } else {
                    0.0
                };
                count_delta + mass_delta
            }
        }
    }

    /// Analyze one step. `scores` must be the candidate scores for the
    /// same field state as `census`.
    pub fn analyze(
        &mut self,
        step: u64,
        census: &FrameCensus,
        scores: &[ViewpointScore],
    ) -> TriggerDecision {
        assert!(!scores.is_empty(), "need at least one candidate score");
        let activity = self.activity(census);
        // Hysteresis: tighten fast on activity, relax slowly in quiet.
        if activity >= self.cfg.tighten_threshold {
            self.interval = (self.interval / 2).max(self.cfg.min_interval);
        } else if activity <= self.cfg.relax_threshold {
            self.interval = self.interval.saturating_mul(2).min(self.cfg.max_interval);
        }
        self.interval = self
            .interval
            .clamp(self.cfg.min_interval, self.cfg.max_interval);
        let emit = match self.last_emit {
            None => true,
            Some(last) => step.saturating_sub(last) >= self.interval,
        };
        if emit {
            self.last_emit = Some(step);
        }
        self.prev = Some(census.clone());
        let best = select_best(scores);
        TriggerDecision {
            step,
            emit,
            interval_steps: self.interval,
            activity,
            best_viewpoint: best,
            best_entropy_bits: scores[best].entropy_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn census(count: usize, mass: f64) -> FrameCensus {
        FrameCensus {
            count,
            mean_radius_m: 1.0,
            strongest_w: -1.0,
            total_area_m2: mass,
        }
    }

    fn flat_scores(n: usize) -> Vec<ViewpointScore> {
        ViewpointGrid::spherical(n)
            .views()
            .iter()
            .map(|vp| ViewpointScore {
                viewpoint: *vp,
                entropy_bits: 1.0,
                census_count: 0,
                census_mass_m2: 0.0,
            })
            .collect()
    }

    #[test]
    fn first_analysis_always_emits() {
        let mut t = AdaptiveTrigger::new(TriggerConfig::new(8, 5)).expect("valid config");
        let d = t.analyze(0, &census(0, 0.0), &flat_scores(5));
        assert!(d.emit);
    }

    #[test]
    fn quiet_field_relaxes_to_max_interval() {
        let cfg = TriggerConfig::new(8, 1);
        let max = cfg.max_interval;
        let mut t = AdaptiveTrigger::new(cfg).expect("valid config");
        let c = census(2, 100.0);
        for k in 0..10 {
            t.analyze(k * 8, &c, &flat_scores(1));
        }
        assert_eq!(t.interval, max);
    }

    #[test]
    fn births_tighten_to_min_interval() {
        let cfg = TriggerConfig::new(8, 1);
        let min = cfg.min_interval;
        let mut t = AdaptiveTrigger::new(cfg).expect("valid config");
        // Eddy count climbs every analysis: sustained activity.
        for k in 0..10u64 {
            t.analyze(
                k * 8,
                &census(k as usize, 100.0 * k as f64),
                &flat_scores(1),
            );
        }
        assert_eq!(t.interval, min);
    }

    #[test]
    fn emission_respects_the_interval() {
        let mut cfg = TriggerConfig::new(4, 1);
        cfg.min_interval = 8;
        cfg.max_interval = 8;
        let mut t = AdaptiveTrigger::new(cfg).expect("valid config");
        let c = census(1, 10.0);
        let emitted: Vec<u64> = (0..8u64)
            .filter(|k| t.analyze(k * 4, &c, &flat_scores(1)).emit)
            .map(|k| k * 4)
            .collect();
        // With the interval pinned at 8 steps and analyses every 4,
        // every other analysis emits.
        assert_eq!(emitted, vec![0, 8, 16, 24]);
    }

    #[test]
    fn best_viewpoint_is_max_entropy_lowest_index_on_ties() {
        let mut scores = flat_scores(5);
        scores[3].entropy_bits = 7.5;
        assert_eq!(select_best(&scores), 3);
        let flat = flat_scores(5);
        assert_eq!(select_best(&flat), 0, "ties fall to the overview");
        let mut with_nan = flat_scores(3);
        with_nan[1].entropy_bits = f64::NAN;
        assert_eq!(select_best(&with_nan), 0, "NaN never wins");
    }

    #[test]
    fn window_census_attributes_mass_to_the_right_camera() {
        use ivis_eddy::features::EddyFeature;
        let w = Field2D::from_fn(64, 32, |i, j| {
            // A deep OW well in the left half only.
            let (dx, dy) = (i as f64 - 16.0, j as f64 - 16.0);
            -(-(dx * dx + dy * dy) / 20.0).exp()
        });
        let feats = vec![EddyFeature {
            label: 0,
            x: 0.25 * 640_000.0,
            y: 0.5 * 320_000.0,
            area_cells: 10,
            area_m2: 1.0e9,
            radius_m: (1.0e9 / std::f64::consts::PI).sqrt(),
            w_min: -1.0,
        }];
        let cfg = TriggerConfig::new(8, 10);
        let grid = ViewpointGrid::spherical(cfg.candidates);
        let scores = score_viewpoints(&grid, &w, &feats, 640_000.0, 320_000.0, &cfg);
        // The overview always sees the eddy...
        assert_eq!(scores[0].census_count, 1);
        // ...and at least one zoomed camera misses it.
        assert!(scores.iter().any(|s| s.census_count == 0));
        // Scores arrive in candidate order.
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(s.viewpoint.index, i);
        }
    }

    #[test]
    fn inverted_band_is_rejected_at_construction() {
        let mut cfg = TriggerConfig::new(8, 1);
        cfg.min_interval = 32;
        cfg.max_interval = 8;
        let err = AdaptiveTrigger::new(cfg).expect_err("inverted band");
        assert_eq!(err, "min_interval 32 must be ≤ max_interval 8");
    }

    #[test]
    fn validate_names_the_violated_rule() {
        assert_eq!(TriggerConfig::new(8, 5).validate(), Ok(()));
        let mut band = TriggerConfig::new(8, 1);
        band.min_interval = 64;
        let err = band.validate().expect_err("inverted band");
        assert!(err.contains("min_interval 64"), "{err}");
        let mut nan = TriggerConfig::new(8, 1);
        nan.relax_threshold = f64::NAN;
        assert!(nan.validate().expect_err("NaN threshold").contains("relax"));
        let mut zero = TriggerConfig::new(8, 1);
        zero.candidates = 0;
        assert!(zero.validate().is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever census sequence arrives, the interval never leaves
        /// the configured band.
        #[test]
        fn interval_always_within_bounds(
            seq in prop::collection::vec((0usize..20, 0.0f64..1e12), 1..40),
            min_pow in 0u32..4,
            span_pow in 0u32..4,
        ) {
            let mut cfg = TriggerConfig::new(4, 1);
            cfg.min_interval = 4u64 << min_pow;
            cfg.max_interval = cfg.min_interval << span_pow;
            let (min, max) = (cfg.min_interval, cfg.max_interval);
            let mut t = AdaptiveTrigger::new(cfg).expect("valid config");
            for (k, (count, mass)) in seq.into_iter().enumerate() {
                let d = t.analyze(k as u64 * 4, &census(count, mass), &flat_scores(1));
                prop_assert!(d.interval_steps >= min);
                prop_assert!(d.interval_steps <= max);
            }
        }

        /// The controller is a pure function of its input sequence.
        #[test]
        fn trigger_is_deterministic(
            seq in prop::collection::vec((0usize..10, 0.0f64..1e10), 1..20),
        ) {
            let run = |seq: &[(usize, f64)]| -> Vec<TriggerDecision> {
                let mut t = AdaptiveTrigger::new(TriggerConfig::new(4, 3)).expect("valid config");
                seq.iter()
                    .enumerate()
                    .map(|(k, (c, m))| t.analyze(k as u64 * 4, &census(*c, *m), &flat_scores(3)))
                    .collect()
            };
            prop_assert_eq!(run(&seq), run(&seq));
        }
    }
}
