//! # ivis-bench — regeneration of every table and figure
//!
//! Each `figN_rows()` function regenerates the data behind one artifact of
//! the paper's evaluation, pairing our measured value with the paper's
//! published one where the paper states a number. The `experiments` binary
//! prints them, the `des`, `native`, `obs` and `parallel` `*_bench`
//! binaries time the underlying machinery, and the integration tests
//! assert the shapes and hold every deterministic claim.

pub mod adaptive;
pub mod csv;
pub mod obs_export;
pub mod report;

use ivis_cluster::IoWaitPolicy;
use ivis_core::campaign::{Campaign, Plan};
use ivis_core::metrics::{compare, model_point, PipelineMetrics};
use ivis_core::{PipelineConfig, PipelineKind};
use ivis_model::calibrate::{calibrate_exact, CalibrationPoint};
use ivis_model::perf::PerfModel;
use ivis_model::validate::{validate, ValidationReport};
use ivis_model::WhatIfAnalyzer;
use ivis_ocean::{ProblemSpec, SamplingRate};
use ivis_power::proportionality::Proportionality;
use ivis_storage::StoragePowerModel;

/// The paper's three sampling intervals, simulated hours.
pub(crate) const PAPER_RATES: [f64; 3] = [8.0, 24.0, 72.0];

/// A generic paper-vs-measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. "in-situ @ 8h").
    pub label: String,
    /// Our measured/model value.
    pub measured: f64,
    /// The paper's published value, if it states one.
    pub paper: Option<f64>,
    /// Unit for display.
    pub unit: &'static str,
}

impl Row {
    /// Render as an aligned text line.
    pub fn render(&self) -> String {
        match self.paper {
            Some(p) => format!(
                "  {:<28} measured {:>12.2} {:<4} | paper {:>10.2} {}",
                self.label, self.measured, self.unit, p, self.unit
            ),
            None => format!(
                "  {:<28} measured {:>12.2} {:<4} | paper     (chart only)",
                self.label, self.measured, self.unit
            ),
        }
    }
}

fn run(kind: PipelineKind, hours: f64) -> PipelineMetrics {
    Campaign::paper().run(&PipelineConfig::paper(kind, hours))
}

/// Fig. 3 — execution time of both pipelines at the three rates, plus the
/// paper's stated in-situ time savings (51/38/19 %).
pub fn fig3_rows() -> Vec<Row> {
    let paper_times: [(f64, Option<f64>, Option<f64>); 3] = [
        (8.0, Some(1261.0), None),
        (24.0, None, Some(1322.0)),
        (72.0, Some(676.0), None),
    ];
    let paper_savings = [51.0, 38.0, 19.0];
    let mut rows = Vec::new();
    for (i, &(h, paper_in, paper_post)) in paper_times.iter().enumerate() {
        let insitu = run(PipelineKind::InSitu, h);
        let post = run(PipelineKind::PostProcessing, h);
        rows.push(Row {
            label: format!("in-situ @ {h} h"),
            measured: insitu.execution_time.as_secs_f64(),
            paper: paper_in,
            unit: "s",
        });
        rows.push(Row {
            label: format!("post-processing @ {h} h"),
            measured: post.execution_time.as_secs_f64(),
            paper: paper_post,
            unit: "s",
        });
        let c = compare(&insitu, &post);
        rows.push(Row {
            label: format!("in-situ time saving @ {h} h"),
            measured: c.time_saving_pct,
            paper: Some(paper_savings[i]),
            unit: "%",
        });
    }
    rows
}

/// Fig. 4 — the post-processing power profile at 8 h: per-minute samples of
/// compute and storage power, as `(minute, compute_w, storage_w)`.
pub fn fig4_profile() -> Vec<(f64, f64, f64)> {
    let m = run(PipelineKind::PostProcessing, 8.0);
    let compute = m.compute_profile.as_rows();
    let storage = m.storage_profile.as_rows();
    compute
        .iter()
        .zip(&storage)
        .map(|(&(min, cw), &(_, sw))| (min, cw, sw))
        .collect()
}

/// Fig. 5 — average total power for all six configurations (the paper's
/// point: they are all the same ≈46 kW).
pub fn fig5_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
        for &h in &PAPER_RATES {
            let m = run(kind, h);
            rows.push(Row {
                label: format!("{} @ {h} h", kind.label()),
                measured: m.avg_power_total().kilowatts(),
                paper: None, // the paper plots but does not tabulate these
                unit: "kW",
            });
        }
    }
    rows
}

/// Fig. 6 — energy, with the paper's stated in-situ savings (50/38/19 %).
pub fn fig6_rows() -> Vec<Row> {
    let paper_savings = [50.0, 38.0, 19.0];
    let mut rows = Vec::new();
    for (i, &h) in PAPER_RATES.iter().enumerate() {
        let insitu = run(PipelineKind::InSitu, h);
        let post = run(PipelineKind::PostProcessing, h);
        rows.push(Row {
            label: format!("in-situ energy @ {h} h"),
            measured: insitu.energy_total().megajoules(),
            paper: None,
            unit: "MJ",
        });
        rows.push(Row {
            label: format!("post energy @ {h} h"),
            measured: post.energy_total().megajoules(),
            paper: None,
            unit: "MJ",
        });
        let c = compare(&insitu, &post);
        rows.push(Row {
            label: format!("in-situ energy saving @ {h} h"),
            measured: c.energy_saving_pct,
            paper: Some(paper_savings[i]),
            unit: "%",
        });
    }
    rows
}

/// Fig. 7 — storage, with the paper's stated sizes.
pub fn fig7_rows() -> Vec<Row> {
    let paper_post = [230.0, 80.0, 27.0];
    let mut rows = Vec::new();
    for (i, &h) in PAPER_RATES.iter().enumerate() {
        let insitu = run(PipelineKind::InSitu, h);
        let post = run(PipelineKind::PostProcessing, h);
        rows.push(Row {
            label: format!("post storage @ {h} h"),
            measured: post.storage_gb(),
            paper: Some(paper_post[i]),
            unit: "GB",
        });
        rows.push(Row {
            label: format!("in-situ storage @ {h} h"),
            measured: insitu.storage_gb(),
            paper: Some(if i == 0 {
                0.6
            } else if i == 1 {
                0.2
            } else {
                0.1
            }),
            unit: "GB",
        });
        let c = compare(&insitu, &post);
        rows.push(Row {
            label: format!("storage reduction @ {h} h"),
            measured: c.storage_reduction_pct,
            paper: Some(99.5),
            unit: "%",
        });
    }
    rows
}

/// Eq. 5 — calibrate the model from our own three measured configurations
/// (in-situ @72 h, in-situ @8 h, post @24 h) and compare the constants
/// against the paper's (603, 6.3, 1.2). Also returns the three measured
/// points, which the bootstrap intervals resample.
pub fn eq5_calibration() -> (PerfModel, [CalibrationPoint; 3], Vec<Row>) {
    let spec = ProblemSpec::paper_60km();
    let campaign = Campaign::paper_noisy(2017);
    let pts = [
        (PipelineKind::InSitu, 72.0),
        (PipelineKind::InSitu, 8.0),
        (PipelineKind::PostProcessing, 24.0),
    ]
    .map(|(kind, h)| {
        let m = campaign.run(&PipelineConfig::paper(kind, h));
        let (t, s, n) = model_point(&m);
        CalibrationPoint::new(t, s, n)
    });
    let model =
        calibrate_exact(&pts, spec.total_steps()).expect("paper points are well-conditioned");
    let rows = vec![
        Row {
            label: "t_sim (s)".into(),
            measured: model.t_sim_ref,
            paper: Some(603.0),
            unit: "s",
        },
        Row {
            label: "alpha (s/GB)".into(),
            measured: model.alpha,
            paper: Some(6.3),
            unit: "s/GB",
        },
        Row {
            label: "beta (s/image)".into(),
            measured: model.beta,
            paper: Some(1.2),
            unit: "s/im",
        },
    ];
    (model, pts, rows)
}

/// Fig. 8 — validate the Eq. 5 model against all six noisy measurements.
pub fn fig8_validation() -> ValidationReport {
    let (model, _, _) = eq5_calibration();
    let pts: Vec<CalibrationPoint> = Campaign::paper_noisy(8086)
        .run_paper_matrix()
        .iter()
        .map(|m| {
            let (t, s, n) = model_point(m);
            CalibrationPoint::new(t, s, n)
        })
        .collect();
    validate(&model, &pts, ProblemSpec::paper_60km().total_steps())
}

/// Fig. 9 — storage vs sampling rate for the 100-year run, `(hours,
/// post_tb, insitu_tb)` rows, plus the 2 TB-budget crossover.
pub fn fig9_rows() -> (Vec<(f64, f64, f64)>, Row) {
    let a = WhatIfAnalyzer::paper();
    let spec = ProblemSpec::paper_100yr();
    let hours = [1.0, 2.0, 4.0, 8.0, 24.0, 48.0, 96.0, 192.0, 384.0];
    let post = a.storage_curve(PipelineKind::PostProcessing, &spec, &hours);
    let insitu = a.storage_curve(PipelineKind::InSitu, &spec, &hours);
    let rows = post
        .iter()
        .zip(&insitu)
        .map(|(&(h, p), &(_, i))| (h, p as f64 / 1e12, i as f64 / 1e12))
        .collect();
    let crossover_days =
        a.max_rate_under_storage_budget(PipelineKind::PostProcessing, &spec, 2_000_000_000_000)
            / 24.0;
    (
        rows,
        Row {
            label: "post-proc max rate @ 2 TB".into(),
            measured: crossover_days,
            paper: Some(8.0),
            unit: "days",
        },
    )
}

/// Fig. 10 — energy vs sampling rate for the 100-year run, `(hours,
/// post_gj, insitu_gj)` rows, plus the paper's three stated savings.
pub fn fig10_rows() -> (Vec<(f64, f64, f64)>, Vec<Row>) {
    let a = WhatIfAnalyzer::paper();
    let spec = ProblemSpec::paper_100yr();
    let hours = [1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 48.0, 96.0];
    let post = a.energy_curve(PipelineKind::PostProcessing, &spec, &hours);
    let insitu = a.energy_curve(PipelineKind::InSitu, &spec, &hours);
    let curve = post
        .iter()
        .zip(&insitu)
        .map(|(&(h, p), &(_, i))| (h, p.joules() / 1e9, i.joules() / 1e9))
        .collect();
    let rows = [(1.0, 67.2), (12.0, 49.0), (24.0, 38.0)]
        .iter()
        .map(|&(h, paper)| Row {
            label: format!("energy saving @ {h} h"),
            measured: a.energy_saving_pct(&spec, SamplingRate::every_hours(h)),
            paper: Some(paper),
            unit: "%",
        })
        .collect();
    (curve, rows)
}

/// The power-proportionality characterization (§V, Power): idle and
/// full-load draw of both subsystems and their dynamic ranges.
pub fn proportionality_rows() -> Vec<Row> {
    let storage = Proportionality::paper_storage_rack();
    let compute = Proportionality::paper_compute_cluster();
    // Re-measure the storage curve through the simulated rack.
    let rack = StoragePowerModel::paper_lustre_rack();
    vec![
        Row {
            label: "storage idle".into(),
            measured: rack.power(0.0).watts(),
            paper: Some(2273.0),
            unit: "W",
        },
        Row {
            label: "storage full load".into(),
            measured: rack.power(1.0).watts(),
            paper: Some(2302.0),
            unit: "W",
        },
        Row {
            label: "storage dynamic range".into(),
            measured: rack.proportionality().dynamic_range_pct(),
            paper: Some(1.3),
            unit: "%",
        },
        Row {
            label: "compute idle".into(),
            measured: compute.idle.watts() / 1000.0,
            paper: Some(15.0),
            unit: "kW",
        },
        Row {
            label: "compute full load".into(),
            measured: compute.full.watts() / 1000.0,
            paper: Some(44.0),
            unit: "kW",
        },
        Row {
            label: "compute dynamic range".into(),
            measured: compute.dynamic_range_pct(),
            paper: Some(193.0),
            unit: "%",
        },
        Row {
            label: "storage max power saving".into(),
            measured: storage.max_saving().watts(),
            paper: Some(29.0),
            unit: "W",
        },
    ]
}

/// §VIII ablation — average total power of the post-processing pipeline
/// under busy-wait vs deep-idle I/O waiting.
pub fn ablation_iowait_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (policy, label) in [
        (IoWaitPolicy::BusyWait, "busy-wait (measured reality)"),
        (IoWaitPolicy::DeepIdle, "deep idle (§VIII hypothetical)"),
    ] {
        let mut campaign = Campaign::paper();
        campaign.config.io_policy = policy;
        let m = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, 8.0));
        rows.push(Row {
            label: format!("post @8h power, {label}"),
            measured: m.avg_power_total().kilowatts(),
            paper: None,
            unit: "kW",
        });
        rows.push(Row {
            label: format!("post @8h energy, {label}"),
            measured: m.energy_total().megajoules(),
            paper: None,
            unit: "MJ",
        });
    }
    rows
}

/// Extension — the in-transit pipeline (Bennett et al., Rodero et al.):
/// execution time and power versus staging-partition size at one rate.
/// Returns `(staging_nodes, exec_seconds, avg_power_kw)` rows plus the
/// in-situ baseline for the same rate.
pub fn extension_intransit_rows(hours: f64) -> (Vec<(usize, f64, f64)>, f64) {
    use ivis_core::intransit::InTransitConfig;
    let campaign = Campaign::paper();
    let baseline = campaign
        .run(&PipelineConfig::paper(PipelineKind::InSitu, hours))
        .execution_time
        .as_secs_f64();
    let rows = [5usize, 10, 25, 50, 75]
        .iter()
        .map(|&staging| {
            let m = campaign
                .execute(&Plan {
                    staging: Some(InTransitConfig {
                        staging_nodes: staging,
                        ..InTransitConfig::caddy_default()
                    }),
                    ..Plan::new(PipelineConfig::paper(PipelineKind::InSitu, hours))
                })
                .expect("5–75 staging nodes fit the paper machine")
                .metrics;
            (
                staging,
                m.execution_time.as_secs_f64(),
                m.avg_power_total().kilowatts(),
            )
        })
        .collect();
    (rows, baseline)
}

/// Extension — machine-size scaling: energy saving of in-situ over
/// post-processing at the 8 h rate as the machine grows (the paper's
/// exascale trend). Returns `(nodes, saving_pct, post_power_kw)` rows.
pub fn extension_scaling_rows() -> Vec<(usize, f64, f64)> {
    [50usize, 100, 150, 300, 450]
        .iter()
        .map(|&nodes| {
            let campaign = Campaign::caddy_scaled(nodes);
            let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
            let post = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, 8.0));
            let c = compare(&insitu, &post);
            (
                nodes,
                c.energy_saving_pct,
                post.avg_power_total().kilowatts(),
            )
        })
        .collect()
}

/// Extension — burst-buffered post-processing vs plain post-processing vs
/// in-situ at the 8 h rate.
pub fn extension_burst_buffer_rows() -> Vec<Row> {
    use ivis_storage::burst_buffer::BurstBufferConfig;
    let campaign = Campaign::paper();
    let pc = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
    let plain = campaign.run(&pc);
    let buffered = campaign
        .execute(&Plan {
            burst_buffer: Some(BurstBufferConfig::two_tb_nvram()),
            ..Plan::new(pc)
        })
        .expect("the 2 TB buffer fits the paper config")
        .metrics;
    let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
    vec![
        Row {
            label: "post @8h, plain".into(),
            measured: plain.execution_time.as_secs_f64(),
            paper: None,
            unit: "s",
        },
        Row {
            label: "post @8h, 2TB burst buffer".into(),
            measured: buffered.execution_time.as_secs_f64(),
            paper: None,
            unit: "s",
        },
        Row {
            label: "in-situ @8h".into(),
            measured: insitu.execution_time.as_secs_f64(),
            paper: None,
            unit: "s",
        },
        Row {
            label: "burst-buffer storage (unchanged)".into(),
            measured: buffered.storage_gb(),
            paper: None,
            unit: "GB",
        },
    ]
}

/// §VIII ablation — what storage proportionality would let in-situ save
/// measurable power: sweep the proportional fraction of a hypothetical rack
/// and report the in-situ power saving at 8 h.
pub fn ablation_storage_proportionality_rows() -> Vec<(f64, f64)> {
    use ivis_power::units::Watts;
    // In-situ drops storage utilization to ~0; the saving is the rack's
    // dynamic range weighted by post-processing's busy fraction (~54% of
    // the post @8h run is I/O).
    let post = run(PipelineKind::PostProcessing, 8.0);
    let busy_frac = post.t_io.as_secs_f64() / post.execution_time.as_secs_f64();
    [0.0127, 0.1, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&f| {
            let rack = StoragePowerModel::with_proportional_fraction(Watts(2302.0), f);
            let saving = (rack.power(1.0) - rack.power(0.0)).watts() * busy_frac;
            (f, saving)
        })
        .collect()
}

/// One row of the degraded-storage what-if (see
/// [`degraded_storage_rows`]).
#[derive(Debug, Clone, Copy)]
pub struct DegradedRow {
    /// Sampling interval, simulated hours.
    pub hours: f64,
    /// Clean-run total energy, GJ.
    pub clean_gj: f64,
    /// Total energy under the brownout, GJ.
    pub degraded_gj: f64,
    /// Execution-time stretch of the degraded run, percent.
    pub time_stretch_pct: f64,
    /// Outputs shed by the degradation machinery (0 = rate preserved).
    pub outputs_shed: u64,
}

/// Degraded-storage what-if: the measured post-processing energy-vs-rate
/// curve under a 50 % OSS bandwidth brownout spanning the whole run,
/// next to the clean curve (the counterpart of the model-side Fig. 10
/// curve from [`fig10_rows`]). Halving the storage bandwidth doubles the
/// I/O phases, and — because compute nodes busy-wait through collectives —
/// the extra hours are billed at near-full cluster power, so the energy
/// gap between the curves grows as the sampling rate rises.
pub fn degraded_storage_rows(kind: PipelineKind) -> Vec<DegradedRow> {
    use ivis_fault::{FaultKind, FaultPlan, FaultScenario, FaultWindow};
    let campaign = Campaign::paper();
    PAPER_RATES
        .iter()
        .map(|&hours| {
            let pc = PipelineConfig::paper(kind, hours);
            let clean = campaign.run(&pc);
            let plan = FaultPlan::new(0xB10).inject(
                FaultWindow::of_secs(0, 100_000_000),
                FaultKind::OssBrownout { scale: 0.5 },
            );
            let degraded = campaign
                .execute(&Plan {
                    faults: Some(FaultScenario::with_plan(plan)),
                    ..Plan::new(pc)
                })
                .expect("a brownout alone never kills a run");
            let t_clean = clean.execution_time.as_secs_f64();
            let t_bad = degraded.metrics.execution_time.as_secs_f64();
            DegradedRow {
                hours,
                clean_gj: clean.energy_total().joules() / 1e9,
                degraded_gj: degraded.metrics.energy_total().joules() / 1e9,
                time_stretch_pct: (t_bad - t_clean) / t_clean * 100.0,
                outputs_shed: degraded.stats.outputs_shed + degraded.stats.space_sheds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_storage_curve_sits_above_clean() {
        let rows = degraded_storage_rows(PipelineKind::PostProcessing);
        assert_eq!(rows.len(), PAPER_RATES.len());
        for r in &rows {
            assert!(
                r.degraded_gj > r.clean_gj,
                "brownout must cost energy at {} h: {} vs {} GJ",
                r.hours,
                r.degraded_gj,
                r.clean_gj
            );
            assert!(r.time_stretch_pct > 0.0);
        }
        // The gap shrinks as sampling gets sparser (less I/O to slow down).
        assert!(rows[0].degraded_gj - rows[0].clean_gj > rows[2].degraded_gj - rows[2].clean_gj);
    }

    #[test]
    fn fig3_shapes_match_paper() {
        let rows = fig3_rows();
        assert_eq!(rows.len(), 9);
        for r in rows.iter().filter(|r| r.unit == "%") {
            let paper = r.paper.expect("savings have paper values");
            assert!(
                (r.measured - paper).abs() < 4.0,
                "{}: {:.1} vs paper {paper}",
                r.label,
                r.measured
            );
        }
    }

    #[test]
    fn fig5_power_values_cluster_tightly() {
        let rows = fig5_rows();
        let vals: Vec<f64> = rows.iter().map(|r| r.measured).collect();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 3.0, "power spread {min}..{max} kW too wide");
    }

    #[test]
    fn eq5_recovers_paper_constants() {
        let (model, _, rows) = eq5_calibration();
        assert!((model.t_sim_ref - 603.0).abs() < 8.0);
        assert!((model.alpha - 6.3).abs() < 0.3);
        assert!((model.beta - 1.2).abs() < 0.1);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn fig8_error_below_one_percent() {
        let report = fig8_validation();
        assert_eq!(report.rows.len(), 6);
        assert!(
            report.max_abs_rel_error() < 0.01,
            "max error {:.4} (paper: <0.005)",
            report.max_abs_rel_error()
        );
    }

    #[test]
    fn fig9_crossover_near_8_days() {
        let (curve, crossover) = fig9_rows();
        assert!(!curve.is_empty());
        assert!((crossover.measured - 8.0).abs() < 0.5);
        // In-situ daily fits comfortably under 2 TB.
        let daily = curve.iter().find(|r| r.0 == 24.0).unwrap();
        assert!(daily.2 < 2.0 && daily.1 > 2.0);
    }

    #[test]
    fn fig10_savings_match() {
        let (_, rows) = fig10_rows();
        for r in &rows {
            let paper = r.paper.unwrap();
            assert!(
                (r.measured - paper).abs() < 1.5,
                "{}: {:.1} vs {paper}",
                r.label,
                r.measured
            );
        }
    }

    #[test]
    fn proportionality_matches() {
        for r in proportionality_rows() {
            let paper = r.paper.unwrap();
            let tol = (paper.abs() * 0.02).max(0.5);
            assert!(
                (r.measured - paper).abs() < tol,
                "{}: {} vs {paper}",
                r.label,
                r.measured
            );
        }
    }

    #[test]
    fn intransit_extension_shows_staging_tradeoff() {
        let (rows, baseline) = extension_intransit_rows(72.0);
        assert_eq!(rows.len(), 5);
        // The curve is U-shaped: tiny partitions stall on rendering, huge
        // ones starve the simulation. The sweet spot approaches in-situ.
        let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        assert!(best < baseline * 1.6, "best {best} vs baseline {baseline}");
        assert!(rows[0].1 > best, "undersized staging must be worse");
        assert!(rows[4].1 > best, "oversized staging must be worse");
        // In-transit never beats in-situ here (it gives up compute nodes).
        assert!(best > baseline);
    }

    #[test]
    fn scaling_extension_savings_grow_with_nodes() {
        let rows = extension_scaling_rows();
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(w[1].1 > w[0].1, "saving must grow with machine size");
            assert!(w[1].2 > w[0].2, "power grows with machine size");
        }
    }

    #[test]
    fn burst_buffer_extension_sits_between() {
        let rows = extension_burst_buffer_rows();
        let plain = rows[0].measured;
        let buffered = rows[1].measured;
        let insitu = rows[2].measured;
        assert!(insitu < buffered && buffered < plain);
    }

    #[test]
    fn iowait_ablation_shows_deep_idle_saves_power() {
        let rows = ablation_iowait_rows();
        let busy_kw = rows[0].measured;
        let deep_kw = rows[2].measured;
        assert!(deep_kw < busy_kw - 3.0, "deep {deep_kw} vs busy {busy_kw}");
    }

    #[test]
    fn storage_proportionality_ablation_monotone() {
        let rows = ablation_storage_proportionality_rows();
        for w in rows.windows(2) {
            assert!(w[1].1 > w[0].1, "more proportional ⇒ more saving");
        }
        // At today's 1.3 %, the saving is ~nothing (<20 W).
        assert!(rows[0].1 < 20.0);
    }
}
