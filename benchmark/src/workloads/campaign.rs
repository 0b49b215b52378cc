//! The simulated-cluster workloads: `paper_matrix`,
//! `paper_matrix_traced` and `whatif_10k`.
//!
//! One iteration is a list of campaign runs. The traced pass records
//! each run once with an in-memory `Recorder`, then re-drives the layers
//! under it from outside with the call sequence that run made: the phase
//! timeline into a fresh `Machine`, the write sequence into a fresh
//! `ParallelFileSystem`, the recorded spans/events/metrics into a fresh
//! `Recorder`. Where the replay can be checked against the run (metered
//! energy, bytes stored, write completion times) it is.

use std::time::Instant;

use ivis_cluster::{JobPhase, Machine, PhaseRecord};
use ivis_core::intransit::{reported_kind, InTransitConfig};
use ivis_core::metrics::{compare, model_point};
use ivis_core::{
    Campaign, CompressionConfig, PipelineConfig, PipelineKind, PipelineMetrics, RunTelemetry,
    TransportConfig,
};
use ivis_fault::{FaultPlan, FaultScenario};
use ivis_model::calibrate::{calibrate_exact, CalibrationPoint};
use ivis_model::validate::validate;
use ivis_obs::metrics::MetricKind;
use ivis_obs::telemetry::paper_cadence;
use ivis_obs::{
    attribute, to_chrome_trace, to_jsonl, to_prometheus, AttrValue, Recorder, TraceBuffer,
};
use ivis_power::meter::{aggregate, MeteredPdu};
use ivis_power::node::NodePowerModel;
use ivis_power::units::Watts;
use ivis_sim::{DesEngine, SimDuration, SimTime};
use ivis_storage::ParallelFileSystem;

use super::{attributed_ms, hash_words, median_secs, replay_iterations, FNV_OFFSET};
use crate::catalog::{PAPER_MATRIX, PAPER_MATRIX_TRACED, WHATIF_10K};
use crate::harness::{Checks, Pin, TraceCtx, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// How one run of the iteration is executed.
enum Mode {
    /// `Campaign::run`, recorder off.
    Loop,
    /// `Campaign::run` with a fresh in-memory recorder, then every
    /// export the obs layer offers.
    Traced,
    /// `Campaign::run_intransit`.
    InTransit(InTransitConfig),
}

struct RunSpec {
    /// Key of the run in `expected/` and in failure messages.
    label: String,
    /// Per-layer row its time is reported under, if it has one.
    row: Option<&'static str>,
    campaign: Campaign,
    pc: PipelineConfig,
    mode: Mode,
    /// Section of `expected/seed42.json` holding its pinned digest (none
    /// when the run is not the pinned size), and whether that pin holds
    /// for every seed.
    pin: Option<(&'static str, bool)>,
}

fn short_label(pc: &PipelineConfig) -> String {
    let kind = match pc.kind {
        PipelineKind::InSitu => "insitu",
        PipelineKind::PostProcessing => "post",
    };
    format!("{kind}_{}h", pc.rate.every_hours)
}

fn core_row(pc: &PipelineConfig) -> Option<&'static str> {
    Some(match (pc.kind, pc.rate.every_hours as u32) {
        (PipelineKind::InSitu, 8) => "core.insitu_8h_ms",
        (PipelineKind::InSitu, 24) => "core.insitu_24h_ms",
        (PipelineKind::InSitu, 72) => "core.insitu_72h_ms",
        (PipelineKind::PostProcessing, 8) => "core.post_8h_ms",
        (PipelineKind::PostProcessing, 24) => "core.post_24h_ms",
        (PipelineKind::PostProcessing, 72) => "core.post_72h_ms",
        _ => return None,
    })
}

pub struct CampaignWorkload {
    name: &'static str,
    runs: Vec<RunSpec>,
    last: Vec<String>,
    reference: Option<Vec<String>>,
}

impl CampaignWorkload {
    fn new(name: &'static str, runs: Vec<RunSpec>) -> Self {
        CampaignWorkload {
            name,
            runs,
            last: Vec::new(),
            reference: None,
        }
    }

    /// The 2×3 paper matrix on `Campaign::paper()` and again on
    /// `Campaign::paper_noisy(seed)`.
    pub fn paper_matrix(seed: u64) -> Self {
        let mut runs = Vec::new();
        for pc in PipelineConfig::paper_matrix() {
            runs.push(RunSpec {
                label: short_label(&pc),
                row: core_row(&pc),
                campaign: Campaign::paper(),
                pc,
                mode: Mode::Loop,
                pin: Some(("paper_clean", true)),
            });
        }
        for pc in PipelineConfig::paper_matrix() {
            runs.push(RunSpec {
                label: format!("noisy_{}", short_label(&pc)),
                row: None,
                campaign: Campaign::paper_noisy(seed),
                pc,
                mode: Mode::Loop,
                pin: Some(("paper_noisy", false)),
            });
        }
        Self::new(PAPER_MATRIX, runs)
    }

    /// The six noise-free configurations, each fully traced and
    /// exported. Seed-independent.
    pub fn paper_matrix_traced() -> Self {
        let runs = PipelineConfig::paper_matrix()
            .into_iter()
            .map(|pc| RunSpec {
                label: short_label(&pc),
                row: core_row(&pc),
                campaign: Campaign::paper(),
                pc,
                mode: Mode::Traced,
                pin: Some(("paper_traced", true)),
            })
            .collect();
        Self::new(PAPER_MATRIX_TRACED, runs)
    }

    /// In-situ then in-transit at 24 h on a 10 000-node Caddy
    /// (1 000 nodes under `quick`). Seed-independent.
    pub fn whatif_10k(quick: bool) -> Self {
        let nodes = if quick { 1_000 } else { 10_000 };
        let campaign = Campaign::caddy_scaled(nodes);
        let pc = PipelineConfig::paper(PipelineKind::InSitu, 24.0);
        let mut it_pc = pc.clone();
        it_pc.kind = reported_kind();
        let it = InTransitConfig {
            staging_nodes: nodes * 64 / 1_000,
            transport: TransportConfig::pipelined(4)
                .with_compression(CompressionConfig::zfp_like()),
            ..InTransitConfig::caddy_default()
        };
        // The quick machine is a different machine: its digests are
        // checked for self-consistency only.
        let pin = (!quick).then_some(("whatif_10k", true));
        let runs = vec![
            RunSpec {
                label: "insitu_24h".into(),
                row: None,
                campaign: campaign.clone(),
                pc,
                mode: Mode::Loop,
                pin,
            },
            RunSpec {
                label: "intransit_24h".into(),
                row: Some("core.intransit_d4_ms"),
                campaign,
                pc: it_pc,
                mode: Mode::InTransit(it),
                pin,
            },
        ];
        Self::new(WHATIF_10K, runs)
    }
}

/// `campaign.run(pc)` with a fresh in-memory recorder and every export
/// of the obs layer, the way `experiments trace` and `obs_bench` use it.
fn run_traced(campaign: &Campaign, pc: &PipelineConfig) -> String {
    let mut traced = campaign.clone();
    let rec = Recorder::in_memory();
    traced.config.recorder = rec.clone();
    let metrics = traced.run(pc);
    let attribution = traced
        .attribution(&metrics)
        .expect("an in-memory recorder attributes");
    let (jsonl, perfetto, prometheus) = rec
        .with_buffer(|b| (to_jsonl(b), to_chrome_trace(b), to_prometheus(&b.metrics)))
        .expect("recorder is on");
    let telemetry = RunTelemetry::from_metrics(&metrics, paper_cadence());
    let (spans, events) = rec
        .with_buffer(|b| (b.spans().len(), b.events().len()))
        .expect("recorder is on");
    format!(
        "{} spans={} events={} jsonl={:#x}/{} perfetto={} prometheus={} attributed={:#x} telemetry={:#x}",
        metrics.digest(),
        spans,
        events,
        hash_words(FNV_OFFSET, jsonl.as_bytes()),
        jsonl.len(),
        perfetto.len(),
        prometheus.len(),
        attribution.attributed_total().joules().to_bits(),
        (telemetry.compute.energy() + telemetry.storage.energy())
            .joules()
            .to_bits(),
    )
}

impl RunSpec {
    /// Execute the run the way the iteration does; the digest is its
    /// checked output.
    fn execute(&self) -> String {
        match &self.mode {
            Mode::Loop => self.campaign.run(&self.pc).digest(),
            Mode::InTransit(it) => self.campaign.run_intransit(&self.pc, it).digest(),
            Mode::Traced => run_traced(&self.campaign, &self.pc),
        }
    }

    /// The same run on the discrete-event engine, with its event count
    /// where the public API gives one.
    fn execute_des(&self) -> (String, Option<u64>) {
        match &self.mode {
            Mode::Loop | Mode::Traced => {
                let (m, events) = self
                    .campaign
                    .try_run_des_with_events(&self.pc)
                    .expect("clean DES run cannot fail");
                (m.digest(), Some(events))
            }
            Mode::InTransit(it) => {
                let m = self
                    .campaign
                    .try_run_intransit_des(&self.pc, it)
                    .expect("clean staged DES run cannot fail");
                (m.digest(), None)
            }
        }
    }

    /// The part of a traced run's digest that a DES run also has.
    fn metrics_digest<'a>(&self, digest: &'a str) -> &'a str {
        match self.mode {
            Mode::Traced => digest.split(" spans=").next().unwrap_or(digest),
            _ => digest,
        }
    }
}

impl Workload for CampaignWorkload {
    fn iterate(&mut self) {
        self.last.clear();
        self.last.extend(self.runs.iter().map(RunSpec::execute));
    }

    fn verify(&mut self, checks: &mut Checks) -> u64 {
        let reference = self.reference.get_or_insert_with(|| self.last.clone());
        for ((run, got), want) in self.runs.iter().zip(&self.last).zip(reference.iter()) {
            checks.op(got == want, || {
                format!(
                    "{}: digest changed between iterations: {got} != {want}",
                    run.label
                )
            });
        }
        self.runs.len() as u64
    }

    fn check_once(&mut self, checks: &mut Checks) {
        let reference = self.reference.clone().unwrap_or_default();
        for (run, got) in self.runs.iter().zip(&reference) {
            let (des, _) = run.execute_des();
            checks.op(des == run.metrics_digest(got), || {
                format!("{}: run_des digest {des} != run digest {got}", run.label)
            });
        }
    }

    fn pins(&self) -> Vec<Pin> {
        let reference = self.reference.iter().flatten();
        self.runs
            .iter()
            .zip(reference)
            .filter_map(|(run, digest)| {
                let (section, every_seed) = run.pin?;
                Some(Pin {
                    section,
                    key: run.label.clone(),
                    value: digest.clone(),
                    every_seed,
                })
            })
            .collect()
    }

    fn trace(&mut self, ctx: &mut TraceCtx<'_>, checks: &mut Checks) {
        let recorded: Vec<Recorded> = self.runs.iter().map(Recorded::of).collect();
        for r in &recorded {
            r.check(checks);
        }

        replay_iterations(ctx, |tr| {
            for r in &recorded {
                r.replay(tr);
            }
        });
        let tr = &*ctx.tracer;
        let l = &mut *ctx.layers;

        // Counts the replay made, exact for one seed.
        let phase_changes: u64 = recorded.iter().map(|r| r.phase_changes() as u64).sum();
        let observes: u64 = recorded
            .iter()
            .map(|r| (r.phase_changes() as u64 + 1) * r.cages as u64)
            .sum();
        let writes: u64 = recorded.iter().map(|r| r.writes.len() as u64).sum();
        let sim_bytes: u64 = recorded
            .iter()
            .flat_map(|r| r.writes.iter().map(|w| w.bytes))
            .sum();
        l.set("cluster.phase_changes_per_iter", phase_changes as f64);
        l.set("power.observes_per_iter", observes as f64);
        l.set("storage.pfs_ops_per_iter", writes as f64);
        l.set("storage.sim_bytes_per_iter", sim_bytes as f64);

        let ms = |name: &str| tr.self_ms(name).unwrap_or(0.0);
        let uniform_changes: u64 = recorded
            .iter()
            .filter(|r| r.staging.is_none())
            .map(|r| r.phase_changes() as u64)
            .sum();
        l.set(
            "cluster.phase_change_us",
            ms("cluster.phase_changes") * 1e3 / uniform_changes.max(1) as f64,
        );
        if let Some(split_ms) = tr.self_ms("cluster.split_phase_changes") {
            let n = phase_changes - uniform_changes;
            l.set(
                "cluster.split_phase_change_us",
                split_ms * 1e3 / n.max(1) as f64,
            );
        }
        l.set(
            "cluster.machine_new_us",
            ms("cluster.machine_new") * 1e3 / recorded.len() as f64,
        );
        let profile_ms = ms("power.aggregate_profile");
        l.set("cluster.harvest_ms", ms("cluster.harvest") + profile_ms);
        l.set("power.profile_ms", profile_ms);
        l.set("cluster.share", tr.layer_ms("cluster") / ctx.iter_ms_p50);
        l.set(
            "storage.pfs_write_us",
            ms("storage.pfs_writes") * 1e3 / writes.max(1) as f64,
        );
        l.set("storage.rack_profile_ms", ms("storage.rack_profile"));
        if self.name == PAPER_MATRIX_TRACED {
            l.set("power.attribution_ms", ms("power.attribution"));
            l.set("obs.jsonl_ms", ms("obs.jsonl"));
            l.set("obs.perfetto_ms", ms("obs.perfetto"));
            l.set("obs.prometheus_ms", ms("obs.prometheus"));
            l.set("obs.telemetry_ms", ms("obs.telemetry"));
            let spans: usize = recorded.iter().map(|r| r.buffer.spans().len()).sum();
            let events: usize = recorded.iter().map(|r| r.buffer.events().len()).sum();
            let jsonl: usize = recorded.iter().map(|r| r.jsonl_bytes).sum();
            l.set("obs.spans_per_iter", spans as f64);
            l.set("obs.events_per_iter", events as f64);
            l.set("obs.jsonl_bytes", jsonl as f64);
        }
        let attributed = attributed_ms(tr);
        l.set("core.unattributed_ms", ctx.iter_ms_p50 - attributed);

        // Off-path rows: measured beside the replay, not part of its
        // coverage.
        let reps = if ctx.quick { 1 } else { 5 };
        l.set("power.observe_ns", observe_ns(observes.max(1_000)));
        l.set("storage.pfs_read_us", pfs_read_us(&recorded));

        let mut clean_ms = 0.0;
        let mut noisy_ms = 0.0;
        let mut des_countable_ms = 0.0;
        let mut events = 0u64;
        for (run, rec) in self.runs.iter().zip(&recorded) {
            // The plain executor, recorder off, whatever the mode: the
            // control the traced and DES figures are read against.
            let plain_ms = 1e3
                * median_secs(reps, || match &run.mode {
                    Mode::InTransit(it) => {
                        std::hint::black_box(run.campaign.run_intransit(&run.pc, it));
                    }
                    _ => {
                        std::hint::black_box(run.campaign.run(&run.pc));
                    }
                });
            if let Some(row) = run.row {
                l.set(row, plain_ms);
            }
            if run.label.starts_with("noisy_") {
                noisy_ms += plain_ms;
            } else {
                clean_ms += plain_ms;
            }
            if let Some(n) = rec.des_events {
                events += n;
                des_countable_ms += plain_ms;
            }
        }
        l.set("sim.events_per_iter", events as f64);
        l.set(
            "sim.us_per_event",
            des_countable_ms * 1e3 / events.max(1) as f64,
        );

        match self.name {
            PAPER_MATRIX => {
                l.set("core.matrix_clean_ms", clean_ms);
                l.set("core.matrix_noisy_ms", noisy_ms);
                self.paper_matrix_rows(ctx, checks, clean_ms, reps);
            }
            PAPER_MATRIX_TRACED => {
                l.set("core.matrix_clean_ms", clean_ms);
                let traced_ms: f64 = self
                    .runs
                    .iter()
                    .map(|run| {
                        1e3 * median_secs(reps, || {
                            std::hint::black_box(run.execute());
                        })
                    })
                    .sum();
                l.set(
                    "obs.traced_overhead_pct",
                    (traced_ms / clean_ms - 1.0) * 100.0,
                );
            }
            _ => {
                // whatif_10k: the synchronous hand-off beside the
                // workload's own depth-4 one.
                let staged = &self.runs[1];
                if let Mode::InTransit(it) = &staged.mode {
                    let d1 = InTransitConfig {
                        transport: TransportConfig::synchronous(),
                        ..it.clone()
                    };
                    let d1_ms = 1e3
                        * median_secs(reps.min(3), || {
                            std::hint::black_box(staged.campaign.run_intransit(&staged.pc, &d1));
                        });
                    l.set("core.intransit_d1_ms", d1_ms);
                }
            }
        }
    }
}

impl CampaignWorkload {
    /// Rows only `paper_matrix` measures: the engine chains, DES vs loop,
    /// the faulted executor, and the paper's own accuracy figures.
    fn paper_matrix_rows(
        &self,
        ctx: &mut TraceCtx<'_>,
        checks: &mut Checks,
        clean_ms: f64,
        reps: usize,
    ) {
        let l = &mut *ctx.layers;
        let (chain, churn) = if ctx.quick {
            (50_000, 10_000)
        } else {
            (1_000_000, 200_000)
        };
        l.set(
            "sim.engine_events_per_s",
            chain as f64 / median_secs(3, || hot_chain(chain)),
        );
        l.set(
            "sim.wheel_churn_events_per_s",
            churn as f64 / median_secs(3, || wheel_churn(churn)),
        );

        let clean: Vec<&RunSpec> = self.runs.iter().filter(|r| r.row.is_some()).collect();
        let des_ms: f64 = clean
            .iter()
            .map(|run| {
                1e3 * median_secs(reps, || {
                    std::hint::black_box(run.campaign.run_des(&run.pc));
                })
            })
            .sum();
        l.set("core.des_matrix_ms", des_ms);
        l.set("core.des_vs_loop", des_ms / clean_ms);

        // The seeded faulted row of BENCH_fault.json: post-processing at
        // 8 h under FaultPlan::random(42, 1300 s).
        let campaign = Campaign::paper();
        let post8 = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
        let scenario =
            FaultScenario::with_plan(FaultPlan::random(42, SimDuration::from_secs(1_300)));
        match campaign.run_faulted(&post8, &scenario) {
            Ok(run) => {
                l.set("fault.retries_per_iter", run.stats.retries as f64);
                l.set(
                    "fault.sheds_per_iter",
                    (run.stats.outputs_shed + run.stats.space_sheds) as f64,
                );
                l.set(
                    "core.faulted_post8h_ms",
                    1e3 * median_secs(reps, || {
                        std::hint::black_box(campaign.run_faulted(&post8, &scenario).ok());
                    }),
                );
            }
            Err(e) => checks.op(false, || format!("faulted post@8h run failed: {e}")),
        }

        // Headline deviation: in-situ vs post-processing at 8 h against
        // the paper's 51 % / 50 % / 99.5 %.
        let insitu8 = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
        let c = compare(&campaign.run(&insitu8), &campaign.run(&post8));
        let dev = (c.time_saving_pct - 51.0)
            .abs()
            .max((c.energy_saving_pct - 50.0).abs())
            .max((c.storage_reduction_pct - 99.5).abs());
        l.set("core.paper_dev_pct", dev);
        checks.op(dev < 6.0, || {
            format!("headline savings drifted {dev:.2} points from the paper's 51/50/99.5")
        });

        // Fig. 8 protocol of tests/paper_reproduction.rs: calibrate Eq. 5
        // on one noisy campaign, validate on an independently seeded one.
        let point = |m: &PipelineMetrics| {
            let (t, s, n) = model_point(m);
            CalibrationPoint::new(t, s, n)
        };
        let cal = Campaign::paper_noisy(1);
        let pts: Vec<CalibrationPoint> = [
            (PipelineKind::InSitu, 72.0),
            (PipelineKind::InSitu, 8.0),
            (PipelineKind::PostProcessing, 24.0),
        ]
        .iter()
        .map(|&(k, h)| point(&cal.run(&PipelineConfig::paper(k, h))))
        .collect();
        let eval: Vec<CalibrationPoint> = Campaign::paper_noisy(2)
            .run_paper_matrix()
            .iter()
            .map(point)
            .collect();
        let model = match calibrate_exact(&[pts[0], pts[1], pts[2]], 8640) {
            Ok(model) => model,
            Err(e) => {
                checks.op(false, || format!("Eq. 5 calibration failed: {e}"));
                return;
            }
        };
        let err_pct = validate(&model, &eval, 8640).max_abs_rel_error() * 100.0;
        l.set("model.err_pct", err_pct);
        checks.op(err_pct < 1.2, || {
            format!("Fig. 8 validation error {err_pct:.3} % is not under 1.2 %")
        });
        let micro = if ctx.quick { 100 } else { 20_000 };
        l.set(
            "model.calibrate_us",
            1e6 * median_secs(5, || {
                for _ in 0..micro {
                    let _ = std::hint::black_box(calibrate_exact(
                        std::hint::black_box(&[pts[0], pts[1], pts[2]]),
                        8640,
                    ));
                }
            }) / micro as f64,
        );
        l.set(
            "model.validate_us",
            1e6 * median_secs(5, || {
                for _ in 0..micro {
                    std::hint::black_box(validate(&model, std::hint::black_box(&eval), 8640));
                }
            }) / micro as f64,
        );
    }
}

/// One write the run made to the parallel file system.
struct WriteRec {
    submit: SimTime,
    done: SimTime,
    bytes: u64,
    path: String,
}

/// One call the run made into its `Recorder`.
enum ObsOp {
    Open(usize),
    Close(usize),
    Event(usize),
    Counter(&'static str, f64),
    Gauge(&'static str, f64),
    Histogram(&'static str, f64),
}

/// What one recorded run tells the replay.
struct Recorded {
    label: String,
    metrics: PipelineMetrics,
    campaign: Campaign,
    cages: usize,
    /// Phase changes in order. For staged runs the public API does not
    /// expose the machine's timeline, so these are the instants the
    /// trace shows the compute partition changing what it does
    /// (hand-offs, compressions, stalls): a lower bound, since staging
    /// draining mid-chunk leaves no mark.
    phases: Vec<PhaseRecord>,
    /// Staging partition size when the run splits the machine.
    staging: Option<usize>,
    writes: Vec<WriteRec>,
    end: SimTime,
    des_events: Option<u64>,
    /// The traced run's buffer and the recorder calls that rebuild it.
    buffer: TraceBuffer,
    obs_ops: Vec<(SimTime, ObsOp)>,
    /// Whether the iteration itself records (only then is re-driving
    /// the recorder part of the replay).
    traced: bool,
    /// Size of the run's JSONL export.
    jsonl_bytes: usize,
}

fn attr_u64(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<u64> {
    attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::U64(n) => Some(*n),
            _ => None,
        })
}

fn attr_f64(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<f64> {
    attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::F64(x) => Some(*x),
            _ => None,
        })
}

impl Recorded {
    fn of(run: &RunSpec) -> Recorded {
        let mut traced = run.campaign.clone();
        let rec = Recorder::in_memory();
        traced.config.recorder = rec.clone();
        let metrics = match &run.mode {
            Mode::InTransit(it) => traced.run_intransit(&run.pc, it),
            _ => traced.run(&run.pc),
        };
        let jsonl_bytes = rec.with_buffer(|b| to_jsonl(b).len()).unwrap_or(0);
        drop(traced);
        let buffer = rec.into_buffer().expect("last handle to the recorder");
        let end = SimTime::ZERO + metrics.execution_time;

        let writes: Vec<WriteRec> = buffer
            .events()
            .iter()
            .filter(|e| e.name == "output_written")
            .enumerate()
            .map(|(k, e)| {
                let secs = attr_f64(&e.attrs, "write_seconds").unwrap_or(0.0);
                let took = SimDuration::from_micros((secs * 1e6).round() as u64);
                WriteRec {
                    submit: SimTime::from_micros(e.at.as_micros() - took.as_micros()),
                    done: e.at,
                    bytes: attr_u64(&e.attrs, "bytes").unwrap_or(0),
                    path: format!("/replay/{}/{k:06}", run.label),
                }
            })
            .collect();

        let staging = match &run.mode {
            Mode::InTransit(it) => Some(it.staging_nodes),
            _ => None,
        };
        let phases: Vec<PhaseRecord> = if staging.is_some() {
            let mut instants: Vec<SimTime> = std::iter::once(SimTime::ZERO)
                .chain(
                    buffer
                        .spans()
                        .iter()
                        .filter(|s| matches!(s.name, "handoff" | "compress"))
                        .map(|s| s.start),
                )
                .chain(
                    buffer
                        .events()
                        .iter()
                        .filter(|e| e.name == "transport_stall")
                        .map(|e| e.at),
                )
                .collect();
            instants.sort();
            instants.dedup();
            instants
                .iter()
                .enumerate()
                .map(|(i, &start)| PhaseRecord {
                    phase: JobPhase::Simulate,
                    start,
                    end: instants.get(i + 1).copied().unwrap_or(end),
                })
                .collect()
        } else {
            buffer.phase_timeline().records().to_vec()
        };

        let mut ops: Vec<(SimTime, usize, ObsOp)> = Vec::new();
        for (i, s) in buffer.spans().iter().enumerate() {
            ops.push((s.start, 2 * i, ObsOp::Open(i)));
            ops.push((s.end.unwrap_or(end), 2 * i + 1, ObsOp::Close(i)));
        }
        let mut seq = 2 * buffer.spans().len();
        for (j, e) in buffer.events().iter().enumerate() {
            ops.push((e.at, seq, ObsOp::Event(j)));
            seq += 1;
        }
        for m in buffer.metrics.iter() {
            let name = m.name();
            match m.kind() {
                MetricKind::Histogram => {
                    for &(t, v) in m.observations() {
                        ops.push((t, seq, ObsOp::Histogram(name, v)));
                        seq += 1;
                    }
                }
                kind => {
                    let mut total = 0.0;
                    for &(t, v) in m.series().samples() {
                        let op = if kind == MetricKind::Counter {
                            let delta = v - total;
                            total = v;
                            ObsOp::Counter(name, delta)
                        } else {
                            ObsOp::Gauge(name, v)
                        };
                        ops.push((t, seq, op));
                        seq += 1;
                    }
                }
            }
        }
        ops.sort_by_key(|(t, seq, _)| (*t, *seq));

        let des_events = run.execute_des().1;
        Recorded {
            label: run.label.clone(),
            cages: run.campaign.topology.num_cages,
            campaign: run.campaign.clone(),
            phases,
            staging,
            writes,
            end,
            des_events,
            jsonl_bytes,
            obs_ops: ops.into_iter().map(|(t, _, op)| (t, op)).collect(),
            buffer,
            traced: matches!(run.mode, Mode::Traced),
            metrics,
        }
    }

    fn phase_changes(&self) -> usize {
        self.phases.len()
    }

    /// A machine like the one `Campaign` builds for this run.
    fn new_machine(&self) -> Machine {
        let m = Machine::new(
            self.campaign.topology.clone(),
            NodePowerModel::caddy(),
            self.campaign.config.io_policy,
        );
        if self.campaign.config.power_noise_rel > 0.0 {
            m.with_power_noise(
                self.campaign.config.seed ^ 0x9E37,
                self.campaign.config.power_noise_rel,
            )
        } else {
            m
        }
    }

    fn drive_machine(&self, tr: &mut Tracer) -> Machine {
        let mut machine = tr.scope("cluster.machine_new", || self.new_machine());
        match self.staging {
            None => tr.scope("cluster.phase_changes", || {
                for p in &self.phases {
                    machine.begin_phase(p.start, p.phase);
                }
                machine.finish(self.end);
            }),
            Some(staging) => tr.scope("cluster.split_phase_changes", || {
                for p in &self.phases {
                    machine.begin_split_phase(p.start, staging, p.phase, JobPhase::Visualize);
                }
                machine.finish(self.end);
            }),
        }
        machine
    }

    fn drive_pfs(&self, tr: &mut Tracer) -> (ParallelFileSystem, Vec<SimTime>) {
        let mut pfs = ParallelFileSystem::caddy_lustre();
        let done = tr.scope("storage.pfs_writes", || {
            self.writes
                .iter()
                .map(|w| {
                    pfs.write(w.submit, &w.path, w.bytes)
                        .unwrap_or(SimTime::ZERO)
                })
                .collect()
        });
        (pfs, done)
    }

    fn drive_recorder(&self) -> Recorder {
        let rec = Recorder::in_memory();
        let spans = self.buffer.spans();
        let events = self.buffer.events();
        let mut ids = vec![ivis_obs::SpanId::NONE; spans.len()];
        for (t, op) in &self.obs_ops {
            match *op {
                ObsOp::Open(i) => {
                    let s = &spans[i];
                    ids[i] = match s.phase {
                        Some(phase) => rec.phase_span(*t, phase, s.component),
                        None => rec.span(*t, s.name, s.component),
                    };
                    for &(k, v) in &s.attrs {
                        rec.set_attr(ids[i], k, v);
                    }
                }
                ObsOp::Close(i) => rec.close(*t, ids[i]),
                ObsOp::Event(j) => {
                    let e = &events[j];
                    rec.event(*t, e.name, e.component, &e.attrs);
                }
                ObsOp::Counter(name, delta) => rec.counter_add(*t, name, delta),
                ObsOp::Gauge(name, v) => rec.gauge_set(*t, name, v),
                ObsOp::Histogram(name, v) => rec.histogram_record(*t, name, v),
            }
        }
        rec
    }

    /// One replay of this run's layers, under spans.
    fn replay(&self, tr: &mut Tracer) {
        let machine = self.drive_machine(tr);
        let harvest = tr.open("cluster.harvest");
        std::hint::black_box(machine.timeline().decompose());
        let compute = tr.scope("power.aggregate_profile", || {
            aggregate("compute-cluster", machine.cage_meters()).profile(SimTime::ZERO, self.end)
        });
        tr.close(harvest);
        let (pfs, _) = self.drive_pfs(tr);
        let storage = tr.scope("storage.rack_profile", || {
            pfs.rack_meter().profile(SimTime::ZERO, self.end)
        });
        if self.traced {
            let rec = tr.scope("obs.record", || self.drive_recorder());
            let timeline = rec
                .with_buffer(TraceBuffer::phase_timeline)
                .unwrap_or_default();
            tr.scope("power.attribution", || {
                std::hint::black_box(attribute(&timeline, &compute, &storage));
            });
            rec.with_buffer(|b| {
                tr.scope("obs.jsonl", || std::hint::black_box(to_jsonl(b).len()));
                tr.scope("obs.perfetto", || {
                    std::hint::black_box(to_chrome_trace(b).len())
                });
                tr.scope("obs.prometheus", || {
                    std::hint::black_box(to_prometheus(&b.metrics).len())
                });
            });
            tr.scope("obs.telemetry", || {
                std::hint::black_box(RunTelemetry::from_metrics(&self.metrics, paper_cadence()));
            });
        }
        std::hint::black_box((compute, storage));
    }

    /// Is the replay the run? Checked where the public API lets the two
    /// be compared.
    fn check(&self, checks: &mut Checks) {
        let mut off = Tracer::new(false);
        let (pfs, done) = self.drive_pfs(&mut off);
        checks.op(pfs.used_bytes() == self.metrics.storage_bytes, || {
            format!(
                "{}: replayed writes store {} bytes, the run stored {}",
                self.label,
                pfs.used_bytes(),
                self.metrics.storage_bytes
            )
        });
        if self.staging.is_some() {
            return; // no timeline to hold the machine replay against
        }
        let late = self
            .writes
            .iter()
            .zip(&done)
            .filter(|(w, d)| w.done != **d)
            .count();
        checks.op(late == 0, || {
            format!(
                "{}: {late} replayed writes completed at another time",
                self.label
            )
        });
        let storage = pfs.rack_meter().profile(SimTime::ZERO, self.end);
        checks.op(
            storage.energy().joules().to_bits()
                == self.metrics.storage_profile.energy().joules().to_bits(),
            || {
                format!(
                    "{}: replayed rack energy differs from the run's",
                    self.label
                )
            },
        );
        let machine = self.drive_machine(&mut off);
        let compute = machine.cluster_meter().profile(SimTime::ZERO, self.end);
        checks.op(
            compute.energy().joules().to_bits()
                == self.metrics.compute_profile.energy().joules().to_bits(),
            || {
                format!(
                    "{}: replayed cluster energy differs from the run's",
                    self.label
                )
            },
        );
        if self.traced {
            let rec = self.drive_recorder();
            let same = rec
                .with_buffer(|b| {
                    b.spans().len() == self.buffer.spans().len()
                        && b.events().len() == self.buffer.events().len()
                })
                .unwrap_or(false);
            checks.op(same, || {
                format!(
                    "{}: re-driven recorder holds other span/event counts",
                    self.label
                )
            });
        }
    }
}

/// `MeteredPdu::observe` on one cage meter, nanoseconds per call.
fn observe_ns(calls: u64) -> f64 {
    let secs = median_secs(3, || {
        let mut meter = MeteredPdu::appro_cage("bench", Watts(1_000.0));
        for k in 0..calls {
            meter.observe(SimTime::from_micros(k * 7), Watts(1_000.0 + (k % 5) as f64));
        }
        std::hint::black_box(meter);
    });
    secs * 1e9 / calls as f64
}

/// Reading every replayed file back, microseconds per read. No campaign
/// executor calls `read` today; the row is here for the day one does.
fn pfs_read_us(recorded: &[Recorded]) -> f64 {
    let reads: usize = recorded.iter().map(|r| r.writes.len()).sum();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut secs = 0.0;
            for r in recorded {
                let mut pfs = ParallelFileSystem::caddy_lustre();
                for w in &r.writes {
                    let _ = pfs.write(w.submit, &w.path, w.bytes);
                }
                let t0 = Instant::now();
                for w in &r.writes {
                    let _ = std::hint::black_box(pfs.read(r.end, &w.path));
                }
                secs += t0.elapsed().as_secs_f64();
            }
            secs
        })
        .collect();
    median(&samples) * 1e6 / reads.max(1) as f64
}

/// One self-rescheduling event chain: the per-event floor of every DES
/// executor (`des_bench`'s `engine/hot_chain`).
fn hot_chain(events: u64) {
    let mut eng: DesEngine<u64> = DesEngine::new();
    eng.schedule_at(SimTime::ZERO, 0);
    let mut handler = |eng: &mut DesEngine<u64>, _at: SimTime, k: u64| {
        if k + 1 < events {
            eng.schedule_in(SimDuration::from_micros(7), k + 1);
        }
    };
    eng.run(&mut handler);
    assert_eq!(eng.events_executed(), events);
}

/// Timers scattered over five decades of delay, then drained: wheel
/// cascades and calendar overflow (`des_bench`'s `engine/wheel_churn`).
fn wheel_churn(events: u64) {
    let mut eng: DesEngine<u64> = DesEngine::with_capacity(events as usize);
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    for k in 0..events {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        eng.schedule_at(SimTime::from_micros(1 + (lcg >> 33) % 100_000_000), k);
    }
    let mut fired = 0u64;
    let mut handler = |_: &mut DesEngine<u64>, _: SimTime, _: u64| fired += 1;
    eng.run(&mut handler);
    assert_eq!(fired, events);
}
