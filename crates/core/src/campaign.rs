//! The measured-cluster backend: run a pipeline on the simulated *Caddy*
//! machine with all meters attached.
//!
//! A campaign run walks the machine through the pipeline's phase sequence,
//! obtains I/O completion times from the Lustre model, and harvests the
//! cage/rack meters into [`PipelineMetrics`] — the same artifact the paper's
//! measurement campaign produced for each of its six configurations.
//!
//! [`Campaign::execute`] is the one entry point: a [`Plan`] goes in — the
//! pipeline, plus an optional staging partition, burst-buffer tier and
//! fault scenario — and one [`Run`] comes out. The plan is validated once,
//! before anything is simulated, and then runs on one of the three event
//! chains in `des`. This module holds the campaign's knobs,
//! `Plan`, `Run` and the shared tracing/harvest plumbing.
//!
//! ### Modeling notes (see DESIGN.md)
//!
//! * **I/O wait**: compute nodes busy-wait in PIO/MPI collectives during
//!   writes ([`IoWaitPolicy::BusyWait`]), which is why measured power stays
//!   flat. The deep-idle alternative exists for the §VIII ablation.
//! * **Post-processing read-back**: the paper's model charges `α·S_io` once
//!   (for the write); its measured visualization phase is consistent with
//!   rendering overlapping a faster sequential read path. We model the
//!   post-viz phase as `max(β·N, S/seq_read_bw)` with a 1 GB/s sequential
//!   read rate, which keeps rendering the bottleneck at the paper's
//!   configurations.

use ivis_cluster::topology::ClusterTopology;
use ivis_cluster::{IoWaitPolicy, JobPhase, Machine};
use ivis_fault::{FaultScenario, FaultSession, FaultStats};
use ivis_obs::{attribute, AttrValue, Component, EnergyAttribution, Recorder, SpanId};
use ivis_ocean::cost::SimulationCostModel;
use ivis_ocean::ProblemSpec;
use ivis_power::node::NodePowerModel;
use ivis_power::units::Joules;
use ivis_sim::{SimRng, SimTime};
use ivis_storage::burst_buffer::BurstBufferConfig;
use ivis_storage::ParallelFileSystem;

use crate::config::{PipelineConfig, PipelineKind};
use crate::intransit::InTransitConfig;
use crate::metrics::PipelineMetrics;
use crate::resilience::PipelineError;
use crate::transport::TransportStats;

/// Knobs of the measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// What compute nodes do while blocked on storage.
    pub io_policy: IoWaitPolicy,
    /// Seconds to render one output's image set on the full machine
    /// (the paper's β = 1.2 s).
    pub viz_seconds_per_output: f64,
    /// Bytes of the image set written per output (the paper's Fig. 7:
    /// 0.6 GB over 540 outputs ⇒ ≈1.11 MB each).
    pub image_bytes_per_output: u64,
    /// Sequential read bandwidth available to the post-processing
    /// visualization phase, bytes/s.
    pub seq_read_bandwidth_bps: f64,
    /// Relative std-dev of phase-duration measurement noise (0 = exact).
    pub noise_rel: f64,
    /// Relative std-dev of cage power measurement noise (0 = exact).
    pub power_noise_rel: f64,
    /// RNG seed for the noise streams.
    pub seed: u64,
    /// Trace recorder handle. Defaults to [`Recorder::off`], which keeps
    /// every instrumentation hook a no-op; swap in
    /// [`Recorder::in_memory`] (keeping a clone) to capture spans, events
    /// and metrics for the run.
    pub recorder: Recorder,
}

impl CampaignConfig {
    /// The paper's constants, no noise.
    pub(crate) fn paper() -> Self {
        CampaignConfig {
            io_policy: IoWaitPolicy::BusyWait,
            viz_seconds_per_output: 1.2,
            image_bytes_per_output: 1_111_111,
            seq_read_bandwidth_bps: 1.0e9,
            noise_rel: 0.0,
            power_noise_rel: 0.0,
            seed: 0x1915_2017,
            recorder: Recorder::off(),
        }
    }

    /// The paper's constants with mild measurement noise — what a real
    /// campaign looks like.
    pub fn paper_noisy(seed: u64) -> Self {
        CampaignConfig {
            noise_rel: 0.003,
            power_noise_rel: 0.005,
            seed,
            ..CampaignConfig::paper()
        }
    }
}

/// One run request for [`Campaign::execute`].
///
/// `staging: Some(_)` selects the in-transit chain; otherwise
/// `pipeline.kind` picks in-situ or post-hoc. `burst_buffer` is the
/// post-hoc raw-dump tier. `faults: None` is a clean run. Start from
/// [`Plan::new`] and set the rest with struct-update syntax:
///
/// ```
/// use ivis_core::campaign::{Campaign, Plan};
/// use ivis_core::{PipelineConfig, PipelineKind};
/// use ivis_storage::burst_buffer::BurstBufferConfig;
///
/// let plan = Plan {
///     burst_buffer: Some(BurstBufferConfig::two_tb_nvram()),
///     ..Plan::new(PipelineConfig::paper(PipelineKind::PostProcessing, 8.0))
/// };
/// let run = Campaign::paper().execute(&plan).expect("the paper config fits");
/// assert_eq!(run.metrics.num_outputs, 540);
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    /// The pipeline: family, problem and sampling rate.
    pub pipeline: PipelineConfig,
    /// A staging partition to render on (the in-transit chain).
    pub staging: Option<InTransitConfig>,
    /// An NVRAM tier absorbing the post-hoc raw dumps.
    pub burst_buffer: Option<BurstBufferConfig>,
    /// Faults to inject and the policies that survive them.
    pub faults: Option<FaultScenario>,
}

impl Plan {
    /// A clean run of `pipeline` on the whole machine, straight to Lustre.
    pub fn new(pipeline: PipelineConfig) -> Self {
        Plan {
            pipeline,
            staging: None,
            burst_buffer: None,
            faults: None,
        }
    }

    /// Reject what no executor can model, before anything is simulated.
    fn validate(
        &self,
        total_nodes: usize,
        cost: &SimulationCostModel,
    ) -> Result<(), PipelineError> {
        validate_spec(&self.pipeline.spec, cost)?;
        if let Some(it) = &self.staging {
            it.validate(total_nodes)?;
        }
        let Some(bb) = &self.burst_buffer else {
            return Ok(());
        };
        if self.staging.is_some() || self.pipeline.kind != PipelineKind::PostProcessing {
            return Err(PipelineError::invalid(
                "a burst buffer absorbs post-hoc raw dumps; only a post-processing plan \
                 without staging has them"
                    .to_string(),
            ));
        }
        if bb.capacity_bytes == 0 {
            return Err(PipelineError::invalid(
                "burst-buffer capacity must be positive".to_string(),
            ));
        }
        let bps = bb.absorb_bandwidth_bps;
        if !(bps.is_finite() && bps > 0.0) {
            return Err(PipelineError::invalid(format!(
                "burst-buffer absorb bandwidth must be finite and positive, got {bps}"
            )));
        }
        Ok(())
    }
}

/// Reject a problem no executor can step: a time step or duration that is
/// not finite and positive, an empty mesh, a raw output whose size does
/// not fit `u64`, or a compute span under `cost` past the last instant
/// `SimTime` holds.
fn validate_spec(spec: &ProblemSpec, cost: &SimulationCostModel) -> Result<(), PipelineError> {
    for (name, v) in [
        ("step_minutes", spec.step_minutes),
        ("duration_hours", spec.duration_hours),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(PipelineError::invalid(format!(
                "spec.{name} must be finite and positive, got {v}"
            )));
        }
    }
    for (name, n) in [
        ("num_cells", spec.num_cells),
        ("num_levels", u64::from(spec.num_levels)),
        ("output_vars", u64::from(spec.output_vars)),
    ] {
        if n == 0 {
            return Err(PipelineError::invalid(format!(
                "spec.{name} must be positive"
            )));
        }
    }
    if spec.checked_raw_output_bytes().is_none() {
        return Err(PipelineError::invalid(format!(
            "a raw output of {} cells x {} levels x {} variables overflows u64",
            spec.num_cells, spec.num_levels, spec.output_vars
        )));
    }
    let span = cost.step_seconds(spec) * spec.total_steps() as f64;
    let limit = SimTime::from_micros(u64::MAX).as_secs_f64();
    if !(span.is_finite() && span < limit) {
        return Err(PipelineError::invalid(format!(
            "{} steps of compute take {span} s, past the {limit} s simulated time holds",
            spec.total_steps()
        )));
    }
    Ok(())
}

/// Everything one [`Campaign::execute`] produces: the metrics artifact,
/// the fault layer's counters, the compute energy burned inside retry
/// backoff windows (attributed via the compute power profile, tiling the
/// run exactly like the per-phase attribution does), the transport's
/// accounting and the engine's event count.
#[derive(Debug, Clone)]
pub struct Run {
    /// The metrics artifact, the same shape for every family.
    pub metrics: PipelineMetrics,
    /// What the fault layer did (all zero but `outputs_written` on a clean
    /// run).
    pub stats: FaultStats,
    /// Compute energy spent waiting out retry backoffs.
    pub retry_energy: Joules,
    /// What the staged transport did; `Some` exactly for in-transit plans.
    pub transport: Option<TransportStats>,
    /// Events the discrete-event engine executed.
    pub events: u64,
}

impl Run {
    pub(crate) fn finish(
        metrics: PipelineMetrics,
        session: FaultSession,
        transport: Option<TransportStats>,
        events: u64,
    ) -> Self {
        let retry_energy = metrics
            .compute_profile
            .energy_over(session.backoff_windows());
        Run {
            metrics,
            stats: session.into_stats(),
            retry_energy,
            transport,
            events,
        }
    }

    /// A stable one-line rendering of the run's observable outcome —
    /// every duration in exact microseconds and every energy as raw f64
    /// bits — used by the CI fault matrix to assert bit-identical replays
    /// across seeds, thread counts and processes.
    pub fn digest(&self) -> String {
        let m = &self.metrics;
        format!(
            "exec_us={} t_sim_us={} t_io_us={} t_viz_us={} bytes={} outputs={} e_compute={:#x} e_storage={:#x} e_retry={:#x} | {}",
            m.execution_time.as_micros(),
            m.t_sim.as_micros(),
            m.t_io.as_micros(),
            m.t_viz.as_micros(),
            m.storage_bytes,
            m.num_outputs,
            m.compute_profile.energy().joules().to_bits(),
            m.storage_profile.energy().joules().to_bits(),
            self.retry_energy.joules().to_bits(),
            self.stats.digest(),
        )
    }
}

/// Keeps the recorder's phase spans and the machine's phase timeline in
/// lock-step: each `begin` closes the previous phase span and opens the
/// next one at the same instant `Machine::begin_phase` switches loads, so
/// the trace tiles the run exactly and per-phase energy attribution is
/// conservative.
pub(crate) struct PhaseTracer<'a> {
    rec: &'a Recorder,
    open: SpanId,
}

impl<'a> PhaseTracer<'a> {
    pub(crate) fn new(rec: &'a Recorder) -> Self {
        PhaseTracer {
            rec,
            open: SpanId::NONE,
        }
    }

    pub(crate) fn begin(&mut self, machine: &mut Machine, t: SimTime, phase: JobPhase) {
        self.rec.close(t, self.open);
        machine.begin_phase(t, phase);
        self.open = self.rec.phase_span(t, phase, Component::Compute);
        if self.rec.is_on() {
            self.rec
                .gauge_set(t, "cluster.power_w", machine.power_now().watts());
        }
    }

    /// Attach an attribute to the currently open phase span.
    pub(crate) fn attr(&self, key: &'static str, value: AttrValue) {
        self.rec.set_attr(self.open, key, value);
    }

    pub(crate) fn finish(self, machine: &mut Machine, t: SimTime) {
        self.rec.close(t, self.open);
        machine.finish(t);
    }
}

/// Record the storage-side trace of one completed output write: the
/// `output_written` event, cumulative byte/output counters, and the PFS
/// backlog gauges sampled at both submission and completion (for
/// synchronous writes the backlog drains to zero at `done`; with a burst
/// buffer it stays positive while Lustre catches up).
pub(crate) fn note_write(
    rec: &Recorder,
    pfs: &ParallelFileSystem,
    submitted: SimTime,
    done: SimTime,
    index: u64,
    bytes: u64,
) {
    if !rec.is_on() {
        return;
    }
    rec.event(
        done,
        "output_written",
        Component::Storage,
        &[
            ("index", AttrValue::U64(index)),
            ("bytes", AttrValue::U64(bytes)),
            (
                "write_seconds",
                AttrValue::F64((done - submitted).as_secs_f64()),
            ),
        ],
    );
    rec.counter_add(done, "pfs.bytes_written", bytes as f64);
    rec.counter_add(done, "pfs.outputs_written", 1.0);
    for t in [submitted, done] {
        rec.gauge_set(t, "pfs.queued_write_seconds", pfs.queued_write_seconds(t));
        rec.gauge_set(t, "pfs.bandwidth_utilization", pfs.bandwidth_utilization(t));
    }
}

/// The campaign runner.
///
/// ```
/// use ivis_core::campaign::Campaign;
/// use ivis_core::{PipelineConfig, PipelineKind};
///
/// let campaign = Campaign::paper();
/// let m = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 72.0));
/// // The paper measured 676 s for this configuration.
/// assert!((m.execution_time.as_secs_f64() - 676.0).abs() < 20.0);
/// assert!(m.storage_gb() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign knobs.
    pub config: CampaignConfig,
    /// Per-step simulation cost model.
    pub cost: SimulationCostModel,
    /// Machine topology (defaults to *Caddy*'s 15 cages × 10 nodes).
    pub topology: ClusterTopology,
}

impl Campaign {
    /// The paper's campaign: *Caddy* cost model, paper constants.
    pub fn paper() -> Self {
        Campaign {
            config: CampaignConfig::paper(),
            cost: SimulationCostModel::caddy(),
            topology: ClusterTopology::caddy(),
        }
    }

    /// As measured in the real world: with noise.
    pub fn paper_noisy(seed: u64) -> Self {
        Campaign {
            config: CampaignConfig::paper_noisy(seed),
            cost: SimulationCostModel::caddy(),
            topology: ClusterTopology::caddy(),
        }
    }

    /// A campaign on a Caddy-style machine scaled to exactly `nodes`
    /// nodes via [`ClusterTopology::caddy_scaled`] (ten-node cages for any
    /// multiple of ten, so 10k-node and non-divisible what-ifs are both
    /// expressible). Per-node power model, per-core speed and the storage
    /// rack are unchanged; rendering strong-scales with the node count —
    /// the paper's claim that "the methodology itself is generic".
    /// `caddy_scaled(150)` reproduces [`Campaign::paper`] bit-for-bit.
    pub fn caddy_scaled(nodes: usize) -> Self {
        let topology = ClusterTopology::caddy_scaled(nodes);
        let mut cost = SimulationCostModel::caddy();
        cost.cores = topology.num_cores() as u64;
        let mut config = CampaignConfig::paper();
        // β was measured on 150 nodes; at nodes = 150 the factor is
        // exactly 1.0, keeping the seed campaign bit-identical.
        config.viz_seconds_per_output *= 150.0 / topology.num_nodes() as f64;
        Campaign {
            config,
            cost,
            topology,
        }
    }

    /// Execute one plan: validate it, run it on its family's event chain
    /// and harvest the meters.
    ///
    /// An invalid plan is [`PipelineError::InvalidConfig`] and nothing is
    /// simulated; a storage failure no retry absorbs is a typed error too.
    /// Under faults the run degrades gracefully (retries, sheds) — never a
    /// panic. With `faults: Some(FaultScenario::none())` the metrics are
    /// bit-identical to the clean run's, and so is the trace, up to the
    /// post-hoc `images.tar` write span noted on the executor.
    pub fn execute(&self, plan: &Plan) -> Result<Run, PipelineError> {
        plan.validate(self.topology.num_nodes(), &self.cost)?;
        let clean = FaultScenario::none();
        let faults = plan.faults.as_ref().unwrap_or(&clean);
        match (&plan.staging, plan.pipeline.kind) {
            (Some(it), _) => self.intransit_des(&plan.pipeline, it, faults),
            (None, PipelineKind::InSitu) => self.insitu_des(&plan.pipeline, faults),
            (None, PipelineKind::PostProcessing) => self.postproc_des(plan, faults),
        }
    }

    /// Execute one clean pipeline configuration and return its metrics.
    ///
    /// Panics if the storage model rejects an operation (the paper
    /// configurations always fit); [`execute`](Self::execute) returns the
    /// failure as a typed error instead.
    pub fn run(&self, pc: &PipelineConfig) -> PipelineMetrics {
        self.execute(&Plan::new(pc.clone()))
            .unwrap_or_else(|e| panic!("pipeline run failed: {e}"))
            .metrics
    }

    /// Run the full paper matrix (2 pipelines × 3 rates).
    pub fn run_paper_matrix(&self) -> Vec<PipelineMetrics> {
        PipelineConfig::paper_matrix()
            .iter()
            .map(|c| self.run(c))
            .collect()
    }

    /// Open the root `campaign` span carrying the run's identity
    /// (pipeline kind, output rate, I/O wait policy).
    pub(crate) fn open_root(&self, pc: &PipelineConfig, t: SimTime) -> SpanId {
        let rec = &self.config.recorder;
        let root = rec.span(t, "campaign", Component::Campaign);
        rec.set_attr(root, "kind", AttrValue::Str(pc.kind.label()));
        rec.set_attr(root, "rate_hours", AttrValue::F64(pc.rate.every_hours));
        rec.set_attr(
            root,
            "io_policy",
            AttrValue::Str(match self.config.io_policy {
                IoWaitPolicy::BusyWait => "busy-wait",
                IoWaitPolicy::DeepIdle => "deep-idle",
            }),
        );
        root
    }

    /// Per-phase energy report for a traced run: joins the recorder's
    /// phase timeline against `metrics`' power profiles. Returns `None`
    /// when the recorder is off. Use a fresh recorder per run — the
    /// buffer accumulates, and timelines from two runs don't concatenate.
    pub fn attribution(&self, metrics: &PipelineMetrics) -> Option<EnergyAttribution> {
        self.config.recorder.with_buffer(|buf| {
            attribute(
                &buf.phase_timeline(),
                &metrics.compute_profile,
                &metrics.storage_profile,
            )
        })
    }

    pub(crate) fn noise(&self, rng: &mut SimRng) -> f64 {
        if self.config.noise_rel > 0.0 {
            rng.noise_factor(self.config.noise_rel)
        } else {
            1.0
        }
    }

    pub(crate) fn machine(&self) -> Machine {
        let m = Machine::new(
            self.topology.clone(),
            NodePowerModel::caddy(),
            self.config.io_policy,
        );
        if self.config.power_noise_rel > 0.0 {
            m.with_power_noise(self.config.seed ^ 0x9E37, self.config.power_noise_rel)
        } else {
            m
        }
    }

    pub(crate) fn harvest(
        &self,
        pc: &PipelineConfig,
        machine: Machine,
        pfs: &ParallelFileSystem,
        end: SimTime,
        num_outputs: u64,
    ) -> PipelineMetrics {
        let (t_sim, t_io, t_viz) = machine.timeline().decompose();
        let compute_profile = machine.cluster_meter().profile(SimTime::ZERO, end);
        let storage_profile = pfs.rack_meter().profile(SimTime::ZERO, end);
        PipelineMetrics {
            kind: pc.kind,
            rate_hours: pc.rate.every_hours,
            execution_time: end - SimTime::ZERO,
            t_sim,
            t_io,
            t_viz,
            storage_bytes: pfs.used_bytes(),
            num_outputs,
            compute_profile,
            storage_profile,
        }
    }
}

/// Forwards into [`Campaign::execute`], kept for `benchmark/`, which links
/// them by name; nothing else calls them.
impl Campaign {
    /// `execute` under `scenario`. Kept for `benchmark/`.
    pub fn run_faulted(
        &self,
        pc: &PipelineConfig,
        scenario: &FaultScenario,
    ) -> Result<Run, PipelineError> {
        self.execute(&Plan {
            faults: Some(scenario.clone()),
            ..Plan::new(pc.clone())
        })
    }

    /// The in-transit run's metrics; panics on an invalid `it` or a
    /// storage failure. Kept for `benchmark/`.
    pub fn run_intransit(&self, pc: &PipelineConfig, it: &InTransitConfig) -> PipelineMetrics {
        self.execute(&Plan {
            staging: Some(it.clone()),
            ..Plan::new(pc.clone())
        })
        .unwrap_or_else(|e| panic!("pipeline run failed: {e}"))
        .metrics
    }

    /// [`Campaign::run`] under its former event-engine name. Kept for
    /// `benchmark/`.
    pub fn run_des(&self, pc: &PipelineConfig) -> PipelineMetrics {
        self.run(pc)
    }

    /// A clean run's metrics and engine event count. Kept for
    /// `benchmark/`.
    pub fn try_run_des_with_events(
        &self,
        pc: &PipelineConfig,
    ) -> Result<(PipelineMetrics, u64), PipelineError> {
        self.execute(&Plan::new(pc.clone()))
            .map(|run| (run.metrics, run.events))
    }

    /// A clean in-transit run's metrics. Kept for `benchmark/`.
    pub fn try_run_intransit_des(
        &self,
        pc: &PipelineConfig,
        it: &InTransitConfig,
    ) -> Result<PipelineMetrics, PipelineError> {
        self.execute(&Plan {
            staging: Some(it.clone()),
            ..Plan::new(pc.clone())
        })
        .map(|run| run.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare;

    fn run(kind: PipelineKind, hours: f64) -> PipelineMetrics {
        Campaign::paper().run(&PipelineConfig::paper(kind, hours))
    }

    #[test]
    fn insitu_8h_matches_paper_execution_time() {
        let m = run(PipelineKind::InSitu, 8.0);
        // Paper: 1261 s measured; model 603 + 0.6·6.3 + 540·1.2 ≈ 1255.
        let t = m.execution_time.as_secs_f64();
        assert!((1230.0..1290.0).contains(&t), "t = {t}");
        assert_eq!(m.num_outputs, 540);
    }

    #[test]
    fn insitu_72h_matches_paper_execution_time() {
        let m = run(PipelineKind::InSitu, 72.0);
        // Paper: 676 s.
        let t = m.execution_time.as_secs_f64();
        assert!((660.0..695.0).contains(&t), "t = {t}");
    }

    #[test]
    fn post_24h_matches_paper_execution_time() {
        let m = run(PipelineKind::PostProcessing, 24.0);
        // Paper: 1322 s (with S read off the chart as 80 GB; our exact S is
        // 76.7 GB, predicting ≈1305 s).
        let t = m.execution_time.as_secs_f64();
        assert!((1270.0..1345.0).contains(&t), "t = {t}");
    }

    #[test]
    fn fig3_time_savings_shape() {
        // Paper: 51 % / 38 % / 19 % faster at 8 / 24 / 72 h.
        for (hours, expected) in [(8.0, 51.0), (24.0, 38.0), (72.0, 19.0)] {
            let c = compare(
                &run(PipelineKind::InSitu, hours),
                &run(PipelineKind::PostProcessing, hours),
            );
            assert!(
                (c.time_saving_pct - expected).abs() < 4.0,
                "at {hours} h: got {:.1} %, paper {expected} %",
                c.time_saving_pct
            );
        }
    }

    #[test]
    fn fig5_power_is_flat_across_pipelines() {
        let insitu = run(PipelineKind::InSitu, 8.0);
        let post = run(PipelineKind::PostProcessing, 8.0);
        let pi = insitu.avg_power_total().kilowatts();
        let pp = post.avg_power_total().kilowatts();
        assert!(
            (pi - pp).abs() < 2.5,
            "power should be ~equal: in-situ {pi:.2} kW vs post {pp:.2} kW"
        );
        // Both near the loaded level, not the idle level.
        assert!(pi > 40.0 && pp > 40.0);
    }

    #[test]
    fn fig6_energy_savings_track_time() {
        let c = compare(
            &run(PipelineKind::InSitu, 8.0),
            &run(PipelineKind::PostProcessing, 8.0),
        );
        assert!(
            (c.energy_saving_pct - 50.0).abs() < 6.0,
            "energy saving {:.1} %",
            c.energy_saving_pct
        );
    }

    #[test]
    fn fig7_storage_shape() {
        let insitu = run(PipelineKind::InSitu, 8.0);
        let post = run(PipelineKind::PostProcessing, 8.0);
        assert!(
            (post.storage_gb() - 230.0).abs() < 5.0,
            "post 8h storage = {} GB",
            post.storage_gb()
        );
        assert!(insitu.storage_gb() < 1.0, "in-situ under 1 GB");
        let c = compare(&insitu, &post);
        assert!(c.storage_reduction_pct > 99.5);
    }

    #[test]
    fn phase_decomposition_sums_to_total() {
        let m = run(PipelineKind::PostProcessing, 24.0);
        let parts = m.t_sim.as_secs_f64() + m.t_io.as_secs_f64() + m.t_viz.as_secs_f64();
        assert!(
            (parts - m.execution_time.as_secs_f64()).abs() < 1e-6,
            "phases {parts} vs total {}",
            m.execution_time.as_secs_f64()
        );
        // t_sim must match the cost model.
        assert!((m.t_sim.as_secs_f64() - 603.0).abs() < 1.0);
    }

    #[test]
    fn deep_idle_policy_reduces_post_power() {
        let busy = Campaign::paper();
        let mut deep = Campaign::paper();
        deep.config.io_policy = IoWaitPolicy::DeepIdle;
        let pc = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
        let p_busy = busy.run(&pc).avg_power_total();
        let p_deep = deep.run(&pc).avg_power_total();
        assert!(
            p_deep.watts() < p_busy.watts() - 3_000.0,
            "deep idle should shave kW off the I/O phases: {p_deep} vs {p_busy}"
        );
    }

    #[test]
    fn noisy_campaign_is_deterministic_per_seed() {
        let a = Campaign::paper_noisy(7).run(&PipelineConfig::paper(PipelineKind::InSitu, 24.0));
        let b = Campaign::paper_noisy(7).run(&PipelineConfig::paper(PipelineKind::InSitu, 24.0));
        assert_eq!(a.execution_time, b.execution_time);
        let c = Campaign::paper_noisy(8).run(&PipelineConfig::paper(PipelineKind::InSitu, 24.0));
        assert_ne!(a.execution_time, c.execution_time);
    }

    #[test]
    fn noisy_campaign_stays_close_to_exact() {
        let exact = run(PipelineKind::InSitu, 8.0);
        let noisy = Campaign::paper_noisy(3).run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
        let rel = (noisy.execution_time.as_secs_f64() - exact.execution_time.as_secs_f64()).abs()
            / exact.execution_time.as_secs_f64();
        assert!(rel < 0.02, "noise should be mild: rel={rel}");
    }

    #[test]
    fn scaled_machines_preserve_the_insitu_advantage() {
        // The paper's exascale motivation: the bigger the machine, the more
        // power idles behind the fixed-bandwidth storage during I/O, so the
        // in-situ energy saving *grows* with machine size.
        let mut savings = Vec::new();
        for cages in [5usize, 15, 45] {
            let campaign = Campaign::caddy_scaled(10 * cages);
            let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
            let post = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, 8.0));
            let c = compare(&insitu, &post);
            savings.push(c.energy_saving_pct);
            // Storage footprint is machine-independent.
            assert!((post.storage_gb() - 230.6).abs() < 1.0);
        }
        assert!(
            savings[0] < savings[1] && savings[1] < savings[2],
            "energy saving should grow with machine size: {savings:?}"
        );
    }

    #[test]
    fn caddy_scaled_150_reproduces_the_seed_machine_exactly() {
        // Node-granular scaling audit: at the seed's 150 nodes the scaled
        // constructor must be the paper campaign bit-for-bit (digest, not
        // tolerance), for both pipeline families.
        let scaled = Campaign::caddy_scaled(150);
        assert_eq!(scaled.topology, ClusterTopology::caddy());
        assert_eq!(scaled.config.viz_seconds_per_output.to_bits(), {
            let paper = Campaign::paper();
            paper.config.viz_seconds_per_output.to_bits()
        });
        for pc in PipelineConfig::paper_matrix() {
            let a = Campaign::paper().run(&pc);
            let b = scaled.run(&pc);
            assert_eq!(
                a.digest(),
                b.digest(),
                "{:?} @ {} h",
                pc.kind,
                pc.rate.every_hours
            );
        }
    }

    #[test]
    fn caddy_scaled_never_truncates_node_counts() {
        // Non-divisible node counts must come out exact — the floor-division
        // failure mode would silently drop nodes (157 → 150, say).
        for nodes in [1usize, 7, 149, 150, 157, 1_001, 10_000] {
            let t = ClusterTopology::caddy_scaled(nodes);
            assert_eq!(t.num_nodes(), nodes, "scaled topology truncated");
            assert_eq!(t.num_cores(), nodes * 16);
            let c = Campaign::caddy_scaled(nodes);
            assert_eq!(c.topology.num_nodes(), nodes);
            assert_eq!(c.cost.cores, (nodes * 16) as u64);
        }
        // Prime counts fall back to one-node cages rather than losing nodes.
        assert_eq!(ClusterTopology::caddy_scaled(157).nodes_per_cage, 1);
        assert_eq!(ClusterTopology::caddy_scaled(10_000).nodes_per_cage, 10);
    }

    fn buffered(pc: PipelineConfig, bb: BurstBufferConfig) -> Plan {
        Plan {
            burst_buffer: Some(bb),
            ..Plan::new(pc)
        }
    }

    #[test]
    fn burst_buffer_overlaps_writes_with_simulation() {
        let campaign = Campaign::paper();
        let pc = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
        let plain = campaign.run(&pc);
        let buffered = campaign
            .execute(&buffered(pc, BurstBufferConfig::two_tb_nvram()))
            .expect("the buffer fits the paper config")
            .metrics;
        // The buffer overlaps the 1449 s of raw writes with the 603 s of
        // simulation: buffered post-processing is faster...
        assert!(
            buffered.execution_time.as_secs_f64() < plain.execution_time.as_secs_f64() - 300.0,
            "buffered {} vs plain {}",
            buffered.execution_time.as_secs_f64(),
            plain.execution_time.as_secs_f64()
        );
        // ...but still slower than in-situ (the drain is on the critical
        // path before visualization), and the footprint is unchanged.
        let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
        assert!(
            buffered.execution_time.as_secs_f64() > insitu.execution_time.as_secs_f64() + 300.0
        );
        assert_eq!(buffered.storage_bytes, plain.storage_bytes);
    }

    /// The detail of the typed rejection `plan` must get.
    fn rejection(plan: &Plan) -> String {
        match Campaign::paper().execute(plan) {
            Err(PipelineError::InvalidConfig { detail }) => detail,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_burst_buffers_are_typed_errors() {
        let post = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
        let nvram = BurstBufferConfig::two_tb_nvram();
        let zero_capacity = BurstBufferConfig {
            capacity_bytes: 0,
            ..nvram.clone()
        };
        let detail = rejection(&buffered(post.clone(), zero_capacity));
        assert!(detail.contains("capacity"), "{detail}");
        for bps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bb = BurstBufferConfig {
                absorb_bandwidth_bps: bps,
                ..nvram.clone()
            };
            let detail = rejection(&buffered(post.clone(), bb));
            assert!(detail.contains("absorb bandwidth"), "{bps}: {detail}");
        }
    }

    #[test]
    fn burst_buffer_needs_a_plain_posthoc_plan() {
        let nvram = BurstBufferConfig::two_tb_nvram();
        let insitu = buffered(
            PipelineConfig::paper(PipelineKind::InSitu, 8.0),
            nvram.clone(),
        );
        assert!(rejection(&insitu).contains("burst buffer"));
        let staged = Plan {
            staging: Some(crate::intransit::InTransitConfig::caddy_default()),
            ..buffered(
                PipelineConfig::paper(PipelineKind::PostProcessing, 8.0),
                nvram,
            )
        };
        assert!(rejection(&staged).contains("burst buffer"));
    }

    #[test]
    fn paper_matrix_runs_all_six() {
        let all = Campaign::paper().run_paper_matrix();
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|m| m.execution_time.as_secs_f64() > 600.0));
    }

    #[test]
    fn storage_power_profile_is_nearly_flat() {
        let m = run(PipelineKind::PostProcessing, 8.0);
        let peak = m.storage_profile.peak().watts();
        let floor = m.storage_profile.floor().watts();
        assert!(peak <= 2302.0 + 1e-9);
        assert!(floor >= 2273.0 - 1e-9);
        assert!(peak - floor < 30.0, "rack dynamic range stays tiny");
    }

    /// The validation error of a plan that must be rejected.
    fn rejected(plan: &Plan) -> String {
        match Campaign::paper().execute(plan) {
            Err(PipelineError::InvalidConfig { detail }) => detail,
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|r| r.metrics.num_outputs)
            ),
        }
    }

    /// In-situ @ 8 h on the paper problem, with `edit` applied to the spec.
    fn spec_plan(edit: impl FnOnce(&mut ProblemSpec)) -> Plan {
        let mut pipeline = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
        edit(&mut pipeline.spec);
        Plan::new(pipeline)
    }

    #[test]
    fn zero_step_minutes_is_rejected_instead_of_overflowing_time() {
        let detail = rejected(&spec_plan(|s| s.step_minutes = 0.0));
        assert!(detail.contains("step_minutes"), "{detail}");
    }

    #[test]
    fn nan_step_minutes_is_rejected() {
        let detail = rejected(&spec_plan(|s| s.step_minutes = f64::NAN));
        assert!(detail.contains("step_minutes"), "{detail}");
    }

    #[test]
    fn zero_cells_is_rejected() {
        let detail = rejected(&spec_plan(|s| s.num_cells = 0));
        assert!(detail.contains("num_cells"), "{detail}");
    }

    #[test]
    fn negative_duration_is_rejected() {
        let detail = rejected(&spec_plan(|s| s.duration_hours = -5.0));
        assert!(detail.contains("duration_hours"), "{detail}");
    }

    #[test]
    fn raw_output_size_overflow_is_rejected() {
        let detail = rejected(&spec_plan(|s| s.num_cells = u64::MAX / 8));
        assert!(detail.contains("overflows u64"), "{detail}");
    }

    #[test]
    fn compute_span_past_sim_time_is_rejected() {
        // The raw output (≈1.8e19 B) still fits u64, but 8 640 steps of
        // Caddy compute on this mesh take ≈2.4e13 s, past SimTime's
        // ≈1.8e13 s: the run used to panic after ~420 outputs.
        let detail = rejected(&spec_plan(|s| s.num_cells = 28_000_000_000_000_000));
        assert!(detail.contains("simulated time holds"), "{detail}");
    }
}
