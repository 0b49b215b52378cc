//! Fault-aware pipeline execution: retries, timeouts and graceful
//! degradation for the measured-cluster backend.
//!
//! [`Campaign::run`] models the paper's healthy machine. This module runs
//! the *same* executors ([`des`](crate::des)) under an
//! [`ivis_fault::FaultPlan`] — OSS bandwidth brownouts, MDS stalls,
//! transient I/O failures, full-disk pressure and compute stragglers —
//! and gives them the machinery to survive:
//!
//! * a [`RetryPolicy`](ivis_fault::RetryPolicy): bounded exponential
//!   backoff with deterministic jitter and a per-op latency SLO;
//! * a [`DegradationPolicy`](ivis_fault::DegradationPolicy): under
//!   sustained pressure the pipeline sheds load by dropping to a lower
//!   effective visualization rate (and skipping the matching raw dumps),
//!   exactly the Eq. 6/7 rate lever the paper models;
//! * typed errors ([`PipelineError`]) when retries are exhausted or the
//!   storage model rejects an operation terminally.
//!
//! Every retry, SLO violation, shed and degradation-level change is
//! recorded as [`Component::Fault`] events and `fault.*` counters on the
//! campaign's [`Recorder`], and the compute energy burned inside backoff
//! windows is reported separately ([`FaultedRun::retry_energy`]) so a
//! degraded run's energy bill can be decomposed.
//!
//! **Determinism contract**: a clean run *is* a fault-aware run under an
//! empty plan — the fault RNG is never consulted, the storage hooks stay
//! at their nominal values, and every arithmetic path multiplies by
//! exactly `1.0`. With a seeded plan the run (metrics, trace and stats)
//! replays bit-for-bit at any host thread count; the CI fault matrix
//! enforces it.

use ivis_fault::{FaultScenario, FaultSession, FaultStats};
use ivis_obs::{AttrValue, Component, Recorder};
use ivis_power::units::Joules;
use ivis_sim::SimTime;
use ivis_storage::{ParallelFileSystem, PfsError};

use crate::campaign::{note_write, Campaign};
use crate::config::PipelineConfig;
use crate::intransit::InTransitConfig;
use crate::metrics::PipelineMetrics;

/// A pipeline run failed in a way the resilience machinery could not
/// absorb. The variants carry enough context (sim-time, path, underlying
/// storage error) to diagnose the run post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The storage model rejected an operation terminally (no retry
    /// applies: out of space with nothing reserved, bad path, ...).
    Storage {
        /// Sim-time the operation was submitted.
        at: SimTime,
        /// Path of the failed operation.
        path: String,
        /// The underlying storage error.
        source: PfsError,
    },
    /// A transient failure persisted through every allowed attempt.
    RetriesExhausted {
        /// Sim-time of the final failed attempt.
        at: SimTime,
        /// Path of the failed operation.
        path: String,
        /// Attempts made (equals the policy's `max_attempts`).
        attempts: u32,
        /// The last failure observed.
        source: PfsError,
    },
    /// A stored frame failed to decode on read-back (truncated bytes,
    /// missing variable or attribute, wrong dtype). Carried typed so a
    /// corrupt file fails one frame, not the whole campaign via panic.
    CorruptFrame {
        /// Output index of the frame that failed to decode.
        frame: u64,
        /// What the decoder rejected.
        detail: String,
    },
    /// The run was asked for something the executor cannot model (an
    /// empty or whole-machine staging partition, a zero-depth transport,
    /// a compression ratio below 1). Nothing was simulated.
    InvalidConfig {
        /// Which setting was rejected, and why.
        detail: String,
    },
}

impl PipelineError {
    pub(crate) fn storage(at: SimTime, path: &str, source: PfsError) -> Self {
        PipelineError::Storage {
            at,
            path: path.to_string(),
            source,
        }
    }

    pub(crate) fn invalid(detail: String) -> Self {
        PipelineError::InvalidConfig { detail }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Storage { at, path, source } => {
                write!(f, "storage error at t={at} on {path}: {source}")
            }
            PipelineError::RetriesExhausted {
                at,
                path,
                attempts,
                source,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts at t={at} on {path}: {source}"
            ),
            PipelineError::CorruptFrame { frame, detail } => {
                write!(f, "corrupt frame {frame}: {detail}")
            }
            PipelineError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Storage { source, .. }
            | PipelineError::RetriesExhausted { source, .. } => Some(source),
            PipelineError::CorruptFrame { .. } | PipelineError::InvalidConfig { .. } => None,
        }
    }
}

/// Everything a fault-aware run produces: the usual metrics artifact, the
/// fault layer's counters, and the compute energy burned inside retry
/// backoff windows (attributed via the compute power profile, tiling the
/// run exactly like the per-phase attribution does).
#[derive(Debug, Clone)]
pub struct FaultedRun {
    /// The metrics artifact, same shape as a clean run's.
    pub metrics: PipelineMetrics,
    /// What the fault layer did.
    pub stats: FaultStats,
    /// Compute energy spent waiting out retry backoffs.
    pub retry_energy: Joules,
}

impl FaultedRun {
    pub(crate) fn finish(metrics: PipelineMetrics, session: FaultSession) -> Self {
        let retry_energy = metrics
            .compute_profile
            .energy_over(session.backoff_windows());
        FaultedRun {
            metrics,
            stats: session.into_stats(),
            retry_energy,
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

/// How one resilient write ended (when it didn't error out).
pub(crate) enum WriteOutcome {
    /// Durable at the carried completion time.
    Written(SimTime),
    /// Shed under disk pressure; the clock did not advance past `at`.
    SpaceShed(SimTime),
}

/// One storage write request as the resilient path sees it.
pub(crate) struct WriteOp<'a> {
    pub(crate) path: &'a str,
    pub(crate) bytes: u64,
    /// Output index, for events.
    pub(crate) index: u64,
    /// Whether this write is one of the run's per-sample outputs (counted
    /// in `outputs_written` / `space_sheds`); the post-processing image
    /// tarball, for instance, is not.
    pub(crate) counts: bool,
}

/// Record a degradation-level transition if one happened.
fn note_level(rec: &Recorder, t: SimTime, change: Option<u8>) {
    if let Some(level) = change {
        rec.event(
            t,
            "degradation_level",
            Component::Fault,
            &[("level", AttrValue::U64(level as u64))],
        );
        rec.gauge_set(t, "fault.degradation_level", level as f64);
    }
}

/// Record a storage fault-state transition.
fn note_fault_state(rec: &Recorder, t: SimTime, s: ivis_fault::StorageState) {
    if !rec.is_on() {
        return;
    }
    rec.event(t, "fault_state", Component::Fault, &[]);
    rec.gauge_set(t, "fault.oss_scale", s.oss_scale);
    rec.gauge_set(t, "fault.mds_surcharge_s", s.mds_surcharge.as_secs_f64());
    rec.gauge_set(t, "fault.reserved_bytes", s.reserved_bytes as f64);
    rec.gauge_set(t, "fault.io_fail_prob", s.io_fail_prob);
}

/// Record a degradation shed of output `index` and count it.
pub(crate) fn note_degraded_shed(
    rec: &Recorder,
    session: &mut FaultSession,
    t: SimTime,
    index: u64,
) {
    session.stats.outputs_shed += 1;
    rec.event(
        t,
        "output_shed",
        Component::Fault,
        &[
            ("index", AttrValue::U64(index)),
            ("reason", AttrValue::Str("degraded")),
        ],
    );
    rec.counter_add(t, "fault.sheds", 1.0);
}

/// Write one output through the retry/timeout/shed machinery.
///
/// The loop: sync the storage hooks to the plan, roll the transient-
/// failure die, attempt the write. Success feeds the degradation state
/// machine (clean if on-SLO and first-try, pressure otherwise); a
/// transient failure backs off (deterministic jitter) and retries up to
/// the policy's budget; `NoSpace` under an active disk-pressure fault
/// sheds the output gracefully; anything else is a terminal
/// [`PipelineError`].
pub(crate) fn resilient_write(
    rec: &Recorder,
    session: &mut FaultSession,
    pfs: &mut ParallelFileSystem,
    mut now: SimTime,
    op: &WriteOp<'_>,
) -> Result<WriteOutcome, PipelineError> {
    let mut failed = 0u32;
    loop {
        if let Some(state) = session.sync_storage(now, pfs) {
            note_fault_state(rec, now, state);
        }
        if session.roll_io_failure(now) {
            pfs.arm_transient_failures(1);
            rec.counter_add(now, "fault.injected_failures", 1.0);
        }
        let wid = rec.span(now, "pfs_write", Component::Storage);
        rec.set_attr(wid, "bytes", AttrValue::U64(op.bytes));
        let submitted = now;
        match pfs.write(now, op.path, op.bytes) {
            Ok(done) => {
                rec.close(done, wid);
                note_write(rec, pfs, submitted, done, op.index, op.bytes);
                if op.counts {
                    session.stats.outputs_written += 1;
                }
                let on_slo = match session.retry.op_slo {
                    Some(slo) => done - submitted <= slo,
                    None => true,
                };
                if !on_slo {
                    session.stats.slo_violations += 1;
                    rec.event(
                        done,
                        "io_slo_violation",
                        Component::Fault,
                        &[
                            ("index", AttrValue::U64(op.index)),
                            (
                                "write_seconds",
                                AttrValue::F64((done - submitted).as_secs_f64()),
                            ),
                        ],
                    );
                    rec.counter_add(done, "fault.slo_violations", 1.0);
                }
                if on_slo && failed == 0 {
                    note_level(rec, done, session.clean());
                } else {
                    note_level(rec, done, session.pressure());
                }
                return Ok(WriteOutcome::Written(done));
            }
            Err(source @ PfsError::Io { .. }) => {
                rec.set_attr(wid, "error", AttrValue::Str("transient-io"));
                rec.close(now, wid);
                failed += 1;
                note_level(rec, now, session.pressure());
                if failed >= session.retry.max_attempts {
                    return Err(PipelineError::RetriesExhausted {
                        at: now,
                        path: op.path.to_string(),
                        attempts: failed,
                        source,
                    });
                }
                let backoff = session.backoff_for(failed);
                rec.event(
                    now,
                    "io_retry",
                    Component::Fault,
                    &[
                        ("index", AttrValue::U64(op.index)),
                        ("attempt", AttrValue::U64((failed + 1) as u64)),
                        ("backoff_seconds", AttrValue::F64(backoff.as_secs_f64())),
                    ],
                );
                rec.counter_add(now, "fault.retries", 1.0);
                rec.histogram_record(now, "fault.retry_backoff_seconds", backoff.as_secs_f64());
                session.note_backoff(now, now + backoff);
                now += backoff;
            }
            Err(source @ PfsError::NoSpace { .. }) => {
                rec.set_attr(wid, "error", AttrValue::Str("no-space"));
                rec.close(now, wid);
                if pfs.reserved_bytes() > 0 {
                    // An active disk-pressure fault withheld the space:
                    // shed the output gracefully instead of aborting.
                    if op.counts {
                        session.stats.space_sheds += 1;
                    }
                    rec.event(
                        now,
                        "output_shed",
                        Component::Fault,
                        &[
                            ("index", AttrValue::U64(op.index)),
                            ("reason", AttrValue::Str("no-space")),
                        ],
                    );
                    rec.counter_add(now, "fault.sheds", 1.0);
                    note_level(rec, now, session.pressure());
                    return Ok(WriteOutcome::SpaceShed(now));
                }
                return Err(PipelineError::storage(now, op.path, source));
            }
            Err(source) => {
                rec.close(now, wid);
                return Err(PipelineError::storage(now, op.path, source));
            }
        }
    }
}

impl Campaign {
    /// Execute one pipeline configuration under a fault scenario.
    ///
    /// With [`FaultScenario::none`] the result's metrics are bit-identical
    /// to [`Campaign::run`] (and so is the trace, up to the post-hoc
    /// `images.tar` span noted on the executor); with a seeded plan the
    /// run degrades gracefully (retries, sheds) or fails with a typed
    /// [`PipelineError`] — never a panic.
    pub fn run_faulted(
        &self,
        pc: &PipelineConfig,
        scenario: &FaultScenario,
    ) -> Result<FaultedRun, PipelineError> {
        self.run_on_engine(pc, scenario, true).map(|(run, _)| run)
    }

    /// The in-transit pipeline under a fault scenario: degradation sheds,
    /// retry backoff, compute stragglers and `LinkBrownout` derating all
    /// compose with the depth-`k` queue. See
    /// [`run_faulted`](Self::run_faulted) for the contract.
    pub fn run_intransit_faulted(
        &self,
        pc: &PipelineConfig,
        it: &InTransitConfig,
        scenario: &FaultScenario,
    ) -> Result<FaultedRun, PipelineError> {
        self.intransit_des(pc, it, scenario).map(|(run, _)| run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineKind;
    use ivis_fault::{DegradationPolicy, FaultKind, FaultPlan, FaultWindow, RetryPolicy};
    use ivis_obs::to_jsonl;
    use ivis_sim::SimDuration;

    fn insitu_8h() -> PipelineConfig {
        PipelineConfig::paper(PipelineKind::InSitu, 8.0)
    }

    #[test]
    fn empty_scenario_is_bit_identical_across_paper_matrix() {
        let campaign = Campaign::paper();
        for pc in PipelineConfig::paper_matrix() {
            let clean = campaign.run(&pc);
            let faulted = campaign
                .run_faulted(&pc, &FaultScenario::none())
                .expect("empty scenario cannot fail");
            let m = &faulted.metrics;
            assert_eq!(clean.execution_time, m.execution_time);
            assert_eq!(clean.t_sim, m.t_sim);
            assert_eq!(clean.t_io, m.t_io);
            assert_eq!(clean.t_viz, m.t_viz);
            assert_eq!(clean.storage_bytes, m.storage_bytes);
            assert_eq!(clean.num_outputs, m.num_outputs);
            assert_eq!(
                clean.compute_profile.energy().joules().to_bits(),
                m.compute_profile.energy().joules().to_bits()
            );
            assert_eq!(
                clean.storage_profile.energy().joules().to_bits(),
                m.storage_profile.energy().joules().to_bits()
            );
            let expected = FaultStats {
                outputs_written: clean.num_outputs,
                ..FaultStats::default()
            };
            assert_eq!(faulted.stats, expected);
            assert_eq!(faulted.retry_energy, Joules::ZERO);
        }
    }

    /// JSONL trace of a noisy traced campaign after `run` ran on it.
    fn traced(run: impl Fn(&Campaign)) -> String {
        let mut campaign = Campaign::paper_noisy(11);
        let rec = Recorder::in_memory();
        campaign.config.recorder = rec.clone();
        run(&campaign);
        rec.with_buffer(to_jsonl).expect("recorder is on")
    }

    #[test]
    fn empty_plan_trace_differs_only_by_the_posthoc_tail_span() {
        // Why `postproc_des` carries `resilient_tail`: the fault-aware
        // post-hoc tail commits `/postproc/images.tar` through
        // `resilient_write`, which wraps the write in a `pfs_write` span;
        // the clean tail (whose trace is pinned) writes it bare. That one
        // span — and the meta line's span count — is the whole difference.
        let none = FaultScenario::none();
        for pc in PipelineConfig::paper_matrix() {
            let clean = traced(|c| drop(c.run(&pc)));
            let faulted = traced(|c| drop(c.run_faulted(&pc, &none).expect("empty plan")));
            if pc.kind == PipelineKind::InSitu {
                assert_eq!(clean, faulted, "in-situ @ {} h", pc.rate.every_hours);
                continue;
            }
            let c: Vec<&str> = clean.lines().collect();
            let f: Vec<&str> = faulted.lines().collect();
            assert_eq!(f.len(), c.len() + 1, "exactly one extra record");
            let at = (1..c.len()).find(|&i| c[i] != f[i]).unwrap_or(c.len());
            let images =
                Campaign::paper().config.image_bytes_per_output * pc.spec.num_outputs(pc.rate);
            assert!(
                f[at].contains(r#""name":"pfs_write""#)
                    && f[at].contains(&format!(r#""attrs":{{"bytes":{images}}}"#)),
                "extra record is the images.tar write span: {}",
                f[at]
            );
            assert_eq!(f[1..at], c[1..at]);
            assert_eq!(f[at + 1..], c[at..]);
            let spans = c.iter().filter(|l| l.contains(r#""type":"span""#)).count();
            assert_eq!(
                f[0],
                c[0].replace(
                    &format!(r#""spans":{spans},"#),
                    &format!(r#""spans":{},"#, spans + 1)
                )
            );
        }
        // In-transit has no such tail: byte-identical.
        let mut pc = insitu_8h();
        pc.kind = crate::intransit::reported_kind();
        let it = InTransitConfig::caddy_default();
        assert_eq!(
            traced(|c| drop(c.run_intransit(&pc, &it))),
            traced(|c| drop(
                c.run_intransit_faulted(&pc, &it, &none)
                    .expect("empty plan")
            ))
        );
    }

    #[test]
    fn brownout_lengthens_io_but_not_compute() {
        let campaign = Campaign::paper();
        let pc = insitu_8h();
        let clean = campaign.run(&pc);
        // Halve the OSS bandwidth for the whole run.
        let plan = FaultPlan::new(1).inject(
            FaultWindow::of_secs(0, 100_000),
            FaultKind::OssBrownout { scale: 0.5 },
        );
        let hurt = campaign
            .run_faulted(&pc, &FaultScenario::with_plan(plan))
            .expect("brownout alone never kills a run");
        let m = &hurt.metrics;
        assert!(
            m.t_io > clean.t_io,
            "halved bandwidth must lengthen I/O: {} vs {}",
            m.t_io.as_secs_f64(),
            clean.t_io.as_secs_f64()
        );
        assert_eq!(m.t_sim, clean.t_sim, "compute untouched");
        assert_eq!(m.num_outputs, clean.num_outputs, "nothing shed");
        assert_eq!(hurt.stats.outputs_written, clean.num_outputs);
    }

    #[test]
    fn transient_window_retries_through_and_completes() {
        let campaign = Campaign::paper();
        let pc = insitu_8h();
        // Every write fails while the window is open; the backoff schedule
        // walks the retries out of the 10 s window.
        let plan = FaultPlan::new(3).inject(
            FaultWindow::of_secs(0, 10),
            FaultKind::TransientIo { fail_prob: 1.0 },
        );
        let run = campaign
            .run_faulted(&pc, &FaultScenario::with_plan(plan))
            .expect("retries must carry the run past a 10 s outage");
        assert!(run.stats.injected_io_failures >= 1);
        assert_eq!(run.stats.retries, run.stats.injected_io_failures);
        assert!(run.stats.backoff > SimDuration::ZERO);
        assert!(run.retry_energy.joules() > 0.0, "backoff burns energy");
        assert_eq!(run.stats.outputs_total(), 540);
        let clean = campaign.run(&pc);
        assert!(run.metrics.execution_time > clean.execution_time);
    }

    #[test]
    fn persistent_outage_fails_with_typed_error_not_panic() {
        let campaign = Campaign::paper();
        let pc = insitu_8h();
        let plan = FaultPlan::new(4).inject(
            FaultWindow::of_secs(0, 1_000_000),
            FaultKind::TransientIo { fail_prob: 1.0 },
        );
        let mut scenario = FaultScenario::with_plan(plan);
        scenario.retry = RetryPolicy::no_retries();
        let err = campaign.run_faulted(&pc, &scenario).unwrap_err();
        match err {
            PipelineError::RetriesExhausted {
                attempts, ref path, ..
            } => {
                assert_eq!(attempts, 1);
                assert!(path.contains("/insitu/cinema/"));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(err.to_string().contains("retries exhausted"));
    }

    #[test]
    fn sustained_pressure_degrades_and_recovers() {
        let campaign = Campaign::paper();
        let pc = insitu_8h();
        // A long mid-run transient storm: enough consecutive failures to
        // escalate, then a clean tail to recover.
        let plan = FaultPlan::new(5).inject(
            FaultWindow::of_secs(50, 300),
            FaultKind::TransientIo { fail_prob: 0.9 },
        );
        let mut scenario = FaultScenario::with_plan(plan);
        scenario.degradation = DegradationPolicy {
            pressure_trigger: 2,
            clean_recover: 4,
            max_level: 3,
        };
        // Enough backoff budget (2+4+...+60·5 ≈ 360 s, jitter floor ×0.75)
        // to walk any retry chain out of the 250 s storm.
        scenario.retry.max_attempts = 10;
        let run = campaign
            .run_faulted(&pc, &scenario)
            .expect("degrades, not dies");
        assert!(run.stats.escalations >= 1, "storm must escalate");
        assert!(run.stats.outputs_shed >= 1, "degraded level sheds samples");
        assert!(
            run.stats.recoveries >= 1,
            "clean tail must recover: {:?}",
            run.stats
        );
        assert_eq!(run.stats.final_level, 0, "fully recovered by the end");
        assert_eq!(run.stats.outputs_total(), 540, "every sample accounted for");
        assert_eq!(run.metrics.num_outputs, run.stats.outputs_written);
    }

    #[test]
    fn disk_pressure_sheds_raw_dumps_gracefully() {
        let campaign = Campaign::paper();
        let pc = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
        let clean = campaign.run(&pc);
        // Reserve all but 100 MB of the rack: every 426 MB raw dump sheds.
        let capacity = 7_700_000_000_000u64;
        let plan = FaultPlan::new(6).inject(
            FaultWindow::of_secs(0, 1_000_000),
            FaultKind::DiskPressure {
                reserve_bytes: capacity - 100_000_000,
            },
        );
        let run = campaign
            .run_faulted(&pc, &FaultScenario::with_plan(plan))
            .expect("full disk degrades, not dies");
        assert!(run.stats.space_sheds >= 1);
        assert_eq!(run.stats.outputs_total(), 540);
        assert!(
            run.metrics.storage_bytes < clean.storage_bytes / 100,
            "shed run stores almost nothing: {} vs {}",
            run.metrics.storage_bytes,
            clean.storage_bytes
        );
        assert_eq!(run.metrics.num_outputs, run.stats.outputs_written);
    }

    #[test]
    fn straggler_gates_the_bulk_synchronous_step() {
        let campaign = Campaign::paper();
        let pc = insitu_8h();
        let clean = campaign.run(&pc);
        let plan = FaultPlan::new(7).inject(
            FaultWindow::of_secs(0, 1_000_000),
            FaultKind::ComputeStraggler { slowdown: 2.0 },
        );
        let run = campaign
            .run_faulted(&pc, &FaultScenario::with_plan(plan))
            .expect("stragglers only slow the run");
        let slowed = run.metrics.t_sim.as_secs_f64();
        let base = clean.t_sim.as_secs_f64();
        // Per-chunk microsecond rounding leaves sub-millisecond residue
        // over the 540 chunks.
        assert!(
            (slowed - 2.0 * base).abs() < 0.01,
            "BSP slowdown doubles t_sim: {slowed} vs {base}"
        );
    }

    #[test]
    fn intransit_empty_scenario_matches_clean_run() {
        let campaign = Campaign::paper();
        let mut pc = insitu_8h();
        pc.kind = crate::intransit::reported_kind();
        let it = InTransitConfig::caddy_default();
        let clean = campaign.run_intransit(&pc, &it);
        let faulted = campaign
            .run_intransit_faulted(&pc, &it, &FaultScenario::none())
            .expect("empty scenario cannot fail");
        assert_eq!(clean.execution_time, faulted.metrics.execution_time);
        assert_eq!(clean.t_sim, faulted.metrics.t_sim);
        assert_eq!(
            clean.compute_profile.energy().joules().to_bits(),
            faulted.metrics.compute_profile.energy().joules().to_bits()
        );
        let expected = FaultStats {
            outputs_written: clean.num_outputs,
            ..FaultStats::default()
        };
        assert_eq!(faulted.stats, expected);
    }

    #[test]
    fn faulted_run_digest_is_replay_stable() {
        let campaign = Campaign::paper();
        let pc = insitu_8h();
        let plan = FaultPlan::random(42, SimDuration::from_secs(1300));
        let scenario = FaultScenario::with_plan(plan);
        let a = campaign.run_faulted(&pc, &scenario).map(|r| r.digest());
        let b = campaign.run_faulted(&pc, &scenario).map(|r| r.digest());
        assert_eq!(a.ok(), b.ok());
    }
}
