//! The pipeline executors: one event chain per family on the
//! discrete-event engine ([`ivis_sim::DesEngine`]).
//!
//! [`Campaign::execute`] runs every [`Plan`] on one of the three
//! executors in this module (in-situ, post-hoc, in-transit). There is no
//! second implementation to keep in step:
//!
//! * a **clean** run is the fault-aware executor under
//!   [`FaultScenario::none`]: the session never consults its RNG, the
//!   storage hooks stay nominal and every slowdown multiplies by
//!   exactly `1.0`;
//! * the **synchronous** in-transit hand-off is the staged transport at
//!   depth 1 without compression;
//! * a **burst buffer** is a storage tier of the post-hoc chain: the raw
//!   dumps go through it, and the drain wait before read-back is analytic
//!   lookahead inside the `Trailing` event, so it adds no event.
//!
//! **Determinism contract.** A run — metrics, recorder trace, exporter
//! artifacts, fault and transport stats — is a pure function of the
//! campaign and the plan, at any host thread count. The chains keep that
//! by construction:
//!
//! * exactly **one event is pending at a time** —
//!   `Simulate(k) → Render(k) → Write(k) → Simulate(k+1) → …` fires in
//!   `(time, seq)` order, which is program order;
//! * storage completions, backoff schedules, burst-buffer drains and
//!   staging-queue drains are *analytic lookahead* — computed inside the
//!   event that submits them, never re-ordered by the queue.
//!
//! The outputs are pinned rather than re-derived:
//! `tests/golden/executor_identity.txt` holds what the imperative loop
//! executors these chains replaced produced (paper matrix with traces,
//! fault seeds, staging sweep, synchronous hand-off, burst buffer), and
//! `tests/des_identity.rs` / `tests/intransit_transport.rs` hold the
//! chains to it at 1, 2 and 8 threads.

use std::collections::VecDeque;

use ivis_cluster::{JobPhase, SharedLink};
use ivis_fault::{FaultScenario, FaultSession};
use ivis_obs::jsonl::{digits_before, pairs_before};
use ivis_obs::{AttrValue, Component};
use ivis_ocean::cost::SimulationCostModel;
use ivis_sim::{DesEngine, SimDuration, SimRng, SimTime};
use ivis_storage::burst_buffer::BurstBuffer;
use ivis_storage::ParallelFileSystem;

use crate::campaign::{note_write, Campaign, PhaseTracer, Plan, Run};
use crate::config::PipelineConfig;
use crate::intransit::InTransitConfig;
use crate::resilience::{
    note_degraded_shed, resilient_write, PipelineError, WriteOp, WriteOutcome,
};
use crate::transport::{per_node_payload, TransportStats};

/// The in-situ image set of sample `k`: `{prefix}{k:06}{suffix}`.
const INSITU_IMAGES: (&str, &str) = ("/insitu/cinema/ts_", ".png");
/// The post-hoc raw dump of sample `k`.
const POSTPROC_RAW: (&str, &str) = ("/postproc/raw/out_", ".nc");
/// The in-transit image set of sample `k`.
const INTRANSIT_IMAGES: (&str, &str) = ("/intransit/cinema/ts_", ".png");

/// One run's per-sample output paths, written into one `String`.
///
/// [`OutputPath::of`] gives the bytes `format!("{prefix}{k:06}{suffix}")`
/// gives, for every `k`: the path picks the MDS a new file queues on, and
/// that queue is in the pinned completion times. The index is written
/// with the pair-table digit writer the trace exporters share, so no
/// write goes through `core::fmt` or allocates.
struct OutputPath {
    buf: String,
    prefix: usize,
    suffix: &'static str,
}

impl OutputPath {
    fn new((prefix, suffix): (&str, &'static str)) -> Self {
        let mut buf = String::with_capacity(prefix.len() + 20 + suffix.len());
        buf.push_str(prefix);
        OutputPath {
            buf,
            prefix: prefix.len(),
            suffix,
        }
    }

    /// The path of sample `k`, valid until the next call.
    fn of(&mut self, k: u64) -> &str {
        let mut digits = [0u8; 20];
        // `{:06}` pads to six digits and never truncates.
        let start = if k < 1_000_000 {
            pairs_before(&mut digits, 20, k, 3)
        } else {
            digits_before(&mut digits, 20, k)
        };
        self.buf.truncate(self.prefix);
        self.buf
            .push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
        self.buf.push_str(self.suffix);
        &self.buf
    }
}

/// Event chain of the in-situ family.
enum InsituEvent {
    /// Simulate chunk `k` (phase begins at the event time).
    Simulate(u64),
    /// Catalyst render of sample `k`.
    Render(u64),
    /// Image write of sample `k` through the resilient path.
    Write(u64),
    /// Trailing simulation steps after the last output.
    Trailing,
    /// Terminal: record the makespan.
    Finish,
}

/// Event chain of the post-hoc family.
enum PostprocEvent {
    /// Simulate chunk `k`.
    Simulate(u64),
    /// Raw netCDF dump of sample `k` through the resilient path (and the
    /// burst buffer, when the plan names one).
    RawWrite(u64),
    /// Trailing simulation steps, then the wait for the burst buffer to
    /// drain to Lustre.
    Trailing,
    /// Stage 2: read back and render everything that landed.
    ReadRender,
    /// Stage 2: write the image tarball.
    ImagesWrite,
    /// Terminal: record the makespan.
    Finish,
}

/// Event chain of the in-transit family: one event per sample plus the
/// trailing/drain tail. A sample's side effects are not time-monotone
/// (the image write of sample `k` lands after the simulation of `k+1`
/// starts), so splitting them across time-ordered events would reorder
/// the trace; one event per sample keeps program order.
enum TransitEvent {
    /// Sample `k` end to end: simulate, compress, backpressure, hand-off,
    /// render, image write.
    Chunk(u64),
    /// Trailing steps, staging drain, machine finish.
    Tail,
}

impl Campaign {
    /// The in-situ executor: simulate a chunk, render it in place, write
    /// the image set through the resilient path; a degraded sample skips
    /// its render and write.
    pub(crate) fn insitu_des(
        &self,
        pc: &PipelineConfig,
        scenario: &FaultScenario,
    ) -> Result<Run, PipelineError> {
        let mut session = FaultSession::new(scenario);
        let mut rng = SimRng::new(self.config.seed);
        let mut machine = self.machine();
        let mut pfs = ParallelFileSystem::caddy_lustre();
        let rec = &self.config.recorder;
        let spec = &pc.spec;
        let n_out = spec.num_outputs(pc.rate);
        let spp = spec.steps_per_output(pc.rate);
        let step_secs = self.cost.step_seconds(spec);
        let trailing = spec.total_steps().saturating_sub(n_out * spp);
        let root = self.open_root(pc, SimTime::ZERO);
        let mut tracer = PhaseTracer::new(rec);
        let mut written = 0u64;
        let mut end = SimTime::ZERO;
        let mut error: Option<PipelineError> = None;
        let mut paths = OutputPath::new(INSITU_IMAGES);

        let next_sim = |k: u64| {
            if k + 1 < n_out {
                InsituEvent::Simulate(k + 1)
            } else {
                InsituEvent::Trailing
            }
        };
        let mut engine: DesEngine<InsituEvent> = DesEngine::with_capacity(1);
        engine.schedule_at(
            SimTime::ZERO,
            if n_out > 0 {
                InsituEvent::Simulate(0)
            } else {
                InsituEvent::Trailing
            },
        );
        let mut handler = |eng: &mut DesEngine<InsituEvent>, t: SimTime, ev: InsituEvent| match ev {
            InsituEvent::Simulate(k) => {
                tracer.begin(&mut machine, t, JobPhase::Simulate);
                let slow = session.compute_slowdown(t);
                let done = t + SimDuration::from_secs_f64(
                    step_secs * spp as f64 * self.noise(&mut rng) * slow,
                );
                if session.should_shed(k) {
                    // Degraded: skip the render and the write for this sample.
                    note_degraded_shed(rec, &mut session, done, k);
                    eng.schedule_at(done, next_sim(k));
                } else {
                    eng.schedule_at(done, InsituEvent::Render(k));
                }
            }
            InsituEvent::Render(k) => {
                tracer.begin(&mut machine, t, JobPhase::Visualize);
                let done = t + SimDuration::from_secs_f64(
                    self.config.viz_seconds_per_output * self.noise(&mut rng),
                );
                eng.schedule_at(done, InsituEvent::Write(k));
            }
            InsituEvent::Write(k) => {
                tracer.begin(&mut machine, t, JobPhase::WriteOutput);
                let op = WriteOp {
                    path: paths.of(k),
                    bytes: self.config.image_bytes_per_output,
                    index: k,
                    counts: true,
                };
                match resilient_write(rec, &mut session, &mut pfs, None, t, &op) {
                    Ok(WriteOutcome::Written(done)) => {
                        written += 1;
                        eng.schedule_at(done, next_sim(k));
                    }
                    Ok(WriteOutcome::SpaceShed(at)) => {
                        eng.schedule_at(at, next_sim(k));
                    }
                    // Terminal: schedule nothing, the queue drains.
                    Err(e) => error = Some(e),
                }
            }
            InsituEvent::Trailing => {
                let mut now = t;
                if trailing > 0 {
                    tracer.begin(&mut machine, now, JobPhase::Simulate);
                    let slow = session.compute_slowdown(now);
                    now += SimDuration::from_secs_f64(
                        step_secs * trailing as f64 * self.noise(&mut rng) * slow,
                    );
                }
                eng.schedule_at(now, InsituEvent::Finish);
            }
            InsituEvent::Finish => end = t,
        };
        engine.run(&mut handler);
        if let Some(e) = error {
            return Err(e);
        }
        tracer.finish(&mut machine, end);
        rec.close(end, root);
        let metrics = self.harvest(pc, machine, &pfs, end, written)?;
        let events = engine.events_executed();
        Ok(Run::finish(metrics, session, None, events))
    }

    /// The post-hoc executor: simulate and dump raw fields (degraded
    /// samples skip their dump), then read back and render what landed
    /// and commit the image tarball.
    ///
    /// With a burst buffer the raw dumps are absorbed at NVRAM speed and
    /// drain to Lustre in the background, overlapping the simulation (the
    /// deep-memory-hierarchy design from the paper's related work); the
    /// read-back still waits, in a `WriteOutput` phase tagged `drain_wait`,
    /// for every byte to be durable on Lustre.
    ///
    /// Clean and fault-aware plans differ in exactly one observable, kept
    /// because the clean trace is pinned (`paper_traced/post_*` in
    /// `benchmark/expected/seed42.json`): the clean tail commits
    /// `images.tar` with a bare `pfs.write`, a plan with `faults` through
    /// `resilient_write`, which adds a `pfs_write` span. `resilience::tests::
    /// empty_plan_trace_differs_only_by_the_posthoc_tail_span` pins that.
    pub(crate) fn postproc_des(
        &self,
        plan: &Plan,
        scenario: &FaultScenario,
    ) -> Result<Run, PipelineError> {
        let pc = &plan.pipeline;
        let mut buffer = plan.burst_buffer.clone().map(BurstBuffer::new);
        let mut session = FaultSession::new(scenario);
        let mut rng = SimRng::new(self.config.seed ^ 0x5151);
        let mut machine = self.machine();
        let mut pfs = ParallelFileSystem::caddy_lustre();
        let rec = &self.config.recorder;
        let spec = &pc.spec;
        let n_out = spec.num_outputs(pc.rate);
        let spp = spec.steps_per_output(pc.rate);
        let step_secs = self.cost.step_seconds(spec);
        let raw = spec.raw_output_bytes();
        let trailing = spec.total_steps().saturating_sub(n_out * spp);
        let root = self.open_root(pc, SimTime::ZERO);
        let mut tracer = PhaseTracer::new(rec);
        let mut written = 0u64;
        let mut end = SimTime::ZERO;
        let mut error: Option<PipelineError> = None;
        let mut paths = OutputPath::new(POSTPROC_RAW);

        let next_sim = |k: u64| {
            if k + 1 < n_out {
                PostprocEvent::Simulate(k + 1)
            } else {
                PostprocEvent::Trailing
            }
        };
        let mut engine: DesEngine<PostprocEvent> = DesEngine::with_capacity(1);
        engine.schedule_at(
            SimTime::ZERO,
            if n_out > 0 {
                PostprocEvent::Simulate(0)
            } else {
                PostprocEvent::Trailing
            },
        );
        let mut handler =
            |eng: &mut DesEngine<PostprocEvent>, t: SimTime, ev: PostprocEvent| match ev {
                PostprocEvent::Simulate(k) => {
                    tracer.begin(&mut machine, t, JobPhase::Simulate);
                    let slow = session.compute_slowdown(t);
                    let done = t + SimDuration::from_secs_f64(
                        step_secs * spp as f64 * self.noise(&mut rng) * slow,
                    );
                    if session.should_shed(k) {
                        note_degraded_shed(rec, &mut session, done, k);
                        eng.schedule_at(done, next_sim(k));
                    } else {
                        eng.schedule_at(done, PostprocEvent::RawWrite(k));
                    }
                }
                PostprocEvent::RawWrite(k) => {
                    tracer.begin(&mut machine, t, JobPhase::WriteOutput);
                    let op = WriteOp {
                        path: paths.of(k),
                        bytes: raw,
                        index: k,
                        counts: true,
                    };
                    match resilient_write(rec, &mut session, &mut pfs, buffer.as_mut(), t, &op) {
                        Ok(WriteOutcome::Written(done)) => {
                            written += 1;
                            eng.schedule_at(done, next_sim(k));
                        }
                        Ok(WriteOutcome::SpaceShed(at)) => {
                            eng.schedule_at(at, next_sim(k));
                        }
                        Err(e) => error = Some(e),
                    }
                }
                PostprocEvent::Trailing => {
                    let mut now = t;
                    if trailing > 0 {
                        tracer.begin(&mut machine, now, JobPhase::Simulate);
                        let slow = session.compute_slowdown(now);
                        now += SimDuration::from_secs_f64(
                            step_secs * trailing as f64 * self.noise(&mut rng) * slow,
                        );
                    }
                    // The renderer reads from Lustre: wait out the drains.
                    let drained = buffer.as_ref().map_or(now, |bb| bb.drained_at(now));
                    if drained > now {
                        tracer.begin(&mut machine, now, JobPhase::WriteOutput);
                        tracer.attr("drain_wait", AttrValue::Str("burst-buffer"));
                        now = drained;
                    }
                    eng.schedule_at(now, PostprocEvent::ReadRender);
                }
                PostprocEvent::ReadRender => {
                    // Stage 2 reads back and renders only what landed.
                    tracer.begin(&mut machine, t, JobPhase::Visualize);
                    let render =
                        self.config.viz_seconds_per_output * written as f64 * self.noise(&mut rng);
                    let read = (raw * written) as f64 / self.config.seq_read_bandwidth_bps;
                    tracer.attr("render_seconds", AttrValue::F64(render));
                    tracer.attr("read_seconds", AttrValue::F64(read));
                    eng.schedule_at(
                        t + SimDuration::from_secs_f64(render.max(read)),
                        PostprocEvent::ImagesWrite,
                    );
                }
                PostprocEvent::ImagesWrite => {
                    tracer.begin(&mut machine, t, JobPhase::WriteOutput);
                    let images: u64 = self.config.image_bytes_per_output * written;
                    if plan.faults.is_some() {
                        let op = WriteOp {
                            path: "/postproc/images.tar",
                            bytes: images,
                            index: written,
                            counts: false,
                        };
                        match resilient_write(rec, &mut session, &mut pfs, None, t, &op) {
                            Ok(WriteOutcome::Written(done)) | Ok(WriteOutcome::SpaceShed(done)) => {
                                eng.schedule_at(done, PostprocEvent::Finish);
                            }
                            Err(e) => error = Some(e),
                        }
                    } else {
                        match pfs.write(t, "/postproc/images.tar", images) {
                            Ok(done) => {
                                note_write(rec, &pfs, t, done, written, images);
                                eng.schedule_at(done, PostprocEvent::Finish);
                            }
                            Err(source) => {
                                error =
                                    Some(PipelineError::storage(t, "/postproc/images.tar", source));
                            }
                        }
                    }
                }
                PostprocEvent::Finish => end = t,
            };
        engine.run(&mut handler);
        if let Some(e) = error {
            return Err(e);
        }
        tracer.finish(&mut machine, end);
        rec.close(end, root);
        let metrics = self.harvest(pc, machine, &pfs, end, written)?;
        let events = engine.events_executed();
        Ok(Run::finish(metrics, session, None, events))
    }

    /// The in-transit executor: visualization on a staging partition fed
    /// by the staged compute→staging transport.
    ///
    /// After each chunk the compute partition (optionally) compresses the
    /// field, waits for a free slot in the depth-`k` in-flight queue, and
    /// ships it over the shared link; staging serves samples FIFO —
    /// decompress, render, write the image set through the resilient
    /// path — and the image write retires the sample.
    ///
    /// * **Backpressure.** Completed samples leave the queue silently; a
    ///   full queue blocks the compute partition (busy-wait, billed as
    ///   `WriteOutput`) until the oldest sample retires.
    /// * **Depth 1 is the synchronous hand-off**: the compute partition
    ///   also blocks through the transfer itself, so exactly one sample
    ///   is ever in flight. Deeper queues overlap the transfer with the
    ///   next chunk, and concurrent transfers contend FIFO on the link.
    /// * **Compression** shrinks the field on the wire; compute pays the
    ///   compress, staging the decompress, each scaled by its node count.
    /// * **Faults.** Degradation sheds skip the hand-off entirely,
    ///   stragglers slow the chunk, retry backoff delays the retire, and
    ///   an active `LinkBrownout` derates the link while its window is
    ///   open.
    ///
    /// Every hand-off is a [`Component::Transport`] span with queueing
    /// attributes; queue depth is a gauge, stalls and shipped bytes are
    /// counters — all no-ops when the recorder is off.
    pub(crate) fn intransit_des(
        &self,
        pc: &PipelineConfig,
        it: &InTransitConfig,
        scenario: &FaultScenario,
    ) -> Result<Run, PipelineError> {
        let total_nodes = self.topology.num_nodes();
        let mut session = FaultSession::new(scenario);
        let mut rng = SimRng::new(self.config.seed ^ 0x17A7);
        let mut machine = self.machine();
        let mut pfs = ParallelFileSystem::caddy_lustre();
        let rec = &self.config.recorder;
        let spec = &pc.spec;
        let n_out = spec.num_outputs(pc.rate);
        let spp = spec.steps_per_output(pc.rate);
        let staging = it.staging_nodes;
        let cores_per_node = machine.topology().cores_per_node();
        // Compute-partition cost model: fewer cores, same problem.
        let mut cost: SimulationCostModel = self.cost.clone();
        cost.cores = ((total_nodes - staging) * cores_per_node) as u64;
        let step_secs = cost.step_seconds(spec);
        // Rendering on the staging partition: β scales with partition size.
        let staging_viz_secs =
            self.config.viz_seconds_per_output * total_nodes as f64 / staging as f64;
        let raw = spec.raw_output_bytes();
        let (wire_total, compress_t, decompress_t) = match &it.transport.compression {
            Some(c) => (
                c.wire_bytes(raw),
                SimDuration::from_secs_f64(
                    raw as f64 / (c.compress_node_bps * (total_nodes - staging) as f64),
                ),
                SimDuration::from_secs_f64(raw as f64 / (c.decompress_node_bps * staging as f64)),
            ),
            None => (raw, SimDuration::ZERO, SimDuration::ZERO),
        };
        let per_node = per_node_payload(wire_total, staging as u64);
        let depth = it.transport.depth;
        let mut link = SharedLink::new(it.interconnect.clone());
        let trailing = spec.total_steps().saturating_sub(n_out * spp);

        let root = self.open_root(pc, SimTime::ZERO);
        rec.set_attr(root, "staging_nodes", AttrValue::U64(staging as u64));
        rec.set_attr(root, "transport_depth", AttrValue::U64(depth as u64));
        if let Some(c) = &it.transport.compression {
            rec.set_attr(root, "compression_ratio", AttrValue::F64(c.ratio));
        }

        let mut staging_busy_until = SimTime::ZERO;
        let mut inflight: VecDeque<SimTime> = VecDeque::with_capacity(depth);
        let mut stats = TransportStats {
            depth,
            ..TransportStats::default()
        };
        let mut written = 0u64;
        let mut end = SimTime::ZERO;
        let mut error: Option<PipelineError> = None;
        let mut paths = OutputPath::new(INTRANSIT_IMAGES);

        let next_chunk = |k: u64| {
            if k + 1 < n_out {
                TransitEvent::Chunk(k + 1)
            } else {
                TransitEvent::Tail
            }
        };
        let mut engine: DesEngine<TransitEvent> = DesEngine::with_capacity(1);
        engine.schedule_at(
            SimTime::ZERO,
            if n_out > 0 {
                TransitEvent::Chunk(0)
            } else {
                TransitEvent::Tail
            },
        );
        let mut handler = |eng: &mut DesEngine<TransitEvent>, t: SimTime, ev: TransitEvent| match ev
        {
            TransitEvent::Chunk(k) => {
                let mut now = t; // compute-partition clock
                                 // Simulate the chunk; staging works off its backlog alongside.
                let slow = session.compute_slowdown(now);
                let chunk = SimDuration::from_secs_f64(
                    step_secs * spp as f64 * self.noise(&mut rng) * slow,
                );
                if staging_busy_until > now {
                    machine.begin_split_phase(
                        now,
                        staging,
                        JobPhase::Simulate,
                        JobPhase::Visualize,
                    );
                    if staging_busy_until < now + chunk {
                        // Staging drains its queue mid-chunk.
                        machine.begin_split_phase(
                            staging_busy_until,
                            staging,
                            JobPhase::Simulate,
                            JobPhase::Idle,
                        );
                    }
                } else {
                    machine.begin_split_phase(now, staging, JobPhase::Simulate, JobPhase::Idle);
                }
                now += chunk;
                if session.should_shed(k) {
                    // Degraded: no hand-off, no render, no image for this sample.
                    note_degraded_shed(rec, &mut session, now, k);
                    eng.schedule_at(now, next_chunk(k));
                    return;
                }
                // Compress on the compute partition before shipping.
                if !compress_t.is_zero() {
                    let staging_phase = if staging_busy_until > now {
                        JobPhase::Visualize
                    } else {
                        JobPhase::Idle
                    };
                    machine.begin_split_phase(now, staging, JobPhase::Visualize, staging_phase);
                    let cid = rec.span(now, "compress", Component::Transport);
                    rec.set_attr(cid, "index", AttrValue::U64(k));
                    now += compress_t;
                    rec.close(now, cid);
                    stats.compress_time += compress_t;
                }
                // Backpressure: at most `depth` samples in flight.
                while inflight.front().is_some_and(|&d| d <= now) {
                    inflight.pop_front();
                }
                if inflight.len() >= depth {
                    let free = inflight[0];
                    machine.begin_split_phase(
                        now,
                        staging,
                        JobPhase::WriteOutput,
                        JobPhase::Visualize,
                    );
                    stats.stall_time += free.duration_since(now);
                    rec.event(
                        now,
                        "transport_stall",
                        Component::Transport,
                        &[
                            ("index", AttrValue::U64(k)),
                            (
                                "wait_seconds",
                                AttrValue::F64(free.duration_since(now).as_secs_f64()),
                            ),
                        ],
                    );
                    rec.counter_add(now, "transport.stalls", 1.0);
                    rec.histogram_record(
                        now,
                        "transport.stall_seconds",
                        free.duration_since(now).as_secs_f64(),
                    );
                    now = free;
                    while inflight.front().is_some_and(|&d| d <= now) {
                        inflight.pop_front();
                    }
                }
                // Ship over the shared link. Synchronous depth blocks
                // through the transfer; deeper queues overlap it.
                link.set_bandwidth_scale(session.link_scale(now));
                let submit = now;
                if depth == 1 {
                    machine.begin_split_phase(
                        now,
                        staging,
                        JobPhase::WriteOutput,
                        JobPhase::WriteOutput,
                    );
                }
                let xfer = link.transfer(submit, per_node);
                if depth == 1 {
                    now = xfer.done;
                }
                let hid = rec.span(submit, "handoff", Component::Transport);
                rec.set_attr(hid, "index", AttrValue::U64(k));
                rec.set_attr(hid, "wire_bytes", AttrValue::U64(per_node));
                rec.set_attr(
                    hid,
                    "queued_seconds",
                    AttrValue::F64(xfer.queued(submit).as_secs_f64()),
                );
                rec.close(xfer.done, hid);
                // Staging serves FIFO: decompress + render behind whatever
                // is still queued, then the image write retires the sample.
                let render = SimDuration::from_secs_f64(staging_viz_secs * self.noise(&mut rng));
                let service_start = xfer.done.max(staging_busy_until);
                let render_done = service_start + decompress_t + render;
                stats.decompress_time += decompress_t;
                let op = WriteOp {
                    path: paths.of(k),
                    bytes: self.config.image_bytes_per_output,
                    index: k,
                    counts: true,
                };
                let completion =
                    match resilient_write(rec, &mut session, &mut pfs, None, render_done, &op) {
                        Ok(WriteOutcome::Written(done)) => {
                            written += 1;
                            done
                        }
                        Ok(WriteOutcome::SpaceShed(at)) => at,
                        Err(e) => {
                            error = Some(e);
                            return;
                        }
                    };
                staging_busy_until = completion;
                inflight.push_back(completion);
                stats.samples_shipped += 1;
                stats.bytes_shipped += per_node * staging as u64;
                if inflight.len() > stats.max_in_flight {
                    stats.max_in_flight = inflight.len();
                }
                rec.gauge_set(submit, "transport.queue_depth", inflight.len() as f64);
                rec.histogram_record(submit, "transport.queue_depth_dist", inflight.len() as f64);
                rec.counter_add(
                    submit,
                    "transport.bytes_shipped",
                    (per_node * staging as u64) as f64,
                );
                eng.schedule_at(now, next_chunk(k));
            }
            TransitEvent::Tail => {
                // Trailing simulation steps, then wait out the staging tail.
                let mut now = t;
                if trailing > 0 {
                    machine.begin_split_phase(now, staging, JobPhase::Simulate, JobPhase::Idle);
                    let slow = session.compute_slowdown(now);
                    now += SimDuration::from_secs_f64(
                        step_secs * trailing as f64 * self.noise(&mut rng) * slow,
                    );
                }
                if staging_busy_until > now {
                    machine.begin_split_phase(now, staging, JobPhase::Idle, JobPhase::Visualize);
                    now = staging_busy_until;
                }
                machine.finish(now);
                rec.close(now, root);
                stats.link_queued = link.queued_time();
                stats.link_busy = link.busy_time();
                end = now;
            }
        };
        engine.run(&mut handler);
        if let Some(e) = error {
            return Err(e);
        }
        let metrics = self.harvest(pc, machine, &pfs, end, written)?;
        let events = engine.events_executed();
        Ok(Run::finish(metrics, session, Some(stats), events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineKind;
    use ivis_storage::burst_buffer::BurstBufferConfig;
    use proptest::prelude::*;

    const FAMILIES: [(&str, &str); 3] = [INSITU_IMAGES, POSTPROC_RAW, INTRANSIT_IMAGES];

    #[test]
    fn output_paths_equal_format_at_the_padding_edges() {
        for family in FAMILIES {
            let (prefix, suffix) = family;
            let mut paths = OutputPath::new(family);
            for k in [0, 9, 10, 99_999, 999_999, 1_000_000, u64::MAX] {
                assert_eq!(paths.of(k), format!("{prefix}{k:06}{suffix}"));
            }
        }
    }

    proptest! {
        /// Any index, in any order of calls: a shorter path after a longer
        /// one leaves nothing of it behind.
        #[test]
        fn output_paths_equal_format(
            ks in prop::collection::vec((0..u64::MAX, 0u32..64).prop_map(|(k, s)| k >> s), 1..16),
        ) {
            for family in FAMILIES {
                let (prefix, suffix) = family;
                let mut paths = OutputPath::new(family);
                for &k in &ks {
                    prop_assert_eq!(paths.of(k), format!("{prefix}{k:06}{suffix}"));
                }
            }
        }
    }

    #[test]
    fn chains_fire_a_fixed_number_of_events_per_sample() {
        let campaign = Campaign::paper();
        let events = |plan: Plan| {
            let run = campaign.execute(&plan).expect("clean run cannot fail");
            (run.metrics.num_outputs, run.events)
        };
        let plan = |kind, hours| Plan::new(PipelineConfig::paper(kind, hours));
        // Simulate + Render + Write per sample, plus Trailing and Finish.
        let (n, fired) = events(plan(PipelineKind::InSitu, 8.0));
        assert_eq!(fired, 3 * n + 2);
        // Simulate + RawWrite per sample, plus the four stage-2 events.
        let (n, fired) = events(plan(PipelineKind::PostProcessing, 24.0));
        assert_eq!(fired, 2 * n + 4);
        // The burst buffer's drain wait is lookahead inside `Trailing`.
        let (n, fired) = events(Plan {
            burst_buffer: Some(BurstBufferConfig::two_tb_nvram()),
            ..plan(PipelineKind::PostProcessing, 8.0)
        });
        assert_eq!(fired, 2 * n + 4);
    }
}
