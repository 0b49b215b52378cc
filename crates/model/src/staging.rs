//! Staging-sweep what-if: provisioning the in-transit transport.
//!
//! §VII of the paper asks what-if questions of the calibrated model
//! (Figs. 9 & 10: storage and energy vs sampling rate). The staged
//! transport adds three more knobs — staging partition size, transport
//! depth and wire compression — and the same Eq. 4/6/7 machinery answers
//! them analytically:
//!
//! * the simulation term of Eq. 4 rescales to the shrunken compute
//!   partition (`N/(N−staging)`);
//! * the per-image render cost is Eq. 7's β scaled by the staging share
//!   (`β · N/staging`), and the per-image write cost Eq. 3's `α·S`;
//! * output counts and payloads scale with the sampling rate exactly as
//!   Eq. 6/7 prescribe (they come from the spec's rate arithmetic);
//! * the transport couples the two partitions: at depth 1 the hand-off
//!   serializes into *both* pipelines, at depth ≥ 2 it overlaps, so the
//!   predicted makespan is the slower of the compute track and the
//!   staging service chain.
//!
//! [`StagingSweep::run`] measures every grid point on the simulated
//! machine and carries the analytic prediction alongside, so the sweep
//! doubles as a §VI-style validation of the transport model.

use ivis_core::campaign::{Campaign, Plan};
use ivis_core::intransit::{reported_kind, InTransitConfig};
use ivis_core::{
    per_node_payload, CompressionConfig, PipelineConfig, PipelineKind, TransportConfig,
};

use crate::perf::PerfModel;

/// Nodes in the paper's Caddy machine (15 cages × 10).
const CADDY_NODES: usize = 150;

/// One evaluated `(staging, depth, ratio)` grid point.
#[derive(Debug, Clone)]
pub struct StagingPoint {
    /// Staging partition size.
    pub staging_nodes: usize,
    /// Transport queue depth.
    pub depth: usize,
    /// Wire compression ratio (1.0 = compression off).
    pub compression_ratio: f64,
    /// Simulated makespan, seconds.
    pub measured_seconds: f64,
    /// Analytic Eq. 4/6/7 prediction, seconds.
    pub predicted_seconds: f64,
    /// Compute time blocked on a full transport queue, seconds.
    pub stall_seconds: f64,
    /// Total measured energy, joules.
    pub energy_joules: f64,
    /// Bytes placed on the wire across the whole run.
    pub wire_bytes: u64,
}

impl StagingPoint {
    /// Relative model error, `|measured − predicted| / measured`.
    pub fn rel_error(&self) -> f64 {
        (self.measured_seconds - self.predicted_seconds).abs() / self.measured_seconds
    }
}

/// A measured-and-predicted sweep over the transport's provisioning grid.
#[derive(Debug, Clone)]
pub struct StagingSweep {
    /// Sampling interval, hours.
    pub rate_hours: f64,
    /// Every grid point, in `(staging, depth, ratio)` input order.
    pub points: Vec<StagingPoint>,
}

impl StagingSweep {
    /// Measure `stagings × depths × ratios` at the `hours` sampling rate.
    ///
    /// `make` constructs a fresh campaign per point; points come out in
    /// input order.
    pub fn run(
        make: impl Fn() -> Campaign,
        hours: f64,
        stagings: &[usize],
        depths: &[usize],
        ratios: &[f64],
    ) -> Self {
        let grid: Vec<(usize, usize, f64)> = stagings
            .iter()
            .flat_map(|&s| {
                depths
                    .iter()
                    .flat_map(move |&d| ratios.iter().map(move |&r| (s, d, r)))
            })
            .collect();
        let model = PerfModel::paper();
        let points = grid
            .iter()
            .map(|&(staging_nodes, depth, ratio)| {
                let campaign = make();
                let mut pc = PipelineConfig::paper(PipelineKind::InSitu, hours);
                pc.kind = reported_kind();
                let mut transport = TransportConfig::pipelined(depth);
                if ratio > 1.0 {
                    transport = transport.with_compression(CompressionConfig {
                        ratio,
                        ..CompressionConfig::zfp_like()
                    });
                }
                let it = InTransitConfig {
                    staging_nodes,
                    transport,
                    ..InTransitConfig::caddy_default()
                };
                let predicted_seconds = predict_staged_seconds(
                    &model,
                    &pc,
                    &it,
                    CADDY_NODES,
                    campaign.config.image_bytes_per_output,
                );
                let run = campaign
                    .execute(&Plan {
                        staging: Some(it),
                        ..Plan::new(pc)
                    })
                    .unwrap_or_else(|e| panic!("staging sweep point failed: {e}"));
                let (m, stats) = (run.metrics, run.transport.expect("a staged run"));
                StagingPoint {
                    staging_nodes,
                    depth,
                    compression_ratio: ratio,
                    measured_seconds: m.execution_time.as_secs_f64(),
                    predicted_seconds,
                    stall_seconds: stats.stall_time.as_secs_f64(),
                    energy_joules: m.energy_total().joules(),
                    wire_bytes: stats.bytes_shipped,
                }
            })
            .collect();
        StagingSweep {
            rate_hours: hours,
            points,
        }
    }

    /// The fastest measured provisioning.
    pub fn best(&self) -> &StagingPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.measured_seconds
                    .partial_cmp(&b.measured_seconds)
                    .expect("makespans are finite")
            })
            .expect("sweep is non-empty")
    }

    /// Worst relative model error across the grid.
    pub fn max_rel_error(&self) -> f64 {
        self.points
            .iter()
            .map(StagingPoint::rel_error)
            .fold(0.0, f64::max)
    }
}

/// Predict the staged in-transit makespan from the Eq. 4/6/7 terms.
///
/// The compute track runs `n` chunks of the partition-rescaled simulation
/// plus per-sample compression (and, synchronously at depth 1, the
/// hand-off); the staging chain serves `n` samples of decompress + render
/// (`β·N/staging`) + image write (`α·S`) after the first arrival. Deeper
/// queues decouple the hand-off from both tracks; the makespan is the
/// slower track.
pub(crate) fn predict_staged_seconds(
    model: &PerfModel,
    pc: &PipelineConfig,
    it: &InTransitConfig,
    total_nodes: usize,
    image_bytes: u64,
) -> f64 {
    let spec = &pc.spec;
    let n = spec.num_outputs(pc.rate) as f64;
    let compute = (total_nodes - it.staging_nodes) as f64;
    let staging = it.staging_nodes as f64;
    // Eq. 4 simulation term, rescaled to the shrunken compute partition.
    let t_sim = spec.total_steps() as f64 / model.iter_ref as f64
        * model.t_sim_ref
        * (total_nodes as f64 / compute);
    let raw = spec.raw_output_bytes();
    let (wire, compress_s, decompress_s) = match &it.transport.compression {
        Some(c) => (
            c.wire_bytes(raw),
            raw as f64 / (c.compress_node_bps * compute),
            raw as f64 / (c.decompress_node_bps * staging),
        ),
        None => (raw, 0.0, 0.0),
    };
    let per_node = per_node_payload(wire, it.staging_nodes as u64);
    let transfer =
        it.interconnect.latency.as_secs_f64() + per_node as f64 / it.interconnect.bandwidth_bps;
    let write_s = model.alpha * image_bytes as f64 / 1e9; // Eq. 3: α·S
    let render_s = model.beta * total_nodes as f64 / staging; // Eq. 7 share
    let sync = it.transport.is_synchronous();
    let chunk = t_sim / n;
    let compute_period = chunk + compress_s + if sync { transfer } else { 0.0 };
    let service = decompress_s + render_s + write_s + if sync { transfer } else { 0.0 };
    // Compute-bound: n periods plus the last sample draining through
    // staging. Staging-bound: first arrival plus the n-sample chain.
    let t_compute = n * compute_period + service;
    let t_staging = (chunk + compress_s + transfer) + n * service;
    t_compute.max(t_staging)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_8h() -> StagingSweep {
        StagingSweep::run(Campaign::paper, 8.0, &[10, 25, 50], &[1, 4], &[1.0, 4.0])
    }

    #[test]
    fn sweep_covers_the_grid_in_input_order() {
        let sweep = sweep_8h();
        assert_eq!(sweep.points.len(), 3 * 2 * 2);
        assert_eq!(sweep.points[0].staging_nodes, 10);
        assert_eq!(sweep.points[0].depth, 1);
        assert_eq!(sweep.points[0].compression_ratio, 1.0);
        assert_eq!(sweep.points[11].staging_nodes, 50);
        assert_eq!(sweep.points[11].depth, 4);
        assert_eq!(sweep.points[11].compression_ratio, 4.0);
    }

    #[test]
    fn model_tracks_measurement_across_the_grid() {
        let sweep = sweep_8h();
        assert!(
            sweep.max_rel_error() < 0.15,
            "Eq. 4/6/7 transport model drifted: max rel error {:.3}",
            sweep.max_rel_error()
        );
        // Strongly staging-bound points are essentially closed-form: the
        // chain of transfer + render + write repeats 540 times.
        let bound = sweep
            .points
            .iter()
            .find(|p| p.staging_nodes == 10 && p.depth == 1 && p.compression_ratio == 1.0)
            .unwrap();
        assert!(
            bound.rel_error() < 0.02,
            "staging-bound prediction off by {:.3}",
            bound.rel_error()
        );
    }

    #[test]
    fn deeper_and_compressed_never_measure_slower() {
        let sweep = sweep_8h();
        for s in [10usize, 25, 50] {
            for r in [1.0f64, 4.0] {
                let at = |d: usize| {
                    sweep
                        .points
                        .iter()
                        .find(|p| p.staging_nodes == s && p.depth == d && p.compression_ratio == r)
                        .unwrap()
                        .measured_seconds
                };
                assert!(
                    at(4) <= at(1),
                    "depth 4 slower than depth 1 at staging {s}, ratio {r}"
                );
            }
        }
        // The analytic model agrees on the direction of the depth lever.
        let pred = |d: usize| {
            sweep
                .points
                .iter()
                .find(|p| p.staging_nodes == 10 && p.depth == d && p.compression_ratio == 1.0)
                .unwrap()
                .predicted_seconds
        };
        assert!(pred(4) < pred(1));
    }

    #[test]
    fn best_point_trades_staging_nodes_for_overlap() {
        // At the 8 h rate, 10 staging nodes are render-bound and 50 keep
        // up: the best measured provisioning uses the larger partition.
        let sweep = sweep_8h();
        assert_eq!(sweep.best().staging_nodes, 50);
        // Even the best 8 h point is render-bound (3.6 s/image vs 1.7 s
        // chunks), but the worst provisioning stalls far longer.
        let worst = sweep
            .points
            .iter()
            .max_by(|a, b| a.measured_seconds.partial_cmp(&b.measured_seconds).unwrap())
            .unwrap();
        assert!(worst.stall_seconds > 1_000.0);
        assert!(sweep.best().stall_seconds < worst.stall_seconds / 2.0);
    }

    #[test]
    fn compression_quarters_the_wire_bytes() {
        let sweep = sweep_8h();
        let raw = sweep
            .points
            .iter()
            .find(|p| p.staging_nodes == 25 && p.depth == 1 && p.compression_ratio == 1.0)
            .unwrap();
        let zfp = sweep
            .points
            .iter()
            .find(|p| p.staging_nodes == 25 && p.depth == 1 && p.compression_ratio == 4.0)
            .unwrap();
        assert!(zfp.wire_bytes * 3 < raw.wire_bytes);
    }
}
