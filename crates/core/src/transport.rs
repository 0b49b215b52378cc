//! Configuration and accounting of the staged compute→staging transport
//! of the in-transit pipeline.
//!
//! Real in-transit deployments (DataSpaces, ADIOS staging) keep a bounded
//! queue of samples in flight and ship them asynchronously, optionally
//! compressed; the blocking one-sample hand-off is the `depth = 1` corner:
//!
//! * [`TransportConfig`] — queue depth and optional [`CompressionConfig`];
//!   the default is [`TransportConfig::synchronous`].
//! * depth `k > 1` — the compute partition submits a sample and moves on;
//!   it blocks (busy-wait, accounted as `WriteOutput` I/O time) only when
//!   `k` samples are already in flight. Concurrent transfers contend on a
//!   shared FIFO link, so link serialization is priced, not ignored.
//! * compression — the raw field shrinks by `ratio` on the wire; the
//!   compress cost is charged to the *compute* partition and the
//!   decompress cost to the *staging* partition, each scaled by the
//!   partition's node count.
//! * [`TransportStats`] — what the transport did over one run.
//!
//! The executor that runs this transport is the in-transit event chain in
//! [`des`](crate::des); a staged [`Plan`](crate::campaign::Plan) returns
//! the stats in [`Run::transport`](crate::campaign::Run::transport).

use ivis_sim::SimDuration;

use crate::resilience::PipelineError;

/// Per-staging-node share of a payload fanned out over `staging_nodes`
/// links, rounded **up**: the hand-off completes when the most-loaded link
/// finishes, so truncating division (`total / staging`) under-prices the
/// transfer whenever the payload does not divide evenly.
///
/// # Panics
/// Panics if `staging_nodes` is zero.
pub fn per_node_payload(total_bytes: u64, staging_nodes: u64) -> u64 {
    assert!(staging_nodes > 0, "staging fan-out needs at least one node");
    total_bytes.div_ceil(staging_nodes)
}

/// Wire compression model for the hand-off.
///
/// Rates are per-node throughputs over the *raw* (uncompressed) bytes;
/// each partition processes its share of the field in parallel, so the
/// charged time is `raw / (rate × partition_nodes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionConfig {
    /// Compression ratio (raw / wire bytes), ≥ 1.
    pub ratio: f64,
    /// Per-node compress throughput in raw bytes per second.
    pub compress_node_bps: f64,
    /// Per-node decompress throughput in raw bytes per second.
    pub decompress_node_bps: f64,
}

impl CompressionConfig {
    /// A fixed-rate floating-point compressor in the zfp/fpzip class:
    /// 4:1 on smooth ocean fields, ~1.6 GB/s in and ~2.4 GB/s out per
    /// node core-parallel.
    pub fn zfp_like() -> Self {
        CompressionConfig {
            ratio: 4.0,
            compress_node_bps: 1.6e9,
            decompress_node_bps: 2.4e9,
        }
    }

    /// Bytes actually placed on the wire for a `raw`-byte field.
    pub fn wire_bytes(&self, raw: u64) -> u64 {
        (raw as f64 / self.ratio).ceil() as u64
    }

    fn validate(&self) -> Result<(), PipelineError> {
        if !(self.ratio.is_finite() && self.ratio >= 1.0) {
            return Err(PipelineError::invalid(format!(
                "compression ratio must be finite and >= 1, got {}",
                self.ratio
            )));
        }
        for (what, bps) in [
            ("compress", self.compress_node_bps),
            ("decompress", self.decompress_node_bps),
        ] {
            if !(bps.is_finite() && bps > 0.0) {
                return Err(PipelineError::invalid(format!(
                    "{what} throughput must be finite and positive, got {bps}"
                )));
            }
        }
        Ok(())
    }
}

/// How the compute→staging hand-off is staged.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Maximum samples in flight (queued or being rendered) before the
    /// compute partition blocks. Depth 1 is the synchronous hand-off.
    pub depth: usize,
    /// Optional wire compression; `None` ships the raw field.
    pub compression: Option<CompressionConfig>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig::synchronous()
    }
}

impl TransportConfig {
    /// The synchronous hand-off: depth 1, no compression.
    pub fn synchronous() -> Self {
        TransportConfig {
            depth: 1,
            compression: None,
        }
    }

    /// An asynchronous transport with a bounded in-flight queue. A zero
    /// depth is rejected when the plan runs, as
    /// [`PipelineError::InvalidConfig`].
    pub fn pipelined(depth: usize) -> Self {
        TransportConfig {
            depth,
            compression: None,
        }
    }

    /// Enable wire compression (builder style). A ratio below 1 or a
    /// non-positive codec throughput is rejected when the plan runs, as
    /// [`PipelineError::InvalidConfig`].
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = Some(compression);
        self
    }

    /// Whether this is the synchronous depth-1 hand-off.
    pub fn is_synchronous(&self) -> bool {
        self.depth == 1
    }

    /// Reject a zero depth or an invalid codec; `Campaign::execute` calls
    /// this once per staged plan.
    pub(crate) fn validate(&self) -> Result<(), PipelineError> {
        if self.depth == 0 {
            return Err(PipelineError::invalid(
                "transport depth must be at least 1".to_string(),
            ));
        }
        self.compression.as_ref().map_or(Ok(()), |c| c.validate())
    }
}

/// What the transport did over one run, for the staging-sweep model and
/// the bench gate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportStats {
    /// Configured queue depth.
    pub depth: usize,
    /// Samples actually submitted to the transport (sheds excluded).
    pub samples_shipped: u64,
    /// Total bytes placed on the wire (post-compression, all links).
    pub bytes_shipped: u64,
    /// High-water mark of samples in flight; never exceeds `depth`.
    pub max_in_flight: usize,
    /// Compute time blocked on a full queue (busy-wait, billed as I/O).
    pub stall_time: SimDuration,
    /// Time transfers spent queued behind earlier traffic on the link.
    pub link_queued: SimDuration,
    /// Total link-busy time across all transfers.
    pub link_busy: SimDuration,
    /// Compute-partition time spent compressing.
    pub compress_time: SimDuration,
    /// Staging-partition time spent decompressing.
    pub decompress_time: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Plan};
    use crate::config::{PipelineConfig, PipelineKind};
    use crate::intransit::{reported_kind, InTransitConfig};
    use crate::metrics::PipelineMetrics;

    fn it_config(staging: usize, transport: TransportConfig) -> InTransitConfig {
        InTransitConfig {
            staging_nodes: staging,
            transport,
            ..InTransitConfig::caddy_default()
        }
    }

    fn execute(
        staging: usize,
        hours: f64,
        transport: TransportConfig,
    ) -> Result<(PipelineMetrics, TransportStats), PipelineError> {
        let mut pc = PipelineConfig::paper(PipelineKind::InSitu, hours);
        pc.kind = reported_kind();
        let run = Campaign::paper().execute(&Plan {
            staging: Some(it_config(staging, transport)),
            ..Plan::new(pc)
        })?;
        Ok((run.metrics, run.transport.expect("a staged run")))
    }

    fn run(
        staging: usize,
        hours: f64,
        transport: TransportConfig,
    ) -> (PipelineMetrics, TransportStats) {
        execute(staging, hours, transport).expect("clean staged run cannot fail")
    }

    #[test]
    fn per_node_payload_rounds_up() {
        assert_eq!(per_node_payload(100, 10), 10);
        assert_eq!(per_node_payload(101, 10), 11);
        assert_eq!(per_node_payload(9, 10), 1);
        assert_eq!(per_node_payload(0, 10), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn per_node_payload_rejects_zero_fanout() {
        let _ = per_node_payload(100, 0);
    }

    #[test]
    fn deeper_queue_never_slower_and_strictly_faster_when_staging_bound() {
        // 10 staging nodes at the 8 h rate are render-bound: at depth 1
        // staging idles through every synchronous transfer, so depth 4
        // strictly shortens the makespan by overlapping them.
        let (d1, s1) = run(10, 8.0, TransportConfig::synchronous());
        let (d4, s4) = run(10, 8.0, TransportConfig::pipelined(4));
        assert!(
            d4.execution_time < d1.execution_time,
            "depth 4 must beat depth 1 when staging-bound: {} vs {}",
            d4.execution_time.as_secs_f64(),
            d1.execution_time.as_secs_f64()
        );
        assert_eq!(s1.max_in_flight, 1);
        assert!(s4.max_in_flight <= 4);
        assert_eq!(s1.samples_shipped, s4.samples_shipped);
        assert_eq!(s1.bytes_shipped, s4.bytes_shipped);
        assert_eq!(d1.num_outputs, d4.num_outputs);
    }

    #[test]
    fn compression_shrinks_wire_bytes_and_charges_codec_time() {
        let (_, raw) = run(10, 24.0, TransportConfig::synchronous());
        let (_, zfp) = run(
            10,
            24.0,
            TransportConfig::synchronous().with_compression(CompressionConfig::zfp_like()),
        );
        assert!(
            zfp.bytes_shipped * 3 < raw.bytes_shipped,
            "4:1 compression ships ~a quarter of the bytes: {} vs {}",
            zfp.bytes_shipped,
            raw.bytes_shipped
        );
        assert!(zfp.compress_time > SimDuration::ZERO);
        assert!(zfp.decompress_time > SimDuration::ZERO);
        assert_eq!(raw.compress_time, SimDuration::ZERO);
    }

    #[test]
    fn link_accounting_is_conserved() {
        let (_, s) = run(25, 24.0, TransportConfig::pipelined(2));
        // Every shipped sample holds the link once; busy time is the sum
        // of per-transfer service times, strictly positive.
        assert!(s.link_busy > SimDuration::ZERO);
        assert_eq!(s.depth, 2);
        assert!(s.max_in_flight >= 1);
    }

    #[test]
    fn wire_bytes_rounds_up() {
        let c = CompressionConfig {
            ratio: 3.0,
            compress_node_bps: 1e9,
            decompress_node_bps: 1e9,
        };
        assert_eq!(c.wire_bytes(10), 4); // ceil(10/3)
        assert_eq!(c.wire_bytes(0), 0);
    }

    /// The typed error a struct-literal `transport` is rejected with.
    fn rejection(transport: TransportConfig) -> String {
        match execute(10, 24.0, transport) {
            Err(PipelineError::InvalidConfig { detail }) => detail,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_depth_rejected() {
        let detail = rejection(TransportConfig {
            depth: 0,
            compression: None,
        });
        assert!(detail.contains("transport depth"), "{detail}");
    }

    #[test]
    fn sub_unity_ratio_rejected() {
        let detail = rejection(TransportConfig {
            depth: 1,
            compression: Some(CompressionConfig {
                ratio: 0.5,
                ..CompressionConfig::zfp_like()
            }),
        });
        assert!(detail.contains("compression ratio"), "{detail}");
    }

    #[test]
    fn non_positive_codec_throughput_rejected() {
        for (compress, decompress) in [(0.0, 1e9), (1e9, -1.0), (f64::NAN, 1e9)] {
            let detail = rejection(TransportConfig {
                depth: 2,
                compression: Some(CompressionConfig {
                    ratio: 4.0,
                    compress_node_bps: compress,
                    decompress_node_bps: decompress,
                }),
            });
            assert!(detail.contains("throughput"), "{detail}");
        }
    }

    #[test]
    fn constructors_defer_to_the_typed_rejection() {
        let detail = rejection(TransportConfig::pipelined(0));
        assert!(detail.contains("transport depth"), "{detail}");
        let detail = rejection(
            TransportConfig::pipelined(2).with_compression(CompressionConfig {
                ratio: 0.5,
                ..CompressionConfig::zfp_like()
            }),
        );
        assert!(detail.contains("compression ratio"), "{detail}");
    }
}
