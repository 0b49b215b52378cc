//! The in-transit pipeline: visualization on dedicated staging nodes.
//!
//! Bennett et al. (cited by the paper) and Rodero et al. (its related work)
//! move analysis off the compute partition onto **staging nodes**: after
//! each sample the field is shipped over the interconnect to the staging
//! partition, which renders while the simulation proceeds. This trades
//! compute nodes for overlap.
//!
//! A [`Plan`](crate::campaign::Plan) with `staging: Some(`[`InTransitConfig`]`)`
//! runs this pipeline: the compute partition shrinks to `N − staging` nodes
//! (the cost model scales accordingly), and rendering time scales inversely
//! with the staging partition size from the paper's whole-machine β. The
//! result is the same [`PipelineMetrics`](crate::metrics::PipelineMetrics)
//! artifact, so in-transit drops straight into the Fig. 3/5/6/7
//! comparisons, plus the transport's accounting in
//! [`Run::transport`](crate::campaign::Run::transport).
//!
//! The hand-off is the staged transport configured by
//! [`transport`](crate::transport): a bounded depth-`k` in-flight queue
//! with optional wire compression and link contention. The default
//! [`TransportConfig::synchronous`] (depth 1, no compression) is the
//! classic blocking hand-off. The executor itself is the in-transit event
//! chain in [`des`](crate::des); what it produces at depth 1 is pinned in
//! `tests/golden/executor_identity.txt` (`sync/…`).

use ivis_cluster::interconnect::Interconnect;

use crate::config::PipelineKind;
use crate::resilience::PipelineError;
use crate::transport::TransportConfig;

/// In-transit specific knobs.
#[derive(Debug, Clone)]
pub struct InTransitConfig {
    /// Staging nodes carved out of the machine.
    pub staging_nodes: usize,
    /// Interconnect used for the compute→staging hand-off.
    pub interconnect: Interconnect,
    /// How the hand-off is staged (queue depth, compression); synchronous
    /// by default.
    pub transport: TransportConfig,
}

impl InTransitConfig {
    /// A typical allocation: 10 of the 150 nodes stage, over IB QDR, with
    /// the synchronous single-in-flight hand-off.
    pub fn caddy_default() -> Self {
        InTransitConfig {
            staging_nodes: 10,
            interconnect: Interconnect::ib_qdr(),
            transport: TransportConfig::synchronous(),
        }
    }

    /// Reject allocations the executor cannot run on a `total_nodes`
    /// machine: an empty or non-proper staging partition, or an invalid
    /// transport.
    pub(crate) fn validate(&self, total_nodes: usize) -> Result<(), PipelineError> {
        if self.staging_nodes == 0 || self.staging_nodes >= total_nodes {
            return Err(PipelineError::invalid(format!(
                "staging partition must be a proper subset of the machine, \
                 got {} of {total_nodes} nodes",
                self.staging_nodes
            )));
        }
        self.transport.validate()
    }
}

/// The pipeline kind reported for in-transit runs: it *is* an in-situ
/// variant from the storage system's point of view (only images are
/// written), so metrics carry [`PipelineKind::InSitu`]; use the row label
/// from the experiment harness to distinguish them.
pub fn reported_kind() -> PipelineKind {
    PipelineKind::InSitu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Plan};
    use crate::config::PipelineConfig;
    use crate::metrics::PipelineMetrics;

    fn plan(staging: usize, hours: f64) -> Plan {
        let mut pc = PipelineConfig::paper(PipelineKind::InSitu, hours);
        pc.kind = reported_kind();
        Plan {
            staging: Some(InTransitConfig {
                staging_nodes: staging,
                ..InTransitConfig::caddy_default()
            }),
            ..Plan::new(pc)
        }
    }

    fn try_staging(staging: usize, hours: f64) -> Result<PipelineMetrics, PipelineError> {
        Campaign::paper()
            .execute(&plan(staging, hours))
            .map(|run| run.metrics)
    }

    fn run_it(staging: usize, hours: f64) -> PipelineMetrics {
        try_staging(staging, hours).expect("valid staging partition")
    }
    fn insitu_run(hours: f64) -> PipelineMetrics {
        Campaign::paper().run(&PipelineConfig::paper(PipelineKind::InSitu, hours))
    }

    #[test]
    fn undersized_staging_partition_stalls_the_pipeline() {
        // 10 staging nodes must render 15× slower than the whole machine:
        // at the 8 h rate the renderer cannot keep up and in-transit is much
        // slower than in-situ.
        let it = run_it(10, 8.0);
        let insitu = insitu_run(8.0);
        assert!(
            it.execution_time.as_secs_f64() > 2.0 * insitu.execution_time.as_secs_f64(),
            "in-transit {} vs in-situ {}",
            it.execution_time.as_secs_f64(),
            insitu.execution_time.as_secs_f64()
        );
    }

    #[test]
    fn generous_staging_partition_approaches_insitu() {
        // With 50 staging nodes at the 72 h rate the render hides behind the
        // simulation; only the compute-partition slowdown (150/100) remains.
        let it = run_it(50, 72.0);
        let insitu = insitu_run(72.0);
        let ratio = it.execution_time.as_secs_f64() / insitu.execution_time.as_secs_f64();
        assert!(
            ratio < 1.45,
            "well-provisioned in-transit should be near in-situ: ratio {ratio:.2}"
        );
    }

    #[test]
    fn storage_footprint_matches_insitu() {
        let it = run_it(25, 24.0);
        let insitu = insitu_run(24.0);
        assert_eq!(it.storage_bytes, insitu.storage_bytes);
        assert_eq!(it.num_outputs, insitu.num_outputs);
    }

    #[test]
    fn staging_idle_time_lowers_average_power() {
        // At the 72 h rate with 25 staging nodes, staging idles most of the
        // time ⇒ average power drops below the all-busy in-situ level.
        let it = run_it(25, 72.0);
        let insitu = insitu_run(72.0);
        assert!(
            it.avg_power_compute().watts() < insitu.avg_power_compute().watts(),
            "in-transit {} vs in-situ {}",
            it.avg_power_compute(),
            insitu.avg_power_compute()
        );
    }

    #[test]
    fn phase_decomposition_is_consistent() {
        let it = run_it(25, 24.0);
        let total = it.t_sim + it.t_io + it.t_viz;
        // The compute-partition timeline may also contain idle tail time;
        // phases never exceed the makespan.
        assert!(total <= it.execution_time + ivis_sim::SimDuration::from_secs(1));
        assert!(it.t_sim.as_secs_f64() > 600.0, "slowed t_sim > 603 s");
    }

    #[test]
    fn zero_staging_rejected() {
        let err = try_staging(0, 24.0).unwrap_err();
        assert!(
            matches!(&err, PipelineError::InvalidConfig { detail } if detail.contains("proper subset")),
            "{err}"
        );
    }

    #[test]
    fn whole_machine_staging_rejected() {
        // Caddy has 150 nodes: staging must leave at least one to compute.
        assert!(try_staging(149, 24.0).is_ok());
        for staging in [150, 151] {
            let err = try_staging(staging, 24.0).unwrap_err();
            assert!(matches!(err, PipelineError::InvalidConfig { .. }), "{err}");
        }
    }
}
