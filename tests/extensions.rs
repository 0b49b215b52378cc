//! Integration tests of the extension features: in-transit staging, the
//! burst buffer, the dollar-cost planner, machine-size scaling, and the
//! node model's RAPL-style per-component power split — each exercised
//! through the public API.

use insitu_vis::cluster::interconnect::Interconnect;
use insitu_vis::model::tradeoff::{Constraints, Planner};
use insitu_vis::pipeline::campaign::{Campaign, Plan};
use insitu_vis::pipeline::intransit::InTransitConfig;
use insitu_vis::pipeline::{PipelineConfig, PipelineKind};
use insitu_vis::power::cost::EnergyPrice;
use insitu_vis::power::node::{NodeLoad, NodePowerModel};
use insitu_vis::storage::burst_buffer::BurstBufferConfig;

#[test]
fn three_pipelines_rank_consistently() {
    // At the paper's 8 h rate: in-situ < burst-buffered post < plain post,
    // and in-transit with a generously sized partition (the 8 h rate needs
    // half the machine staging to keep up with rendering) lands between
    // in-situ and plain post.
    let campaign = Campaign::paper();
    let pc_post = PipelineConfig::paper(PipelineKind::PostProcessing, 8.0);
    let pc_insitu = PipelineConfig::paper(PipelineKind::InSitu, 8.0);
    let insitu = campaign.run(&pc_insitu).execution_time.as_secs_f64();
    let post = campaign.run(&pc_post).execution_time.as_secs_f64();
    let seconds = |plan: Plan| {
        let run = campaign.execute(&plan).expect("valid plan");
        run.metrics.execution_time.as_secs_f64()
    };
    let buffered = seconds(Plan {
        burst_buffer: Some(BurstBufferConfig::two_tb_nvram()),
        ..Plan::new(pc_post)
    });
    let intransit = seconds(Plan {
        staging: Some(InTransitConfig {
            staging_nodes: 75,
            interconnect: Interconnect::ib_qdr(),
            ..InTransitConfig::caddy_default()
        }),
        ..Plan::new(pc_insitu)
    });
    assert!(insitu < buffered, "{insitu} vs {buffered}");
    assert!(buffered < post, "{buffered} vs {post}");
    assert!(
        insitu < intransit && intransit < post,
        "intransit {intransit}"
    );
}

#[test]
fn energy_bill_of_the_paper_campaign() {
    // Price the measured runs with the paper's $1M/MW-year rule: the 8 h
    // post-processing run costs about twice the in-situ run.
    let campaign = Campaign::paper();
    let price = EnergyPrice::paper_rule_of_thumb();
    let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
    let post = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, 8.0));
    let bill_insitu = price.cost_of(insitu.energy_total());
    let bill_post = price.cost_of(post.energy_total());
    assert!(
        bill_post > 1.9 * bill_insitu,
        "{bill_post} vs {bill_insitu}"
    );
    // Sanity on magnitude: single runs cost single-digit dollars.
    assert!(bill_post < 10.0 && bill_insitu > 0.5);
}

#[test]
fn planner_integrates_model_and_prices() {
    use insitu_vis::ocean::ProblemSpec;
    let planner = Planner::paper();
    let spec = ProblemSpec::paper_100yr();
    let plan = planner
        .cheapest_feasible(
            &spec,
            &[1.0, 6.0, 12.0, 24.0],
            &Constraints {
                max_storage_bytes: Some(2_000_000_000_000),
                max_seconds: None,
                max_interval_hours: 24.0,
            },
        )
        .expect("a feasible plan exists");
    assert_eq!(plan.kind, PipelineKind::InSitu);
    assert!(plan.dollars > 0.0);
    assert!(plan.storage_bytes <= 2_000_000_000_000);
}

#[test]
fn scaling_preserves_findings_on_other_machines() {
    // The paper claims the methodology generalizes; check the key findings
    // hold on a machine a third the size and one three times the size.
    for cages in [5usize, 45] {
        let campaign = Campaign::caddy_scaled(10 * cages);
        let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
        let post = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, 8.0));
        // Finding 1: in-situ is faster.
        assert!(insitu.execution_time < post.execution_time, "cages={cages}");
        // Finding 2/3: average power pipeline-independent within a few %.
        let rel = (insitu.avg_power_total().watts() - post.avg_power_total().watts()).abs()
            / post.avg_power_total().watts();
        assert!(rel < 0.06, "cages={cages} rel={rel}");
        // Storage is machine-independent.
        assert!((post.storage_gb() - 230.6).abs() < 1.0);
    }
}

#[test]
fn attribution_explains_flat_power() {
    // RAPL-style split of the calibrated node: the CPU power during
    // busy-wait I/O is close to the CPU power during compute — the §V
    // mechanism for the flat power profile.
    let node = NodePowerModel::caddy();
    let sim_cpu = node.components(NodeLoad::COMPUTE).cpu.watts();
    let write_cpu = node.components(NodeLoad::IO_BUSY_WAIT).cpu.watts();
    assert!(
        write_cpu > 0.9 * sim_cpu,
        "busy-wait CPU power {write_cpu} vs compute {sim_cpu}"
    );
}
