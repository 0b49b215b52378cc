//! Three-way pipeline comparison: post-processing vs in-situ vs in-transit.
//!
//! In-transit staging (Bennett et al., cited by the paper) dedicates a few
//! nodes to visualization so rendering overlaps simulation. This example
//! sweeps the staging-partition size and shows the U-shaped trade-off: too
//! few staging nodes stall the hand-off, too many starve the simulation.
//!
//! ```sh
//! cargo run --release --example intransit_comparison
//! ```

use insitu_vis::pipeline::campaign::{Campaign, Plan};
use insitu_vis::pipeline::intransit::InTransitConfig;
use insitu_vis::pipeline::{PipelineConfig, PipelineKind};

fn main() {
    let campaign = Campaign::paper();
    for hours in [8.0, 72.0] {
        let insitu = campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, hours));
        let post = campaign.run(&PipelineConfig::paper(PipelineKind::PostProcessing, hours));
        println!("\nSampling every {hours} simulated hours:");
        println!(
            "  post-processing : {:>7.0} s | {:>6.2} kW | {:>7.1} MJ",
            post.execution_time.as_secs_f64(),
            post.avg_power_total().kilowatts(),
            post.energy_total().megajoules()
        );
        println!(
            "  in-situ         : {:>7.0} s | {:>6.2} kW | {:>7.1} MJ",
            insitu.execution_time.as_secs_f64(),
            insitu.avg_power_total().kilowatts(),
            insitu.energy_total().megajoules()
        );
        for staging in [5usize, 10, 25, 50, 75] {
            let m = campaign
                .execute(&Plan {
                    staging: Some(InTransitConfig {
                        staging_nodes: staging,
                        ..InTransitConfig::caddy_default()
                    }),
                    ..Plan::new(PipelineConfig::paper(PipelineKind::InSitu, hours))
                })
                .expect("5–75 staging nodes fit the 150-node machine")
                .metrics;
            println!(
                "  in-transit ({staging:>2} staging nodes): {:>7.0} s | {:>6.2} kW | {:>7.1} MJ",
                m.execution_time.as_secs_f64(),
                m.avg_power_total().kilowatts(),
                m.energy_total().megajoules()
            );
        }
    }
    println!(
        "\nReading the table: in-transit pays a compute-partition tax and a \
         hand-off, so tightly-coupled in-situ wins on this workload — but \
         in-transit isolates the simulation from visualization jitter, which \
         is why Rodero et al. study the placement trade-off."
    );
}
