//! Node-level power models.
//!
//! A [`NodePowerModel`] composes two CPU sockets, DRAM, a NIC and PSU
//! overhead, then applies an affine calibration so its endpoints match
//! published wall-plug measurements. The [`NodePowerModel::caddy`] preset is
//! calibrated to the paper's *Caddy* cluster: 150 nodes drew **15 kW idle**
//! and **44 kW under the MPAS-O workload**, i.e. 100 W and ≈293.3 W per node.

use crate::component::{CpuPower, DramPower, NicPower, PowerComponent, PsuOverhead};
use crate::units::Watts;

/// Utilization of the major node components, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoad {
    /// CPU utilization across all cores.
    pub cpu: f64,
    /// Memory-bandwidth utilization.
    pub mem: f64,
    /// Network utilization.
    pub nic: f64,
}

impl NodeLoad {
    /// Fully idle node.
    pub const IDLE: NodeLoad = NodeLoad {
        cpu: 0.0,
        mem: 0.0,
        nic: 0.0,
    };

    /// A compute-bound HPC load (CPU saturated, heavy memory traffic,
    /// moderate interconnect use).
    pub const COMPUTE: NodeLoad = NodeLoad {
        cpu: 1.0,
        mem: 0.8,
        nic: 0.4,
    };

    /// I/O wait implemented as busy-wait polling inside MPI/PIO collectives:
    /// cores spin at high utilization while moving little data. This is the
    /// mechanism behind the paper's flat power profiles (§V, Power).
    pub const IO_BUSY_WAIT: NodeLoad = NodeLoad {
        cpu: 0.92,
        mem: 0.10,
        nic: 0.30,
    };

    /// I/O wait with the CPUs placed in a low-power idle state — the
    /// *hypothetical* policy discussed in the paper's §VIII. Used by the
    /// ablation benchmarks.
    pub const IO_DEEP_IDLE: NodeLoad = NodeLoad {
        cpu: 0.05,
        mem: 0.05,
        nic: 0.30,
    };

    /// Rendering load (rasterization is CPU- and memory-intensive).
    pub const RENDER: NodeLoad = NodeLoad {
        cpu: 0.95,
        mem: 0.7,
        nic: 0.2,
    };
}

/// One node's wall power split by component, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentPower {
    /// CPU sockets.
    pub cpu: Watts,
    /// DRAM.
    pub dram: Watts,
    /// NIC/HCA.
    pub nic: Watts,
    /// Everything else the wall meter sees: fans, boards, VRMs, PSU
    /// conversion loss and the calibration offset.
    pub platform: Watts,
}

/// A calibrated whole-node power model.
#[derive(Debug, Clone)]
pub struct NodePowerModel {
    cpu: CpuPower,
    sockets: usize,
    dram: DramPower,
    nic: NicPower,
    psu: PsuOverhead,
    /// Affine calibration `wall' = a·wall + b` fixing the endpoints to
    /// measured values.
    cal_a: f64,
    cal_b: f64,
}

impl NodePowerModel {
    /// Build an uncalibrated model (calibration is the identity).
    pub(crate) fn from_components(
        cpu: CpuPower,
        sockets: usize,
        dram: DramPower,
        nic: NicPower,
        psu: PsuOverhead,
    ) -> Self {
        assert!(sockets > 0, "a node needs at least one socket");
        NodePowerModel {
            cpu,
            sockets,
            dram,
            nic,
            psu,
            cal_a: 1.0,
            cal_b: 0.0,
        }
    }

    /// Affine-calibrate the model so that `power(IDLE) = idle_target` and
    /// `power(COMPUTE) = loaded_target`.
    ///
    /// # Panics
    /// Panics if the raw model is degenerate (idle and loaded raw powers
    /// equal) or targets are inverted.
    pub fn calibrated(mut self, idle_target: Watts, loaded_target: Watts) -> Self {
        assert!(
            loaded_target.watts() > idle_target.watts(),
            "loaded target must exceed idle target"
        );
        self.cal_a = 1.0;
        self.cal_b = 0.0;
        let raw_idle = self.power(NodeLoad::IDLE).watts();
        let raw_loaded = self.power(NodeLoad::COMPUTE).watts();
        assert!(
            raw_loaded > raw_idle,
            "raw model must be load-sensitive to calibrate"
        );
        let a = (loaded_target.watts() - idle_target.watts()) / (raw_loaded - raw_idle);
        let b = idle_target.watts() - a * raw_idle;
        self.cal_a = a;
        self.cal_b = b;
        self
    }

    /// The *Caddy* compute node: 2 × Intel E5-2670 (Sandy Bridge), 64 GB
    /// DDR3, InfiniBand QDR, calibrated to 100 W idle / 293.33 W loaded
    /// (matching the paper's 15 kW / 44 kW for 150 nodes).
    pub fn caddy() -> Self {
        NodePowerModel::from_components(
            CpuPower::e5_2670(),
            2,
            DramPower::ddr3_64gb(),
            NicPower::ib_qdr(),
            PsuOverhead::new(Watts(24.0), 0.88),
        )
        .calibrated(Watts(100.0), Watts(44_000.0 / 150.0))
    }

    /// The DC draw of the CPU sockets, DRAM and NIC at `load`.
    fn dc_parts(&self, load: NodeLoad) -> [Watts; 3] {
        [
            self.cpu.power(load.cpu) * self.sockets as f64,
            self.dram.power(load.mem),
            self.nic.power(load.nic),
        ]
    }

    /// Wall power at the given load.
    pub fn power(&self, load: NodeLoad) -> Watts {
        let [cpu, dram, nic] = self.dc_parts(load);
        let wall = self.psu.wall_power(cpu + dram + nic);
        Watts(self.cal_a * wall.watts() + self.cal_b).clamp_non_negative()
    }

    /// The wall power at `load`, split the way RAPL-style counters would
    /// split it. The four parts sum to [`power`](Self::power): `platform`
    /// is the remainder, so it carries fans, PSU loss and the calibration
    /// to the meters.
    pub fn components(&self, load: NodeLoad) -> ComponentPower {
        let [cpu, dram, nic] = self.dc_parts(load);
        ComponentPower {
            cpu,
            dram,
            nic,
            platform: self.power(load) - (cpu + dram + nic),
        }
    }

    /// Idle wall power.
    pub fn idle(&self) -> Watts {
        self.power(NodeLoad::IDLE)
    }

    /// Wall power under the compute-bound load.
    pub fn loaded(&self) -> Watts {
        self.power(NodeLoad::COMPUTE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caddy_matches_paper_endpoints() {
        let node = NodePowerModel::caddy();
        // 150 nodes: 15 kW idle, 44 kW loaded.
        let idle_cluster = node.idle().watts() * 150.0;
        let loaded_cluster = node.loaded().watts() * 150.0;
        assert!((idle_cluster - 15_000.0).abs() < 1.0, "idle={idle_cluster}");
        assert!(
            (loaded_cluster - 44_000.0).abs() < 1.0,
            "loaded={loaded_cluster}"
        );
    }

    #[test]
    fn caddy_dynamic_range_matches_paper() {
        // Paper: compute cluster rises 193% from idle to loaded.
        let node = NodePowerModel::caddy();
        let rise = (node.loaded().watts() - node.idle().watts()) / node.idle().watts();
        assert!((rise - 1.9333).abs() < 0.01, "rise={rise}");
    }

    #[test]
    fn io_busy_wait_power_is_near_loaded() {
        // Busy-wait I/O keeps CPUs hot: power within ~15% of the loaded level.
        let node = NodePowerModel::caddy();
        let busy = node.power(NodeLoad::IO_BUSY_WAIT).watts();
        let loaded = node.loaded().watts();
        assert!(busy > 0.80 * loaded, "busy={busy} loaded={loaded}");
        assert!(busy <= loaded);
    }

    #[test]
    fn io_deep_idle_power_is_near_idle() {
        let node = NodePowerModel::caddy();
        let deep = node.power(NodeLoad::IO_DEEP_IDLE).watts();
        assert!(
            deep < 1.5 * node.idle().watts(),
            "deep-idle draw {deep} should approach idle {}",
            node.idle().watts()
        );
    }

    #[test]
    fn power_is_monotone_in_uniform_load() {
        let node = NodePowerModel::caddy();
        let mut prev = 0.0;
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let p = node
                .power(NodeLoad {
                    cpu: u,
                    mem: u,
                    nic: u,
                })
                .watts();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn calibration_is_exact_at_endpoints() {
        let node = NodePowerModel::from_components(
            CpuPower::e5_2670(),
            2,
            DramPower::ddr3_64gb(),
            NicPower::ib_qdr(),
            PsuOverhead::new(Watts(24.0), 0.88),
        )
        .calibrated(Watts(80.0), Watts(250.0));
        assert!((node.idle().watts() - 80.0).abs() < 1e-9);
        assert!((node.loaded().watts() - 250.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "loaded target must exceed idle")]
    fn inverted_calibration_rejected() {
        let _ = NodePowerModel::caddy().calibrated(Watts(200.0), Watts(100.0));
    }

    #[test]
    fn render_load_draws_close_to_compute() {
        let node = NodePowerModel::caddy();
        let render = node.power(NodeLoad::RENDER).watts();
        assert!(render > 0.85 * node.loaded().watts());
    }

    fn total(c: &ComponentPower) -> f64 {
        (c.cpu + c.dram + c.nic + c.platform).watts()
    }

    #[test]
    fn cpu_dominates_under_compute_load() {
        let c = NodePowerModel::caddy().components(NodeLoad::COMPUTE);
        let cpu_fraction = c.cpu.watts() / total(&c);
        assert!(cpu_fraction > 0.5, "cpu fraction {cpu_fraction}");
        assert!(c.dram > Watts::ZERO && c.nic > Watts::ZERO && c.platform > Watts::ZERO);
    }

    #[test]
    fn idle_platform_share_is_larger() {
        let node = NodePowerModel::caddy();
        let platform_share = |c: ComponentPower| c.platform.watts() / total(&c);
        let busy = platform_share(node.components(NodeLoad::COMPUTE));
        let idle = platform_share(node.components(NodeLoad::IDLE));
        assert!(idle > busy, "idle {idle} vs busy {busy}");
    }

    #[test]
    fn busy_wait_io_burns_cpu_energy() {
        // The §V explanation: I/O waits that spin keep CPU power high.
        let node = NodePowerModel::caddy();
        let spin = node.components(NodeLoad::IO_BUSY_WAIT).cpu.watts();
        let sleep = node.components(NodeLoad::IO_DEEP_IDLE).cpu.watts();
        assert!(spin > 2.0 * sleep, "spin {spin} vs sleep {sleep}");
    }

    mod split_props {
        use super::*;
        use proptest::prelude::*;

        /// A utilization in `[0, 1]`, out of range, or NaN (the component
        /// curves clamp the last two).
        fn utilization() -> impl Strategy<Value = f64> {
            prop_oneof![0.0f64..1.0, -3.0f64..4.0, (0u8..1).prop_map(|_| f64::NAN)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The split is of the calibrated wall power the meters read,
            /// not of an uncalibrated twin: the parts sum to `power`.
            #[test]
            fn components_sum_to_wall_power(
                cpu in utilization(),
                mem in utilization(),
                nic in utilization(),
            ) {
                let node = NodePowerModel::caddy();
                let load = NodeLoad { cpu, mem, nic };
                let wall = node.power(load).watts();
                let sum = total(&node.components(load));
                prop_assert!(
                    (sum - wall).abs() <= 1e-9 * wall,
                    "{load:?}: parts {sum} W vs wall {wall} W"
                );
            }
        }
    }
}
