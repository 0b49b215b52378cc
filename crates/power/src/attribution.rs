//! Per-component and per-phase energy attribution (RAPL-style).
//!
//! The rack meters in the paper see only wall power. To reason about *where*
//! the energy goes — the §VIII discussion of storage-side CPUs and I/O-wait
//! states — we attribute node energy to components (sockets, DRAM, NIC,
//! platform overhead) the way RAPL energy counters would, and accumulate it
//! per workload phase.

use ivis_sim::SimDuration;

use crate::component::{CpuPower, DramPower, NicPower, PowerComponent, PsuOverhead};
use crate::node::NodeLoad;
use crate::units::Joules;

/// Energy split of one node over one interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// CPU sockets.
    pub cpu: Joules,
    /// DRAM.
    pub dram: Joules,
    /// NIC/HCA.
    pub nic: Joules,
    /// Fans, boards, VRMs and PSU conversion loss.
    pub platform: Joules,
}

impl EnergyBreakdown {
    /// Total of all components.
    pub(crate) fn total(&self) -> Joules {
        self.cpu + self.dram + self.nic + self.platform
    }

    /// Element-wise accumulation.
    pub(crate) fn add(&mut self, other: &EnergyBreakdown) {
        self.cpu += other.cpu;
        self.dram += other.dram;
        self.nic += other.nic;
        self.platform += other.platform;
    }
}

/// A RAPL-like attributor: knows the component curves and splits wall energy.
#[derive(Debug, Clone)]
pub struct EnergyAttributor {
    cpu: CpuPower,
    sockets: usize,
    dram: DramPower,
    nic: NicPower,
    psu: PsuOverhead,
}

impl EnergyAttributor {
    /// Build from component models.
    pub(crate) fn new(
        cpu: CpuPower,
        sockets: usize,
        dram: DramPower,
        nic: NicPower,
        psu: PsuOverhead,
    ) -> Self {
        assert!(sockets > 0, "need at least one socket");
        EnergyAttributor {
            cpu,
            sockets,
            dram,
            nic,
            psu,
        }
    }

    /// The Caddy node's components.
    pub fn caddy() -> Self {
        EnergyAttributor::new(
            CpuPower::e5_2670(),
            2,
            DramPower::ddr3_64gb(),
            NicPower::ib_qdr(),
            PsuOverhead::new(crate::units::Watts(24.0), 0.88),
        )
    }

    /// Attribute one node's energy over `d` at load `load`.
    pub fn attribute(&self, load: NodeLoad, d: SimDuration) -> EnergyBreakdown {
        let cpu_w = self.cpu.power(load.cpu).watts() * self.sockets as f64;
        let dram_w = self.dram.power(load.mem).watts();
        let nic_w = self.nic.power(load.nic).watts();
        let dc = cpu_w + dram_w + nic_w;
        let wall = self.psu.wall_power(crate::units::Watts(dc)).watts();
        let platform_w = wall - dc;
        let secs = d.as_secs_f64();
        EnergyBreakdown {
            cpu: Joules(cpu_w * secs),
            dram: Joules(dram_w * secs),
            nic: Joules(nic_w * secs),
            platform: Joules(platform_w * secs),
        }
    }
}

/// Accumulates energy per labeled phase (e.g. "simulate", "write").
#[derive(Debug, Clone, Default)]
pub struct PhaseEnergyLedger {
    entries: Vec<(String, EnergyBreakdown)>,
}

impl PhaseEnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        PhaseEnergyLedger::default()
    }

    /// Charge `breakdown` to `phase`.
    pub fn charge(&mut self, phase: &str, breakdown: EnergyBreakdown) {
        if let Some((_, acc)) = self.entries.iter_mut().find(|(p, _)| p == phase) {
            acc.add(&breakdown);
        } else {
            self.entries.push((phase.to_string(), breakdown));
        }
    }

    /// Energy charged to `phase` so far.
    pub fn phase(&self, phase: &str) -> EnergyBreakdown {
        self.entries
            .iter()
            .find(|(p, _)| p == phase)
            .map(|(_, b)| *b)
            .unwrap_or_default()
    }

    /// Grand total.
    pub fn total(&self) -> Joules {
        self.entries.iter().map(|(_, b)| b.total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;

    #[test]
    fn breakdown_sums_to_wall_energy() {
        let attr = EnergyAttributor::caddy();
        let b = attr.attribute(NodeLoad::COMPUTE, SimDuration::from_secs(100));
        let wall = {
            let cpu = CpuPower::e5_2670().power(1.0).watts() * 2.0;
            let dram = DramPower::ddr3_64gb().power(0.8).watts();
            let nic = NicPower::ib_qdr().power(0.4).watts();
            PsuOverhead::new(Watts(24.0), 0.88)
                .wall_power(Watts(cpu + dram + nic))
                .watts()
        };
        assert!((b.total().joules() - wall * 100.0).abs() < 1e-6);
    }

    #[test]
    fn cpu_dominates_under_compute_load() {
        let attr = EnergyAttributor::caddy();
        let b = attr.attribute(NodeLoad::COMPUTE, SimDuration::from_secs(10));
        let cpu_fraction = b.cpu.joules() / b.total().joules();
        assert!(cpu_fraction > 0.5, "cpu fraction {cpu_fraction}");
        assert!(b.dram > Joules::ZERO && b.nic > Joules::ZERO && b.platform > Joules::ZERO);
    }

    #[test]
    fn idle_platform_share_is_larger() {
        let attr = EnergyAttributor::caddy();
        let busy = attr.attribute(NodeLoad::COMPUTE, SimDuration::from_secs(10));
        let idle = attr.attribute(NodeLoad::IDLE, SimDuration::from_secs(10));
        let platform_share = |b: &EnergyBreakdown| b.platform.joules() / b.total().joules();
        assert!(platform_share(&idle) > platform_share(&busy));
    }

    #[test]
    fn busy_wait_io_burns_cpu_energy() {
        // The §V explanation: I/O waits that spin keep CPU energy high.
        let attr = EnergyAttributor::caddy();
        let spin = attr.attribute(NodeLoad::IO_BUSY_WAIT, SimDuration::from_secs(10));
        let sleep = attr.attribute(NodeLoad::IO_DEEP_IDLE, SimDuration::from_secs(10));
        assert!(spin.cpu.joules() > 2.0 * sleep.cpu.joules());
    }

    #[test]
    fn ledger_accumulates_per_phase() {
        let attr = EnergyAttributor::caddy();
        let mut ledger = PhaseEnergyLedger::new();
        ledger.charge(
            "simulate",
            attr.attribute(NodeLoad::COMPUTE, SimDuration::from_secs(10)),
        );
        ledger.charge(
            "write",
            attr.attribute(NodeLoad::IO_BUSY_WAIT, SimDuration::from_secs(4)),
        );
        ledger.charge(
            "simulate",
            attr.attribute(NodeLoad::COMPUTE, SimDuration::from_secs(10)),
        );
        let sim = ledger.phase("simulate");
        let write = ledger.phase("write");
        assert!(sim.total() > write.total());
        assert!((ledger.total().joules() - (sim.total() + write.total()).joules()).abs() < 1e-9);
        assert_eq!(ledger.phase("missing"), EnergyBreakdown::default());
    }

    #[test]
    fn zero_duration_zero_energy() {
        let attr = EnergyAttributor::caddy();
        let b = attr.attribute(NodeLoad::COMPUTE, SimDuration::ZERO);
        assert_eq!(b.total(), Joules::ZERO);
    }
}
