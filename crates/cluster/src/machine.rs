//! The instrumented machine: topology + power model + cage meters.
//!
//! A [`Machine`] is what a pipeline executor drives: it announces phase
//! transitions ([`Machine::begin_phase`]) and the machine converts them into
//! partition loads, node watts, and per-cage meter observations — exactly the
//! measurement pathway on *Caddy* (15 Appro cage monitors covering 150
//! nodes, one averaged sample per minute each).
//!
//! # Cost model
//!
//! Every node of a partition carries the same load, so the machine stores
//! the partition ("the last `staging` nodes carry one load, the rest
//! another"), not a load per node, and an observation is one entry in a
//! log, not a sample in every cage meter. Without measurement noise every
//! cage reads the value of its *class* — all compute, all staging, or the
//! at most one cage that straddles the boundary — so the cluster value is a
//! pure function of the partition: it is folded once per *distinct*
//! partition and remembered. The node power of each [`JobPhase`] under the
//! machine's I/O policy is evaluated once, at construction, into a
//! five-entry table, so a phase change costs O(1) amortised and evaluates
//! no power model: two table reads, one log entry, one lookup among the
//! handful of partitions a run visits. With noise each cage draws its own
//! factor, so a phase change costs O(cages) draws and adds. [`Machine::power_now`] is
//! remembered per distinct partition the same way, on first request.
//! [`Machine::cage_meters`] replays the log into meters when somebody asks
//! and keeps them until the next observation; memory is O(phase changes),
//! not O(cages × samples).
//!
//! # Summation order
//!
//! Outputs are pinned to the bit, so the order of every floating-point sum
//! is part of the contract — no `n × p` shortcuts:
//!
//! 1. a cage's raw power is the node-order `Sum` of `nodes_per_cage` node
//!    powers;
//! 2. the cluster value is `((c0 + c1) + c2) + …` over the *observed*
//!    (post-noise) cage powers, cage 0 first;
//! 3. the cluster baseline is the `f64` `sum()` of the cage baselines,
//!    as [`aggregate`] computes it;
//! 4. [`Machine::power_now`] is the flat node-order sum over all nodes.
//!
//! Noise is drawn once per cage per observation, cage 0 first. The
//! maintained cluster signal equals `aggregate(cage_meters())` sample for
//! sample; debug builds assert it on every [`Machine::cluster_meter`] call.
//! The replay pushes exactly what the eager meters were pushed: one
//! `observe` per cage per logged observation, nothing de-duplicated, noise
//! re-drawn from the generator's starting state.

use std::cell::OnceCell;
use std::iter::repeat_n;

use ivis_power::meter::{aggregate, MeteredPdu};
use ivis_power::node::NodePowerModel;
use ivis_power::units::Watts;
use ivis_sim::{SimRng, SimTime, TimeSeries};

use crate::phase::{IoWaitPolicy, JobPhase, PhaseRecord, PhaseTimeline};
use crate::topology::ClusterTopology;

/// Optional multiplicative measurement noise on cage power.
#[derive(Debug, Clone)]
struct PowerNoise {
    seed: u64,
    rng: SimRng,
    rel_std: f64,
}

impl PowerNoise {
    fn new(seed: u64, rel_std: f64) -> Self {
        PowerNoise {
            seed,
            rng: SimRng::new(seed),
            rel_std,
        }
    }
}

/// What a cage meter reads when the cage draws `raw`: one draw if noise is on.
fn observed(noise: &mut Option<PowerNoise>, raw: Watts) -> Watts {
    match noise {
        Some(n) => raw * n.rng.noise_factor(n.rel_std),
        None => raw,
    }
}

/// The cluster value: the cage powers summed left to right, cage 0 first.
fn cage_order_sum(cage_watts: impl IntoIterator<Item = f64>) -> f64 {
    cage_watts
        .into_iter()
        .reduce(|acc, c| acc + c)
        .expect("a machine has at least one cage")
}

/// A partition as the meters see it: nodes from `first_staging` on draw
/// `staged`, the rest draw `compute`. Every noise-free sum over the
/// machine is a pure function of these three values.
#[derive(Debug, Clone, Copy)]
struct PartitionPower {
    first_staging: usize,
    compute: Watts,
    staged: Watts,
}

impl PartitionPower {
    fn same_as(&self, other: &PartitionPower) -> bool {
        self.first_staging == other.first_staging
            && self.compute.watts().to_bits() == other.compute.watts().to_bits()
            && self.staged.watts().to_bits() == other.staged.watts().to_bits()
    }

    /// Node-order power sum of `computing` nodes followed by `staging` ones.
    fn node_order_sum(&self, computing: usize, staging: usize) -> Watts {
        repeat_n(self.compute, computing)
            .chain(repeat_n(self.staged, staging))
            .sum()
    }

    /// Each cage's raw power, cage 0 first: one node-order sum per cage
    /// class.
    fn cage_raws(self, topology: &ClusterTopology) -> impl Iterator<Item = Watts> {
        let per_cage = topology.nodes_per_cage;
        let cage_raw = move |computing| self.node_order_sum(computing, per_cage - computing);
        let (all_compute, all_staging) = (cage_raw(per_cage), cage_raw(0));
        (0..topology.num_cages).map(move |cage| {
            let computing = self
                .first_staging
                .saturating_sub(cage * per_cage)
                .min(per_cage);
            match computing {
                0 => all_staging,
                k if k == per_cage => all_compute,
                k => cage_raw(k),
            }
        })
    }
}

/// The sums over one distinct partition, each computed when first needed.
#[derive(Debug, Clone)]
struct PartitionSums {
    of: PartitionPower,
    /// The cluster value of a noise-free observation.
    cluster: OnceCell<f64>,
    /// What [`Machine::power_now`] reads.
    power_now: OnceCell<Watts>,
}

impl PartitionSums {
    fn of(power: PartitionPower) -> Self {
        PartitionSums {
            of: power,
            cluster: OnceCell::new(),
            power_now: OnceCell::new(),
        }
    }
}

/// What each cage reads before its first observation, cage 0 first.
fn cage_baselines(
    node_model: &NodePowerModel,
    topology: &ClusterTopology,
) -> impl Iterator<Item = f64> {
    let idle_cage = node_model.idle().watts() * topology.nodes_per_cage as f64;
    repeat_n(idle_cage, topology.num_cages)
}

/// An instrumented compute cluster.
///
/// ```
/// use ivis_cluster::{IoWaitPolicy, JobPhase, Machine};
/// use ivis_sim::SimTime;
///
/// let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
/// m.begin_phase(SimTime::ZERO, JobPhase::Simulate);
/// m.finish(SimTime::from_secs(120));
/// // Two simulated minutes at the paper's 44 kW loaded draw.
/// let samples = m.cluster_meter().report(SimTime::ZERO, SimTime::from_secs(120));
/// assert_eq!(samples.len(), 2);
/// assert!((samples[0].avg.watts() - 44_000.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    topology: ClusterTopology,
    node_model: NodePowerModel,
    /// `node_model.power(phase.load(policy))` at `phase.index()`: every
    /// node power a phase change can set.
    phase_power: [Watts; 5],
    /// Every observation so far, oldest first: each re-observes every
    /// cage under a partition.
    log: Vec<(SimTime, PartitionPower)>,
    /// The cage meters `log` replays to; emptied by every observation.
    cage_meters: OnceCell<Vec<MeteredPdu>>,
    /// One entry per distinct partition seen; `sums[current_sums]` is the
    /// current one.
    sums: Vec<PartitionSums>,
    current_sums: usize,
    /// The left-to-right sum of the cage powers, pushed at every observation.
    cluster_signal: TimeSeries,
    cluster_baseline: Watts,
    timeline: PhaseTimeline,
    current: Option<(JobPhase, SimTime)>,
    noise: Option<PowerNoise>,
}

impl Machine {
    /// Build a machine from parts. Meters start with the idle baseline.
    ///
    /// # Panics
    /// Panics if the topology has no nodes (no cages, or empty cages).
    pub fn new(
        topology: ClusterTopology,
        node_model: NodePowerModel,
        policy: IoWaitPolicy,
    ) -> Self {
        assert!(topology.num_nodes() > 0, "need at least one node");
        let idle = PartitionPower {
            first_staging: topology.num_nodes(),
            compute: node_model.idle(),
            staged: node_model.idle(),
        };
        Machine {
            cluster_baseline: Watts(cage_baselines(&node_model, &topology).sum()),
            phase_power: JobPhase::ALL.map(|phase| node_model.power(phase.load(policy))),
            topology,
            node_model,
            log: Vec::new(),
            cage_meters: OnceCell::new(),
            sums: vec![PartitionSums::of(idle)],
            current_sums: 0,
            cluster_signal: TimeSeries::new(),
            timeline: PhaseTimeline::new(),
            current: None,
            noise: None,
        }
    }

    /// The paper's *Caddy* cluster with its calibrated node power model.
    pub fn caddy(policy: IoWaitPolicy) -> Self {
        Machine::new(ClusterTopology::caddy(), NodePowerModel::caddy(), policy)
    }

    /// A Caddy-style machine scaled to exactly `nodes` nodes (see
    /// [`ClusterTopology::caddy_scaled`]); the per-node power model is
    /// unchanged. `caddy_scaled(150, p)` is `caddy(p)` exactly.
    #[cfg(test)]
    fn caddy_scaled(nodes: usize, policy: IoWaitPolicy) -> Self {
        Machine::new(
            ClusterTopology::caddy_scaled(nodes),
            NodePowerModel::caddy(),
            policy,
        )
    }

    /// Enable multiplicative measurement noise (relative std-dev) on cage
    /// power observations, seeded deterministically.
    ///
    /// # Panics
    /// Panics if `rel_std` is outside `[0, 0.5)`, or if the machine has
    /// already been observed: the cage meters replay every observation
    /// with noise, so it must be configured before the first one.
    pub fn with_power_noise(mut self, seed: u64, rel_std: f64) -> Self {
        assert!((0.0..0.5).contains(&rel_std), "rel_std out of range");
        assert!(
            self.log.is_empty(),
            "power noise must be configured before the first observation"
        );
        self.noise = Some(PowerNoise::new(seed, rel_std));
        self
    }

    /// The machine's topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The node power model in use.
    #[cfg(test)]
    fn node_model(&self) -> &NodePowerModel {
        &self.node_model
    }

    /// Instantaneous whole-cluster power implied by current node loads
    /// (true signal, before metering).
    pub fn power_now(&self) -> Watts {
        let sums = &self.sums[self.current_sums];
        *sums.power_now.get_or_init(|| {
            let first_staging = sums.of.first_staging;
            sums.of
                .node_order_sum(first_staging, self.topology.num_nodes() - first_staging)
        })
    }

    /// Begin a new cluster-wide phase at time `t`, closing any phase in
    /// progress and re-observing every cage meter.
    pub fn begin_phase(&mut self, t: SimTime, phase: JobPhase) {
        self.close_current(t);
        self.current = Some((phase, t));
        let power = self.phase_power[phase.index()];
        self.set_partition(t, 0, power, power);
    }

    /// Begin a *split* phase at `t`: the last `staging` nodes run
    /// `staging_phase` while the rest run `compute_phase`. The timeline
    /// records the compute partition's phase (the staging partition is an
    /// accounting sidecar, as in in-transit pipelines).
    ///
    /// # Panics
    /// Panics if `staging` is not smaller than the node count.
    pub fn begin_split_phase(
        &mut self,
        t: SimTime,
        staging: usize,
        compute_phase: JobPhase,
        staging_phase: JobPhase,
    ) {
        let n = self.topology.num_nodes();
        assert!(staging < n, "staging partition must leave compute nodes");
        self.close_current(t);
        self.current = Some((compute_phase, t));
        self.set_partition(
            t,
            staging,
            self.phase_power[compute_phase.index()],
            self.phase_power[staging_phase.index()],
        );
    }

    /// End the job at time `t`: closes the current phase and returns the
    /// machine to idle.
    pub fn finish(&mut self, t: SimTime) {
        self.close_current(t);
        let idle = self.phase_power[JobPhase::Idle.index()];
        self.set_partition(t, 0, idle, idle);
    }

    fn close_current(&mut self, t: SimTime) {
        if let Some((phase, start)) = self.current.take() {
            self.timeline.push(PhaseRecord {
                phase,
                start,
                end: t,
            });
        }
    }

    /// Put the last `staging` nodes at `staged` watts and the rest at
    /// `compute`, and re-observe every cage: the remembered cage-order sum of the
    /// class values without noise, one draw per cage with it. The log
    /// gains the observation, so the meters replayed so far are dropped.
    fn set_partition(&mut self, t: SimTime, staging: usize, compute: Watts, staged: Watts) {
        let power = PartitionPower {
            first_staging: self.topology.num_nodes() - staging,
            compute,
            staged,
        };
        self.log.push((t, power));
        self.cage_meters.take();
        self.current_sums = self.sums_index(power);
        let cage_raws = power.cage_raws(&self.topology);
        let total = if self.noise.is_none() {
            *self.sums[self.current_sums]
                .cluster
                .get_or_init(|| cage_order_sum(cage_raws.map(Watts::watts)))
        } else {
            cage_order_sum(cage_raws.map(|raw| observed(&mut self.noise, raw).watts()))
        };
        self.cluster_signal.push(t, total);
    }

    /// The index in `sums` of the entry for `power`, added if new. A run
    /// visits a handful of distinct partitions, so a linear scan.
    fn sums_index(&mut self, power: PartitionPower) -> usize {
        let known = self.sums.iter().position(|s| s.of.same_as(&power));
        known.unwrap_or_else(|| {
            self.sums.push(PartitionSums::of(power));
            self.sums.len() - 1
        })
    }

    /// Replay the log into fresh meters: one `observe` per cage per
    /// entry, noise re-drawn from the generator's starting state.
    fn replay_cage_meters(&self) -> Vec<MeteredPdu> {
        let mut meters: Vec<MeteredPdu> = cage_baselines(&self.node_model, &self.topology)
            .enumerate()
            .map(|(i, idle_cage)| MeteredPdu::appro_cage(format!("cage{i}"), Watts(idle_cage)))
            .collect();
        let mut noise = self
            .noise
            .as_ref()
            .map(|n| PowerNoise::new(n.seed, n.rel_std));
        for &(t, power) in &self.log {
            for (meter, raw) in meters.iter_mut().zip(power.cage_raws(&self.topology)) {
                meter.observe(t, observed(&mut noise, raw));
            }
        }
        meters
    }

    /// The per-cage meters (what the Appro interface exposes).
    pub fn cage_meters(&self) -> &[MeteredPdu] {
        self.cage_meters.get_or_init(|| self.replay_cage_meters())
    }

    /// A synthesized whole-cluster meter (sum of all cages).
    pub fn cluster_meter(&self) -> MeteredPdu {
        // What `aggregate` yields: one meter's sum is its signal verbatim,
        // while a merge pushes every change-point anew — which re-coalesces
        // the `[(0, A), (5, A)]` a same-instant overwrite leaves behind, so
        // the integral does not split at 5.
        let signal = if self.topology.num_cages == 1 {
            self.cluster_signal.clone()
        } else {
            let mut merged = TimeSeries::new();
            for &(t, watts) in self.cluster_signal.samples() {
                merged.push(t, watts);
            }
            merged
        };
        let meter =
            MeteredPdu::appro_cage("compute-cluster", self.cluster_baseline).with_signal(signal);
        debug_assert!(
            same_meter(&meter, &aggregate("compute-cluster", self.cage_meters())),
            "maintained cluster signal diverged from aggregate(cage_meters())"
        );
        meter
    }

    /// Executed phases so far.
    pub fn timeline(&self) -> &PhaseTimeline {
        &self.timeline
    }
}

/// Whether two meters agree bit-for-bit: interval, baseline, and every
/// change-point of the true signal.
fn same_meter(a: &MeteredPdu, b: &MeteredPdu) -> bool {
    fn bits(m: &MeteredPdu) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let samples = m.true_signal().samples();
        samples.iter().map(|&(t, watts)| (t, watts.to_bits()))
    }
    a.interval() == b.interval()
        && a.baseline().watts().to_bits() == b.baseline().watts().to_bits()
        && bits(a).eq(bits(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CageId;
    use ivis_power::node::NodeLoad;
    use ivis_sim::SimDuration;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The per-node formulation `Machine` replaced, kept as the reference
    /// the partition bookkeeping is held to: a load per node, the power
    /// model evaluated for every node of every cage on every observation,
    /// and the cluster meter merged from the cage meters on demand.
    struct PerNodeOracle {
        topology: ClusterTopology,
        node_model: NodePowerModel,
        policy: IoWaitPolicy,
        node_loads: Vec<NodeLoad>,
        cage_meters: Vec<MeteredPdu>,
        noise: Option<PowerNoise>,
    }

    impl PerNodeOracle {
        fn of(m: &Machine, policy: IoWaitPolicy) -> Self {
            let topology = m.topology.clone();
            let idle_cage = Watts(m.node_model.idle().watts() * topology.nodes_per_cage as f64);
            PerNodeOracle {
                node_model: m.node_model.clone(),
                policy,
                node_loads: vec![NodeLoad::IDLE; topology.num_nodes()],
                cage_meters: (0..topology.num_cages)
                    .map(|i| MeteredPdu::appro_cage(format!("cage{i}"), idle_cage))
                    .collect(),
                noise: m.noise.clone(),
                topology,
            }
        }

        fn power_now(&self) -> Watts {
            self.node_loads
                .iter()
                .map(|&l| self.node_model.power(l))
                .sum()
        }

        fn begin_split_phase(&mut self, t: SimTime, staging: usize, c: JobPhase, s: JobPhase) {
            let n = self.topology.num_nodes();
            let (cload, sload) = (c.load(self.policy), s.load(self.policy));
            for (i, l) in self.node_loads.iter_mut().enumerate() {
                *l = if i >= n - staging { sload } else { cload };
            }
            self.observe_all(t);
        }

        fn cage_power(&mut self, cage: CageId) -> Watts {
            let raw: Watts = self
                .topology
                .nodes_in(cage)
                .map(|n| self.node_model.power(self.node_loads[n.0]))
                .sum();
            match &mut self.noise {
                Some(n) => raw * n.rng.noise_factor(n.rel_std),
                None => raw,
            }
        }

        fn observe_cage(&mut self, t: SimTime, cage: CageId) {
            let p = self.cage_power(cage);
            self.cage_meters[cage.0].observe(t, p);
        }

        fn observe_all(&mut self, t: SimTime) {
            for i in 0..self.topology.num_cages {
                self.observe_cage(t, CageId(i));
            }
        }
    }

    /// One call into the machine's phase API.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Phase(JobPhase),
        Split(usize, JobPhase, JobPhase),
        Finish,
        /// Read the cage meters, filling the machine's cell.
        ReadCages,
        /// Fill the cell, then carry on with a clone of the machine.
        CloneFilled,
    }

    fn assert_cage_meters_match(m: &Machine, oracle: &PerNodeOracle, when: &str) {
        assert_eq!(m.cage_meters().len(), oracle.cage_meters.len());
        for (mine, reference) in m.cage_meters().iter().zip(&oracle.cage_meters) {
            assert_eq!(mine.label(), reference.label());
            assert!(same_meter(mine, reference), "{} {when}", mine.label());
        }
    }

    /// Drive `m`, built with `policy`, and the per-node oracle through
    /// `ops` (each after a time step that may be zero) and hold every
    /// output to the oracle's bits — the cage meters at every mid-sequence
    /// read, not only at the end, so a stale replay shows in release
    /// builds too.
    fn assert_matches_oracle(mut m: Machine, policy: IoWaitPolicy, ops: &[(u64, Op)]) {
        let mut oracle = PerNodeOracle::of(&m, policy);
        let mut now = SimTime::ZERO;
        for &(dt, op) in ops {
            now += SimDuration::from_micros(dt);
            match op {
                Op::Phase(p) => {
                    m.begin_phase(now, p);
                    oracle.begin_split_phase(now, 0, p, p);
                }
                Op::Split(staging, c, s) => {
                    m.begin_split_phase(now, staging, c, s);
                    oracle.begin_split_phase(now, staging, c, s);
                }
                Op::Finish => {
                    m.finish(now);
                    oracle.begin_split_phase(now, 0, JobPhase::Idle, JobPhase::Idle);
                }
                Op::ReadCages => assert_cage_meters_match(&m, &oracle, "mid-sequence"),
                Op::CloneFilled => {
                    assert_cage_meters_match(&m, &oracle, "before the clone");
                    m = m.clone();
                }
            }
            assert_eq!(
                m.power_now().watts().to_bits(),
                oracle.power_now().watts().to_bits(),
                "power_now after {op:?}"
            );
            assert!(
                same_meter(
                    &m.cluster_meter(),
                    &aggregate("compute-cluster", &oracle.cage_meters)
                ),
                "cluster meter after {op:?} at {now}"
            );
        }
        assert_cage_meters_match(&m, &oracle, "at the end");
        let end = now + SimDuration::from_secs(90);
        let energy = |meter: MeteredPdu| meter.profile(SimTime::ZERO, end).energy().joules();
        assert_eq!(
            energy(m.cluster_meter()).to_bits(),
            energy(aggregate("compute-cluster", &oracle.cage_meters)).to_bits()
        );
    }

    fn op_strategy() -> impl Strategy<Value = (u64, u8, usize, usize, usize)> {
        // (time step selector, op kind, staging selector, two table indices)
        (0u64..4, 0u8..9, 0usize..10_000, 0usize..5, 0usize..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any legal call sequence on any small topology — repeated
        /// timestamps, every staging size, noise on and off, both I/O
        /// policies, cage meters read and the machine cloned at any point
        /// — leaves every cage meter, the maintained cluster signal,
        /// `power_now` and the profile energy bit-equal to the per-node
        /// formulation.
        #[test]
        fn partition_bookkeeping_matches_the_per_node_oracle(
            shape in (1usize..41, 1usize..13),
            idle_watts in 60.0f64..140.0,
            noise in prop_oneof![0u64..1, 1u64..1_000],
            deep_idle in any::<bool>(),
            raw_ops in prop::collection::vec(op_strategy(), 1..40),
        ) {
            let topology = ClusterTopology {
                num_cages: shape.0,
                nodes_per_cage: shape.1,
                ..ClusterTopology::caddy()
            };
            let n = topology.num_nodes();
            let policy = if deep_idle { IoWaitPolicy::DeepIdle } else { IoWaitPolicy::BusyWait };
            // An idle draw that is not a round number, so that sums of it
            // are inexact and their order shows.
            let node_model = NodePowerModel::caddy().calibrated(Watts(idle_watts), Watts(293.3));
            let mut m = Machine::new(topology, node_model, policy);
            if noise > 0 {
                m = m.with_power_noise(noise, 0.01);
            }
            let ops: Vec<(u64, Op)> = raw_ops
                .into_iter()
                .map(|(step, kind, pick, a, b)| {
                    // Half the steps repeat the previous timestamp.
                    let dt = [0, 0, 7_300_000, 61_000_001][step as usize];
                    let op = match kind {
                        0 | 1 => Op::Phase(JobPhase::ALL[a]),
                        2..=4 => Op::Split(pick % n, JobPhase::ALL[a], JobPhase::ALL[b]),
                        5 => Op::Finish,
                        6 | 7 => Op::ReadCages,
                        _ => Op::CloneFilled,
                    };
                    (dt, op)
                })
                .collect();
            assert_matches_oracle(m, policy, &ops);
        }
    }

    #[test]
    fn boundary_shapes_match_the_per_node_oracle() {
        // (cages, nodes per cage, staging): no staging, cage-aligned and
        // mid-cage boundaries at 10 000 nodes, one-node cages, one cage.
        let shapes = [
            (15, 10, 0),
            (1_000, 10, 640),
            (1_000, 10, 645),
            (157, 1, 13),
            (1, 8, 3),
        ];
        for (num_cages, nodes_per_cage, staging) in shapes {
            let topology = ClusterTopology {
                num_cages,
                nodes_per_cage,
                ..ClusterTopology::caddy()
            };
            let ops = [
                (0, Op::Split(staging, JobPhase::Simulate, JobPhase::Idle)),
                (0, Op::ReadCages),
                (
                    40_000_000,
                    Op::Split(staging, JobPhase::Idle, JobPhase::Visualize),
                ),
                (0, Op::Split(staging, JobPhase::Simulate, JobPhase::Idle)),
                (25_000_000, Op::Phase(JobPhase::WriteOutput)),
                (0, Op::CloneFilled),
                (5_000_000, Op::ReadCages),
                (5_000_000, Op::Finish),
            ];
            for seed in [None, Some(11)] {
                let mut m = Machine::new(
                    topology.clone(),
                    NodePowerModel::caddy(),
                    IoWaitPolicy::BusyWait,
                );
                if let Some(seed) = seed {
                    m = m.with_power_noise(seed, 0.005);
                }
                assert_matches_oracle(m, IoWaitPolicy::BusyWait, &ops);
            }
        }
    }

    #[test]
    fn same_instant_reobservation_keeps_the_cluster_signal_coalesced() {
        // Two phase changes at t = 5 s, the second restoring the first
        // value: the cage meters keep `[(0, A), (5, A)]` (push overwrites in
        // place), `aggregate` coalesces that to `[(0, A)]`, and so must the
        // maintained signal — or the integral splits at 5 s and the last
        // bit of the energy can flip.
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        m.begin_phase(t(0), JobPhase::Simulate);
        m.begin_phase(t(5), JobPhase::Idle);
        m.begin_phase(t(5), JobPhase::Simulate);
        assert_eq!(m.cage_meters()[0].true_signal().len(), 2);
        assert_eq!(m.cluster_meter().true_signal().len(), 1);
        assert_matches_oracle(
            Machine::caddy(IoWaitPolicy::BusyWait),
            IoWaitPolicy::BusyWait,
            &[
                (0, Op::Phase(JobPhase::Simulate)),
                (5_000_000, Op::Phase(JobPhase::Idle)),
                (0, Op::Phase(JobPhase::Simulate)),
                (0, Op::Phase(JobPhase::Visualize)),
                (9_000_000, Op::Finish),
            ],
        );
    }

    #[test]
    fn per_node_power_and_energy_do_not_depend_on_the_machine_size() {
        // What the remembered sums must preserve at sizes no golden pins:
        // a machine's energy per node is the same at every size (10 007 is
        // prime: 10 007 one-node cages), and a split phase reads the
        // closed form `(n − s)·p_compute + s·p_staged`.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let per_node_energy = |n: usize| {
            let mut m = Machine::caddy_scaled(n, IoWaitPolicy::BusyWait);
            m.begin_phase(t(0), JobPhase::Simulate);
            m.begin_phase(t(95), JobPhase::WriteOutput);
            m.begin_phase(t(103), JobPhase::Visualize);
            m.begin_phase(t(140), JobPhase::Simulate);
            m.finish(t(260));
            let energy = m.cluster_meter().profile(t(0), t(300)).energy();
            energy.joules() / n as f64
        };
        let reference = per_node_energy(150);
        for n in [150, 1_000, 10_000, 10_007, 100_000, 1_000_000] {
            let per_node = per_node_energy(n);
            assert!(
                close(per_node, reference),
                "{n} nodes: {per_node} J/node, 150 nodes: {reference} J/node"
            );
            let staging = n * 64 / 1000;
            let mut m = Machine::caddy_scaled(n, IoWaitPolicy::BusyWait);
            m.begin_split_phase(t(0), staging, JobPhase::Simulate, JobPhase::Visualize);
            let p = |phase: JobPhase| {
                let load = phase.load(IoWaitPolicy::BusyWait);
                m.node_model().power(load).watts()
            };
            let expect = (n - staging) as f64 * p(JobPhase::Simulate)
                + staging as f64 * p(JobPhase::Visualize);
            let metered = m.cluster_meter().true_signal().samples()[0].1;
            assert!(close(m.power_now().watts(), expect), "{n} nodes: power_now");
            assert!(close(metered, expect), "{n} nodes: first cluster sample");
        }
    }

    #[test]
    fn phase_power_table_is_the_node_model_bit_for_bit() {
        let models = [
            NodePowerModel::caddy(),
            NodePowerModel::caddy().calibrated(Watts(97.31), Watts(293.3)),
        ];
        for model in models {
            for policy in [IoWaitPolicy::BusyWait, IoWaitPolicy::DeepIdle] {
                let m = Machine::new(ClusterTopology::tiny(), model.clone(), policy);
                for (i, phase) in JobPhase::ALL.into_iter().enumerate() {
                    assert_eq!(phase.index(), i);
                    assert_eq!(
                        m.phase_power[i].watts().to_bits(),
                        model.power(phase.load(policy)).watts().to_bits(),
                        "{phase:?} under {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn machine_rejects_a_topology_without_cages() {
        let topology = ClusterTopology {
            num_cages: 0,
            ..ClusterTopology::caddy()
        };
        Machine::new(topology, NodePowerModel::caddy(), IoWaitPolicy::BusyWait);
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn machine_rejects_empty_cages() {
        let topology = ClusterTopology {
            nodes_per_cage: 0,
            ..ClusterTopology::caddy()
        };
        Machine::new(topology, NodePowerModel::caddy(), IoWaitPolicy::BusyWait);
    }

    #[test]
    #[should_panic(expected = "before the first observation")]
    fn power_noise_cannot_be_added_to_an_observed_machine() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        m.begin_phase(t(0), JobPhase::Simulate);
        let _ = m.with_power_noise(7, 0.01);
    }

    #[test]
    fn caddy_starts_at_idle_power() {
        let m = Machine::caddy(IoWaitPolicy::BusyWait);
        assert!((m.power_now().watts() - 15_000.0).abs() < 1.0);
    }

    #[test]
    fn phases_drive_power() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        m.begin_phase(t(0), JobPhase::Simulate);
        assert!((m.power_now().watts() - 44_000.0).abs() < 1.0);
        m.begin_phase(t(100), JobPhase::WriteOutput);
        // Busy-wait keeps power high.
        assert!(m.power_now().watts() > 0.8 * 44_000.0);
        m.finish(t(200));
        assert!((m.power_now().watts() - 15_000.0).abs() < 1.0);
    }

    #[test]
    fn deep_idle_policy_drops_io_power() {
        let mut busy = Machine::caddy(IoWaitPolicy::BusyWait);
        let mut deep = Machine::caddy(IoWaitPolicy::DeepIdle);
        busy.begin_phase(t(0), JobPhase::WriteOutput);
        deep.begin_phase(t(0), JobPhase::WriteOutput);
        assert!(
            deep.power_now().watts() < 0.6 * busy.power_now().watts(),
            "deep={} busy={}",
            deep.power_now(),
            busy.power_now()
        );
    }

    #[test]
    fn timeline_records_phases() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        m.begin_phase(t(0), JobPhase::Simulate);
        m.begin_phase(t(60), JobPhase::WriteOutput);
        m.begin_phase(t(90), JobPhase::Simulate);
        m.finish(t(150));
        let tl = m.timeline();
        assert_eq!(tl.records().len(), 3);
        assert_eq!(tl.time_in(JobPhase::Simulate), SimDuration::from_secs(120));
        assert_eq!(
            tl.time_in(JobPhase::WriteOutput),
            SimDuration::from_secs(30)
        );
    }

    #[test]
    fn cluster_meter_sums_cages() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        m.begin_phase(t(0), JobPhase::Simulate);
        m.finish(t(120));
        let meter = m.cluster_meter();
        let samples = meter.report(SimTime::ZERO, t(120));
        assert_eq!(samples.len(), 2);
        // Both minutes fully loaded: ~44 kW.
        assert!((samples[0].avg.watts() - 44_000.0).abs() < 1.0);
        assert_eq!(m.cage_meters().len(), 15);
    }

    #[test]
    fn meter_energy_matches_phase_arithmetic() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        m.begin_phase(t(0), JobPhase::Simulate);
        m.finish(t(600));
        let meter = m.cluster_meter();
        let e = meter.profile(SimTime::ZERO, t(600)).energy().joules();
        assert!((e - 44_000.0 * 600.0).abs() / e < 1e-6);
    }

    #[test]
    fn split_phase_powers_partitions_independently() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait);
        // 140 compute nodes simulate, 10 staging nodes idle.
        m.begin_split_phase(t(0), 10, JobPhase::Simulate, JobPhase::Idle);
        let loaded = m.node_model().loaded().watts();
        let idle = m.node_model().idle().watts();
        let expect = 140.0 * loaded + 10.0 * idle;
        assert!((m.power_now().watts() - expect).abs() < 1.0);
        // Staging renders while compute idles: different mix.
        m.begin_split_phase(t(60), 10, JobPhase::Idle, JobPhase::Visualize);
        assert!(m.power_now().watts() < expect);
        m.finish(t(120));
        // Timeline recorded the compute partition's phases.
        assert_eq!(
            m.timeline().time_in(JobPhase::Simulate),
            SimDuration::from_secs(60)
        );
        assert_eq!(
            m.timeline().time_in(JobPhase::Idle),
            SimDuration::from_secs(60)
        );
    }

    #[test]
    #[should_panic(expected = "staging partition must leave compute nodes")]
    fn split_phase_rejects_all_staging() {
        let mut m = Machine::new(
            ClusterTopology::tiny(),
            NodePowerModel::caddy(),
            IoWaitPolicy::BusyWait,
        );
        m.begin_split_phase(t(0), 4, JobPhase::Simulate, JobPhase::Idle);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let mut m = Machine::caddy(IoWaitPolicy::BusyWait).with_power_noise(7, 0.01);
        m.begin_phase(t(0), JobPhase::Simulate);
        m.finish(t(60));
        let p = m.cluster_meter().report(SimTime::ZERO, t(60))[0]
            .avg
            .watts();
        assert!((p - 44_000.0).abs() < 44_000.0 * 0.05);
        assert!((p - 44_000.0).abs() > 1e-9, "noise should perturb");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = || {
            let mut m = Machine::caddy(IoWaitPolicy::BusyWait).with_power_noise(99, 0.02);
            m.begin_phase(t(0), JobPhase::Simulate);
            m.finish(t(300));
            m.cluster_meter()
                .report(SimTime::ZERO, t(300))
                .iter()
                .map(|s| s.avg.watts())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
