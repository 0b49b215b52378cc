//! The parallel filesystem: namespace, capacity, MDS and OSS queueing.
//!
//! Operations are *timed*: every call takes the submission time and returns
//! the completion time, computed from the MDS FCFS queues and the OSS
//! processor-sharing bandwidth servers. The PFS also records every data
//! transfer so a Raritan-style rack meter trace can be reconstructed for any
//! window ([`ParallelFileSystem::rack_meter`]).
//!
//! ### Completion semantics
//!
//! [`ParallelFileSystem::write`] and [`ParallelFileSystem::read`] return the
//! time at which the operation completes **given the traffic submitted so
//! far**. Under processor sharing a *later* submission would extend earlier
//! jobs; the coupled pipelines in this workspace always submit I/O in
//! barrier-synchronized batches (all ranks write, then everyone waits), for
//! which these semantics are exact.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ivis_power::meter::MeteredPdu;
use ivis_sim::resource::{FairShareServer, FcfsServer};
use ivis_sim::{SimDuration, SimTime};

use crate::layout::StripeLayout;
use crate::power::StoragePowerModel;

/// Errors returned by filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// Not enough free capacity for the write.
    NoSpace {
        /// Bytes the operation needed.
        needed: u64,
        /// Bytes actually free.
        free: u64,
    },
    /// The path does not exist.
    NotFound(String),
    /// A transient I/O failure: the operation did not start and left no
    /// trace in the namespace or the queues — retrying it is safe. Raised
    /// by the fault-injection hooks
    /// ([`ParallelFileSystem::arm_transient_failures`]); a real deployment
    /// would surface dropped RPCs or OST evictions this way.
    Io {
        /// Which operation failed (`"write"` or `"read"`).
        op: &'static str,
        /// The path the operation targeted.
        path: String,
    },
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::NoSpace { needed, free } => {
                write!(f, "no space: need {needed} B, {free} B free")
            }
            PfsError::NotFound(p) => write!(f, "not found: {p}"),
            PfsError::Io { op, path } => write!(f, "transient I/O failure: {op} {path}"),
        }
    }
}

impl std::error::Error for PfsError {}

/// Static configuration of the storage cluster.
#[derive(Debug, Clone)]
pub struct PfsConfig {
    /// Number of object storage servers.
    pub num_oss: usize,
    /// Per-OSS bandwidth, bytes/second.
    pub oss_bandwidth_bps: f64,
    /// Number of metadata servers.
    pub num_mds: usize,
    /// Service time of one metadata operation (create/open).
    pub mds_op_time: SimDuration,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Default striping for new files.
    pub stripe: StripeLayout,
    /// Rack power model.
    pub power: StoragePowerModel,
}

impl PfsConfig {
    /// The paper's Lustre rack: 2 OSS sharing ≈159 MB/s aggregate (the
    /// effective rate implied by the calibrated α = 6.3 s/GB), 2 MDS,
    /// 7.7 TB, 1 MiB striping, and the measured 2273→2302 W power curve.
    pub fn caddy_lustre() -> Self {
        // α = 6.3 s/GB ⇒ 1e9 / 6.3 ≈ 158.73 MB/s aggregate.
        let aggregate_bps = 1e9 / 6.3;
        PfsConfig {
            num_oss: 2,
            oss_bandwidth_bps: aggregate_bps / 2.0,
            num_mds: 2,
            mds_op_time: SimDuration::from_millis(1),
            capacity_bytes: 7_700_000_000_000,
            stripe: StripeLayout::lustre_default(2),
            power: StoragePowerModel::paper_lustre_rack(),
        }
    }

    /// Aggregate bandwidth across all OSS.
    pub fn aggregate_bandwidth_bps(&self) -> f64 {
        self.oss_bandwidth_bps * self.num_oss as f64
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from the state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The namespace's hasher: the FNV-1a that places a path on its MDS. It
/// has no per-process seed, so the map is the same in every run.
#[derive(Debug, Clone, Copy)]
struct PathHasher(u64);

impl Default for PathHasher {
    fn default() -> Self {
        PathHasher(FNV_OFFSET)
    }
}

impl Hasher for PathHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One recorded data transfer (for power reconstruction).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    start: SimTime,
    end: SimTime,
}

/// The simulated parallel filesystem.
#[derive(Debug, Clone)]
pub struct ParallelFileSystem {
    config: PfsConfig,
    oss: Vec<FairShareServer>,
    mds: Vec<FcfsServer>,
    /// Path → size in bytes, hashed with FNV-1a. Nothing iterates it, so
    /// the hash moves no output; a write looks its path up once, and only
    /// a new file allocates its key.
    files: HashMap<String, u64, BuildHasherDefault<PathHasher>>,
    used: u64,
    transfers: Vec<Transfer>,
    /// Current OSS bandwidth derating (fault injection; 1.0 = nominal).
    oss_scale: f64,
    /// Extra latency added to every metadata operation (fault injection).
    mds_surcharge: SimDuration,
    /// Capacity withheld from [`free_bytes`](Self::free_bytes) to model
    /// full-disk pressure (fault injection).
    reserved: u64,
    /// Pending injected transient failures (fault injection).
    armed_failures: u32,
}

impl ParallelFileSystem {
    /// Create a filesystem from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero servers or bandwidth.
    pub fn new(config: PfsConfig) -> Self {
        assert!(config.num_oss > 0, "need at least one OSS");
        assert!(config.num_mds > 0, "need at least one MDS");
        let oss = (0..config.num_oss)
            .map(|_| FairShareServer::new(config.oss_bandwidth_bps))
            .collect();
        let mds = (0..config.num_mds).map(|_| FcfsServer::new()).collect();
        ParallelFileSystem {
            config,
            oss,
            mds,
            files: HashMap::default(),
            used: 0,
            transfers: Vec::new(),
            oss_scale: 1.0,
            mds_surcharge: SimDuration::ZERO,
            reserved: 0,
            armed_failures: 0,
        }
    }

    /// The paper's rack, ready to use.
    pub fn caddy_lustre() -> Self {
        ParallelFileSystem::new(PfsConfig::caddy_lustre())
    }

    /// The active configuration.
    pub fn config(&self) -> &PfsConfig {
        &self.config
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes still free (net of any reserved full-disk-pressure capacity).
    pub fn free_bytes(&self) -> u64 {
        (self.config.capacity_bytes - self.used).saturating_sub(self.reserved)
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks (driven by `ivis-fault`). All of them default
    // to the nominal, no-fault behavior and leave every other code path
    // untouched, so a filesystem with no hooks engaged is bit-identical
    // to one that never heard of faults.
    // ------------------------------------------------------------------

    /// Derate (or restore) every OSS to `scale ×` its configured bandwidth
    /// at time `now` — an OSS bandwidth *brownout*. Exact under processor
    /// sharing: work served before `now` is unaffected, everything still
    /// queued drains at the new rate. `scale = 1.0` restores nominal.
    ///
    /// # Panics
    /// Panics if `scale` is not finite and positive.
    pub fn set_oss_bandwidth_scale(&mut self, now: SimTime, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "bandwidth scale must be positive, got {scale}"
        );
        if scale == self.oss_scale {
            return;
        }
        for oss in &mut self.oss {
            oss.set_capacity(now, self.config.oss_bandwidth_bps * scale);
        }
        self.oss_scale = scale;
    }

    /// The OSS bandwidth derating currently in force (1.0 = nominal).
    pub fn oss_bandwidth_scale(&self) -> f64 {
        self.oss_scale
    }

    /// Add `surcharge` to the service time of every subsequent metadata
    /// operation — an MDS stall. [`SimDuration::ZERO`] restores nominal.
    pub fn set_mds_surcharge(&mut self, surcharge: SimDuration) {
        self.mds_surcharge = surcharge;
    }

    /// The extra metadata latency currently in force.
    pub fn mds_surcharge(&self) -> SimDuration {
        self.mds_surcharge
    }

    /// Withhold `bytes` of capacity from [`free_bytes`](Self::free_bytes)
    /// — full-disk pressure (e.g. a neighboring tenant filling the rack).
    /// Writes that no longer fit fail with [`PfsError::NoSpace`]; existing
    /// files are untouched. Zero restores nominal.
    pub fn set_reserved_bytes(&mut self, bytes: u64) {
        self.reserved = bytes;
    }

    /// Capacity currently withheld by full-disk pressure.
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved
    }

    /// Arm the next `n` data operations (`write` or `read`) to fail with [`PfsError::Io`] *before* mutating any
    /// state — the failed operation consumes no capacity, creates no file
    /// and queues no transfer, so retrying it is always safe.
    pub fn arm_transient_failures(&mut self, n: u32) {
        self.armed_failures += n;
    }

    /// Injected failures still pending.
    #[cfg(test)]
    fn armed_failures(&self) -> u32 {
        self.armed_failures
    }

    /// Consume one armed failure, if any: the entry gate of every data op.
    fn take_armed(&mut self, op: &'static str, path: &str) -> Result<(), PfsError> {
        if self.armed_failures > 0 {
            self.armed_failures -= 1;
            return Err(PfsError::Io {
                op,
                path: path.to_string(),
            });
        }
        Ok(())
    }

    /// Number of files present.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Size of `path` in bytes.
    pub fn size_of(&self, path: &str) -> Result<u64, PfsError> {
        self.files
            .get(path)
            .copied()
            .ok_or_else(|| PfsError::NotFound(path.to_string()))
    }

    fn mds_for(&self, path: &str) -> usize {
        (fnv1a(FNV_OFFSET, path.as_bytes()) % self.config.num_mds as u64) as usize
    }

    /// Enter the absent `path` at `size` bytes: the file's one metadata
    /// operation and its one key allocation. Returns when the metadata
    /// operation completes.
    fn create(&mut self, now: SimTime, path: &str, size: u64) -> SimTime {
        let mds = self.mds_for(path);
        let service = self.config.mds_op_time + self.mds_surcharge;
        let done = self.mds[mds].submit(now, service);
        self.files.insert(path.to_owned(), size);
        done
    }

    /// Append `bytes` to `path` (creating it if absent), returning the time
    /// the data is durable on the OSTs.
    ///
    /// The path is looked up once. An existing file grows in place; a new
    /// one pays its metadata operation first ([`PfsConfig::mds_op_time`]
    /// plus any MDS surcharge), and its data starts when that completes.
    pub fn write(&mut self, now: SimTime, path: &str, bytes: u64) -> Result<SimTime, PfsError> {
        self.take_armed("write", path)?;
        let free = self.free_bytes();
        if bytes > free {
            return Err(PfsError::NoSpace {
                needed: bytes,
                free,
            });
        }
        let (offset, start) = match self.files.get_mut(path) {
            Some(size) => {
                let offset = *size;
                *size += bytes;
                (offset, now)
            }
            None => (0, self.create(now, path, bytes)),
        };
        self.used += bytes;
        if bytes == 0 {
            return Ok(start);
        }
        Ok(self.transfer(start, offset, bytes))
    }

    /// Read the whole of `path`, returning the completion time.
    pub fn read(&mut self, now: SimTime, path: &str) -> Result<SimTime, PfsError> {
        self.take_armed("read", path)?;
        let size = self.size_of(path)?;
        if size == 0 {
            return Ok(now);
        }
        Ok(self.transfer(now, 0, size))
    }

    /// Move bytes `[offset, offset+len)` of a file from `start`: each
    /// OST's share is one submission to its OSS, in OST order. Records the
    /// transfer and returns when the last OSS drains.
    fn transfer(&mut self, start: SimTime, offset: u64, len: u64) -> SimTime {
        let stripe = self.config.stripe;
        let mut done = start;
        for ost in 0..stripe.stripe_count {
            let b = stripe.bytes_on(ost, offset, len);
            if b == 0 {
                continue;
            }
            self.oss[ost].submit(start, b as f64);
            done = done.max(self.oss[ost].drained_at());
        }
        self.transfers.push(Transfer { start, end: done });
        done
    }

    /// Delete a file, freeing its space. Metadata-only cost.
    pub fn delete(&mut self, now: SimTime, path: &str) -> Result<SimTime, PfsError> {
        let size = self
            .files
            .remove(path)
            .ok_or_else(|| PfsError::NotFound(path.to_string()))?;
        self.used -= size;
        let mds = self.mds_for(path);
        let done = self.mds[mds].submit(now, self.config.mds_op_time);
        Ok(done)
    }

    /// Seconds of already-queued write/read work remaining at `now`: the
    /// drain horizon of the most-backlogged OSS. Zero when every transfer
    /// submitted so far has completed — e.g. after a synchronous
    /// [`ParallelFileSystem::write`] returns. Non-zero while a burst
    /// buffer drains in the background.
    pub fn queued_write_seconds(&self, now: SimTime) -> f64 {
        self.oss
            .iter()
            .map(|o| {
                let drained = o.drained_at();
                if drained > now {
                    (drained - now).as_secs_f64()
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of OSS with transfers still in flight at `now` — the
    /// instantaneous bandwidth-utilization gauge exported to the tracer.
    pub fn bandwidth_utilization(&self, now: SimTime) -> f64 {
        let busy = self.oss.iter().filter(|o| o.drained_at() > now).count();
        busy as f64 / self.oss.len() as f64
    }

    /// Number of object-transfer records accumulated so far.
    #[cfg(test)]
    fn transfer_count(&self) -> usize {
        self.transfers.len()
    }

    /// Reconstruct the rack's power meter: full-load power while any
    /// transfer is in flight, idle power otherwise, averaged per minute
    /// exactly like the Raritan PDU (apply a window via
    /// [`MeteredPdu::report`]).
    pub fn rack_meter(&self) -> MeteredPdu {
        let mut meter = MeteredPdu::raritan_rack("lustre-rack", self.config.power.idle());
        // Sweep the union of transfer intervals.
        let mut events: Vec<(SimTime, i32)> = Vec::with_capacity(self.transfers.len() * 2);
        for tr in &self.transfers {
            events.push((tr.start, 1));
            events.push((tr.end, -1));
        }
        events.sort_by_key(|e| (e.0, -e.1));
        let mut depth = 0;
        for (t, delta) in events {
            let was_busy = depth > 0;
            depth += delta;
            let is_busy = depth > 0;
            if was_busy != is_busy {
                let u = if is_busy { 1.0 } else { 0.0 };
                meter.observe(t, self.config.power.power(u));
            }
        }
        meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_power::units::Watts;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn test_config() -> PfsConfig {
        PfsConfig {
            num_oss: 2,
            oss_bandwidth_bps: 50.0, // 100 B/s aggregate: easy arithmetic
            num_mds: 2,
            mds_op_time: SimDuration::ZERO,
            capacity_bytes: 10_000,
            stripe: StripeLayout::new(10, 2),
            power: StoragePowerModel::paper_lustre_rack(),
        }
    }

    #[test]
    fn write_time_matches_bandwidth() {
        let mut fs = ParallelFileSystem::new(test_config());
        // 1000 B striped evenly over 2 OSS at 50 B/s each => 10 s.
        let done = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        assert_eq!(done, t(10));
        assert_eq!(fs.used_bytes(), 1000);
        assert_eq!(fs.size_of("/a").unwrap(), 1000);
    }

    #[test]
    fn observability_gauges_track_backlog() {
        let mut fs = ParallelFileSystem::new(test_config());
        assert_eq!(fs.queued_write_seconds(SimTime::ZERO), 0.0);
        assert_eq!(fs.bandwidth_utilization(SimTime::ZERO), 0.0);
        assert_eq!(fs.transfer_count(), 0);
        // 1000 B striped over 2 OSS at 50 B/s each => drains at t = 10 s.
        let done = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        assert_eq!(done, t(10));
        // Mid-flight (from the gauges' point of view) the backlog is visible.
        assert_eq!(fs.bandwidth_utilization(t(4)), 1.0);
        assert!((fs.queued_write_seconds(t(4)) - 6.0).abs() < 1e-9);
        // Once the transfer drains, both gauges return to zero.
        assert_eq!(fs.queued_write_seconds(done), 0.0);
        assert_eq!(fs.bandwidth_utilization(done), 0.0);
        assert_eq!(fs.transfer_count(), 1);
    }

    #[test]
    fn caddy_write_matches_alpha() {
        let mut fs = ParallelFileSystem::caddy_lustre();
        // 1 GB should take ~6.3 s (the calibrated α) plus 1 ms MDS time.
        let done = fs.write(SimTime::ZERO, "/out.nc", 1_000_000_000).unwrap();
        let secs = done.as_secs_f64();
        assert!((secs - 6.301).abs() < 0.01, "1 GB write took {secs}");
    }

    #[test]
    fn no_space_is_reported_not_partially_applied() {
        let mut fs = ParallelFileSystem::new(test_config());
        fs.write(SimTime::ZERO, "/a", 9_000).unwrap();
        let err = fs.write(t(100), "/b", 2_000).unwrap_err();
        assert_eq!(
            err,
            PfsError::NoSpace {
                needed: 2_000,
                free: 1_000
            }
        );
        assert_eq!(fs.used_bytes(), 9_000);
        assert!(fs.size_of("/b").is_err());
    }

    #[test]
    fn read_missing_file_fails() {
        let mut fs = ParallelFileSystem::new(test_config());
        assert!(matches!(fs.read(t(0), "/nope"), Err(PfsError::NotFound(_))));
    }

    #[test]
    fn read_takes_symmetric_time() {
        let mut fs = ParallelFileSystem::new(test_config());
        let wrote = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        let read_done = fs.read(wrote, "/a").unwrap();
        assert_eq!(read_done - wrote, SimDuration::from_secs(10));
        assert_eq!(fs.transfer_count(), 2);
    }

    #[test]
    fn delete_frees_space() {
        let mut fs = ParallelFileSystem::new(test_config());
        fs.write(SimTime::ZERO, "/a", 4_000).unwrap();
        fs.delete(t(100), "/a").unwrap();
        assert_eq!(fs.used_bytes(), 0);
        assert!(fs.size_of("/a").is_err());
        assert!(matches!(
            fs.delete(t(101), "/a"),
            Err(PfsError::NotFound(_))
        ));
    }

    #[test]
    fn mds_latency_delays_first_byte() {
        let mut cfg = test_config();
        cfg.mds_op_time = SimDuration::from_secs(1);
        let mut fs = ParallelFileSystem::new(cfg);
        let done = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        assert_eq!(done, t(11)); // 1 s create + 10 s data
    }

    #[test]
    fn rack_meter_shows_flat_power() {
        let mut fs = ParallelFileSystem::new(test_config());
        let _done = fs.write(SimTime::ZERO, "/a", 6_000).unwrap(); // 60 s busy
        let meter = fs.rack_meter();
        let samples = meter.report(SimTime::ZERO, t(120));
        assert_eq!(samples.len(), 2);
        // Busy minute: 2302 W; idle minute: 2273 W.
        assert!((samples[0].avg.watts() - 2302.0).abs() < 1e-6);
        assert!((samples[1].avg.watts() - 2273.0).abs() < 1e-6);
        // Dynamic range stays tiny — the paper's point.
        let range = samples[0].avg - samples[1].avg;
        assert!(range < Watts(30.0));
    }

    #[test]
    fn overlapping_transfers_share_bandwidth() {
        let mut fs = ParallelFileSystem::new(test_config());
        // Two 1000-B writes submitted together: 2000 B at 100 B/s => 20 s.
        let d1 = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        let d2 = fs.write(SimTime::ZERO, "/b", 1000).unwrap();
        assert_eq!(d1.max(d2), t(20));
    }

    #[test]
    fn oss_brownout_slows_inflight_and_new_writes() {
        let mut fs = ParallelFileSystem::new(test_config());
        // 1000 B at 100 B/s aggregate would finish at t=10; halving the
        // bandwidth at t=4 leaves 600 B at 50 B/s => done at t=16.
        fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        fs.set_oss_bandwidth_scale(t(4), 0.5);
        assert!((fs.queued_write_seconds(t(4)) - 12.0).abs() < 1e-9);
        // A later write queues behind the derated drain.
        let done = fs.write(t(16), "/b", 500).unwrap();
        assert_eq!(done, t(26)); // 500 B at 50 B/s
                                 // Restoring the scale recovers nominal service.
        fs.set_oss_bandwidth_scale(t(26), 1.0);
        let done = fs.write(t(26), "/c", 1000).unwrap();
        assert_eq!(done, t(36));
        assert_eq!(fs.oss_bandwidth_scale(), 1.0);
    }

    #[test]
    fn mds_stall_surcharges_metadata_ops() {
        let mut fs = ParallelFileSystem::new(test_config());
        fs.set_mds_surcharge(SimDuration::from_secs(3));
        // Data time is 10 s; the create now costs 3 s up front.
        let done = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        assert_eq!(done, t(13));
        fs.set_mds_surcharge(SimDuration::ZERO);
        // Appends skip the create; no surcharge applies.
        let done = fs.write(done, "/a", 1000).unwrap();
        assert_eq!(done, t(23));
    }

    #[test]
    fn disk_pressure_reserves_capacity() {
        let mut fs = ParallelFileSystem::new(test_config());
        fs.set_reserved_bytes(9_500);
        assert_eq!(fs.free_bytes(), 500);
        let err = fs.write(SimTime::ZERO, "/a", 1_000).unwrap_err();
        assert_eq!(
            err,
            PfsError::NoSpace {
                needed: 1_000,
                free: 500
            }
        );
        fs.set_reserved_bytes(0);
        fs.write(SimTime::ZERO, "/a", 1_000).unwrap();
        assert_eq!(fs.used_bytes(), 1_000);
    }

    #[test]
    fn armed_failure_fails_cleanly_then_clears() {
        let mut fs = ParallelFileSystem::new(test_config());
        fs.arm_transient_failures(1);
        let err = fs.write(SimTime::ZERO, "/a", 1000).unwrap_err();
        assert_eq!(
            err,
            PfsError::Io {
                op: "write",
                path: "/a".to_string()
            }
        );
        // Nothing happened: no file, no space, no transfer queued.
        assert!(fs.size_of("/a").is_err());
        assert_eq!(fs.used_bytes(), 0);
        assert_eq!(fs.transfer_count(), 0);
        assert_eq!(fs.armed_failures(), 0);
        // The retry succeeds at full speed.
        let done = fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        assert_eq!(done, t(10));
    }

    #[test]
    fn armed_failure_fails_reads_too() {
        let mut fs = ParallelFileSystem::new(test_config());
        fs.write(SimTime::ZERO, "/a", 1000).unwrap();
        fs.arm_transient_failures(1);
        assert!(matches!(
            fs.read(t(10), "/a"),
            Err(PfsError::Io { op: "read", .. })
        ));
        assert_eq!(fs.transfer_count(), 1, "failed read moves no bytes");
        fs.read(t(10), "/a").unwrap();
        assert_eq!(fs.transfer_count(), 2);
    }

    #[test]
    fn zero_byte_write_is_metadata_only() {
        let mut fs = ParallelFileSystem::new(test_config());
        let done = fs.write(t(5), "/empty", 0).unwrap();
        assert_eq!(done, t(5));
        assert_eq!(fs.size_of("/empty").unwrap(), 0);
    }
}
