//! An NVRAM burst-buffer tier in front of the parallel filesystem.
//!
//! The paper's related work (Gamell et al., deep memory hierarchies)
//! explores absorbing checkpoint/analysis output in node-local NVRAM and
//! draining it to the parallel filesystem asynchronously. This module models
//! that tier: writes complete at NVRAM speed if the buffer has room, and the
//! buffered data drains through the (slow) Lustre model in the background.
//! The `ablation_burst_buffer` experiment uses it to ask: *does a burst
//! buffer rescue post-processing?* (Answer: it hides the write latency while
//! the buffer lasts, but the storage footprint — and the eventual drain — is
//! unchanged, so the in-situ advantage in capacity and energy persists.)

use ivis_sim::{SimDuration, SimTime};

use crate::pfs::{ParallelFileSystem, PfsError};

/// Burst-buffer configuration.
#[derive(Debug, Clone)]
pub struct BurstBufferConfig {
    /// NVRAM capacity, bytes.
    pub capacity_bytes: u64,
    /// Absorb (client→NVRAM) bandwidth, bytes/s.
    pub absorb_bandwidth_bps: f64,
}

impl BurstBufferConfig {
    /// A modest 2 TB tier absorbing at 10 GB/s.
    pub fn two_tb_nvram() -> Self {
        BurstBufferConfig {
            capacity_bytes: 2_000_000_000_000,
            absorb_bandwidth_bps: 1.0e10,
        }
    }
}

/// One in-flight drain.
#[derive(Debug, Clone, Copy)]
struct Drain {
    completes_at: SimTime,
    bytes: u64,
}

/// The burst buffer, bound to a backing filesystem at call time.
#[derive(Debug, Clone)]
pub struct BurstBuffer {
    config: BurstBufferConfig,
    drains: Vec<Drain>,
}

impl BurstBuffer {
    /// Create an empty buffer.
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn new(config: BurstBufferConfig) -> Self {
        assert!(config.capacity_bytes > 0, "capacity must be positive");
        assert!(
            config.absorb_bandwidth_bps > 0.0,
            "absorb bandwidth must be positive"
        );
        BurstBuffer {
            config,
            drains: Vec::new(),
        }
    }

    /// Bytes still occupied (absorbed but not yet drained) at `now`.
    pub(crate) fn occupied_at(&self, now: SimTime) -> u64 {
        self.drains
            .iter()
            .filter(|d| d.completes_at > now)
            .map(|d| d.bytes)
            .sum()
    }

    /// Free NVRAM at `now`.
    pub(crate) fn free_at(&self, now: SimTime) -> u64 {
        self.config.capacity_bytes - self.occupied_at(now)
    }

    /// When the last scheduled drain finishes (or `now` if none pending).
    pub fn drained_at(&self, now: SimTime) -> SimTime {
        self.drains
            .iter()
            .map(|d| d.completes_at)
            .max()
            .map_or(now, |t| t.max(now))
    }

    /// Write `bytes` to `path` through the buffer at `now`, draining to
    /// `fs` in the background.
    ///
    /// Returns the time the *caller* is unblocked (absorb completion) — the
    /// drain proceeds asynchronously and its completion is visible through
    /// [`drained_at`](Self::drained_at). Writes larger than the whole buffer
    /// bypass it and go straight to the filesystem.
    ///
    /// Callers write at non-decreasing times, so a drain that has landed by
    /// `now` counts in no later `occupied_at` or `drained_at` and is dropped
    /// here: the buffer holds only the drains still in flight.
    pub fn write(
        &mut self,
        fs: &mut ParallelFileSystem,
        now: SimTime,
        path: &str,
        bytes: u64,
    ) -> Result<SimTime, PfsError> {
        self.drains.retain(|d| d.completes_at > now);
        if bytes > self.config.capacity_bytes {
            return fs.write(now, path, bytes);
        }
        // Wait (if needed) until enough earlier data has drained.
        let mut start = now;
        if bytes > self.free_at(start) {
            let mut deadlines: Vec<SimTime> = self.drains.iter().map(|d| d.completes_at).collect();
            deadlines.sort_unstable();
            for t in deadlines {
                if bytes <= self.free_at(t) {
                    start = t;
                    break;
                }
            }
            debug_assert!(
                bytes <= self.free_at(start),
                "free space must open once all drains land"
            );
        }
        let absorb_done =
            start + SimDuration::from_secs_f64(bytes as f64 / self.config.absorb_bandwidth_bps);
        // The drain begins once the data is in NVRAM; the PFS write models
        // the back-end transfer and capacity accounting.
        let drain_done = fs.write(absorb_done, path, bytes)?;
        self.drains.push(Drain {
            completes_at: drain_done,
            bytes,
        });
        Ok(absorb_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StripeLayout;
    use crate::pfs::PfsConfig;
    use crate::power::StoragePowerModel;

    fn slow_fs() -> ParallelFileSystem {
        // 100 B/s backing store, tiny MDS cost.
        ParallelFileSystem::new(PfsConfig {
            num_oss: 2,
            oss_bandwidth_bps: 50.0,
            num_mds: 1,
            mds_op_time: SimDuration::ZERO,
            capacity_bytes: 1_000_000,
            stripe: StripeLayout::new(10, 2),
            power: StoragePowerModel::paper_lustre_rack(),
        })
    }

    fn bb(capacity: u64, absorb: f64) -> BurstBuffer {
        BurstBuffer::new(BurstBufferConfig {
            capacity_bytes: capacity,
            absorb_bandwidth_bps: absorb,
        })
    }

    #[test]
    fn absorb_is_fast_drain_is_slow() {
        let mut fs = slow_fs();
        let mut buf = bb(10_000, 1_000.0);
        let unblocked = buf.write(&mut fs, SimTime::ZERO, "/a", 1_000).unwrap();
        // Caller unblocked after 1 s (1000 B at 1000 B/s)...
        assert_eq!(unblocked, SimTime::from_secs(1));
        // ...but the backing store needs 10 more seconds.
        assert_eq!(buf.drained_at(unblocked), SimTime::from_secs(11));
        assert_eq!(fs.size_of("/a").unwrap(), 1_000);
    }

    #[test]
    fn occupancy_tracks_drains() {
        let mut fs = slow_fs();
        let mut buf = bb(10_000, 1_000.0);
        buf.write(&mut fs, SimTime::ZERO, "/a", 1_000).unwrap();
        assert_eq!(buf.occupied_at(SimTime::from_secs(5)), 1_000);
        assert_eq!(buf.occupied_at(SimTime::from_secs(12)), 0);
        assert_eq!(buf.free_at(SimTime::from_secs(5)), 9_000);
    }

    #[test]
    fn full_buffer_stalls_the_writer() {
        let mut fs = slow_fs();
        let mut buf = bb(1_000, 1_000_000.0); // absorbs instantly, tiny capacity
                                              // First write fills the buffer; drains at 100 B/s ⇒ done at t=10.
        let t1 = buf.write(&mut fs, SimTime::ZERO, "/a", 1_000).unwrap();
        assert!(t1.as_secs_f64() < 0.01);
        // Second write must wait for the drain to free space.
        let t2 = buf.write(&mut fs, t1, "/b", 1_000).unwrap();
        assert!(
            t2 >= SimTime::from_secs(10),
            "writer should stall until the drain lands: {t2}"
        );
    }

    #[test]
    fn oversized_write_bypasses_buffer() {
        let mut fs = slow_fs();
        let mut buf = bb(500, 1e9);
        let done = buf.write(&mut fs, SimTime::ZERO, "/big", 1_000).unwrap();
        // Straight to the 100 B/s store: 10 s, and no NVRAM occupancy.
        assert_eq!(done, SimTime::from_secs(10));
        assert_eq!(buf.occupied_at(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn backing_capacity_errors_propagate() {
        let mut fs = slow_fs();
        let mut buf = bb(1_000_000, 1e9);
        // The PFS holds 1 MB; first fill it, then overflow through the buffer.
        buf.write(&mut fs, SimTime::ZERO, "/a", 900_000).unwrap();
        let err = buf
            .write(&mut fs, SimTime::from_secs(1), "/b", 200_000)
            .unwrap_err();
        assert!(matches!(err, PfsError::NoSpace { .. }));
    }

    #[test]
    fn burst_of_writes_amortizes() {
        // Ten bursts that individually fit: caller sees only absorb time as
        // long as the aggregate stays under capacity.
        let mut fs = slow_fs();
        let mut buf = bb(100_000, 10_000.0);
        let mut now = SimTime::ZERO;
        for k in 0..10 {
            now = buf.write(&mut fs, now, &format!("/f{k}"), 1_000).unwrap();
        }
        // 10 kB at 10 kB/s absorb = 1 s of caller-visible time.
        assert!((now.as_secs_f64() - 1.0).abs() < 0.01, "now = {now}");
        // Backing store needs 100 s total.
        assert!(buf.drained_at(now) >= SimTime::from_secs(100));
    }

    #[test]
    fn landed_drains_are_dropped() {
        // 10 B at 1 kB/s absorbs in 10 ms and drains through one 50 B/s
        // OSS by 210 ms; each write comes 1 s after the previous one.
        let mut fs = slow_fs();
        let mut buf = bb(10_000, 1_000.0);
        for k in 0..1_000 {
            let now = SimTime::from_secs(k);
            buf.write(&mut fs, now, &format!("/f{k}"), 10).unwrap();
            assert!(buf.drains.len() <= 1, "{} drains held", buf.drains.len());
            assert_eq!(buf.occupied_at(now), 10);
        }
    }

    #[test]
    fn armed_failure_propagates_without_absorbing() {
        let mut fs = slow_fs();
        let mut buf = bb(10_000, 1_000.0);
        fs.arm_transient_failures(1);
        let err = buf.write(&mut fs, SimTime::ZERO, "/a", 1_000).unwrap_err();
        assert!(matches!(err, PfsError::Io { .. }));
        // The failed write left no drain and absorbed nothing, so a retry
        // behaves exactly like a first attempt.
        assert_eq!(buf.occupied_at(SimTime::from_secs(5)), 0);
        let unblocked = buf.write(&mut fs, SimTime::ZERO, "/a", 1_000).unwrap();
        assert_eq!(unblocked, SimTime::from_secs(1));
        assert_eq!(fs.size_of("/a").unwrap(), 1_000);
    }

    #[test]
    fn brownout_slows_the_background_drain_not_the_absorb() {
        let mut fs = slow_fs();
        let mut buf = bb(10_000, 1_000.0);
        fs.set_oss_bandwidth_scale(SimTime::ZERO, 0.5);
        let unblocked = buf.write(&mut fs, SimTime::ZERO, "/a", 1_000).unwrap();
        // NVRAM absorb is unaffected by the OSS brownout...
        assert_eq!(unblocked, SimTime::from_secs(1));
        // ...but the 10 s backing drain doubles to 20 s (done at t = 21).
        assert_eq!(buf.drained_at(unblocked), SimTime::from_secs(21));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BurstBuffer::new(BurstBufferConfig {
            capacity_bytes: 0,
            absorb_bandwidth_bps: 1.0,
        });
    }
}
