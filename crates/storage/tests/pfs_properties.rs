//! Property-based tests of the parallel-filesystem model: random operation
//! sequences must preserve the accounting invariants no matter how they
//! interleave, and must behave exactly as the write path did before it
//! looked each path up once (`OldPfs`).

use std::collections::HashMap;

use ivis_sim::resource::{FairShareServer, FcfsServer};
use ivis_sim::{SimDuration, SimTime};
use ivis_storage::layout::StripeLayout;
use ivis_storage::pfs::{ParallelFileSystem, PfsConfig, PfsError};
use ivis_storage::StoragePowerModel;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write { file: u8, bytes: u32 },
    Read { file: u8 },
    Delete { file: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 1u32..200_000).prop_map(|(file, bytes)| Op::Write { file, bytes }),
        (0u8..8).prop_map(|file| Op::Read { file }),
        (0u8..8).prop_map(|file| Op::Delete { file }),
    ]
}

fn small_fs() -> ParallelFileSystem {
    ParallelFileSystem::new(PfsConfig {
        num_oss: 2,
        oss_bandwidth_bps: 1.0e6,
        num_mds: 2,
        mds_op_time: SimDuration::from_millis(1),
        capacity_bytes: 1_000_000, // 1 MB so NoSpace paths get exercised
        stripe: StripeLayout::new(4_096, 2),
        power: StoragePowerModel::paper_lustre_rack(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accounting_invariants_hold_under_random_ops(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut fs = small_fs();
        let mut now = SimTime::ZERO;
        // Shadow model: file -> size.
        let mut shadow: std::collections::HashMap<u8, u64> = std::collections::HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            now += SimDuration::from_millis(i as u64 + 1);
            match op {
                Op::Write { file, bytes } => {
                    let path = format!("/f{file}");
                    match fs.write(now, &path, *bytes as u64) {
                        Ok(done) => {
                            prop_assert!(done >= now, "completion before submission");
                            *shadow.entry(*file).or_insert(0) += *bytes as u64;
                            now = done;
                        }
                        Err(PfsError::NoSpace { needed, free }) => {
                            prop_assert_eq!(needed, *bytes as u64);
                            prop_assert!(free < *bytes as u64);
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::Read { file } => {
                    let path = format!("/f{file}");
                    match fs.read(now, &path) {
                        Ok(done) => {
                            prop_assert!(shadow.contains_key(file));
                            prop_assert!(done >= now);
                            now = done;
                        }
                        Err(PfsError::NotFound(_)) => {
                            prop_assert!(!shadow.contains_key(file));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::Delete { file } => {
                    let path = format!("/f{file}");
                    match fs.delete(now, &path) {
                        Ok(_) => {
                            prop_assert!(shadow.remove(file).is_some());
                        }
                        Err(PfsError::NotFound(_)) => {
                            prop_assert!(!shadow.contains_key(file));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
            }
            // Core invariants after every operation.
            let expected_used: u64 = shadow.values().sum();
            prop_assert_eq!(fs.used_bytes(), expected_used);
            prop_assert_eq!(fs.num_files(), shadow.len());
            prop_assert!(fs.used_bytes() <= fs.config().capacity_bytes);
            prop_assert_eq!(
                fs.free_bytes(),
                fs.config().capacity_bytes - expected_used
            );
        }
        // Per-file sizes match the shadow model at the end.
        for (file, size) in &shadow {
            prop_assert_eq!(fs.size_of(&format!("/f{file}")).unwrap(), *size);
        }
    }

    #[test]
    fn rack_meter_power_always_within_band(ops in prop::collection::vec((1u32..500_000, 1u64..100), 1..30)) {
        let mut fs = small_fs();
        let mut now = SimTime::ZERO;
        for (i, (bytes, gap)) in ops.iter().enumerate() {
            now += SimDuration::from_millis(*gap);
            if let Ok(done) = fs.write(now, &format!("/w{i}"), *bytes as u64) {
                now = done;
            }
        }
        let meter = fs.rack_meter();
        for s in meter.report(SimTime::ZERO, now + SimDuration::from_mins(2)) {
            prop_assert!(
                s.avg.watts() >= 2273.0 - 1e-9 && s.avg.watts() <= 2302.0 + 1e-9,
                "rack power {} outside its physical band",
                s.avg
            );
        }
    }

    #[test]
    fn write_time_matches_striping_exactly(bytes in 10_000u64..500_000) {
        // The completion time is governed by the most-loaded OST under the
        // configured striping (plus the 1 ms MDS term) — check it exactly,
        // including the stripe-granularity imbalance.
        let mut fs = small_fs();
        let done = fs.write(SimTime::ZERO, "/a", bytes).unwrap();
        let per_ost = StripeLayout::new(4_096, 2).distribute(0, bytes);
        let max_ost = *per_ost.iter().max().unwrap() as f64;
        let expected = 0.001 + max_ost / 1.0e6;
        prop_assert!(
            (done.as_secs_f64() - expected).abs() < 1e-5,
            "done {} vs expected {expected}",
            done.as_secs_f64()
        );
    }
}

/// The filesystem as it was before a write looked its path up once: a
/// SipHash namespace, `contains_key` then a create that checks again and
/// inserts an empty file, `get_mut` to grow it, and a `Vec` per write for
/// the per-OST split. Only what the differential test drives is kept.
struct OldPfs {
    config: PfsConfig,
    oss: Vec<FairShareServer>,
    mds: Vec<FcfsServer>,
    files: HashMap<String, u64>,
    used: u64,
    mds_surcharge: SimDuration,
    reserved: u64,
    armed_failures: u32,
}

impl OldPfs {
    fn new(config: PfsConfig) -> Self {
        OldPfs {
            oss: (0..config.num_oss)
                .map(|_| FairShareServer::new(config.oss_bandwidth_bps))
                .collect(),
            mds: (0..config.num_mds).map(|_| FcfsServer::new()).collect(),
            config,
            files: HashMap::new(),
            used: 0,
            mds_surcharge: SimDuration::ZERO,
            reserved: 0,
            armed_failures: 0,
        }
    }

    fn free_bytes(&self) -> u64 {
        (self.config.capacity_bytes - self.used).saturating_sub(self.reserved)
    }

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

    fn size_of(&self, path: &str) -> Result<u64, PfsError> {
        self.files
            .get(path)
            .copied()
            .ok_or_else(|| PfsError::NotFound(path.to_string()))
    }

    fn mds_for(&self, path: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % self.config.num_mds as u64) as usize
    }

    fn create(&mut self, now: SimTime, path: &str) -> SimTime {
        assert!(!self.files.contains_key(path), "write creates absent paths");
        let mds = self.mds_for(path);
        let service = self.config.mds_op_time + self.mds_surcharge;
        let done = self.mds[mds].submit(now, service);
        self.files.insert(path.to_string(), 0);
        done
    }

    fn write(&mut self, now: SimTime, path: &str, bytes: u64) -> Result<SimTime, PfsError> {
        self.take_armed("write", path)?;
        let free = self.free_bytes();
        if bytes > free {
            return Err(PfsError::NoSpace {
                needed: bytes,
                free,
            });
        }
        let mds_done = if self.files.contains_key(path) {
            now
        } else {
            self.create(now, path)
        };
        let size = self.files.get_mut(path).expect("file just ensured");
        let offset = *size;
        *size += bytes;
        self.used += bytes;
        if bytes == 0 {
            return Ok(mds_done);
        }
        let per_ost = self.config.stripe.distribute(offset, bytes);
        let mut done = mds_done;
        for (ost, &b) in per_ost.iter().enumerate() {
            if b == 0 {
                continue;
            }
            self.oss[ost].submit(mds_done, b as f64);
            done = done.max(self.oss[ost].drained_at());
        }
        Ok(done)
    }

    fn read(&mut self, now: SimTime, path: &str) -> Result<SimTime, PfsError> {
        self.take_armed("read", path)?;
        let size = self.size_of(path)?;
        if size == 0 {
            return Ok(now);
        }
        let per_ost = self.config.stripe.distribute(0, size);
        let mut done = now;
        for (ost, &b) in per_ost.iter().enumerate() {
            if b == 0 {
                continue;
            }
            self.oss[ost].submit(now, b as f64);
            done = done.max(self.oss[ost].drained_at());
        }
        Ok(done)
    }

    fn delete(&mut self, now: SimTime, path: &str) -> Result<SimTime, PfsError> {
        let size = self
            .files
            .remove(path)
            .ok_or_else(|| PfsError::NotFound(path.to_string()))?;
        self.used -= size;
        let mds = self.mds_for(path);
        Ok(self.mds[mds].submit(now, self.config.mds_op_time))
    }
}

/// One step of the differential test.
#[derive(Debug, Clone)]
enum DiffOp {
    /// Write to one of the paths, new or not.
    Write {
        file: usize,
        bytes: u64,
    },
    /// Append to the path written last.
    Append {
        bytes: u64,
    },
    Read {
        file: usize,
    },
    Delete {
        file: usize,
    },
    /// Arm transient failures for the next data operations.
    Arm {
        n: u32,
    },
    /// Set the MDS surcharge new files pay, in milliseconds.
    Stall {
        ms: u64,
    },
    /// Withhold capacity (full-disk pressure).
    Reserve {
        bytes: u64,
    },
}

/// Output paths of every family, and one that differs from another only
/// past its digits.
const DIFF_PATHS: [&str; 6] = [
    "/insitu/cinema/ts_000000.png",
    "/insitu/cinema/ts_000001.png",
    "/postproc/raw/out_000000.nc",
    "/postproc/images.tar",
    "/intransit/cinema/ts_1000000.png",
    "/insitu/cinema/ts_000000.pn",
];

fn diff_op_strategy() -> impl Strategy<Value = (bool, DiffOp)> {
    let op = prop_oneof![
        (0usize..6, 0u64..200_000).prop_map(|(file, bytes)| DiffOp::Write { file, bytes }),
        (0u64..200_000).prop_map(|bytes| DiffOp::Append { bytes }),
        (0usize..6).prop_map(|file| DiffOp::Read { file }),
        (0usize..6).prop_map(|file| DiffOp::Delete { file }),
        (0u32..3).prop_map(|n| DiffOp::Arm { n }),
        (0u64..5).prop_map(|ms| DiffOp::Stall { ms }),
        (0u64..900_000).prop_map(|bytes| DiffOp::Reserve { bytes }),
    ];
    (any::<bool>(), op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of writes, appends, reads and deletes — with armed
    /// failures, MDS stalls and disk pressure mixed in, and transfers that
    /// overlap on the OSS — gives the completion times, typed errors,
    /// accounting and file sizes the old write path gave.
    #[test]
    fn write_path_matches_the_old_lookup_sequence(
        stripes in (1u64..9_000, 1usize..5),
        ops in prop::collection::vec(diff_op_strategy(), 1..80),
    ) {
        let config = PfsConfig {
            num_oss: stripes.1,
            stripe: StripeLayout::new(stripes.0, stripes.1),
            ..small_fs().config().clone()
        };
        let mut fs = ParallelFileSystem::new(config.clone());
        let mut old = OldPfs::new(config);
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        let mut last_path = DIFF_PATHS[0];
        for (wait, op) in &ops {
            // Either wait for the last completion or move on 10 ms, past
            // any metadata operation, while transfers are still in flight.
            now = if *wait { now.max(last_done) } else { now + SimDuration::from_millis(10) };
            let (got, want) = match *op {
                DiffOp::Write { file, bytes } => {
                    last_path = DIFF_PATHS[file];
                    (fs.write(now, last_path, bytes), old.write(now, last_path, bytes))
                }
                DiffOp::Append { bytes } => {
                    (fs.write(now, last_path, bytes), old.write(now, last_path, bytes))
                }
                DiffOp::Read { file } => {
                    (fs.read(now, DIFF_PATHS[file]), old.read(now, DIFF_PATHS[file]))
                }
                DiffOp::Delete { file } => {
                    (fs.delete(now, DIFF_PATHS[file]), old.delete(now, DIFF_PATHS[file]))
                }
                DiffOp::Arm { n } => {
                    fs.arm_transient_failures(n);
                    old.armed_failures += n;
                    continue;
                }
                DiffOp::Stall { ms } => {
                    fs.set_mds_surcharge(SimDuration::from_millis(ms));
                    old.mds_surcharge = SimDuration::from_millis(ms);
                    continue;
                }
                DiffOp::Reserve { bytes } => {
                    fs.set_reserved_bytes(bytes);
                    old.reserved = bytes;
                    continue;
                }
            };
            prop_assert_eq!(&got, &want, "{:?} at {}", op, now);
            if let Ok(done) = got {
                last_done = last_done.max(done);
            }
            prop_assert_eq!(fs.used_bytes(), old.used);
            prop_assert_eq!(fs.free_bytes(), old.free_bytes());
            prop_assert_eq!(fs.num_files(), old.files.len());
            for path in DIFF_PATHS {
                prop_assert_eq!(fs.size_of(path), old.size_of(path));
            }
        }
    }
}
