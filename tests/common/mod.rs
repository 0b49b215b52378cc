//! Shared helpers of the executor-identity suites: the committed golden
//! file (`tests/golden/executor_identity.txt`), stable one-line
//! renderings of the artifacts it pins, and the 1/2/8-thread replay.
//!
//! The golden file was recorded from the loop executors (`run_insitu`,
//! `run_postproc`, their `*_faulted` mirrors, `intransit_staged` and
//! `try_run_intransit_reference`) before they were deleted; every value
//! in it is what those loops produced. To pin a new configuration, run
//! the suite — a missing key fails with the `key = value` line to add.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;

use ivis_core::TransportStats;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `f` at 1, 2 and 8 shim threads, assert every result equals the
/// first, and return it.
pub fn at_all_thread_counts<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
    let mut out = None;
    for n in THREAD_COUNTS {
        rayon::set_num_threads(n);
        let r = f();
        match &out {
            None => out = Some(r),
            Some(first) => assert_eq!(&r, first, "artifacts changed at {n} threads"),
        }
    }
    rayon::set_num_threads(0);
    out.unwrap()
}

/// FNV-1a-64 and byte length of a text artifact (JSONL trace, Perfetto
/// or Prometheus export): enough to pin it byte-for-byte without
/// committing megabytes.
pub fn blob(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64={h:#018x} len={}", text.len())
}

/// Every field of a [`TransportStats`], durations in exact microseconds.
pub fn stats_line(s: &TransportStats) -> String {
    format!(
        "depth={} shipped={} wire_bytes={} max_in_flight={} stall_us={} link_queued_us={} link_busy_us={} compress_us={} decompress_us={}",
        s.depth,
        s.samples_shipped,
        s.bytes_shipped,
        s.max_in_flight,
        s.stall_time.as_micros(),
        s.link_queued.as_micros(),
        s.link_busy.as_micros(),
        s.compress_time.as_micros(),
        s.decompress_time.as_micros(),
    )
}

/// The parsed golden file: `key = value` lines, `#` comments.
pub struct Golden(BTreeMap<&'static str, &'static str>);

impl Golden {
    pub fn load() -> Self {
        let text = include_str!("../golden/executor_identity.txt");
        Golden(
            text.lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| l.split_once(" = ").expect("golden line is `key = value`"))
                .collect(),
        )
    }

    /// Assert `actual` is exactly what the golden file pins under `key`.
    pub fn check(&self, key: &str, actual: &str) {
        match self.0.get(key) {
            Some(expected) => assert_eq!(actual, *expected, "{key} diverged from the golden file"),
            None => panic!("golden file has no entry; add:\n{key} = {actual}"),
        }
    }
}
