//! Shared helpers of the identity suites: the committed golden files
//! (`tests/golden/*.txt`, see [`golden`]) and stable one-line renderings
//! of the artifacts they pin.
//!
//! Every golden value was recorded from an implementation that has since
//! been deleted — the loop executors in `executor_identity.txt`, the
//! sequential native loops in `native_identity.txt`, the owned and
//! twice-hashed serve replies in `serve_identity.txt` — so each is what
//! that code produced.

#![allow(dead_code)] // each suite uses its own subset

mod golden;

pub use golden::*;
use ivis_core::TransportStats;

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
