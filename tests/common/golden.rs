//! The committed golden files and the stable one-line renderings of the
//! artifacts they pin. Names only the leaf crates, so `ivis-core`'s own
//! unit tests mount this same file (`#[path]` in its `lib.rs`) and hold
//! the native frame loop to the same keys from inside the crate.
//!
//! To pin a new configuration, run the suite — a missing key fails with
//! the `key = value` line to add.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;

use ivis_eddy::census::FrameCensus;
use ivis_eddy::tracking::Track;
use ivis_trigger::TriggerDecision;
use ivis_viz::CinemaDatabase;

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a-64 and byte length of a text artifact (JSONL trace, Perfetto
/// or Prometheus export, Cinema index): enough to pin it byte-for-byte
/// without committing megabytes.
pub fn blob(text: &str) -> String {
    format!("fnv1a64={:#018x} len={}", fnv1a64(text.bytes()), text.len())
}

/// Zero every digit run that follows a wall-clock-valued position of a
/// JSONL trace: `"start_us":`, `"end_us":`, `"t_us":` and sample times
/// (digits right after `[`). Two real executions never agree on those;
/// attr values, counter values, record order and structure pass through
/// untouched, so everything deterministic stays byte-compared.
pub fn normalize_trace(trace: &str) -> String {
    let bytes = trace.as_bytes();
    let mut out = String::with_capacity(trace.len());
    let mut i = 0;
    let markers: [&[u8]; 4] = [b"\"start_us\":", b"\"end_us\":", b"\"t_us\":", b"["];
    'outer: while i < bytes.len() {
        for m in markers {
            if bytes[i..].starts_with(m) {
                out.push_str(std::str::from_utf8(m).unwrap());
                i += m.len();
                if i < bytes.len() && bytes[i].is_ascii_digit() {
                    out.push('0');
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                continue 'outer;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// Everything a native run left behind, on one line: frame count, FNV of
/// all PNG bytes in frame order, the Cinema index, the eddy tracks (count
/// and FNV of their `Debug` rendering, which round-trips every `f64`) and
/// every bit of the final census.
pub fn frames_line(cinema: &CinemaDatabase, tracks: &[Track], census: &FrameCensus) -> String {
    let pngs = cinema.entries().iter().flat_map(|e| e.data.iter().copied());
    format!(
        "frames={} png_fnv1a64={:#018x} png_bytes={} index[{}] tracks={} tracks_fnv1a64={:#018x} \
         census={}:{:#018x}:{:#018x}:{:#018x}",
        cinema.len(),
        fnv1a64(pngs),
        cinema.total_bytes(),
        blob(&cinema.index_json()),
        tracks.len(),
        fnv1a64(format!("{tracks:?}").bytes()),
        census.count,
        census.mean_radius_m.to_bits(),
        census.strongest_w.to_bits(),
        census.total_area_m2.to_bits(),
    )
}

/// Every trigger decision, floats as bits: `step:emit:interval:activity:
/// viewpoint:entropy`, space-separated in analysis order.
pub fn decisions_line(decisions: &[TriggerDecision]) -> String {
    let each: Vec<String> = decisions
        .iter()
        .map(|d| {
            format!(
                "{}:{}:{}:{:#x}:{}:{:#x}",
                d.step,
                u8::from(d.emit),
                d.interval_steps,
                d.activity.to_bits(),
                d.best_viewpoint,
                d.best_entropy_bits.to_bits()
            )
        })
        .collect();
    each.join(" ")
}

/// The parsed golden files: `key = value` lines, `#` comments.
pub struct Golden(BTreeMap<&'static str, &'static str>);

impl Golden {
    pub fn load() -> Self {
        let files = [
            include_str!("../golden/executor_identity.txt"),
            include_str!("../golden/native_identity.txt"),
            include_str!("../golden/serve_identity.txt"),
        ];
        Golden(
            files
                .iter()
                .flat_map(|text| text.lines())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| l.split_once(" = ").expect("golden line is `key = value`"))
                .collect(),
        )
    }

    /// Assert `actual` is exactly what the golden files pin under `key`.
    pub fn check(&self, key: &str, actual: &str) {
        match self.0.get(key) {
            Some(expected) => assert_eq!(actual, *expected, "{key} diverged from the golden file"),
            None => panic!("golden file has no entry; add:\n{key} = {actual}"),
        }
    }
}
