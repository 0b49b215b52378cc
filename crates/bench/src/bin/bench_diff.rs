//! Compare two generations of a `BENCH_*.json` artifact and gate on
//! regressions.
//!
//! ```text
//! bench_diff OLD.json NEW.json [--check] [--threshold PCT] [--ratios-only]
//! ```
//!
//! Prints [`ivis_bench::report::compare`]'s leaf-by-leaf diff (the rules
//! live there). With `--check`, exits nonzero on any regression past the
//! threshold (default 10%), any changed digest and any missing leaf.
//! `--ratios-only` gates only machine-normalized leaves and witnesses, for
//! generations from different machines. Every `*_bench --check` runs the
//! same comparison against its committed file with `--threshold 60
//! --ratios-only`.

use std::process::exit;

use ivis_bench::report::{compare, read, Json};

fn usage() -> ! {
    eprintln!("usage: bench_diff OLD.json NEW.json [--check] [--threshold PCT] [--ratios-only]");
    exit(2);
}

fn load(path: &str) -> Json {
    read(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    })
}

fn main() {
    let mut files = Vec::new();
    let mut check = false;
    let mut ratios_only = false;
    let mut threshold = 10.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--ratios-only" => ratios_only = true,
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => files.push(arg),
        }
    }
    let [old, new] = files.as_slice() else {
        usage();
    };
    let (_, regressions) = compare(&load(old), &load(new), threshold, ratios_only);
    if check && !regressions.is_empty() {
        for r in &regressions {
            eprintln!("FAIL: {r}");
        }
        exit(1);
    }
}
