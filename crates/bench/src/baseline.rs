//! Digest witnesses of the committed `BENCH_*.json` baselines.
//!
//! The executors are deterministic, so a bench's `--check` does not need a
//! second live run to compare against: the digests the committed baseline
//! recorded are the reference. Bench binaries write one row object per
//! line (`{ "config": "…", …, "digest": "…" }`), so a line scan finds
//! them without a JSON parser.

/// The `"digest"` the baseline text records for the row labelled `config`.
pub fn baseline_digest<'a>(baseline: &'a str, config: &str) -> Option<&'a str> {
    let label = format!("\"config\": \"{config}\"");
    let line = baseline.lines().find(|l| l.contains(&label))?;
    let (_, rest) = line.split_once("\"digest\": \"")?;
    rest.split_once('"').map(|(digest, _)| digest)
}

/// The committed baseline's text when `--check` is on. Call it before
/// writing the artifact: CI's smoke job writes to the baseline's own path.
///
/// # Panics
/// Panics if `check` is set and `path` cannot be read — there is nothing
/// to check against.
pub fn load_for_check(check: bool, path: &str) -> Option<String> {
    check.then(|| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check needs the committed {path}: {e}"))
    })
}

/// Print every failure and exit nonzero if there is any.
pub fn exit_on_failures(failures: &[String]) {
    for f in failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// One failure message per `(config, digest)` witness that differs from,
/// or is missing in, the committed baseline.
pub fn digest_mismatches(baseline: &str, witnesses: &[(String, String)]) -> Vec<String> {
    witnesses
        .iter()
        .filter_map(|(config, digest)| match baseline_digest(baseline, config) {
            Some(pinned) if pinned == digest => None,
            Some(pinned) => Some(format!(
                "{config}: digest {digest} != committed baseline {pinned}"
            )),
            None => Some(format!("{config}: no digest in the committed baseline")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "rows": [
    { "config": "in-situ@8h", "wall_s": 0.007, "digest": "exec_us=1 | level=0" },
    { "config": "in-situ@8h/seed42", "digest": "exec_us=2" }
  ]
}"#;

    #[test]
    fn finds_the_row_by_exact_label() {
        assert_eq!(
            baseline_digest(BASELINE, "in-situ@8h"),
            Some("exec_us=1 | level=0")
        );
        assert_eq!(
            baseline_digest(BASELINE, "in-situ@8h/seed42"),
            Some("exec_us=2")
        );
        assert_eq!(baseline_digest(BASELINE, "in-situ@24h"), None);
    }

    #[test]
    fn reports_changed_and_missing_witnesses() {
        let w = |c: &str, d: &str| (c.to_string(), d.to_string());
        assert!(digest_mismatches(BASELINE, &[w("in-situ@8h", "exec_us=1 | level=0")]).is_empty());
        let bad = digest_mismatches(
            BASELINE,
            &[w("in-situ@8h", "exec_us=9"), w("post@8h", "exec_us=3")],
        );
        assert_eq!(bad.len(), 2);
        assert!(bad[0].contains("!= committed baseline"));
        assert!(bad[1].contains("no digest"));
    }
}
