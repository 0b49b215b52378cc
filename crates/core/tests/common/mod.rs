//! Byte-exact comparison with the committed files in `tests/golden/`.
//!
//! No test rewrites its own golden file: a pin an environment variable
//! can re-pin witnesses nothing. A deliberate schema change edits the file
//! in the same commit, where review sees it.

/// Assert `got` equals `tests/golden/<file>` byte for byte; on mismatch,
/// name the file and show its first differing line beside this run's.
pub fn check_golden(got: &str, file: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let last = got_lines.len().max(want_lines.len());
    let line = (0..last)
        .find(|&i| got_lines.get(i) != want_lines.get(i))
        .unwrap_or(last);
    let show = |lines: &[&str]| {
        lines
            .get(line)
            .map_or_else(|| "(end of file)".to_string(), |l| format!("{l:?}"))
    };
    panic!(
        "{path} differs from this run at line {}:\n  golden: {}\n  got:    {}",
        line + 1,
        show(&want_lines),
        show(&got_lines)
    );
}
