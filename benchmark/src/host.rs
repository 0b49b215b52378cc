//! What the benchmark asks of the host it runs on.

/// Environment variables that change what the product code does (thread
/// count, native pipeline depth, fault seed). A run under any of them
/// would not be comparable with one without, so the benchmark refuses.
pub const FORBIDDEN_ENV: [&str; 3] = ["ZSIM_THREADS", "ZSIM_PIPELINE_DEPTH", "FAULT_SEED"];

/// The forbidden variables that are set, if any.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads every workload runs with: `min(nproc, 4)`.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process so far (`VmHWM`), MiB. `None` off
/// Linux, where `/proc` is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_as_a_positive_number_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 1.0);
        }
        assert!(bench_threads() >= 1 && bench_threads() <= 4);
    }
}
