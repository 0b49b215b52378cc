//! Command line: `run`, `aa`, `manifest`.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::catalog::{self, WORKLOADS};
use crate::harness::{self, RunOpts};
use crate::json::{self, Value};
use crate::workloads::DEFAULT_SEED;

const USAGE: &str = "\
usage: ivis-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       ivis-benchmark aa  [--workload W] [--seed N] [--seconds S]
       ivis-benchmark manifest | pins

run       with --workload: one pass of one workload in this process; the last
          line of stdout is the JSON result. Without: every workload, each
          pass in a child process, results merged into out/results.json.
aa        two full sets of runs of this build, compared metric by metric
          against the bounds; non-zero exit if any is outside.
manifest  print the BENCHMARK.json this build stands for.
pins      print the default-seed outputs in the form expected/seed42.json
          pins them (to re-record after an intended behaviour change).";

/// Parsed flags shared by `run` and `aa`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub quick: bool,
}

pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                flags.seconds = s;
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &flags.workload {
        if catalog::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(flags)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String], process_start: Instant) -> i32 {
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_flags(rest).and_then(|f| match &f.workload {
            Some(_) => run_here(&f, process_start),
            None => run_all(&f),
        }),
        Some((cmd, rest)) if cmd == "aa" => parse_flags(rest).and_then(|f| crate::aa::main(&f)),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", catalog::manifest().to_pretty());
            Ok(0)
        }
        Some((cmd, [])) if cmd == "pins" => {
            print!("{}", harness::current_pins().to_pretty());
            Ok(0)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        1
    })
}

/// One pass of one workload in this process. A run whose checks failed
/// still prints its result, then exits 2.
fn run_here(flags: &Flags, process_start: Instant) -> Result<i32, String> {
    let opts = RunOpts {
        workload: flags.workload.clone().expect("caller checked"),
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace.unwrap_or(false),
        quick: flags.quick,
    };
    let result = harness::run_pass(&opts, process_start)?;
    result.print();
    println!("{}", result.contract_line());
    Ok(if result.correct() { 0 } else { 2 })
}

/// Run one pass in a child process (so `peak_rss_mb` is that pass's
/// alone) and return its detail file. The child's stdout is echoed when
/// `echo` is set; its last line must be the contract's JSON object.
pub fn run_child(workload: &str, flags: &Flags, trace: bool, echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if flags.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let line = json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}): no result line ({e}); exit {}",
            u8::from(trace),
            out.status
        )
    })?;
    if line.get("correct").and_then(Value::as_bool) != Some(true) {
        eprintln!("{workload} (trace {}): checks failed", u8::from(trace));
    }
    let path = harness::out_dir().join(harness::detail_file(workload, trace));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Workloads a flag set selects.
pub fn selected(flags: &Flags) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| flags.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every workload, timed pass then traced pass (or only the pass
/// `--trace` names), merged into `out/results.json`.
fn run_all(flags: &Flags) -> Result<i32, String> {
    let passes: &[bool] = match flags.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in selected(flags) {
        let mut members = vec![("workload".to_string(), Value::str(workload))];
        for &trace in passes {
            let detail = run_child(workload, flags, trace, true)?;
            all_correct &= detail.get("correct").and_then(Value::as_bool) == Some(true);
            members.push((
                if trace { "per_layer" } else { "end_to_end" }.to_string(),
                detail,
            ));
        }
        rows.push(Value::Obj(members));
    }
    let doc = Value::obj([
        ("seed", Value::Num(flags.seed as f64)),
        ("seconds", Value::Num(flags.seconds)),
        ("nproc", Value::Num(crate::host::nproc() as f64)),
        ("threads", Value::Num(crate::host::bench_threads() as f64)),
        ("workloads", Value::Arr(rows)),
    ]);
    let path = harness::out_dir().join("results.json");
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let f = parse_flags(&args(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("serve_hot"));
        assert_eq!(
            (f.seed, f.seconds, f.trace, f.quick),
            (7, 10.0, Some(true), false)
        );
        let d = parse_flags(&[]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, None));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds inf",
            "--frobnicate",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }
}
