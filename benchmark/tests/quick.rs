//! Every workload, both passes, in `--quick` mode: two iterations, small
//! inputs, every output check on. What is asserted is shape and
//! correctness, never a timing.

use std::time::Instant;

use ivis_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use ivis_benchmark::harness::{detail_file, out_dir, run_pass, PassResult, Reading, RunOpts};
use ivis_benchmark::json::{self, Value};

fn quick(workload: &str, seed: u64, trace: bool) -> PassResult {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        quick: true,
    };
    run_pass(&opts, Instant::now()).expect("quick pass runs")
}

fn contract_metrics(result: &PassResult) -> Value {
    let line = json::parse(&result.contract_line()).expect("the contract line is JSON");
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
    line.get("metrics").unwrap().clone()
}

#[test]
fn timed_pass_reports_every_end_to_end_metric_and_passes_its_checks() {
    for w in &WORKLOADS {
        // A seed other than the default: the self-consistency checks
        // alone must hold.
        let result = quick(w.name, 7, false);
        assert!(result.correct(), "{}: {:?}", w.name, result.checks.messages);
        assert_eq!(result.iters, 2);
        let metrics = contract_metrics(&result);
        assert_eq!(metrics.members().len(), END_TO_END.len());
        for m in &END_TO_END {
            let got = metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
            assert!(
                got.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                "{}",
                m.name
            );
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(m.unit));
        }
        let detail = std::fs::read_to_string(out_dir().join(detail_file(w.name, false))).unwrap();
        assert_eq!(json::parse(&detail).unwrap(), result.detail());
    }
}

#[test]
fn traced_pass_reports_every_layer_metric_or_says_why_not() {
    for w in &WORKLOADS {
        let result = quick(w.name, 42, true);
        assert!(result.correct(), "{}: {:?}", w.name, result.checks.messages);
        let metrics = contract_metrics(&result);
        assert_eq!(metrics.members().len(), PER_LAYER.len());
        for (m, (name, _, reading)) in PER_LAYER.iter().zip(&result.metrics) {
            assert_eq!(m.name, *name);
            match reading {
                Reading::Value(v) => {
                    assert!(
                        m.on.contains(&w.name),
                        "{} measured {} off its path",
                        w.name,
                        name
                    );
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name);
                }
                Reading::Unmeasured(why) => assert!(
                    !m.on.contains(&w.name) || !why.contains("did not produce"),
                    "{}: the traced pass should measure {name}",
                    w.name
                ),
            }
        }
        for name in ["bench.replay_coverage", "bench.trace_overhead_pct"] {
            assert!(metrics.get(name).is_some(), "{}: {name}", w.name);
        }

        let trace = std::fs::read_to_string(out_dir().join(format!("trace_{}.json", w.name)));
        let trace = json::parse(&trace.unwrap()).expect("the trace file is JSON");
        let Some(Value::Arr(spans)) = trace.get("spans") else {
            panic!("{}: trace file has no spans", w.name);
        };
        assert!(spans.len() > 1, "{}", w.name);
        // Every span but each iteration's root names a parent, and every
        // name is `<layer>.<what>`.
        for s in spans {
            let name = s.get("name").and_then(Value::as_str).unwrap();
            assert!(name.contains('.'), "{name}");
            assert_eq!(
                s.get("parent") == Some(&Value::Null),
                name == "bench.replay",
                "{name}"
            );
            assert!(
                s.get("end_ns").and_then(Value::as_f64)
                    >= s.get("start_ns").and_then(Value::as_f64)
            );
        }
    }
}

#[test]
fn exact_metrics_repeat_between_two_traced_passes() {
    let pick = |r: &PassResult| -> Vec<(&'static str, Reading)> {
        PER_LAYER
            .iter()
            .zip(&r.metrics)
            .filter(|(m, _)| m.exact)
            .map(|(m, (_, _, reading))| (m.name, reading.clone()))
            .collect()
    };
    for name in ["paper_matrix", "serve_miss"] {
        assert_eq!(
            pick(&quick(name, 5, true)),
            pick(&quick(name, 5, true)),
            "{name}"
        );
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    let opts = RunOpts {
        workload: "no_such_workload".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        quick: true,
    };
    assert!(run_pass(&opts, Instant::now()).is_err());
}
