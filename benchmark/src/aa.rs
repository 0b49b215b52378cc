//! `aa`: the same build measured twice, so the benchmark can be held to
//! its own bounds before any change is.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::cli::{run_child, selected, Flags};
use crate::json::Value;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Allowed relative difference; `None` for a metric that must
    /// repeat exactly.
    pub bound: Option<f64>,
}

impl Row {
    /// `|b − a| ÷ a` (0 when both are 0).
    pub fn rel_diff(&self) -> f64 {
        if self.a == self.b {
            0.0
        } else {
            (self.b - self.a).abs() / self.a.abs()
        }
    }

    pub fn within(&self) -> bool {
        match self.bound {
            Some(bound) => self.rel_diff() <= bound,
            None => self.a == self.b,
        }
    }
}

fn metric_value(detail: &Value, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Rows comparing two sets of detail files of one workload.
pub fn compare(
    workload: &str,
    e2e: (&Value, &Value),
    layers: (&Value, &Value),
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    // `None` when both sets report the metric unmeasured.
    let both = |pair: (&Value, &Value), name: &str| match (
        metric_value(pair.0, name),
        metric_value(pair.1, name),
    ) {
        (Some(a), Some(b)) => Ok(Some((a, b))),
        (None, None) => Ok(None),
        _ => Err(format!("{workload}: {name} measured in only one set")),
    };
    for m in &END_TO_END {
        let (a, b) = both(e2e, m.name)?.ok_or(format!("{workload}: {} unmeasured", m.name))?;
        rows.push(Row {
            workload: workload.to_string(),
            metric: m.name,
            a,
            b,
            bound: Some(m.bound),
        });
    }
    for m in PER_LAYER
        .iter()
        .filter(|m| m.exact && m.on.contains(&workload))
    {
        let Some((a, b)) = both(layers, m.name)? else {
            continue;
        };
        rows.push(Row {
            workload: workload.to_string(),
            metric: m.name,
            a,
            b,
            bound: None,
        });
    }
    // Operations attempted grow with the iterations that fit in the time
    // budget; failures must repeat exactly (and be zero).
    for (metric, pair) in [("failed", e2e), ("traced.failed", layers)] {
        let failed = |d: &Value| d.get("failed").and_then(Value::as_f64);
        let (Some(a), Some(b)) = (failed(pair.0), failed(pair.1)) else {
            return Err(format!("{workload}: {metric} missing from one set"));
        };
        rows.push(Row {
            workload: workload.to_string(),
            metric,
            a,
            b,
            bound: None,
        });
    }
    Ok(rows)
}

pub fn print_table(rows: &[Row]) {
    println!(
        "| {:<20} | {:<32} | {:>16} | {:>16} | {:>8} | {:>6} | {:<4} |",
        "workload", "metric", "run A", "run B", "diff %", "bound", "ok"
    );
    println!(
        "|{:-<22}|{:-<34}|{:->18}|{:->18}|{:->10}|{:->8}|{:-<6}|",
        "", "", "", "", "", "", ""
    );
    for r in rows {
        println!(
            "| {:<20} | {:<32} | {:>16.6} | {:>16.6} | {:>8.3} | {:>6} | {:<4} |",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel_diff() * 100.0,
            r.bound
                .map_or("exact".to_string(), |b| format!("{:.0} %", b * 100.0)),
            if r.within() { "yes" } else { "NO" }
        );
    }
}

pub fn main(flags: &Flags) -> Result<i32, String> {
    let workloads = selected(flags);
    let mut sets: Vec<Vec<(Value, Value)>> = Vec::new();
    for set in ["A", "B"] {
        let mut details = Vec::new();
        for workload in &workloads {
            eprintln!("set {set}: {workload}");
            details.push((
                run_child(workload, flags, false, false)?,
                run_child(workload, flags, true, false)?,
            ));
        }
        sets.push(details);
    }
    let mut rows = Vec::new();
    for (i, workload) in workloads.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        rows.extend(compare(workload, (&a.0, &b.0), (&a.1, &b.1))?);
    }
    print_table(&rows);
    let outside = rows.iter().filter(|r| !r.within()).count();
    println!("{} of {} rows outside their bound", outside, rows.len());
    Ok(if outside == 0 { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_compare_against_their_bound_and_exact_rows_exactly() {
        let timing = |a, b| Row {
            workload: "w".into(),
            metric: "iter_ms_p50",
            a,
            b,
            bound: Some(0.10),
        };
        assert!(timing(100.0, 109.0).within());
        assert!(timing(100.0, 91.0).within());
        assert!(!timing(100.0, 111.0).within());
        let exact = |a, b| Row {
            workload: "w".into(),
            metric: "sim.events_per_iter",
            a,
            b,
            bound: None,
        };
        assert!(exact(542.0, 542.0).within());
        assert!(!exact(542.0, 543.0).within());
        assert!(exact(0.0, 0.0).within() && exact(0.0, 0.0).rel_diff() == 0.0);
    }
}
