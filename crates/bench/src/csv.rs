//! CSV export of every figure's data — drop-in input for gnuplot/matplotlib
//! so the paper's charts can be re-plotted from this reproduction.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::{
    extension_burst_buffer_rows, extension_intransit_rows, extension_scaling_rows, fig10_rows,
    fig3_rows, fig4_profile, fig5_rows, fig6_rows, fig7_rows, fig9_rows, proportionality_rows, Row,
};

fn rows_to_csv(rows: &[Row]) -> String {
    let mut out = String::from("label,measured,paper,unit\n");
    for r in rows {
        let paper = r.paper.map(|p| format!("{p}")).unwrap_or_default();
        let _ = writeln!(out, "\"{}\",{},{},{}", r.label, r.measured, paper, r.unit);
    }
    out
}

fn triples_to_csv(header: &str, rows: &[(f64, f64, f64)]) -> String {
    let mut out = String::from(header);
    out.push('\n');
    for (a, b, c) in rows {
        let _ = writeln!(out, "{a},{b},{c}");
    }
    out
}

/// Write every figure's data as CSV files into `dir`. Returns the file
/// names written.
pub fn export_all(dir: &Path) -> io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut put = |name: &str, contents: String| -> io::Result<()> {
        fs::write(dir.join(name), contents)?;
        written.push(name.to_string());
        Ok(())
    };

    put("fig3_execution_time.csv", rows_to_csv(&fig3_rows()))?;
    put(
        "fig4_power_profile.csv",
        triples_to_csv("minute,compute_w,storage_w", &fig4_profile()),
    )?;
    put("fig5_average_power.csv", rows_to_csv(&fig5_rows()))?;
    put("fig6_energy.csv", rows_to_csv(&fig6_rows()))?;
    put("fig7_storage.csv", rows_to_csv(&fig7_rows()))?;
    let (curve9, crossover) = fig9_rows();
    put(
        "fig9_storage_whatif.csv",
        triples_to_csv("every_hours,post_tb,insitu_tb", &curve9),
    )?;
    put("fig9_crossover.csv", rows_to_csv(&[crossover]))?;
    let (curve10, rows10) = fig10_rows();
    put(
        "fig10_energy_whatif.csv",
        triples_to_csv("every_hours,post_gj,insitu_gj", &curve10),
    )?;
    put("fig10_savings.csv", rows_to_csv(&rows10))?;
    put(
        "power_proportionality.csv",
        rows_to_csv(&proportionality_rows()),
    )?;
    put("phase_energy.csv", crate::obs_export::phase_energy_csv())?;
    put("phase_power.csv", crate::obs_export::phase_power_csv())?;
    let (it_rows, baseline) = extension_intransit_rows(72.0);
    let it: Vec<(f64, f64, f64)> = it_rows.iter().map(|&(n, t, p)| (n as f64, t, p)).collect();
    let mut it_csv = triples_to_csv("staging_nodes,exec_s,avg_power_kw", &it);
    let _ = writeln!(it_csv, "# in-situ baseline: {baseline} s");
    put("ext_intransit.csv", it_csv)?;
    put(
        "ext_burst_buffer.csv",
        rows_to_csv(&extension_burst_buffer_rows()),
    )?;
    let sc: Vec<(f64, f64, f64)> = extension_scaling_rows()
        .iter()
        .map(|&(n, s, p)| (n as f64, s, p))
        .collect();
    put(
        "ext_scaling.csv",
        triples_to_csv("nodes,energy_saving_pct,post_power_kw", &sc),
    )?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_all_figures() {
        let dir = std::env::temp_dir().join(format!("ivis_csv_{}", std::process::id()));
        let files = export_all(&dir).expect("temp dir writable");
        assert!(files.len() >= 12);
        for f in &files {
            let content = std::fs::read_to_string(dir.join(f)).expect("file exists");
            assert!(content.lines().count() >= 2, "{f} should have data rows");
            assert!(content.contains(','), "{f} should be CSV");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn export_to_a_path_under_a_regular_file_is_an_error() {
        let file = std::env::temp_dir().join(format!("ivis_csv_file_{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("temp dir writable");
        assert!(export_all(&file.join("figures")).is_err());
        std::fs::remove_file(&file).expect("cleanup");
    }

    #[test]
    fn row_csv_shape() {
        let rows = vec![Row {
            label: "x \"quoted\"".into(),
            measured: 1.5,
            paper: Some(2.0),
            unit: "s",
        }];
        let csv = rows_to_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,measured,paper,unit"));
        assert!(lines.next().expect("data row").ends_with(",1.5,2,s"));
    }
}
