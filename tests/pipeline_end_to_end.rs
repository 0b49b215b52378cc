//! Cross-crate end-to-end tests on the native (really-executing) backend:
//! the pipelines produce real PNGs, real ncdf files, and identical science.

use insitu_vis::pipeline::native::{execute, NativeConfig, NativePlan, NativeReport};
use insitu_vis::pipeline::PipelineKind;
use insitu_vis::viz::png::{crc32, PNG_SIGNATURE};
use ivis_obs::Recorder;

/// A clean, untraced run of `kind` on [`cfg`].
fn run(kind: PipelineKind) -> NativeReport {
    let plan = NativePlan::new(cfg(), kind);
    execute(&plan, &Recorder::off())
        .expect("a valid plan")
        .report
}

fn cfg() -> NativeConfig {
    NativeConfig {
        nx: 48,
        ny: 32,
        cell_m: 60_000.0,
        steps: 48,
        output_every: 12,
        num_eddies: 5,
        seed: 11,
        image_width: 96,
        image_height: 64,
        annotate: false,
    }
}

#[test]
fn cognitive_fidelity_identical_images_and_tracks() {
    // The in-situ pipeline must not lose information relative to
    // post-processing: identical PNGs, identical censuses and tracks.
    let a = run(PipelineKind::InSitu);
    let b = run(PipelineKind::PostProcessing);
    assert_eq!(a.frames, 4);
    assert_eq!(a.frames, b.frames);
    for (ea, eb) in a.cinema.entries().iter().zip(b.cinema.entries()) {
        assert_eq!(ea.data, eb.data);
    }
    assert_eq!(a.final_census, b.final_census);
    assert_eq!(a.tracks.len(), b.tracks.len());
    for (ta, tb) in a.tracks.iter().zip(&b.tracks) {
        assert_eq!(ta.points.len(), tb.points.len());
    }
}

#[test]
fn produced_pngs_are_structurally_valid() {
    let report = run(PipelineKind::InSitu);
    for entry in report.cinema.entries() {
        let data = &entry.data;
        assert_eq!(&data[..8], &PNG_SIGNATURE, "{}", entry.filename);
        // Walk all chunks, verifying lengths and CRCs end exactly at EOF
        // with an IEND chunk.
        let mut pos = 8;
        let mut last_kind = [0u8; 4];
        while pos < data.len() {
            let len = u32::from_be_bytes(data[pos..pos + 4].try_into().expect("length")) as usize;
            last_kind.copy_from_slice(&data[pos + 4..pos + 8]);
            let crc_stored =
                u32::from_be_bytes(data[pos + 8 + len..pos + 12 + len].try_into().expect("crc"));
            assert_eq!(crc_stored, crc32(&data[pos + 4..pos + 8 + len]));
            pos += 12 + len;
        }
        assert_eq!(pos, data.len(), "no trailing garbage");
        assert_eq!(&last_kind, b"IEND");
    }
}

#[test]
fn cinema_database_round_trips_through_disk() {
    let report = run(PipelineKind::InSitu);
    let dir = std::env::temp_dir().join(format!("ivis_e2e_{}", std::process::id()));
    report.cinema.export_to_dir(&dir).expect("writable tmp");
    let index = std::fs::read_to_string(dir.join("info.json")).expect("index exists");
    for entry in report.cinema.entries() {
        assert!(index.contains(&entry.filename));
        let on_disk = std::fs::read(dir.join(&entry.filename)).expect("png exists");
        assert_eq!(on_disk, entry.data);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn storage_asymmetry_matches_paper_shape() {
    let a = run(PipelineKind::InSitu);
    let b = run(PipelineKind::PostProcessing);
    // Raw f64 fields for a 48×32 grid: 4 vars × 12 KiB ≈ 49 KB per frame
    // plus a small header; the raw stream exists only for post-processing.
    assert_eq!(a.raw_bytes, 0);
    let per_frame_payload = (4 * 48 * 32 * 8) as u64;
    assert!(b.raw_bytes >= b.frames * per_frame_payload);
    assert!(b.raw_bytes < b.frames * (per_frame_payload + 1024));
    // Both pipelines emit the same images (total_bytes also counts the
    // index JSON, whose database *name* differs, so compare the PNG bytes).
    let image_sum = |r: &insitu_vis::pipeline::native::NativeReport| -> u64 {
        r.cinema.entries().iter().map(|e| e.data.len() as u64).sum()
    };
    assert_eq!(image_sum(&a), image_sum(&b));
}

#[test]
fn eddies_survive_simulation() {
    // The seeded eddies must still be detected after the full run — the
    // solver keeps them coherent (the paper's premise that eddies live for
    // hundreds of days).
    let report = run(PipelineKind::InSitu);
    assert!(report.final_census.count >= 1);
    let long_tracks = report
        .tracks
        .iter()
        .filter(|t| t.lifetime_frames() >= 3)
        .count();
    assert!(
        long_tracks >= 1,
        "at least one eddy tracked across ≥3 frames"
    );
}
