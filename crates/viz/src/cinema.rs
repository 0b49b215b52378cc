//! A Cinema-style image database.
//!
//! ParaView Cinema writes an *image database*: a deterministic directory of
//! images indexed by simulation parameters (here: timestep / simulated
//! hours), plus a JSON index. The in-situ pipeline's entire output is one of
//! these — its total byte count is what makes the paper's Fig. 7 bars
//! microscopic.

use std::fs;
use std::io;
use std::path::Path;

use crate::png::{encoded_png_size, PngEncoder};
use crate::raster::ImageBuffer;

/// One image entry.
#[derive(Debug, Clone)]
pub struct CinemaEntry {
    /// Timestep index of the simulation.
    pub timestep: u64,
    /// Simulated hours at capture.
    pub sim_hours: f64,
    /// File name inside the database directory.
    pub filename: String,
    /// Encoded PNG bytes.
    pub data: Vec<u8>,
}

/// An in-memory Cinema database, exportable to disk.
#[derive(Debug, Clone)]
pub struct CinemaDatabase {
    name: String,
    entries: Vec<CinemaEntry>,
    /// Reusable streaming encoder: its scanline scratch persists across
    /// frames, so per-frame encoding allocates only the entry's own PNG
    /// buffer (sized exactly via [`encoded_png_size`]).
    encoder: PngEncoder,
}

impl CinemaDatabase {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        CinemaDatabase {
            name: name.into(),
            entries: Vec::new(),
            encoder: PngEncoder::new(),
        }
    }

    /// Add an image captured at `timestep` / `sim_hours`.
    pub(crate) fn add_image(&mut self, timestep: u64, sim_hours: f64, img: &ImageBuffer) {
        let mut data = Vec::with_capacity(encoded_png_size(img.width(), img.height()) as usize);
        self.encoder.encode_into(img, &mut data);
        self.add_encoded(timestep, sim_hours, data);
    }

    /// Add an already-encoded PNG captured at `timestep` / `sim_hours` —
    /// the commit half of pipelines that encode frames on worker threads
    /// and append them to the index strictly in frame order. Produces the
    /// same entry (filename, bytes, index line) as [`CinemaDatabase::
    /// add_image`] given the same image.
    pub fn add_encoded(&mut self, timestep: u64, sim_hours: f64, data: Vec<u8>) {
        let filename = format!("ts_{timestep:08}.png");
        self.entries.push(CinemaEntry {
            timestep,
            sim_hours,
            filename,
            data,
        });
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry captured at exactly `timestep`, if any.
    ///
    /// Every executor appends frames in strictly increasing timestep
    /// order, so this is a binary search — the accessor sharded image
    /// indexes build on without re-sorting the database.
    pub fn entry_by_timestep(&self, timestep: u64) -> Option<&CinemaEntry> {
        self.entries
            .binary_search_by_key(&timestep, |e| e.timestep)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// A deterministic synthetic database for serving benchmarks and
    /// tests: `frames` images of `width x height`, one per `steps_per_frame`
    /// timesteps, each with content that varies by frame (a moving
    /// two-band gradient) so entries differ byte-for-byte. Purely a
    /// function of the arguments — same call, same bytes, any host.
    pub fn synthetic(
        name: impl Into<String>,
        frames: u64,
        width: usize,
        height: usize,
        steps_per_frame: u64,
    ) -> Self {
        let mut db = CinemaDatabase::new(name);
        let mut img = ImageBuffer::new(width, height);
        for f in 0..frames {
            for y in 0..height {
                for x in 0..width {
                    let phase = (x as u64 + y as u64 * 3 + f * 7) % 256;
                    img.set(
                        x,
                        y,
                        crate::color::Rgb {
                            r: phase as u8,
                            g: (y * 255 / height.max(1)) as u8,
                            b: (f % 251) as u8,
                        },
                    );
                }
            }
            let ts = f * steps_per_frame;
            db.add_image(ts, ts as f64 * 0.5, &img);
        }
        db
    }

    /// `true` iff no images have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[CinemaEntry] {
        &self.entries
    }

    /// Total bytes of all images plus the index — the database's storage
    /// footprint (the in-situ pipeline's `S_io`).
    pub fn total_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.data.len() as u64)
            .sum::<u64>()
            + self.index_json().len() as u64
    }

    /// The JSON index (hand-rolled; schema mirrors Cinema's `info.json`).
    pub fn index_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.entries.len() * 96);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", escape_json(&self.name)));
        out.push_str("  \"type\": \"simple\",\n");
        out.push_str("  \"arguments\": [\"timestep\", \"sim_hours\"],\n");
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"timestep\": {}, \"sim_hours\": {:.3}, \"file\": \"{}\", \"bytes\": {}}}{}\n",
                e.timestep,
                e.sim_hours,
                escape_json(&e.filename),
                e.data.len(),
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the database (images + `info.json`) to `dir`, creating it if
    /// needed.
    pub fn export_to_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for e in &self.entries {
            fs::write(dir.join(&e.filename), &e.data)?;
        }
        fs::write(dir.join("info.json"), self.index_json())?;
        Ok(())
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::png::encoded_png_size;

    fn img(w: usize, h: usize) -> ImageBuffer {
        ImageBuffer::new(w, h)
    }

    #[test]
    fn entries_accumulate_in_order() {
        let mut db = CinemaDatabase::new("eddies");
        db.add_image(0, 0.0, &img(4, 4));
        db.add_image(16, 8.0, &img(4, 4));
        assert_eq!(db.len(), 2);
        assert_eq!(db.entries()[0].filename, "ts_00000000.png");
        assert_eq!(db.entries()[1].filename, "ts_00000016.png");
        assert_eq!(db.entries()[1].sim_hours, 8.0);
    }

    #[test]
    fn total_bytes_counts_images_and_index() {
        let mut db = CinemaDatabase::new("x");
        db.add_image(0, 0.0, &img(8, 8));
        let image_bytes = encoded_png_size(8, 8);
        assert_eq!(db.total_bytes(), image_bytes + db.index_json().len() as u64);
    }

    #[test]
    fn index_json_is_well_formed() {
        let mut db = CinemaDatabase::new("my \"weird\" name");
        db.add_image(3, 1.5, &img(2, 2));
        let json = db.index_json();
        assert!(json.contains("\\\"weird\\\""));
        assert!(json.contains("\"timestep\": 3"));
        assert!(json.contains("ts_00000003.png"));
        // Crude structural checks: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_database_has_valid_index() {
        let db = CinemaDatabase::new("empty");
        assert!(db.is_empty());
        let json = db.index_json();
        assert!(json.contains("\"entries\": [\n  ]"));
        assert_eq!(db.total_bytes(), json.len() as u64);
    }

    #[test]
    fn export_writes_files() {
        let mut db = CinemaDatabase::new("exported");
        db.add_image(0, 0.0, &img(4, 4));
        db.add_image(1, 0.5, &img(4, 4));
        let dir = std::env::temp_dir().join(format!("ivis_cinema_test_{}", std::process::id()));
        db.export_to_dir(&dir).unwrap();
        assert!(dir.join("info.json").exists());
        assert!(dir.join("ts_00000000.png").exists());
        let on_disk = std::fs::read(dir.join("ts_00000001.png")).unwrap();
        assert_eq!(on_disk, db.entries()[1].data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timestep_lookup_finds_only_stored_frames() {
        let mut db = CinemaDatabase::new("lookup");
        for ts in [0u64, 16, 32, 48] {
            db.add_image(ts, ts as f64 / 2.0, &img(2, 2));
        }
        assert_eq!(
            db.entry_by_timestep(32).unwrap().filename,
            "ts_00000032.png"
        );
        assert!(db.entry_by_timestep(33).is_none());
    }

    #[test]
    fn synthetic_database_is_deterministic_and_distinct() {
        let a = CinemaDatabase::synthetic("s", 8, 6, 4, 16);
        let b = CinemaDatabase::synthetic("s", 8, 6, 4, 16);
        assert_eq!(a.len(), 8);
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.data, y.data, "same arguments, same bytes");
        }
        assert_ne!(
            a.entries()[0].data,
            a.entries()[1].data,
            "frames differ in content"
        );
        assert_eq!(a.entries()[3].timestep, 48);
    }

    #[test]
    fn json_escaping_handles_control_chars() {
        assert_eq!(escape_json("a\tb\nc"), "a\\tb\\nc");
        assert_eq!(escape_json("back\\slash"), "back\\\\slash");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
