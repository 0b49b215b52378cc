//! Eddy population statistics.
//!
//! Aggregates per-frame detections and finished tracks into the census
//! numbers an oceanographer reports: counts, sizes, intensities, lifetimes.
//! The paper's motivation for high sampling rates (eddies live for hundreds
//! of days while traveling hundreds of kilometers) is quantified by exactly
//! these statistics.

use crate::features::EddyFeature;
use crate::tracking::Track;

/// Summary of a single frame's detections.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameCensus {
    /// Number of eddies detected.
    pub count: usize,
    /// Mean equivalent radius, meters (0 if none).
    pub mean_radius_m: f64,
    /// Strongest core (most negative W; 0 if none).
    pub strongest_w: f64,
    /// Total core area, m².
    pub total_area_m2: f64,
}

/// Census over one frame.
pub fn frame_census(detections: &[EddyFeature]) -> FrameCensus {
    if detections.is_empty() {
        return FrameCensus {
            count: 0,
            mean_radius_m: 0.0,
            strongest_w: 0.0,
            total_area_m2: 0.0,
        };
    }
    FrameCensus {
        count: detections.len(),
        mean_radius_m: detections.iter().map(|d| d.radius_m).sum::<f64>() / detections.len() as f64,
        strongest_w: detections
            .iter()
            .map(|d| d.w_min)
            .fold(f64::INFINITY, f64::min),
        total_area_m2: detections.iter().map(|d| d.area_m2).sum(),
    }
}

/// Summary of a set of finished tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackCensus {
    /// Number of tracks.
    pub count: usize,
    /// Mean lifetime in frames.
    pub mean_lifetime_frames: f64,
    /// Longest lifetime in frames.
    pub max_lifetime_frames: u64,
    /// Mean path length, meters.
    pub mean_path_m: f64,
}

/// Census over finished tracks (`lx` = basin width for periodic distances).
pub fn track_census(tracks: &[Track], lx: f64) -> TrackCensus {
    if tracks.is_empty() {
        return TrackCensus {
            count: 0,
            mean_lifetime_frames: 0.0,
            max_lifetime_frames: 0,
            mean_path_m: 0.0,
        };
    }
    let lifetimes: Vec<u64> = tracks.iter().map(Track::lifetime_frames).collect();
    TrackCensus {
        count: tracks.len(),
        mean_lifetime_frames: lifetimes.iter().sum::<u64>() as f64 / tracks.len() as f64,
        max_lifetime_frames: *lifetimes.iter().max().expect("non-empty"),
        mean_path_m: tracks.iter().map(|t| t.path_length(lx)).sum::<f64>() / tracks.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracking::TrackPoint;

    fn det(x: f64, r: f64, w: f64) -> EddyFeature {
        EddyFeature {
            label: 0,
            x,
            y: 0.0,
            area_cells: 1,
            area_m2: std::f64::consts::PI * r * r,
            radius_m: r,
            w_min: w,
        }
    }

    #[test]
    fn frame_census_aggregates() {
        let c = frame_census(&[det(0.0, 10_000.0, -2.0), det(1.0, 20_000.0, -5.0)]);
        assert_eq!(c.count, 2);
        assert!((c.mean_radius_m - 15_000.0).abs() < 1e-9);
        assert_eq!(c.strongest_w, -5.0);
        assert!(c.total_area_m2 > 0.0);
    }

    #[test]
    fn empty_frame_census() {
        let c = frame_census(&[]);
        assert_eq!(c.count, 0);
        assert_eq!(c.mean_radius_m, 0.0);
    }

    fn track(id: u64, xs: &[f64]) -> Track {
        Track {
            id,
            points: xs
                .iter()
                .enumerate()
                .map(|(f, &x)| TrackPoint {
                    frame: f as u64,
                    feature: det(x, 1_000.0, -1.0),
                })
                .collect(),
        }
    }

    #[test]
    fn track_census_aggregates() {
        let tracks = vec![track(0, &[0.0, 10_000.0, 20_000.0]), track(1, &[0.0])];
        let c = track_census(&tracks, 1e9);
        assert_eq!(c.count, 2);
        assert!((c.mean_lifetime_frames - 2.0).abs() < 1e-9);
        assert_eq!(c.max_lifetime_frames, 3);
        assert!((c.mean_path_m - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_track_census() {
        let c = track_census(&[], 1e9);
        assert_eq!(c.count, 0);
        assert_eq!(c.max_lifetime_frames, 0);
    }
}
