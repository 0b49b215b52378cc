//! Tracking-quality metrics versus temporal sampling.
//!
//! The paper's scientific motivation for high sampling rates: "understanding
//! the simulation becomes difficult when the sampling frequency gets too
//! low". These metrics quantify *how* tracking degrades when frames are
//! dropped: re-run the tracker on every `stride`-th frame of a reference
//! detection sequence and compare against the dense tracks (identity
//! fragmentation, count recall, displacement error).

use crate::features::EddyFeature;
use crate::tracking::{EddyTracker, Track};

/// A detection sequence: per-frame feature lists (frame index = position).
pub type DetectionSequence = Vec<Vec<EddyFeature>>;

/// Quality of tracking at a given temporal stride, relative to dense
/// tracking of the same detections.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingQuality {
    /// The stride evaluated (1 = every frame).
    pub stride: usize,
    /// Tracks found at this stride.
    pub tracks: usize,
    /// Tracks found at stride 1 (the reference).
    pub tracks_dense: usize,
    /// Fragmentation: tracks / dense tracks (1.0 = perfect; > 1 means
    /// identities were split; < 1 means eddies were missed entirely).
    pub fragmentation: f64,
    /// Mean per-hop centroid displacement at this stride, meters — large
    /// values mean the gating assumption is breaking down.
    pub mean_hop_m: f64,
}

/// Re-track a detection sequence at `stride`, using tracker settings
/// `(gate_m, max_gap, lx)`.
pub(crate) fn track_at_stride(
    detections: &DetectionSequence,
    stride: usize,
    gate_m: f64,
    max_gap: u64,
    lx: f64,
) -> Vec<Track> {
    assert!(stride >= 1, "stride must be at least 1");
    let mut tracker = EddyTracker::new(gate_m, max_gap, lx);
    for (frame, dets) in detections.iter().step_by(stride).enumerate() {
        tracker.observe(frame as u64, dets);
    }
    tracker.finish()
}

/// Evaluate tracking quality across a set of strides.
pub fn sampling_sweep(
    detections: &DetectionSequence,
    strides: &[usize],
    gate_m: f64,
    max_gap: u64,
    lx: f64,
) -> Vec<SamplingQuality> {
    let dense = track_at_stride(detections, 1, gate_m, max_gap, lx);
    let dense_count = dense.len().max(1);
    strides
        .iter()
        .map(|&stride| {
            let tracks = track_at_stride(detections, stride, gate_m, max_gap, lx);
            let hops: Vec<f64> = tracks
                .iter()
                .flat_map(|t| {
                    t.points.windows(2).map(|w| {
                        crate::features::periodic_distance(&w[0].feature, &w[1].feature, lx)
                    })
                })
                .collect();
            let mean_hop_m = if hops.is_empty() {
                0.0
            } else {
                hops.iter().sum::<f64>() / hops.len() as f64
            };
            SamplingQuality {
                stride,
                tracks: tracks.len(),
                tracks_dense: dense.len(),
                fragmentation: tracks.len() as f64 / dense_count as f64,
                mean_hop_m,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x: f64, y: f64) -> EddyFeature {
        EddyFeature {
            label: 0,
            x,
            y,
            area_cells: 10,
            area_m2: 1e8,
            radius_m: 5_000.0,
            w_min: -1.0,
        }
    }

    const LX: f64 = 10_000_000.0;

    /// Two eddies drifting steadily for `frames` frames.
    fn drifting_pair(frames: usize, step_m: f64) -> DetectionSequence {
        (0..frames)
            .map(|f| {
                vec![
                    det(100_000.0 + f as f64 * step_m, 200_000.0),
                    det(500_000.0 - f as f64 * step_m, 800_000.0),
                ]
            })
            .collect()
    }

    #[test]
    fn dense_tracking_is_the_reference() {
        let seq = drifting_pair(20, 10_000.0);
        let q = sampling_sweep(&seq, &[1], 25_000.0, 1, LX);
        assert_eq!(q[0].tracks, 2);
        assert_eq!(q[0].fragmentation, 1.0);
        assert!((q[0].mean_hop_m - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn coarse_sampling_fragments_tracks() {
        // Hops of 10 km per frame, gate 25 km: stride 2 (20 km) still holds,
        // stride 4 (40 km) breaks every association.
        let seq = drifting_pair(20, 10_000.0);
        let q = sampling_sweep(&seq, &[2, 4], 25_000.0, 1, LX);
        assert_eq!(q[0].stride, 2);
        assert_eq!(q[0].tracks, 2, "stride 2 keeps identities");
        assert!(
            q[1].tracks > 2,
            "stride 4 must fragment: {} tracks",
            q[1].tracks
        );
        assert!(q[1].fragmentation > 1.0);
    }

    #[test]
    fn hop_distance_scales_with_stride() {
        let seq = drifting_pair(30, 5_000.0);
        let q = sampling_sweep(&seq, &[1, 2, 3], 100_000.0, 1, LX);
        assert!((q[0].mean_hop_m - 5_000.0).abs() < 1.0);
        assert!((q[1].mean_hop_m - 10_000.0).abs() < 1.0);
        assert!((q[2].mean_hop_m - 15_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_sequence_is_graceful() {
        let seq: DetectionSequence = vec![vec![], vec![], vec![]];
        let q = sampling_sweep(&seq, &[1, 2], 10_000.0, 1, LX);
        assert_eq!(q[0].tracks, 0);
        assert_eq!(q[0].mean_hop_m, 0.0);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        let _ = track_at_stride(&vec![], 0, 1.0, 1, LX);
    }
}
