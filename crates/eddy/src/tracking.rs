//! Frame-to-frame eddy tracking.
//!
//! Greedy nearest-centroid association with a gating radius: each new
//! detection is matched to the closest live track whose last position lies
//! within the gate; unmatched detections start new tracks; tracks missing
//! for more than `max_gap` frames are closed. This is the standard baseline
//! tracker for ocean-eddy censuses (eddies live for hundreds of days and
//! move slowly, so gating works well).

use crate::features::{periodic_distance, EddyFeature};

/// One observation of an eddy along a track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackPoint {
    /// Frame index (output sample number).
    pub frame: u64,
    /// The detection.
    pub feature: EddyFeature,
}

/// A tracked eddy: its observations in frame order.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Stable track id.
    pub id: u64,
    /// Observations.
    pub points: Vec<TrackPoint>,
}

impl Track {
    /// Number of frames between first and last observation, inclusive.
    pub fn lifetime_frames(&self) -> u64 {
        match (self.points.first(), self.points.last()) {
            (Some(f), Some(l)) => l.frame - f.frame + 1,
            _ => 0,
        }
    }

    /// Total centroid path length, meters (periodic in x over `lx`).
    pub(crate) fn path_length(&self, lx: f64) -> f64 {
        self.points
            .windows(2)
            .map(|w| periodic_distance(&w[0].feature, &w[1].feature, lx))
            .sum()
    }
}

/// The tracker.
///
/// ```
/// use ivis_eddy::features::EddyFeature;
/// use ivis_eddy::tracking::EddyTracker;
///
/// let det = |x: f64| EddyFeature {
///     label: 0, x, y: 0.0, area_cells: 9,
///     area_m2: 9e8, radius_m: 17_000.0, w_min: -1.0,
/// };
/// let mut tracker = EddyTracker::new(50_000.0, 1, 1.0e7);
/// let a = tracker.observe(0, &[det(100_000.0)]);
/// let b = tracker.observe(1, &[det(120_000.0)]); // drifted 20 km: same eddy
/// assert_eq!(a, b);
/// assert_eq!(tracker.finish().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EddyTracker {
    /// Maximum association distance, meters.
    pub gate_m: f64,
    /// Frames a track may go unobserved before it is closed.
    pub max_gap: u64,
    /// Basin width, meters (for periodic distances).
    pub lx: f64,
    next_id: u64,
    live: Vec<Track>,
    closed: Vec<Track>,
}

impl EddyTracker {
    /// Create a tracker.
    pub fn new(gate_m: f64, max_gap: u64, lx: f64) -> Self {
        assert!(gate_m > 0.0, "gate must be positive");
        EddyTracker {
            gate_m,
            max_gap,
            lx,
            next_id: 0,
            live: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Feed the detections of frame `frame` (frames must be fed in
    /// increasing order). Returns the ids assigned to each detection, in
    /// input order.
    pub fn observe(&mut self, frame: u64, detections: &[EddyFeature]) -> Vec<u64> {
        // Close stale tracks first.
        let (still_live, newly_closed): (Vec<Track>, Vec<Track>) =
            self.live.drain(..).partition(|t| {
                t.points
                    .last()
                    .is_some_and(|p| frame - p.frame <= self.max_gap)
            });
        self.live = still_live;
        self.closed.extend(newly_closed);

        // Build candidate (distance, track_idx, det_idx) pairs inside the gate.
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for (ti, track) in self.live.iter().enumerate() {
            let last = &track
                .points
                .last()
                .expect("live tracks are non-empty")
                .feature;
            for (di, det) in detections.iter().enumerate() {
                let d = periodic_distance(last, det, self.lx);
                if d <= self.gate_m {
                    candidates.push((d, ti, di));
                }
            }
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are finite"));
        let mut track_used = vec![false; self.live.len()];
        let mut det_assigned: Vec<Option<u64>> = vec![None; detections.len()];
        for (_, ti, di) in candidates {
            if track_used[ti] || det_assigned[di].is_some() {
                continue;
            }
            track_used[ti] = true;
            let track = &mut self.live[ti];
            track.points.push(TrackPoint {
                frame,
                feature: detections[di].clone(),
            });
            det_assigned[di] = Some(track.id);
        }
        // Unmatched detections start new tracks.
        for (di, det) in detections.iter().enumerate() {
            if det_assigned[di].is_none() {
                let id = self.next_id;
                self.next_id += 1;
                self.live.push(Track {
                    id,
                    points: vec![TrackPoint {
                        frame,
                        feature: det.clone(),
                    }],
                });
                det_assigned[di] = Some(id);
            }
        }
        det_assigned
            .into_iter()
            .map(|x| x.expect("all assigned"))
            .collect()
    }

    /// Close all live tracks and return everything, ordered by id.
    pub fn finish(mut self) -> Vec<Track> {
        self.closed.append(&mut self.live);
        self.closed.sort_by_key(|t| t.id);
        self.closed
    }
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

    const LX: f64 = 1_000_000.0;

    #[test]
    fn single_eddy_tracked_across_frames() {
        let mut tr = EddyTracker::new(50_000.0, 1, LX);
        let ids0 = tr.observe(0, &[det(100_000.0, 50_000.0)]);
        let ids1 = tr.observe(1, &[det(110_000.0, 52_000.0)]);
        let ids2 = tr.observe(2, &[det(120_000.0, 54_000.0)]);
        assert_eq!(ids0, ids1);
        assert_eq!(ids1, ids2);
        let tracks = tr.finish();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].lifetime_frames(), 3);
        assert!(tracks[0].path_length(LX) > 19_000.0);
    }

    #[test]
    fn far_detection_starts_new_track() {
        let mut tr = EddyTracker::new(20_000.0, 1, LX);
        tr.observe(0, &[det(100_000.0, 50_000.0)]);
        let ids = tr.observe(1, &[det(500_000.0, 50_000.0)]);
        let tracks = tr.finish();
        assert_eq!(tracks.len(), 2);
        assert_ne!(ids[0], tracks[0].id.min(tracks[1].id).wrapping_add(99));
    }

    #[test]
    fn two_eddies_keep_identities() {
        let mut tr = EddyTracker::new(30_000.0, 1, LX);
        let a0 = det(100_000.0, 50_000.0);
        let b0 = det(300_000.0, 80_000.0);
        let ids0 = tr.observe(0, &[a0, b0]);
        // Next frame, both drift slightly; order reversed in the input.
        let b1 = det(305_000.0, 81_000.0);
        let a1 = det(104_000.0, 51_000.0);
        let ids1 = tr.observe(1, &[b1, a1]);
        assert_eq!(ids0[0], ids1[1], "eddy A keeps its id");
        assert_eq!(ids0[1], ids1[0], "eddy B keeps its id");
    }

    #[test]
    fn gap_tolerance_bridges_missing_frames() {
        let mut tr = EddyTracker::new(30_000.0, 2, LX);
        let ids0 = tr.observe(0, &[det(100_000.0, 50_000.0)]);
        tr.observe(1, &[]); // missed detection
        let ids2 = tr.observe(2, &[det(108_000.0, 50_000.0)]);
        assert_eq!(ids0, ids2, "track should survive a one-frame gap");
        assert_eq!(tr.finish().len(), 1);
    }

    #[test]
    fn stale_tracks_close_after_max_gap() {
        let mut tr = EddyTracker::new(30_000.0, 1, LX);
        let ids0 = tr.observe(0, &[det(100_000.0, 50_000.0)]);
        tr.observe(1, &[]);
        tr.observe(2, &[]);
        let ids3 = tr.observe(3, &[det(100_000.0, 50_000.0)]);
        assert_ne!(ids0, ids3, "old track must have closed");
        assert_eq!(tr.finish().len(), 2);
    }

    #[test]
    fn tracking_wraps_across_periodic_seam() {
        let mut tr = EddyTracker::new(30_000.0, 1, LX);
        let ids0 = tr.observe(0, &[det(LX - 5_000.0, 50_000.0)]);
        let ids1 = tr.observe(1, &[det(5_000.0, 50_000.0)]); // crossed the seam
        assert_eq!(ids0, ids1);
    }

    #[test]
    fn greedy_matching_prefers_nearest() {
        let mut tr = EddyTracker::new(100_000.0, 1, LX);
        tr.observe(0, &[det(100_000.0, 50_000.0)]);
        // Two candidates in gate; the closer one must extend the track.
        let ids = tr.observe(1, &[det(160_000.0, 50_000.0), det(110_000.0, 50_000.0)]);
        let tracks = tr.finish();
        let t0 = tracks.iter().find(|t| t.points.len() == 2).unwrap();
        assert_eq!(t0.points[1].feature.x, 110_000.0);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn empty_frames_are_fine() {
        let mut tr = EddyTracker::new(10_000.0, 1, LX);
        assert!(tr.observe(0, &[]).is_empty());
        assert!(tr.finish().is_empty());
    }
}
