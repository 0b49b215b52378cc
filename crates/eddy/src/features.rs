//! Per-eddy features.
//!
//! For each labeled component we compute a periodic-aware centroid (the x
//! direction wraps, so the centroid is taken on the circle), the area, an
//! equivalent radius, and the Okubo-Weiss minimum (core intensity).

use ivis_ocean::grid::Grid;
use ivis_ocean::Field2D;

use crate::segment::Segmentation;

/// Features of one identified eddy.
#[derive(Debug, Clone, PartialEq)]
pub struct EddyFeature {
    /// Dense component label within its frame.
    pub label: u32,
    /// Centroid x, meters (periodic-aware).
    pub x: f64,
    /// Centroid y, meters.
    pub y: f64,
    /// Core area, cells.
    pub area_cells: usize,
    /// Core area, m².
    pub area_m2: f64,
    /// Radius of the equal-area circle, meters.
    pub radius_m: f64,
    /// Minimum Okubo-Weiss value in the core (most negative = strongest).
    pub w_min: f64,
}

/// Extract features for every component of a segmentation.
pub fn extract_features(grid: &Grid, w: &Field2D, seg: &Segmentation) -> Vec<EddyFeature> {
    assert_eq!(
        (seg.nx, seg.ny),
        (grid.nx, grid.ny),
        "segmentation/grid mismatch"
    );
    let n = seg.num_components;
    if n == 0 {
        return Vec::new();
    }
    let lx = grid.nx as f64 * grid.dx;
    // Periodic centroid: average unit vectors on the circle for x.
    let mut sum_cos = vec![0.0; n];
    let mut sum_sin = vec![0.0; n];
    let mut sum_y = vec![0.0; n];
    let mut count = vec![0usize; n];
    let mut w_min = vec![f64::INFINITY; n];
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            if let Some(c) = seg.label(i, j) {
                let c = c as usize;
                let theta = 2.0 * std::f64::consts::PI * grid.x_center(i) / lx;
                sum_cos[c] += theta.cos();
                sum_sin[c] += theta.sin();
                sum_y[c] += grid.y_center(j);
                count[c] += 1;
                w_min[c] = w_min[c].min(w.get(i, j));
            }
        }
    }
    let cell_area = grid.dx * grid.dy;
    (0..n)
        .map(|c| {
            let theta = sum_sin[c].atan2(sum_cos[c]);
            let x = (theta / (2.0 * std::f64::consts::PI)).rem_euclid(1.0) * lx;
            let area_m2 = count[c] as f64 * cell_area;
            EddyFeature {
                label: c as u32,
                x,
                y: sum_y[c] / count[c] as f64,
                area_cells: count[c],
                area_m2,
                radius_m: (area_m2 / std::f64::consts::PI).sqrt(),
                w_min: w_min[c],
            }
        })
        .collect()
}

/// Distance between two centroids, honoring x-periodicity of width `lx`.
pub(crate) fn periodic_distance(a: &EddyFeature, b: &EddyFeature, lx: f64) -> f64 {
    let mut dx = (a.x - b.x).abs();
    if dx > lx / 2.0 {
        dx = lx - dx;
    }
    let dy = a.y - b.y;
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_eddies;

    fn gaussian_well(nx: usize, ny: usize, ci: f64, cj: f64) -> Field2D {
        Field2D::from_fn(nx, ny, |i, j| {
            let dx = i as f64 - ci;
            let dy = j as f64 - cj;
            -3.0 * (-(dx * dx + dy * dy) / 10.0).exp() + 0.05
        })
    }

    #[test]
    fn centroid_matches_well_center() {
        let grid = Grid::channel(32, 32, 1000.0);
        let w = gaussian_well(32, 32, 20.0, 12.0);
        let seg = segment_eddies(&w, 0.2, 1);
        let feats = extract_features(&grid, &w, &seg);
        assert_eq!(feats.len(), 1);
        let f = &feats[0];
        // Cell (20,12) center = (20500, 12500) m.
        assert!((f.x - 20_500.0).abs() < 1_500.0, "x={}", f.x);
        assert!((f.y - 12_500.0).abs() < 1_500.0, "y={}", f.y);
        assert!(f.w_min < -2.5);
        assert!(f.area_cells > 4);
        assert!((f.radius_m - (f.area_m2 / std::f64::consts::PI).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn centroid_wraps_across_boundary() {
        // Eddy centered at the seam (i ≈ 0): cells span both edges.
        let grid = Grid::channel(32, 16, 1000.0);
        let w = Field2D::from_fn(32, 16, |i, j| {
            let mut dx = (i as f64 - 0.0).abs();
            if dx > 16.0 {
                dx = 32.0 - dx;
            }
            let dy = j as f64 - 8.0;
            -3.0 * (-(dx * dx + dy * dy) / 8.0).exp() + 0.05
        });
        let seg = segment_eddies(&w, 0.2, 1);
        let feats = extract_features(&grid, &w, &seg);
        assert_eq!(feats.len(), 1);
        let f = &feats[0];
        let lx = 32_000.0;
        // Centroid must sit near x = 500 (cell 0 center) or wrap-equivalent.
        let d = (f.x - 500.0).abs().min(lx - (f.x - 500.0).abs());
        assert!(d < 1_500.0, "wrapped centroid x={}", f.x);
    }

    #[test]
    fn empty_segmentation_no_features() {
        let grid = Grid::channel(8, 8, 1000.0);
        let w = Field2D::filled(8, 8, 1.0);
        let seg = segment_eddies(&w, 0.2, 1);
        assert!(extract_features(&grid, &w, &seg).is_empty());
    }

    #[test]
    fn two_eddies_two_features() {
        let grid = Grid::channel(48, 24, 1000.0);
        let w = Field2D::from_fn(48, 24, |i, j| {
            let d1 = ((i as f64 - 10.0).powi(2) + (j as f64 - 12.0).powi(2)) / 6.0;
            let d2 = ((i as f64 - 34.0).powi(2) + (j as f64 - 12.0).powi(2)) / 6.0;
            -3.0 * (-d1).exp() - 3.0 * (-d2).exp() + 0.05
        });
        let seg = segment_eddies(&w, 0.2, 1);
        let feats = extract_features(&grid, &w, &seg);
        assert_eq!(feats.len(), 2);
        let mut xs: Vec<f64> = feats.iter().map(|f| f.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 10_500.0).abs() < 2_000.0);
        assert!((xs[1] - 34_500.0).abs() < 2_000.0);
    }

    #[test]
    fn periodic_distance_shortcuts_through_seam() {
        let a = EddyFeature {
            label: 0,
            x: 1_000.0,
            y: 0.0,
            area_cells: 1,
            area_m2: 1.0,
            radius_m: 1.0,
            w_min: -1.0,
        };
        let b = EddyFeature {
            label: 1,
            x: 31_000.0,
            y: 0.0,
            area_cells: 1,
            area_m2: 1.0,
            radius_m: 1.0,
            w_min: -1.0,
        };
        assert!((periodic_distance(&a, &b, 32_000.0) - 2_000.0).abs() < 1e-9);
        assert!((periodic_distance(&a, &b, 1e9) - 30_000.0).abs() < 1e-9);
    }
}
