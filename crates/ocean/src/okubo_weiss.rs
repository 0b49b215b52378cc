//! The Okubo-Weiss diagnostic.
//!
//! `W = s_n² + s_s² − ω²`, where `s_n = ∂u/∂x − ∂v/∂y` (normal strain),
//! `s_s = ∂v/∂x + ∂u/∂y` (shear strain) and `ω = ∂v/∂x − ∂u/∂y` (relative
//! vorticity). Rotation-dominated regions (eddy cores) have `W < 0`; strain-
//! dominated regions (the shear around eddies) have `W > 0`. The paper's
//! visualization colors exactly this field (green = rotation, blue = shear),
//! and eddy identification thresholds it at `W < −0.2 σ_W` (Woodring et al.).

use crate::field::Field2D;
use crate::grid::Grid;

/// Compute the Okubo-Weiss field from cell-centered velocities.
///
/// Derivatives are central differences, periodic in x and one-sided at the
/// y walls.
///
/// # Panics
/// Panics if the field shapes disagree with the grid.
pub fn okubo_weiss(grid: &Grid, uc: &Field2D, vc: &Field2D) -> Field2D {
    let mut w = Field2D::zeros(grid.nx, grid.ny);
    okubo_weiss_into(grid, uc, vc, &mut w);
    w
}

/// [`okubo_weiss`] into a caller-provided buffer — allocation-free for
/// pipelines that recycle snapshots. Identical values and iteration order.
///
/// # Panics
/// Panics if any field shape disagrees with the grid.
pub fn okubo_weiss_into(grid: &Grid, uc: &Field2D, vc: &Field2D, w: &mut Field2D) {
    assert_eq!((uc.nx(), uc.ny()), (grid.nx, grid.ny), "u shape mismatch");
    assert_eq!((vc.nx(), vc.ny()), (grid.nx, grid.ny), "v shape mismatch");
    assert_eq!((w.nx(), w.ny()), (grid.nx, grid.ny), "w shape mismatch");
    let (nx, ny) = (grid.nx, grid.ny);
    let (dx, dy) = (grid.dx, grid.dy);
    for (j, row) in w.data_mut().chunks_mut(nx).enumerate() {
        let (jm, jp, denom_y) = if j == 0 {
            (0, 1, dy)
        } else if j == ny - 1 {
            (ny - 2, ny - 1, dy)
        } else {
            (j - 1, j + 1, 2.0 * dy)
        };
        for (i, out) in row.iter_mut().enumerate() {
            let ii = i as isize;
            let dudx = (uc.get_wrap_x(ii + 1, j) - uc.get_wrap_x(ii - 1, j)) / (2.0 * dx);
            let dvdx = (vc.get_wrap_x(ii + 1, j) - vc.get_wrap_x(ii - 1, j)) / (2.0 * dx);
            let dudy = (uc.get(i, jp) - uc.get(i, jm)) / denom_y;
            let dvdy = (vc.get(i, jp) - vc.get(i, jm)) / denom_y;
            let sn = dudx - dvdy;
            let ss = dvdx + dudy;
            let omega = dvdx - dudy;
            *out = sn * sn + ss * ss - omega * omega;
        }
    }
}

/// The eddy threshold of Woodring et al.: cells with `W < −k·σ_W` are
/// rotation-dominated cores (`k = 0.2` in the paper's pipeline).
pub fn eddy_threshold(w: &Field2D, k: f64) -> f64 {
    -k * w.std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shallow_water::{ShallowWaterModel, SwParams};
    use crate::vortex::{seed_vortex, Vortex};

    #[test]
    fn solid_body_rotation_is_negative_w() {
        // u = -ω0·(y−yc), v = ω0·(x−xc): pure rotation, W = −ω0²·4... with
        // sn = 0, ss = 0, ω = 2ω0 ⇒ W = −4ω0².
        let grid = Grid::channel(32, 32, 1000.0);
        let (lx, ly) = grid.extent();
        let om = 1e-4;
        let uc = Field2D::from_fn(32, 32, |_, j| -om * (grid.y_center(j) - ly / 2.0));
        let vc = Field2D::from_fn(32, 32, |i, _| om * (grid.x_center(i) - lx / 2.0));
        let w = okubo_weiss(&grid, &uc, &vc);
        // Interior cells (x periodicity corrupts the edges of this
        // non-periodic test field).
        let mid = w.get(16, 16);
        assert!(
            (mid + 4.0 * om * om).abs() < 1e-12,
            "expected W = -4ω² = {}, got {mid}",
            -4.0 * om * om
        );
    }

    #[test]
    fn pure_shear_is_positive_w() {
        // u = γ·y, v = 0: sn=0, ss=γ, ω=−γ ⇒ W = γ² − γ² = 0 for pure shear?
        // No: ss² − ω² = 0. Pure *strain* instead: u = γx, v = −γy ⇒ sn=2γ,
        // ω=0 ⇒ W = 4γ² > 0.
        let grid = Grid::channel(32, 32, 1000.0);
        let (lx, ly) = grid.extent();
        let gamma = 1e-5;
        let uc = Field2D::from_fn(32, 32, |i, _| gamma * (grid.x_center(i) - lx / 2.0));
        let vc = Field2D::from_fn(32, 32, |_, j| -gamma * (grid.y_center(j) - ly / 2.0));
        let w = okubo_weiss(&grid, &uc, &vc);
        let mid = w.get(16, 16);
        assert!((mid - 4.0 * gamma * gamma).abs() < 1e-14, "got {mid}");
    }

    #[test]
    fn quiescent_flow_is_zero() {
        let grid = Grid::tiny();
        let uc = Field2D::zeros(grid.nx, grid.ny);
        let vc = Field2D::zeros(grid.nx, grid.ny);
        let w = okubo_weiss(&grid, &uc, &vc);
        assert_eq!(w.max_abs(), 0.0);
    }

    #[test]
    fn seeded_eddy_core_is_rotation_dominated() {
        let grid = Grid::channel(48, 32, 60_000.0);
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        let (lx, ly) = m.grid().extent();
        seed_vortex(
            &mut m,
            &Vortex {
                x: lx / 2.0,
                y: ly / 2.0,
                radius: 150_000.0,
                amplitude: 1.0,
            },
        );
        let (uc, vc) = m.centered_velocities();
        let w = okubo_weiss(m.grid(), &uc, &vc);
        // Core cell must be below the eddy threshold; the surrounding ring
        // must contain strain-dominated (positive) cells.
        let (ci, cj) = (m.grid().nx / 2, m.grid().ny / 2);
        let thr = eddy_threshold(&w, 0.2);
        assert!(w.get(ci, cj) < thr, "core W={} thr={thr}", w.get(ci, cj));
        assert!(w.max() > 0.0, "strain ring expected");
        let frac = w.data().iter().filter(|&&x| x < thr).count() as f64 / w.data().len() as f64;
        assert!(frac > 0.0 && frac < 0.5, "eddy fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_rejected() {
        let grid = Grid::tiny();
        let uc = Field2D::zeros(grid.nx + 1, grid.ny);
        let vc = Field2D::zeros(grid.nx, grid.ny);
        let _ = okubo_weiss(&grid, &uc, &vc);
    }
}
