//! The staggered Arakawa C grid and basin geometry.
//!
//! The basin is a mid-latitude channel: **periodic in x** (like a
//! circumpolar current), **solid walls in y**. The Coriolis parameter varies
//! linearly with y (β-plane): `f(y) = f0 + β·y`, which is what lets the
//! model produce realistic westward-drifting eddies.

/// Basin geometry and rotation.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Number of cells in x (periodic direction).
    pub nx: usize,
    /// Number of cells in y.
    pub ny: usize,
    /// Cell size in x, meters.
    pub dx: f64,
    /// Cell size in y, meters.
    pub dy: f64,
    /// Coriolis parameter at the basin's southern edge, 1/s.
    pub f0: f64,
    /// β = df/dy, 1/(m·s).
    pub beta: f64,
}

impl Grid {
    /// A mid-latitude β-plane channel with square cells of `d` meters.
    ///
    /// Defaults: `f0 = 1e-4 s⁻¹` (≈45° N), `β = 2e-11 (m·s)⁻¹`.
    pub fn channel(nx: usize, ny: usize, d: f64) -> Self {
        assert!(nx >= 4 && ny >= 4, "grid too small for the C-grid stencils");
        assert!(d > 0.0, "cell size must be positive");
        Grid {
            nx,
            ny,
            dx: d,
            dy: d,
            f0: 1e-4,
            beta: 2e-11,
        }
    }

    /// Small grid for fast tests.
    #[cfg(test)]
    pub(crate) fn tiny() -> Self {
        Grid::channel(16, 12, 60_000.0)
    }

    /// Total cell count.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Basin extent in meters, `(Lx, Ly)`.
    pub fn extent(&self) -> (f64, f64) {
        (self.nx as f64 * self.dx, self.ny as f64 * self.dy)
    }

    /// Coriolis parameter at the center of row `j`.
    pub(crate) fn coriolis(&self, j: usize) -> f64 {
        self.f0 + self.beta * (j as f64 + 0.5) * self.dy
    }

    /// Coriolis parameter at the y-face below row `j` (v-points).
    pub(crate) fn coriolis_at_vface(&self, j: usize) -> f64 {
        self.f0 + self.beta * j as f64 * self.dy
    }

    /// x-coordinate of the center of column `i`, meters.
    pub fn x_center(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.dx
    }

    /// y-coordinate of the center of row `j`, meters.
    pub fn y_center(&self, j: usize) -> f64 {
        (j as f64 + 0.5) * self.dy
    }

    /// The maximum stable timestep for gravity-wave speed `c = sqrt(gH)`
    /// under the forward–backward scheme (with a 0.5 safety factor).
    pub(crate) fn max_stable_dt(&self, g: f64, depth: f64) -> f64 {
        let c = (g * depth).sqrt();
        0.5 * self.dx.min(self.dy) / (c * std::f64::consts::SQRT_2)
    }

    /// Per-row Coriolis parameter at cell centers, `f[j] = coriolis(j)` for
    /// `j in 0..ny`. The solver hoists this out of its per-cell hot loop;
    /// values are exactly [`Grid::coriolis`]'s, entry for entry.
    pub(crate) fn coriolis_center_table(&self) -> Vec<f64> {
        (0..self.ny).map(|j| self.coriolis(j)).collect()
    }

    /// Per-row Coriolis parameter at v-faces, `f[j] = coriolis_at_vface(j)`
    /// for `j in 0..=ny` (one entry per face row, walls included).
    pub(crate) fn coriolis_vface_table(&self) -> Vec<f64> {
        (0..=self.ny).map(|j| self.coriolis_at_vface(j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_and_counts() {
        let g = Grid::channel(10, 5, 1000.0);
        assert_eq!(g.num_cells(), 50);
        assert_eq!(g.extent(), (10_000.0, 5_000.0));
    }

    #[test]
    fn coriolis_increases_northward() {
        let g = Grid::channel(256, 128, 60_000.0);
        assert!(g.coriolis(10) < g.coriolis(100));
        assert!(g.coriolis(0) > 0.0);
        // v-face value sits below the first cell center.
        assert!(g.coriolis_at_vface(0) < g.coriolis(0));
    }

    #[test]
    fn centers_are_offset_half_cell() {
        let g = Grid::channel(8, 8, 100.0);
        assert_eq!(g.x_center(0), 50.0);
        assert_eq!(g.y_center(3), 350.0);
    }

    #[test]
    fn stable_dt_is_sane_for_60_km_cells() {
        let g = Grid::channel(256, 128, 60_000.0);
        let dt = g.max_stable_dt(9.81, 1000.0);
        // c ≈ 99 m/s, dx = 60 km ⇒ dt ≈ 214 s.
        assert!(dt > 100.0 && dt < 400.0, "dt={dt}");
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn tiny_grids_rejected() {
        let _ = Grid::channel(2, 2, 100.0);
    }

    #[test]
    fn coriolis_tables_match_pointwise_formulas() {
        let g = Grid::channel(8, 6, 50_000.0);
        let centers = g.coriolis_center_table();
        let vfaces = g.coriolis_vface_table();
        assert_eq!(centers.len(), 6);
        assert_eq!(vfaces.len(), 7);
        for (j, c) in centers.iter().enumerate() {
            assert_eq!(c.to_bits(), g.coriolis(j).to_bits());
        }
        for (j, f) in vfaces.iter().enumerate() {
            assert_eq!(f.to_bits(), g.coriolis_at_vface(j).to_bits());
        }
    }
}
