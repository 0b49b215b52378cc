//! Seeding of geostrophically balanced eddies.
//!
//! An ocean eddy is, to leading order, a geostrophic vortex: the pressure
//! gradient of its raised (anticyclone) or depressed (cyclone) surface
//! balances the Coriolis force. Seeding balanced Gaussians gives the solver
//! realistic, long-lived eddies — the structures the paper's visualization
//! task identifies and tracks.

use ivis_sim::SimRng;

use crate::shallow_water::ShallowWaterModel;

/// A Gaussian eddy: `h(r) = A · exp(−r² / 2R²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vortex {
    /// Center x, meters.
    pub x: f64,
    /// Center y, meters.
    pub y: f64,
    /// e-folding radius R, meters.
    pub radius: f64,
    /// Surface amplitude A, meters (positive = anticyclone on the northern
    /// hemisphere β-plane, negative = cyclone).
    pub amplitude: f64,
}

impl Vortex {
    /// Surface elevation contribution at `(x, y)`, accounting for the
    /// basin's periodicity in x (width `lx`).
    pub(crate) fn h_at(&self, x: f64, y: f64, lx: f64) -> f64 {
        let mut dx = (x - self.x).abs();
        if dx > lx / 2.0 {
            dx = lx - dx; // wrap through the periodic boundary
        }
        let dy = y - self.y;
        let r2 = dx * dx + dy * dy;
        self.amplitude * (-r2 / (2.0 * self.radius * self.radius)).exp()
    }
}

/// Add one balanced vortex to the model state.
///
/// The surface field is superposed and the velocities are set to geostrophic
/// balance with the *total* (new) surface field:
/// `u = −(g/f) ∂h/∂y`, `v = +(g/f) ∂h/∂x`, evaluated at the staggered
/// points by central differences.
pub fn seed_vortex(model: &mut ShallowWaterModel, vortex: &Vortex) {
    seed_vortices(model, std::slice::from_ref(vortex));
}

/// Add several balanced vortices at once.
pub(crate) fn seed_vortices(model: &mut ShallowWaterModel, vortices: &[Vortex]) {
    let grid = model.grid().clone();
    let g = model.params().g;
    let (lx, _) = grid.extent();
    // 1. superpose surface anomalies at the cell centers
    {
        let h = &mut model.state_mut().h;
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                let mut acc = h.get(i, j);
                for v in vortices {
                    acc += v.h_at(grid.x_center(i), grid.y_center(j), lx);
                }
                h.set(i, j, acc);
            }
        }
    }
    // 2. geostrophic velocities from the total surface field
    let h = model.state().h.clone();
    {
        let u = &mut model.state_mut().u;
        for j in 0..grid.ny {
            let f = grid.coriolis(j);
            for i in 0..grid.nx {
                // u-point: west face of (i,j). ∂h/∂y by averaging the two
                // adjacent columns' central differences.
                let jm = j.saturating_sub(1);
                let jp = (j + 1).min(grid.ny - 1);
                let span = (jp - jm) as f64 * grid.dy;
                if span == 0.0 {
                    continue;
                }
                let ii = i as isize;
                let dhdy = 0.5
                    * ((h.get_wrap_x(ii, jp) - h.get_wrap_x(ii, jm))
                        + (h.get_wrap_x(ii - 1, jp) - h.get_wrap_x(ii - 1, jm)))
                    / span;
                u.set(i, j, -(g / f) * dhdy);
            }
        }
    }
    {
        let v = &mut model.state_mut().v;
        for j in 1..grid.ny {
            let f = grid.coriolis_at_vface(j);
            for i in 0..grid.nx {
                // v-point: south face of (i,j). ∂h/∂x averaged over the two
                // adjacent rows.
                let ii = i as isize;
                let dhdx = 0.5
                    * ((h.get_wrap_x(ii + 1, j) - h.get_wrap_x(ii - 1, j))
                        + (h.get_wrap_x(ii + 1, j - 1) - h.get_wrap_x(ii - 1, j - 1)))
                    / (2.0 * grid.dx);
                v.set(i, j, (g / f) * dhdx);
            }
        }
    }
}

/// Scatter `count` random eddies over the interior of the basin,
/// deterministic in `seed`. Radii, amplitudes and polarity vary; eddies are
/// kept away from the walls by one diameter.
pub fn seed_random_eddies(model: &mut ShallowWaterModel, count: usize, seed: u64) -> Vec<Vortex> {
    let mut rng = SimRng::new(seed);
    let (lx, ly) = model.grid().extent();
    // Radii scale with the basin so small test domains stay valid: an eddy
    // never exceeds a fifth of the meridional extent.
    let r_hi = (ly / 5.0).min(200_000.0);
    let r_lo = (r_hi * 0.4).min(80_000.0);
    let vortices: Vec<Vortex> = (0..count)
        .map(|_| {
            let radius = rng.uniform_range(r_lo, r_hi);
            let amplitude =
                rng.uniform_range(0.3, 1.2) * if rng.uniform() < 0.5 { 1.0 } else { -1.0 };
            Vortex {
                x: rng.uniform_range(0.0, lx),
                y: rng.uniform_range(2.0 * radius, ly - 2.0 * radius),
                radius,
                amplitude,
            }
        })
        .collect();
    seed_vortices(model, &vortices);
    vortices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::shallow_water::SwParams;

    fn model() -> ShallowWaterModel {
        let grid = Grid::channel(48, 32, 60_000.0);
        let params = SwParams::eddy_channel(&grid);
        ShallowWaterModel::new(grid, params)
    }

    #[test]
    fn vortex_h_peaks_at_center() {
        let v = Vortex {
            x: 100.0,
            y: 200.0,
            radius: 50.0,
            amplitude: 2.0,
        };
        assert_eq!(v.h_at(100.0, 200.0, 1e9), 2.0);
        assert!(v.h_at(100.0 + 50.0, 200.0, 1e9) < 2.0);
        // One e-folding radius: A·exp(-1/2).
        let at_r = v.h_at(150.0, 200.0, 1e9);
        assert!((at_r - 2.0 * (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn periodic_wrap_in_x() {
        let v = Vortex {
            x: 10.0,
            y: 0.0,
            radius: 30.0,
            amplitude: 1.0,
        };
        let lx = 1000.0;
        // Point at x=990 is only 20 away through the boundary.
        assert!((v.h_at(990.0, 0.0, lx) - v.h_at(30.0, 0.0, lx)).abs() < 1e-12);
    }

    #[test]
    fn seeded_vortex_rotates() {
        let mut m = model();
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
        assert!(m.max_speed() > 0.01, "geostrophic flow expected");
        // Anticyclone (A>0, f>0): clockwise. North of center u > 0.
        let j_north = (m.grid().ny * 3) / 4;
        let i_mid = m.grid().nx / 2;
        let u_north = m.state().u.get(i_mid, j_north);
        assert!(
            u_north > 0.0,
            "u north of an anticyclone should be eastward"
        );
    }

    #[test]
    fn cyclone_rotates_opposite() {
        let mut m = model();
        let (lx, ly) = m.grid().extent();
        seed_vortex(
            &mut m,
            &Vortex {
                x: lx / 2.0,
                y: ly / 2.0,
                radius: 150_000.0,
                amplitude: -1.0,
            },
        );
        let j_north = (m.grid().ny * 3) / 4;
        let i_mid = m.grid().nx / 2;
        assert!(m.state().u.get(i_mid, j_north) < 0.0);
    }

    #[test]
    fn superposition_adds() {
        let mut m1 = model();
        let (lx, ly) = m1.grid().extent();
        let v1 = Vortex {
            x: lx * 0.25,
            y: ly * 0.5,
            radius: 100_000.0,
            amplitude: 1.0,
        };
        let v2 = Vortex {
            x: lx * 0.75,
            y: ly * 0.5,
            radius: 100_000.0,
            amplitude: -0.5,
        };
        seed_vortices(&mut m1, &[v1, v2]);
        let h_both = m1.state().h.clone();
        let mut m2 = model();
        seed_vortex(&mut m2, &v1);
        seed_vortex(&mut m2, &v2);
        // h superposes exactly (velocities differ slightly because balance
        // is computed against the total field each time).
        for (a, b) in h_both.data().iter().zip(m2.state().h.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn random_eddies_deterministic_and_in_bounds() {
        let mut m1 = model();
        let mut m2 = model();
        let e1 = seed_random_eddies(&mut m1, 8, 42);
        let e2 = seed_random_eddies(&mut m2, 8, 42);
        assert_eq!(e1, e2);
        let (lx, ly) = m1.grid().extent();
        for e in &e1 {
            assert!(e.x >= 0.0 && e.x <= lx);
            assert!(e.y >= 0.0 && e.y <= ly);
            assert!(e.y - 2.0 * e.radius >= -1.0 && e.y + 2.0 * e.radius <= ly + 1.0);
        }
        assert_eq!(m1.state().h.data(), m2.state().h.data());
    }

    #[test]
    fn different_seeds_differ() {
        let mut m1 = model();
        let mut m2 = model();
        seed_random_eddies(&mut m1, 4, 1);
        seed_random_eddies(&mut m2, 4, 2);
        assert_ne!(m1.state().h.data(), m2.state().h.data());
    }
}
