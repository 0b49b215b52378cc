//! The rotating shallow-water solver.
//!
//! Single-layer shallow water on an Arakawa C grid, integrated with the
//! forward–backward scheme (continuity first with the old velocities, then
//! momentum with the *new* surface elevation):
//!
//! ```text
//! ∂h/∂t = −H (∂u/∂x + ∂v/∂y)
//! ∂u/∂t = +f v̄ − g ∂h/∂x − r u + F_w(y)
//! ∂v/∂t = −f ū − g ∂h/∂y − r v
//! ```
//!
//! Staggering: `h` at cell centers, `u` at west faces (periodic in x), `v`
//! at south faces with `v = 0` on the north/south walls. Mass is conserved
//! to round-off by construction (the divergence telescopes over the periodic
//! x direction and vanishes at the walls).
//!
//! ## Stepping performance
//!
//! [`ShallowWaterModel::step`] performs **zero heap allocations in steady
//! state**: the three prognostic fields ping-pong between the live state
//! and a same-shaped scratch state that is written in place and swapped in,
//! each kernel runs over row slices with an interior fast path (no
//! wraparound modulo, no per-element bounds checks the optimizer can't
//! elide) plus explicit periodic boundary columns, and the per-row Coriolis
//! and wind-forcing terms are hoisted into tables built once at
//! construction. Every cell evaluates *exactly* the float expression of the
//! original allocating implementation — kept verbatim as the test oracle
//! `step_reference` — in the same order, so the two paths are bit-identical
//! (see the `fast_step_matches_reference_bitwise` test and its proptest)
//! and all downstream goldens are preserved. The interior loops stay
//! scalar: a four-wide laned form measured no faster (DESIGN.md §8).

use crate::field::{chunked_sum, Field2D};
use crate::grid::Grid;

/// Physical and numerical parameters.
#[derive(Debug, Clone)]
pub struct SwParams {
    /// Gravitational acceleration, m/s².
    pub g: f64,
    /// Resting layer depth H, meters.
    pub depth: f64,
    /// Linear bottom drag coefficient r, 1/s.
    pub drag: f64,
    /// Amplitude of the zonal wind-stress acceleration, m/s²
    /// (applied as `F_w(y) = amp · sin(π y / Ly)`; zero disables forcing).
    pub wind_accel: f64,
    /// Timestep, seconds.
    pub dt: f64,
}

impl SwParams {
    /// Defaults for an eddy-resolving channel: full gravity, a 1000 m
    /// equivalent layer, weak drag, no wind, and a timestep safely below
    /// both the gravity-wave CFL limit and the inertial limit `0.05/f0`
    /// (the explicit Coriolis terms need `f·dt ≪ 1`).
    pub fn eddy_channel(grid: &Grid) -> Self {
        let g = 9.81;
        let depth = 1_000.0;
        let dt = grid.max_stable_dt(g, depth).min(0.05 / grid.f0);
        SwParams {
            g,
            depth,
            drag: 1e-7,
            wind_accel: 0.0,
            dt,
        }
    }
}

/// The prognostic fields.
#[derive(Debug, Clone)]
pub struct SwState {
    /// Surface elevation anomaly at cell centers, `(nx, ny)`.
    pub h: Field2D,
    /// Zonal velocity at west faces, `(nx, ny)`.
    pub u: Field2D,
    /// Meridional velocity at south faces, `(nx, ny+1)`; rows 0 and ny are
    /// the solid walls and stay zero.
    pub v: Field2D,
}

impl SwState {
    /// A state of rest.
    pub(crate) fn rest(grid: &Grid) -> Self {
        SwState {
            h: Field2D::zeros(grid.nx, grid.ny),
            u: Field2D::zeros(grid.nx, grid.ny),
            v: Field2D::zeros(grid.nx, grid.ny + 1),
        }
    }
}

/// The time-stepping model.
#[derive(Debug, Clone)]
pub struct ShallowWaterModel {
    grid: Grid,
    params: SwParams,
    state: SwState,
    /// Scratch state the kernels write into; swapped with `state` at the
    /// end of each step so stepping never allocates.
    next: SwState,
    /// Hoisted per-row Coriolis at cell centers (`grid.coriolis(j)`).
    f_center: Vec<f64>,
    /// Hoisted per-row Coriolis at v-faces (`grid.coriolis_at_vface(j)`).
    f_vface: Vec<f64>,
    /// Hoisted per-row wind acceleration `F_w(y_j)` (all zeros when
    /// `wind_accel == 0`, matching the reference path's branch exactly).
    wind: Vec<f64>,
    time: f64,
    steps: u64,
}

impl ShallowWaterModel {
    /// Create a model at rest.
    ///
    /// # Panics
    /// Panics if the timestep violates the gravity-wave CFL limit.
    pub fn new(grid: Grid, params: SwParams) -> Self {
        let dt_max = grid.max_stable_dt(params.g, params.depth) * 2.0; // the
                                                                       // helper already applies a 0.5 safety factor; allow up to the hard limit.
        assert!(
            params.dt > 0.0 && params.dt <= dt_max,
            "dt {} exceeds CFL limit {}",
            params.dt,
            dt_max
        );
        let state = SwState::rest(&grid);
        let next = SwState::rest(&grid);
        let f_center = grid.coriolis_center_table();
        let f_vface = grid.coriolis_vface_table();
        let ly = grid.ny as f64 * grid.dy;
        let wind = (0..grid.ny)
            .map(|j| {
                if params.wind_accel != 0.0 {
                    let y = grid.y_center(j);
                    params.wind_accel * (std::f64::consts::PI * y / ly).sin()
                } else {
                    0.0
                }
            })
            .collect();
        ShallowWaterModel {
            grid,
            params,
            state,
            next,
            f_center,
            f_vface,
            wind,
            time: 0.0,
            steps: 0,
        }
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The parameters.
    pub fn params(&self) -> &SwParams {
        &self.params
    }

    /// Current state (read-only).
    pub fn state(&self) -> &SwState {
        &self.state
    }

    /// Current state (mutable, for seeding initial conditions).
    pub(crate) fn state_mut(&mut self) -> &mut SwState {
        &mut self.state
    }

    /// Model time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advance one timestep. Allocation-free: writes the ping-pong scratch
    /// state in place and swaps it in. Bit-identical to the seed's
    /// allocating `from_fn` step.
    pub fn step(&mut self) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let (dx, dy, dt) = (self.grid.dx, self.grid.dy, self.params.dt);
        let (g, depth, drag) = (self.params.g, self.params.depth, self.params.drag);

        // --- continuity: h^{n+1} = h^n − dt·H·div(u^n, v^n) ---------------
        {
            let u = self.state.u.data();
            let v = self.state.v.data();
            let h = self.state.h.data();
            let out = self.next.h.data_mut();
            for j in 0..ny {
                let row = j * nx;
                let h_row = &h[row..row + nx];
                let u_row = &u[row..row + nx];
                let v_s = &v[row..row + nx];
                let v_n = &v[row + nx..row + 2 * nx];
                let out_row = &mut out[row..row + nx];
                // Interior: the east u-face of cell i is u[i+1].
                for i in 0..nx - 1 {
                    let div = (u_row[i + 1] - u_row[i]) / dx + (v_n[i] - v_s[i]) / dy;
                    out_row[i] = h_row[i] - dt * depth * div;
                }
                // Periodic east column: the east face wraps to u[0].
                let i = nx - 1;
                let div = (u_row[0] - u_row[i]) / dx + (v_n[i] - v_s[i]) / dy;
                out_row[i] = h_row[i] - dt * depth * div;
            }
        }

        // --- u momentum with the new h -------------------------------------
        {
            let h = self.next.h.data();
            let u = self.state.u.data();
            let v = self.state.v.data();
            let out = self.next.u.data_mut();
            for j in 0..ny {
                let f = self.f_center[j];
                let wind = self.wind[j];
                let row = j * nx;
                let h_row = &h[row..row + nx];
                let u_row = &u[row..row + nx];
                let v_s = &v[row..row + nx];
                let v_n = &v[row + nx..row + 2 * nx];
                let out_row = &mut out[row..row + nx];
                // Periodic west column: the west neighbor wraps to nx−1.
                {
                    let vbar = 0.25 * (v_s[nx - 1] + v_s[0] + v_n[nx - 1] + v_n[0]);
                    let dhdx = (h_row[0] - h_row[nx - 1]) / dx;
                    let u0 = u_row[0];
                    out_row[0] = u0 + dt * (f * vbar - g * dhdx - drag * u0 + wind);
                }
                // Interior: the west neighbor of face i is i−1.
                for i in 1..nx {
                    let vbar = 0.25 * (v_s[i - 1] + v_s[i] + v_n[i - 1] + v_n[i]);
                    let dhdx = (h_row[i] - h_row[i - 1]) / dx;
                    let u0 = u_row[i];
                    out_row[i] = u0 + dt * (f * vbar - g * dhdx - drag * u0 + wind);
                }
            }
        }

        // --- v momentum with the new h and (forward–backward) new u --------
        {
            let h = self.next.h.data();
            let u = self.next.u.data();
            let v = self.state.v.data();
            let out = self.next.v.data_mut();
            // Solid walls: rows 0 and ny stay zero.
            out[..nx].fill(0.0);
            out[ny * nx..(ny + 1) * nx].fill(0.0);
            for j in 1..ny {
                let f = self.f_vface[j];
                let row = j * nx;
                let u_row = &u[row..row + nx];
                let u_south = &u[row - nx..row];
                let h_row = &h[row..row + nx];
                let h_south = &h[row - nx..row];
                let v_row = &v[row..row + nx];
                let out_row = &mut out[row..row + nx];
                // Interior: the east u-face of cell i is u[i+1].
                for i in 0..nx - 1 {
                    let ubar = 0.25 * (u_row[i] + u_row[i + 1] + u_south[i] + u_south[i + 1]);
                    let dhdy = (h_row[i] - h_south[i]) / dy;
                    let v0 = v_row[i];
                    out_row[i] = v0 + dt * (-f * ubar - g * dhdy - drag * v0);
                }
                // Periodic east column: the east face wraps to u[0].
                let i = nx - 1;
                let ubar = 0.25 * (u_row[i] + u_row[0] + u_south[i] + u_south[0]);
                let dhdy = (h_row[i] - h_south[i]) / dy;
                let v0 = v_row[i];
                out_row[i] = v0 + dt * (-f * ubar - g * dhdy - drag * v0);
            }
        }

        std::mem::swap(&mut self.state, &mut self.next);
        self.time += dt;
        self.steps += 1;
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Total mass anomaly `Σ h · dx·dy` (conserved to round-off).
    pub fn total_mass(&self) -> f64 {
        self.state.h.sum() * self.grid.dx * self.grid.dy
    }

    /// Total energy `Σ ½(g h² + H(u² + v²)) dx dy`.
    pub fn total_energy(&self) -> f64 {
        let sum_sq = |f: &Field2D| chunked_sum(f.data(), 1, |x| x * x);
        let pe = 0.5 * self.params.g * sum_sq(&self.state.h);
        let ke = 0.5 * self.params.depth * (sum_sq(&self.state.u) + sum_sq(&self.state.v));
        (pe + ke) * self.grid.dx * self.grid.dy
    }

    /// Maximum flow speed (for CFL monitoring).
    pub fn max_speed(&self) -> f64 {
        self.state.u.max_abs().max(self.state.v.max_abs())
    }

    /// Cell-centered velocities `(u_c, v_c)` interpolated from the faces —
    /// the input to the Okubo-Weiss diagnostic.
    pub fn centered_velocities(&self) -> (Field2D, Field2D) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let mut uc = Field2D::zeros(nx, ny);
        let mut vc = Field2D::zeros(nx, ny);
        self.centered_velocities_into(&mut uc, &mut vc);
        (uc, vc)
    }

    /// [`ShallowWaterModel::centered_velocities`] into caller-provided
    /// buffers — allocation-free for pipelines that recycle snapshots.
    /// Identical values: each cell is the same `0.5 · (face + face)`
    /// average the allocating path computes.
    ///
    /// # Panics
    /// Panics if either buffer is not `(nx, ny)`-shaped.
    pub fn centered_velocities_into(&self, uc: &mut Field2D, vc: &mut Field2D) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        assert!(
            uc.nx() == nx && uc.ny() == ny && vc.nx() == nx && vc.ny() == ny,
            "centered_velocities_into requires (nx, ny)-shaped buffers"
        );
        let u = self.state.u.data();
        let v = self.state.v.data();
        let ucd = uc.data_mut();
        let vcd = vc.data_mut();
        for j in 0..ny {
            let row = j * nx;
            let u_row = &u[row..row + nx];
            let v_s = &v[row..row + nx];
            let v_n = &v[row + nx..row + 2 * nx];
            for i in 0..nx - 1 {
                ucd[row + i] = 0.5 * (u_row[i] + u_row[i + 1]);
            }
            // Periodic east column: the east face wraps to u[0].
            ucd[row + nx - 1] = 0.5 * (u_row[nx - 1] + u_row[0]);
            for i in 0..nx {
                vcd[row + i] = 0.5 * (v_s[i] + v_n[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vortex::{seed_vortex, Vortex};
    use proptest::prelude::*;

    impl ShallowWaterModel {
        /// The seed's original allocating step, kept verbatim as the oracle
        /// [`ShallowWaterModel::step`] must match bit for bit. Three full-field
        /// allocations per call.
        fn step_reference(&mut self) {
            let (nx, ny) = (self.grid.nx, self.grid.ny);
            let (dx, dy, dt) = (self.grid.dx, self.grid.dy, self.params.dt);
            let (g, depth, drag) = (self.params.g, self.params.depth, self.params.drag);
            let wind_amp = self.params.wind_accel;
            let ly = ny as f64 * dy;

            // --- continuity: h^{n+1} = h^n − dt·H·div(u^n, v^n) ---------------
            let h_new = {
                let u = &self.state.u;
                let v = &self.state.v;
                let h = &self.state.h;
                Field2D::from_fn(nx, ny, |i, j| {
                    let ue = u.get_wrap_x(i as isize + 1, j);
                    let uw = u.get(i, j);
                    let vn = v.get(i, j + 1);
                    let vs = v.get(i, j);
                    let div = (ue - uw) / dx + (vn - vs) / dy;
                    h.get(i, j) - dt * depth * div
                })
            };

            // --- momentum with the new h ---------------------------------------
            let u_new = {
                let u = &self.state.u;
                let v = &self.state.v;
                let h = &h_new;
                let grid = &self.grid;
                Field2D::from_fn(nx, ny, |i, j| {
                    let f = grid.coriolis(j);
                    let ii = i as isize;
                    // v averaged to the u-point (west face of cell (i,j)).
                    let vbar = 0.25
                        * (v.get_wrap_x(ii - 1, j)
                            + v.get(i, j)
                            + v.get_wrap_x(ii - 1, j + 1)
                            + v.get(i, j + 1));
                    let dhdx = (h.get(i, j) - h.get_wrap_x(ii - 1, j)) / dx;
                    let wind = if wind_amp != 0.0 {
                        let y = grid.y_center(j);
                        wind_amp * (std::f64::consts::PI * y / ly).sin()
                    } else {
                        0.0
                    };
                    let u0 = u.get(i, j);
                    u0 + dt * (f * vbar - g * dhdx - drag * u0 + wind)
                })
            };

            // Forward–backward Coriolis: the v update sees the *new* u, which
            // keeps the inertial oscillation neutrally stable for f·dt < 2
            // (a pure forward treatment amplifies by √(1+(f·dt)²) per step).
            let v_new = {
                let u = &u_new;
                let v = &self.state.v;
                let h = &h_new;
                let grid = &self.grid;
                Field2D::from_fn(nx, ny + 1, |i, j| {
                    if j == 0 || j == ny {
                        return 0.0; // solid walls
                    }
                    let f = grid.coriolis_at_vface(j);
                    let ii = i as isize;
                    // u averaged to the v-point (south face of cell (i,j)).
                    let ubar = 0.25
                        * (u.get(i, j)
                            + u.get_wrap_x(ii + 1, j)
                            + u.get(i, j - 1)
                            + u.get_wrap_x(ii + 1, j - 1));
                    let dhdy = (h.get(i, j) - h.get(i, j - 1)) / dy;
                    let v0 = v.get(i, j);
                    v0 + dt * (-f * ubar - g * dhdy - drag * v0)
                })
            };

            self.state.h = h_new;
            self.state.u = u_new;
            self.state.v = v_new;
            self.time += dt;
            self.steps += 1;
        }
    }

    fn eddy_model() -> ShallowWaterModel {
        let grid = Grid::channel(32, 24, 60_000.0);
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        let (lx, ly) = m.grid().extent();
        seed_vortex(
            &mut m,
            &Vortex {
                x: lx * 0.5,
                y: ly * 0.5,
                radius: 150_000.0,
                amplitude: 1.0,
            },
        );
        m
    }

    #[test]
    fn rest_state_stays_at_rest() {
        let grid = Grid::tiny();
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        m.run(10);
        assert_eq!(m.max_speed(), 0.0);
        assert_eq!(m.total_mass(), 0.0);
        assert_eq!(m.steps(), 10);
    }

    #[test]
    fn mass_is_conserved() {
        let mut m = eddy_model();
        let m0 = m.total_mass();
        m.run(200);
        let m1 = m.total_mass();
        let scale = m.state().h.max_abs() * m.grid().dx * m.grid().dy * m.grid().num_cells() as f64;
        assert!(
            (m1 - m0).abs() <= 1e-10 * scale.max(1.0),
            "mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn geostrophic_vortex_is_quasi_steady() {
        // A balanced vortex should evolve slowly: after 50 steps the peak
        // elevation should remain within ~10% of the initial (the discrete
        // geostrophic balance sheds a little energy as gravity waves while
        // it adjusts, especially for a vortex only ~2.5 cells wide).
        let mut m = eddy_model();
        let h0 = m.state().h.max();
        m.run(50);
        let h1 = m.state().h.max();
        assert!(
            (h1 - h0).abs() / h0 < 0.12,
            "balanced vortex decayed too fast: {h0} -> {h1}"
        );
    }

    #[test]
    fn unbalanced_bump_radiates_but_stays_stable() {
        let grid = Grid::channel(32, 24, 60_000.0);
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        // Raise h without any balancing flow: gravity waves radiate.
        let (lx, ly) = m.grid().extent();
        let (cx, cy) = (lx * 0.5, ly * 0.5);
        let grid2 = m.grid().clone();
        let h = &mut m.state_mut().h;
        for j in 0..grid2.ny {
            for i in 0..grid2.nx {
                let dx = grid2.x_center(i) - cx;
                let dy = grid2.y_center(j) - cy;
                let r2 = dx * dx + dy * dy;
                h.set(i, j, 0.5 * (-r2 / (2.0 * 120_000.0f64.powi(2))).exp());
            }
        }
        m.run(300);
        assert!(m.max_speed().is_finite());
        assert!(m.state().h.max_abs() < 10.0, "solution blew up");
    }

    #[test]
    fn energy_decays_under_drag() {
        let grid = Grid::channel(32, 24, 60_000.0);
        let mut params = SwParams::eddy_channel(&grid);
        params.drag = 1e-5; // strong drag
        let mut m = ShallowWaterModel::new(grid, params);
        let (lx, ly) = m.grid().extent();
        seed_vortex(
            &mut m,
            &Vortex {
                x: lx * 0.5,
                y: ly * 0.5,
                radius: 150_000.0,
                amplitude: 1.0,
            },
        );
        let e0 = m.total_energy();
        m.run(400);
        let e1 = m.total_energy();
        assert!(e1 < e0, "drag must dissipate energy: {e0} -> {e1}");
    }

    #[test]
    fn wind_forcing_injects_momentum() {
        let grid = Grid::channel(32, 24, 60_000.0);
        let mut params = SwParams::eddy_channel(&grid);
        params.wind_accel = 1e-6;
        let mut m = ShallowWaterModel::new(grid, params);
        m.run(50);
        assert!(m.max_speed() > 0.0, "wind should spin up a current");
    }

    #[test]
    fn walls_keep_v_zero() {
        let mut m = eddy_model();
        m.run(100);
        let v = &m.state().v;
        let ny = m.grid().ny;
        for i in 0..m.grid().nx {
            assert_eq!(v.get(i, 0), 0.0);
            assert_eq!(v.get(i, ny), 0.0);
        }
    }

    #[test]
    fn centered_velocities_average_faces() {
        let grid = Grid::tiny();
        let params = SwParams::eddy_channel(&grid);
        let mut m = ShallowWaterModel::new(grid, params);
        let nx = m.grid().nx;
        // u = column index at each west face; centered = avg of i, i+1 faces.
        for j in 0..m.grid().ny {
            for i in 0..nx {
                m.state_mut().u.set(i, j, i as f64);
            }
        }
        let (uc, _) = m.centered_velocities();
        assert_eq!(uc.get(0, 0), 0.5);
        // Last column wraps: (u[nx-1] + u[0]) / 2.
        assert_eq!(uc.get(nx - 1, 0), (nx - 1) as f64 / 2.0);
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn unstable_dt_rejected() {
        let grid = Grid::tiny();
        let mut params = SwParams::eddy_channel(&grid);
        params.dt = 1e6;
        let _ = ShallowWaterModel::new(grid, params);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut m = eddy_model();
            m.run(20);
            m.state().h.data().to_vec()
        };
        assert_eq!(run(), run());
    }

    fn state_bits(m: &ShallowWaterModel) -> Vec<u64> {
        m.state()
            .h
            .data()
            .iter()
            .chain(m.state().u.data())
            .chain(m.state().v.data())
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn fast_step_matches_reference_bitwise() {
        // The allocation-free ping-pong kernels must reproduce the seed's
        // from_fn implementation bit for bit, step after step — including
        // with wind forcing and strong drag switched on so every term in
        // the momentum equations is exercised.
        for wind in [0.0, 1e-6] {
            let make = |wind: f64| {
                let grid = Grid::channel(32, 24, 60_000.0);
                let mut params = SwParams::eddy_channel(&grid);
                params.wind_accel = wind;
                params.drag = 1e-6;
                let mut m = ShallowWaterModel::new(grid, params);
                let (lx, ly) = m.grid().extent();
                seed_vortex(
                    &mut m,
                    &Vortex {
                        x: lx * 0.4,
                        y: ly * 0.6,
                        radius: 150_000.0,
                        amplitude: 0.8,
                    },
                );
                m
            };
            let mut fast = make(wind);
            let mut reference = make(wind);
            for step in 0..60 {
                fast.step();
                reference.step_reference();
                assert_eq!(
                    state_bits(&fast),
                    state_bits(&reference),
                    "diverged at step {step} (wind={wind})"
                );
            }
            assert_eq!(fast.time(), reference.time());
            assert_eq!(fast.steps(), reference.steps());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The row-slice stepper == the allocating oracle, bitwise in
        /// h/u/v, over arbitrary grid shapes (the periodic boundary
        /// columns at every width) and forcing parameters.
        #[test]
        fn row_slice_step_matches_reference(
            nx in 4usize..37,
            ny in 4usize..17,
            wind in 0.0f64..0.3,
            steps in 1u64..12,
        ) {
            let make = || {
                let grid = Grid::channel(nx, ny, 60_000.0);
                let mut params = SwParams::eddy_channel(&grid);
                params.wind_accel = wind;
                let mut m = ShallowWaterModel::new(grid, params);
                let (lx, ly) = m.grid().extent();
                seed_vortex(
                    &mut m,
                    &Vortex {
                        x: lx * 0.5,
                        y: ly * 0.5,
                        radius: 150_000.0,
                        amplitude: 0.9,
                    },
                );
                m
            };
            let mut fast = make();
            let mut golden = make();
            for s in 0..steps {
                fast.step();
                golden.step_reference();
                let (f, g) = (fast.state(), golden.state());
                prop_assert_eq!(f.h.data(), g.h.data(), "h diverged at step {}", s);
                prop_assert_eq!(f.u.data(), g.u.data(), "u diverged at step {}", s);
                prop_assert_eq!(f.v.data(), g.v.data(), "v diverged at step {}", s);
            }
        }
    }
}
