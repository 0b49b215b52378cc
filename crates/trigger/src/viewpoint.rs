//! Spherical multi-viewpoint camera grids.
//!
//! InSituVis (vizlab-kobe) renders each analysis step from a grid of
//! candidate viewpoints distributed on a sphere around the data
//! (`SphericalViewpoint`, `ViewDim {1, 5, 10}`) and keeps the most
//! informative frame. The ocean here is a 2D periodic channel, so a
//! viewpoint maps onto a *camera window*: the azimuth picks the window's
//! x-center (periodic, like flying around the channel), the polar angle
//! its y-center (clamped to the walls), and the window spans a fixed
//! fraction of the domain. One candidate — the pole — always sees the
//! whole field, so the overview the fixed pipeline rendered is never
//! lost, and a single-candidate grid degenerates to exactly that view.
//!
//! Everything is a closed-form function of `(index, candidates)`:
//! no RNG, no wall clock, no thread-count dependence.

use ivis_ocean::Field2D;

/// One candidate camera on the spherical grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewpoint {
    /// Position on the grid (0-based; 0 is always the polar overview).
    pub index: usize,
    /// Polar angle from the pole, radians in `[0, π/2]`.
    pub theta: f64,
    /// Azimuth, radians in `[0, 2π)`.
    pub phi: f64,
}

/// The rectangular window a viewpoint sees, in fractional field
/// coordinates (`cx`/`cy` in `[0, 1)` of the domain, half-extents as
/// domain fractions). `x` wraps periodically; `y` is clamped so the
/// window never crosses a wall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewWindow {
    /// Window center x, fraction of the domain width (periodic).
    pub cx: f64,
    /// Window center y, fraction of the domain height.
    pub cy: f64,
    /// Half-width, fraction of the domain width.
    pub half_w: f64,
    /// Half-height, fraction of the domain height.
    pub half_h: f64,
}

impl Viewpoint {
    /// The window this camera sees. `zoom` is the fraction of the domain a
    /// non-polar candidate covers per axis (clamped to `[0.05, 1]`); the
    /// polar overview (`theta == 0`) always covers everything.
    pub fn window(&self, zoom: f64) -> ViewWindow {
        let zoom = zoom.clamp(0.05, 1.0);
        if self.theta == 0.0 {
            return ViewWindow {
                cx: 0.5,
                cy: 0.5,
                half_w: 0.5,
                half_h: 0.5,
            };
        }
        let half = zoom / 2.0;
        // Azimuth sweeps the periodic x axis; sin(theta) pushes the
        // window from mid-channel toward the walls as the camera dips.
        let cx = self.phi / (2.0 * std::f64::consts::PI);
        let cy = 0.5
            + 0.5
                * (self.theta.sin())
                * if self.phi < std::f64::consts::PI {
                    1.0
                } else {
                    -1.0
                }
                * (1.0 - zoom);
        ViewWindow {
            cx: cx.rem_euclid(1.0),
            cy: cy.clamp(half, 1.0 - half),
            half_w: half,
            half_h: half,
        }
    }
}

/// A deterministic spherical grid of `candidates` viewpoints.
///
/// Candidate 0 sits at the pole (the whole-field overview); the rest are
/// laid out on a golden-angle spiral over the upper hemisphere, the
/// standard low-discrepancy spherical covering — even azimuthal spread at
/// any count, and the grid for `n` candidates is a pure function of `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewpointGrid {
    views: Vec<Viewpoint>,
}

impl ViewpointGrid {
    /// Build a grid of `candidates` viewpoints (at least 1).
    pub fn spherical(candidates: usize) -> Self {
        let n = candidates.max(1);
        // 2π(1 − 1/φ): the golden angle, irrational fraction of the circle.
        let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
        let mut views = Vec::with_capacity(n);
        views.push(Viewpoint {
            index: 0,
            theta: 0.0,
            phi: 0.0,
        });
        for k in 1..n {
            // Equal-area latitudes over the open upper hemisphere.
            let frac = k as f64 / n as f64;
            let theta = (1.0 - frac).acos().min(std::f64::consts::FRAC_PI_2);
            let phi = (k as f64 * golden).rem_euclid(2.0 * std::f64::consts::PI);
            views.push(Viewpoint {
                index: k,
                theta,
                phi,
            });
        }
        ViewpointGrid { views }
    }

    /// The candidate viewpoints, in index order.
    pub fn views(&self) -> &[Viewpoint] {
        &self.views
    }
}

/// Sample `field` at fractional coordinates (`u`, `v` in `[0, 1)` of the
/// domain) with bilinear interpolation, wrapping x periodically and
/// clamping y at the walls — the channel topology the solver uses.
pub(crate) fn sample_periodic(field: &Field2D, u: f64, v: f64) -> f64 {
    let (nx, ny) = (field.nx(), field.ny());
    let fx = u.rem_euclid(1.0) * nx as f64 - 0.5;
    let fy = (v * ny as f64 - 0.5).clamp(0.0, (ny - 1) as f64);
    let x0 = fx.floor();
    let y0 = fy.floor() as usize;
    let tx = fx - x0;
    let ty = fy - y0 as f64;
    let y1 = (y0 + 1).min(ny - 1);
    let x0 = x0 as isize;
    let a = field.get_wrap_x(x0, y0);
    let b = field.get_wrap_x(x0 + 1, y0);
    let c = field.get_wrap_x(x0, y1);
    let d = field.get_wrap_x(x0 + 1, y1);
    a * (1.0 - tx) * (1.0 - ty) + b * tx * (1.0 - ty) + c * (1.0 - tx) * ty + d * tx * ty
}

/// Resample the window a viewpoint sees into an `out_nx × out_ny` field —
/// the candidate frame the renderer rasterizes and the entropy scorer
/// reads. A pure function of `(field, window, shape)`.
pub fn extract_window(field: &Field2D, win: &ViewWindow, out_nx: usize, out_ny: usize) -> Field2D {
    let x0 = win.cx - win.half_w;
    let y0 = win.cy - win.half_h;
    Field2D::from_fn(out_nx, out_ny, |i, j| {
        let u = x0 + (i as f64 + 0.5) / out_nx as f64 * (2.0 * win.half_w);
        let v = y0 + (j as f64 + 0.5) / out_ny as f64 * (2.0 * win.half_h);
        sample_periodic(field, u, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_always_has_polar_overview() {
        for n in [1, 5, 10, 37] {
            let g = ViewpointGrid::spherical(n);
            assert_eq!(g.views.len(), n);
            assert_eq!(g.views()[0].theta, 0.0, "candidate 0 is the overview");
            let w = g.views()[0].window(0.5);
            assert_eq!((w.half_w, w.half_h), (0.5, 0.5));
        }
    }

    #[test]
    fn zero_candidates_clamps_to_one() {
        assert_eq!(ViewpointGrid::spherical(0).views.len(), 1);
    }

    #[test]
    fn grid_is_deterministic_and_distinct() {
        let a = ViewpointGrid::spherical(10);
        let b = ViewpointGrid::spherical(10);
        assert_eq!(a, b);
        for pair in a.views().windows(2) {
            assert_ne!(
                (pair[0].theta, pair[0].phi),
                (pair[1].theta, pair[1].phi),
                "viewpoints must differ"
            );
        }
    }

    #[test]
    fn windows_stay_inside_the_channel() {
        for vp in ViewpointGrid::spherical(24).views() {
            for zoom in [0.1, 0.35, 0.8] {
                let w = vp.window(zoom);
                assert!(w.cy - w.half_h >= -1e-12, "{vp:?} zoom {zoom}");
                assert!(w.cy + w.half_h <= 1.0 + 1e-12, "{vp:?} zoom {zoom}");
                assert!((0.0..1.0).contains(&w.cx), "{vp:?} zoom {zoom}");
            }
        }
    }

    #[test]
    fn periodic_sampling_wraps_x() {
        let f = Field2D::from_fn(8, 4, |i, _| i as f64);
        // u just past 1.0 equals u just past 0.0.
        let a = sample_periodic(&f, 1.001, 0.5);
        let b = sample_periodic(&f, 0.001, 0.5);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn full_window_resamples_the_field() {
        let f = Field2D::from_fn(16, 12, |i, j| (i * 3 + j) as f64);
        let win = ViewWindow {
            cx: 0.5,
            cy: 0.5,
            half_w: 0.5,
            half_h: 0.5,
        };
        let out = extract_window(&f, &win, 16, 12);
        // Same shape, same cell centers: exact match.
        for j in 0..12 {
            for i in 0..16 {
                assert!(
                    (out.get(i, j) - f.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    out.get(i, j),
                    f.get(i, j)
                );
            }
        }
    }

    #[test]
    fn windowed_extraction_sees_local_values() {
        // A field hot only in the left half; a window on the left sees
        // high values, one on the right sees low.
        let f = Field2D::from_fn(32, 16, |i, _| if i < 16 { 10.0 } else { 0.0 });
        let left = extract_window(
            &f,
            &ViewWindow {
                cx: 0.25,
                cy: 0.5,
                half_w: 0.15,
                half_h: 0.15,
            },
            8,
            8,
        );
        let right = extract_window(
            &f,
            &ViewWindow {
                cx: 0.75,
                cy: 0.5,
                half_w: 0.15,
                half_h: 0.15,
            },
            8,
            8,
        );
        assert!(left.mean() > 9.0);
        assert!(right.mean() < 1.0);
    }
}
