//! The field renderer: scalar fields → images.
//!
//! This is the "ParaView" of the workspace: it turns an Okubo-Weiss (or any
//! scalar) field into the colored image the paper's Fig. 2 shows, with a
//! choice of range normalization.

use ivis_ocean::Field2D;

use crate::color::Colormap;
use crate::raster::{rasterize, ImageBuffer};

/// How raw field values are normalized into the colormap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeMode {
    /// Use the field's min/max.
    MinMax,
    /// Symmetric about zero: `[−k·σ, +k·σ]` — the right choice for
    /// Okubo-Weiss, whose sign carries the physics.
    SymmetricSigma(f64),
    /// Fixed explicit range.
    Fixed(f64, f64),
}

/// A configured renderer.
///
/// ```
/// use ivis_ocean::Field2D;
/// use ivis_viz::render::FieldRenderer;
/// use ivis_viz::png::encode_png;
///
/// // A synthetic Okubo-Weiss well (negative core = rotation).
/// let w = Field2D::from_fn(16, 16, |i, j| {
///     let (dx, dy) = (i as f64 - 8.0, j as f64 - 8.0);
///     -((-(dx * dx + dy * dy) / 8.0).exp())
/// });
/// let img = FieldRenderer::okubo_weiss(64, 64).render(&w);
/// let png = encode_png(&img);
/// assert_eq!(&png[1..4], b"PNG");
/// ```
#[derive(Debug, Clone)]
pub struct FieldRenderer {
    /// Output width, pixels.
    pub width: usize,
    /// Output height, pixels.
    pub height: usize,
    /// Colormap.
    pub colormap: Colormap,
    /// Range normalization.
    pub range: RangeMode,
}

impl FieldRenderer {
    /// The paper's Fig. 2 style: Okubo-Weiss palette, symmetric ±2σ range.
    pub fn okubo_weiss(width: usize, height: usize) -> Self {
        FieldRenderer {
            width,
            height,
            colormap: Colormap::OkuboWeiss,
            range: RangeMode::SymmetricSigma(2.0),
        }
    }

    /// Resolve the active `(lo, hi)` range for a field.
    ///
    /// Always returns a finite range with `hi > lo`, even for constant
    /// fields (min == max), all-NaN fields (whose min/max degenerate to
    /// `(+∞, −∞)` because `f64::min`/`f64::max` ignore NaN), fields whose
    /// statistics are themselves NaN/infinite, or unusable settings — so
    /// `render` never panics on degenerate data. A `Fixed` range that is
    /// not finite with `hi > lo` falls back to the `MinMax` rule;
    /// `SymmetricSigma(k)` uses the bound 1.0 unless `k·σ` is finite and
    /// positive.
    pub fn resolve_range(&self, field: &Field2D) -> (f64, f64) {
        match self.range {
            RangeMode::Fixed(lo, hi) if lo.is_finite() && hi.is_finite() && hi > lo => (lo, hi),
            RangeMode::Fixed(..) | RangeMode::MinMax => {
                let (lo, hi) = (field.min(), field.max());
                if lo.is_finite() && hi.is_finite() && hi > lo {
                    (lo, hi)
                } else if lo.is_finite() {
                    (lo - 0.5, lo + 0.5) // constant field: any non-empty range
                } else {
                    (-0.5, 0.5) // no finite data at all
                }
            }
            RangeMode::SymmetricSigma(k) => {
                let bound = k * field.std_dev();
                let bound = if bound.is_finite() && bound > 0.0 {
                    bound
                } else {
                    1.0
                };
                (-bound, bound)
            }
        }
    }

    /// Render the field.
    pub fn render(&self, field: &Field2D) -> ImageBuffer {
        let (lo, hi) = self.resolve_range(field);
        rasterize(field, self.width, self.height, self.colormap, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;
    use ivis_ocean::grid::Grid;
    use ivis_ocean::okubo_weiss::okubo_weiss;
    use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
    use ivis_ocean::vortex::{seed_vortex, Vortex};

    fn eddy_ow_field() -> Field2D {
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
        okubo_weiss(m.grid(), &uc, &vc)
    }

    #[test]
    fn fig2_style_render_contains_green_cores_and_blue_shear() {
        let w = eddy_ow_field();
        let img = FieldRenderer::okubo_weiss(96, 64).render(&w);
        let green = img.fraction_where(|p| p.g > p.b.saturating_add(20) && p.g > p.r);
        let blue = img.fraction_where(|p| p.b > p.g.saturating_add(10));
        assert!(green > 0.001, "eddy core should render green: {green}");
        assert!(blue > 0.001, "shear ring should render blue: {blue}");
    }

    #[test]
    fn fixed_range_is_respected() {
        let f = Field2D::filled(8, 8, 5.0);
        let r = FieldRenderer {
            width: 4,
            height: 4,
            colormap: Colormap::Gray,
            range: RangeMode::Fixed(0.0, 10.0),
        };
        let img = r.render(&f);
        assert!(img.fraction_where(|p| p == Rgb::new(128, 128, 128)) > 0.99);
    }

    #[test]
    fn minmax_range_spans_field() {
        let f = Field2D::from_fn(8, 8, |i, _| i as f64);
        let r = FieldRenderer {
            width: 8,
            height: 8,
            colormap: Colormap::Gray,
            range: RangeMode::MinMax,
        };
        let (lo, hi) = r.resolve_range(&f);
        assert_eq!((lo, hi), (0.0, 7.0));
    }

    #[test]
    fn constant_field_does_not_panic_in_any_mode() {
        let f = Field2D::filled(8, 8, 3.0);
        for range in [
            RangeMode::MinMax,
            RangeMode::SymmetricSigma(2.0),
            RangeMode::Fixed(0.0, 1.0),
        ] {
            let r = FieldRenderer {
                width: 4,
                height: 4,
                colormap: Colormap::Viridis,
                range,
            };
            let _ = r.render(&f);
        }
    }

    #[test]
    fn all_nan_field_renders_without_panic() {
        // f64::min/max ignore NaN, so an all-NaN field degenerates to
        // min = +inf, max = -inf; resolve_range must still produce a
        // usable range and the colormap maps NaN samples to t = 0.
        let f = Field2D::from_fn(8, 8, |_, _| f64::NAN);
        for range in [RangeMode::MinMax, RangeMode::SymmetricSigma(2.0)] {
            let r = FieldRenderer {
                width: 6,
                height: 6,
                colormap: Colormap::Viridis,
                range,
            };
            let (lo, hi) = r.resolve_range(&f);
            assert!(lo.is_finite() && hi.is_finite() && hi > lo, "{range:?}");
            let img = r.render(&f);
            let nan_color = Colormap::Viridis.sample(0.0);
            assert!(img.fraction_where(|p| p == nan_color) > 0.999);
        }
    }

    #[test]
    fn partially_nan_field_uses_finite_values_for_minmax() {
        let f = Field2D::from_fn(8, 8, |i, _| if i == 0 { f64::NAN } else { i as f64 });
        let r = FieldRenderer {
            width: 4,
            height: 4,
            colormap: Colormap::Gray,
            range: RangeMode::MinMax,
        };
        let (lo, hi) = r.resolve_range(&f);
        assert_eq!((lo, hi), (1.0, 7.0));
        let _ = r.render(&f);
    }

    /// Renders `f` with `range` and checks the resolved range is usable.
    fn resolve_and_render(f: &Field2D, range: RangeMode) -> (f64, f64) {
        let r = FieldRenderer {
            width: 6,
            height: 6,
            colormap: Colormap::Gray,
            range,
        };
        let (lo, hi) = r.resolve_range(f);
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "{range:?}");
        let _ = r.render(f);
        (lo, hi)
    }

    #[test]
    fn unusable_fixed_range_falls_back_to_minmax() {
        let f = Field2D::from_fn(8, 8, |i, _| i as f64);
        for (lo, hi) in [
            (1.0, 1.0),
            (2.0, 1.0),
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
        ] {
            assert_eq!(resolve_and_render(&f, RangeMode::Fixed(lo, hi)), (0.0, 7.0));
        }
    }

    #[test]
    fn symmetric_sigma_with_nonpositive_k_uses_unit_bound() {
        let f = Field2D::from_fn(16, 16, |i, j| ((i + j) as f64).sin());
        for k in [0.0, -0.0, -2.0, f64::NEG_INFINITY] {
            assert_eq!(
                resolve_and_render(&f, RangeMode::SymmetricSigma(k)),
                (-1.0, 1.0)
            );
        }
    }

    #[test]
    fn symmetric_sigma_with_nan_k_uses_unit_bound() {
        let f = Field2D::from_fn(16, 16, |i, j| ((i + j) as f64).sin());
        let range = RangeMode::SymmetricSigma(f64::NAN);
        assert_eq!(resolve_and_render(&f, range), (-1.0, 1.0));
    }

    #[test]
    fn symmetric_sigma_overflowing_k_sigma_uses_unit_bound() {
        // σ = 10, so 1e308·σ overflows to +∞; so does any k = +∞.
        let f = Field2D::from_fn(16, 16, |i, _| if i % 2 == 0 { 10.0 } else { -10.0 });
        for k in [1e308, f64::INFINITY] {
            let range = RangeMode::SymmetricSigma(k);
            assert_eq!(resolve_and_render(&f, range), (-1.0, 1.0));
        }
        // Every pixel is clamped to an end of the map, none is painted
        // the NaN colour by a (−∞, ∞) range.
        let img = FieldRenderer {
            width: 16,
            height: 16,
            colormap: Colormap::Gray,
            range: RangeMode::SymmetricSigma(1e308),
        }
        .render(&f);
        assert!(img.fraction_where(|p| p == Rgb::WHITE) > 0.1);
    }

    #[test]
    fn symmetric_range_centered_on_zero() {
        let f = Field2D::from_fn(16, 16, |i, j| ((i + j) as f64).sin());
        let r = FieldRenderer::okubo_weiss(8, 8);
        let (lo, hi) = r.resolve_range(&f);
        assert!((lo + hi).abs() < 1e-12);
        assert!(hi > 0.0);
    }
}
