//! Vector glyphs: line drawing and velocity arrows.
//!
//! Ocean visualizations commonly overlay velocity arrows on the scalar
//! field; ParaView's glyph filter is the reference. This module provides a
//! dependency-free Bresenham line rasterizer and an arrow-field overlay that
//! subsamples the velocity field onto a regular glyph grid.

use ivis_ocean::Field2D;

use crate::color::Rgb;
use crate::raster::{sample_bilinear, ImageBuffer};

/// Draw a line from `(x0, y0)` to `(x1, y1)` (pixel coordinates, clipped to
/// the image) using Bresenham's algorithm.
pub(crate) fn draw_line(img: &mut ImageBuffer, x0: i64, y0: i64, x1: i64, y1: i64, color: Rgb) {
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    let (mut x, mut y) = (x0, y0);
    loop {
        if x >= 0 && y >= 0 && (x as usize) < img.width() && (y as usize) < img.height() {
            img.set(x as usize, y as usize, color);
        }
        if x == x1 && y == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Draw an arrow from `(x0, y0)` toward `(x1, y1)` with a two-stroke head.
pub(crate) fn draw_arrow(img: &mut ImageBuffer, x0: i64, y0: i64, x1: i64, y1: i64, color: Rgb) {
    draw_line(img, x0, y0, x1, y1, color);
    let dx = (x1 - x0) as f64;
    let dy = (y1 - y0) as f64;
    let len = (dx * dx + dy * dy).sqrt();
    if len < 2.0 {
        return;
    }
    let (ux, uy) = (dx / len, dy / len);
    let head = (len * 0.35).clamp(2.0, 6.0);
    // Two barbs at ±150° from the shaft direction.
    for sign in [1.0f64, -1.0] {
        let angle: f64 = sign * 2.6; // ≈150°
        let bx = ux * angle.cos() - uy * angle.sin();
        let by = ux * angle.sin() + uy * angle.cos();
        draw_line(
            img,
            x1,
            y1,
            x1 + (bx * head).round() as i64,
            y1 + (by * head).round() as i64,
            color,
        );
    }
}

/// Overlay a velocity arrow field on `img`: one arrow per `spacing × spacing`
/// pixel block, sampled bilinearly from `(u, v)` (cell-centered fields) and
/// scaled so the fastest glyph spans ~`0.9 × spacing` pixels. Arrows follow
/// the field orientation with image y pointing down (the renderer's flip is
/// honored).
pub fn overlay_velocity_arrows(
    img: &mut ImageBuffer,
    u: &Field2D,
    v: &Field2D,
    spacing: usize,
    color: Rgb,
) {
    assert!(spacing >= 4, "glyph spacing too small");
    assert_eq!((u.nx(), u.ny()), (v.nx(), v.ny()), "u/v shape mismatch");
    let (w, h) = (img.width(), img.height());
    let (nx, ny) = (u.nx() as f64, u.ny() as f64);
    let vmax = u.max_abs().max(v.max_abs());
    if vmax == 0.0 {
        return;
    }
    let scale = 0.9 * spacing as f64 / vmax / 2.0;
    let mut y = spacing / 2;
    while y < h {
        let mut x = spacing / 2;
        let fy = (1.0 - (y as f64 + 0.5) / h as f64) * ny - 0.5;
        while x < w {
            let fx = (x as f64 + 0.5) / w as f64 * nx - 0.5;
            let uu = sample_bilinear(u, fx, fy);
            let vv = sample_bilinear(v, fx, fy);
            // Image y grows downward; field v grows northward.
            let px = (uu * scale).round() as i64;
            let py = (-vv * scale).round() as i64;
            draw_arrow(
                img,
                x as i64 - px,
                y as i64 - py,
                x as i64 + px,
                y as i64 + py,
                color,
            );
            x += spacing;
        }
        y += spacing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_line_sets_expected_pixels() {
        let mut img = ImageBuffer::new(10, 3);
        draw_line(&mut img, 1, 1, 8, 1, Rgb::WHITE);
        for x in 1..=8 {
            assert_eq!(img.get(x, 1), Rgb::WHITE);
        }
        assert_eq!(img.get(0, 1), Rgb::BLACK);
        assert_eq!(img.get(9, 1), Rgb::BLACK);
    }

    #[test]
    fn diagonal_line_is_connected() {
        let mut img = ImageBuffer::new(16, 16);
        draw_line(&mut img, 0, 0, 15, 15, Rgb::WHITE);
        // Every step along the diagonal must be lit.
        for i in 0..16 {
            assert_eq!(img.get(i, i), Rgb::WHITE, "missing at {i}");
        }
    }

    #[test]
    fn steep_line_terminates_and_is_connected() {
        // Regression: a slope-steeper-than-one line must terminate (a
        // Bresenham error-update typo once made y run away forever) and
        // touch every row between its endpoints.
        let mut img = ImageBuffer::new(8, 16);
        draw_line(&mut img, 1, 1, 4, 13, Rgb::WHITE);
        for y in 1..=13 {
            let row_lit = (0..8).any(|x| img.get(x, y) == Rgb::WHITE);
            assert!(row_lit, "row {y} untouched");
        }
        assert_eq!(img.get(1, 1), Rgb::WHITE);
        assert_eq!(img.get(4, 13), Rgb::WHITE);
    }

    #[test]
    fn clipping_out_of_bounds_is_safe() {
        let mut img = ImageBuffer::new(8, 8);
        draw_line(&mut img, -5, -5, 20, 3, Rgb::WHITE);
        draw_arrow(&mut img, -3, 4, 30, 4, Rgb::WHITE);
        // Must not panic; some in-bounds pixels are set.
        assert!(img.fraction_where(|p| p == Rgb::WHITE) > 0.0);
    }

    #[test]
    fn arrow_has_a_head() {
        let mut img = ImageBuffer::new(32, 32);
        draw_arrow(&mut img, 4, 16, 28, 16, Rgb::WHITE);
        // Barbs extend off the shaft row near the tip.
        let off_axis = (0..32)
            .flat_map(|x| [(x, 14usize), (x, 18usize)])
            .filter(|&(x, y)| img.get(x, y) == Rgb::WHITE)
            .count();
        assert!(off_axis > 0, "arrowhead barbs expected off the shaft");
    }

    #[test]
    fn uniform_flow_draws_uniform_arrows() {
        let u = Field2D::filled(8, 8, 1.0);
        let v = Field2D::zeros(8, 8);
        let mut img = ImageBuffer::new(64, 64);
        overlay_velocity_arrows(&mut img, &u, &v, 16, Rgb::WHITE);
        let lit = img.fraction_where(|p| p == Rgb::WHITE);
        assert!(lit > 0.005 && lit < 0.3, "lit fraction {lit}");
    }

    #[test]
    fn still_water_draws_nothing() {
        let u = Field2D::zeros(8, 8);
        let v = Field2D::zeros(8, 8);
        let mut img = ImageBuffer::new(32, 32);
        overlay_velocity_arrows(&mut img, &u, &v, 8, Rgb::WHITE);
        assert_eq!(img.fraction_where(|p| p == Rgb::WHITE), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_fields_rejected() {
        let u = Field2D::zeros(8, 8);
        let v = Field2D::zeros(8, 9);
        let mut img = ImageBuffer::new(16, 16);
        overlay_velocity_arrows(&mut img, &u, &v, 8, Rgb::WHITE);
    }
}
