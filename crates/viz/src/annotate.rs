//! Image annotation: a tiny bitmap font, text labels and colorbar legends.
//!
//! The paper's Fig. 2 carries a colorbar and caption; Cinema databases are
//! meant to be browsed standalone, so frames should be self-describing.
//! This module provides a dependency-free 5×7 bitmap font (digits, upper
//! case, and the punctuation needed for scientific labels) plus a colorbar
//! renderer.

use crate::color::{Colormap, Rgb};
use crate::raster::ImageBuffer;

/// Glyph width in pixels (plus 1 pixel spacing when drawing text).
pub(crate) const GLYPH_W: usize = 5;
/// Glyph height in pixels.
pub const GLYPH_H: usize = 7;

/// 5×7 glyph bitmaps, one `u8` row each (low 5 bits used, MSB-left).
fn glyph(c: char) -> [u8; 7] {
    match c.to_ascii_uppercase() {
        '0' => [0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E],
        '1' => [0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E],
        '2' => [0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F],
        '3' => [0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E],
        '4' => [0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02],
        '5' => [0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E],
        '6' => [0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E],
        '7' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08],
        '8' => [0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E],
        '9' => [0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C],
        'A' => [0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'B' => [0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E],
        'C' => [0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E],
        'D' => [0x1C, 0x12, 0x11, 0x11, 0x11, 0x12, 0x1C],
        'E' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F],
        'F' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10],
        'G' => [0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F],
        'H' => [0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'I' => [0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E],
        'J' => [0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C],
        'K' => [0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11],
        'L' => [0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F],
        'M' => [0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11],
        'N' => [0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11],
        'O' => [0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'P' => [0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10],
        'Q' => [0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D],
        'R' => [0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11],
        'S' => [0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E],
        'T' => [0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04],
        'U' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'V' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04],
        'W' => [0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11],
        'X' => [0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11],
        'Y' => [0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04],
        'Z' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F],
        '-' => [0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00],
        '+' => [0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00],
        '.' => [0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C],
        ',' => [0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08],
        ':' => [0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00],
        '=' => [0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00],
        '/' => [0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10],
        '%' => [0x19, 0x19, 0x02, 0x04, 0x08, 0x13, 0x13],
        '(' => [0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02],
        ')' => [0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08],
        ' ' => [0; 7],
        _ => [0x1F, 0x11, 0x15, 0x11, 0x15, 0x11, 0x1F], // unknown: boxed
    }
}

/// Draw `text` with its top-left corner at `(x, y)` in `color`.
/// Glyphs that fall outside the image are clipped.
pub fn draw_text(img: &mut ImageBuffer, x: usize, y: usize, text: &str, color: Rgb) {
    let mut cx = x;
    for ch in text.chars() {
        let rows = glyph(ch);
        for (gy, row) in rows.iter().enumerate() {
            for gx in 0..GLYPH_W {
                if row & (1 << (GLYPH_W - 1 - gx)) != 0 {
                    let px = cx + gx;
                    let py = y + gy;
                    if px < img.width() && py < img.height() {
                        img.set(px, py, color);
                    }
                }
            }
        }
        cx += GLYPH_W + 1;
    }
}

/// Pixel width of `text` when drawn with [`draw_text`].
pub(crate) fn text_width(text: &str) -> usize {
    let n = text.chars().count();
    if n == 0 {
        0
    } else {
        n * (GLYPH_W + 1) - 1
    }
}

/// Draw a horizontal colorbar spanning `[x, x+w) × [y, y+h)` for `colormap`,
/// with min/max labels underneath (if `h + GLYPH_H + 1` rows fit).
#[allow(clippy::too_many_arguments)] // geometry + range: all genuinely independent
pub fn draw_colorbar(
    img: &mut ImageBuffer,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    colormap: Colormap,
    lo: f64,
    hi: f64,
) {
    assert!(w >= 2 && h >= 1, "colorbar too small");
    for dx in 0..w {
        let t = dx as f64 / (w - 1) as f64;
        let c = colormap.sample(t);
        for dy in 0..h {
            let (px, py) = (x + dx, y + dy);
            if px < img.width() && py < img.height() {
                img.set(px, py, c);
            }
        }
    }
    let label_y = y + h + 1;
    let lo_text = format_sci(lo);
    let hi_text = format_sci(hi);
    draw_text(img, x, label_y, &lo_text, Rgb::BLACK);
    let hx = (x + w).saturating_sub(text_width(&hi_text));
    draw_text(img, hx, label_y, &hi_text, Rgb::BLACK);
}

/// Compact scientific-ish formatting for labels (the font has no lowercase,
/// so exponents use 'E').
pub(crate) fn format_sci(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (0.01..10_000.0).contains(&a) {
        format!("{v:.2}")
    } else {
        format!("{v:.1E}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_renders_some_pixels() {
        let mut img = ImageBuffer::new(64, 16);
        draw_text(&mut img, 1, 1, "W=42", Rgb::WHITE);
        let lit = img.fraction_where(|p| p == Rgb::WHITE);
        assert!(lit > 0.0 && lit < 0.5);
    }

    #[test]
    fn distinct_characters_have_distinct_glyphs() {
        let chars = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ-+.:=/%";
        let mut seen = std::collections::HashSet::new();
        for c in chars.chars() {
            assert!(seen.insert(glyph(c)), "duplicate glyph for {c}");
        }
    }

    #[test]
    fn lowercase_maps_to_uppercase() {
        assert_eq!(glyph('a'), glyph('A'));
        assert_eq!(glyph('z'), glyph('Z'));
    }

    #[test]
    fn clipping_does_not_panic() {
        let mut img = ImageBuffer::new(8, 8);
        draw_text(&mut img, 6, 6, "CLIPPED TEXT", Rgb::WHITE);
    }

    #[test]
    fn text_width_accounts_for_spacing() {
        assert_eq!(text_width(""), 0);
        assert_eq!(text_width("A"), 5);
        assert_eq!(text_width("AB"), 11);
    }

    #[test]
    fn colorbar_spans_palette() {
        let mut img = ImageBuffer::new(120, 24);
        draw_colorbar(&mut img, 4, 2, 100, 8, Colormap::OkuboWeiss, -1.0, 1.0);
        // Left end green-ish, right end blue-ish (the paper's palette).
        let left = img.get(4, 5);
        let right = img.get(103, 5);
        assert!(left.g > left.b, "left end should be green: {left:?}");
        assert!(right.b > right.g, "right end should be blue: {right:?}");
    }

    #[test]
    fn format_sci_modes() {
        assert_eq!(format_sci(0.0), "0");
        assert_eq!(format_sci(1.5), "1.50");
        assert!(format_sci(1.0e-9).contains('E'));
        assert!(format_sci(-3.2e7).contains('E'));
    }

    #[test]
    #[should_panic(expected = "colorbar too small")]
    fn degenerate_colorbar_rejected() {
        let mut img = ImageBuffer::new(10, 10);
        draw_colorbar(&mut img, 0, 0, 1, 1, Colormap::Gray, 0.0, 1.0);
    }
}
