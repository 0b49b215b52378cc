//! Shannon image entropy — the viewpoint-quality metric.
//!
//! InSituVis scores each candidate camera by the information content of
//! the frame it would produce: a flat frame (camera staring at quiet
//! water) carries near-zero entropy, a frame full of eddy cores and
//! filaments fills the histogram. The score here is the classic 8-bit
//! luminance entropy: build a 256-bin histogram over the image, then
//! `H = −Σ p·log2 p` — between 0 and 8 bits.
//!
//! Determinism: the histogram holds integer counts accumulated in pixel
//! order, and the entropy sum walks the 256 bins in index order, so the
//! score is a pure function of the pixel bytes — identical on any host
//! at any thread count.

use ivis_viz::raster::ImageBuffer;

/// Integer Rec. 601 luma of one pixel, 0–255.
#[inline]
fn luma(r: u8, g: u8, b: u8) -> u8 {
    ((299 * r as u32 + 587 * g as u32 + 114 * b as u32) / 1000) as u8
}

/// Shannon entropy of the image's 8-bit luminance histogram, in bits
/// (`0.0` for an empty or constant image, at most `8.0`).
pub(crate) fn image_entropy_bits(img: &ImageBuffer) -> f64 {
    let mut hist = [0u64; 256];
    for p in img.pixels() {
        hist[luma(p.r, p.g, p.b) as usize] += 1;
    }
    histogram_entropy_bits(&hist)
}

/// Shannon entropy of an arbitrary 256-bin histogram, in bits.
pub(crate) fn histogram_entropy_bits(hist: &[u64; 256]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let mut h = 0.0;
    for &c in hist.iter() {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivis_viz::color::Rgb;

    #[test]
    fn constant_image_has_zero_entropy() {
        let img = ImageBuffer::new(16, 16); // all black
        assert_eq!(image_entropy_bits(&img), 0.0);
    }

    #[test]
    fn two_level_image_has_one_bit() {
        let mut img = ImageBuffer::new(16, 2);
        for x in 0..16 {
            img.set(x, 0, Rgb::new(255, 255, 255));
        }
        let h = image_entropy_bits(&img);
        assert!((h - 1.0).abs() < 1e-12, "half black / half white = 1 bit");
    }

    #[test]
    fn uniform_histogram_saturates_at_eight_bits() {
        let hist = [4u64; 256];
        assert!((histogram_entropy_bits(&hist) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_zero() {
        assert_eq!(histogram_entropy_bits(&[0u64; 256]), 0.0);
    }

    #[test]
    fn richer_images_score_higher() {
        let mut flat = ImageBuffer::new(32, 32);
        let mut rich = ImageBuffer::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                flat.set(x, y, Rgb::new(100, 100, 100));
                let v = ((x * 8 + y * 5) % 256) as u8;
                rich.set(x, y, Rgb::new(v, v, v));
            }
        }
        assert!(image_entropy_bits(&rich) > image_entropy_bits(&flat) + 3.0);
    }

    #[test]
    fn entropy_is_deterministic() {
        let mut img = ImageBuffer::new(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                img.set(x, y, Rgb::new((x * 11) as u8, (y * 7) as u8, 33));
            }
        }
        let a = image_entropy_bits(&img);
        let b = image_entropy_bits(&img);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
