//! Image buffers and field resampling.
//!
//! The table-driven sampler stores its per-column data structure-of-arrays
//! and bakes each field row's horizontal blend once per frame, so the
//! per-pixel work ([`SampleTables::shade_row`]) is one vertical blend, one
//! division into `(lo, hi)` and a read of the colormap's exact colour
//! table. It evaluates the exact per-element expression tree of the naive
//! per-pixel renderer (the test oracle `rasterize_reference`), so shaded
//! pixels stay bit-identical — see DESIGN.md §8 for the rules.

use ivis_ocean::Field2D;

use crate::color::{unit, Colormap, Rgb};

/// A dense RGB image, row-major, row 0 at the top.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageBuffer {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
}

impl ImageBuffer {
    /// A black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        ImageBuffer {
            width,
            height,
            pixels: vec![Rgb::BLACK; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    #[cfg(test)]
    pub(crate) fn get(&self, x: usize, y: usize) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Set pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = c;
    }

    /// Raw pixels, row-major.
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Mutable raw pixels, row-major — for renderers that reuse one
    /// buffer across frames.
    pub fn pixels_mut(&mut self) -> &mut [Rgb] {
        &mut self.pixels
    }

    /// Raw RGB bytes (3 per pixel), for encoders.
    #[cfg(test)]
    pub(crate) fn to_rgb_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            out.extend_from_slice(&[p.r, p.g, p.b]);
        }
        out
    }

    /// Fraction of pixels for which `pred` holds — a cheap way to assert
    /// image content in tests.
    #[cfg(test)]
    pub(crate) fn fraction_where(&self, pred: impl Fn(Rgb) -> bool) -> f64 {
        let n = self.pixels.iter().filter(|&&p| pred(p)).count();
        n as f64 / self.pixels.len() as f64
    }
}

/// Bilinearly sample `field` at fractional coordinates `(fx, fy)` given in
/// cell units (0..nx, 0..ny), clamped at the y edges and wrapped in x.
pub fn sample_bilinear(field: &Field2D, fx: f64, fy: f64) -> f64 {
    let ny = field.ny();
    let x0 = fx.floor();
    let y0 = fy.floor();
    let tx = fx - x0;
    let ty = fy - y0;
    let i0 = x0 as isize;
    let i1 = i0 + 1;
    let clamp_y = |j: isize| -> usize { j.clamp(0, ny as isize - 1) as usize };
    let j0 = clamp_y(y0 as isize);
    let j1 = clamp_y(y0 as isize + 1);
    let v00 = field.get_wrap_x(i0, j0);
    let v10 = field.get_wrap_x(i1, j0);
    let v01 = field.get_wrap_x(i0, j1);
    let v11 = field.get_wrap_x(i1, j1);
    let top = v00 * (1.0 - tx) + v10 * tx;
    let bot = v01 * (1.0 - tx) + v11 * tx;
    top * (1.0 - ty) + bot * ty
}

#[derive(Debug, Clone, Copy)]
struct RowSample {
    j0: usize,
    j1: usize,
    ty: f64,
}

/// Precomputed bilinear source indices and weights for rendering a field
/// at a fixed `width × height`.
///
/// The per-pixel hot loop of [`sample_bilinear`] spends most of its time
/// on address arithmetic — two `floor`s and four `rem_euclid` integer
/// divisions per pixel — that depends only on the pixel's column and row,
/// not on the field values. Hoisting it into per-column / per-row tables
/// removes all of it from the inner loop while performing *exactly* the
/// same float operations in the same order, so the shaded pixels are
/// bit-identical to the naive per-pixel [`sample_bilinear`] path. Shared by
/// [`rasterize`] and the native frame loop, which keeps one set across
/// frames and [`rebuild`](Self::rebuild)s it in place.
///
/// Column data is stored structure-of-arrays (`i0` / `i1` / `tx` as three
/// flat vectors).
#[derive(Debug, Clone)]
pub struct SampleTables {
    /// Left source column per output column (wrapped in x).
    i0: Vec<usize>,
    /// Right source column per output column (wrapped in x).
    i1: Vec<usize>,
    /// Horizontal blend weight per output column.
    tx: Vec<f64>,
    rows: Vec<RowSample>,
    /// Horizontal bilinear blend of every field row at every output column
    /// (`ny × width`, row-major). The horizontal blend depends only on the
    /// field row and the output column — not the output row — so with
    /// `height / ny` output rows per field row it would otherwise be
    /// recomputed that many times over.
    hblend: Vec<f64>,
    width: usize,
    nx: usize,
    ny: usize,
}

impl SampleTables {
    /// Precompute the tables for rendering `field` at `width × height`.
    pub fn new(field: &Field2D, width: usize, height: usize) -> Self {
        let (nx, ny) = (field.nx() as f64, field.ny() as f64);
        let nxi = field.nx() as isize;
        let nyi = field.ny() as isize;
        let mut i0 = Vec::with_capacity(width);
        let mut i1 = Vec::with_capacity(width);
        let mut tx = Vec::with_capacity(width);
        for x in 0..width {
            let fx = (x as f64 + 0.5) / width as f64 * nx - 0.5;
            let x0 = fx.floor();
            let i = x0 as isize;
            i0.push(i.rem_euclid(nxi) as usize);
            i1.push((i + 1).rem_euclid(nxi) as usize);
            tx.push(fx - x0);
        }
        let rows = (0..height)
            .map(|y| {
                // Flip vertically: image row 0 = field's top row.
                let fy = (1.0 - (y as f64 + 0.5) / height as f64) * ny - 0.5;
                let y0 = fy.floor();
                let j0 = y0 as isize;
                RowSample {
                    j0: j0.clamp(0, nyi - 1) as usize,
                    j1: (j0 + 1).clamp(0, nyi - 1) as usize,
                    ty: fy - y0,
                }
            })
            .collect();
        let mut t = SampleTables {
            i0,
            i1,
            tx,
            rows,
            hblend: Vec::with_capacity(field.ny() * width),
            width,
            nx: field.nx(),
            ny: field.ny(),
        };
        t.fill_hblend(field);
        t
    }

    /// True if these tables were built for this field shape at this
    /// output resolution (i.e. [`SampleTables::rebuild`] is applicable).
    pub fn matches(&self, field: &Field2D, width: usize, height: usize) -> bool {
        self.nx == field.nx()
            && self.ny == field.ny()
            && self.width == width
            && self.rows.len() == height
    }

    /// Refresh the baked field values for a new frame of the same shape,
    /// reusing the index/weight tables and the `hblend` allocation.
    ///
    /// # Panics
    /// Panics if `field` has different dimensions than the tables were
    /// built for.
    pub fn rebuild(&mut self, field: &Field2D) {
        assert!(
            self.nx == field.nx() && self.ny == field.ny(),
            "rebuild requires the original field shape"
        );
        self.hblend.clear();
        self.fill_hblend(field);
    }

    /// Append the horizontal blend `row[i0]·(1 − tx) + row[i1]·tx` of every
    /// field row at every output column to `self.hblend`.
    fn fill_hblend(&mut self, field: &Field2D) {
        for row in field.data().chunks_exact(field.nx()) {
            self.hblend.extend(
                (0..self.width)
                    .map(|x| row[self.i0[x]] * (1.0 - self.tx[x]) + row[self.i1[x]] * self.tx[x]),
            );
        }
    }

    /// Shade image row `y` into `out` (one pixel per column). The field
    /// values are baked into the tables at construction, so per pixel only
    /// the vertical blend — exactly the operations and ordering of
    /// [`sample_bilinear`] — the normalisation into `(lo, hi)` and a
    /// colour-table read run. The row goes in blocks of `SHADE_BLOCK`
    /// pixels, two passes each: blend, normalise, NaN → 0 and clamp into a
    /// stack buffer, then the table reads, so the first pass is free of
    /// the second's data-dependent loads and branch.
    ///
    /// # Panics
    /// Panics if `hi <= lo`.
    pub fn shade_row(&self, y: usize, colormap: Colormap, lo: f64, hi: f64, out: &mut [Rgb]) {
        assert!(hi > lo, "colormap range must have hi > lo");
        let table = colormap.table();
        let n = out.len().min(self.width);
        let RowSample { j0, j1, ty } = self.rows[y];
        let top_row = &self.hblend[j0 * self.width..][..n];
        let bot_row = &self.hblend[j1 * self.width..][..n];
        let span = hi - lo;
        let mut buf = [0.0; SHADE_BLOCK];
        for ((out, top), bot) in out[..n]
            .chunks_mut(SHADE_BLOCK)
            .zip(top_row.chunks(SHADE_BLOCK))
            .zip(bot_row.chunks(SHADE_BLOCK))
        {
            let ts = &mut buf[..out.len()];
            for ((t, &top), &bot) in ts.iter_mut().zip(top).zip(bot) {
                let v = top * (1.0 - ty) + bot * ty;
                *t = unit((v - lo) / span);
            }
            for (px, &t) in out.iter_mut().zip(ts.iter()) {
                *px = colormap.lookup(table, t);
            }
        }
    }
}

/// Pixels per block of [`SampleTables::shade_row`]'s two passes.
const SHADE_BLOCK: usize = 256;

/// Rasterize a scalar field into an image using `colormap` over `(lo, hi)`.
/// Row 0 of the image corresponds to the *top* (largest y / northernmost
/// row) of the field. Table-driven, one row at a time; bit-identical to
/// the naive per-pixel [`sample_bilinear`] loop.
pub fn rasterize(
    field: &Field2D,
    width: usize,
    height: usize,
    colormap: Colormap,
    lo: f64,
    hi: f64,
) -> ImageBuffer {
    assert!(hi > lo, "rasterize range must have hi > lo");
    let tables = SampleTables::new(field, width, height);
    let mut img = ImageBuffer::new(width, height);
    for (y, row) in img.pixels_mut().chunks_mut(width).enumerate() {
        tables.shade_row(y, colormap, lo, hi, row);
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::FieldRenderer;
    use ivis_ocean::grid::Grid;
    use ivis_ocean::okubo_weiss::okubo_weiss;
    use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
    use ivis_ocean::vortex::seed_random_eddies;
    use proptest::prelude::*;

    /// The seed's naive renderer: one [`sample_bilinear`] call per pixel,
    /// strictly sequential. The oracle the table-driven
    /// renderer must match bit for bit.
    fn rasterize_reference(
        field: &Field2D,
        width: usize,
        height: usize,
        colormap: Colormap,
        lo: f64,
        hi: f64,
    ) -> ImageBuffer {
        assert!(hi > lo, "rasterize range must have hi > lo");
        let mut img = ImageBuffer::new(width, height);
        let (nx, ny) = (field.nx() as f64, field.ny() as f64);
        for y in 0..height {
            // Flip vertically: image row 0 = field's top row.
            let fy = (1.0 - (y as f64 + 0.5) / height as f64) * ny - 0.5;
            for x in 0..width {
                let fx = (x as f64 + 0.5) / width as f64 * nx - 0.5;
                let v = sample_bilinear(field, fx, fy);
                img.set(x, y, colormap.sample((v - lo) / (hi - lo)));
            }
        }
        img
    }

    #[test]
    fn buffer_basics() {
        let mut img = ImageBuffer::new(4, 3);
        assert_eq!((img.width(), img.height()), (4, 3));
        img.set(2, 1, Rgb::new(9, 8, 7));
        assert_eq!(img.get(2, 1), Rgb::new(9, 8, 7));
        assert_eq!(img.pixels().len(), 12);
        assert_eq!(img.to_rgb_bytes().len(), 36);
    }

    #[test]
    fn bilinear_interpolates_exactly_at_centers() {
        let f = Field2D::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(sample_bilinear(&f, 1.0, 2.0), 12.0);
        // Halfway between (1,2)=12 and (2,2)=22.
        assert!((sample_bilinear(&f, 1.5, 2.0) - 17.0).abs() < 1e-12);
    }

    #[test]
    fn bilinear_wraps_in_x_and_clamps_in_y() {
        let f = Field2D::from_fn(4, 3, |i, _| i as f64);
        // x = 3.5 sits between column 3 (=3) and wrapped column 0 (=0).
        assert!((sample_bilinear(&f, 3.5, 1.0) - 1.5).abs() < 1e-12);
        // y below 0 clamps to row 0.
        assert_eq!(sample_bilinear(&f, 1.0, -5.0), 1.0);
        assert_eq!(sample_bilinear(&f, 1.0, 99.0), 1.0);
    }

    #[test]
    fn rasterize_constant_field_is_uniform() {
        let f = Field2D::filled(8, 8, 0.5);
        let img = rasterize(&f, 32, 16, Colormap::Gray, 0.0, 1.0);
        let expected = Colormap::Gray.sample(0.5);
        assert!(img.fraction_where(|p| p == expected) > 0.999);
    }

    #[test]
    fn rasterize_flips_vertically() {
        // Field with a bright top row (j = ny-1): must appear at image row 0.
        let f = Field2D::from_fn(8, 8, |_, j| if j == 7 { 1.0 } else { 0.0 });
        let img = rasterize(&f, 8, 8, Colormap::Gray, 0.0, 1.0);
        let top_avg: u32 = (0..8).map(|x| img.get(x, 0).r as u32).sum();
        let bottom_avg: u32 = (0..8).map(|x| img.get(x, 7).r as u32).sum();
        assert!(top_avg > bottom_avg, "top {top_avg} vs bottom {bottom_avg}");
    }

    #[test]
    fn rebuild_refreshes_values_in_place() {
        let f0 = Field2D::filled(8, 6, 1.0);
        let f1 = Field2D::from_fn(8, 6, |i, j| (i + j) as f64);
        let mut t = SampleTables::new(&f0, 24, 16);
        assert!(t.matches(&f0, 24, 16));
        assert!(!t.matches(&f0, 25, 16));
        t.rebuild(&f1);
        assert_eq!(t.hblend, SampleTables::new(&f1, 24, 16).hblend);
    }

    #[test]
    fn fraction_where_counts() {
        let mut img = ImageBuffer::new(2, 2);
        img.set(0, 0, Rgb::WHITE);
        assert!((img.fraction_where(|p| p == Rgb::WHITE) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_rejected() {
        let _ = ImageBuffer::new(0, 4);
    }

    /// An eddying Okubo-Weiss field large enough that `Field2D::sum`
    /// spans several chunks (6144 cells > its grain of 1024).
    fn okubo_weiss_field() -> Field2D {
        let grid = Grid::channel(96, 64, 60_000.0);
        let uc = Field2D::from_fn(96, 64, |i, j| {
            (i as f64 * 0.13).sin() * (j as f64 * 0.07).cos() * 0.4
        });
        let vc = Field2D::from_fn(96, 64, |i, j| {
            (i as f64 * 0.11).cos() * (j as f64 * 0.09).sin() * 0.4
        });
        okubo_weiss(&grid, &uc, &vc)
    }

    #[test]
    fn render_matches_sequential_oracle() {
        let w = okubo_weiss_field();
        let renderer = FieldRenderer::okubo_weiss(192, 128);
        // Reuse the renderer's own ±2σ range so the comparison isolates the
        // rasterization path.
        let (lo, hi) = renderer.resolve_range(&w);
        let golden = rasterize_reference(&w, 192, 128, Colormap::OkuboWeiss, lo, hi);
        assert_eq!(renderer.render(&w), golden);
    }

    /// The native chain's frame: a spun-up 256×128 ocean with 12 eddies,
    /// its Okubo-Weiss field rendered to 720×512 over ±2σ.
    #[test]
    fn native_frame_matches_sequential_oracle() {
        let grid = Grid::channel(256, 128, 60_000.0);
        let params = SwParams::eddy_channel(&grid);
        let mut model = ShallowWaterModel::new(grid, params);
        seed_random_eddies(&mut model, 12, 42);
        model.run(8);
        let (uc, vc) = model.centered_velocities();
        let w = okubo_weiss(model.grid(), &uc, &vc);
        let renderer = FieldRenderer::okubo_weiss(720, 512);
        let (lo, hi) = renderer.resolve_range(&w);
        let golden = rasterize_reference(&w, 720, 512, Colormap::OkuboWeiss, lo, hi);
        assert_eq!(renderer.render(&w), golden);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Table-driven row shading == the naive per-pixel oracle at
        /// arbitrary field shapes and output sizes.
        #[test]
        fn table_driven_raster_matches_reference(
            nx in 1usize..40,
            ny in 1usize..24,
            width in 1usize..50,
            height in 1usize..40,
            seed in 0u64..1000,
        ) {
            let f = Field2D::from_fn(nx, ny, |i, j| {
                let k = seed as f64 * 0.013;
                (i as f64 * (0.31 + k)).sin() * (j as f64 * 0.17).cos() + (i + j) as f64 * 1e-3
            });
            let fast = rasterize(&f, width, height, Colormap::OkuboWeiss, -1.5, 1.5);
            let refr = rasterize_reference(&f, width, height, Colormap::OkuboWeiss, -1.5, 1.5);
            prop_assert_eq!(fast, refr);
        }
    }
}
