//! Dense 2-D scalar fields.
//!
//! Row-major storage (`idx = j * nx + i`). Every map and reduction here is
//! sequential: the native chain parallelizes whole frames, and a second
//! fan-out inside a frame measured no faster (EXPERIMENTS.md, Fan-out
//! sites).

/// A dense row-major 2-D field of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2D {
    nx: usize,
    ny: usize,
    data: Vec<f64>,
}

impl Field2D {
    /// A field of zeros with `nx` columns and `ny` rows.
    pub fn zeros(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "field dimensions must be positive");
        Field2D {
            nx,
            ny,
            data: vec![0.0; nx * ny],
        }
    }

    /// A field filled with `value`.
    pub fn filled(nx: usize, ny: usize, value: f64) -> Self {
        let mut f = Field2D::zeros(nx, ny);
        f.data.fill(value);
        f
    }

    /// Build a field by evaluating `f(i, j)` at every point.
    pub fn from_fn(nx: usize, ny: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        assert!(nx > 0 && ny > 0, "field dimensions must be positive");
        let mut data = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            data.extend((0..nx).map(|i| f(i, j)));
        }
        Field2D { nx, ny, data }
    }

    /// Number of columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Value at column `i`, row `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nx && j < self.ny);
        self.data[j * self.nx + i]
    }

    /// Set the value at column `i`, row `j`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nx && j < self.ny);
        self.data[j * self.nx + i] = v;
    }

    /// Value with periodic wraparound in `i` (x is periodic in the basin).
    #[inline]
    pub fn get_wrap_x(&self, i: isize, j: usize) -> f64 {
        let nx = self.nx as isize;
        let iw = i.rem_euclid(nx) as usize;
        self.get(iw, j)
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data, row-major.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sum of all elements, over chunks of at least 1024 (see
    /// [`chunked_sum`]).
    pub(crate) fn sum(&self) -> f64 {
        chunked_sum(&self.data, 1024, |x| x)
    }

    /// Minimum element.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum element.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var = chunked_sum(&self.data, 1, |x| (x - mean) * (x - mean)) / self.data.len() as f64;
        var.sqrt()
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| f64::max(m, x.abs()))
    }
}

/// `Σ f(x)` over `data` in the summation order every pinned output was
/// recorded with: chunks of `max(ceil(len / 64), min_grain)` elements,
/// each summed left to right, then the chunk sums left to right. Float
/// addition does not associate, so a flat fold would move `resolve_range`,
/// `eddy_threshold` and every golden PNG.
pub(crate) fn chunked_sum(data: &[f64], min_grain: usize, f: impl Fn(f64) -> f64) -> f64 {
    let grain = data.len().div_ceil(64).max(min_grain).max(1);
    data.chunks(grain)
        .map(|chunk| chunk.iter().map(|&x| f(x)).sum::<f64>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut f = Field2D::zeros(4, 3);
        assert_eq!((f.nx(), f.ny(), f.data().len()), (4, 3, 12));
        f.set(2, 1, 7.5);
        assert_eq!(f.get(2, 1), 7.5);
        assert_eq!(f.get(0, 0), 0.0);
    }

    #[test]
    fn from_fn_matches_formula() {
        let f = Field2D::from_fn(5, 4, |i, j| (i + 10 * j) as f64);
        for j in 0..4 {
            for i in 0..5 {
                assert_eq!(f.get(i, j), (i + 10 * j) as f64);
            }
        }
    }

    #[test]
    fn wraparound_in_x() {
        let f = Field2D::from_fn(4, 2, |i, _| i as f64);
        assert_eq!(f.get_wrap_x(-1, 0), 3.0);
        assert_eq!(f.get_wrap_x(4, 1), 0.0);
        assert_eq!(f.get_wrap_x(9, 0), 1.0);
    }

    #[test]
    fn reductions() {
        let f = Field2D::from_fn(3, 3, |i, j| (i as f64) - (j as f64));
        assert_eq!(f.min(), -2.0);
        assert_eq!(f.max(), 2.0);
        assert!((f.sum() - 0.0).abs() < 1e-12);
        assert!((f.mean() - 0.0).abs() < 1e-12);
        assert_eq!(f.max_abs(), 2.0);
    }

    #[test]
    fn std_dev_matches_naive() {
        let f = Field2D::from_fn(2, 2, |i, j| (2 * j + i) as f64); // 0,1,2,3
                                                                   // variance of {0,1,2,3} = 1.25
        assert!((f.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reductions_keep_their_pinned_bits_on_the_native_grid() {
        // 256×128 is the native grid: `sum` spans 32 chunks of 1024,
        // `std_dev` 64 of 512. The bits were recorded from the parallel
        // reductions these replaced; a flat fold changes the last bits of
        // `sum` and `std_dev` (checked below), and with them
        // `resolve_range`, `eddy_threshold` and every golden PNG.
        let f = Field2D::from_fn(256, 128, |i, j| {
            (i as f64 * 0.7).sin() * (j as f64 * 0.3).cos() * 1e-3
                + (i as f64 - 127.5) * (j as f64 + 1.0) * 1e-9
                - 2e-4
        });
        assert_eq!(f.sum().to_bits(), 0xc01a_3072_d0dc_265c);
        assert_eq!(f.std_dev().to_bits(), 0x3f40_81f4_f809_cedb);
        assert_eq!(f.min().to_bits(), 0xbf53_bac9_b6f0_7da8);
        assert_eq!(f.max().to_bits(), 0x3f4a_90f8_1ab9_1ec1);
        assert_eq!(f.max_abs().to_bits(), 0x3f53_bac9_b6f0_7da8);
        let flat: f64 = f.data().iter().sum();
        assert_ne!(flat.to_bits(), f.sum().to_bits());
    }

    #[test]
    fn filled_is_constant() {
        let f = Field2D::filled(7, 2, 3.25);
        assert!(f.data().iter().all(|&x| x == 3.25));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_rejected() {
        let _ = Field2D::zeros(0, 5);
    }
}
