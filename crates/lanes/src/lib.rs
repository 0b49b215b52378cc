//! A fixed-width SIMD-style lane type over a plain array.
//!
//! The frame-chain kernels (shallow-water stencils, the raster's vertical
//! blend) want the machine's native vector width without giving up two
//! things: **stable Rust** (no nightly `std::simd`) and the workspace-wide
//! **bit-identity contract** (every optimized kernel must reproduce its
//! scalar form exactly). This crate threads that needle with
//! the classic trick real codecs and BLAS kernels use: small `#[repr]`-plain
//! structs over `[T; LANES]` whose operators are written as straight-line
//! per-lane loops. LLVM reliably autovectorizes these into `movupd`/`vaddpd`
//! (or NEON equivalents) because the lane count is a compile-time constant
//! and the loops have no carried dependencies.
//!
//! ## Why this preserves bit-identity
//!
//! Every operator below is **elementwise**: lane `l` of `a + b` is exactly
//! `a.0[l] + b.0[l]`, one IEEE-754 operation, no reassociation, no fused
//! multiply-add. A kernel that evaluates the *same expression tree* per
//! element as its scalar reference therefore produces bit-identical f64
//! results — vectorization changes *which elements share an instruction*,
//! never *what arithmetic an element sees*. The rules that keep this true
//! (fixed lane width, per-element expression parity, scalar tails for
//! remainders, fixed reduction order) are documented in the workspace
//! `DESIGN.md` §8; proptests against `#[cfg(test)]` scalar oracles in each
//! consuming crate hold every consumer to them over arbitrary lengths,
//! including tails of `1..LANES`.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// Lane width of [`F64x4`].
pub const F64_LANES: usize = 4;

/// Four `f64` lanes. All arithmetic is elementwise and unfused — lane `l`
/// of any operator result is the same single IEEE-754 operation the scalar
/// expression would perform, so laned kernels stay bit-identical to their
/// scalar references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Load the first four elements of `s`.
    ///
    /// # Panics
    /// Panics if `s` has fewer than four elements.
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> Self {
        F64x4([s[0], s[1], s[2], s[3]])
    }

    /// Store the four lanes into the first four elements of `out`.
    ///
    /// # Panics
    /// Panics if `out` has fewer than four elements.
    #[inline(always)]
    pub fn write_to(self, out: &mut [f64]) {
        out[0] = self.0[0];
        out[1] = self.0[1];
        out[2] = self.0[2];
        out[3] = self.0[3];
    }

    /// The lanes as a plain array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }
}

macro_rules! f64x4_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, rhs: F64x4) -> F64x4 {
                F64x4([
                    self.0[0] $op rhs.0[0],
                    self.0[1] $op rhs.0[1],
                    self.0[2] $op rhs.0[2],
                    self.0[3] $op rhs.0[3],
                ])
            }
        }
    };
}

f64x4_binop!(Add, add, +);
f64x4_binop!(Sub, sub, -);
f64x4_binop!(Mul, mul, *);
f64x4_binop!(Div, div, /);

impl Neg for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn neg(self) -> F64x4 {
        F64x4([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64x4_ops_are_elementwise_and_bit_exact() {
        let a = F64x4([0.1, -2.5, 1e300, f64::MIN_POSITIVE]);
        let b = F64x4([0.3, 7.25, 1e-300, 3.0]);
        let sum = (a + b).to_array();
        let dif = (a - b).to_array();
        let mul = (a * b).to_array();
        let div = (a / b).to_array();
        let neg = (-a).to_array();
        for l in 0..4 {
            assert_eq!(sum[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!(dif[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!(mul[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
            assert_eq!(div[l].to_bits(), (a.0[l] / b.0[l]).to_bits());
            assert_eq!(neg[l].to_bits(), (-a.0[l]).to_bits());
        }
    }

    #[test]
    fn f64x4_load_store_roundtrip() {
        let src = [1.5, 2.5, 3.5, 4.5, 9.9];
        let v = F64x4::from_slice(&src);
        assert_eq!(v.to_array(), [1.5, 2.5, 3.5, 4.5]);
        let mut out = [0.0; 6];
        v.write_to(&mut out);
        assert_eq!(out, [1.5, 2.5, 3.5, 4.5, 0.0, 0.0]);
        assert_eq!(F64x4::splat(7.0).to_array(), [7.0; 4]);
    }
}
