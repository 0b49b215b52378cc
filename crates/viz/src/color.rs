//! Colors and colormaps.
//!
//! The paper's Fig. 2 renders the Okubo-Weiss field with green for
//! rotation-dominated regions (`W < 0`, eddy cores) and blue for
//! shear/strain-dominated regions (`W > 0`). [`Colormap::OkuboWeiss`]
//! reproduces that diverging palette; [`Colormap::Viridis`] is a standard
//! perceptually-uniform sequential map for other fields (SSH, speed).

use std::sync::OnceLock;

/// An 8-bit RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Construct from channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Black.
    pub const BLACK: Rgb = Rgb::new(0, 0, 0);
    /// White.
    #[cfg(test)]
    pub(crate) const WHITE: Rgb = Rgb::new(255, 255, 255);

    /// Linear interpolation between two colors, `t ∈ [0, 1]`.
    pub(crate) fn lerp(a: Rgb, b: Rgb, t: f64) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        // The blend stays in [0, 255], where adding 0.5 is exact (0.5 is
        // a multiple of the ulp), so truncation equals `.round()`'s
        // half-away-from-zero for every input without a libm call. Each
        // channel is monotone in `t`, which the colour tables rely on.
        let mix = |x: u8, y: u8| -> u8 { (x as f64 + (y as f64 - x as f64) * t + 0.5) as u8 };
        Rgb::new(mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b))
    }
}

/// A colormap: maps a normalized value in `[0, 1]` to a color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Colormap {
    /// The paper's Okubo-Weiss palette: deep green (0.0, rotation) through
    /// near-white (0.5, neutral) to deep blue (1.0, shear).
    OkuboWeiss,
    /// A viridis-like sequential map (dark purple → teal → yellow).
    Viridis,
    /// Simple grayscale.
    Gray,
}

const OKUBO_WEISS: [(f64, Rgb); 5] = [
    (0.0, Rgb::new(0, 97, 52)), // deep green: strong rotation
    (0.35, Rgb::new(110, 199, 133)),
    (0.5, Rgb::new(242, 244, 238)), // neutral
    (0.65, Rgb::new(120, 170, 221)),
    (1.0, Rgb::new(17, 60, 133)), // deep blue: strong shear
];

const VIRIDIS: [(f64, Rgb); 5] = [
    (0.0, Rgb::new(68, 1, 84)),
    (0.25, Rgb::new(59, 82, 139)),
    (0.5, Rgb::new(33, 145, 140)),
    (0.75, Rgb::new(94, 201, 98)),
    (1.0, Rgb::new(253, 231, 37)),
];

/// Colour-table buckets per unit of `t`: bucket `k` holds exactly the
/// floats in `[k / 2^16, (k + 1) / 2^16)`, because scaling by a power of
/// two is exact, and bucket `2^16` holds `t = 1.0` alone.
const BUCKETS: usize = 1 << 16;
/// A table entry whose bucket does not map to one colour.
const MIXED: u32 = u32::MAX;

/// `t` clamped to `[0, 1]`, with NaN mapped to 0.
#[inline]
pub(crate) fn unit(t: f64) -> f64 {
    if t.is_nan() {
        0.0
    } else {
        t.clamp(0.0, 1.0)
    }
}

impl Colormap {
    /// Sample the map at `t ∈ [0, 1]` (clamped; NaN maps to 0).
    ///
    /// Reads the map's colour table, which gives exactly what the
    /// piecewise-linear definition gives for every `f64` (DESIGN.md §8).
    pub(crate) fn sample(&self, t: f64) -> Rgb {
        self.lookup(self.table(), unit(t))
    }

    /// The colour at `t`, already clamped by [`unit`], read from `table`
    /// (this map's [`table`](Self::table)). A mixed bucket defers to the
    /// definition. `t ∈ [0, 1]` puts `t · 2^16` in `[0, 65 536]`, where the
    /// cast through `u32` truncates exactly as a direct `usize` cast would,
    /// without the saturating 64-bit conversion baseline x86-64 lacks.
    #[inline]
    pub(crate) fn lookup(self, table: &[u32; BUCKETS + 1], t: f64) -> Rgb {
        match table[(t * BUCKETS as f64) as u32 as usize] {
            MIXED => self.sample_exact(t),
            e => Rgb::new(e as u8, (e >> 8) as u8, (e >> 16) as u8),
        }
    }

    /// This map's colour table: `2^16 + 1` entries, built on first use.
    pub(crate) fn table(self) -> &'static [u32; BUCKETS + 1] {
        static TABLES: [OnceLock<Box<[u32; BUCKETS + 1]>>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        TABLES[self as usize].get_or_init(|| self.build_table())
    }

    /// Bucket `k` stores a colour iff every float in it maps to that
    /// colour, and [`MIXED`] otherwise. Between two stops each channel is
    /// monotone in `t` (the subtraction, the division, the lerp, the
    /// `+ 0.5` and the truncation all are; for gray, the scaling and the
    /// rounding), so a bucket inside one segment is decided by its first
    /// and last floats. A bucket holding a stop `s` is cut there into
    /// `[first, s]` and `[next_up(s), last]`, so `s` and the float after
    /// it are probed too.
    fn build_table(self) -> Box<[u32; BUCKETS + 1]> {
        let stops = match self {
            Colormap::Gray => &[][..],
            Colormap::OkuboWeiss => &OKUBO_WEISS[..],
            Colormap::Viridis => &VIRIDIS[..],
        };
        (0..=BUCKETS)
            .map(|k| {
                let first = k as f64 / BUCKETS as f64;
                let last = if k == BUCKETS {
                    1.0
                } else {
                    next_down((k + 1) as f64 / BUCKETS as f64)
                };
                let c = self.sample_exact(first);
                let mut probes = stops
                    .iter()
                    .filter(|&&(s, _)| first <= s && s <= last)
                    .flat_map(|&(s, _)| [s, next_up(s).min(last)])
                    .chain([last]);
                if probes.all(|t| self.sample_exact(t) == c) {
                    u32::from(c.r) | u32::from(c.g) << 8 | u32::from(c.b) << 16
                } else {
                    MIXED
                }
            })
            .collect::<Box<[u32]>>()
            .try_into()
            .expect("one entry per bucket")
    }

    /// The definition the table is built from and held to: the
    /// piecewise-linear map through the stops.
    fn sample_exact(self, t: f64) -> Rgb {
        let t = unit(t);
        match self {
            Colormap::Gray => {
                let v = (t * 255.0).round() as u8;
                Rgb::new(v, v, v)
            }
            Colormap::OkuboWeiss => piecewise(&OKUBO_WEISS, t),
            Colormap::Viridis => piecewise(&VIRIDIS, t),
        }
    }
}

/// The next float above a non-negative finite `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next float below a positive finite `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

fn piecewise(stops: &[(f64, Rgb)], t: f64) -> Rgb {
    debug_assert!(stops.len() >= 2);
    if t <= stops[0].0 {
        return stops[0].1;
    }
    for w in stops.windows(2) {
        let (t0, c0) = w[0];
        let (t1, c1) = w[1];
        if t <= t1 {
            return Rgb::lerp(c0, c1, (t - t0) / (t1 - t0));
        }
    }
    stops[stops.len() - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAPS: [Colormap; 3] = [Colormap::OkuboWeiss, Colormap::Viridis, Colormap::Gray];

    /// `x` and the four floats either side of it.
    fn around(x: f64) -> impl Iterator<Item = f64> {
        (-4i64..=4).map(move |d| {
            if x == 0.0 {
                let step = f64::from_bits(d.unsigned_abs());
                if d < 0 {
                    -step
                } else {
                    step
                }
            } else {
                f64::from_bits((x.to_bits() as i64 + d) as u64)
            }
        })
    }

    #[test]
    fn table_equals_the_definition_at_every_bucket_edge_and_stop() {
        let edges = (0..=BUCKETS).flat_map(|k| {
            let first = k as f64 / BUCKETS as f64;
            [first, next_down(((k + 1) as f64 / BUCKETS as f64).min(1.0))]
        });
        let stops = OKUBO_WEISS
            .iter()
            .chain(&VIRIDIS)
            .flat_map(|&(s, _)| around(s));
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            next_down(1.0),
            1.0,
            next_up(1.0),
            -1.0,
            f64::MAX,
            f64::MIN,
        ];
        let probes: Vec<f64> = edges.chain(stops).chain(specials).collect();
        for cm in MAPS {
            for &t in &probes {
                assert_eq!(cm.sample(t), cm.sample_exact(t), "{cm:?} at {t:e}");
            }
        }
    }

    #[test]
    fn mixed_buckets_are_few() {
        for cm in MAPS {
            let mixed = cm.table().iter().filter(|&&e| e == MIXED).count();
            assert!(mixed * 20 < BUCKETS, "{cm:?}: {mixed} mixed buckets");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Arbitrary bit patterns — mostly clamped or NaN — and arbitrary
        /// floats in `[0, 1]` read the same colour from the table as from
        /// the definition.
        #[test]
        fn table_equals_the_definition_on_arbitrary_bits(
            bits in 0u64..u64::MAX,
            unit_bits in 0u64..0x3FF0_0000_0000_0001,
        ) {
            for cm in MAPS {
                for t in [f64::from_bits(bits), f64::from_bits(unit_bits)] {
                    prop_assert_eq!(cm.sample(t), cm.sample_exact(t));
                }
            }
        }
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Rgb::new(0, 0, 0);
        let b = Rgb::new(200, 100, 50);
        assert_eq!(Rgb::lerp(a, b, 0.0), a);
        assert_eq!(Rgb::lerp(a, b, 1.0), b);
        assert_eq!(Rgb::lerp(a, b, 0.5), Rgb::new(100, 50, 25));
        // Clamped outside [0,1].
        assert_eq!(Rgb::lerp(a, b, 2.0), b);
    }

    #[test]
    fn okubo_weiss_palette_semantics() {
        // Rotation end (t=0) must be green-dominated; shear end blue-dominated.
        let rot = Colormap::OkuboWeiss.sample(0.0);
        assert!(
            rot.g > rot.r && rot.g > rot.b,
            "rotation end not green: {rot:?}"
        );
        let shear = Colormap::OkuboWeiss.sample(1.0);
        assert!(
            shear.b > shear.r && shear.b > shear.g,
            "shear end not blue: {shear:?}"
        );
        // Neutral middle is light.
        let mid = Colormap::OkuboWeiss.sample(0.5);
        assert!(mid.r > 200 && mid.g > 200 && mid.b > 200);
    }

    #[test]
    fn gray_is_linear() {
        assert_eq!(Colormap::Gray.sample(0.0), Rgb::BLACK);
        assert_eq!(Colormap::Gray.sample(1.0), Rgb::WHITE);
        assert_eq!(Colormap::Gray.sample(0.5), Rgb::new(128, 128, 128));
    }

    #[test]
    fn nan_and_out_of_range_clamped() {
        let cm = Colormap::Viridis;
        assert_eq!(cm.sample(f64::NAN), cm.sample(0.0));
        assert_eq!(cm.sample(-5.0), cm.sample(0.0));
        assert_eq!(cm.sample(5.0), cm.sample(1.0));
    }

    #[test]
    fn viridis_is_monotone_in_luma() {
        // Approximate luma must increase monotonically along viridis.
        let luma = |c: Rgb| 0.2126 * c.r as f64 + 0.7152 * c.g as f64 + 0.0722 * c.b as f64;
        let mut prev = -1.0;
        for i in 0..=20 {
            let l = luma(Colormap::Viridis.sample(i as f64 / 20.0));
            assert!(l >= prev - 1.0, "viridis luma dipped at {i}");
            prev = l;
        }
    }
}
