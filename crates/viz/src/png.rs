//! A from-scratch PNG encoder.
//!
//! Produces standard-compliant PNGs: 8-bit RGB, one IDAT chunk containing a
//! zlib stream of **stored** (uncompressed) deflate blocks with a correct
//! Adler-32, and CRC-32 on every chunk. Stored blocks keep the encoder tiny
//! and dependency-free while remaining readable by every PNG decoder; the
//! resulting file size is `~3·w·h + h + 70` bytes.
//!
//! ## Single-pass streaming
//!
//! [`PngEncoder`] emits the file in one pass directly into the output
//! `Vec`: scanlines (filter byte + pixels, packed eight pixels per three
//! `u64` writes into a reusable one-scanline scratch) are framed into
//! stored deflate blocks as they are produced. Block headers go through
//! the chunk CRC-32 as they are written; each block's payload (≤ 65 535
//! bytes, so still in cache) goes through the CRC-32 and the zlib Adler-32
//! in one piece once it is complete in `out`. The hot path touches each
//! pixel once and allocates nothing beyond the output buffer and the
//! scratch; the seed's three-copy chain (`to_rgb_bytes` → scanline `raw` →
//! `zlib_stored` → chunk payload copy) survives only as the test oracle
//! the encoder is proptested against. The stored-block layout (and
//! therefore the exact file size) comes from one shared function,
//! `png_layout`, so [`encoded_png_size`] is exact *by construction*.
//!
//! ## Checksums
//!
//! Stored blocks mean the encoder's arithmetic is *all* checksum work. Each
//! checksum has one implementation, held bit-for-bit to its serial form by
//! `#[cfg(test)]` oracles and proptests:
//!
//! * **CRC-32, four streams of slice-by-8** — eight derived lookup tables
//!   (built at compile time from the same polynomial table) fold 8 input
//!   bytes per step. An input of ≥ 1 KiB is cut into four equal segments
//!   that advance as four independent chains in one loop, then combine
//!   through GF(2) multiplication by `x^(8n) mod P`: CRC is affine over
//!   GF(2), so the result equals the bytewise loop (`crc32_reference`) on
//!   every input.
//! * **Adler-32, 16 lanes** — each ≤ 5552-byte block (zlib's NMAX) runs
//!   as 16 `u32` lanes of pure vertical adds, folded back into the serial
//!   `a += x; b += a` recurrence's `(a, b)` in `u64` and reduced mod 65521
//!   once per block; the oracle is that serial loop
//!   (`adler32_reference`).

use crate::color::Rgb;
use crate::raster::ImageBuffer;

/// The 8-byte PNG signature.
pub const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];

/// Largest stored-deflate block payload (LEN is a u16).
const STORED_BLOCK_MAX: usize = 65_535;

/// The CRC-32 polynomial, bit-reversed: bit 31 is the `x^0` coefficient.
const CRC_POLY: u32 = 0xEDB8_8320;

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

/// Slice-by-8 CRC-32 tables. `CRC_TABLES[0]` is the classic bytewise
/// [`CRC_TABLE`]; table `k` advances a byte through `k` additional zero
/// bytes, so one iteration can fold 8 input bytes at once. Built at compile
/// time from the same polynomial.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
};

/// `a · b mod P` over GF(2), both operands in CRC-32's reflected bit order.
const fn gf2_mul_mod(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut i = 0;
    while i < 32 {
        p ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(b & 1));
        i += 1;
    }
    p
}

/// `X8_POW2[k] = x^(8·2^k) mod P`: the squares that [`crc32_shift`]
/// multiplies together. Built at compile time by repeated squaring of
/// `x^8` (bit 23 in reflected order).
const X8_POW2: [u32; 64] = {
    let mut table = [0u32; 64];
    table[0] = 1 << 23;
    let mut k = 1;
    while k < 64 {
        table[k] = gf2_mul_mod(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8n) mod P`: the factor that advances a CRC-32 state over `n` zero
/// bytes, by square-and-multiply over the bits of `n`.
fn crc32_shift(n: usize) -> u32 {
    let mut m = 1 << 31; // x^0
    let mut bits = n as u64;
    let mut k = 0;
    while bits != 0 {
        if bits & 1 != 0 {
            m = gf2_mul_mod(m, X8_POW2[k]);
        }
        bits >>= 1;
        k += 1;
    }
    m
}

/// Fold `data` into a running (pre-inverted) CRC-32 state, bytewise:
/// [`crc32_update`]'s last `< 8` bytes.
#[inline]
fn crc32_update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Fold one 8-byte word into a CRC-32 state (slice-by-8).
#[inline(always)]
fn crc32_fold8(crc: u32, w: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// Inputs at least this long run as four streams in [`crc32_update`].
const CRC_STREAMS_MIN: usize = 1024;

/// Fold `data` into a running (pre-inverted) CRC-32 state.
///
/// An input of at least [`CRC_STREAMS_MIN`] bytes is cut into four equal
/// segments of a multiple of 8 bytes each, plus a short tail. The segments
/// advance as four independent slice-by-8 chains in one loop, the first
/// from `crc` and the others from 0, so the four table-lookup chains
/// overlap instead of waiting on each other. CRC is affine over GF(2):
/// with `c(B)` the state after `B` from 0, the state after `A‖B` is
/// `state(A) · x^(8|B|) mod P ⊕ c(B)`, which folds the four results into
/// one exactly. The tail and short inputs run the single chain, then
/// [`crc32_update_bytewise`]; the result equals the bytewise loop on
/// every input, which the proptests assert.
#[inline]
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut rest = data;
    if data.len() >= CRC_STREAMS_MIN {
        let seg = data.len() / 32 * 8;
        let (s0, r) = data.split_at(seg);
        let (s1, r) = r.split_at(seg);
        let (s2, r) = r.split_at(seg);
        let (s3, r) = r.split_at(seg);
        let mut c = [crc, 0, 0, 0];
        for (((w0, w1), w2), w3) in s0
            .chunks_exact(8)
            .zip(s1.chunks_exact(8))
            .zip(s2.chunks_exact(8))
            .zip(s3.chunks_exact(8))
        {
            c[0] = crc32_fold8(c[0], w0);
            c[1] = crc32_fold8(c[1], w1);
            c[2] = crc32_fold8(c[2], w2);
            c[3] = crc32_fold8(c[3], w3);
        }
        let shift = crc32_shift(seg);
        crc = c[1..]
            .iter()
            .fold(c[0], |acc, &ci| gf2_mul_mod(acc, shift) ^ ci);
        rest = r;
    }
    let mut octets = rest.chunks_exact(8);
    for w in octets.by_ref() {
        crc = crc32_fold8(crc, w);
    }
    crc32_update_bytewise(crc, octets.remainder())
}

/// CRC-32 (IEEE 802.3) over `data`, as PNG requires.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Largest number of bytes that can be folded into an Adler-32 state
/// between modular reductions without overflowing u32 (zlib's NMAX).
const ADLER_NMAX: usize = 5_552;
const ADLER_MOD: u32 = 65_521;
/// Lanes of [`adler32_update`]; [`ADLER_NMAX`] is a multiple of it.
const ADLER_LANES: usize = 16;

/// Fold `data` into a running Adler-32 state `(a, b)`, both reduced mod
/// 65521 on entry and left reduced, so updates can be chained on arbitrary
/// slices.
///
/// Each ≤ [`ADLER_NMAX`]-byte block runs as 16 `u32` lanes: byte `16j + i`
/// goes to lane `i`, which keeps `s1 += x; s2 += s1`. Over `n` rows of 16
/// bytes the serial `a += x; b += a` recurrence adds `Σ s1` to `a` and
/// `16·n·a₀ + 16·Σ s2 − Σ i·s1` to `b` (byte `k` of the block is counted
/// `16n − k` times), folded in `u64`. A lane sums at most
/// `255 · 347 · 348 / 2 < 2^32` into `s2`, so the lanes never wrap, and
/// `16·s2 ≥ i·s1` per lane, so the difference never goes negative. The
/// last `< 16` bytes run the serial recurrence.
#[inline]
fn adler32_update(a: &mut u32, b: &mut u32, data: &[u8]) {
    for block in data.chunks(ADLER_NMAX) {
        let rows = block.chunks_exact(ADLER_LANES);
        let tail = rows.remainder();
        let n = rows.len() as u64;
        let (mut s1, mut s2) = ([0u32; ADLER_LANES], [0u32; ADLER_LANES]);
        for row in rows {
            for ((s1, s2), &x) in s1.iter_mut().zip(&mut s2).zip(row) {
                *s1 += u32::from(x);
                *s2 += *s1;
            }
        }
        let mut sa = u64::from(*a);
        let mut sb = u64::from(*b) + ADLER_LANES as u64 * n * sa;
        for (i, (&s1, &s2)) in s1.iter().zip(&s2).enumerate() {
            sa += u64::from(s1);
            sb += ADLER_LANES as u64 * u64::from(s2) - i as u64 * u64::from(s1);
        }
        for &x in tail {
            sa += u64::from(x);
            sb += sa;
        }
        *a = (sa % u64::from(ADLER_MOD)) as u32;
        *b = (sb % u64::from(ADLER_MOD)) as u32;
    }
}

/// Adler-32 checksum, as zlib requires.
pub fn adler32(data: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    adler32_update(&mut a, &mut b, data);
    (b << 16) | a
}

/// The exact stored-deflate layout of the PNG this encoder produces for a
/// `w × h` RGB image. Both [`PngEncoder`] (to frame blocks and reserve the
/// output) and [`encoded_png_size`] (to predict bytes without encoding)
/// derive from this one function, which is what keeps the prediction exact
/// by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PngLayout {
    /// Filtered scanline bytes: `h · (1 + 3·w)`.
    pub raw_len: usize,
    /// Stored deflate blocks needed (≥ 1 even for empty payloads).
    pub n_blocks: usize,
    /// zlib stream length: header + blocks + Adler-32.
    pub zlib_len: usize,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// Compute the [`PngLayout`] for a `w × h` RGB image.
pub(crate) fn png_layout(w: usize, h: usize) -> PngLayout {
    let raw_len = h * (1 + 3 * w);
    let n_blocks = raw_len.div_ceil(STORED_BLOCK_MAX).max(1);
    let zlib_len = 2 + raw_len + 5 * n_blocks + 4;
    // signature + IHDR(12+13) + IDAT(12+zlib) + IEND(12)
    let file_len = (8 + 25 + 12 + zlib_len + 12) as u64;
    PngLayout {
        raw_len,
        n_blocks,
        zlib_len,
        file_len,
    }
}

/// Appends one PNG chunk's type + payload bytes while maintaining the
/// chunk's CRC-32 incrementally; `finish` seals the chunk with the CRC.
/// The 4-byte length header is the caller's job (it must be known before
/// the payload is streamed — see [`png_layout`]).
struct ChunkWriter<'a> {
    out: &'a mut Vec<u8>,
    crc: u32,
}

impl<'a> ChunkWriter<'a> {
    fn begin(out: &'a mut Vec<u8>, payload_len: u32, kind: &[u8; 4]) -> Self {
        out.extend_from_slice(&payload_len.to_be_bytes());
        let mut w = ChunkWriter {
            out,
            crc: 0xFFFF_FFFF,
        };
        w.put(kind);
        w
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.crc = crc32_update(self.crc, bytes);
        self.out.extend_from_slice(bytes);
    }

    /// Fold everything appended to `out` since offset `start` into the
    /// CRC at once, and return those bytes.
    fn fold_since(&mut self, start: usize) -> &[u8] {
        let appended = &self.out[start..];
        self.crc = crc32_update(self.crc, appended);
        appended
    }

    fn finish(self) {
        let crc = self.crc ^ 0xFFFF_FFFF;
        self.out.extend_from_slice(&crc.to_be_bytes());
    }
}

/// Single-pass streaming PNG encoder with a reusable scanline scratch
/// buffer. Create once per run and call [`PngEncoder::encode_into`] per
/// frame.
#[derive(Debug, Clone, Default)]
pub struct PngEncoder {
    /// One filtered scanline (`1 + 3·w` bytes), reused across rows and
    /// frames.
    row: Vec<u8>,
}

impl PngEncoder {
    /// A fresh encoder (no scratch allocated until first use).
    pub fn new() -> Self {
        PngEncoder::default()
    }

    /// Encode `img` into `out` (cleared first). Appends exactly
    /// `png_layout(w, h).file_len` bytes.
    pub fn encode_into(&mut self, img: &ImageBuffer, out: &mut Vec<u8>) {
        let (w, h) = (img.width(), img.height());
        let layout = png_layout(w, h);
        out.clear();
        out.reserve(layout.file_len as usize);
        out.extend_from_slice(&PNG_SIGNATURE);

        // IHDR.
        let mut ihdr = ChunkWriter::begin(out, 13, b"IHDR");
        ihdr.put(&(w as u32).to_be_bytes());
        ihdr.put(&(h as u32).to_be_bytes());
        ihdr.put(&[8, 2, 0, 0, 0]); // depth, RGB, compression, filter, interlace
        ihdr.finish();

        // IDAT: zlib header, stored blocks framed on the fly, Adler-32.
        let mut idat = ChunkWriter::begin(out, layout.zlib_len as u32, b"IDAT");
        idat.put(&[0x78, 0x01]); // CMF: deflate, 32K window; FLG: no dict
        let (mut a, mut b) = (1u32, 0u32);
        let mut raw_remaining = layout.raw_len;
        let mut block_remaining = 0usize;
        if raw_remaining == 0 {
            // One empty final stored block (unreachable for ImageBuffers,
            // whose dimensions are positive; kept for layout parity).
            idat.put(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
        }
        self.row.resize(1 + 3 * w, 0);
        let mut block_start = 0;
        for y in 0..h {
            fill_scanline(&mut self.row, &img.pixels()[y * w..(y + 1) * w]);
            // Stream it through the stored-block framing. Block headers go
            // through the CRC as they are written; a block's payload is
            // checksummed in one piece once it is complete in `out`.
            let mut src = &self.row[..];
            while !src.is_empty() {
                if block_remaining == 0 {
                    let len = raw_remaining.min(STORED_BLOCK_MAX);
                    let bfinal = if raw_remaining <= STORED_BLOCK_MAX {
                        1
                    } else {
                        0
                    };
                    idat.put(&[bfinal]);
                    idat.put(&(len as u16).to_le_bytes());
                    idat.put(&(!(len as u16)).to_le_bytes());
                    block_remaining = len;
                    block_start = idat.out.len();
                }
                let take = src.len().min(block_remaining);
                idat.out.extend_from_slice(&src[..take]);
                block_remaining -= take;
                raw_remaining -= take;
                src = &src[take..];
                if block_remaining == 0 {
                    adler32_update(&mut a, &mut b, idat.fold_since(block_start));
                }
            }
        }
        idat.put(&((b << 16) | a).to_be_bytes());
        idat.finish();

        ChunkWriter::begin(out, 0, b"IEND").finish();
        debug_assert_eq!(out.len() as u64, layout.file_len, "layout drifted");
    }
}

/// Fill a scanline: filter byte 0 (None), then the pixels' RGB triples,
/// eight pixels (24 bytes) per step as three little-endian `u64` writes.
fn fill_scanline(row: &mut [u8], pixels: &[Rgb]) {
    row[0] = 0;
    let (packed, tail) = row[1..].split_at_mut(pixels.len() / 8 * 24);
    let rgb = |p: &Rgb| u64::from(p.r) | u64::from(p.g) << 8 | u64::from(p.b) << 16;
    for (dst, p) in packed.chunks_exact_mut(24).zip(pixels.chunks_exact(8)) {
        let v: [u64; 8] = std::array::from_fn(|i| rgb(&p[i]));
        let words = [
            v[0] | v[1] << 24 | v[2] << 48,
            v[2] >> 16 | v[3] << 8 | v[4] << 32 | v[5] << 56,
            v[5] >> 8 | v[6] << 16 | v[7] << 40,
        ];
        for (d, word) in dst.chunks_exact_mut(8).zip(words) {
            d.copy_from_slice(&word.to_le_bytes());
        }
    }
    for (dst, p) in tail
        .chunks_exact_mut(3)
        .zip(&pixels[pixels.len() / 8 * 8..])
    {
        dst.copy_from_slice(&[p.r, p.g, p.b]);
    }
}

/// Encode an image as a PNG file (one-shot convenience over
/// [`PngEncoder`]).
pub fn encode_png(img: &ImageBuffer) -> Vec<u8> {
    let mut out = Vec::new();
    PngEncoder::new().encode_into(img, &mut out);
    out
}

/// Exact size in bytes of the PNG this encoder produces for a `w × h` image,
/// without encoding. Used for byte accounting in the pipelines. Derived
/// from the same `png_layout` the encoder frames blocks with.
pub fn encoded_png_size(w: usize, h: usize) -> u64 {
    png_layout(w, h).file_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;
    use proptest::prelude::*;

    /// CRC-32 via the bytewise loop alone: the slice-by-8 path's oracle.
    fn crc32_reference(data: &[u8]) -> u32 {
        crc32_update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Adler-32 via the serial `a += x; b += a` loop alone: the laned
    /// path's oracle.
    fn adler32_reference(a: &mut u32, b: &mut u32, data: &[u8]) {
        for chunk in data.chunks(ADLER_NMAX) {
            for &x in chunk {
                *a += x as u32;
                *b += *a;
            }
            *a %= ADLER_MOD;
            *b %= ADLER_MOD;
        }
    }

    /// `len` deterministic pseudo-random bytes from `seed` (SplitMix64).
    fn splitmix_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    fn push_chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        let start = out.len();
        out.extend_from_slice(kind);
        out.extend_from_slice(payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_be_bytes());
    }

    /// Wrap raw bytes in a zlib stream of stored deflate blocks.
    fn zlib_stored(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + data.len() / STORED_BLOCK_MAX * 5 + 16);
        out.push(0x78); // CMF: deflate, 32K window
        out.push(0x01); // FLG: no preset dict, fastest (checksum-correct)
        let mut chunks = data.chunks(STORED_BLOCK_MAX).peekable();
        if data.is_empty() {
            // One empty final stored block.
            out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
        }
        while let Some(chunk) = chunks.next() {
            let bfinal = if chunks.peek().is_none() { 1 } else { 0 };
            out.push(bfinal);
            let len = chunk.len() as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(!len).to_le_bytes());
            out.extend_from_slice(chunk);
        }
        out.extend_from_slice(&adler32(data).to_be_bytes());
        out
    }

    /// The seed's original copy-chain encoder (`to_rgb_bytes` → scanline
    /// assembly → `zlib_stored` → chunk copy): the oracle [`PngEncoder`] must
    /// match byte for byte.
    fn encode_png_reference(img: &ImageBuffer) -> Vec<u8> {
        let (w, h) = (img.width(), img.height());
        let mut out = Vec::with_capacity(w * h * 3 + h + 128);
        out.extend_from_slice(&PNG_SIGNATURE);

        let mut ihdr = Vec::with_capacity(13);
        ihdr.extend_from_slice(&(w as u32).to_be_bytes());
        ihdr.extend_from_slice(&(h as u32).to_be_bytes());
        ihdr.push(8); // bit depth
        ihdr.push(2); // color type: truecolor RGB
        ihdr.push(0); // compression
        ihdr.push(0); // filter method
        ihdr.push(0); // no interlace
        push_chunk(&mut out, b"IHDR", &ihdr);

        // Scanlines: filter byte 0 (None) + RGB triples.
        let rgb = img.to_rgb_bytes();
        let mut raw = Vec::with_capacity(h * (1 + 3 * w));
        for y in 0..h {
            raw.push(0);
            raw.extend_from_slice(&rgb[y * 3 * w..(y + 1) * 3 * w]);
        }
        push_chunk(&mut out, b"IDAT", &zlib_stored(&raw));
        push_chunk(&mut out, b"IEND", &[]);
        out
    }

    /// Minimal structural PNG parser: validates the signature and every
    /// chunk's CRC, returning `(type, payload)` pairs. Not a general decoder.
    ///
    /// # Panics
    /// Panics on any structural violation.
    fn parse_png_chunks(data: &[u8]) -> Vec<(String, Vec<u8>)> {
        assert_eq!(&data[..8], &PNG_SIGNATURE);
        let mut chunks = Vec::new();
        let mut pos = 8;
        while pos < data.len() {
            let len = u32::from_be_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = String::from_utf8(data[pos + 4..pos + 8].to_vec()).unwrap();
            let payload = data[pos + 8..pos + 8 + len].to_vec();
            let stored_crc =
                u32::from_be_bytes(data[pos + 8 + len..pos + 12 + len].try_into().unwrap());
            let computed = crc32(&data[pos + 4..pos + 8 + len]);
            assert_eq!(stored_crc, computed, "bad CRC on {kind}");
            chunks.push((kind, payload));
            pos += 12 + len;
        }
        chunks
    }

    /// Decode a zlib stream of stored deflate blocks (the inverse of this
    /// encoder's IDAT payload), verifying LEN/NLEN framing and the Adler-32.
    /// Only stored blocks are understood.
    ///
    /// # Panics
    /// Panics on compressed blocks, framing errors, or checksum mismatch.
    fn unzlib_stored(z: &[u8]) -> Vec<u8> {
        assert_eq!(z[0] & 0x0F, 8, "deflate method");
        let mut out = Vec::new();
        let mut pos = 2;
        loop {
            let bfinal = z[pos] & 1;
            assert_eq!(z[pos] >> 1, 0, "stored block expected");
            let len = u16::from_le_bytes(z[pos + 1..pos + 3].try_into().unwrap()) as usize;
            let nlen = u16::from_le_bytes(z[pos + 3..pos + 5].try_into().unwrap());
            assert_eq!(!(len as u16), nlen, "LEN/NLEN mismatch");
            out.extend_from_slice(&z[pos + 5..pos + 5 + len]);
            pos += 5 + len;
            if bfinal == 1 {
                break;
            }
        }
        let expect = u32::from_be_bytes(z[pos..pos + 4].try_into().unwrap());
        assert_eq!(adler32(&out), expect, "adler mismatch");
        out
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn sliced_crc32_matches_reference_at_all_tail_lengths() {
        // Lengths straddling the 8-byte stride, including every tail
        // length 0..8.
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 131 % 256) as u8).collect();
        let mut lens: Vec<usize> = (0..=16).collect();
        lens.extend([
            5_551, 5_552, 5_553, 5_559, 5_560, 11_104, 11_105, 19_993, 20_000,
        ]);
        for &len in &lens {
            let d = &data[..len];
            assert_eq!(crc32(d), crc32_reference(d), "crc len {len}");
        }
    }

    #[test]
    fn incremental_checksums_match_oneshot_at_any_split() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 31 % 251) as u8).collect();
        for split in [0, 1, 7, 5_551, 5_552, 5_553, 39_999] {
            let (head, tail) = data.split_at(split);
            let crc = crc32_update(crc32_update(0xFFFF_FFFF, head), tail) ^ 0xFFFF_FFFF;
            assert_eq!(crc, crc32(&data), "crc split at {split}");
            let (mut a, mut b) = (1u32, 0u32);
            adler32_update(&mut a, &mut b, head);
            adler32_update(&mut a, &mut b, tail);
            assert_eq!((b << 16) | a, adler32(&data), "adler split at {split}");
        }
    }

    #[test]
    fn png_structure_is_valid() {
        let mut img = ImageBuffer::new(5, 3);
        img.set(0, 0, Rgb::new(255, 0, 0));
        let png = encode_png(&img);
        let chunks = parse_png_chunks(&png);
        assert_eq!(chunks[0].0, "IHDR");
        assert_eq!(chunks[1].0, "IDAT");
        assert_eq!(chunks[2].0, "IEND");
        // IHDR fields
        let ihdr = &chunks[0].1;
        assert_eq!(u32::from_be_bytes(ihdr[0..4].try_into().unwrap()), 5);
        assert_eq!(u32::from_be_bytes(ihdr[4..8].try_into().unwrap()), 3);
        assert_eq!(ihdr[8], 8);
        assert_eq!(ihdr[9], 2);
    }

    #[test]
    fn pixels_roundtrip_through_idat() {
        let mut img = ImageBuffer::new(4, 2);
        for y in 0..2 {
            for x in 0..4 {
                img.set(x, y, Rgb::new(x as u8 * 10, y as u8 * 100, 7));
            }
        }
        let png = encode_png(&img);
        let chunks = parse_png_chunks(&png);
        let raw = unzlib_stored(&chunks[1].1);
        // Each scanline: filter byte then RGB triples.
        assert_eq!(raw.len(), 2 * (1 + 12));
        assert_eq!(raw[0], 0);
        assert_eq!(&raw[1..4], &[0, 0, 7]); // pixel (0,0)
        assert_eq!(&raw[1 + 9..1 + 12], &[30, 0, 7]); // pixel (3,0)
        assert_eq!(&raw[14..17], &[0, 100, 7]); // pixel (0,1)
    }

    /// A deterministic non-trivial test image.
    fn patterned(w: usize, h: usize) -> ImageBuffer {
        let mut img = ImageBuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    Rgb::new((x * 7 + y * 13) as u8, (x ^ y) as u8, (x * y % 251) as u8),
                );
            }
        }
        img
    }

    #[test]
    fn streaming_encoder_matches_reference_bytes() {
        // Including widths whose scanlines straddle the 65 535-byte
        // stored-block boundary mid-row and mid-file.
        let mut enc = PngEncoder::new();
        let mut out = Vec::new();
        for (w, h) in [
            (1, 1),
            (5, 3),
            (64, 64),
            (333, 17),
            (256, 100),
            (21_844, 1),
            (21_845, 1),
            (21_846, 2),
            (4_096, 6),
        ] {
            let img = patterned(w, h);
            enc.encode_into(&img, &mut out);
            assert_eq!(
                out,
                encode_png_reference(&img),
                "encoder diverged from reference at {w}x{h}"
            );
        }
    }

    #[test]
    fn size_prediction_is_exact() {
        // The original sizes, plus widths that straddle the 65 535-byte
        // stored-block boundary: raw = h·(1+3w), so w = 21 844 → 65 533
        // raw bytes (one block), w = 21 845 → 65 536 (two blocks, second
        // of length 1), and multi-row shapes whose rows split mid-block.
        for (w, h) in [
            (1, 1),
            (5, 3),
            (64, 64),
            (333, 17),
            (21_844, 1),
            (21_845, 1),
            (21_846, 1),
            (21_844, 2),
            (21_845, 3),
            (10_922, 2),
            (4_096, 6),
        ] {
            let img = ImageBuffer::new(w, h);
            assert_eq!(
                encode_png(&img).len() as u64,
                encoded_png_size(w, h),
                "size mismatch for {w}x{h}"
            );
        }
    }

    #[test]
    fn large_image_spans_multiple_deflate_blocks() {
        // > 65535 raw bytes forces multiple stored blocks.
        let img = ImageBuffer::new(256, 100); // raw = 100*(1+768) = 76900
        let png = encode_png(&img);
        let chunks = parse_png_chunks(&png);
        let raw = unzlib_stored(&chunks[1].1);
        assert_eq!(raw.len(), 100 * 769);
        assert_eq!(png.len() as u64, encoded_png_size(256, 100));
        assert_eq!(png_layout(256, 100).n_blocks, 2);
    }

    #[test]
    fn hd_image_size_near_cinema_budget() {
        // The in-situ image budget per timestep in the paper is ≈1.1 MB;
        // one 720×512 stored-PNG frame is in that ballpark.
        let size = encoded_png_size(720, 512);
        assert!(size > 1_000_000 && size < 1_200_000, "size={size}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Slice-by-8 CRC-32 == bytewise CRC-32 on arbitrary byte strings,
        /// including every 8-byte-stride tail.
        #[test]
        fn sliced_crc32_matches_reference(
            words in prop::collection::vec(0u64..1_000_000, 0..12_000),
            pad in 0usize..9,
        ) {
            let mut data: Vec<u8> = words.iter().map(|&v| (v % 256) as u8).collect();
            data.truncate(data.len().saturating_sub(pad));
            prop_assert_eq!(crc32(&data), crc32_reference(&data));
        }
    }

    #[test]
    fn laned_adler32_matches_reference_on_saturated_input() {
        // All-0xFF bytes from the largest reduced state drive every lane
        // sum to its bound; any wrap in a lane or in the fold shows here
        // (also with overflow checks off, under `--release`).
        let data = vec![0xFF; 3 * ADLER_NMAX + 37];
        let mut lens: Vec<usize> = (0..=33).collect();
        lens.extend([
            ADLER_NMAX - 1,
            ADLER_NMAX,
            ADLER_NMAX + 1,
            2 * ADLER_NMAX + 15,
            3 * ADLER_NMAX,
            3 * ADLER_NMAX + 16,
            data.len(),
        ]);
        for &len in &lens {
            let (mut a, mut b) = (65_520u32, 65_520u32);
            adler32_update(&mut a, &mut b, &data[..len]);
            let (mut ra, mut rb) = (65_520u32, 65_520u32);
            adler32_reference(&mut ra, &mut rb, &data[..len]);
            assert_eq!((a, b), (ra, rb), "adler len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Laned Adler-32 == the serial loop on arbitrary bytes, from an
        /// arbitrary reduced state, at lengths across several multiples of
        /// NMAX and every 16-lane tail.
        #[test]
        fn laned_adler32_matches_reference(
            seed in 0u64..u64::MAX,
            len in 0usize..4 * ADLER_NMAX + 40,
            a0 in 0u32..ADLER_MOD,
            b0 in 0u32..ADLER_MOD,
        ) {
            let data = splitmix_bytes(seed, len);
            let (mut a, mut b) = (a0, b0);
            adler32_update(&mut a, &mut b, &data);
            let (mut ra, mut rb) = (a0, b0);
            adler32_reference(&mut ra, &mut rb, &data);
            prop_assert_eq!((a, b), (ra, rb));
        }

        /// Chained `crc32_update` calls split anywhere == the bytewise CRC,
        /// on inputs below and above the four-stream threshold, up to past
        /// one stored block, at lengths that are mostly not multiples of 32.
        #[test]
        fn crc32_update_chains_at_arbitrary_splits(
            seed in 0u64..u64::MAX,
            len in prop_oneof![0usize..2 * CRC_STREAMS_MIN, 0usize..70_001],
            split in 0usize..70_001,
        ) {
            let data = splitmix_bytes(seed, len);
            let (head, tail) = data.split_at(split % (len + 1));
            let crc = crc32_update(crc32_update(0xFFFF_FFFF, head), tail) ^ 0xFFFF_FFFF;
            prop_assert_eq!(crc, crc32_reference(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random images whose raw scanlines span more than one stored
        /// block encode to the copy-chain oracle's bytes: every block's
        /// payload is checksummed whole, the blocks' edges fall mid-row.
        #[test]
        fn multi_block_images_match_reference_encoder(
            w in 1usize..2_000,
            extra_rows in 0usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let h = STORED_BLOCK_MAX / (1 + 3 * w) + 1 + extra_rows;
            let bytes = splitmix_bytes(seed, 3 * w * h);
            let mut img = ImageBuffer::new(w, h);
            for (i, p) in bytes.chunks_exact(3).enumerate() {
                img.set(i % w, i / w, Rgb::new(p[0], p[1], p[2]));
            }
            prop_assert!(png_layout(w, h).n_blocks >= 2);
            prop_assert_eq!(encode_png(&img), encode_png_reference(&img));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random images round-trip exactly through the streaming encoder
        /// and the stored-block parser, and the streamed bytes equal the
        /// copy-chain oracle's.
        #[test]
        fn random_images_roundtrip_through_streaming_encoder(
            w in 1usize..40,
            h in 1usize..24,
            seed in 0u64..u64::MAX,
        ) {
            // Deterministic pseudo-random pixels from the seed (SplitMix64).
            let mut s = seed;
            let mut next = move || {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut img = ImageBuffer::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let r = next();
                    img.set(x, y, Rgb::new(r as u8, (r >> 8) as u8, (r >> 16) as u8));
                }
            }
            let mut enc = PngEncoder::new();
            let mut png = Vec::new();
            enc.encode_into(&img, &mut png);
            prop_assert_eq!(&png, &encode_png_reference(&img));
            let chunks = parse_png_chunks(&png); // validates signature + CRCs
            prop_assert_eq!(chunks.len(), 3);
            let raw = unzlib_stored(&chunks[1].1); // validates framing + Adler
            prop_assert_eq!(raw.len(), h * (1 + 3 * w));
            for y in 0..h {
                let row = &raw[y * (1 + 3 * w)..(y + 1) * (1 + 3 * w)];
                prop_assert_eq!(row[0], 0, "filter byte");
                for x in 0..w {
                    let p = img.pixels()[y * w + x];
                    prop_assert_eq!(&row[1 + 3 * x..4 + 3 * x], &[p.r, p.g, p.b]);
                }
            }
        }
    }
}
