//! The seven workloads, three families sharing one harness.

use std::time::Instant;

use crate::catalog::*;
use crate::harness::{TraceCtx, Workload};
use crate::json::{self, Value};
use crate::stats::median;
use crate::trace::Tracer;

pub mod campaign;
pub mod native;
pub mod serve;

/// Seed the pinned outputs under `expected/` were recorded with.
pub const DEFAULT_SEED: u64 = 42;

/// Build workload `name` from `seed`. `quick` shrinks inputs so a whole
/// pass takes a second or two. Panics on an unknown name; the harness
/// checks names first.
pub fn build(name: &str, seed: u64, quick: bool) -> Box<dyn Workload> {
    match name {
        PAPER_MATRIX => Box::new(campaign::CampaignWorkload::paper_matrix(seed)),
        PAPER_MATRIX_TRACED => Box::new(campaign::CampaignWorkload::paper_matrix_traced()),
        WHATIF_10K => Box::new(campaign::CampaignWorkload::whatif_10k(quick)),
        NATIVE_INSITU => Box::new(native::NativeWorkload::new(
            native::Path::InSitu,
            seed,
            quick,
        )),
        NATIVE_POSTPROC => Box::new(native::NativeWorkload::new(
            native::Path::PostProc,
            seed,
            quick,
        )),
        SERVE_HOT => Box::new(serve::ServeWorkload::hot(seed, quick)),
        SERVE_MISS => Box::new(serve::ServeWorkload::miss(seed, quick)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// The pinned outputs of the default seed, parsed from
/// `expected/seed42.json` (compiled in, so a run reads nothing at run
/// time).
pub fn expected() -> Value {
    json::parse(include_str!("../../expected/seed42.json")).expect("expected/seed42.json parses")
}

/// Pinned string `section.key`, if the file has it.
pub fn expected_str(section: &str, key: &str) -> Option<String> {
    expected()
        .get(section)?
        .get(key)?
        .as_str()
        .map(str::to_string)
}

/// FNV-1a over bytes, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A content hash fast enough for tens of megabytes per check: FNV-style
/// mixing over 8-byte words, then the tail bytewise.
pub fn hash_words(mut state: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        state ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        state = state.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    fnv1a(state, chunks.remainder())
}

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// depend on nothing but the seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Median seconds of `f` over `reps` runs after one warm-up run.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Replay iterations until the budget and the floor are met: `one` under
/// a `bench.replay` root span, then the same work with spans off, turn
/// about, so both see the same machine state. Sets
/// `bench.trace_overhead_pct` and `bench.replay_coverage`.
pub fn replay_iterations(ctx: &mut TraceCtx<'_>, mut one: impl FnMut(&mut Tracer)) {
    let begun = Instant::now();
    let mut off = Tracer::new(false);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    while traced.len() < ctx.min_replays || begun.elapsed().as_secs_f64() < ctx.replay_seconds {
        let t0 = Instant::now();
        let root = ctx.tracer.open("bench.replay");
        one(ctx.tracer);
        ctx.tracer.close(root);
        traced.push(t0.elapsed().as_secs_f64());
        ctx.tracer.end_iteration();

        let t0 = Instant::now();
        one(&mut off);
        plain.push(t0.elapsed().as_secs_f64());
    }
    ctx.layers.set(
        "bench.trace_overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    );
    ctx.layers.set(
        "bench.replay_coverage",
        attributed_ms(ctx.tracer) / ctx.iter_ms_p50,
    );
}

/// Self time per replay iteration billed to any layer but the
/// benchmark's own, milliseconds.
pub fn attributed_ms(tracer: &Tracer) -> f64 {
    tracer
        .layers()
        .into_iter()
        .filter(|layer| *layer != "bench")
        .map(|layer| tracer.layer_ms(layer))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = SplitMix(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(draw(7).iter().all(|&v| v < 1000));
    }

    #[test]
    fn word_hash_sees_every_byte() {
        let a: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let mut b = a.clone();
        b[999] ^= 1;
        let mut c = a.clone();
        c[3] ^= 0x80;
        let h = |x: &[u8]| hash_words(FNV_OFFSET, x);
        assert_ne!(h(&a), h(&b));
        assert_ne!(h(&a), h(&c));
        assert_eq!(h(&a), h(&a.clone()));
    }
}
