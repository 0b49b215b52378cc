//! Offline stand-in for the subset of the `rayon` API this workspace uses,
//! backed by a real threaded executor.
//!
//! The build environment cannot reach crates.io, so this crate provides
//! `par_iter().map(f).collect()` with the same call-site syntax as rayon,
//! executed by a chunked work-sharing backend on a lazily-grown persistent
//! worker pool (like rayon's global pool, so per-call overhead is a queue
//! push rather than an OS thread spawn) — no dependencies beyond `std`.
//! That is the only shape the workspace fans out: independent items whose
//! results are collected in input order.
//!
//! ## Execution model
//!
//! Every parallel operation follows the same three steps:
//!
//! 1. **Chunking.** The slice is split into contiguous chunks whose size
//!    is a *fixed function of the input length only* (never of the thread
//!    count): `grain = ceil(len / 64)`.
//! 2. **Work sharing.** The caller plus
//!    `min(current_num_threads(), nchunks) - 1` pool workers pull
//!    `(chunk_index, chunk)` pairs from a shared queue, so an unevenly
//!    loaded chunk does not stall the others. With one thread (or one
//!    chunk) the items run inline on the caller and the pool is never
//!    touched. While waiting for its helpers, the caller drains other
//!    pending pool tasks, so nested parallel calls cannot deadlock the
//!    pool.
//! 3. **Index-ordered recombination.** Per-chunk results are sorted back
//!    into chunk-index order before they are concatenated, so `collect`
//!    yields exactly what a sequential `map` + `collect` yields, at any
//!    thread count.
//!
//! ## Thread count
//!
//! The effective thread count is
//! `min(available_parallelism, ZSIM_THREADS)`; the `ZSIM_THREADS`
//! environment variable is read once, on first use. Tests and benchmarks
//! can override it at runtime (and exceed the hardware count) with
//! [`set_num_threads`]; [`current_num_threads`] reports the active value.
//!
//! ## Faithfulness to rayon
//!
//! Reproduced semantics: index-order-preserving `collect` and
//! `Fn + Sync` closure bounds. Not reproduced: `rayon`'s adaptive
//! splitting (chunk shape here is static), per-pool configuration
//! (`ThreadPoolBuilder`), and every adapter and source the workspace does
//! not use (`reduce`, `sum`, `filter`, `par_chunks_mut`, …).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

mod pool;

/// Target number of chunks per operation; the real count is
/// `ceil(len / grain) ≤ TARGET_CHUNKS`.
const TARGET_CHUNKS: usize = 64;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// The number of worker threads parallel operations currently use:
/// `min(available_parallelism, ZSIM_THREADS)` unless overridden by
/// [`set_num_threads`].
pub fn current_num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match std::env::var("ZSIM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => hw.min(n),
            _ => hw,
        }
    })
}

/// Override the worker-thread count (shim extension, used by the
/// determinism tests and the scaling benchmarks). `n = 0` restores the
/// `min(available_parallelism, ZSIM_THREADS)` default. Unlike the env
/// default, an explicit override may exceed the hardware parallelism.
///
/// Results do not depend on this setting: `collect` restores input order.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The traits and extension methods callers import with
/// `use rayon::prelude::*`.
pub mod prelude {
    pub use super::IntoParallelRefIterator;
}

/// `par_iter` on slices (and, through auto-deref, on `Vec`s).
pub trait IntoParallelRefIterator<'a> {
    /// Parallel iterator type.
    type Iter;
    /// Iterate the collection in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter(self)
    }
}

/// A parallel iterator over a shared slice; [`ParIter::map`] gives it
/// work to do.
pub struct ParIter<'a, T>(&'a [T]);

impl<'a, T: Sync> ParIter<'a, T> {
    /// Transform each item; nothing runs until [`ParMap::collect`].
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { items: self.0, f }
    }
}

/// `par_iter().map(f)`: `f` applied to every item by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Apply `f` to every item, chunks spread over the caller and the
    /// pool, and collect the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let ParMap { items, f } = self;
        // Shape depends only on the input: identical at every thread count.
        let grain = items.len().div_ceil(TARGET_CHUNKS).max(1);
        let threads = current_num_threads().min(items.len().div_ceil(grain));
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        pool::run_shared(items.chunks(grain), threads, |chunk: &'a [T]| {
            chunk.iter().map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::set_num_threads;

    /// Run `f` once per thread count; every invocation must agree.
    fn at_thread_counts<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
        let base = {
            set_num_threads(1);
            f()
        };
        for n in [2, 3, 8] {
            set_num_threads(n);
            assert_eq!(f(), base, "result changed at {n} threads");
        }
        set_num_threads(0);
        base
    }

    #[test]
    fn collect_keeps_input_order_at_every_thread_count() {
        let doubled: Vec<i32> = [1, 2, 3].par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, [2, 4, 6]);
        let empty: Vec<u8> = [0u8; 0].par_iter().map(|&x| x).collect();
        assert!(empty.is_empty());
        let v: Vec<usize> = (0..10_000).collect();
        let big = at_thread_counts(|| v.par_iter().map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(big.len(), 10_000);
        assert_eq!(big[9999], 9999 * 9999);
    }

    #[test]
    fn nested_fan_outs_finish_and_keep_order() {
        // Every outer item fans out again: waiting callers must drain the
        // queue rather than sleep on it, or the pool deadlocks.
        let outer: Vec<u64> = (0..8).collect();
        let sums = at_thread_counts(|| {
            outer
                .par_iter()
                .map(|&k| {
                    let inner: Vec<u64> = (0..100).collect();
                    inner
                        .par_iter()
                        .map(|i| i + k)
                        .collect::<Vec<_>>()
                        .iter()
                        .sum::<u64>()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(sums, (0..8).map(|k| 4950 + 100 * k).collect::<Vec<u64>>());
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        set_num_threads(4);
        let v: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            v.par_iter()
                .map(|&x| if x == 37 { panic!("item 37") } else { x })
                .collect::<Vec<_>>()
        });
        set_num_threads(0);
        assert!(caught.is_err());
    }
}
