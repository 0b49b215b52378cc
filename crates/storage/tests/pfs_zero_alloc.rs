//! Allocation audit of the filesystem's write path: an append to an
//! existing file allocates nothing of its own, and a new file allocates
//! exactly its key.
//!
//! Same counting-allocator technique as `ivis-obs`'s `off_zero_alloc.rs`:
//! a `#[global_allocator]` wrapper counts `alloc`/`realloc` calls, so this
//! file holds exactly ONE test (any other test running concurrently would
//! race the counter). It also counts byte-buffer allocations (alignment
//! 1: a `String`, a `Vec<u8>`) on their own, because the write path has
//! one legitimate allocation per *run*, not per write: the transfer log
//! the rack meter is rebuilt from, and the namespace table, grow by
//! doubling. Over a window of 1 000 writes that is a dozen growths or so;
//! a per-write `format!`, key or per-OST `Vec` would add a thousand.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ivis_sim::{SimDuration, SimTime};
use ivis_storage::ParallelFileSystem;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTE_BUFFERS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if layout.align() == 1 {
            BYTE_BUFFERS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if layout.align() == 1 {
            BYTE_BUFFERS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WRITES: u64 = 1_000;

/// Doublings of the transfer log and the namespace table a window of
/// `WRITES` writes may trigger: ⌈log2(2 000)⌉ = 11 each, with slack.
const GROWTH: u64 = 32;

/// `(all allocations, byte buffers)` made while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (all, bytes) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTE_BUFFERS.load(Ordering::SeqCst),
    );
    f();
    (
        ALLOCATIONS.load(Ordering::SeqCst) - all,
        BYTE_BUFFERS.load(Ordering::SeqCst) - bytes,
    )
}

/// `WRITES` image-sized writes, each submitted when the previous one is
/// durable, to `path(k)`.
fn writes<'a>(fs: &mut ParallelFileSystem, mut now: SimTime, path: impl Fn(u64) -> &'a str) {
    for k in 0..WRITES {
        now = fs
            .write(now, path(k), 1_111_111)
            .expect("the rack has room");
        now += SimDuration::from_secs(60);
    }
}

#[test]
fn appends_allocate_nothing_and_new_files_one_key_each() {
    let paths: Vec<String> = (0..WRITES)
        .map(|k| format!("/postproc/raw/out_{k:06}.nc"))
        .collect();

    // libtest's own service threads may allocate concurrently, so measure
    // several windows: a write path that allocates dirties *every* window;
    // background noise does not.
    let mut appends = Vec::new();
    let mut new_files = Vec::new();
    for _ in 0..5 {
        let mut fs = ParallelFileSystem::caddy_lustre();
        let start = fs
            .write(SimTime::ZERO, "/insitu/cinema/ts_000000.png", 1)
            .unwrap();
        appends.push(counted(|| {
            writes(&mut fs, start, |_| "/insitu/cinema/ts_000000.png")
        }));
        assert_eq!(fs.num_files(), 1);

        let mut fs = ParallelFileSystem::caddy_lustre();
        new_files.push(counted(|| {
            writes(&mut fs, SimTime::ZERO, |k| &paths[k as usize])
        }));
        assert_eq!(fs.num_files() as u64, WRITES);
    }
    assert!(
        appends
            .iter()
            .any(|&(all, bytes)| bytes == 0 && all <= GROWTH),
        "{WRITES} appends allocated in every window (all, byte buffers): {appends:?}"
    );
    assert!(
        new_files
            .iter()
            .any(|&(all, bytes)| bytes == WRITES && all <= WRITES + GROWTH),
        "{WRITES} new files did not allocate one key each in any window \
         (all, byte buffers): {new_files:?}"
    );
}
