//! `Recorder::off()` fast-path audit: with the sink off, every recording
//! hook must be a branch-and-return — no span attr formatting, no event
//! payload construction, no heap traffic at all.
//!
//! Same counting-allocator technique as `ivis-ocean`'s
//! `zero_alloc_step.rs`: a `#[global_allocator]` wrapper counts
//! `alloc`/`realloc` calls, so this file holds exactly ONE test (any
//! other test running concurrently would race the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ivis_cluster::JobPhase;
use ivis_obs::{AttrValue, Component, Recorder};
use ivis_sim::SimTime;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured window: 10k iterations over every off-sink hook.
/// Returns the allocation-counter delta.
fn measure(rec: &Recorder) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let t = SimTime::from_secs(i);
        let id = rec.span(t, "span", Component::Compute);
        assert!(id.is_none());
        let phase = rec.phase_span(t, JobPhase::Simulate, Component::Compute);
        rec.set_attr(
            id,
            "bytes",
            AttrValue::U64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        rec.event(
            t,
            "output_written",
            Component::Storage,
            &[
                ("index", AttrValue::U64(i)),
                ("label", AttrValue::Str("sample")),
                ("seconds", AttrValue::F64(i as f64 * 0.5)),
            ],
        );
        rec.counter_add(t, "pfs.bytes_written", i as f64);
        rec.gauge_set(t, "transport.queue_depth", (i % 4) as f64);
        rec.histogram_record(t, "transport.stall_seconds", i as f64 * 1e-3);
        rec.close(t, phase);
        rec.close(t, id);
        assert!(rec.with_buffer(|_| ()).is_none());
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn off_recorder_hooks_never_allocate() {
    let rec = Recorder::off();
    assert!(!rec.is_on());
    // Warm up any lazy runtime state outside the measured windows.
    let _ = rec.span(SimTime::ZERO, "warmup", Component::Campaign);

    // libtest's own service threads may allocate concurrently (progress
    // output, timeout bookkeeping), so measure several windows: a hook
    // that allocates dirties *every* window; background noise does not.
    let deltas: Vec<u64> = (0..5).map(|_| measure(&rec)).collect();
    assert!(
        deltas.contains(&0),
        "Recorder::off() hooks allocated in every window: {deltas:?} \
         allocations over 5×10k iterations"
    );
}
