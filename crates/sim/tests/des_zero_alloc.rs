//! Steady-state allocation audit of the event engine: once the arena's
//! slots and the binary heap's buffer are warmed up, a sustained
//! schedule/cancel/run cycle must touch the allocator zero times.
//!
//! Same counting-allocator technique as `ivis-obs`'s
//! `off_zero_alloc.rs`: a `#[global_allocator]` wrapper counts
//! `alloc`/`realloc` calls, so this file holds exactly ONE test (any
//! other test running concurrently would race the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ivis_sim::{DesEngine, SimDuration, SimTime};

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

/// The repeating schedule each round drives, as offsets from the clock
/// the previous round stopped at: a same-tick tie (0), delays from
/// microseconds to tens of seconds, and a last entry (17) that is
/// cancelled before it fires.
const OFFSETS_US: [u64; 8] = [0, 3, 150, 9_000, 400_000, 16_000_000, 40_000_000, 17];

/// One measured window: `rounds` cycles of schedule-burst + cancel +
/// drain, each round starting where the previous one's clock stopped.
/// Returns the allocation-counter delta.
fn measure(engine: &mut DesEngine<u64>, now: &mut SimTime, fired: &mut u64, rounds: u64) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..rounds {
        let mut victim = None;
        for (i, &off) in OFFSETS_US.iter().enumerate() {
            let h = engine.schedule_at(*now + SimDuration::from_micros(off), i as u64);
            if i == OFFSETS_US.len() - 1 {
                victim = Some(h);
            }
        }
        let cancelled = engine.cancel(victim.expect("victim scheduled"));
        assert!(
            cancelled.is_some(),
            "cancel-then-fire must hit a live event"
        );
        *now = engine.run(|_, _, _| *fired += 1);
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_event_loop_never_allocates() {
    let mut engine: DesEngine<u64> = DesEngine::with_capacity(OFFSETS_US.len() + 1);
    let mut now = SimTime::ZERO;
    let mut fired = 0u64;

    // Warm-up: grow the arena's slots and the heap's buffer to one
    // round's worth of entries. Allocations here are expected and
    // uncounted.
    let _ = measure(&mut engine, &mut now, &mut fired, 64);

    // libtest's own service threads may allocate concurrently (progress
    // output, timeout bookkeeping), so measure several windows: an
    // engine that allocates in steady state dirties *every* window;
    // background noise does not.
    let deltas: Vec<u64> = (0..5)
        .map(|_| measure(&mut engine, &mut now, &mut fired, 200))
        .collect();
    assert!(
        deltas.contains(&0),
        "steady-state schedule/cancel/fire loop allocated in every \
         window: {deltas:?} allocations over 5×200 rounds"
    );
    // The loop really did run: 7 live events per round (8 scheduled,
    // 1 cancelled), every one of them drained.
    assert_eq!(fired, 7 * (64 + 5 * 200), "engine fired {fired} events");
}
