//! A lazily-grown persistent worker pool.
//!
//! Spawning an OS thread costs tens of microseconds — paid *per parallel
//! call* with scoped threads, which swamps small operations. Like rayon's
//! global pool, workers here are spawned once (on first demand, growing up
//! to the largest thread count ever requested) and then sleep on a condvar
//! between tasks, so the steady-state cost of a parallel call is a queue
//! push and a wakeup.
//!
//! A task is an erased `(data, call)` pair rather than a
//! `Box<dyn FnOnce + 'static>` because the work it references lives on the
//! *caller's* stack (borrowed chunk queues and closures, which are not
//! `'static`). Soundness is the caller's obligation: it must not return
//! until every task it submitted has finished running — see
//! [`crate::drive`], which blocks on a completion count and meanwhile
//! drains other pending tasks via [`try_pop`] so that nested parallel
//! calls can never deadlock the pool.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A type-erased task: `call(data)` where `data` is an address the
/// submitter guarantees stays valid until the task completes.
pub(crate) struct Task {
    data: usize,
    call: unsafe fn(usize),
}

impl Task {
    /// # Safety
    ///
    /// `data` must remain valid for `call` until [`Task::run`] returns,
    /// and `call` must tolerate running on any thread.
    pub(crate) unsafe fn new(data: usize, call: unsafe fn(usize)) -> Self {
        Task { data, call }
    }

    pub(crate) fn run(self) {
        // SAFETY: guaranteed by the contract of `Task::new`.
        unsafe { (self.call)(self.data) }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Signalled when tasks are pushed; workers sleep here when idle.
    available: Condvar,
    /// Number of workers spawned so far (the pool only ever grows).
    spawned: Mutex<usize>,
}

fn shared() -> &'static Shared {
    static POOL: OnceLock<Shared> = OnceLock::new();
    POOL.get_or_init(|| Shared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

fn worker(pool: &'static Shared) {
    loop {
        let task = {
            let mut q = pool.queue.lock().unwrap();
            loop {
                match q.pop_front() {
                    Some(t) => break t,
                    None => q = pool.available.wait(q).unwrap(),
                }
            }
        };
        task.run();
    }
}

/// Queue `tasks`, first growing the pool so at least `want` workers exist.
pub(crate) fn submit(want: usize, tasks: Vec<Task>) {
    let pool = shared();
    {
        let mut spawned = pool.spawned.lock().unwrap();
        while *spawned < want {
            std::thread::Builder::new()
                .name("zsim-rayon-worker".into())
                .spawn(move || worker(pool))
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
    }
    pool.queue.lock().unwrap().extend(tasks);
    pool.available.notify_all();
}

/// Pop one pending task, if any. Callers waiting on their own tasks run
/// other queued work through this instead of sleeping.
pub(crate) fn try_pop() -> Option<Task> {
    shared().queue.lock().unwrap().pop_front()
}

static PROBE_DONE: AtomicUsize = AtomicUsize::new(0);

/// No-op pool task used to measure one submit → run round-trip.
unsafe fn probe_entry(_: usize) {
    PROBE_DONE.store(1, Ordering::Release);
}

/// Estimated cost (ns) below which a whole fan-out is cheaper to run
/// inline on the caller than to dispatch to pool workers.
///
/// Measured once per process: the median of five submit-one-no-op-task
/// round-trips (queue push, worker wakeup, task run), clamped to
/// [20 µs, 100 µs] to bound scheduler-noise outliers, times a ×32 safety
/// factor — dispatch only pays once the work dwarfs its own coordination,
/// and the penalty for inlining borderline cases is tiny while the penalty
/// for dispatching sub-dispatch-cost grains is the fig9-style slowdown
/// this threshold exists to remove. The wait loop *drains* the queue
/// rather than spinning: on a one-core host the probe may run on the
/// caller itself, which is exactly the round-trip cost that host would pay.
///
/// A task drained that way may itself fan out and ask for the threshold —
/// on this very thread, further down the stack — and so may any other
/// thread while the measurement is in flight. Neither waits: until the
/// measured value is published they get the clamp's lower bound, which
/// only moves where chunks run, never what they compute.
pub(crate) fn sequential_threshold_ns() -> u64 {
    const FLOOR_NS: u64 = 20_000;
    const SAFETY: u64 = 32;
    /// The published threshold; 0 until measured. It publishes nothing
    /// but itself (Release store below, Acquire load here).
    static THRESHOLD: AtomicU64 = AtomicU64::new(0);
    /// Set by the one caller that measures; never cleared, so the probe
    /// and its `PROBE_DONE` flag have a single user.
    static MEASURING: AtomicBool = AtomicBool::new(false);
    let known = THRESHOLD.load(Ordering::Acquire);
    if known != 0 {
        return known;
    }
    if MEASURING.swap(true, Ordering::AcqRel) {
        return FLOOR_NS * SAFETY;
    }
    let mut samples = [0u64; 5];
    for s in &mut samples {
        PROBE_DONE.store(0, Ordering::SeqCst);
        let t0 = Instant::now();
        submit(
            1,
            vec![Task {
                data: 0,
                call: probe_entry,
            }],
        );
        while PROBE_DONE.load(Ordering::Acquire) == 0 {
            if let Some(task) = try_pop() {
                task.run();
                continue;
            }
            std::thread::yield_now();
        }
        *s = t0.elapsed().as_nanos() as u64;
    }
    samples.sort_unstable();
    let measured = samples[2].clamp(FLOOR_NS, 100_000) * SAFETY;
    THRESHOLD.store(measured, Ordering::Release);
    measured
}
