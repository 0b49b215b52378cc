//! A lazily-grown persistent worker pool and the work-sharing run on it.
//!
//! Spawning an OS thread costs tens of microseconds — paid *per parallel
//! call* with scoped threads, which swamps small operations, and it would
//! drop the thread-local scratch render workers keep between frames. Like
//! rayon's global pool, workers here are spawned once (on first demand,
//! growing up to the largest thread count ever requested) and then sleep
//! on a condvar between tasks, so the steady-state cost of a parallel call
//! is a queue push and a wakeup.
//!
//! A task is an erased `(data, call)` pair rather than a
//! `Box<dyn FnOnce + 'static>` because the work it references lives on the
//! *caller's* stack (borrowed chunk queues and closures, which are not
//! `'static`). Tasks are built only by [`run_shared`], in this module,
//! which does not return until every task it submitted has finished
//! running; meanwhile it drains other pending tasks, so nested parallel
//! calls can never deadlock the pool.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex, OnceLock};

/// A type-erased task: `call(data)`. Its fields are private to this
/// module, and the one place that builds a task ([`run_shared`]) keeps
/// `data` valid until the task has run.
struct Task {
    data: usize,
    call: unsafe fn(usize),
}

impl Task {
    fn run(self) {
        // SAFETY: every `Task` comes from `run_shared`, which pairs
        // `helper_entry::<I, R, F>` with the address of a live
        // `Run<I, R, F>` and does not return until this call has finished.
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

/// Queue `tasks`, first growing the pool so at least `tasks.len()`
/// workers exist.
fn submit(tasks: Vec<Task>) {
    let pool = shared();
    {
        let mut spawned = pool.spawned.lock().unwrap();
        while *spawned < tasks.len() {
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
fn try_pop() -> Option<Task> {
    shared().queue.lock().unwrap().pop_front()
}

/// Run `f` on every part, shared between the caller and `threads - 1` pool
/// helpers, and return the results in part order.
pub(crate) fn run_shared<I, R, F>(parts: I, threads: usize, f: F) -> Vec<R>
where
    I: Iterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    // The caller and the helpers pull (index, part) pairs from a shared
    // queue so stragglers don't serialize the run; indices restore the
    // order afterwards.
    let run = Run {
        queue: Mutex::new(parts.enumerate()),
        results: Mutex::new(Vec::new()),
        panic: Mutex::new(None),
        pending: Mutex::new(threads - 1),
        done: Condvar::new(),
        f,
    };
    let data = require_sync(&run) as *const Run<I, R, F> as usize;
    // `run` outlives these tasks: this function does not return (or
    // unwind) until `pending` reaches zero, i.e. until every helper has
    // finished touching it.
    submit(
        (1..threads)
            .map(|_| Task {
                data,
                call: helper_entry::<I, R, F>,
            })
            .collect(),
    );
    work_on(&run);

    // Wait for the helpers, draining queued pool tasks meanwhile so a
    // nested parallel call can't deadlock: every waiting caller is also a
    // consumer, so queued tasks always make progress. Once the queue is
    // empty this run's helpers are all in-flight on workers (tasks queued
    // later can't be prerequisites of ours), so blocking is safe.
    loop {
        if *run.pending.lock().unwrap() == 0 {
            break;
        }
        if let Some(task) = try_pop() {
            task.run();
            continue;
        }
        let mut pending = run.pending.lock().unwrap();
        while *pending > 0 {
            pending = run.done.wait(pending).unwrap();
        }
        break;
    }

    let Run { results, panic, .. } = run;
    if let Some(payload) = panic.into_inner().unwrap() {
        std::panic::resume_unwind(payload);
    }
    let mut tagged = results.into_inner().unwrap();
    tagged.sort_unstable_by_key(|&(idx, _)| idx);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Shared state of one in-flight [`run_shared`] call. Lives on the
/// caller's stack; helpers reach it through an erased address.
struct Run<I, R, F> {
    queue: Mutex<std::iter::Enumerate<I>>,
    results: Mutex<Vec<(usize, R)>>,
    /// First panic payload from any part, re-thrown on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Helpers that have not finished yet; guards the lifetime of `Run`.
    pending: Mutex<usize>,
    done: Condvar,
    f: F,
}

fn require_sync<T: Sync>(t: &T) -> &T {
    t
}

/// Pull parts until the queue is empty. Panics from `f` are caught and
/// recorded (first wins) and the queue is drained so other workers stop
/// early; the caller re-throws after all helpers finish.
fn work_on<I: Iterator, R, F: Fn(I::Item) -> R>(run: &Run<I, R, F>) {
    loop {
        let next = run.queue.lock().unwrap().next();
        let Some((idx, part)) = next else { break };
        match std::panic::catch_unwind(AssertUnwindSafe(|| (run.f)(part))) {
            Ok(r) => run.results.lock().unwrap().push((idx, r)),
            Err(payload) => {
                run.panic.lock().unwrap().get_or_insert(payload);
                let mut q = run.queue.lock().unwrap();
                while q.next().is_some() {}
                break;
            }
        }
    }
}

/// Pool entry point for one helper of one [`run_shared`] call.
///
/// # Safety
///
/// `addr` must point to a live `Run<I, R, F>` and stay valid until this
/// function returns — guaranteed by `run_shared`, which blocks until
/// `pending` hits zero.
unsafe fn helper_entry<I: Iterator, R, F: Fn(I::Item) -> R>(addr: usize) {
    let run = &*(addr as *const Run<I, R, F>);
    work_on(run);
    let mut pending = run.pending.lock().unwrap();
    *pending -= 1;
    if *pending == 0 {
        run.done.notify_all();
    }
}
