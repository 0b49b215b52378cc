//! Regression: the dispatch-threshold probe is re-entrant.
//!
//! The first fine-grained fan-out of a process measures the pool's
//! round-trip cost, and while it waits for its probe task it drains
//! whatever else is queued. If that is the helper task of an enclosing
//! fan-out, the helper's own first fine-grained fan-out asks for the
//! threshold again — on the same thread, inside the measurement. That
//! used to re-enter a `OnceLock` initializer and deadlock; it showed up as
//! a native frame loop hanging in about one process in fifteen, once the
//! loop ran nested fan-outs under a two-frame batch.
//!
//! Its own test binary: the probe runs once per process, so nothing else
//! may fan out first.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use rayon::prelude::*;

#[test]
fn a_task_drained_by_the_probe_may_ask_for_the_threshold() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        // Two threads: the caller plus one pool worker.
        rayon::set_num_threads(2);
        let parked = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let nap = || std::thread::sleep(Duration::from_millis(1));
        let sums = std::thread::scope(|s| {
            // Park the worker (and this helper thread) in a coarse fan-out,
            // which dispatches without probing.
            s.spawn(|| {
                vec![(); 2].into_par_iter().for_each(|()| {
                    parked.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        nap();
                    }
                })
            });
            while parked.load(Ordering::SeqCst) < 2 {
                nap();
            }
            // Coarse outer fan-out: its helper task stays queued, nobody is
            // free to take it. Item 0's inner fan-out is fine-grained, so
            // it probes — and the probe's wait loop drains the outer
            // helper, whose item 1 fans out fine-grained in turn.
            let sums: Vec<u64> = vec![0u64, 1]
                .into_par_iter()
                .map(|k| {
                    (0..10u64)
                        .collect::<Vec<_>>()
                        .par_iter()
                        .map(|i| i + k)
                        .sum()
                })
                .collect();
            release.store(true, Ordering::SeqCst);
            sums
        });
        rayon::set_num_threads(0);
        let _ = done_tx.send(sums);
    });
    let sums = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("nested fan-out deadlocked inside the threshold probe");
    assert_eq!(sums, [45, 55]);
}
