//! Regression: annotated frames on the depth-k pipeline.
//!
//! `render_frame` used to hold its thread-local scratch borrowed while
//! `annotate_frame` ran a parallel reduce (`Field2D::max_abs`, for the
//! arrow scale). A thread waiting on a reduce helps drain the pool, so it
//! could pick up the next frame's `render_frame` and borrow the scratch
//! again: `RefCell already borrowed`, and then a hang, because the
//! producer blocked forever on a full channel whose receiver outlived the
//! panicked consumer. It took the shim's timing probe to run the reduce
//! before the borrow inline and the one under it on the pool while the
//! worker had not yet claimed the second frame — about one run in a few
//! hundred at two threads, and not forceable from outside the crate.
//!
//! So this suite holds the pipeline to the sequential path's PNGs in the
//! two situations around that interleaving: with every pool worker parked
//! in another job, where the consumer runs the second frame *nested*
//! inside the first on its own thread, and over 400 runs in the shape the
//! bug was found in (two threads, two frames in flight) — under a
//! watchdog, since the failure mode was a hang.
//!
//! Its own test binary, so the global thread-count override is not shared
//! with another suite.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use ivis_core::native::{
    run_native_insitu_depth, run_native_insitu_sequential, NativeConfig, NativeReport,
};
use rayon::prelude::*;

fn assert_same_pngs(report: &NativeReport, golden: &NativeReport, run: usize) {
    assert_eq!(report.frames, golden.frames, "run {run}");
    for (ep, eg) in report.cinema.entries().iter().zip(golden.cinema.entries()) {
        assert_eq!(
            ep.data, eg.data,
            "run {run}: PNG bytes differ at frame {}",
            eg.timestep
        );
    }
}

/// With every pool worker parked in someone else's job, the helper task
/// of the consumer's two-frame batch is still queued when the consumer
/// first waits on a reduce inside frame one, so it renders frame two
/// nested in frame one on its own thread.
fn runs_with_every_worker_parked(cfg: &NativeConfig, golden: &NativeReport) {
    // As many threads as the shim ever makes chunks: every reduce
    // dispatches to the pool instead of timing itself first, and one
    // blocking chunk per thread parks the whole pool.
    const THREADS: usize = 64;
    rayon::set_num_threads(THREADS);
    let parked = AtomicUsize::new(0);
    let release = AtomicBool::new(false);
    let nap = || std::thread::sleep(Duration::from_millis(1));
    std::thread::scope(|s| {
        s.spawn(|| {
            // A vector, not a range: its items are scheduled one per chunk.
            vec![(); THREADS].into_par_iter().for_each(|()| {
                parked.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    nap();
                }
            })
        });
        while parked.load(Ordering::SeqCst) < THREADS {
            nap();
        }
        for run in 0..10 {
            assert_same_pngs(&run_native_insitu_depth(cfg, 2), golden, run);
        }
        release.store(true, Ordering::SeqCst);
    });
}

#[test]
fn annotated_pipelined_runs_neither_panic_nor_hang() {
    // Rendering outweighs stepping, so the producer runs ahead and the
    // consumer really has two frames in flight.
    let cfg = NativeConfig {
        nx: 64,
        ny: 48,
        steps: 6,
        output_every: 1,
        image_width: 128,
        image_height: 96,
        annotate: true,
        ..NativeConfig::tiny()
    };
    let golden = run_native_insitu_sequential(&cfg);
    common::Golden::load().check(
        "native/stress/frames",
        &common::frames_line(&golden.cinema, &golden.tracks, &golden.final_census),
    );
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        runs_with_every_worker_parked(&cfg, &golden);
        // The shape the bug was found in: two threads, two frames in flight.
        rayon::set_num_threads(2);
        for run in 0..400 {
            assert_same_pngs(&run_native_insitu_depth(&cfg, 2), &golden, run);
        }
        rayon::set_num_threads(0);
        let _ = done_tx.send(());
    });
    // The watchdog: a hung pipeline fails the test instead of stalling it.
    match done_rx.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("annotated pipeline hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("annotated pipeline panicked"),
    }
}
