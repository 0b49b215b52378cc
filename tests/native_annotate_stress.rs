//! Regression: annotated frames on the depth-k pipeline.
//!
//! Render workers keep thread-local frame scratch, borrowed while a frame
//! renders and annotates. A thread that helps drain the pool from inside
//! a frame can pick up another frame's render and borrow the same scratch
//! again: `RefCell already borrowed`, and then a hang, because the
//! producer blocks forever on a full channel whose receiver outlived the
//! panicked consumer. That happened while the arrow scale
//! (`Field2D::max_abs`) was a parallel reduce inside `annotate_frame`;
//! now nothing inside a frame fans out, and this suite keeps it so.
//!
//! It holds the frame loop to the sequential loop's golden
//! (`native/stress/frames`) in two situations: with every pool worker
//! parked in another job, where the consumer runs both frames of its
//! batch on its own thread and then its own queued helper, and over 400
//! runs in the shape the bug was found in (two threads, two frames in
//! flight) — under a watchdog, since the failure mode was a hang. The
//! adaptive executor runs its analyses in the same batch fan-out, so it
//! gets a leg of its own.
//!
//! Its own test binary, so the global thread-count override is not shared
//! with another suite.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use common::{frames_line, Golden};
use ivis_core::native::{execute, NativeConfig, NativePlan};
use ivis_core::PipelineKind;
use ivis_obs::Recorder;
use ivis_trigger::TriggerConfig;
use rayon::prelude::*;

/// One run with two frames in flight, held to the golden.
fn run_matches_golden(cfg: &NativeConfig, golden: &Golden) {
    let plan = NativePlan {
        depth: 2,
        ..NativePlan::new(cfg.clone(), PipelineKind::InSitu)
    };
    let r = execute(&plan, &Recorder::off()).unwrap().report;
    golden.check(
        "native/stress/frames",
        &frames_line(&r.cinema, &r.tracks, &r.final_census),
    );
}

/// With every pool worker parked in someone else's job, the helper task
/// of the consumer's two-frame batch stays queued, so the consumer renders
/// both frames itself and then drains its own helper from the queue.
fn runs_with_every_worker_parked(cfg: &NativeConfig, golden: &Golden) {
    // As many threads as the shim ever makes chunks, so one blocking
    // chunk per thread parks the whole pool.
    const THREADS: usize = 64;
    rayon::set_num_threads(THREADS);
    let parked = AtomicUsize::new(0);
    let release = AtomicBool::new(false);
    let nap = || std::thread::sleep(Duration::from_millis(1));
    std::thread::scope(|s| {
        s.spawn(|| {
            // THREADS items make THREADS one-item chunks.
            [(); THREADS]
                .par_iter()
                .map(|()| {
                    parked.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        nap();
                    }
                })
                .collect::<Vec<()>>()
        });
        while parked.load(Ordering::SeqCst) < THREADS {
            nap();
        }
        for _ in 0..10 {
            run_matches_golden(cfg, golden);
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
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let golden = Golden::load();
        runs_with_every_worker_parked(&cfg, &golden);
        // The shape the bug was found in: two threads, two frames in flight.
        rayon::set_num_threads(2);
        for _ in 0..400 {
            run_matches_golden(&cfg, &golden);
        }
        // Adaptive, same shape: five candidates scored in each of the
        // analyses in flight (default depth: two or more on any multi-core
        // host).
        let adaptive = NativePlan {
            trigger: Some(TriggerConfig::new(1, 5)),
            ..NativePlan::new(cfg.clone(), PipelineKind::InSitu)
        };
        for _ in 0..100 {
            let digest = execute(&adaptive, &Recorder::off()).unwrap().digest();
            golden.check("adaptive/stress/digest", &digest);
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
