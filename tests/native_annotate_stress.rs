//! Stress: annotated frames on the depth-k pipeline.
//!
//! Every frame worker (the frame loop's calling thread and its helpers)
//! keeps thread-local frame scratch, borrowed while a frame renders and
//! annotates. A failing frame must unwind the loop, never hang it: the
//! producer would block forever on a full channel whose receiver
//! outlived the panicked consumer.
//!
//! It holds the frame loop to the sequential loop's golden
//! (`native/stress/frames`) over 400 runs with two frames in flight (the
//! caller and one helper) — under a watchdog, since the failure mode is
//! a hang. The adaptive executor runs its analyses on the same helpers,
//! so it gets a leg of its own.

mod common;

use std::sync::mpsc;
use std::time::Duration;

use common::{frames_line, Golden};
use ivis_core::native::{execute, NativeConfig, NativePlan};
use ivis_core::PipelineKind;
use ivis_obs::Recorder;
use ivis_trigger::TriggerConfig;

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
        let _ = done_tx.send(());
    });
    // The watchdog: a hung pipeline fails the test instead of stalling it.
    match done_rx.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("annotated pipeline hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("annotated pipeline panicked"),
    }
}
