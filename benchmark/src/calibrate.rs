//! Host calibration for the timed pass.
//!
//! The sandbox this benchmark is accepted on is a small VM whose speed
//! flips between two states about 25 % apart and stays in one for
//! anything from a second to a whole run, so raw wall-clock medians of
//! ten-second runs differ by up to a quarter between runs of the same
//! code — wider than any bound worth having. What does hold still is the
//! *ratio* of an iteration to a fixed piece of work done right beside
//! it. So every timed region is bracketed by a small fixed kernel, and
//! end-to-end times are reported in **calibrated** seconds: the region's
//! wall time divided by the mean of the two kernel times around it,
//! times [`NOMINAL_KERNEL_SECS`]. A calibrated second is a wall second
//! on a host that runs the kernel in exactly 1 ms (this host: 0.8–1.0 ms
//! depending on its state). Product code cannot touch the kernel, so a
//! change moves a calibrated time by exactly the factor it moves the
//! wall time in a steady host. Raw wall times are reported beside it.

use std::time::Instant;

/// What one kernel run is defined to take.
pub const NOMINAL_KERNEL_SECS: f64 = 1e-3;

/// 256 KiB: resident in L2, so the kernel feels the core's clock and its
/// sibling's pressure on the shared cache, as the workloads do.
const KERNEL_WORDS: usize = 32 * 1024;
const KERNEL_PASSES: usize = 16;

/// Wall and calibrated duration of one timed region, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub wall: f64,
    pub calibrated: f64,
}

/// Runs the calibration kernel and times regions against it.
pub struct Calibrator {
    buf: Vec<u64>,
    /// Every kernel time measured, seconds.
    kernel_secs: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            buf: vec![1; KERNEL_WORDS],
            kernel_secs: Vec::new(),
        }
    }
}

impl Calibrator {
    /// One run of the fixed kernel: integer mixing and a dependent
    /// floating-point chain streamed over the buffer. Returns its wall
    /// time, seconds.
    pub fn kernel(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        let mut x = 1.000_000_1f64;
        for _ in 0..KERNEL_PASSES {
            for v in self.buf.iter_mut() {
                acc = (acc.rotate_left(5) ^ *v).wrapping_mul(0x0000_0100_0000_01b3);
                *v = acc;
                x = x * 1.000_000_3 + 1e-9;
            }
        }
        std::hint::black_box((acc, x));
        let secs = t0.elapsed().as_secs_f64();
        self.kernel_secs.push(secs);
        secs
    }

    /// Time the region from `started` (its clock already running, with
    /// `kernel_before` measured just ahead of it) to now.
    pub fn finish(&mut self, started: Instant, kernel_before: f64) -> Timing {
        let wall = started.elapsed().as_secs_f64();
        let kernel = (kernel_before + self.kernel()) / 2.0;
        Timing {
            wall,
            calibrated: wall / kernel * NOMINAL_KERNEL_SECS,
        }
    }

    /// Run and time `f` between two kernel runs.
    pub fn time(&mut self, f: impl FnOnce()) -> Timing {
        let before = self.kernel();
        let started = Instant::now();
        f();
        self.finish(started, before)
    }

    /// Median kernel time so far, seconds: the host's speed as this run
    /// saw it.
    pub fn median_kernel_secs(&self) -> f64 {
        crate::stats::median(&self.kernel_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_is_wall_time_over_the_bracketing_kernels() {
        let mut cal = Calibrator::default();
        let t = cal.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(t.wall >= 0.005);
        let kernels = &cal.kernel_secs;
        assert_eq!(kernels.len(), 2);
        let mean = (kernels[0] + kernels[1]) / 2.0;
        assert!((t.calibrated - t.wall / mean * NOMINAL_KERNEL_SECS).abs() < 1e-12);
        assert!(cal.median_kernel_secs() > 0.0);
    }
}
