//! Retry policy: bounded exponential backoff with deterministic jitter.

use ivis_sim::{SimDuration, SimRng};

/// How the pipeline executors respond to transient storage failures.
///
/// Backoff follows the classic bounded-exponential shape
/// `min(base · 2^(attempt−1), cap) · (1 ± jitter)`, with the jitter drawn
/// from the run's deterministic fault RNG so the whole retry schedule is
/// reproducible bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per operation (first try included).
    /// When exhausted the executor fails with a typed error. A plan whose
    /// policy allows more than [`RetryPolicy::MAX_ATTEMPTS`] is refused
    /// before it runs.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: SimDuration,
    /// Upper bound on a single backoff interval.
    pub max_backoff: SimDuration,
    /// Relative jitter applied to each backoff (`0.25` = ±25 %).
    pub jitter_rel: f64,
    /// Per-operation latency SLO: an operation that *succeeds* but takes
    /// longer than this counts as a timeout for the degradation state
    /// machine (pressure), without discarding the completed work.
    pub op_slo: Option<SimDuration>,
}

impl RetryPolicy {
    /// The most attempts per operation a plan may allow. Every retry of a
    /// campaign write logs a backoff window and trace events, so an
    /// unbounded count lets one always-failing write loop until memory
    /// runs out; ten times the most any pinned plan uses is plenty.
    pub const MAX_ATTEMPTS: u32 = 100;

    /// The default storage policy: 5 attempts, 2 s base backoff capped at
    /// 60 s, ±25 % jitter, 120 s per-op SLO.
    pub(crate) fn storage_default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(60),
            jitter_rel: 0.25,
            op_slo: Some(SimDuration::from_secs(120)),
        }
    }

    /// No retries: the first failure is final. Useful for tests that
    /// exercise the typed-error path.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter_rel: 0.0,
            op_slo: None,
        }
    }

    /// Backoff before attempt `failed + 1`, where `failed ≥ 1` is the
    /// number of failures so far. Deterministic given the RNG state.
    pub(crate) fn backoff(&self, failed: u32, rng: &mut SimRng) -> SimDuration {
        let exp = failed.saturating_sub(1).min(16);
        let raw = self.base_backoff.as_secs_f64() * (1u64 << exp) as f64;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let jitter = if self.jitter_rel > 0.0 {
            1.0 + self.jitter_rel * (2.0 * rng.uniform() - 1.0)
        } else {
            1.0
        };
        SimDuration::from_secs_f64((capped * jitter).max(1e-6))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::storage_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let mut p = RetryPolicy::storage_default();
        p.jitter_rel = 0.0;
        let mut rng = SimRng::new(0);
        let b: Vec<f64> = (1..=8)
            .map(|i| p.backoff(i, &mut rng).as_secs_f64())
            .collect();
        assert_eq!(&b[..5], &[2.0, 4.0, 8.0, 16.0, 32.0]);
        assert_eq!(b[5], 60.0, "capped at max_backoff");
        assert_eq!(b[7], 60.0);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::storage_default();
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for i in 1..=10 {
            let x = p.backoff(i, &mut a);
            let y = p.backoff(i, &mut b);
            assert_eq!(x, y, "same seed, same schedule");
            let nominal = (2.0f64 * (1 << (i - 1).min(16)) as f64).min(60.0);
            let rel = (x.as_secs_f64() - nominal).abs() / nominal;
            assert!(rel <= 0.25 + 1e-9, "jitter out of range: {rel}");
        }
    }

    #[test]
    fn no_retries_policy_allows_single_attempt() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.max_attempts, 1);
    }
}
