//! Graceful degradation: shed load under sustained storage pressure.
//!
//! The paper's Eq. 6/7 scale I/O and visualization cost with the output
//! rate; the degradation state machine exploits exactly that lever. At
//! level *L* the pipeline keeps every 2^L-th output and sheds the rest —
//! halving the effective visualization rate per level (and, for
//! post-processing, skipping the corresponding raw dumps) instead of
//! stalling the solver behind a sick filesystem.

/// When to escalate and when to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Consecutive pressure events (retries, timeouts, space sheds) that
    /// trigger one escalation.
    pub pressure_trigger: u32,
    /// Consecutive clean outputs that undo one escalation.
    pub clean_recover: u32,
    /// Highest level: at most `1 / 2^max_level` of the outputs shed.
    pub max_level: u8,
}

impl DegradationPolicy {
    /// The default policy: escalate after 3 consecutive pressure events,
    /// recover after 8 clean outputs, shed at most 7 of every 8 outputs.
    pub(crate) fn standard() -> Self {
        DegradationPolicy {
            pressure_trigger: 3,
            clean_recover: 8,
            max_level: 3,
        }
    }
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy::standard()
    }
}

/// The live degradation level of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationState {
    level: u8,
    pressure: u32,
    clean: u32,
}

impl DegradationState {
    /// Fresh, undegraded state.
    pub(crate) fn new() -> Self {
        DegradationState::default()
    }

    /// Current degradation level (0 = nominal).
    pub(crate) fn level(&self) -> u8 {
        self.level
    }

    /// At the current level, should output `k` be shed? Level *L* keeps
    /// outputs whose index is a multiple of 2^L.
    pub(crate) fn should_shed(&self, k: u64) -> bool {
        self.level > 0 && k % (1u64 << self.level.min(63)) != 0
    }

    /// Record a pressure event (retry, timeout, out-of-space shed).
    /// Returns the new level if this escalated.
    pub(crate) fn on_pressure(&mut self, policy: &DegradationPolicy) -> Option<u8> {
        self.clean = 0;
        self.pressure = self.pressure.saturating_add(1);
        if self.pressure >= policy.pressure_trigger && self.level < policy.max_level {
            self.level += 1;
            self.pressure = 0;
            Some(self.level)
        } else {
            None
        }
    }

    /// Record a clean (on-SLO, first-try) output. Returns the new level
    /// if this recovered one step.
    pub(crate) fn on_clean(&mut self, policy: &DegradationPolicy) -> Option<u8> {
        self.pressure = 0;
        if self.level == 0 {
            self.clean = 0;
            return None;
        }
        self.clean += 1;
        if self.clean >= policy.clean_recover {
            self.level -= 1;
            self.clean = 0;
            Some(self.level)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_after_sustained_pressure() {
        let p = DegradationPolicy::standard();
        let mut s = DegradationState::new();
        assert_eq!(s.on_pressure(&p), None);
        assert_eq!(s.on_pressure(&p), None);
        assert_eq!(s.on_pressure(&p), Some(1));
        // Level 1 sheds every odd output.
        assert!(!s.should_shed(0));
        assert!(s.should_shed(1));
        assert!(!s.should_shed(2));
    }

    #[test]
    fn clean_outputs_reset_pressure_and_recover() {
        let p = DegradationPolicy::standard();
        let mut s = DegradationState::new();
        for _ in 0..3 {
            s.on_pressure(&p);
        }
        assert_eq!(s.level(), 1);
        // A clean output interrupts a building streak.
        s.on_pressure(&p);
        s.on_pressure(&p);
        s.on_clean(&p);
        assert_eq!(s.on_pressure(&p), None, "streak was reset");
        // Recovery after enough clean outputs (the pressure above reset
        // the clean streak, so count 8 fresh ones).
        let mut recovered = None;
        for _ in 0..8 {
            recovered = s.on_clean(&p);
        }
        assert_eq!(recovered, Some(0));
        assert_eq!(s.level(), 0);
    }

    #[test]
    fn level_caps_at_policy_max() {
        let p = DegradationPolicy::standard();
        let mut s = DegradationState::new();
        for _ in 0..100 {
            s.on_pressure(&p);
        }
        assert_eq!(s.level(), p.max_level);
        // Level 3 keeps every 8th output.
        let kept = (0..64u64).filter(|&k| !s.should_shed(k)).count();
        assert_eq!(kept, 8);
    }
}
