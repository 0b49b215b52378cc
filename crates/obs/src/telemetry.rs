//! The paper's telemetry cadence.
//!
//! The Raritan PDU on the Lustre rack and the Appro cage monitors each
//! emit one interval-averaged watt sample per minute, and every
//! characterization figure is derived from those timelines. A harvested
//! [`PowerProfile`] resampled at [`paper_cadence`] (or finer, down to one
//! second) with [`PowerProfile::resample`] is that sampled W(t) signal.
//!
//! [`PowerProfile`]: ivis_power::profile::PowerProfile
//! [`PowerProfile::resample`]: ivis_power::profile::PowerProfile::resample

use ivis_sim::SimDuration;

/// The paper's reporting cadence: one interval-averaged sample per minute.
pub fn paper_cadence() -> SimDuration {
    SimDuration::from_mins(1)
}
