//! InfiniBand QDR interconnect cost model.
//!
//! A latency–bandwidth (Hockney) model. [`SharedLink`] layers FIFO
//! queueing on top for paths where multiple in-flight transfers contend
//! for the same aggregate bandwidth (the compute→staging hand-off of the
//! in-transit pipeline).

use ivis_sim::{SimDuration, SimTime};

/// Hockney-model interconnect: `T(n) = latency + n / bandwidth`.
#[derive(Debug, Clone)]
pub struct Interconnect {
    /// Per-message latency.
    pub latency: SimDuration,
    /// Point-to-point bandwidth, bytes per second.
    pub bandwidth_bps: f64,
}

impl Interconnect {
    /// QLogic InfiniBand QDR: 4×QDR ≈ 32 Gbit/s ⇒ ~3.2 GB/s effective,
    /// ~1.3 µs MPI latency.
    pub fn ib_qdr() -> Self {
        Interconnect {
            latency: SimDuration::from_micros(1),
            bandwidth_bps: 3.2e9,
        }
    }

    /// Time to move `bytes` point-to-point.
    #[cfg(test)]
    fn ptp_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// One completed (scheduled) transfer over a [`SharedLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTransfer {
    /// When the link actually started serving the transfer (submission
    /// time, or later if the link was busy).
    pub start: SimTime,
    /// When the last byte arrived.
    pub done: SimTime,
}

impl LinkTransfer {
    /// Time the transfer spent queued behind earlier traffic.
    pub fn queued(&self, submitted: SimTime) -> SimDuration {
        self.start.duration_since(submitted)
    }
}

/// A single shared link with FIFO service: the staging partition's
/// aggregate ingest path, over which concurrent hand-offs contend.
///
/// The Hockney model prices one transfer in isolation; when a depth-`k`
/// transport ships several samples concurrently they serialize here —
/// a transfer submitted while the link is busy starts only when the
/// previous one finishes, which is exactly the store-and-forward
/// contention SIM-SITU observes on real staging deployments. With at
/// most one transfer ever in flight the link is transparent: `transfer`
/// returns the same completion time as the isolated Hockney model.
///
/// Bandwidth can be derated (interconnect brownouts) via
/// [`set_bandwidth_scale`](Self::set_bandwidth_scale); at the default
/// scale of 1.0 service times are bit-identical to the unscaled model.
#[derive(Debug, Clone)]
pub struct SharedLink {
    net: Interconnect,
    scale: f64,
    free_at: SimTime,
    busy: SimDuration,
    queued: SimDuration,
}

impl SharedLink {
    /// An idle link over `net` at nominal bandwidth.
    pub fn new(net: Interconnect) -> Self {
        SharedLink {
            net,
            scale: 1.0,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            queued: SimDuration::ZERO,
        }
    }

    /// Derate (or restore) the link bandwidth: `scale` is the fraction of
    /// nominal bandwidth that survives.
    ///
    /// # Panics
    /// Panics unless `scale` is in `(0, 1]`.
    pub fn set_bandwidth_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0 && scale <= 1.0,
            "link bandwidth scale must be in (0, 1], got {scale}"
        );
        self.scale = scale;
    }

    /// Schedule a transfer of `bytes` submitted at `submit`.
    ///
    /// FIFO: the transfer starts at `max(submit, free_at)` and holds the
    /// link for one latency plus the serialization time at the current
    /// (possibly derated) bandwidth.
    pub fn transfer(&mut self, submit: SimTime, bytes: u64) -> LinkTransfer {
        let start = self.free_at.max(submit);
        let service = self.net.latency
            + SimDuration::from_secs_f64(bytes as f64 / (self.net.bandwidth_bps * self.scale));
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        self.queued += start.duration_since(submit);
        LinkTransfer { start, done }
    }

    /// Total link-busy time across every transfer served.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total time transfers spent queued behind earlier traffic.
    pub fn queued_time(&self) -> SimDuration {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Service time of one transfer of `bytes` over an idle link.
    fn idle_transfer(bytes: u64) -> SimDuration {
        let t = SharedLink::new(Interconnect::ib_qdr()).transfer(SimTime::ZERO, bytes);
        t.done - t.start
    }

    #[test]
    fn transfer_scales_with_size() {
        let small = idle_transfer(1_000);
        let large = idle_transfer(1_000_000_000);
        assert!(large > small);
        // 1 GB at 3.2 GB/s ≈ 0.3125 s, plus 1 µs of latency.
        assert_eq!(large, SimDuration::from_micros(312_501));
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        assert_eq!(idle_transfer(0), Interconnect::ib_qdr().latency);
    }

    #[test]
    fn idle_shared_link_matches_ptp() {
        let net = Interconnect::ib_qdr();
        let mut link = SharedLink::new(net.clone());
        let t = link.transfer(SimTime::from_secs(3), 1 << 30);
        assert_eq!(t.start, SimTime::from_secs(3));
        assert_eq!(t.done, SimTime::from_secs(3) + net.ptp_time(1 << 30));
        assert_eq!(t.queued(SimTime::from_secs(3)), SimDuration::ZERO);
    }

    #[test]
    fn concurrent_transfers_serialize_fifo() {
        let net = Interconnect::ib_qdr();
        let mut link = SharedLink::new(net.clone());
        let submit_b = SimTime::from_micros(1_000);
        let a = link.transfer(SimTime::ZERO, 1 << 30);
        // Submitted while the link is still busy: waits for `a`.
        let b = link.transfer(submit_b, 1 << 30);
        assert_eq!(b.start, a.done);
        assert_eq!(b.done, a.done + net.ptp_time(1 << 30));
        assert!(b.queued(submit_b) > SimDuration::ZERO);
        assert_eq!(link.queued_time(), b.queued(submit_b));
    }

    #[test]
    fn derated_link_is_slower_and_restores() {
        let mut link = SharedLink::new(Interconnect::ib_qdr());
        let nominal = link.transfer(SimTime::ZERO, 1 << 30);
        link.set_bandwidth_scale(0.5);
        let slow = link.transfer(nominal.done, 1 << 30);
        assert!(
            (slow.done - slow.start).as_secs_f64()
                > 1.9 * (nominal.done - nominal.start).as_secs_f64()
        );
        link.set_bandwidth_scale(1.0);
        let back = link.transfer(slow.done, 1 << 30);
        assert_eq!(back.done - back.start, nominal.done - nominal.start);
    }

    #[test]
    #[should_panic(expected = "link bandwidth scale")]
    fn zero_scale_rejected() {
        SharedLink::new(Interconnect::ib_qdr()).set_bandwidth_scale(0.0);
    }
}
