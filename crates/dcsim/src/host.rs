//! Server (host) model.
//!
//! A [`Host`] is where Millisampler attaches. It models the parts of a
//! server that matter to host-side sampling:
//!
//! * a NIC uplink toward the ToR (for ACKs and any egress data) — the
//!   *downlink* (ToR → host) is owned by the switch side;
//! * multiple CPUs with RSS-style steering: each flow is hashed to the CPU
//!   that will process its soft-irqs, which is the CPU whose per-CPU
//!   Millisampler counters the packet increments (§4.1 of the paper
//!   explains why the filter uses per-CPU variables);
//! * a host **clock** with a configurable fixed offset from simulation time,
//!   modeling NTP error across hosts. SyncMillisampler's alignment logic
//!   (§4.4–4.5) must work on timestamps from these clocks, not the
//!   simulator's global clock.

use crate::link::Link;
use crate::packet::FlowId;
use crate::time::Ns;
use ms_units::Bps;

/// A server in the rack.
#[derive(Debug)]
pub struct Host {
    num_cpus: usize,
    /// Signed clock offset: host clock = sim time + offset.
    clock_offset_ns: i64,
    /// NIC uplink toward the ToR.
    uplink: Link,
    /// Optional NIC stall window: while `now` is inside, the "kernel" does
    /// not process interrupts — packets arrive at the NIC but the tc filter
    /// never sees them (models the locking bugs described in §4.6).
    stall: Option<(Ns, Ns)>,
}

impl Host {
    /// Creates a host. `uplink_rate` is the server link rate toward the
    /// ToR (12.5 Gbps for the studied server type).
    pub fn new(num_cpus: usize, uplink_rate: Bps, uplink_delay: Ns) -> Self {
        assert!(num_cpus > 0, "host needs at least one CPU");
        Host {
            num_cpus,
            clock_offset_ns: 0,
            uplink: Link::new(uplink_rate, uplink_delay),
            stall: None,
        }
    }

    /// Sets the host clock offset (positive = clock runs ahead of sim time).
    pub fn set_clock_offset(&mut self, offset_ns: i64) {
        self.clock_offset_ns = offset_ns;
    }

    /// Reads the host's local clock at simulation time `now`.
    ///
    /// Saturates at zero: a large negative offset near sim start cannot
    /// produce a pre-epoch timestamp.
    pub fn local_clock(&self, now: Ns) -> Ns {
        let t = now.as_nanos() as i64 + self.clock_offset_ns;
        Ns(t.max(0) as u64)
    }

    /// The CPU that processes a flow (RSS hash of the flow id).
    pub fn rss_cpu(&self, flow: FlowId) -> usize {
        (flow.hash64() % self.num_cpus as u64) as usize
    }

    /// Mutable access to the NIC uplink (for transmitting ACKs/data).
    pub fn uplink_mut(&mut self) -> &mut Link {
        &mut self.uplink
    }

    /// Installs a NIC/kernel stall during `[from, to)` (fault injection).
    pub fn set_stall(&mut self, from: Ns, to: Ns) {
        assert!(from < to, "stall window must be non-empty");
        self.stall = Some((from, to));
    }

    /// Whether the kernel is stalled (not processing interrupts) at `now`.
    pub fn is_stalled(&self, now: Ns) -> bool {
        matches!(self.stall, Some((from, to)) if now >= from && now < to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_offset_applies() {
        let mut h = Host::new(4, Bps(12_500_000_000), Ns::from_micros(1));
        h.set_clock_offset(500_000); // +0.5ms
        assert_eq!(h.local_clock(Ns::from_millis(1)), Ns(1_500_000));
        h.set_clock_offset(-500_000);
        assert_eq!(h.local_clock(Ns::from_millis(1)), Ns(500_000));
    }

    #[test]
    fn negative_clock_saturates_at_zero() {
        let mut h = Host::new(4, Bps(1_000_000_000), Ns::ZERO);
        h.set_clock_offset(-1_000_000);
        assert_eq!(h.local_clock(Ns(100)), Ns::ZERO);
    }

    #[test]
    fn rss_spreads_flows_over_cpus() {
        let h = Host::new(4, Bps(1_000_000_000), Ns::ZERO);
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[h.rss_cpu(FlowId(i))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rss_is_stable_per_flow() {
        let h = Host::new(4, Bps(1_000_000_000), Ns::ZERO);
        let cpu = h.rss_cpu(FlowId(42));
        for _ in 0..10 {
            assert_eq!(h.rss_cpu(FlowId(42)), cpu);
        }
    }

    #[test]
    fn stall_window_is_half_open() {
        let mut h = Host::new(1, Bps(1_000_000_000), Ns::ZERO);
        h.set_stall(Ns(100), Ns(200));
        assert!(!h.is_stalled(Ns(99)));
        assert!(h.is_stalled(Ns(100)));
        assert!(h.is_stalled(Ns(199)));
        assert!(!h.is_stalled(Ns(200)));
    }
}
