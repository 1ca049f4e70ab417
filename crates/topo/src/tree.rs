//! k-ary fat-tree construction, addressing, and routing.
//!
//! Geometry (radix `r = k/2`):
//!
//! ```text
//!   hosts   = k · r · r = k³/4       (r per ToR, r ToRs per pod)
//!   ToRs    = k · r     = k²/2
//!   aggs    = k · r     = k²/2       (r per pod)
//!   spines  = r · r     = k²/4
//! ```
//!
//! Port layout (every switch has radix `k`):
//!
//! * ToR `(pod p, tor t)` — ports `0..r` are host downlinks (port `h`
//!   → host `(p, t, h)`); ports `r..k` are uplinks (port `r + a` →
//!   agg `(p, a)`).
//! * Agg `(pod p, agg a)` — ports `0..r` are ToR downlinks (port `t`
//!   → ToR `(p, t)`); ports `r..k` are spine uplinks (port `r + j` →
//!   spine `a·r + j`, i.e. agg `a` owns spine group `a`).
//! * Spine `s` (group `g = s / r`, member `m = s % r`) — port `p` →
//!   agg `(p, g)`, which sees the spine back on its port `r + m`.
//!
//! Routing is the textbook up/down walk: go up (any equal-cost
//! uplink) until a common ancestor covers the destination, then down
//! (the down path is unique). [`FatTree::route`] encodes both cases
//! as a contiguous [`NextHops`] port range.

use ms_dcsim::{BufferPolicySpec, Ns};
use ms_units::{Bps, Bytes};

/// Construction parameters for a [`FatTree`].
///
/// `k` must be even and `2 ≤ k ≤ 16`, or exactly `1` for the
/// degenerate single-rack trunk (see crate docs). All inter-switch
/// links share one rate, propagation latency, shared-buffer size, and
/// admission policy; heterogeneous tiers are a later axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeOpts {
    /// Fat-tree arity: pods = k, radix per switch = k.
    pub k: u32,
    /// Inter-switch link rate in Gbit/s.
    pub link_gbps: u64,
    /// Per-link propagation latency in nanoseconds.
    pub link_latency_ns: u64,
    /// Shared buffer per switch (split across its quadrants).
    pub buffer_bytes: Bytes,
    /// Admission policy for every switch's shared pool.
    pub policy: BufferPolicySpec,
}

impl Default for FatTreeOpts {
    /// A 25 Gbit/s, 1 µs, 4 MiB-DT k=4 tree (16 hosts, 2-host racks).
    fn default() -> Self {
        FatTreeOpts {
            k: 4,
            link_gbps: 25,
            link_latency_ns: 1_000,
            buffer_bytes: Bytes::from_mib(4),
            policy: BufferPolicySpec::DtAlpha { alpha: 1.0 },
        }
    }
}

impl FatTreeOpts {
    /// Whether `k` describes a real tree (not the `k = 1` trunk).
    pub fn is_tree(&self) -> bool {
        self.k >= 2
    }

    /// Link rate as [`Bps`].
    pub fn link_bps(&self) -> Bps {
        Bps::from_gbps(self.link_gbps)
    }

    /// Link latency as [`Ns`].
    pub fn link_latency(&self) -> Ns {
        Ns(self.link_latency_ns)
    }

    /// Panics with a precise message when the options are malformed.
    pub fn validate(&self) {
        assert!(
            self.k == 1 || (self.k % 2 == 0 && (2..=16).contains(&self.k)),
            "FatTreeOpts.k must be 1 (degenerate trunk) or even in 2..=16, got {}",
            self.k
        );
        assert!(self.link_gbps > 0, "FatTreeOpts.link_gbps must be positive");
        assert!(
            self.buffer_bytes > Bytes::ZERO,
            "FatTreeOpts.buffer_bytes must be positive"
        );
    }
}

/// Which layer of the tree a switch sits in.
///
/// The tier code is packed into telemetry queue ids (see
/// `ms_telemetry::qid`), so the discriminants are wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Top-of-rack: hosts below, aggs above.
    Tor,
    /// Pod aggregation: ToRs below, spines above.
    Agg,
    /// Region spine: pods below, nothing above.
    Spine,
}

impl Tier {
    /// Stable wire code (also the qid tier field).
    pub fn code(self) -> u8 {
        match self {
            Tier::Tor => 0,
            Tier::Agg => 1,
            Tier::Spine => 2,
        }
    }

    /// Stable lowercase label for CSV cells and track names.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Tor => "tor",
            Tier::Agg => "agg",
            Tier::Spine => "spine",
        }
    }
}

/// A switch, identified by tier plus index within that tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchId {
    /// Layer of the tree.
    pub tier: Tier,
    /// Index within the tier (ToRs/aggs: `pod · r + i`; spines: flat).
    pub index: u32,
}

/// `(pod, tor, host)` address of a server, convertible to/from the
/// flat host id `pod · r² + tor · r + host`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostAddr {
    /// Pod number, `0..k`.
    pub pod: u32,
    /// ToR within the pod, `0..k/2`.
    pub tor: u32,
    /// Host under the ToR, `0..k/2`.
    pub host: u32,
}

/// What hangs off the far end of a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopTarget {
    /// A server NIC (flat host id).
    Host(u32),
    /// Another switch, entered on `ingress_port` of `switch`.
    Switch {
        /// Destination switch.
        switch: SwitchId,
        /// Port of `switch` that this link lands on.
        ingress_port: u32,
    },
}

/// A contiguous range of equal-cost output ports on one switch.
///
/// Down-hops are always a single port (`count == 1`); up-hops are the
/// full uplink range `r..k`. Contiguity is a structural fact of the
/// fat-tree port layout, not an approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHops {
    /// First equal-cost port.
    pub base_port: u32,
    /// Number of equal-cost ports (≥ 1).
    pub count: u32,
}

impl NextHops {
    /// The single port `base_port + choice` for an ECMP `choice` in
    /// `0..count`.
    pub fn port(self, choice: u32) -> u32 {
        self.base_port + if choice < self.count { choice } else { 0 }
    }
}

/// An instantiated k-ary fat-tree: pure shape + routing, no queues.
#[derive(Debug, Clone)]
pub struct FatTree {
    opts: FatTreeOpts,
    /// Radix per side: `k / 2`.
    r: u32,
}

impl FatTree {
    /// Builds the tree. Panics (via [`FatTreeOpts::validate`]) on a
    /// malformed `k`; `k = 1` is rejected here — the degenerate trunk
    /// never constructs a `FatTree`.
    pub fn new(opts: FatTreeOpts) -> Self {
        opts.validate();
        assert!(
            opts.is_tree(),
            "FatTree::new requires k >= 2; k = 1 is the degenerate trunk"
        );
        FatTree {
            opts,
            r: opts.k / 2,
        }
    }

    /// The construction parameters.
    pub fn opts(&self) -> &FatTreeOpts {
        &self.opts
    }

    /// Fat-tree arity `k`.
    pub fn k(&self) -> u32 {
        self.opts.k
    }

    /// Total hosts: `k³/4`.
    pub fn num_hosts(&self) -> u32 {
        self.opts.k * self.r * self.r
    }

    /// Total ToRs: `k²/2`.
    pub fn num_tors(&self) -> u32 {
        self.opts.k * self.r
    }

    /// Total aggs: `k²/2`.
    pub fn num_aggs(&self) -> u32 {
        self.opts.k * self.r
    }

    /// Total spines: `k²/4`.
    pub fn num_spines(&self) -> u32 {
        self.r * self.r
    }

    /// Total switches across all tiers.
    pub fn num_switches(&self) -> u32 {
        self.num_tors() + self.num_aggs() + self.num_spines()
    }

    /// Ports (= drain queues) on one switch.
    pub fn ports_per_switch(&self) -> u32 {
        self.opts.k
    }

    /// Flat switch ordering: ToRs, then aggs, then spines. Used by the
    /// simulator to index its per-switch state vector.
    pub fn switch_ord(&self, sw: SwitchId) -> u32 {
        match sw.tier {
            Tier::Tor => sw.index,
            Tier::Agg => self.num_tors() + sw.index,
            Tier::Spine => self.num_tors() + self.num_aggs() + sw.index,
        }
    }

    /// Inverse of [`FatTree::switch_ord`].
    pub fn switch_at(&self, ord: u32) -> SwitchId {
        let (tors, aggs) = (self.num_tors(), self.num_aggs());
        if ord < tors {
            SwitchId {
                tier: Tier::Tor,
                index: ord,
            }
        } else if ord < tors + aggs {
            SwitchId {
                tier: Tier::Agg,
                index: ord - tors,
            }
        } else {
            SwitchId {
                tier: Tier::Spine,
                index: ord - tors - aggs,
            }
        }
    }

    /// `(pod, tor, host)` of a flat host id.
    pub fn host_addr(&self, host: u32) -> HostAddr {
        let per_pod = self.r * self.r;
        HostAddr {
            pod: host / per_pod,
            tor: (host % per_pod) / self.r,
            host: host % self.r,
        }
    }

    /// The ToR a host hangs off.
    pub fn tor_of(&self, host: u32) -> SwitchId {
        let a = self.host_addr(host);
        SwitchId {
            tier: Tier::Tor,
            index: a.pod * self.r + a.tor,
        }
    }

    /// Equal-cost output ports of `sw` toward flat host `dst`.
    ///
    /// Down-hops return one port; up-hops return the uplink range
    /// `r..k`. Hot path: no panics, no allocation, no floats.
    pub fn route(&self, sw: SwitchId, dst: u32) -> NextHops {
        let r = self.r;
        let a = self.host_addr(dst);
        match sw.tier {
            Tier::Tor => {
                if sw.index == a.pod * r + a.tor {
                    NextHops {
                        base_port: a.host,
                        count: 1,
                    }
                } else {
                    NextHops {
                        base_port: r,
                        count: r,
                    }
                }
            }
            Tier::Agg => {
                if sw.index / r == a.pod {
                    NextHops {
                        base_port: a.tor,
                        count: 1,
                    }
                } else {
                    NextHops {
                        base_port: r,
                        count: r,
                    }
                }
            }
            Tier::Spine => NextHops {
                base_port: a.pod,
                count: 1,
            },
        }
    }

    /// What the far end of `(sw, port)` is. Hot path: pure arithmetic.
    pub fn hop_target(&self, sw: SwitchId, port: u32) -> HopTarget {
        let r = self.r;
        match sw.tier {
            Tier::Tor => {
                let pod = sw.index / r;
                let tor = sw.index % r;
                if port < r {
                    HopTarget::Host(pod * r * r + tor * r + port)
                } else {
                    HopTarget::Switch {
                        switch: SwitchId {
                            tier: Tier::Agg,
                            index: pod * r + (port - r),
                        },
                        ingress_port: tor,
                    }
                }
            }
            Tier::Agg => {
                let pod = sw.index / r;
                let agg = sw.index % r;
                if port < r {
                    HopTarget::Switch {
                        switch: SwitchId {
                            tier: Tier::Tor,
                            index: pod * r + port,
                        },
                        ingress_port: r + agg,
                    }
                } else {
                    HopTarget::Switch {
                        switch: SwitchId {
                            tier: Tier::Spine,
                            index: agg * r + (port - r),
                        },
                        ingress_port: pod,
                    }
                }
            }
            Tier::Spine => HopTarget::Switch {
                switch: SwitchId {
                    tier: Tier::Agg,
                    index: port * r + sw.index / r,
                },
                ingress_port: r + sw.index % r,
            },
        }
    }

    /// Directed links a data packet crosses from `src`'s NIC to
    /// `dst`'s NIC, host uplink included: 2 under one ToR, 4 within a
    /// pod, 6 across pods. The reverse (ACK) path has the same length;
    /// the simulator uses this for its uncongested static return
    /// delay.
    pub fn path_links(&self, src: u32, dst: u32) -> u32 {
        let (a, b) = (self.host_addr(src), self.host_addr(dst));
        if a.pod == b.pod {
            if a.tor == b.tor {
                2
            } else {
                4
            }
        } else {
            6
        }
    }

    /// Whether the down-port of ToR `sw` at `port` faces a host.
    pub fn is_host_port(&self, sw: SwitchId, port: u32) -> bool {
        sw.tier == Tier::Tor && port < self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(k: u32) -> FatTree {
        FatTree::new(FatTreeOpts {
            k,
            ..FatTreeOpts::default()
        })
    }

    #[test]
    fn closed_form_counts_match_for_k_2_4_6() {
        for k in [2u32, 4, 6] {
            let t = tree(k);
            assert_eq!(t.num_hosts(), k * k * k / 4, "hosts k={k}");
            assert_eq!(t.num_tors(), k * k / 2, "tors k={k}");
            assert_eq!(t.num_aggs(), k * k / 2, "aggs k={k}");
            assert_eq!(t.num_spines(), k * k / 4, "spines k={k}");
            assert_eq!(t.num_switches(), k * k + k * k / 4, "switches k={k}");
            assert_eq!(t.ports_per_switch(), k);
        }
    }

    #[test]
    fn k4_matches_the_paper_scale_example() {
        let t = tree(4);
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.num_tors(), 8);
        assert_eq!(t.num_aggs(), 8);
        assert_eq!(t.num_spines(), 4);
    }

    #[test]
    fn host_addressing_round_trips() {
        for k in [2u32, 4, 6] {
            let t = tree(k);
            let r = k / 2;
            for h in 0..t.num_hosts() {
                let a = t.host_addr(h);
                assert!(a.pod < k && a.tor < r && a.host < r);
                assert_eq!(a.pod * r * r + a.tor * r + a.host, h, "k={k} host={h}");
            }
        }
    }

    #[test]
    fn switch_ord_round_trips_and_is_dense() {
        let t = tree(4);
        for ord in 0..t.num_switches() {
            assert_eq!(t.switch_ord(t.switch_at(ord)), ord);
        }
        assert_eq!(t.switch_at(0).tier, Tier::Tor);
        assert_eq!(t.switch_at(t.num_tors()).tier, Tier::Agg);
        assert_eq!(t.switch_at(t.num_tors() + t.num_aggs()).tier, Tier::Spine);
    }

    #[test]
    fn port_wiring_is_symmetric() {
        // Following any inter-switch port and then the claimed ingress
        // port backwards must land on the original switch.
        for k in [2u32, 4, 6] {
            let t = tree(k);
            for ord in 0..t.num_switches() {
                let sw = t.switch_at(ord);
                for port in 0..t.ports_per_switch() {
                    if let HopTarget::Switch {
                        switch,
                        ingress_port,
                    } = t.hop_target(sw, port)
                    {
                        match t.hop_target(switch, ingress_port) {
                            HopTarget::Switch {
                                switch: back,
                                ingress_port: back_port,
                            } => {
                                assert_eq!(back, sw, "k={k} {sw:?} port {port}");
                                assert_eq!(back_port, port, "k={k} {sw:?} port {port}");
                            }
                            HopTarget::Host(_) => panic!("asymmetric wiring at {sw:?}:{port}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_route_walk_terminates_at_the_destination() {
        // From every host-facing ToR, every ECMP choice at every
        // up-hop must reach the destination host in ≤ 5 switch hops.
        let t = tree(4);
        for src in 0..t.num_hosts() {
            for dst in 0..t.num_hosts() {
                if src == dst {
                    continue;
                }
                for choice in 0..t.k() / 2 {
                    let mut sw = t.tor_of(src);
                    let mut hops = 0u32;
                    loop {
                        hops += 1;
                        assert!(hops <= 5, "routing loop {src}->{dst}");
                        let nh = t.route(sw, dst);
                        let port = nh.port(choice % nh.count);
                        match t.hop_target(sw, port) {
                            HopTarget::Host(h) => {
                                assert_eq!(h, dst, "{src}->{dst} choice {choice}");
                                break;
                            }
                            HopTarget::Switch { switch, .. } => sw = switch,
                        }
                    }
                    // Fabric hops agree with path_links (minus host uplink,
                    // which route() never sees).
                    assert_eq!(hops, t.path_links(src, dst) - 1, "{src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn up_hops_expose_the_full_uplink_range() {
        let t = tree(6);
        let r = t.k() / 2;
        // Host 0's ToR routing to a host in another pod: all r uplinks.
        let nh = t.route(t.tor_of(0), t.num_hosts() - 1);
        assert_eq!((nh.base_port, nh.count), (r, r));
        // Same-ToR neighbor: one down port.
        let nh = t.route(t.tor_of(0), 1);
        assert_eq!((nh.base_port, nh.count), (1, 1));
    }

    #[test]
    #[should_panic(expected = "k must be 1")]
    fn odd_k_is_rejected() {
        tree(3);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn degenerate_k1_never_builds_a_tree() {
        tree(1);
    }
}
