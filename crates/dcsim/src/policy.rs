//! Buffer-sharing policies for the shared-memory switch.
//!
//! The paper's measurements (§9/§10) are explicitly meant to inform
//! buffer-sharing algorithm design, and ROADMAP open item 3 asks
//! whether the headline contention↛loss finding survives a different
//! sharing discipline. The switch's shared-pool admission test is
//! therefore one [`ActivePolicy`], built from a serializable
//! [`BufferPolicySpec`]:
//!
//! * `Dt` — Choudhury–Hahne Dynamic Thresholds, the fleet's deployed
//!   discipline and the one all paper exhibits were measured under. The
//!   α·(B−Q) threshold is the f64 product `(alpha * free as f64) as u64`,
//!   the expression `tests/policy_golden.rs` was first captured on.
//! * `Fb` — FB-style sharing (Apostolaki et al., arXiv 2105.10553):
//!   each queue's ceiling is the even split of the shared pool over the
//!   quadrant's *currently active* queues, so bounds flex with
//!   contention instead of with free headroom.
//! * `Delay` — BShare-style sharing (Agarwal et al., arXiv 2605.24178):
//!   admission is keyed on the queue's estimated queueing delay
//!   (occupancy ÷ drain rate) staying within a target, precomputed once
//!   as a byte ceiling.
//! * `Cs` and `Sp` — the complete-sharing and static-partitioning
//!   ablation baselines.
//!
//! ECN marking is not a policy decision: the switch marks above its
//! static threshold under every policy.
//!
//! Forensics stay policy-agnostic: [`AdmitDecision`] always carries
//! the governing threshold, which the switch records verbatim in each
//! [`ms_telemetry::DropForensic::dt_threshold`], whatever the policy.

use crate::time::Ns;
use ms_telemetry::DropReason;
use ms_units::{Bps, Bytes};

/// Serializable policy selection, carried by `SwitchConfig` and
/// `ScenarioSpec` (MSS2 codec) and swept by the fleet's `--policies`
/// axis. Parameters ride inside the variant so a spec is one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferPolicySpec {
    /// Choudhury–Hahne DT: admit while queue shared usage < α·(free pool).
    DtAlpha {
        /// The DT α parameter (must be positive and finite).
        alpha: f64,
    },
    /// No per-queue limit: admit while the pool physically fits the
    /// packet (one queue can starve all others).
    CompleteSharing,
    /// Fixed per-queue cap: shared capacity divided evenly over the
    /// queues of the quadrant (no statistical multiplexing).
    StaticPartition,
    /// FB-style active-queue-count-adaptive ceiling.
    FlexibleBounds,
    /// BShare-style delay-target admission.
    DelayDriven {
        /// Maximum tolerated estimated queueing delay.
        target: Ns,
        /// Assumed egress drain rate used to convert occupancy to delay.
        drain: Bps,
    },
}

impl BufferPolicySpec {
    /// The paper's deployed discipline at its §3 default (α = 1).
    pub const DEFAULT_DT: BufferPolicySpec = BufferPolicySpec::DtAlpha { alpha: 1.0 };

    /// The parameter-free tag of this spec.
    pub fn kind(&self) -> PolicyKind {
        match self {
            BufferPolicySpec::DtAlpha { .. } => PolicyKind::DtAlpha,
            BufferPolicySpec::CompleteSharing => PolicyKind::CompleteSharing,
            BufferPolicySpec::StaticPartition => PolicyKind::StaticPartition,
            BufferPolicySpec::FlexibleBounds => PolicyKind::FlexibleBounds,
            BufferPolicySpec::DelayDriven { .. } => PolicyKind::DelayDriven,
        }
    }

    /// Stable short id (`dt`, `cs`, `sp`, `fb`, `delay`) — the policy
    /// column of `RunOutcome` CSV rows and the `--policies` CLI tokens.
    pub fn id(&self) -> &'static str {
        self.kind().label()
    }

    /// Panics if the parameters are unusable: the one validation of a
    /// spec, run before the switch builds its [`ActivePolicy`].
    pub fn assert_valid(&self) {
        match *self {
            BufferPolicySpec::DtAlpha { alpha } => {
                assert!(
                    alpha > 0.0 && alpha.is_finite(),
                    "DT alpha must be positive and finite"
                );
            }
            BufferPolicySpec::DelayDriven { target, drain } => {
                assert!(
                    drain.is_positive(),
                    "delay-driven drain rate must be positive"
                );
                assert!(target > Ns::ZERO, "delay-driven target must be positive");
            }
            BufferPolicySpec::CompleteSharing
            | BufferPolicySpec::StaticPartition
            | BufferPolicySpec::FlexibleBounds => {}
        }
    }
}

impl Default for BufferPolicySpec {
    fn default() -> Self {
        BufferPolicySpec::DEFAULT_DT
    }
}

/// Parameter-free policy tag: the sweep-axis value of `--policies`,
/// and the stable code stored in outcome/lake rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Choudhury–Hahne Dynamic Thresholds (`dt`).
    DtAlpha,
    /// No per-queue limit (`cs`).
    CompleteSharing,
    /// Fixed even split (`sp`).
    StaticPartition,
    /// FB-style adaptive ceilings (`fb`).
    FlexibleBounds,
    /// BShare-style delay target (`delay`).
    DelayDriven,
}

impl PolicyKind {
    /// Every kind, in code order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::DtAlpha,
        PolicyKind::CompleteSharing,
        PolicyKind::StaticPartition,
        PolicyKind::FlexibleBounds,
        PolicyKind::DelayDriven,
    ];

    /// Stable short label (CLI token, grid-label fragment, CSV cell).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::DtAlpha => "dt",
            PolicyKind::CompleteSharing => "cs",
            PolicyKind::StaticPartition => "sp",
            PolicyKind::FlexibleBounds => "fb",
            PolicyKind::DelayDriven => "delay",
        }
    }

    /// Stable numeric code (outcome codec / lake column). The first
    /// three match the retired `SharingPolicy` codec tags.
    pub fn code(self) -> u64 {
        match self {
            PolicyKind::DtAlpha => 0,
            PolicyKind::CompleteSharing => 1,
            PolicyKind::StaticPartition => 2,
            PolicyKind::FlexibleBounds => 3,
            PolicyKind::DelayDriven => 4,
        }
    }

    /// Inverse of [`PolicyKind::code`].
    pub fn from_code(code: u64) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Inverse of [`PolicyKind::label`].
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// A full spec for this kind: DT takes the sweep's α; the other
    /// kinds get their workspace defaults (delay-driven: 500 µs at the
    /// rack's 12.5 Gb/s downlink rate).
    pub fn spec_with_alpha(self, alpha: f64) -> BufferPolicySpec {
        match self {
            PolicyKind::DtAlpha => BufferPolicySpec::DtAlpha { alpha },
            PolicyKind::CompleteSharing => BufferPolicySpec::CompleteSharing,
            PolicyKind::StaticPartition => BufferPolicySpec::StaticPartition,
            PolicyKind::FlexibleBounds => BufferPolicySpec::FlexibleBounds,
            PolicyKind::DelayDriven => BufferPolicySpec::DelayDriven {
                target: Ns::from_micros(500),
                drain: Bps(12_500_000_000),
            },
        }
    }
}

/// The quadrant's shared pool, as the policy sees it.
#[derive(Debug, Clone, Copy)]
pub struct SharedCtx {
    /// Current shared-pool occupancy of the quadrant.
    pub occupancy: Bytes,
    /// Shared-pool capacity of the quadrant.
    pub capacity: Bytes,
    /// Queues of this quadrant currently non-empty, counting the
    /// arriving packet's queue as active. Only populated when the
    /// active policy asks for it ([`ActivePolicy::needs_active_queues`]);
    /// zero otherwise, so the DT hot path never pays the O(queues) scan.
    pub active_queues: u64,
    /// Queues mapped to this quadrant.
    pub queues_per_quadrant: u64,
}

impl SharedCtx {
    /// Free pool headroom: capacity minus occupancy, floored at zero.
    pub fn headroom(&self) -> Bytes {
        self.capacity.saturating_sub(self.occupancy)
    }
}

/// Outcome of a policy admission test. Both arms carry the governing
/// per-queue threshold at decision time so drop forensics can record
/// it without knowing which policy produced it (a packet that passes
/// the policy can still die on physical pool exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The policy admits the packet (subject to the switch's physical
    /// pool-fit check).
    Admit {
        /// The per-queue limit that was not exceeded.
        threshold: Bytes,
    },
    /// The policy refuses the packet.
    Reject {
        /// The per-queue limit that was exceeded.
        threshold: Bytes,
        /// The admission rule that said no.
        reason: DropReason,
    },
}

impl AdmitDecision {
    /// Whether the policy admitted the packet.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmitDecision::Admit { .. })
    }

    /// The governing threshold, whichever arm.
    pub fn threshold(&self) -> Bytes {
        match *self {
            AdmitDecision::Admit { threshold } | AdmitDecision::Reject { threshold, .. } => {
                threshold
            }
        }
    }

    /// The rejection reason, or `fallback` on the admit arm (used when
    /// physical pool exhaustion overrides an admitting policy).
    pub fn reason_or(&self, fallback: DropReason) -> DropReason {
        match *self {
            AdmitDecision::Reject { reason, .. } => reason,
            AdmitDecision::Admit { .. } => fallback,
        }
    }
}

/// The switch's runtime policy, built once from a [`BufferPolicySpec`].
/// Dispatch is one `match` per call, never `Box<dyn>`: the admission test
/// runs per packet and must not allocate.
#[derive(Debug, Clone, Copy)]
pub enum ActivePolicy {
    /// Choudhury–Hahne Dynamic Thresholds (the studied fleet's
    /// discipline): admit while the queue's *shared* usage is strictly
    /// below α·(capacity − occupancy).
    Dt {
        /// The DT α parameter.
        alpha: f64,
    },
    /// No per-queue limit: the switch's physical pool-fit check is the
    /// only gate (the §2.1 "complete sharing" baseline).
    Cs,
    /// Fixed per-queue slice of the shared pool (the §2.1 "static
    /// partitioning" baseline): no statistical multiplexing at all.
    Sp,
    /// FB-style flexible bounds: each queue's ceiling is the even split
    /// of the whole pool over the quadrant's *currently active* queues —
    /// generous when the quadrant is quiet, tight under contention. A
    /// quadrant holds at most `queues_per_quadrant` queues, so the
    /// ceiling never falls below static partitioning's slice.
    Fb,
    /// BShare-style delay-driven admission: admit while the queue's
    /// estimated queueing delay (occupancy ÷ drain rate) stays within the
    /// target, as one byte compare: `occ + pkt ≤ floor(x)` is exactly
    /// `occ + pkt ≤ x` for integer occupancies.
    Delay {
        /// Byte ceiling equivalent to the delay target at the drain rate.
        cap: Bytes,
    },
}

impl ActivePolicy {
    /// Instantiates the runtime policy for a spec. The switch calls
    /// [`BufferPolicySpec::assert_valid`] first.
    pub fn from_spec(spec: &BufferPolicySpec) -> ActivePolicy {
        match *spec {
            BufferPolicySpec::DtAlpha { alpha } => ActivePolicy::Dt { alpha },
            BufferPolicySpec::CompleteSharing => ActivePolicy::Cs,
            BufferPolicySpec::StaticPartition => ActivePolicy::Sp,
            BufferPolicySpec::FlexibleBounds => ActivePolicy::Fb,
            BufferPolicySpec::DelayDriven { target, drain } => ActivePolicy::Delay {
                cap: target.bytes_at_rate(drain),
            },
        }
    }

    /// Whether [`SharedCtx::active_queues`] must be populated for this
    /// policy (lets the switch skip the O(queues) scan otherwise).
    pub fn needs_active_queues(&self) -> bool {
        matches!(self, ActivePolicy::Fb)
    }

    /// The per-queue threshold currently governing the quadrant, for
    /// admission, probes and forensic records.
    pub fn threshold(&self, shared: &SharedCtx) -> Bytes {
        match *self {
            ActivePolicy::Dt { alpha } => Bytes((alpha * shared.headroom().as_u64() as f64) as u64),
            ActivePolicy::Cs => shared.headroom(),
            ActivePolicy::Sp => shared.capacity / shared.queues_per_quadrant.max(1),
            ActivePolicy::Fb => shared.capacity / shared.active_queues.max(1),
            ActivePolicy::Delay { cap } => cap,
        }
    }

    /// Shared-pool admission test for one packet of `pkt` bytes, given
    /// the arriving queue's shared-pool bytes and its total occupancy.
    /// Dedicated-reserve admission bypasses the policy entirely (the
    /// paper's switch always honors reserves), and the physical pool-fit
    /// check stays in the switch.
    pub fn admit(
        &self,
        shared_used: Bytes,
        occupancy: Bytes,
        shared: &SharedCtx,
        pkt: Bytes,
    ) -> AdmitDecision {
        let threshold = self.threshold(shared);
        let (admitted, reason) = match self {
            ActivePolicy::Dt { .. } => {
                (shared_used < threshold, DropReason::DynamicThresholdReject)
            }
            // Never refuses; the reason is never read.
            ActivePolicy::Cs => (true, DropReason::SharedBufferFull),
            ActivePolicy::Sp => (shared_used + pkt <= threshold, DropReason::PerQueueCap),
            ActivePolicy::Fb => (
                shared_used + pkt <= threshold,
                DropReason::FlexibleBoundsReject,
            ),
            ActivePolicy::Delay { .. } => (
                occupancy + pkt <= threshold,
                DropReason::DelayTargetExceeded,
            ),
        };
        if admitted {
            AdmitDecision::Admit { threshold }
        } else {
            AdmitDecision::Reject { threshold, reason }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sctx(occ: u64, cap: u64, active: u64, qpq: u64) -> SharedCtx {
        SharedCtx {
            occupancy: Bytes(occ),
            capacity: Bytes(cap),
            active_queues: active,
            queues_per_quadrant: qpq,
        }
    }

    fn policy(kind: PolicyKind) -> ActivePolicy {
        ActivePolicy::from_spec(&kind.spec_with_alpha(1.0))
    }

    fn dt(alpha: f64) -> ActivePolicy {
        ActivePolicy::from_spec(&BufferPolicySpec::DtAlpha { alpha })
    }

    /// `admit` with the queue's shared usage and occupancy both `used`.
    fn admit(p: ActivePolicy, used: u64, shared: &SharedCtx, pkt: u64) -> AdmitDecision {
        p.admit(Bytes(used), Bytes(used), shared, Bytes(pkt))
    }

    #[test]
    fn dt_admits_strictly_below_threshold_and_rejects_at_it() {
        let dt = dt(1.0);
        let shared = sctx(0, 100_000, 0, 4);
        // threshold = 1.0 · 100_000; usage strictly below admits...
        assert!(admit(dt, 99_999, &shared, 1500).admitted());
        // ...usage exactly at the threshold does not (strict `<`).
        let at = admit(dt, 100_000, &shared, 1500);
        assert!(!at.admitted());
        assert_eq!(at.threshold(), Bytes(100_000));
        assert_eq!(
            at.reason_or(DropReason::SharedBufferFull),
            DropReason::DynamicThresholdReject
        );
    }

    #[test]
    fn dt_threshold_shrinks_with_pool_occupancy_and_is_zero_when_full() {
        let dt = dt(0.5);
        assert_eq!(dt.threshold(&sctx(0, 100_000, 0, 4)), Bytes(50_000));
        assert_eq!(dt.threshold(&sctx(60_000, 100_000, 0, 4)), Bytes(20_000));
        assert_eq!(dt.threshold(&sctx(100_000, 100_000, 0, 4)), Bytes::ZERO);
    }

    #[test]
    fn complete_sharing_always_admits_and_reports_headroom() {
        let d = admit(
            policy(PolicyKind::CompleteSharing),
            1 << 40,
            &sctx(99_000, 100_000, 9, 4),
            64_000,
        );
        assert!(d.admitted());
        assert_eq!(d.threshold(), Bytes(1000));
    }

    #[test]
    fn static_partition_caps_at_the_slice_inclusive() {
        let sp = policy(PolicyKind::StaticPartition);
        let shared = sctx(0, 100_000, 0, 4);
        // slice = 25_000; an exact-threshold packet is admitted (≤)...
        assert!(admit(sp, 23_500, &shared, 1500).admitted());
        // ...one byte past the slice is not.
        let over = admit(sp, 23_501, &shared, 1500);
        assert!(!over.admitted());
        assert_eq!(
            over.reason_or(DropReason::SharedBufferFull),
            DropReason::PerQueueCap
        );
    }

    #[test]
    fn flexible_bounds_ceiling_adapts_to_active_queues() {
        let fb = policy(PolicyKind::FlexibleBounds);
        // Quiet quadrant: the lone active queue may take the whole pool.
        assert_eq!(fb.threshold(&sctx(0, 100_000, 1, 4)), Bytes(100_000));
        // Contended: the even split shrinks the ceiling.
        assert_eq!(fb.threshold(&sctx(0, 100_000, 4, 4)), Bytes(25_000));
    }

    #[test]
    fn flexible_bounds_rejects_with_its_own_reason() {
        let fb = policy(PolicyKind::FlexibleBounds);
        let shared = sctx(80_000, 100_000, 2, 4); // ceiling = 50_000
        let d = admit(fb, 49_000, &shared, 1500);
        assert!(!d.admitted());
        assert_eq!(
            d.reason_or(DropReason::SharedBufferFull),
            DropReason::FlexibleBoundsReject
        );
        assert!(admit(fb, 48_500, &shared, 1500).admitted());
    }

    #[test]
    fn delay_driven_cap_is_exact_integer_ns_math() {
        // 500 µs at 12.5 Gb/s = 781_250 bytes.
        let dd = policy(PolicyKind::DelayDriven);
        let shared = sctx(0, 4 << 20, 0, 4);
        assert_eq!(dd.threshold(&shared), Bytes(781_250));
        // The test reads the queue's occupancy, not its shared usage: an
        // exact-cap fill is admitted; one byte more is refused.
        assert!(dd
            .admit(Bytes::ZERO, Bytes(779_750), &shared, Bytes(1500))
            .admitted());
        let over = dd.admit(Bytes::ZERO, Bytes(779_751), &shared, Bytes(1500));
        assert!(!over.admitted());
        assert_eq!(
            over.reason_or(DropReason::SharedBufferFull),
            DropReason::DelayTargetExceeded
        );
    }

    #[test]
    fn empty_switch_admits_under_every_policy() {
        let shared = sctx(0, 100_000, 1, 4);
        for kind in PolicyKind::ALL {
            assert!(
                admit(policy(kind), 0, &shared, 1500).admitted(),
                "{} refused a packet on an empty switch",
                kind.label()
            );
        }
    }

    #[test]
    fn full_pool_thresholds_floor_out_but_never_panic() {
        // Physical pool exhaustion is the switch's job, but policies
        // must stay total when occupancy equals capacity.
        let shared = sctx(100_000, 100_000, 4, 4);
        for kind in PolicyKind::ALL {
            let d = policy(kind).admit(Bytes(25_000), Bytes(25_500), &shared, Bytes(1500));
            let _ = d.threshold();
        }
    }

    #[test]
    fn kind_codes_and_labels_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_code(kind.code()), Some(kind));
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.spec_with_alpha(2.0).kind(), kind);
        }
        assert_eq!(PolicyKind::from_code(99), None);
        assert_eq!(PolicyKind::parse("bogus"), None);
    }
}
