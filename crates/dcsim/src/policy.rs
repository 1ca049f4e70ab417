//! Pluggable buffer-sharing policies for the shared-memory switch.
//!
//! The paper's measurements (§9/§10) are explicitly meant to inform
//! buffer-sharing algorithm design, and ROADMAP open item 3 asks
//! whether the headline contention↛loss finding survives a different
//! sharing discipline. This module turns the admission test that used
//! to be inlined in `SharedBufferSwitch::try_enqueue` into a
//! [`BufferPolicy`] trait with three production implementations:
//!
//! * [`DtAlpha`] — Choudhury–Hahne Dynamic Thresholds, the fleet's
//!   deployed discipline and the one all paper exhibits were measured
//!   under. Bit-identical to the pre-trait inline code: the α·(B−Q)
//!   threshold is computed by an exact integer emulation of the old
//!   `(alpha * free as f64) as u64` (see [`DtAlpha::threshold`]), so
//!   existing seeds reproduce byte-identical traces while the enqueue
//!   path stays integer arithmetic.
//! * [`FlexibleBounds`] — FB-style sharing (Apostolaki et al., arXiv
//!   2105.10553): every queue keeps a guaranteed floor of the shared
//!   pool, and above the floor its ceiling is the even split of the
//!   pool over the quadrant's *currently active* queues, so bounds
//!   flex with contention instead of with free headroom.
//! * [`DelayDriven`] — BShare-style sharing (Agarwal et al., arXiv
//!   2605.24178): admission is keyed on the queue's estimated
//!   queueing delay (occupancy ÷ drain rate) staying within a target;
//!   all delay math is integer ns via u128 cross-multiplication.
//!
//! The ablation baselines [`CompleteSharing`] and [`StaticPartition`]
//! (formerly variants of the retired `SharingPolicy` enum) are also
//! expressed as policies, so every admission decision in the simulator
//! flows through one hook.
//!
//! Dispatch is by enum ([`ActivePolicy`]), never `Box<dyn>`: the
//! admission test runs per packet and must not allocate. The match
//! arms call the impls by explicit path (`DtAlpha::admit(p, ..)`) so
//! simlint's call-graph resolution follows the hot-path facts through
//! every implementation.
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
    /// FB-style guaranteed floor + active-queue-count-adaptive ceiling.
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

    /// Panics if the parameters are unusable (mirrors the constructor
    /// asserts the pre-trait `SwitchConfig` had for α).
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
    /// FB-style floors/ceilings (`fb`).
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

/// The arriving packet's queue, as the policy sees it.
#[derive(Debug, Clone, Copy)]
pub struct QueueCtx {
    /// Bytes this queue currently draws from the shared pool.
    pub shared_used: Bytes,
    /// Total queue occupancy (dedicated + shared).
    pub occupancy: Bytes,
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
        let cap = self.capacity.as_u64();
        let occ = self.occupancy.as_u64();
        Bytes(if occ > cap { 0 } else { cap - occ })
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

/// A buffer-sharing discipline. Implementations must uphold the switch
/// invariants: `admit`/`mark` are called per packet, so they must not
/// panic, allocate, or touch floats (simlint enforces this through
/// [`ActivePolicy`]'s hot-path and float-root listings); decisions may
/// depend only on the passed contexts and the policy's own immutable
/// parameters, so identical seeds stay byte-identical.
pub trait BufferPolicy {
    /// Shared-pool admission test for one packet of `pkt` bytes.
    /// Dedicated-reserve admission bypasses the policy entirely (the
    /// paper's switch always honors reserves), and the physical
    /// pool-fit check stays in the switch.
    fn admit(&self, queue: &QueueCtx, shared: &SharedCtx, pkt: Bytes) -> AdmitDecision;

    /// Whether an admitted ECN-capable packet should be CE-marked,
    /// given queue occupancy before and after the enqueue.
    fn mark(&self, occ_before: Bytes, occ_after: Bytes) -> bool;

    /// Dequeue hook: `freed` bytes just left `queue`. No current
    /// policy keeps state here; the hook is where a drain-rate
    /// estimator (the full BShare design) would live.
    fn on_dequeue(&mut self, queue: &QueueCtx, shared: &SharedCtx, freed: Bytes) {
        let _ = (queue, shared, freed);
    }

    /// The per-queue threshold currently governing the quadrant, for
    /// probes and forensic records (queue-independent part only).
    fn shared_threshold(&self, shared: &SharedCtx) -> Bytes;
}

// --- exact integer emulation of the pre-trait f64 threshold ---------------

/// `value = m·2^e` with `m` a 53-bit-or-smaller integer: the exact
/// rational a finite positive f64 denotes.
fn f64_parts(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if exp == 0 {
        (frac, -1074) // subnormal
    } else {
        (frac | (1u64 << 52), exp - 1075)
    }
}

/// `value = m·2^e` after rounding `f` the way `f as f64` does: to 53
/// significant bits, round-to-nearest, ties-to-even.
fn u64_parts(f: u64) -> (u64, i32) {
    let bits = 64 - i32::try_from(f.leading_zeros()).unwrap_or(64);
    if bits <= 53 {
        return (f, 0);
    }
    // simlint: allow(cast-truncation): bits ≤ 64, so the shift is ≤ 11
    let sh = (bits - 53) as u32;
    let mut m = f >> sh;
    let rem = f & ((1u64 << sh) - 1);
    let half = 1u64 << (sh - 1);
    if rem > half || (rem == half && m & 1 == 1) {
        m += 1;
    }
    let mut e = sh as i32;
    if m == 1u64 << 53 {
        m >>= 1;
        e += 1;
    }
    (m, e)
}

/// Exact integer reproduction of `(alpha * free as f64) as u64` for
/// `alpha = ma·2^ea` (a finite positive f64's exact parts): round the
/// exact product to 53 significant bits (nearest, ties-to-even — the
/// IEEE 754 multiply), then truncate toward zero, saturating like the
/// float-to-int cast. Integer-only, so the admission call tree stays
/// on simlint's float-root list without an allow.
fn mul_alpha_trunc(ma: u64, ea: i32, free: u64) -> u64 {
    if ma == 0 || free == 0 {
        return 0;
    }
    let (mf, ef) = u64_parts(free);
    let mut p = u128::from(ma) * u128::from(mf);
    let mut e = ea + ef;
    let bits = 128 - i32::try_from(p.leading_zeros()).unwrap_or(128);
    if bits > 53 {
        // simlint: allow(cast-truncation): bits ≤ 128, so the shift is ≤ 75
        let sh = (bits - 53) as u32;
        let rem = p & ((1u128 << sh) - 1);
        let half = 1u128 << (sh - 1);
        p >>= sh;
        if rem > half || (rem == half && p & 1 == 1) {
            p += 1; // may round up to 2^53: still exactly representable
        }
        e += sh as i32;
    }
    if e >= 0 {
        if e >= 75 {
            return u64::MAX; // p ≥ 2^52, so the value exceeds u64
        }
        let v = p << e;
        if v > u128::from(u64::MAX) {
            u64::MAX
        } else {
            v as u64
        }
    } else {
        let sh = e.unsigned_abs();
        if sh >= 128 {
            0
        } else {
            // p ≤ 2^53 after rounding, so the shifted value fits u64.
            (p >> sh) as u64
        }
    }
}

// --- the policy zoo -------------------------------------------------------

/// Choudhury–Hahne Dynamic Thresholds (the studied fleet's discipline):
/// admit while the queue's *shared* usage is strictly below
/// α·(capacity − occupancy). α is pre-decomposed into its exact
/// mantissa/exponent at construction so the per-packet path is
/// float-free yet bit-identical to the historical f64 multiply.
#[derive(Debug, Clone, Copy)]
pub struct DtAlpha {
    mant: u64,
    exp: i32,
    ecn: Bytes,
}

impl DtAlpha {
    /// Builds from the spec α (must be positive and finite) and the
    /// switch's ECN marking threshold.
    pub fn new(alpha: f64, ecn: Bytes) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "DT alpha must be positive and finite"
        );
        let (mant, exp) = f64_parts(alpha);
        DtAlpha { mant, exp, ecn }
    }

    /// The dynamic threshold for `free` bytes of pool headroom.
    pub fn threshold(&self, free: Bytes) -> Bytes {
        Bytes(mul_alpha_trunc(self.mant, self.exp, free.as_u64()))
    }
}

impl BufferPolicy for DtAlpha {
    fn admit(&self, queue: &QueueCtx, shared: &SharedCtx, _pkt: Bytes) -> AdmitDecision {
        let threshold = self.shared_threshold(shared);
        if queue.shared_used < threshold {
            AdmitDecision::Admit { threshold }
        } else {
            AdmitDecision::Reject {
                threshold,
                reason: DropReason::DynamicThresholdReject,
            }
        }
    }

    fn mark(&self, _occ_before: Bytes, occ_after: Bytes) -> bool {
        occ_after > self.ecn
    }

    fn shared_threshold(&self, shared: &SharedCtx) -> Bytes {
        self.threshold(shared.headroom())
    }
}

/// No per-queue limit: the physical pool-fit check in the switch is
/// the only gate (the §2.1 "complete sharing" baseline).
#[derive(Debug, Clone, Copy)]
pub struct CompleteSharing {
    ecn: Bytes,
}

impl CompleteSharing {
    /// Builds from the switch's ECN marking threshold.
    pub fn new(ecn: Bytes) -> Self {
        CompleteSharing { ecn }
    }
}

impl BufferPolicy for CompleteSharing {
    fn admit(&self, _queue: &QueueCtx, shared: &SharedCtx, _pkt: Bytes) -> AdmitDecision {
        AdmitDecision::Admit {
            threshold: self.shared_threshold(shared),
        }
    }

    fn mark(&self, _occ_before: Bytes, occ_after: Bytes) -> bool {
        occ_after > self.ecn
    }

    fn shared_threshold(&self, shared: &SharedCtx) -> Bytes {
        shared.headroom()
    }
}

/// Fixed per-queue slice of the shared pool (the §2.1 "static
/// partitioning" baseline): no statistical multiplexing at all.
#[derive(Debug, Clone, Copy)]
pub struct StaticPartition {
    ecn: Bytes,
}

impl StaticPartition {
    /// Builds from the switch's ECN marking threshold.
    pub fn new(ecn: Bytes) -> Self {
        StaticPartition { ecn }
    }
}

impl BufferPolicy for StaticPartition {
    fn admit(&self, queue: &QueueCtx, shared: &SharedCtx, pkt: Bytes) -> AdmitDecision {
        let threshold = self.shared_threshold(shared);
        if queue.shared_used + pkt <= threshold {
            AdmitDecision::Admit { threshold }
        } else {
            AdmitDecision::Reject {
                threshold,
                reason: DropReason::PerQueueCap,
            }
        }
    }

    fn mark(&self, _occ_before: Bytes, occ_after: Bytes) -> bool {
        occ_after > self.ecn
    }

    fn shared_threshold(&self, shared: &SharedCtx) -> Bytes {
        shared.capacity / shared.queues_per_quadrant.max(1)
    }
}

/// FB-style flexible bounds: a guaranteed floor (half the pool split
/// statically over the quadrant's queues) protects lightly-loaded
/// queues, and above it each queue's ceiling is the even split of the
/// whole pool over the *currently active* queue count — generous when
/// the quadrant is quiet, tight under contention.
#[derive(Debug, Clone, Copy)]
pub struct FlexibleBounds {
    ecn: Bytes,
}

impl FlexibleBounds {
    /// Builds from the switch's ECN marking threshold.
    pub fn new(ecn: Bytes) -> Self {
        FlexibleBounds { ecn }
    }

    /// The guaranteed per-queue floor: half the pool divided over all
    /// queues of the quadrant, so the floors can never oversubscribe
    /// the pool even with every queue active.
    pub fn floor(shared: &SharedCtx) -> Bytes {
        shared.capacity / (2 * shared.queues_per_quadrant.max(1))
    }

    /// The active-count-adaptive ceiling: the even split of the pool
    /// over the queues currently holding packets.
    pub fn ceiling(shared: &SharedCtx) -> Bytes {
        shared.capacity / shared.active_queues.max(1)
    }
}

impl BufferPolicy for FlexibleBounds {
    fn admit(&self, queue: &QueueCtx, shared: &SharedCtx, pkt: Bytes) -> AdmitDecision {
        let threshold = self.shared_threshold(shared);
        if queue.shared_used + pkt <= threshold {
            AdmitDecision::Admit { threshold }
        } else {
            AdmitDecision::Reject {
                threshold,
                reason: DropReason::FlexibleBoundsReject,
            }
        }
    }

    fn mark(&self, _occ_before: Bytes, occ_after: Bytes) -> bool {
        occ_after > self.ecn
    }

    fn shared_threshold(&self, shared: &SharedCtx) -> Bytes {
        FlexibleBounds::ceiling(shared).max(FlexibleBounds::floor(shared))
    }
}

/// BShare-style delay-driven admission: a packet is admitted while the
/// queue's estimated queueing delay — occupancy divided by the drain
/// rate — stays within the target. The byte ceiling
/// `drain·target / (8·10⁹)` is precomputed once in u128 integer math,
/// and `occ + pkt ≤ floor(x)` is exactly `occ + pkt ≤ x` for integer
/// occupancies, so the per-packet test is a single integer compare.
#[derive(Debug, Clone, Copy)]
pub struct DelayDriven {
    /// Byte ceiling equivalent to the delay target at the drain rate.
    cap: Bytes,
    ecn: Bytes,
}

impl DelayDriven {
    /// Builds from the delay target, the assumed drain rate (both must
    /// be positive), and the switch's ECN marking threshold.
    pub fn new(target: Ns, drain: Bps, ecn: Bytes) -> Self {
        assert!(
            drain.is_positive(),
            "delay-driven drain rate must be positive"
        );
        assert!(target > Ns::ZERO, "delay-driven target must be positive");
        let cap = u128::from(target.as_nanos()) * u128::from(drain.as_u64()) / 8 / 1_000_000_000;
        let cap = if cap > u128::from(u64::MAX) {
            Bytes::MAX
        } else {
            Bytes(cap as u64)
        };
        DelayDriven { cap, ecn }
    }
}

impl BufferPolicy for DelayDriven {
    fn admit(&self, queue: &QueueCtx, _shared: &SharedCtx, pkt: Bytes) -> AdmitDecision {
        let threshold = self.cap;
        if queue.occupancy + pkt <= threshold {
            AdmitDecision::Admit { threshold }
        } else {
            AdmitDecision::Reject {
                threshold,
                reason: DropReason::DelayTargetExceeded,
            }
        }
    }

    fn mark(&self, _occ_before: Bytes, occ_after: Bytes) -> bool {
        occ_after > self.ecn
    }

    fn shared_threshold(&self, _shared: &SharedCtx) -> Bytes {
        self.cap
    }
}

/// Enum-dispatched policy state held by the switch. No `Box<dyn>`: the
/// admission test is per-packet, and a vtable call plus heap indirection
/// has no place inside the 7 ns disabled-path budget.
#[derive(Debug, Clone, Copy)]
pub enum ActivePolicy {
    /// Dynamic Thresholds.
    Dt(DtAlpha),
    /// Complete sharing.
    Cs(CompleteSharing),
    /// Static partitioning.
    Sp(StaticPartition),
    /// Flexible bounds.
    Fb(FlexibleBounds),
    /// Delay-driven.
    Delay(DelayDriven),
}

impl ActivePolicy {
    /// Instantiates the runtime policy for a spec, copying the switch's
    /// ECN threshold into the policy's `mark` hook.
    pub fn from_spec(spec: &BufferPolicySpec, ecn: Bytes) -> ActivePolicy {
        match *spec {
            BufferPolicySpec::DtAlpha { alpha } => ActivePolicy::Dt(DtAlpha::new(alpha, ecn)),
            BufferPolicySpec::CompleteSharing => ActivePolicy::Cs(CompleteSharing::new(ecn)),
            BufferPolicySpec::StaticPartition => ActivePolicy::Sp(StaticPartition::new(ecn)),
            BufferPolicySpec::FlexibleBounds => ActivePolicy::Fb(FlexibleBounds::new(ecn)),
            BufferPolicySpec::DelayDriven { target, drain } => {
                ActivePolicy::Delay(DelayDriven::new(target, drain, ecn))
            }
        }
    }

    /// Whether [`SharedCtx::active_queues`] must be populated for this
    /// policy (lets the switch skip the O(queues) scan otherwise).
    pub fn needs_active_queues(&self) -> bool {
        matches!(self, ActivePolicy::Fb(_))
    }

    /// Shared-pool admission test (see [`BufferPolicy::admit`]).
    pub fn admit(&self, queue: &QueueCtx, shared: &SharedCtx, pkt: Bytes) -> AdmitDecision {
        match self {
            ActivePolicy::Dt(p) => DtAlpha::admit(p, queue, shared, pkt),
            ActivePolicy::Cs(p) => CompleteSharing::admit(p, queue, shared, pkt),
            ActivePolicy::Sp(p) => StaticPartition::admit(p, queue, shared, pkt),
            ActivePolicy::Fb(p) => FlexibleBounds::admit(p, queue, shared, pkt),
            ActivePolicy::Delay(p) => DelayDriven::admit(p, queue, shared, pkt),
        }
    }

    /// ECN-mark decision (see [`BufferPolicy::mark`]).
    pub fn mark(&self, occ_before: Bytes, occ_after: Bytes) -> bool {
        match self {
            ActivePolicy::Dt(p) => DtAlpha::mark(p, occ_before, occ_after),
            ActivePolicy::Cs(p) => CompleteSharing::mark(p, occ_before, occ_after),
            ActivePolicy::Sp(p) => StaticPartition::mark(p, occ_before, occ_after),
            ActivePolicy::Fb(p) => FlexibleBounds::mark(p, occ_before, occ_after),
            ActivePolicy::Delay(p) => DelayDriven::mark(p, occ_before, occ_after),
        }
    }

    /// Dequeue hook (see [`BufferPolicy::on_dequeue`]).
    pub fn on_dequeue(&mut self, queue: &QueueCtx, shared: &SharedCtx, freed: Bytes) {
        match self {
            ActivePolicy::Dt(p) => DtAlpha::on_dequeue(p, queue, shared, freed),
            ActivePolicy::Cs(p) => CompleteSharing::on_dequeue(p, queue, shared, freed),
            ActivePolicy::Sp(p) => StaticPartition::on_dequeue(p, queue, shared, freed),
            ActivePolicy::Fb(p) => FlexibleBounds::on_dequeue(p, queue, shared, freed),
            ActivePolicy::Delay(p) => DelayDriven::on_dequeue(p, queue, shared, freed),
        }
    }

    /// Current governing threshold for a quadrant (probes, forensics).
    pub fn shared_threshold(&self, shared: &SharedCtx) -> Bytes {
        match self {
            ActivePolicy::Dt(p) => DtAlpha::shared_threshold(p, shared),
            ActivePolicy::Cs(p) => CompleteSharing::shared_threshold(p, shared),
            ActivePolicy::Sp(p) => StaticPartition::shared_threshold(p, shared),
            ActivePolicy::Fb(p) => FlexibleBounds::shared_threshold(p, shared),
            ActivePolicy::Delay(p) => DelayDriven::shared_threshold(p, shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn sctx(occ: u64, cap: u64, active: u64, qpq: u64) -> SharedCtx {
        SharedCtx {
            occupancy: Bytes(occ),
            capacity: Bytes(cap),
            active_queues: active,
            queues_per_quadrant: qpq,
        }
    }

    fn qctx(shared_used: u64, occupancy: u64) -> QueueCtx {
        QueueCtx {
            shared_used: Bytes(shared_used),
            occupancy: Bytes(occupancy),
        }
    }

    #[test]
    fn dt_integer_threshold_matches_the_f64_formula_exactly() {
        // The bit-identity keystone: the u128 emulation must reproduce
        // `(alpha * free as f64) as u64` for every α the workspace uses
        // (sweep values, tuner outputs like 4/3) and adversarial ones,
        // across hand-picked and randomized free values.
        let alphas = [
            0.25,
            0.5,
            1.0,
            2.0,
            4.0,
            4.0 / 3.0,
            4.0 / 5.0,
            4.0 / 7.0,
            0.1,
            0.3333333333333333,
            1.5,
            2.7,
            1e-3,
            1e6,
            f64::from_bits(0x3FF0_0000_0000_0001), // 1.0 + ulp
        ];
        let mut frees: Vec<u64> = vec![
            0,
            1,
            2,
            3,
            1499,
            1500,
            99_999,
            100_000,
            3_600_000,
            4 << 20,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX / 3,
            u64::MAX,
        ];
        let mut rng = SimRng::new(42);
        for _ in 0..2000 {
            frees.push(rng.next_u64() >> (rng.next_u64() % 40));
        }
        for &alpha in &alphas {
            let (ma, ea) = f64_parts(alpha);
            for &free in &frees {
                let want = (alpha * free as f64) as u64;
                let got = mul_alpha_trunc(ma, ea, free);
                assert_eq!(
                    got, want,
                    "alpha {alpha:?} ({ma:#x}·2^{ea}) free {free}: integer {got} != f64 {want}"
                );
            }
        }
    }

    #[test]
    fn dt_admits_strictly_below_threshold_and_rejects_at_it() {
        let dt = DtAlpha::new(1.0, Bytes(20_000));
        let shared = sctx(0, 100_000, 0, 4);
        // threshold = 1.0 · 100_000; usage strictly below admits...
        assert!(dt
            .admit(&qctx(99_999, 99_999), &shared, Bytes(1500))
            .admitted());
        // ...usage exactly at the threshold does not (strict `<`).
        let at = dt.admit(&qctx(100_000, 100_000), &shared, Bytes(1500));
        assert!(!at.admitted());
        assert_eq!(at.threshold(), Bytes(100_000));
        assert_eq!(
            at.reason_or(DropReason::SharedBufferFull),
            DropReason::DynamicThresholdReject
        );
    }

    #[test]
    fn dt_threshold_shrinks_with_pool_occupancy_and_is_zero_when_full() {
        let dt = DtAlpha::new(0.5, Bytes(20_000));
        assert_eq!(dt.shared_threshold(&sctx(0, 100_000, 0, 4)), Bytes(50_000));
        assert_eq!(
            dt.shared_threshold(&sctx(60_000, 100_000, 0, 4)),
            Bytes(20_000)
        );
        assert_eq!(
            dt.shared_threshold(&sctx(100_000, 100_000, 0, 4)),
            Bytes::ZERO
        );
    }

    #[test]
    fn complete_sharing_always_admits_and_reports_headroom() {
        let cs = CompleteSharing::new(Bytes(20_000));
        let d = cs.admit(
            &qctx(1 << 40, 1 << 40),
            &sctx(99_000, 100_000, 9, 4),
            Bytes(64_000),
        );
        assert!(d.admitted());
        assert_eq!(d.threshold(), Bytes(1000));
    }

    #[test]
    fn static_partition_caps_at_the_slice_inclusive() {
        let sp = StaticPartition::new(Bytes(20_000));
        let shared = sctx(0, 100_000, 0, 4);
        // slice = 25_000; an exact-threshold packet is admitted (≤)...
        assert!(sp
            .admit(&qctx(23_500, 23_500), &shared, Bytes(1500))
            .admitted());
        // ...one byte past the slice is not.
        let over = sp.admit(&qctx(23_501, 23_501), &shared, Bytes(1500));
        assert!(!over.admitted());
        assert_eq!(
            over.reason_or(DropReason::SharedBufferFull),
            DropReason::PerQueueCap
        );
    }

    #[test]
    fn flexible_bounds_ceiling_adapts_to_active_queues() {
        let fb = FlexibleBounds::new(Bytes(20_000));
        // Quiet quadrant: the lone active queue may take the whole pool.
        assert_eq!(fb.shared_threshold(&sctx(0, 100_000, 1, 4)), Bytes(100_000));
        // Contended: the even split shrinks the ceiling...
        assert_eq!(fb.shared_threshold(&sctx(0, 100_000, 4, 4)), Bytes(25_000));
        // ...but never below the guaranteed floor (cap / 2·qpq).
        assert_eq!(
            fb.shared_threshold(&sctx(0, 100_000, 100, 4)),
            Bytes(12_500)
        );
    }

    #[test]
    fn flexible_bounds_rejects_with_its_own_reason() {
        let fb = FlexibleBounds::new(Bytes(20_000));
        let shared = sctx(80_000, 100_000, 2, 4); // ceiling = 50_000
        let d = fb.admit(&qctx(49_000, 49_000), &shared, Bytes(1500));
        assert!(!d.admitted());
        assert_eq!(
            d.reason_or(DropReason::SharedBufferFull),
            DropReason::FlexibleBoundsReject
        );
        assert!(fb
            .admit(&qctx(48_500, 48_500), &shared, Bytes(1500))
            .admitted());
    }

    #[test]
    fn delay_driven_cap_is_exact_integer_ns_math() {
        // 500 µs at 12.5 Gb/s = 781_250 bytes.
        let dd = DelayDriven::new(Ns::from_micros(500), Bps(12_500_000_000), Bytes(20_000));
        let shared = sctx(0, 4 << 20, 0, 4);
        assert_eq!(dd.shared_threshold(&shared), Bytes(781_250));
        // An exact-cap fill is admitted; one byte more is refused.
        assert!(dd.admit(&qctx(0, 779_750), &shared, Bytes(1500)).admitted());
        let over = dd.admit(&qctx(0, 779_751), &shared, Bytes(1500));
        assert!(!over.admitted());
        assert_eq!(
            over.reason_or(DropReason::SharedBufferFull),
            DropReason::DelayTargetExceeded
        );
    }

    #[test]
    fn empty_switch_admits_under_every_policy() {
        let shared = sctx(0, 100_000, 1, 4);
        let q = qctx(0, 0);
        let pkt = Bytes(1500);
        for kind in PolicyKind::ALL {
            let policy = ActivePolicy::from_spec(&kind.spec_with_alpha(1.0), Bytes(20_000));
            assert!(
                policy.admit(&q, &shared, pkt).admitted(),
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
        let q = qctx(25_000, 25_500);
        for kind in PolicyKind::ALL {
            let policy = ActivePolicy::from_spec(&kind.spec_with_alpha(1.0), Bytes(20_000));
            let d = policy.admit(&q, &shared, Bytes(1500));
            let _ = d.threshold();
        }
    }

    #[test]
    fn mark_fires_strictly_above_the_ecn_threshold_for_every_policy() {
        for kind in PolicyKind::ALL {
            let policy = ActivePolicy::from_spec(&kind.spec_with_alpha(1.0), Bytes(20_000));
            assert!(!policy.mark(Bytes(0), Bytes(20_000)), "{}", kind.label());
            assert!(policy.mark(Bytes(0), Bytes(20_001)), "{}", kind.label());
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
