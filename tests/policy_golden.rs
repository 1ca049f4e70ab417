//! Golden byte-identity tests for the buffer policies and the congestion
//! controllers.
//!
//! Moving the Dynamic-Threshold admission test out of `try_enqueue`
//! into a policy was to be unobservable: a DT switch must reproduce the
//! earlier simulation *byte for byte*, seed for seed — same Perfetto
//! trace, same forensic records (including the recorded threshold
//! values), same analysis outcome bytes. Its `α·(B−Q)` threshold is the
//! f64 product `(alpha * free as f64) as u64`, as it was when the first
//! rows were captured; for a while it was computed by an exact integer
//! emulation of that product, and these rows held across both changes.
//!
//! The `GOLDEN` fingerprints were first captured at the commit
//! immediately before the policy code existed, and re-captured twice
//! since, each time on an unchanged simulator: when the hashed fields
//! changed (see below), and when the switch stopped tracing
//! `DequeueIdle`.
//! They cover dyadic α (0.25, 1.0, 2.0) and the α-tuner path
//! (α = 4/(1+s), non-dyadic values like 4/3, where the product rounds
//! to nearest-even before it truncates).
//!
//! The fingerprints hash *behaviour* only: trace bytes, forensic
//! records, ground-truth byte counters, the per-server Millisampler
//! series and the analysis outcome. The engine's dispatch count
//! (`report.events`) is bookkeeping — it moves whenever no-op events are
//! added or removed — so it is pinned in its own table, [`EVENTS`], which
//! an engine change may lower without touching `GOLDEN`.
//!
//! The rows after the four α cases pin the data-plane paths those never
//! reach — the trunk FIFO, the fat-tree mesh, multicast replication,
//! chatter, GRO, NIC-fault drops and a kernel stall — captured on an
//! unchanged simulator immediately before the three planes were merged
//! into one switch mesh. That merge renamed handlers, not schedules, so
//! it had to leave every row of both tables as captured.
//!
//! `TraceEvent::DequeueIdle` — a drain popping on an empty queue — was
//! deleted ahead of the change that stopped scheduling such drains
//! (DESIGN.md §2.1.2). Perfetto export always skipped it, but it sat in
//! the ring, so it showed in the `recent_kinds` flight record of drops
//! that follow an idle port: the fat-tree and GRO/NIC-drop rows moved
//! (with `recent_kinds` masked, all eight rows matched the parent) and
//! no `EVENTS` row did. The drain change itself (`dcsim::DrainSlot`) then
//! lowered every `EVENTS` row and touched no `GOLDEN` row.
//!
//! The last row pins agent mode (§4.1): a per-host scheduler that
//! reconfigures, reads and detaches its tc filter on a rotation and keeps
//! the runs in an on-host store. It was captured on an unchanged
//! simulator before per-server state moved into one record per host;
//! its stored runs are folded into the fingerprint, which no other row
//! has.
//!
//! The next four rows run the first row's incast under the other four
//! sharing policies at their workspace defaults
//! (`PolicyKind::spec_with_alpha(1.0)`), captured on an unchanged
//! simulator before the policy code was folded into one enum. With two
//! servers every queue has a quadrant to itself, so static partitioning
//! and flexible bounds both allow the whole shared pool and share a
//! fingerprint; complete sharing makes the same decisions but records
//! the pool headroom as its threshold, so only its fingerprint differs.
//!
//! The last four rows were captured on an unchanged simulator before
//! the three congestion controllers were folded into one window type.
//! Two run the first row's incast with Cubic and with Reno senders, so
//! every controller's ECN cut, loss cut and growth step is pinned (the
//! rows above all run DCTCP). Two run static partitioning and flexible
//! bounds on eight servers: queue 0 then shares its quadrant with an
//! idle queue, so static partitioning caps it at half the pool while
//! flexible bounds lets the lone active queue take all of it, and the
//! two rows differ.

use millisampler::{RunConfig, SchedulerConfig};
use ms_analysis::analyze_run;
use ms_dcsim::{Bps, Bytes, Ns, PolicyKind};
use ms_telemetry::TelemetryConfig;
use ms_transport::CcAlgorithm;
use ms_workload::sim::{FabricHopConfig, GroConfig};
use ms_workload::{FatTreeOpts, FlowSpec, ScenarioBuilder, TopoFlowSpec, TopologySpec};

/// FNV-1a, folded incrementally.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn incast(dst_server: usize, connections: u32, total_bytes: u64) -> FlowSpec {
    FlowSpec {
        dst_server,
        connections,
        total_bytes,
        algorithm: CcAlgorithm::Dctcp,
        paced_bps: None,
        task: 1,
    }
}

/// One contended incast (300 conns into one 12.5G downlink) on a rack
/// of `servers` that forces drops, marks, and forensic classification
/// under the given α, its senders running `algorithm`.
fn rack_incast(servers: usize, seed: u64, alpha: f64, algorithm: CcAlgorithm) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(servers, seed);
    b.buckets(150)
        .warmup(Ns::from_millis(10))
        .alpha(alpha)
        .telemetry(TelemetryConfig::default())
        .forensics()
        .flow_at(
            Ns::from_millis(20),
            FlowSpec {
                algorithm,
                ..incast(0, 300, 30_000_000)
            },
        );
    b
}

/// The DCTCP incast on two servers, with the α tuner if `tune`.
fn dt_incast(seed: u64, alpha: f64, tune: bool) -> ScenarioBuilder {
    let mut b = rack_incast(2, seed, alpha, CcAlgorithm::Dctcp);
    if tune {
        b.alpha_tune_period(Ns::from_millis(5));
    }
    b
}

/// The seed-7 incast of the first row on `servers` servers under
/// another sharing policy at its workspace defaults.
fn policy_incast(kind: PolicyKind, servers: usize) -> ScenarioBuilder {
    let mut b = rack_incast(servers, 7, 1.0, CcAlgorithm::Dctcp);
    b.buffer_policy(kind.spec_with_alpha(1.0));
    b
}

/// The seed-7, α = 1 incast of the first row with its senders running
/// another congestion controller.
fn cc_incast(algorithm: CcAlgorithm) -> ScenarioBuilder {
    rack_incast(2, 7, 1.0, algorithm)
}

/// An incast smoothed to 40 Gbps through a 25 Gbps trunk with a 256 KiB
/// FIFO: the trunk overflows (off-switch forensics, `fabric_drops`) and
/// what it lets through queues at the ToR behind one 12.5 Gbps downlink.
fn trunk_overflow() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(8, 21);
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .fabric_hop(FabricHopConfig {
            rate_bps: Bps(25_000_000_000),
            buffer_bytes: Bytes::from_kib(256),
        })
        .fabric_smoothing(Bps(40_000_000_000))
        .forensics()
        .flow_at(Ns::from_millis(20), incast(1, 150, 20_000_000));
    b
}

/// Every host outside pod 0 of a k = 4 tree incasts on host 0 over
/// 10 Gbps fabric links and 512 KiB switch buffers: ECMP picks, drops
/// on all three tiers, tier-packed forensic queue ids.
fn tree_cross_pod() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(16, 22);
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .topology(TopologySpec::fat_tree(
            FatTreeOpts {
                k: 4,
                link_gbps: 10,
                buffer_bytes: Bytes(512 << 10),
                ..FatTreeOpts::default()
            },
            5,
        ))
        .forensics();
    for src_host in 4..16 {
        b.topo_flow_at(
            Ns::from_millis(20),
            TopoFlowSpec {
                src_host,
                dst_host: 0,
                connections: 12,
                total_bytes: 4_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
    }
    b
}

/// Keepalive chatter on every server plus a paced multicast burst the
/// ToR replicates to the whole rack; no transport above either.
fn chatter_and_multicast() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(8, 23);
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .telemetry(TelemetryConfig::default());
    for server in 0..8 {
        b.chatter(server, 40, 8_000).join_multicast(77, server);
    }
    b.multicast_burst(Ns::from_millis(30), 77, 600, 1500, Bps(2_000_000_000));
    b
}

/// A paced transfer into a host that coalesces (GRO), loses 2 % of its
/// packets at the NIC and stalls for 10 ms of the window.
fn gro_nic_drops_stall() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(8, 24);
    let mut flow = incast(3, 4, 6_000_000);
    flow.paced_bps = Some(Bps(4_000_000_000));
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .gro(GroConfig::default())
        .forensics()
        .flow_at(Ns::from_millis(20), flow)
        .nic_drops(3, 99, 0.02)
        .stall(3, Ns::from_millis(24), Ns::from_millis(34));
    b
}

/// The §4.1 agent on the incast's destination server, rotating a 1 ms
/// and a 100 µs run every 20 ms: it reconfigures, reads and detaches
/// that host's tc filter four times inside the sync window and keeps
/// each run in its on-host store. Keepalive chatter gives every run
/// packets after the incast has drained.
fn agent_rotation() -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(4, 25);
    let run = |interval, buckets| RunConfig {
        interval,
        buckets,
        count_flows: true,
    };
    b.buckets(120)
        .warmup(Ns::from_millis(10))
        .telemetry(TelemetryConfig::default())
        .agent(
            1,
            SchedulerConfig {
                period: Ns::from_millis(20),
                rotation: vec![run(Ns::from_millis(1), 30), run(Ns::from_micros(100), 100)],
            },
        )
        .chatter(1, 40, 8_000)
        .flow_at(Ns::from_millis(15), incast(1, 40, 12_000_000));
    b
}

/// Runs the scenario and returns `(behaviour fingerprint, dispatches,
/// FNV of the per-kind dispatch table)`.
fn run_fingerprint(b: &ScenarioBuilder) -> (u64, u64, u64) {
    let mut sim = b.build();
    let report = sim.run_sync_window(0);

    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    // Full event timeline: enqueues, drops (with reasons), ECN marks,
    // spans — any admission-decision or timing drift lands here.
    let mut trace = Vec::new();
    sim.write_perfetto_trace(&mut trace).expect("trace export");
    fnv(&mut h, &trace);
    // Forensic records carry the recorded threshold at each drop, so
    // even a ±1-byte threshold difference that flips no decision fails.
    let hub = sim.telemetry().expect("telemetry attached").clone();
    for f in hub.borrow().forensics.records() {
        fnv(&mut h, format!("{f:?}").as_bytes());
    }
    // Ground-truth counters + the full analysis outcome codec bytes.
    fnv(
        &mut h,
        format!(
            "{} {} {} {}",
            report.switch_ingress_bytes,
            report.switch_discard_bytes,
            report.flows_started,
            report.conns_completed,
        )
        .as_bytes(),
    );
    if let Some(run) = &report.rack_run {
        // The sampler's own output, per server and per bucket.
        for s in &run.servers {
            for series in [
                &s.in_bytes,
                &s.in_retx,
                &s.out_bytes,
                &s.out_retx,
                &s.in_ecn,
                &s.conns,
            ] {
                for v in series {
                    fnv(&mut h, &v.to_le_bytes());
                }
            }
        }
        let analysis = analyze_run(run, Bps(12_500_000_000), 5);
        let outcome = ms_analysis::RunOutcome::from_analysis(
            &analysis,
            report.switch_ingress_bytes,
            report.switch_discard_bytes,
            report.flows_started,
            report.conns_completed,
            report.events,
        );
        // Hash the outcome through the *pre-refactor* MSO1 schema minus
        // `events` (the `policy` column appended later is a schema
        // change, not a behavior change, so it must not invalidate the
        // captured fingerprints). Any drift in the scalar values still
        // lands here.
        let mut w = millisampler::codec::WireWriter::with_magic(b"MSO1");
        w.u64(outcome.switch_ingress_bytes);
        w.u64(outcome.switch_discard_bytes);
        w.u64(outcome.flows_started);
        w.u64(outcome.conns_completed);
        w.u64(outcome.total_in_bytes);
        w.u64(outcome.total_retx_bytes);
        w.u64(outcome.bursts);
        w.u64(outcome.contended_bursts);
        w.u64(outcome.lossy_bursts);
        w.f64(outcome.contention_avg);
        w.u64(u64::from(outcome.contention_p90));
        w.u64(u64::from(outcome.contention_max));
        w.u64(u64::from(outcome.active_servers));
        w.u64(u64::from(outcome.bursty_servers));
        fnv(&mut h, &w.finish());
    }
    // Fabric-side ledgers, folded only where a fabric exists so the α
    // rows keep their original fingerprints.
    if b.spec().topology.is_some() {
        let [tor, agg, spine] = sim.tier_discard_bytes();
        fnv(
            &mut h,
            format!("{} {tor} {agg} {spine}", sim.fabric_drops()).as_bytes(),
        );
    }
    // Agent stores, folded only where an agent ran so the other rows
    // keep their original fingerprints: every stored run, re-encoded.
    for server in 0..b.spec().num_servers {
        if let Some(store) = sim.agent_store(server) {
            assert!(store.len() >= 2, "{} agent runs stored", store.len());
            for run in store
                .fetch_range(Ns::ZERO, Ns::MAX)
                .expect("stored runs decode")
            {
                fnv(&mut h, &millisampler::codec::encode(&run));
            }
        }
    }
    let mut kinds = 0xcbf2_9ce4_8422_2325_u64;
    fnv(&mut kinds, sim.profile().counts_json().as_bytes());
    (h, report.events, kinds)
}

/// `(case, scenario, fingerprint)`.
type Case = (&'static str, fn() -> ScenarioBuilder, u64);

const GOLDEN: &[Case] = &[
    (
        "dt seed 7 alpha 1",
        || dt_incast(7, 1.0, false),
        0x9404_ab39_59d4_7629,
    ),
    (
        "dt seed 11 alpha 2",
        || dt_incast(11, 2.0, false),
        0x43e1_d976_47e1_e6d7,
    ),
    (
        "dt seed 13 alpha 0.25",
        || dt_incast(13, 0.25, false),
        0x58e9_6b63_f0cf_2418,
    ),
    (
        "dt seed 7 alpha tuned",
        || dt_incast(7, 1.0, true),
        0x47d6_5cd5_48ea_8811,
    ),
    ("trunk overflow", trunk_overflow, 0x8ac2_c408_fe2a_4b47),
    (
        "k=4 cross-pod incast",
        tree_cross_pod,
        0xc064_fd25_d296_057c,
    ),
    (
        "chatter + multicast",
        chatter_and_multicast,
        0x415a_1397_21f6_b62e,
    ),
    (
        "gro + nic drops + stall",
        gro_nic_drops_stall,
        0x2bef_bf46_5c9f_81f5,
    ),
    ("agent rotation", agent_rotation, 0xbada_48f5_41c8_683b),
    (
        "cs seed 7",
        || policy_incast(PolicyKind::CompleteSharing, 2),
        0xf330_dc18_32f2_c328,
    ),
    (
        "sp seed 7",
        || policy_incast(PolicyKind::StaticPartition, 2),
        0x3d18_3dfe_6d38_9be0,
    ),
    (
        "fb seed 7",
        || policy_incast(PolicyKind::FlexibleBounds, 2),
        0x3d18_3dfe_6d38_9be0,
    ),
    (
        "delay seed 7",
        || policy_incast(PolicyKind::DelayDriven, 2),
        0x774f_2bc0_2e74_6f42,
    ),
    (
        "cubic seed 7",
        || cc_incast(CcAlgorithm::Cubic),
        0xa50e_2e3d_fd70_e4b6,
    ),
    (
        "reno seed 7",
        || cc_incast(CcAlgorithm::Reno),
        0x37d6_2cca_96ad_ea33,
    ),
    (
        "sp eight servers",
        || policy_incast(PolicyKind::StaticPartition, 8),
        0xc705_45a6_7cfa_ad84,
    ),
    (
        "fb eight servers",
        || policy_incast(PolicyKind::FlexibleBounds, 8),
        0x4115_0646_49ba_b8dc,
    ),
];

/// `(report.events, FNV of profile().counts_json())` of each `GOLDEN`
/// case, in the same order: how many engine dispatches and of which
/// kinds, not behaviour.
const EVENTS: &[(u64, u64)] = &[
    (45_912, 0x6503_5d9e_b998_1b70),
    (57_632, 0x0a73_615c_5aa5_a480),
    (27_891, 0x7e5d_9b62_b84f_e8cb),
    (65_117, 0xbd58_6f1f_34c7_abec),
    (50_832, 0x7deb_4224_e65f_16d3),
    (164_645, 0x581d_3fc2_7056_6eef),
    (40_318, 0xb5e2_a0eb_7732_3386),
    (15_663, 0x8cf5_f2c0_e52d_c721),
    (33_056, 0xf93f_e6cb_abfd_95fe),
    (78_606, 0xa87c_ad00_ccbf_f589),
    (78_606, 0xa87c_ad00_ccbf_f589),
    (78_606, 0xa87c_ad00_ccbf_f589),
    (21_637, 0xce0b_0fc4_fa74_499b),
    (42_145, 0x0f4f_ba13_655f_4df0),
    (44_837, 0xf76c_242f_d454_cccd),
    (42_697, 0x0da2_92de_bd1e_882a),
    (75_591, 0x856c_cd00_0820_25db),
];

#[test]
fn dt_alpha_reproduces_pre_refactor_traces_seed_for_seed() {
    let mut bad = Vec::new();
    assert_eq!(GOLDEN.len(), EVENTS.len(), "one dispatch count per case");
    for (&(case, scenario, expected), &expected_events) in GOLDEN.iter().zip(EVENTS) {
        let (got, events, kinds) = run_fingerprint(&scenario());
        println!("(\"{case}\", {got:#018x}), events ({events}, {kinds:#018x})");
        if got != expected {
            bad.push(format!(
                "{case}: fingerprint {got:#018x} != golden {expected:#018x}"
            ));
        }
        if (events, kinds) != expected_events {
            bad.push(format!(
                "{case}: events ({events}, {kinds:#018x}) != pinned {expected_events:x?}"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
