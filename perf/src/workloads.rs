//! The eight workloads: input generation (set-up), one timed rep, the
//! correctness checks, and the fingerprint of the simulated outputs.
//!
//! Every workload is a closed loop with one client — a batch simulator
//! has no arrival process — so the figure of merit is work per second at
//! the stated input size. All sizes below are the `--scale 1` sizes,
//! chosen so one rep takes roughly half a second on the 2-core host the
//! benchmark was sized on; `Params::scale` shrinks or grows them.

use crate::api::{
    self, Bps, CcAlgorithm, FlowSpec, Ns, RackSim, RackSimReport, ScenarioBuilder, ScenarioSpec,
};
use crate::json;
use crate::spans::Tracer;
use std::path::{Path, PathBuf};

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 8] = [
    "region_day",
    "incast_storm",
    "incast_storm_traced",
    "bulk_stream",
    "udp_floor",
    "fat_tree_shuffle",
    "fleet_lake",
    "lake_scan",
];

/// The unit of each workload's `work_per_s` numerator.
pub fn work_unit(workload: &str) -> &'static str {
    match workload {
        "fleet_lake" => "cell",
        "lake_scan" => "row",
        _ => "sim_mbyte",
    }
}

/// Threads a workload's rep uses (only `fleet_lake` is parallel).
pub fn threads_used(workload: &str) -> usize {
    if workload == "fleet_lake" {
        crate::host::host_cores().min(2)
    } else {
        1
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Multiplier on every workload's size (1.0 = the recorded sizes).
    pub scale: f64,
    /// Directory the lake workloads may create files under.
    pub scratch: PathBuf,
}

impl Params {
    fn scaled(&self, base: u64, min: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(min)
    }
}

/// Server link rate the analyses assume (§3: 12.5 Gb/s).
const LINK: Bps = Bps(12_500_000_000);
/// Loss-association slack in buckets (§8: 5 × 1 ms covers the min-RTO).
const LOSS_SLACK: usize = 5;

/// Streaming FNV-1a-64 over the simulated outputs of a rep.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn series(&mut self, values: &[u64]) {
        for &v in values {
            self.u64(v);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Pass/fail ledger: every simulated cell, fleet cell, lake query and
/// correctness check is one attempted operation.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Dispatch groups of the per-layer table, in reporting order.
pub const DISPATCH_GROUPS: [&str; 6] = ["timer", "switch", "host", "ack", "fabric", "gen"];

/// Which group an engine event kind (`"component.Event"`) belongs to.
fn dispatch_group(kind: &str) -> usize {
    match kind.rsplit('.').next().unwrap_or(kind) {
        "SenderTimer" | "ReceiverTimer" => 0,
        "TorArrive" | "TorDrain" | "AlphaTune" => 1,
        "HostDeliver" | "Chatter" | "GroFlush" => 2,
        "SourceDeliver" => 3,
        "SwArrive" | "SwDrain" => 4,
        // Generators, flow starts, multicast pacing, sampler control.
        _ => 5,
    }
}

/// Counters read from outside a rep's simulations (public report fields,
/// the always-on engine profiler, telemetry gauges). All deterministic
/// except `dispatch_wall_ns`, which fills only in the traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounts {
    pub events: u64,
    pub ingress_bytes: u64,
    pub discard_bytes: u64,
    pub sampled_in_bytes: u64,
    pub sampled_retx_bytes: u64,
    pub dispatch: [u64; 6],
    pub dispatch_wall_ns: [u64; 6],
    pub sender_timer: u64,
    pub host_deliver: u64,
    /// `engine.depth_high_water` gauge (telemetry-attached sims only).
    pub heap_high_water: u64,
    /// `trace.events_dropped` gauge (telemetry-attached sims only).
    pub events_overwritten: u64,
}

impl SimCounts {
    pub fn dispatches(&self) -> u64 {
        self.dispatch.iter().sum()
    }

    fn add_profile(&mut self, profile_json: &str) {
        let Ok(doc) = json::parse(profile_json) else {
            return;
        };
        for (kind, n) in doc
            .get("dispatch")
            .and_then(json::Value::as_obj)
            .unwrap_or(&[])
        {
            let n = n.as_f64().unwrap_or(0.0) as u64;
            self.dispatch[dispatch_group(kind)] += n;
            if kind.ends_with(".SenderTimer") {
                self.sender_timer += n;
            }
            if kind.ends_with(".HostDeliver") {
                self.host_deliver += n;
            }
        }
        let by_kind = doc.get("wall").and_then(|w| w.get("by_kind"));
        for (kind, ns) in by_kind.and_then(json::Value::as_obj).unwrap_or(&[]) {
            self.dispatch_wall_ns[dispatch_group(kind)] += ns.as_f64().unwrap_or(0.0) as u64;
        }
    }
}

/// What one rep produced.
#[derive(Debug, Clone, Default)]
pub struct RepOutput {
    pub fingerprint: u64,
    /// Deterministic work numerator, in the workload's unit.
    pub work: f64,
    pub checks: Checks,
    pub sim: SimCounts,
    /// Workload-specific per-layer facts (scan counters, byte sizes).
    pub facts: Vec<(&'static str, f64)>,
}

/// A workload after set-up: holds the generated inputs, runs reps.
pub trait Prepared {
    /// One rep: build the runnable objects from the inputs, run them,
    /// produce and check the outputs. `traced` switches the engine
    /// profiler's wall clock on (the tracer records spans either way
    /// when it is on).
    fn rep(&mut self, t: &mut Tracer, traced: bool) -> RepOutput;

    /// Removes what a rep left on disk; called outside the timed region.
    fn cleanup(&mut self) {}

    /// Correctness checks too costly for every rep; the trace pass runs
    /// them once, outside any timing.
    fn trace_checks(&mut self) -> Checks {
        Checks::default()
    }
}

/// Set-up: generates the inputs of `workload` from the seed.
///
/// # Panics
/// On an unknown workload name (callers validate against [`WORKLOADS`]).
pub fn prepare(workload: &str, p: &Params, t: &mut Tracer) -> Box<dyn Prepared> {
    match workload {
        "region_day" => Box::new(RegionDay::new(p, t)),
        "incast_storm" => Box::new(SimCells::incast_storm(p, false)),
        "incast_storm_traced" => Box::new(SimCells::incast_storm(p, true)),
        "bulk_stream" => Box::new(SimCells::bulk_stream(p)),
        "udp_floor" => Box::new(SimCells::udp_floor(p)),
        "fat_tree_shuffle" => Box::new(SimCells::fat_tree_shuffle(p)),
        "fleet_lake" => Box::new(FleetLake::new(p)),
        "lake_scan" => Box::new(LakeScan::new(p, t)),
        other => panic!("unknown workload {other:?}"),
    }
}

// ---- one simulated cell ---------------------------------------------------------

/// Facts about one finished simulation that the workload checks use.
struct CellFacts {
    report: RackSimReport,
    forensic_bytes: u64,
    forensic_tier_bytes: [u64; 3],
    forensics_shed: u64,
    tier_discard_bytes: [u64; 3],
}

/// Builds, runs and reads out one simulation, folding its outputs into
/// `out`. The per-cell op is "it simulated traffic": events and ingress
/// bytes both positive.
fn run_cell(
    spec: &ScenarioSpec,
    rack_id: u32,
    t: &mut Tracer,
    traced: bool,
    fp: &mut Fnv,
    out: &mut RepOutput,
) -> (RackSim, CellFacts) {
    let s = t.enter("workload.spec_build");
    let mut sim = api::spec_build(spec);
    t.exit(s);
    if traced {
        api::set_profile_clock(&mut sim, crate::host::wall_clock_ns);
    }
    let s = t.enter("sim.run_sync_window");
    let report = api::run_sync_window(&mut sim, rack_id);
    t.exit(s);

    let profile = api::profile_json(&sim);
    out.sim.add_profile(&profile);
    out.sim.events += report.events;
    out.sim.ingress_bytes += report.switch_ingress_bytes;
    out.sim.discard_bytes += report.switch_discard_bytes;
    out.sim.heap_high_water = out
        .sim
        .heap_high_water
        .max(api::telemetry_gauge(&sim, "engine.depth_high_water").unwrap_or(0));
    out.sim.events_overwritten += api::telemetry_gauge(&sim, "trace.events_dropped").unwrap_or(0);

    fp.u64(report.events);
    fp.u64(report.switch_ingress_bytes);
    fp.u64(report.switch_discard_bytes);
    fp.u64(report.flows_started);
    fp.u64(report.conns_completed);
    // The deterministic half of the profiler output (dispatch counts).
    fp.bytes(profile.split(",\"wall\"").next().unwrap_or("").as_bytes());
    if let Some(run) = &report.rack_run {
        for h in &run.servers {
            fp.series(&h.in_bytes);
            fp.series(&h.in_retx);
            fp.series(&h.out_bytes);
            fp.series(&h.in_ecn);
            fp.series(&h.conns);
            out.sim.sampled_in_bytes += h.in_bytes.iter().sum::<u64>();
            out.sim.sampled_retx_bytes += h.in_retx.iter().sum::<u64>();
        }
    }
    out.checks
        .check(report.events > 0 && report.switch_ingress_bytes > 0, || {
            format!(
                "cell simulated no traffic: {} events, {} ingress bytes",
                report.events, report.switch_ingress_bytes
            )
        });

    let mut forensic_tier_bytes = [0u64; 3];
    let mut forensic_bytes = 0u64;
    for f in api::forensic_records(&sim) {
        forensic_bytes += u64::from(f.size);
        if f.queue != api::OFFSWITCH_QID {
            if let Some(slot) = forensic_tier_bytes.get_mut(usize::from(api::qid_tier(f.queue))) {
                *slot += u64::from(f.size);
            }
        }
    }
    let facts = CellFacts {
        forensic_bytes,
        forensic_tier_bytes,
        forensics_shed: api::forensics_shed(&sim),
        tier_discard_bytes: api::tier_discard_bytes(&sim),
        report,
    };
    (sim, facts)
}

fn incast(dst: usize, conns: u32, total: u64) -> FlowSpec {
    FlowSpec {
        dst_server: dst,
        connections: conns,
        total_bytes: total,
        algorithm: CcAlgorithm::Dctcp,
        paced_bps: None,
        task: dst as u64 + 1,
    }
}

// ---- region_day -------------------------------------------------------------------

/// The paper-exhibit path: placed racks of two regions at two hours of
/// day, simulated and analyzed exactly as `repro`'s region sweeps do.
struct RegionDay {
    regions: [api::RegionSpec; 2],
    /// `(region index, rack index, hour)`.
    cells: Vec<(usize, usize, usize)>,
    cfg: api::ScenarioConfig,
    /// Folded into every cell's simulator seed.
    seed: u64,
}

impl RegionDay {
    const RACKS: usize = 12;
    const SERVERS: usize = 16;
    const HOURS: [usize; 2] = [7, 19];
    /// Placement and offered load are fixed (`repro`'s default seed, run
    /// 0): a rack's task mix and its hourly jitter set how much traffic a
    /// cell simulates, and drawing them from the benchmark seed moved
    /// `wall_s` by ±25 % from seed to seed — more than any bound. The
    /// benchmark seed reseeds each cell's simulator instead (clock skews,
    /// chatter phases): same work to ±0.2 %, different event interleaving.
    const PLACEMENT_SEED: u64 = 42;

    fn new(p: &Params, t: &mut Tracer) -> Self {
        let s = t.enter("workload.build_region");
        let [reg_a, reg_b] = [api::RegionKind::RegA, api::RegionKind::RegB]
            .map(|kind| api::build_region(kind, Self::RACKS, Self::SERVERS, Self::PLACEMENT_SEED));
        t.exit(s);
        let first = |class_is_ml: bool| {
            reg_a
                .racks
                .iter()
                .position(|r| (r.class == api::RackClass::MlDense) == class_is_ml)
                .unwrap_or(0)
        };
        // RegA: its first ML-dense rack and its first diverse rack;
        // RegB (a continuum, not bimodal): racks 0 and 6.
        let racks = [(0, first(true)), (0, first(false)), (1, 0), (1, 6)];
        // Each rack at one hour, alternating busy (7) and quiet (19).
        let cells = racks
            .iter()
            .zip(Self::HOURS.iter().cycle())
            .map(|(&(region, rack), &hour)| (region, rack, hour))
            .collect();
        let cfg = api::ScenarioConfig {
            buckets: p.scaled(100, 20) as usize,
            mss: 4500,
            warmup: Ns::from_millis(30),
            ..api::ScenarioConfig::default()
        };
        RegionDay {
            regions: [reg_a, reg_b],
            cells,
            cfg,
            seed: p.seed,
        }
    }
}

impl Prepared for RegionDay {
    fn rep(&mut self, t: &mut Tracer, traced: bool) -> RepOutput {
        let mut out = RepOutput::default();
        let mut fp = Fnv::default();
        for &(region, rack, hour) in &self.cells {
            let region = &self.regions[region];
            let rack_spec = &region.racks[rack];
            let s = t.enter("workload.rack_spec_for");
            let mut spec = api::rack_spec_for(rack_spec, &region.diurnal, hour, 0, &self.cfg);
            spec.seed ^= self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            t.exit(s);
            let (_sim, facts) = run_cell(&spec, rack_spec.rack_id, t, traced, &mut fp, &mut out);
            if let Some(run) = &facts.report.rack_run {
                let s = t.enter("analysis.analyze_run");
                let analysis = api::analyze_run(run, LINK, LOSS_SLACK);
                t.exit(s);
                let s = t.enter("analysis.outcome");
                let outcome = api::outcome_from(&analysis, &facts.report);
                fp.bytes(&api::outcome_encode(&outcome));
                t.exit(s);
            }
        }
        out.work = out.sim.ingress_bytes as f64 / 1e6;
        out.fingerprint = fp.finish();
        out
    }
}

// ---- single-scenario simulator workloads ------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum SimKind {
    IncastStorm,
    IncastStormTraced,
    BulkStream,
    UdpFloor,
    FatTreeShuffle,
}

/// A workload that is one declarative scenario run once per rep.
struct SimCells {
    kind: SimKind,
    spec: ScenarioSpec,
    /// Connections the scenario starts (the `bulk_stream` completion check).
    conns: u64,
}

impl SimCells {
    /// Short flows at the DT boundary: every 20 ms a 200-connection
    /// 100 KB-each incast into a rotating victim, 1 ms after a
    /// 60-connection 8 MB competitor filled the same buffer quadrant.
    fn incast_storm(p: &Params, traced: bool) -> Self {
        const SERVERS: usize = 16;
        let waves = p.scaled(20, 2);
        let mut b = ScenarioBuilder::new(SERVERS, p.seed);
        b.buckets(waves as usize * 20 + 100)
            .warmup(Ns::from_millis(10));
        for w in 0..waves {
            let victim = ((p.seed + w) % SERVERS as u64) as usize;
            // Queues map to quadrants by `queue % 4`, so +4 shares one.
            let competitor = (victim + 4) % SERVERS;
            let at = Ns::from_millis(30 + 20 * w);
            b.flow_at(at - Ns::from_millis(1), incast(competitor, 60, 8_000_000));
            b.flow_at(at, incast(victim, 200, 200 * 100_000));
        }
        if traced {
            b.telemetry(api::TelemetryConfig::default()).forensics();
        }
        SimCells {
            kind: if traced {
                SimKind::IncastStormTraced
            } else {
                SimKind::IncastStorm
            },
            spec: b.spec(),
            conns: waves * 260,
        }
    }

    /// Long flows in ECN steady state: two DCTCP connections into every
    /// server, MSS 1500, no loss — per-ACK and timer path only.
    fn bulk_stream(p: &Params) -> Self {
        const SERVERS: usize = 16;
        const CONNS: u32 = 2;
        let per_conn = p.scaled(16_000_000, 200_000);
        let per_server = per_conn * u64::from(CONNS);
        // A server link drains ~1.56 MB per 1 ms bucket; leave 2× room.
        let buckets = (per_server / 1_500_000 * 2 + 40) as usize;
        let mut b = ScenarioBuilder::new(SERVERS, p.seed);
        b.buckets(buckets).warmup(Ns::from_millis(10)).mss(1500);
        for s in 0..SERVERS {
            b.flow_at(Ns::from_millis(15), incast(s, CONNS, per_server));
        }
        SimCells {
            kind: SimKind::BulkStream,
            spec: b.spec(),
            conns: SERVERS as u64 * u64::from(CONNS),
        }
    }

    /// Bare forwarding at the smallest packet size: keepalive chatter on
    /// every server plus paced multicast bursts to the whole rack. No
    /// transport state machine runs.
    fn udp_floor(p: &Params) -> Self {
        const SERVERS: usize = 16;
        const GROUP: u32 = 900;
        let bursts = p.scaled(10, 1);
        let mut b = ScenarioBuilder::new(SERVERS, p.seed);
        b.buckets(bursts as usize * 25 + 20)
            .warmup(Ns::from_millis(10));
        for s in 0..SERVERS {
            b.chatter(s, 64, 150_000);
            b.join_multicast(GROUP, s);
        }
        for i in 0..bursts {
            b.multicast_burst(
                Ns::from_millis(15 + 25 * i),
                GROUP,
                4000,
                256,
                Bps(2_000_000_000),
            );
        }
        SimCells {
            kind: SimKind::UdpFloor,
            spec: b.spec(),
            conns: 0,
        }
    }

    /// The third data plane: waves of cross-pod all-to-all over a k=4
    /// fat-tree (10 G fabric, 512 KiB switch buffers, seeded ECMP).
    fn fat_tree_shuffle(p: &Params) -> Self {
        const K: u32 = 4;
        let opts = api::FatTreeOpts {
            k: K,
            link_gbps: 10,
            buffer_bytes: api::Bytes(512 << 10),
            ..api::FatTreeOpts::default()
        };
        let hosts = K * K * K / 4;
        let pod_hosts = K * K / 4;
        let waves = p.scaled(2, 1);
        let mut b = ScenarioBuilder::new(hosts as usize, p.seed);
        b.buckets(waves as usize * 50 + 50)
            .warmup(Ns::from_millis(10))
            .topology(api::TopologySpec::fat_tree(opts, p.seed));
        let mut conns = 0u64;
        for w in 0..waves {
            for src in 0..hosts {
                for dst in (0..hosts).filter(|d| d / pod_hosts != src / pod_hosts) {
                    b.topo_flow_at(
                        Ns::from_millis(15 + 50 * w),
                        api::TopoFlowSpec {
                            src_host: src,
                            dst_host: dst,
                            connections: 2,
                            total_bytes: 600_000,
                            algorithm: CcAlgorithm::Dctcp,
                            paced_bps: None,
                            task: 1,
                        },
                    );
                    conns += 2;
                }
            }
        }
        SimCells {
            kind: SimKind::FatTreeShuffle,
            spec: b.spec(),
            conns,
        }
    }
}

impl Prepared for SimCells {
    fn rep(&mut self, t: &mut Tracer, traced: bool) -> RepOutput {
        let mut out = RepOutput::default();
        let mut fp = Fnv::default();
        let (mut sim, facts) = run_cell(&self.spec, 0, t, traced, &mut fp, &mut out);
        let report = &facts.report;
        match self.kind {
            SimKind::IncastStorm => {}
            SimKind::IncastStormTraced => {
                let s = t.enter("telemetry.finalize_export");
                api::finalize_metrics(&mut sim);
                let mut sink = CountingSink::default();
                let exported = api::write_perfetto_trace(&sim, &mut sink).is_ok();
                t.exit(s);
                fp.u64(sink.bytes);
                out.facts.push(("perfetto_bytes", sink.bytes as f64));
                out.checks.check(exported && sink.bytes > 0, || {
                    String::from("perfetto export produced no bytes")
                });
                out.checks.check(
                    facts.forensics_shed == 0
                        && facts.forensic_bytes == report.switch_discard_bytes,
                    || {
                        format!(
                            "forensic bytes {} (shed {}) != switch discards {}",
                            facts.forensic_bytes, facts.forensics_shed, report.switch_discard_bytes
                        )
                    },
                );
            }
            SimKind::BulkStream => {
                out.checks.check(report.switch_discard_bytes == 0, || {
                    format!("bulk_stream dropped {} bytes", report.switch_discard_bytes)
                });
                out.checks.check(report.conns_completed == self.conns, || {
                    format!(
                        "bulk_stream completed {} of {} connections",
                        report.conns_completed, self.conns
                    )
                });
            }
            SimKind::UdpFloor => {
                out.checks.check(report.switch_discard_bytes == 0, || {
                    format!("udp_floor dropped {} bytes", report.switch_discard_bytes)
                });
            }
            SimKind::FatTreeShuffle => {
                out.checks.check(
                    facts.tier_discard_bytes.iter().sum::<u64>() == report.switch_discard_bytes,
                    || {
                        format!(
                            "tier discards {:?} do not sum to {}",
                            facts.tier_discard_bytes, report.switch_discard_bytes
                        )
                    },
                );
            }
        }
        out.work = out.sim.ingress_bytes as f64 / 1e6;
        out.fingerprint = fp.finish();
        out
    }

    /// `fat_tree_shuffle` once more with the forensics blackbox attached:
    /// every dropped byte must be explained at the tier that dropped it.
    /// (The timed reps run detached, so the workload stays a pure
    /// data-plane measurement.)
    fn trace_checks(&mut self) -> Checks {
        let mut out = RepOutput::default();
        if self.kind == SimKind::FatTreeShuffle {
            let mut spec = self.spec.clone();
            spec.forensics = true;
            let mut off = Tracer::off();
            let (_sim, facts) = run_cell(&spec, 0, &mut off, false, &mut Fnv::default(), &mut out);
            out.checks.check(
                facts.forensics_shed == 0 && facts.forensic_tier_bytes == facts.tier_discard_bytes,
                || {
                    format!(
                        "per-tier forensic bytes {:?} (shed {}) != tier discards {:?}",
                        facts.forensic_tier_bytes, facts.forensics_shed, facts.tier_discard_bytes
                    )
                },
            );
        }
        out.checks
    }
}

/// A `Write` sink that only counts: the export cost without the disk.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub bytes: u64,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---- fleet_lake ------------------------------------------------------------------------------

/// A grid of tiny cells through the parallel runner into a lake, then
/// every lake report: runner, codec, shard append, compaction and
/// report cost are visible because each cell simulates for ~1 ms.
struct FleetLake {
    cells: Vec<api::FleetCell>,
    cfg: api::FleetConfig,
    dir: PathBuf,
}

impl FleetLake {
    fn new(p: &Params) -> Self {
        let seeds = p.scaled(2, 1);
        let grid = api::FleetGrid {
            servers: 8,
            buckets: 80,
            warmup: Ns::from_millis(10),
            seeds: (1..=seeds).map(|i| p.seed.wrapping_mul(1000) + i).collect(),
            alphas: vec![0.5, 1.0, 2.0, 4.0],
            placements: vec![
                api::PlacementKind::SingleVictim,
                api::PlacementKind::PairedVictims,
                api::PlacementKind::Spread,
            ],
            ccs: vec![CcAlgorithm::Dctcp, CcAlgorithm::Cubic],
            policies: vec![api::PolicyKind::DtAlpha, api::PolicyKind::FlexibleBounds],
            topos: vec![api::TopoPoint::SingleRack],
            connections: 200,
            total_bytes: 3_000_000,
            forensics: true,
        };
        let dir = p.scratch.join("fleet_lake");
        FleetLake {
            cells: api::grid_cells(&grid),
            cfg: api::FleetConfig {
                jobs: threads_used("fleet_lake"),
                link_bps: LINK,
                loss_slack: LOSS_SLACK,
                progress: false,
            },
            dir,
        }
    }

    /// Runs the grid into a fresh lake at `dir` with `jobs` workers and
    /// returns the FNV of every segment's bytes (file order).
    fn run_to_lake(
        &self,
        dir: &Path,
        jobs: usize,
    ) -> Result<(api::LakeManifest, u64), api::LakeError> {
        let _ = std::fs::remove_dir_all(dir);
        let writer = api::lake_writer(dir, api::LakeConfig::default())?;
        let cfg = api::FleetConfig {
            jobs,
            ..self.cfg.clone()
        };
        let manifest = api::run_fleet_to_lake(&self.cells, &cfg, &writer)?;
        let mut fp = Fnv::default();
        for e in &manifest.entries {
            fp.bytes(e.file.as_bytes());
            fp.bytes(&std::fs::read(dir.join(&e.file))?);
        }
        Ok((manifest, fp.finish()))
    }
}

impl Prepared for FleetLake {
    fn rep(&mut self, t: &mut Tracer, _traced: bool) -> RepOutput {
        let mut out = RepOutput::default();
        let mut fp = Fnv::default();
        let cells = self.cells.len() as u64;

        let s = t.enter("fleet.run_fleet_to_lake");
        let ran = self.run_to_lake(&self.dir, self.cfg.jobs);
        t.exit(s);
        let Ok((manifest, segments_fp)) = ran else {
            out.checks.check(false, || {
                format!("run_fleet_to_lake failed: {:?}", ran.err())
            });
            return out;
        };
        fp.u64(segments_fp);
        out.checks.attempted += cells;
        let lake_bytes: u64 = manifest.entries.iter().map(|e| e.bytes).sum();
        let lake_rows: u64 = manifest.entries.iter().map(|e| e.rows).sum();
        out.facts.push(("lake_bytes", lake_bytes as f64));
        out.facts.push(("lake_rows", lake_rows as f64));

        let s = t.enter("lake.open");
        let lake = api::lake_open(&self.dir);
        t.exit(s);
        match lake {
            Ok(lake) => {
                for (kind, span) in api::LAKE_REPORTS.iter().zip(REPORT_SPANS) {
                    let s = t.enter(span);
                    let text = api::lake_report(&lake, kind);
                    t.exit(s);
                    out.checks
                        .check(text.is_ok(), || format!("lake report {kind} failed"));
                    let text = text.unwrap_or_default();
                    fp.bytes(text.as_bytes());
                    if *kind == "outcomes" {
                        // One row per fleet cell; the second CSV field is its status.
                        let ok_rows = text
                            .lines()
                            .skip(1)
                            .filter(|l| l.split(',').nth(1) == Some("ok"))
                            .count();
                        out.checks.failed += cells.saturating_sub(ok_rows as u64);
                        if ok_rows as u64 != cells && out.checks.failures.len() < 8 {
                            out.checks
                                .failures
                                .push(format!("{ok_rows} of {cells} fleet cells ok"));
                        }
                    }
                }
            }
            Err(e) => out.checks.check(false, || format!("lake open failed: {e}")),
        }

        out.work = cells as f64;
        out.fingerprint = fp.finish();
        out
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Determinism across worker counts: the grid through one worker and
    /// through two must compact to byte-identical segments.
    fn trace_checks(&mut self) -> Checks {
        let mut checks = Checks::default();
        let fingerprints = [1, 2].map(|jobs| {
            let dir = self.dir.with_extension(format!("jobs{jobs}"));
            let fp = self.run_to_lake(&dir, jobs).map(|(_, fp)| fp);
            let _ = std::fs::remove_dir_all(&dir);
            fp.ok()
        });
        checks.check(
            fingerprints[0].is_some() && fingerprints[0] == fingerprints[1],
            || format!("segment bytes differ between jobs=1 and jobs=2: {fingerprints:x?}"),
        );
        checks
    }
}

/// Span names of the six lake reports, in [`api::LAKE_REPORTS`] order.
const REPORT_SPANS: [&str; 6] = [
    "lake.report.aggregate",
    "lake.report.outcomes",
    "lake.report.attribution",
    "lake.report.tiers",
    "lake.report.policy-compare",
    "lake.report.forensics",
];

// ---- lake_scan ----------------------------------------------------------------------------------

/// Lake reads at a size where chunk decode dominates. The corpus write
/// and compaction happen in set-up, so a read gain bought with a write
/// loss (or the reverse) shows as `setup_s` moving against `wall_s`.
struct LakeScan {
    dir: PathBuf,
    hosts: u32,
    buckets: usize,
    /// Σ in_bytes over the generated corpus, computed before it is written.
    checksum: u64,
}

/// Projection of every `lake_scan` query: slots 0, 1, 2.
const SCAN_COLS: [&str; 3] = ["host", "bucket", "in_bytes"];

impl LakeScan {
    const INTERVAL: Ns = Ns::from_millis(1000);
    const HOSTS: u32 = 48;

    fn new(p: &Params, t: &mut Tracer) -> Self {
        let buckets = p.scaled(43_200, 600) as usize;
        let dir = p.scratch.join("lake_scan");
        let _ = std::fs::remove_dir_all(&dir);
        let s = t.enter("lake.synth");
        let series = api::synth_diurnal_series(p.seed, Self::HOSTS, buckets, Self::INTERVAL);
        t.exit(s);
        let checksum = series
            .iter()
            .flat_map(|s| s.in_bytes.iter())
            .fold(0u64, |a, &v| a.wrapping_add(v));
        Self::write(&dir, p.seed, series, t).expect("lake_scan corpus write");
        LakeScan {
            dir,
            hosts: Self::HOSTS,
            buckets,
            checksum,
        }
    }

    fn write(
        dir: &Path,
        seed: u64,
        series: Vec<api::HostSeries>,
        t: &mut Tracer,
    ) -> Result<(), api::LakeError> {
        let writer = api::lake_writer(dir, api::LakeConfig::default())?;
        let s = t.enter("lake.shard_append");
        let mut shard = api::shard_writer(&writer, "synth")?;
        api::shard_append(
            &mut shard,
            &api::CellRows {
                cell: 0,
                label: format!("diurnal-s{seed}"),
                outcome: None,
                bursts: Vec::new(),
                series,
                forensics: Vec::new(),
            },
        )?;
        api::shard_finish(shard)?;
        t.exit(s);
        let s = t.enter("lake.compact");
        let compacted = api::lake_compact(&writer).map(|_| ());
        t.exit(s);
        compacted
    }

    /// Scans the `Series` table for rows whose [`SCAN_COLS`] slot
    /// `filter.0` lies in `filter.1..=filter.2` (all rows when `None`),
    /// with the same range pushed down to the chunk footers. Returns
    /// `(rows, Σ in_bytes, scan counters)`.
    fn scan(
        lake: &api::Lake,
        filter: Option<(usize, u64, u64)>,
    ) -> Result<(u64, u64, api::ScanStats), api::LakeError> {
        let projection =
            SCAN_COLS.map(|c| api::table_column(api::TableKind::Series, c).unwrap_or(0));
        let ranges = filter
            .map(|(slot, min, max)| api::ColumnRange {
                col: projection[slot],
                min,
                max,
            })
            .into_iter()
            .collect();
        let mut scan = api::table_scan(lake, api::TableKind::Series, &projection, ranges)?;
        let (mut rows, mut sum) = (0u64, 0u64);
        api::scan_rows(&mut scan, |cols, r| {
            // Pushdown prunes whole chunks; this row filter is exact.
            if filter.is_none_or(|(slot, min, max)| (min..=max).contains(&cols[slot][r])) {
                rows += 1;
                sum = sum.wrapping_add(cols[2][r]);
            }
        })?;
        Ok((rows, sum, api::scan_stats(&scan)))
    }
}

impl Prepared for LakeScan {
    fn rep(&mut self, t: &mut Tracer, _traced: bool) -> RepOutput {
        let mut out = RepOutput::default();
        let mut fp = Fnv::default();
        let total_rows = u64::from(self.hosts) * self.buckets as u64;

        let s = t.enter("lake.open");
        let lake = api::lake_open(&self.dir);
        t.exit(s);
        let lake = match lake {
            Ok(lake) => lake,
            Err(e) => {
                out.checks.check(false, || format!("lake open failed: {e}"));
                return out;
            }
        };

        // One hour out of the day (or what a scaled-down corpus has of it).
        let lo = (self.buckets / 2) as u64;
        let hi = (lo + 3600).min(self.buckets as u64) - 1;
        let queries = [
            ("lake.scan.full", None, total_rows),
            (
                "lake.scan.range",
                Some((1, lo, hi)),
                u64::from(self.hosts) * (hi - lo + 1),
            ),
            ("lake.scan.point", Some((0, 3, 3)), self.buckets as u64),
        ];
        for (span, filter, expect_rows) in queries {
            let s = t.enter(span);
            let result = Self::scan(&lake, filter);
            t.exit(s);
            let Ok((rows, sum, stats)) = result else {
                out.checks
                    .check(false, || format!("{span} failed: {:?}", result.err()));
                continue;
            };
            let sum_ok = filter.is_some() || sum == self.checksum;
            out.checks.check(rows == expect_rows && sum_ok, || {
                format!("{span}: {rows} rows (expected {expect_rows}), checksum ok: {sum_ok}")
            });
            fp.u64(rows);
            fp.u64(sum);
            fp.u64(stats.chunks_read);
            fp.u64(stats.chunks_skipped);
            match span {
                "lake.scan.full" => {
                    out.facts
                        .push(("peak_resident_rows", stats.peak_resident_rows as f64));
                }
                "lake.scan.range" => {
                    let chunks = (stats.chunks_read + stats.chunks_skipped).max(1);
                    out.facts.push(("range_rows", rows as f64));
                    out.facts.push((
                        "chunks_pruned_share",
                        stats.chunks_skipped as f64 / chunks as f64,
                    ));
                }
                _ => {}
            }
        }

        let s = t.enter("lake.verify");
        let (mut verified_rows, mut verified_bytes, mut verify_ok) = (0u64, 0u64, true);
        // One buffer sized for the largest segment: peak memory is one
        // segment, not whatever the allocator keeps of regrown ones.
        let mut bytes =
            Vec::with_capacity(api::largest_segment_bytes(&lake, api::TableKind::Series));
        for path in api::lake_segments(&lake, api::TableKind::Series) {
            bytes.clear();
            let rows = std::fs::File::open(&path)
                .and_then(|mut f| std::io::Read::read_to_end(&mut f, &mut bytes))
                .map_err(api::LakeError::from)
                .and_then(|n| {
                    verified_bytes += n as u64;
                    api::verify_segment_bytes(&bytes)
                });
            match rows {
                Ok(rows) => verified_rows += rows,
                Err(_) => verify_ok = false,
            }
        }
        t.exit(s);
        out.checks
            .check(verify_ok && verified_rows == total_rows, || {
                format!(
                    "verify_segment_bytes: ok={verify_ok}, {verified_rows} of {total_rows} rows"
                )
            });

        out.facts.push(("lake_bytes", verified_bytes as f64));
        out.facts.push(("lake_rows", total_rows as f64));
        out.work = total_rows as f64;
        out.fingerprint = fp.finish();
        out
    }
}

impl Drop for LakeScan {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
