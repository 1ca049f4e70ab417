//! The one place `perf` touches the repository's crates.
//!
//! Every type the benchmark names is re-exported here and every call it
//! measures or wraps in a span goes through a wrapper below — thin,
//! `#[inline]`, no logic — so when a refactor renames `rack_spec_for`,
//! `run_fleet_to_lake` or `TableScan::new`, this is the single file a
//! follow-up benchmark change has to touch (`tests/contract.rs` fails if
//! another module names a crate directly). Plain data construction —
//! struct literals and `ScenarioBuilder` setters on the re-exported
//! types — needs no wrapper.

use std::io::Write;
use std::path::{Path, PathBuf};

pub use millisampler::{AlignedRackRun, Direction, HostSeries, PacketMeta, RunConfig, TcFilter};
pub use ms_analysis::{RunAnalysis, RunOutcome};
pub use ms_dcsim::{
    Bps, BufferPolicySpec, Bytes, EventQueue, FlowId, Ns, Packet, PolicyKind, SharedBufferSwitch,
    SwitchConfig,
};
pub use ms_fleet::{FleetCell, FleetConfig, FleetGrid, FleetReport, PlacementKind, TopoPoint};
pub use ms_lake::{
    CellRows, ColumnRange, ColumnReader, ColumnWriter, Lake, LakeConfig, LakeError, LakeManifest,
    LakeWriter, ScanStats, ShardWriter, TableKind, TableScan,
};
pub use ms_sketch::FlowSketch;
pub use ms_telemetry::{
    DropCause, DropForensic, DropReason, ForensicStore, Histogram, TelemetryConfig, TraceBus,
    TraceEvent,
};
pub use ms_topo::{EcmpHash, FatTree, FatTreeOpts, NextHops, SwitchId};
pub use ms_transport::{CcAlgorithm, Receiver, Sender, SenderConfig};
pub use ms_workload::{
    Diurnal, FlowSpec, RackClass, RackSim, RackSimReport, RackSpec, RegionKind, RegionSpec,
    ScenarioBuilder, ScenarioConfig, ScenarioSpec, TopoFlowSpec, TopologySpec,
};

// ---- workload: regions, specs, simulations -------------------------------

#[inline]
pub fn build_region(kind: RegionKind, racks: usize, servers: usize, seed: u64) -> RegionSpec {
    ms_workload::placement::build_region(kind, racks, servers, seed)
}

#[inline]
pub fn rack_spec_for(
    rack: &RackSpec,
    diurnal: &Diurnal,
    hour: usize,
    run_idx: u64,
    cfg: &ScenarioConfig,
) -> ScenarioSpec {
    ms_workload::rack_spec_for(rack, diurnal, hour, run_idx, cfg)
}

#[inline]
pub fn spec_build(spec: &ScenarioSpec) -> RackSim {
    spec.build()
}

#[inline]
pub fn spec_encode(spec: &ScenarioSpec) -> Vec<u8> {
    spec.encode()
}

#[inline]
pub fn spec_decode(bytes: &[u8]) -> Option<ScenarioSpec> {
    ScenarioSpec::decode(bytes).ok()
}

#[inline]
pub fn run_sync_window(sim: &mut RackSim, rack_id: u32) -> RackSimReport {
    sim.run_sync_window(rack_id)
}

#[inline]
pub fn set_profile_clock(sim: &mut RackSim, clock: fn() -> u64) {
    sim.set_profile_clock(clock);
}

/// The engine profiler's JSON (`dispatch` counts, then `wall.by_kind`).
#[inline]
pub fn profile_json(sim: &RackSim) -> String {
    sim.profile().counts_json()
}

#[inline]
pub fn tier_discard_bytes(sim: &RackSim) -> [u64; 3] {
    sim.tier_discard_bytes()
}

// ---- telemetry attached to a simulation -----------------------------------

#[inline]
pub fn finalize_metrics(sim: &mut RackSim) {
    sim.finalize_metrics();
}

#[inline]
pub fn write_perfetto_trace<W: Write>(sim: &RackSim, w: &mut W) -> std::io::Result<()> {
    sim.write_perfetto_trace(w)
}

#[inline]
pub fn forensic_records(sim: &RackSim) -> Vec<DropForensic> {
    sim.telemetry()
        .map(|hub| hub.borrow().forensics.records().to_vec())
        .unwrap_or_default()
}

#[inline]
pub fn forensics_shed(sim: &RackSim) -> u64 {
    sim.telemetry()
        .map_or(0, |hub| hub.borrow().forensics.shed())
}

#[inline]
pub fn telemetry_gauge(sim: &RackSim, name: &str) -> Option<u64> {
    sim.telemetry().map(|hub| {
        let mut hub = hub.borrow_mut();
        let id = hub.metrics.gauge(name);
        hub.metrics.gauge_value(id)
    })
}

#[inline]
pub fn qid_tier(qid: u32) -> u8 {
    ms_telemetry::qid::qid_tier(qid)
}

pub const OFFSWITCH_QID: u32 = ms_telemetry::qid::OFFSWITCH_QID;

#[inline]
pub fn validate_json(text: &str) -> Result<(), String> {
    ms_telemetry::validate_json(text)
}

#[inline]
pub fn write_perfetto<W: Write>(w: &mut W, bus: &TraceBus) -> std::io::Result<()> {
    let meta = ms_telemetry::PerfettoMeta {
        process_name: String::from("perf"),
    };
    ms_telemetry::write_perfetto(w, bus, &meta)
}

// ---- analysis ----------------------------------------------------------------

#[inline]
pub fn analyze_run(run: &AlignedRackRun, link: Bps, loss_slack: usize) -> RunAnalysis {
    ms_analysis::analyze_run(run, link, loss_slack)
}

#[inline]
pub fn outcome_from(analysis: &RunAnalysis, report: &RackSimReport) -> RunOutcome {
    RunOutcome::from_analysis(
        analysis,
        report.switch_ingress_bytes,
        report.switch_discard_bytes,
        report.flows_started,
        report.conns_completed,
        report.events,
    )
}

#[inline]
pub fn outcome_encode(o: &RunOutcome) -> Vec<u8> {
    o.encode()
}

#[inline]
pub fn outcome_decode(bytes: &[u8]) -> Option<RunOutcome> {
    RunOutcome::decode(bytes).ok()
}

// ---- fleet ---------------------------------------------------------------------

#[inline]
pub fn grid_cells(grid: &FleetGrid) -> Vec<FleetCell> {
    grid.cells()
}

#[inline]
pub fn run_fleet(cells: &[FleetCell], cfg: &FleetConfig) -> FleetReport {
    ms_fleet::run_fleet(cells, cfg)
}

/// The merge step's two renderings of a finished report.
#[inline]
pub fn fleet_report_render(report: &FleetReport) -> (String, String) {
    (report.to_csv(), report.to_json())
}

#[inline]
pub fn run_fleet_to_lake(
    cells: &[FleetCell],
    cfg: &FleetConfig,
    writer: &LakeWriter,
) -> Result<LakeManifest, LakeError> {
    ms_fleet::run_fleet_to_lake(cells, cfg, writer)
}

// ---- lake ----------------------------------------------------------------------

#[inline]
pub fn lake_writer(dir: &Path, cfg: LakeConfig) -> Result<LakeWriter, LakeError> {
    LakeWriter::create(dir, cfg)
}

#[inline]
pub fn shard_writer(writer: &LakeWriter, name: &str) -> Result<ShardWriter, LakeError> {
    writer.shard_writer_named(name)
}

#[inline]
pub fn shard_append(shard: &mut ShardWriter, rows: &CellRows) -> Result<(), LakeError> {
    shard.append(rows)
}

#[inline]
pub fn shard_finish(shard: ShardWriter) -> Result<(), LakeError> {
    shard.finish()
}

#[inline]
pub fn lake_compact(writer: &LakeWriter) -> Result<LakeManifest, LakeError> {
    writer.compact()
}

#[inline]
pub fn lake_open(dir: &Path) -> Result<Lake, LakeError> {
    Lake::open(dir)
}

#[inline]
pub fn lake_segments(lake: &Lake, table: TableKind) -> Vec<PathBuf> {
    lake.segments(table)
}

/// Size of the largest segment file of `table`, from the manifest.
#[inline]
pub fn largest_segment_bytes(lake: &Lake, table: TableKind) -> usize {
    let entries = lake.manifest.entries.iter().filter(|e| e.table == table);
    entries.map(|e| e.bytes as usize).max().unwrap_or(0)
}

#[inline]
pub fn table_column(table: TableKind, name: &str) -> Option<usize> {
    table.column(name)
}

#[inline]
pub fn table_scan(
    lake: &Lake,
    table: TableKind,
    projection: &[usize],
    ranges: Vec<ColumnRange>,
) -> Result<TableScan, LakeError> {
    TableScan::new(lake, table, projection, ranges)
}

/// Drives `scan` to the end, calling `f(projected column values of one row)`.
#[inline]
pub fn scan_rows(
    scan: &mut TableScan,
    mut f: impl FnMut(&[Vec<u64>], usize),
) -> Result<(), LakeError> {
    ms_lake::for_each_row(scan, |batch, row| f(&batch.cols, row))
}

#[inline]
pub fn scan_stats(scan: &TableScan) -> ScanStats {
    scan.stats()
}

#[inline]
pub fn verify_segment_bytes(bytes: &[u8]) -> Result<u64, LakeError> {
    ms_lake::verify_segment_bytes(bytes)
}

/// The six `lake query --report` kinds, in the CLI's order.
pub const LAKE_REPORTS: [&str; 6] = [
    "aggregate",
    "outcomes",
    "attribution",
    "tiers",
    "policy-compare",
    "forensics",
];

/// One `lake query --report <kind>` as the CLI computes it.
pub fn lake_report(lake: &Lake, kind: &str) -> Result<String, LakeError> {
    match kind {
        "aggregate" => ms_lake::lake_sweep_aggregate(lake).map(|a| a.to_csv()),
        "outcomes" => ms_lake::outcomes_csv(lake),
        "attribution" => ms_lake::attribution_csv(lake),
        "tiers" => ms_lake::tiers_csv(lake),
        "policy-compare" => ms_lake::policy_compare_csv(lake),
        "forensics" => ms_lake::forensics_csv(lake),
        other => Err(LakeError::Invalid(format!("unknown report {other:?}"))),
    }
}

#[inline]
pub fn column_writer() -> ColumnWriter {
    ColumnWriter::new()
}

#[inline]
pub fn column_push(w: &mut ColumnWriter, v: u64) {
    w.push(v);
}

/// The encoded bytes of the writer's current chunk.
#[inline]
pub fn column_take_chunk(w: &mut ColumnWriter) -> Vec<u8> {
    w.take_chunk().0
}

#[inline]
pub fn column_reader(chunk: &[u8], rows: u64) -> ColumnReader<'_> {
    ColumnReader::new(chunk, rows)
}

#[inline]
pub fn column_next(r: &mut ColumnReader<'_>) -> Option<u64> {
    r.next().ok().flatten()
}

#[inline]
pub fn synth_diurnal_series(
    seed: u64,
    hosts: u32,
    buckets: usize,
    interval: Ns,
) -> Vec<HostSeries> {
    ms_lake::synth_diurnal_series(seed, hosts, buckets, interval)
}

// ---- millisampler / sketch ---------------------------------------------------------

#[inline]
pub fn series_encode(series: &HostSeries) -> Vec<u8> {
    millisampler::codec::encode(series)
}

#[inline]
pub fn series_decode(bytes: &[u8]) -> Option<HostSeries> {
    millisampler::codec::decode(bytes).ok()
}

#[inline]
pub fn mix64(h: u64) -> u64 {
    ms_sketch::mix64(h)
}

/// The deployment's 128-bit flow sketch.
#[inline]
pub fn flow_sketch() -> FlowSketch<2> {
    FlowSketch::new()
}

#[inline]
pub fn sketch_insert(s: &mut FlowSketch<2>, flow_hash: u64) {
    s.insert(flow_hash);
}

#[inline]
pub fn sketch_estimate(s: &FlowSketch<2>) -> f64 {
    s.estimate()
}

/// An attached, enabled filter ready to record.
#[inline]
pub fn filter_enabled(cfg: &RunConfig, cpus: usize) -> TcFilter {
    let mut f = TcFilter::new(cfg, cpus);
    f.attach();
    f.enable();
    f
}

/// An attached filter that is not collecting (the early-return path).
#[inline]
pub fn filter_disabled(cfg: &RunConfig, cpus: usize) -> TcFilter {
    let mut f = TcFilter::new(cfg, cpus);
    f.attach();
    f
}

#[inline]
pub fn filter_record(f: &mut TcFilter, cpu: usize, now: Ns, meta: &PacketMeta) {
    f.record(cpu, now, meta);
}

/// Re-arms a filter whose run window closed itself.
#[inline]
pub fn filter_rearm(f: &mut TcFilter) {
    if f.state() != millisampler::FilterState::Enabled {
        f.enable();
    }
}

#[inline]
pub fn filter_read(f: &TcFilter, host: u32) -> Option<HostSeries> {
    f.read(host)
}

// ---- dcsim -----------------------------------------------------------------------------

#[inline]
pub fn event_queue<E>() -> EventQueue<E> {
    EventQueue::new()
}

#[inline]
pub fn queue_schedule<E>(q: &mut EventQueue<E>, at: Ns, ev: E) {
    q.schedule(at, ev);
}

#[inline]
pub fn queue_pop<E>(q: &mut EventQueue<E>) -> Option<(Ns, E)> {
    q.pop()
}

/// The paper's ToR (§3) with `queues` egress queues under `policy`.
#[inline]
pub fn tor_switch(queues: usize, policy: BufferPolicySpec) -> SharedBufferSwitch {
    let mut cfg = SwitchConfig::meta_tor(queues);
    cfg.policy = policy;
    SharedBufferSwitch::new(cfg)
}

#[inline]
pub fn policy_spec(kind: PolicyKind, alpha: f64) -> BufferPolicySpec {
    kind.spec_with_alpha(alpha)
}

pub const POLICY_KINDS: [PolicyKind; 5] = PolicyKind::ALL;

#[inline]
pub fn policy_label(kind: PolicyKind) -> &'static str {
    kind.label()
}

/// Offers `pkt` to `queue`; true when admitted.
#[inline]
pub fn switch_try_enqueue(sw: &mut SharedBufferSwitch, queue: usize, pkt: Packet, now: Ns) -> bool {
    sw.try_enqueue(queue, pkt, now).accepted()
}

#[inline]
pub fn switch_dequeue(sw: &mut SharedBufferSwitch, queue: usize, now: Ns) -> Option<Packet> {
    sw.dequeue(queue, now)
}

#[inline]
pub fn ack_packet(flow: u64, ack_seq: u64) -> Packet {
    Packet::ack(FlowId(flow), 0, 100, ack_seq, 0)
}

#[inline]
pub fn data_packet(flow: u64, src: u32, dst: u32, seq: u64, size: u32) -> Packet {
    Packet::data(FlowId(flow), src, dst, seq, size)
}

// ---- transport ---------------------------------------------------------------------------

#[inline]
pub fn sender_new(flow: u64, algorithm: CcAlgorithm, mss: u32) -> Sender {
    let cfg = SenderConfig {
        mss,
        algorithm,
        ..SenderConfig::default()
    };
    Sender::new(FlowId(flow), 100, 0, &cfg)
}

#[inline]
pub fn sender_push(s: &mut Sender, bytes: u64) {
    s.push(bytes);
}

#[inline]
pub fn sender_poll_send(s: &mut Sender, now: Ns) -> Vec<Packet> {
    s.poll_send(now)
}

#[inline]
pub fn sender_on_ack(s: &mut Sender, now: Ns, ack: &Packet) -> Vec<Packet> {
    s.on_ack(now, ack)
}

#[inline]
pub fn sender_on_timer(s: &mut Sender, now: Ns) -> Vec<Packet> {
    s.on_timer(now)
}

#[inline]
pub fn receiver_new(flow: u64) -> Receiver {
    Receiver::new(FlowId(flow), 0, 100)
}

#[inline]
pub fn receiver_on_data(r: &mut Receiver, now: Ns, pkt: &Packet) -> Option<Packet> {
    r.on_data(now, pkt)
}

#[inline]
pub fn receiver_on_timer(r: &mut Receiver, now: Ns) -> Option<Packet> {
    r.on_timer(now)
}

// ---- telemetry primitives -------------------------------------------------------------------

#[inline]
pub fn trace_bus(capacity: usize) -> TraceBus {
    TraceBus::with_capacity(capacity)
}

#[inline]
pub fn histogram() -> Histogram {
    Histogram::new()
}

#[inline]
pub fn forensic_store(capacity: usize) -> ForensicStore {
    ForensicStore::with_capacity(capacity)
}

#[inline]
pub fn bus_record(bus: &mut TraceBus, ev: TraceEvent) {
    bus.record(ev);
}

#[inline]
pub fn hist_record(h: &mut Histogram, v: u64) {
    h.record(v);
}

#[inline]
pub fn forensic_record(store: &mut ForensicStore, f: DropForensic) {
    store.record(f);
}

// ---- topo --------------------------------------------------------------------------------------

#[inline]
pub fn fat_tree(opts: FatTreeOpts) -> FatTree {
    FatTree::new(opts)
}

#[inline]
pub fn tree_tor_of(tree: &FatTree, host: u32) -> SwitchId {
    tree.tor_of(host)
}

#[inline]
pub fn tree_route(tree: &FatTree, sw: SwitchId, dst: u32) -> NextHops {
    tree.route(sw, dst)
}

#[inline]
pub fn ecmp_hash(seed: u64) -> EcmpHash {
    EcmpHash::new(seed)
}

#[inline]
pub fn ecmp_pick(h: &EcmpHash, flow: u64, src: u64, dst: u64, salt: u64, n: u32) -> u32 {
    h.pick(flow, src, dst, salt, n)
}
