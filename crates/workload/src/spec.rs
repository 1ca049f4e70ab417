//! Declarative scenario construction: [`ScenarioSpec`] and
//! [`ScenarioBuilder`].
//!
//! [`ScenarioSpec`] is the only configuration of a simulation: one
//! **declarative, cloneable, codec-serializable description** of
//! everything a rack simulation can contain, so a scenario can be named,
//! cloned, hashed and shipped across a thread boundary — exactly what a
//! fleet-scale sweep needs to do:
//!
//! ```
//! use ms_dcsim::Ns;
//! use ms_workload::{FlowSpec, ScenarioBuilder};
//! use ms_transport::CcAlgorithm;
//!
//! let mut b = ScenarioBuilder::new(8, /* seed */ 1);
//! b.buckets(300)
//!     .warmup(Ns::from_millis(20))
//!     .flow_at(
//!         Ns::from_millis(50),
//!         FlowSpec {
//!             dst_server: 3,
//!             connections: 40,
//!             total_bytes: 4_000_000,
//!             algorithm: CcAlgorithm::Dctcp,
//!             paced_bps: None,
//!             task: 1,
//!         },
//!     );
//! let report = b.build().run_sync_window(0);
//! assert!(report.flows_started > 0);
//! ```
//!
//! [`ScenarioSpec::build`] — [`ScenarioSpec::validate`], then the one
//! [`RackSim`] constructor, which reads the spec directly — is the only
//! way to construct a simulation; there is no second config layer.
//! Because a spec is plain data, the `ms-fleet` sweep runner can fan a
//! grid of specs across worker threads and rebuild each simulation
//! inside the worker, keeping every run bit-deterministic.

use crate::sim::{FabricHopConfig, GroConfig, RackSim, TopologySpec};
use crate::tasks::{FlowSpec, MlPhase, TaskKind, TopoFlowSpec};
use millisampler::codec::{DecodeError, WireReader, WireWriter};
use millisampler::{RunConfig, SchedulerConfig};
use ms_dcsim::{Bps, BufferPolicySpec, Bytes, Ns, PolicyKind};
use ms_telemetry::TelemetryConfig;
use ms_topo::{FatTree, FatTreeOpts};
use ms_transport::CcAlgorithm;

/// A flow group scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFlow {
    /// When the connections start.
    pub at: Ns,
    /// What they deliver.
    pub flow: FlowSpec,
}

/// A host-to-host fat-tree flow group scheduled at an absolute time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTopoFlow {
    /// When the connections start.
    pub at: Ns,
    /// What they deliver, between which region hosts.
    pub flow: TopoFlowSpec,
}

/// A generative traffic program bound to one server (declarative form of
/// [`crate::tasks::TaskGen`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenSpec {
    /// Service archetype.
    pub kind: TaskKind,
    /// Destination server.
    pub server: usize,
    /// Task identity (placement diagnostics).
    pub task: u64,
    /// Load multiplier (diurnal × rack factors).
    pub load: f64,
    /// Seed of the generator's private random stream.
    pub seed: u64,
    /// Rack-shared step clock (required iff `kind` is `MlTrainer`).
    pub ml_phase: Option<MlPhase>,
}

/// NIC-level random drop injection on one server (§4.2 firmware-bug
/// signature).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicDropSpec {
    /// Faulty server.
    pub server: usize,
    /// Seed of the drop decision stream.
    pub seed: u64,
    /// Per-packet drop probability in `[0, 1]`.
    pub probability: f64,
}

/// A kernel/NIC stall window on one server (§4.6 sampler blackout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// Stalled server.
    pub server: usize,
    /// Stall start (inclusive).
    pub from: Ns,
    /// Stall end (exclusive).
    pub to: Ns,
}

/// Persistent-connection keepalive chatter on one server (Fig. 8's
/// outside-burst connection floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChatterSpec {
    /// Chattering server.
    pub server: usize,
    /// Standing pool of long-lived connections.
    pub pool: u64,
    /// Mean keepalive packets per second across the pool.
    pub pkts_per_sec: u64,
}

/// A paced multicast burst (Fig. 3 validation tooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McastBurstSpec {
    /// When the burst starts.
    pub at: Ns,
    /// Multicast group id.
    pub group: u32,
    /// Datagrams in the burst.
    pub packets: u32,
    /// Bytes per datagram.
    pub size: u32,
    /// Rate limit (multicast is rate limited in production, §4.5).
    pub paced_bps: Bps,
}

/// A §4.1 user-space agent running periodic Millisampler collection on
/// one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentSpec {
    /// Host running the agent.
    pub server: usize,
    /// Run period and interval rotation.
    pub config: SchedulerConfig,
}

/// The complete declarative description of one rack simulation.
///
/// Everything a simulation can contain is a field here; the
/// struct is `Clone`, comparable, and serializable via
/// [`millisampler::codec`] ([`ScenarioSpec::encode`]), so sweeps can
/// name, store, and ship scenarios. [`ScenarioSpec::build`] materializes
/// a ready-to-run [`RackSim`]; identical specs always build simulations
/// with bit-identical behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Servers in the rack.
    pub num_servers: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Millisampler run configuration for the sync window.
    pub sampler: RunConfig,
    /// MSS used by transports.
    pub mss: u32,
    /// Traffic warm-up before samplers enable.
    pub warmup: Ns,
    /// Maximum absolute host clock offset (uniform in ±this).
    pub max_clock_skew: Ns,
    /// Buffer sharing policy of the ToR (parameters, like the DT α,
    /// ride in the variant).
    pub policy: BufferPolicySpec,
    /// ECN marking threshold override (None = the deployed 120 KB
    /// default).
    pub ecn_threshold: Option<Bytes>,
    /// Receive-side coalescing (§4.6 artifact study).
    pub gro: Option<GroConfig>,
    /// Network plane in front of the hosts: a single abstract trunk
    /// (§8.1 ablation) or a full k-ary fat tree ([`TopologySpec`]).
    pub topology: Option<TopologySpec>,
    /// Contention-driven DT α retuning period (§9 probe).
    pub alpha_tune_period: Option<Ns>,
    /// Pacing applied to flows without their own (§8.1 fabric smoothing).
    pub fabric_smoothing_bps: Option<Bps>,
    /// Attach a telemetry hub with this trace-ring capacity.
    pub telemetry_ring: Option<usize>,
    /// Flow groups scheduled at absolute times.
    pub flows: Vec<ScheduledFlow>,
    /// Host-to-host flow groups routed through a fat-tree topology.
    pub topo_flows: Vec<ScheduledTopoFlow>,
    /// Generative traffic programs.
    pub generators: Vec<GenSpec>,
    /// NIC-level drop injectors.
    pub nic_drops: Vec<NicDropSpec>,
    /// Kernel/NIC stall windows.
    pub stalls: Vec<StallSpec>,
    /// Keepalive chatter per server.
    pub chatter: Vec<ChatterSpec>,
    /// Multicast subscriptions: `(group, member server)`.
    pub mcast_members: Vec<(u32, usize)>,
    /// Paced multicast bursts.
    pub mcast_bursts: Vec<McastBurstSpec>,
    /// User-space collection agents.
    pub agents: Vec<AgentSpec>,
    /// Capture a classified [`ms_telemetry::DropForensic`] for every drop
    /// (attaches a telemetry hub even without `telemetry_ring`).
    pub forensics: bool,
}

/// Spec magic. `MSS1` carried a list of depth-probed queues in its fixed
/// prefix; it is refused as [`DecodeError::BadMagic`] rather than
/// misread.
const SPEC_MAGIC: &[u8; 4] = b"MSS2";

/// Terminates the trailing tagged-section list.
const SECTION_END: u64 = 0;
/// Tagged section carrying the [`TopologySpec`].
const SECTION_TOPOLOGY: u64 = 1;
/// Tagged section carrying the scheduled topo flows.
const SECTION_TOPO_FLOWS: u64 = 2;

/// Longest list the codec decodes, and so the widest rack and the
/// longest sampler window [`ScenarioSpec::validate`] lets through: a
/// spec from outside bytes must not size an allocation beyond it.
pub const MAX_LIST_LEN: u64 = 1 << 20;

impl ScenarioSpec {
    /// Paper-like defaults on a rack of `num_servers`: 12.5 Gbps links,
    /// the 16 MB / α=1 / 120 KB-ECN ToR, 1 ms × 2000 sampler buckets,
    /// ±300 µs NTP skew, 150 ms warm-up, and no workload attached.
    pub fn new(num_servers: usize, seed: u64) -> Self {
        ScenarioSpec {
            num_servers,
            seed,
            sampler: RunConfig::one_ms(),
            mss: 1500,
            warmup: Ns::from_millis(150),
            // NTP with interleaved mode achieves sub-ms sync (§4.5).
            max_clock_skew: Ns::from_micros(300),
            policy: BufferPolicySpec::DEFAULT_DT,
            ecn_threshold: None,
            gro: None,
            topology: None,
            alpha_tune_period: None,
            fabric_smoothing_bps: None,
            telemetry_ring: None,
            flows: Vec::new(),
            topo_flows: Vec::new(),
            generators: Vec::new(),
            nic_drops: Vec::new(),
            stalls: Vec::new(),
            chatter: Vec::new(),
            mcast_members: Vec::new(),
            mcast_bursts: Vec::new(),
            agents: Vec::new(),
            forensics: false,
        }
    }

    /// Panics with a precise message if the spec is internally
    /// inconsistent. Called by [`ScenarioSpec::build`]; the fleet runner
    /// converts the panic into a captured per-shard failure instead of
    /// tearing down the sweep.
    pub fn validate(&self) {
        assert!(self.num_servers > 0, "scenario: rack has no servers");
        assert!(
            self.num_servers as u64 <= MAX_LIST_LEN,
            "scenario: num_servers {} exceeds {MAX_LIST_LEN}",
            self.num_servers
        );
        // Every sampler window a filter will be sized and indexed by.
        let window = |what: &str, run: &RunConfig| {
            assert!(run.buckets > 0, "scenario: {what} has no buckets");
            assert!(
                run.buckets as u64 <= MAX_LIST_LEN,
                "scenario: {what}.buckets {} exceeds {MAX_LIST_LEN}",
                run.buckets
            );
            assert!(
                run.interval > Ns::ZERO,
                "scenario: {what}.interval must be positive"
            );
        };
        window("sampler", &self.sampler);
        assert!(self.mss > 0, "scenario: mss must be positive");
        assert!(
            self.alpha_tune_period != Some(Ns::ZERO),
            "scenario: alpha_tune_period must be positive"
        );
        let check = |what: &str, server: usize| {
            assert!(
                server < self.num_servers,
                "scenario: {what} targets server {server}, out of range for {} servers",
                self.num_servers
            );
        };
        for f in &self.flows {
            check("flow", f.flow.dst_server);
        }
        for g in &self.generators {
            check("generator", g.server);
            assert!(g.load > 0.0, "scenario: generator load must be positive");
            assert!(
                g.kind != TaskKind::MlTrainer || g.ml_phase.is_some(),
                "scenario: MlTrainer generator on server {} needs an ml_phase",
                g.server
            );
        }
        for d in &self.nic_drops {
            check("nic-drop injector", d.server);
            assert!(
                (0.0..=1.0).contains(&d.probability),
                "scenario: drop probability {} outside [0, 1]",
                d.probability
            );
        }
        for s in &self.stalls {
            check("stall", s.server);
        }
        for c in &self.chatter {
            check("chatter", c.server);
            assert!(
                c.pool > 0 && c.pkts_per_sec > 0,
                "scenario: chatter pool and rate must be positive"
            );
        }
        for &(_, server) in &self.mcast_members {
            check("multicast member", server);
        }
        for a in &self.agents {
            check("agent", a.server);
            for run in &a.config.rotation {
                window("agent rotation", run);
            }
        }
        if let Some(TopologySpec::FatTree { opts, .. }) = self.topology {
            opts.validate();
            let hosts = FatTree::new(opts).num_hosts() as usize;
            assert!(
                self.num_servers == hosts,
                "scenario: a k={} fat tree has {hosts} hosts but the rack \
                 declares {} servers",
                opts.k,
                self.num_servers
            );
            // Single-rack machinery addresses abstract senders and ToR
            // queues that do not exist in a fat tree; rather than let
            // them half-work, the combinations are rejected outright.
            let forbid = |what: &str, present: bool| {
                assert!(
                    !present,
                    "scenario: {what} is single-rack machinery and cannot \
                     be combined with a fat-tree topology (use topo_flow_at)"
                );
            };
            forbid("flow_at", !self.flows.is_empty());
            forbid("generator", !self.generators.is_empty());
            forbid("chatter", !self.chatter.is_empty());
            forbid("multicast membership", !self.mcast_members.is_empty());
            forbid("multicast burst", !self.mcast_bursts.is_empty());
            forbid("alpha_tune_period", self.alpha_tune_period.is_some());
        }
        if !self.topo_flows.is_empty() {
            let hosts = match self.topology {
                Some(TopologySpec::FatTree { opts, .. }) => FatTree::new(opts).num_hosts(),
                _ => panic!("scenario: topo flows require a fat-tree topology"),
            };
            for f in &self.topo_flows {
                assert!(
                    f.flow.src_host < hosts && f.flow.dst_host < hosts,
                    "scenario: topo flow {} -> {} outside the {hosts}-host tree",
                    f.flow.src_host,
                    f.flow.dst_host
                );
                assert!(
                    f.flow.src_host != f.flow.dst_host,
                    "scenario: topo flow from host {} to itself",
                    f.flow.src_host
                );
            }
        }
    }

    /// Materializes the simulation this spec describes: validates, then
    /// hands the spec to the one [`RackSim`] constructor, which applies
    /// the lists in field order — identical specs yield bit-identical
    /// runs.
    pub fn build(&self) -> RackSim {
        self.validate();
        RackSim::new(self)
    }

    /// Canonical codec encoding (see [`millisampler::codec`]): identical
    /// specs always encode to identical bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_magic(SPEC_MAGIC);
        w.u64(self.num_servers as u64);
        w.u64(self.seed);
        w.u64(self.sampler.interval.as_nanos());
        w.u64(self.sampler.buckets as u64);
        w.bool(self.sampler.count_flows);
        w.u64(u64::from(self.mss));
        w.u64(self.warmup.as_nanos());
        w.u64(self.max_clock_skew.as_nanos());
        encode_policy(&mut w, self.policy);
        opt_u64(&mut w, self.ecn_threshold.map(Bytes::as_u64));
        match self.gro {
            Some(g) => {
                w.bool(true);
                w.u64(u64::from(g.max_bytes));
                w.u64(g.timeout.as_nanos());
            }
            None => w.bool(false),
        }
        opt_u64(&mut w, self.alpha_tune_period.map(Ns::as_nanos));
        opt_u64(&mut w, self.fabric_smoothing_bps.map(Bps::as_u64));
        opt_u64(&mut w, self.telemetry_ring.map(|r| r as u64));
        w.u64(self.flows.len() as u64);
        for f in &self.flows {
            w.u64(f.at.as_nanos());
            w.u64(f.flow.dst_server as u64);
            w.u64(u64::from(f.flow.connections));
            w.u64(f.flow.total_bytes);
            w.u64(f.flow.algorithm.code());
            opt_u64(&mut w, f.flow.paced_bps.map(Bps::as_u64));
            w.u64(f.flow.task);
        }
        w.u64(self.generators.len() as u64);
        for g in &self.generators {
            w.u64(task_tag(g.kind));
            w.u64(g.server as u64);
            w.u64(g.task);
            w.f64(g.load);
            w.u64(g.seed);
            match g.ml_phase {
                Some(p) => {
                    w.bool(true);
                    w.u64(p.period.as_nanos());
                    w.u64(p.phase.as_nanos());
                }
                None => w.bool(false),
            }
        }
        w.u64(self.nic_drops.len() as u64);
        for d in &self.nic_drops {
            w.u64(d.server as u64);
            w.u64(d.seed);
            w.f64(d.probability);
        }
        w.u64(self.stalls.len() as u64);
        for s in &self.stalls {
            w.u64(s.server as u64);
            w.u64(s.from.as_nanos());
            w.u64(s.to.as_nanos());
        }
        w.u64(self.chatter.len() as u64);
        for c in &self.chatter {
            w.u64(c.server as u64);
            w.u64(c.pool);
            w.u64(c.pkts_per_sec);
        }
        w.u64(self.mcast_members.len() as u64);
        for &(group, server) in &self.mcast_members {
            w.u64(u64::from(group));
            w.u64(server as u64);
        }
        w.u64(self.mcast_bursts.len() as u64);
        for b in &self.mcast_bursts {
            w.u64(b.at.as_nanos());
            w.u64(u64::from(b.group));
            w.u64(u64::from(b.packets));
            w.u64(u64::from(b.size));
            w.u64(b.paced_bps.as_u64());
        }
        w.u64(self.agents.len() as u64);
        for a in &self.agents {
            w.u64(a.server as u64);
            w.u64(a.config.period.as_nanos());
            w.u64(a.config.rotation.len() as u64);
            for r in &a.config.rotation {
                w.u64(r.interval.as_nanos());
                w.u64(r.buckets as u64);
                w.bool(r.count_flows);
            }
        }
        w.bool(self.forensics);
        // Optional trailing sections, each introduced by a tag so new
        // spec features extend the wire format without renumbering the
        // fixed prefix; SECTION_END terminates the list.
        if let Some(t) = self.topology {
            w.u64(SECTION_TOPOLOGY);
            encode_topology(&mut w, t);
        }
        if !self.topo_flows.is_empty() {
            w.u64(SECTION_TOPO_FLOWS);
            w.u64(self.topo_flows.len() as u64);
            for f in &self.topo_flows {
                w.u64(f.at.as_nanos());
                w.u64(u64::from(f.flow.src_host));
                w.u64(u64::from(f.flow.dst_host));
                w.u64(u64::from(f.flow.connections));
                w.u64(f.flow.total_bytes);
                w.u64(f.flow.algorithm.code());
                opt_u64(&mut w, f.flow.paced_bps.map(Bps::as_u64));
                w.u64(f.flow.task);
            }
        }
        w.u64(SECTION_END);
        w.finish()
    }

    /// Decodes a spec previously produced by [`ScenarioSpec::encode`].
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(data);
        r.expect_magic(SPEC_MAGIC)?;
        let num_servers = r.u64()? as usize;
        let seed = r.u64()?;
        let sampler = RunConfig {
            interval: Ns(r.u64()?),
            buckets: r.u64()? as usize,
            count_flows: r.bool()?,
        };
        let mss = r.u32()?;
        let warmup = Ns(r.u64()?);
        let max_clock_skew = Ns(r.u64()?);
        let policy = decode_policy(&mut r)?;
        let ecn_threshold = opt_u64_from(&mut r)?.map(Bytes);
        let gro = if r.bool()? {
            Some(GroConfig {
                max_bytes: r.u32()?,
                timeout: Ns(r.u64()?),
            })
        } else {
            None
        };
        let alpha_tune_period = opt_u64_from(&mut r)?.map(Ns);
        let fabric_smoothing_bps = opt_u64_from(&mut r)?.map(Bps);
        let telemetry_ring = opt_u64_from(&mut r)?.map(|v| v as usize);
        let mut flows = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            flows.push(ScheduledFlow {
                at: Ns(r.u64()?),
                flow: FlowSpec {
                    dst_server: r.u64()? as usize,
                    connections: r.u32()?,
                    total_bytes: r.u64()?,
                    algorithm: CcAlgorithm::from_code(r.u64()?).ok_or(DecodeError::OutOfRange)?,
                    paced_bps: opt_u64_from(&mut r)?.map(Bps),
                    task: r.u64()?,
                },
            });
        }
        let mut generators = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            let kind = task_from(r.u64()?)?;
            let server = r.u64()? as usize;
            let task = r.u64()?;
            let load = r.f64()?;
            let g_seed = r.u64()?;
            let ml_phase = if r.bool()? {
                Some(MlPhase {
                    period: Ns(r.u64()?),
                    phase: Ns(r.u64()?),
                })
            } else {
                None
            };
            generators.push(GenSpec {
                kind,
                server,
                task,
                load,
                seed: g_seed,
                ml_phase,
            });
        }
        let mut nic_drops = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            nic_drops.push(NicDropSpec {
                server: r.u64()? as usize,
                seed: r.u64()?,
                probability: r.f64()?,
            });
        }
        let mut stalls = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            stalls.push(StallSpec {
                server: r.u64()? as usize,
                from: Ns(r.u64()?),
                to: Ns(r.u64()?),
            });
        }
        let mut chatter = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            chatter.push(ChatterSpec {
                server: r.u64()? as usize,
                pool: r.u64()?,
                pkts_per_sec: r.u64()?,
            });
        }
        let mut mcast_members = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            mcast_members.push((r.u32()?, r.u64()? as usize));
        }
        let mut mcast_bursts = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            mcast_bursts.push(McastBurstSpec {
                at: Ns(r.u64()?),
                group: r.u32()?,
                packets: r.u32()?,
                size: r.u32()?,
                paced_bps: Bps(r.u64()?),
            });
        }
        let mut agents = Vec::new();
        for _ in 0..bounded_len(&mut r)? {
            let server = r.u64()? as usize;
            let period = Ns(r.u64()?);
            let mut rotation = Vec::new();
            for _ in 0..bounded_len(&mut r)? {
                rotation.push(RunConfig {
                    interval: Ns(r.u64()?),
                    buckets: r.u64()? as usize,
                    count_flows: r.bool()?,
                });
            }
            agents.push(AgentSpec {
                server,
                config: SchedulerConfig { period, rotation },
            });
        }
        let forensics = r.bool()?;
        let mut topology = None;
        let mut topo_flows = Vec::new();
        loop {
            match r.u64()? {
                SECTION_END => break,
                SECTION_TOPOLOGY => topology = Some(decode_topology(&mut r)?),
                SECTION_TOPO_FLOWS => {
                    for _ in 0..bounded_len(&mut r)? {
                        topo_flows.push(ScheduledTopoFlow {
                            at: Ns(r.u64()?),
                            flow: TopoFlowSpec {
                                src_host: r.u32()?,
                                dst_host: r.u32()?,
                                connections: r.u32()?,
                                total_bytes: r.u64()?,
                                algorithm: CcAlgorithm::from_code(r.u64()?)
                                    .ok_or(DecodeError::OutOfRange)?,
                                paced_bps: opt_u64_from(&mut r)?.map(Bps),
                                task: r.u64()?,
                            },
                        });
                    }
                }
                _ => return Err(DecodeError::OutOfRange),
            }
        }
        r.expect_end()?;
        Ok(ScenarioSpec {
            num_servers,
            seed,
            sampler,
            mss,
            warmup,
            max_clock_skew,
            policy,
            ecn_threshold,
            gro,
            topology,
            alpha_tune_period,
            fabric_smoothing_bps,
            telemetry_ring,
            flows,
            topo_flows,
            generators,
            nic_drops,
            stalls,
            chatter,
            mcast_members,
            mcast_bursts,
            agents,
            forensics,
        })
    }
}

fn opt_u64(w: &mut WireWriter, v: Option<u64>) {
    match v {
        Some(v) => {
            w.bool(true);
            w.u64(v);
        }
        None => w.bool(false),
    }
}

fn opt_u64_from(r: &mut WireReader<'_>) -> Result<Option<u64>, DecodeError> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

/// List lengths are capped so corrupt headers cannot trigger huge
/// allocations (the same guard the host-series decoder applies).
fn bounded_len(r: &mut WireReader<'_>) -> Result<u64, DecodeError> {
    let len = r.u64()?;
    if len > MAX_LIST_LEN {
        return Err(DecodeError::OutOfRange);
    }
    Ok(len)
}

/// Policy wire layout: the [`PolicyKind`] code, then the variant's own
/// parameters (DT: α as f64; delay-driven: target ns and drain Bps as
/// u64s; the parameter-free kinds carry nothing).
fn encode_policy(w: &mut WireWriter, p: BufferPolicySpec) {
    w.u64(p.kind().code());
    match p {
        BufferPolicySpec::DtAlpha { alpha } => w.f64(alpha),
        BufferPolicySpec::DelayDriven { target, drain } => {
            w.u64(target.as_nanos());
            w.u64(drain.as_u64());
        }
        BufferPolicySpec::CompleteSharing
        | BufferPolicySpec::StaticPartition
        | BufferPolicySpec::FlexibleBounds => {}
    }
}

fn decode_policy(r: &mut WireReader<'_>) -> Result<BufferPolicySpec, DecodeError> {
    let kind = PolicyKind::from_code(r.u64()?).ok_or(DecodeError::OutOfRange)?;
    Ok(match kind {
        PolicyKind::DtAlpha => BufferPolicySpec::DtAlpha { alpha: r.f64()? },
        PolicyKind::CompleteSharing => BufferPolicySpec::CompleteSharing,
        PolicyKind::StaticPartition => BufferPolicySpec::StaticPartition,
        PolicyKind::FlexibleBounds => BufferPolicySpec::FlexibleBounds,
        PolicyKind::DelayDriven => BufferPolicySpec::DelayDriven {
            target: Ns(r.u64()?),
            drain: Bps(r.u64()?),
        },
    })
}

/// Topology wire layout: a variant tag (0 = trunk, 1 = fat tree), then
/// the variant's parameters; unknown variants are a decode error.
fn encode_topology(w: &mut WireWriter, t: TopologySpec) {
    match t {
        TopologySpec::Trunk(f) => {
            w.u64(0);
            w.u64(f.rate_bps.as_u64());
            w.u64(f.buffer_bytes.as_u64());
        }
        TopologySpec::FatTree { opts, ecmp_seed } => {
            w.u64(1);
            w.u64(u64::from(opts.k));
            w.u64(opts.link_gbps);
            w.u64(opts.link_latency_ns);
            w.u64(opts.buffer_bytes.as_u64());
            encode_policy(w, opts.policy);
            w.u64(ecmp_seed);
        }
    }
}

fn decode_topology(r: &mut WireReader<'_>) -> Result<TopologySpec, DecodeError> {
    match r.u64()? {
        0 => Ok(TopologySpec::Trunk(FabricHopConfig {
            rate_bps: Bps(r.u64()?),
            buffer_bytes: Bytes(r.u64()?),
        })),
        1 => {
            let opts = FatTreeOpts {
                k: r.u32()?,
                link_gbps: r.u64()?,
                link_latency_ns: r.u64()?,
                buffer_bytes: Bytes(r.u64()?),
                policy: decode_policy(r)?,
            };
            let ecmp_seed = r.u64()?;
            Ok(TopologySpec::FatTree { opts, ecmp_seed })
        }
        _ => Err(DecodeError::OutOfRange),
    }
}

fn task_tag(k: TaskKind) -> u64 {
    match k {
        TaskKind::Web => 0,
        TaskKind::CacheFollower => 1,
        TaskKind::MlTrainer => 2,
        TaskKind::Batch => 3,
        TaskKind::Background => 4,
    }
}

fn task_from(tag: u64) -> Result<TaskKind, DecodeError> {
    match tag {
        0 => Ok(TaskKind::Web),
        1 => Ok(TaskKind::CacheFollower),
        2 => Ok(TaskKind::MlTrainer),
        3 => Ok(TaskKind::Batch),
        4 => Ok(TaskKind::Background),
        _ => Err(DecodeError::OutOfRange),
    }
}

/// Fluent construction of a [`ScenarioSpec`].
///
/// Setters take `&mut self` so both chained calls and helper functions
/// (`ms_workload::tools`) compose; [`ScenarioBuilder::spec`] yields the
/// description and [`ScenarioBuilder::build`] the ready-to-run
/// simulation.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

/// Appends to one of the spec's per-server lists. Racks list things per
/// server, so the first entry reserves room for one per server (64 at
/// most) and the list is spared its 4 → 8 → 16 … regrowth.
fn push_listed<T>(list: &mut Vec<T>, num_servers: usize, item: T) {
    if list.is_empty() {
        list.reserve(num_servers.min(64));
    }
    list.push(item);
}

impl ScenarioBuilder {
    /// Starts from paper-like defaults (see [`ScenarioSpec::new`]).
    pub fn new(num_servers: usize, seed: u64) -> Self {
        ScenarioBuilder {
            spec: ScenarioSpec::new(num_servers, seed),
        }
    }

    /// Wraps an existing spec for further modification.
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        ScenarioBuilder { spec }
    }

    /// Sampler buckets per run.
    pub fn buckets(&mut self, buckets: usize) -> &mut Self {
        self.spec.sampler.buckets = buckets;
        self
    }

    /// Sampling interval (bucket width).
    pub fn interval(&mut self, interval: Ns) -> &mut Self {
        self.spec.sampler.interval = interval;
        self
    }

    /// Whether the per-packet flow sketch runs.
    pub fn count_flows(&mut self, on: bool) -> &mut Self {
        self.spec.sampler.count_flows = on;
        self
    }

    /// Transport MSS.
    pub fn mss(&mut self, mss: u32) -> &mut Self {
        self.spec.mss = mss;
        self
    }

    /// Warm-up before the sampler window.
    pub fn warmup(&mut self, warmup: Ns) -> &mut Self {
        self.spec.warmup = warmup;
        self
    }

    /// Maximum absolute host clock offset.
    pub fn max_clock_skew(&mut self, skew: Ns) -> &mut Self {
        self.spec.max_clock_skew = skew;
        self
    }

    /// DT α of the ToR: shorthand for selecting Dynamic Thresholds with
    /// the given α (replaces any previously chosen buffer policy).
    pub fn alpha(&mut self, alpha: f64) -> &mut Self {
        self.spec.policy = BufferPolicySpec::DtAlpha { alpha };
        self
    }

    /// Buffer sharing policy of the ToR (DT, complete sharing, static
    /// partitioning, flexible bounds, or delay-driven — see
    /// [`BufferPolicySpec`]).
    pub fn buffer_policy(&mut self, policy: BufferPolicySpec) -> &mut Self {
        self.spec.policy = policy;
        self
    }

    /// ECN marking threshold (overrides the deployed 120 KB).
    pub fn ecn_threshold(&mut self, threshold: Bytes) -> &mut Self {
        self.spec.ecn_threshold = Some(threshold);
        self
    }

    /// Enables receive-side coalescing (§4.6).
    pub fn gro(&mut self, gro: GroConfig) -> &mut Self {
        self.spec.gro = Some(gro);
        self
    }

    /// Inserts an explicit fabric hop before the ToR (§8.1): shorthand
    /// for a [`TopologySpec::Trunk`] topology.
    pub fn fabric_hop(&mut self, hop: FabricHopConfig) -> &mut Self {
        self.spec.topology = Some(TopologySpec::Trunk(hop));
        self
    }

    /// Sets the network plane in front of the hosts (abstract trunk or
    /// k-ary fat tree; see [`TopologySpec`]).
    pub fn topology(&mut self, topology: TopologySpec) -> &mut Self {
        self.spec.topology = Some(topology);
        self
    }

    /// Schedules a host-to-host flow group routed through the fat tree.
    pub fn topo_flow_at(&mut self, at: Ns, flow: TopoFlowSpec) -> &mut Self {
        push_listed(
            &mut self.spec.topo_flows,
            self.spec.num_servers,
            ScheduledTopoFlow { at, flow },
        );
        self
    }

    /// Enables periodic contention-driven α retuning (§9).
    pub fn alpha_tune_period(&mut self, period: Ns) -> &mut Self {
        self.spec.alpha_tune_period = Some(period);
        self
    }

    /// Paces all unpaced flows at `rate` (§8.1 fabric smoothing).
    pub fn fabric_smoothing(&mut self, rate: Bps) -> &mut Self {
        self.spec.fabric_smoothing_bps = Some(rate);
        self
    }

    /// Attaches a telemetry hub at build time (read it back through
    /// [`RackSim::telemetry`]).
    pub fn telemetry(&mut self, cfg: TelemetryConfig) -> &mut Self {
        self.spec.telemetry_ring = Some(cfg.ring_capacity);
        self
    }

    /// Captures a classified drop forensic for every switch/fabric/NIC
    /// drop (see [`ms_telemetry::ForensicStore`]).
    pub fn forensics(&mut self) -> &mut Self {
        self.spec.forensics = true;
        self
    }

    /// Schedules a flow group at `at`.
    pub fn flow_at(&mut self, at: Ns, flow: FlowSpec) -> &mut Self {
        push_listed(
            &mut self.spec.flows,
            self.spec.num_servers,
            ScheduledFlow { at, flow },
        );
        self
    }

    /// Attaches a generative traffic program.
    pub fn generator(&mut self, gen: GenSpec) -> &mut Self {
        self.spec.generators.push(gen);
        self
    }

    /// Installs a NIC-level random drop injector (§4.2).
    pub fn nic_drops(&mut self, server: usize, seed: u64, probability: f64) -> &mut Self {
        self.spec.nic_drops.push(NicDropSpec {
            server,
            seed,
            probability,
        });
        self
    }

    /// Installs a kernel/NIC stall during `[from, to)` (§4.6).
    pub fn stall(&mut self, server: usize, from: Ns, to: Ns) -> &mut Self {
        self.spec.stalls.push(StallSpec { server, from, to });
        self
    }

    /// Enables keepalive chatter on `server`.
    pub fn chatter(&mut self, server: usize, pool: u64, pkts_per_sec: u64) -> &mut Self {
        push_listed(
            &mut self.spec.chatter,
            self.spec.num_servers,
            ChatterSpec {
                server,
                pool,
                pkts_per_sec,
            },
        );
        self
    }

    /// Subscribes `server` to multicast `group`.
    pub fn join_multicast(&mut self, group: u32, server: usize) -> &mut Self {
        push_listed(
            &mut self.spec.mcast_members,
            self.spec.num_servers,
            (group, server),
        );
        self
    }

    /// Schedules a paced multicast burst (Fig. 3 tooling).
    pub fn multicast_burst(
        &mut self,
        at: Ns,
        group: u32,
        packets: u32,
        size: u32,
        paced_bps: Bps,
    ) -> &mut Self {
        push_listed(
            &mut self.spec.mcast_bursts,
            self.spec.num_servers,
            McastBurstSpec {
                at,
                group,
                packets,
                size,
                paced_bps,
            },
        );
        self
    }

    /// Starts a §4.1 user-space collection agent on `server`.
    pub fn agent(&mut self, server: usize, config: SchedulerConfig) -> &mut Self {
        self.spec.agents.push(AgentSpec { server, config });
        self
    }

    /// The accumulated declarative description.
    pub fn spec(&self) -> ScenarioSpec {
        self.spec.clone()
    }

    /// Builds the simulation (validates first; see
    /// [`ScenarioSpec::validate`]).
    pub fn build(&self) -> RackSim {
        self.spec.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> ScenarioSpec {
        let mut b = ScenarioBuilder::new(8, 42);
        b.buckets(200)
            .interval(Ns::from_millis(1))
            .mss(1500)
            .warmup(Ns::from_millis(20))
            .max_clock_skew(Ns::from_micros(200))
            .alpha(2.0)
            .ecn_threshold(Bytes::from_kib(60))
            .gro(GroConfig::default())
            .fabric_hop(FabricHopConfig {
                rate_bps: Bps(25_000_000_000),
                buffer_bytes: Bytes(1 << 24),
            })
            .alpha_tune_period(Ns::from_millis(5))
            .fabric_smoothing(Bps(11_000_000_000))
            .telemetry(TelemetryConfig::default())
            .forensics()
            .flow_at(
                Ns::from_millis(30),
                FlowSpec {
                    dst_server: 1,
                    connections: 20,
                    total_bytes: 4_000_000,
                    algorithm: CcAlgorithm::Dctcp,
                    paced_bps: Some(Bps(9_000_000_000)),
                    task: 7,
                },
            )
            .generator(GenSpec {
                kind: TaskKind::MlTrainer,
                server: 2,
                task: 3,
                load: 1.25,
                seed: 99,
                ml_phase: Some(MlPhase {
                    period: Ns::from_micros(25_000),
                    phase: Ns::from_millis(1),
                }),
            })
            .nic_drops(5, 7, 0.015)
            .stall(3, Ns::from_millis(10), Ns::from_millis(20))
            .chatter(1, 40, 8_000)
            .join_multicast(77, 0)
            .join_multicast(77, 4)
            .multicast_burst(Ns::from_millis(50), 77, 100, 1500, Bps(2_000_000_000))
            .agent(
                6,
                SchedulerConfig {
                    period: Ns::from_millis(30),
                    rotation: vec![RunConfig {
                        interval: Ns::from_millis(1),
                        buckets: 50,
                        count_flows: true,
                    }],
                },
            );
        b.spec()
    }

    #[test]
    fn codec_round_trip_exact() {
        let spec = rich_spec();
        let enc = spec.encode();
        let dec = ScenarioSpec::decode(&enc).expect("decodable");
        assert_eq!(dec, spec);
        // Canonical: same spec, same bytes.
        assert_eq!(spec.encode(), dec.encode());
    }

    #[test]
    fn builder_lists_reserve_per_server_and_describe_the_same_spec() {
        let flow = FlowSpec {
            dst_server: 1,
            connections: 2,
            total_bytes: 10_000,
            algorithm: CcAlgorithm::Dctcp,
            paced_bps: None,
            task: 0,
        };
        let rate = Bps(1_000_000_000);
        // Through the builder the first push into each list reserves; by
        // hand the same entries are plain pushes onto the spec's lists.
        let mut built = ScenarioBuilder::new(16, 7);
        let mut by_hand = ScenarioSpec::new(16, 7);
        for i in 0..5u64 {
            let (at, server, pool) = (Ns::from_millis(i), i as usize, 0x4000_0000 + i);
            built
                .flow_at(at, flow)
                .chatter(server, pool, 1000)
                .join_multicast(1, server)
                .multicast_burst(at, 1, 10, 256, rate);
            by_hand.flows.push(ScheduledFlow { at, flow });
            by_hand.chatter.push(ChatterSpec {
                server,
                pool,
                pkts_per_sec: 1000,
            });
            by_hand.mcast_members.push((1, server));
            by_hand.mcast_bursts.push(McastBurstSpec {
                at,
                group: 1,
                packets: 10,
                size: 256,
                paced_bps: rate,
            });
        }
        assert_eq!(built.spec.flows.capacity(), 16, "one per server");
        assert!(by_hand.flows.capacity() < 16, "plain pushes grew 4 → 8");
        assert_eq!(built.spec(), by_hand);
        assert_eq!(built.spec().encode(), by_hand.encode());
        // A region-sized host count is not a region-sized allocation.
        let mut huge = ScenarioBuilder::new(1 << 20, 7);
        huge.flow_at(Ns::ZERO, flow).join_multicast(1, 0);
        assert!(huge.spec.flows.capacity() <= 64);
        assert!(huge.spec.mcast_members.capacity() <= 64);
    }

    #[test]
    fn minimal_spec_round_trips() {
        let spec = ScenarioSpec::new(4, 1);
        assert_eq!(ScenarioSpec::decode(&spec.encode()).unwrap(), spec);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ScenarioSpec::decode(b"XXXX123").is_err());
        let mut enc = rich_spec().encode();
        enc.truncate(enc.len() / 3);
        assert!(ScenarioSpec::decode(&enc).is_err());
    }

    #[test]
    fn every_policy_round_trips_and_unknown_tags_are_rejected() {
        for policy in [
            BufferPolicySpec::DtAlpha { alpha: 0.75 },
            BufferPolicySpec::CompleteSharing,
            BufferPolicySpec::StaticPartition,
            BufferPolicySpec::FlexibleBounds,
            BufferPolicySpec::DelayDriven {
                target: Ns::from_micros(500),
                drain: Bps(12_500_000_000),
            },
        ] {
            let mut b = ScenarioBuilder::new(4, 1);
            b.buffer_policy(policy);
            let spec = b.spec();
            let dec = ScenarioSpec::decode(&spec.encode()).expect("decodable");
            assert_eq!(dec.policy, policy);
            assert_eq!(dec, spec);
        }
        // An unknown policy tag must fail decoding, not silently default.
        let mut w = WireWriter::with_magic(SPEC_MAGIC);
        w.u64(99); // no such policy kind
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.expect_magic(SPEC_MAGIC).unwrap();
        assert!(
            decode_policy(&mut r).is_err(),
            "unknown policy tag must be a decode error"
        );
    }

    #[test]
    fn every_cc_round_trips_and_unknown_codes_are_rejected() {
        let encoded = |algorithm| {
            let mut spec = rich_spec();
            spec.flows[0].flow.algorithm = algorithm;
            spec.encode()
        };
        for algorithm in CcAlgorithm::ALL {
            let bytes = encoded(algorithm);
            let dec = ScenarioSpec::decode(&bytes).expect("decodable");
            assert_eq!(dec.flows[0].flow.algorithm, algorithm);
            assert_eq!(dec.encode(), bytes);
        }
        // The CC code is the one byte where a DCTCP and a Reno spec
        // differ; code 3 names no algorithm.
        let dctcp = encoded(CcAlgorithm::Dctcp);
        let mut bad = encoded(CcAlgorithm::Reno);
        let at: Vec<usize> = (0..bad.len()).filter(|&i| bad[i] != dctcp[i]).collect();
        assert_eq!(at.len(), 1);
        bad[at[0]] = 3;
        assert_eq!(ScenarioSpec::decode(&bad), Err(DecodeError::OutOfRange));
    }

    #[test]
    fn identical_specs_build_identical_runs() {
        let spec = {
            let mut b = ScenarioBuilder::new(4, 9);
            b.buckets(150).warmup(Ns::from_millis(15)).flow_at(
                Ns::from_millis(20),
                FlowSpec {
                    dst_server: 1,
                    connections: 30,
                    total_bytes: 5_000_000,
                    algorithm: CcAlgorithm::Dctcp,
                    paced_bps: None,
                    task: 1,
                },
            );
            b.spec()
        };
        let run = |s: &ScenarioSpec| {
            let report = s.build().run_sync_window(0);
            (
                report.switch_discard_bytes,
                report.events,
                report.rack_run.map(|r| r.servers[1].in_bytes.clone()),
            )
        };
        assert_eq!(run(&spec), run(&spec));
        // Round-tripping through the codec preserves behaviour too.
        let rt = ScenarioSpec::decode(&spec.encode()).unwrap();
        assert_eq!(run(&spec), run(&rt));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_rejects_out_of_range_server() {
        let mut b = ScenarioBuilder::new(4, 1);
        b.flow_at(
            Ns::from_millis(10),
            FlowSpec {
                dst_server: 99,
                connections: 1,
                total_bytes: 1000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
        b.build();
    }

    #[test]
    #[should_panic(expected = "ml_phase")]
    fn validate_rejects_phaseless_trainer() {
        let mut b = ScenarioBuilder::new(4, 1);
        b.generator(GenSpec {
            kind: TaskKind::MlTrainer,
            server: 0,
            task: 0,
            load: 1.0,
            seed: 1,
            ml_phase: None,
        });
        b.build();
    }

    #[test]
    fn telemetry_field_attaches_a_hub() {
        let mut b = ScenarioBuilder::new(2, 3);
        b.buckets(50).telemetry(TelemetryConfig::default());
        let sim = b.build();
        assert!(sim.telemetry().is_some());
    }

    fn tree_spec() -> ScenarioSpec {
        let opts = FatTreeOpts {
            k: 4,
            ..FatTreeOpts::default()
        };
        let mut b = ScenarioBuilder::new(16, 11);
        b.buckets(100)
            .topology(TopologySpec::fat_tree(opts, 7))
            .topo_flow_at(
                Ns::from_millis(5),
                TopoFlowSpec {
                    src_host: 12,
                    dst_host: 0,
                    connections: 8,
                    total_bytes: 2_000_000,
                    algorithm: CcAlgorithm::Dctcp,
                    paced_bps: Some(Bps(4_000_000_000)),
                    task: 3,
                },
            );
        b.spec()
    }

    #[test]
    fn fat_tree_spec_round_trips_exactly() {
        let spec = tree_spec();
        let enc = spec.encode();
        let dec = ScenarioSpec::decode(&enc).expect("decodable");
        assert_eq!(dec, spec);
        assert_eq!(enc, dec.encode());
    }

    #[test]
    fn mss1_specs_are_refused_by_name() {
        let mut enc = rich_spec().encode();
        assert_eq!(&enc[..4], SPEC_MAGIC);
        enc[..4].copy_from_slice(b"MSS1");
        assert_eq!(ScenarioSpec::decode(&enc), Err(DecodeError::BadMagic));
    }

    #[test]
    fn unknown_section_tags_are_rejected() {
        // Splice an unknown tag where SECTION_END lives: a minimal spec's
        // section list is exactly the terminator, a single varint byte.
        let mut enc = ScenarioSpec::new(4, 1).encode();
        *enc.last_mut().expect("non-empty encoding") = 99;
        assert!(
            ScenarioSpec::decode(&enc).is_err(),
            "unknown section tag must be a decode error"
        );
    }

    #[test]
    fn fabric_hop_is_trunk_topology_sugar() {
        let mut b = ScenarioBuilder::new(4, 1);
        b.fabric_hop(FabricHopConfig {
            rate_bps: Bps(25_000_000_000),
            buffer_bytes: Bytes(1 << 24),
        });
        match b.spec().topology {
            Some(TopologySpec::Trunk(hop)) => {
                assert_eq!(hop.rate_bps, Bps(25_000_000_000));
            }
            other => panic!("expected trunk topology, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "topo flows require a fat-tree topology")]
    fn validate_rejects_topo_flows_without_tree() {
        let mut b = ScenarioBuilder::new(4, 1);
        b.topo_flow_at(
            Ns::from_millis(1),
            TopoFlowSpec {
                src_host: 0,
                dst_host: 1,
                connections: 1,
                total_bytes: 1000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
        b.build();
    }

    #[test]
    #[should_panic(expected = "16 hosts")]
    fn validate_rejects_host_count_mismatch() {
        let mut b = ScenarioBuilder::new(8, 1);
        b.topology(TopologySpec::fat_tree(
            FatTreeOpts {
                k: 4,
                ..FatTreeOpts::default()
            },
            1,
        ));
        b.build();
    }

    #[test]
    #[should_panic(expected = "single-rack machinery")]
    fn validate_rejects_legacy_flows_under_fat_tree() {
        let mut b = ScenarioBuilder::new(16, 1);
        b.topology(TopologySpec::fat_tree(
            FatTreeOpts {
                k: 4,
                ..FatTreeOpts::default()
            },
            1,
        ))
        .flow_at(
            Ns::from_millis(1),
            FlowSpec {
                dst_server: 1,
                connections: 1,
                total_bytes: 1000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
        b.build();
    }
}
