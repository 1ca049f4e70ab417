//! Generative traffic programs for service archetypes.
//!
//! Each server in a rack runs one task instance (§7.1: "each server
//! typically runs a single task"), and each task kind is a small generative
//! program producing *ingress* work for its server — the direction the
//! paper analyzes ("ingress traffic constitute the major source of packet
//! discards in our network", §5). The archetypes and their parameters are
//! chosen so the paper's phenomena emerge from mechanism:
//!
//! * [`TaskKind::Web`] — Poisson request/response with small fan-in and
//!   heavy-tailed (mostly small) responses. Rarely bursty by itself.
//! * [`TaskKind::CacheFollower`] — storage/cache fetches: dozens of
//!   connections delivering simultaneously (incast). These create the
//!   few-ms, high-connection-count bursts that §8.2 finds loss-prone.
//! * [`TaskKind::MlTrainer`] — synchronized training steps: every step,
//!   several connections deliver a multi-MB activation/gradient transfer,
//!   *paced upstream* (the fabric-smoothing effect §8.1 hypothesizes for
//!   RegA-High). All trainers in a rack share the step clock, so their
//!   bursts overlap — the source of persistent high contention.
//! * [`TaskKind::Batch`] — shuffle-style medium transfers.
//! * [`TaskKind::Background`] — a constant drizzle of mice flows keeping
//!   connection counts realistic outside bursts (Fig. 8).

use ms_dcsim::{Bps, Ns, SimRng};
use ms_transport::CcAlgorithm;

/// Service archetypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Request/response web-ish service.
    Web,
    /// Cache/storage follower: heavy fan-in (incast) reads.
    CacheFollower,
    /// Synchronized ML training: periodic paced multi-MB steps.
    MlTrainer,
    /// Batch analytics shuffle.
    Batch,
    /// Low-rate background mice.
    Background,
}

/// A group of connections to start now, delivering to one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Destination server (rack-local index = ToR queue).
    pub dst_server: usize,
    /// Number of simultaneous connections carrying the transfer.
    pub connections: u32,
    /// Total bytes across all connections.
    pub total_bytes: u64,
    /// Congestion control for these connections.
    pub algorithm: CcAlgorithm,
    /// Aggregate source pacing across the group, if smoothed upstream.
    pub paced_bps: Option<Bps>,
    /// Task identity (for placement diagnostics).
    pub task: u64,
}

/// A group of connections between two *hosts of a fat-tree region*
/// (see `ms_topo`): unlike [`FlowSpec`], whose senders are abstract
/// off-rack machines, both endpoints here are addressable servers and
/// the packets cross real ToR/agg/spine queues hop by hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoFlowSpec {
    /// Source host (flat fat-tree host id).
    pub src_host: u32,
    /// Destination host (flat fat-tree host id).
    pub dst_host: u32,
    /// Number of simultaneous connections carrying the transfer.
    pub connections: u32,
    /// Total bytes across all connections.
    pub total_bytes: u64,
    /// Congestion control for these connections.
    pub algorithm: CcAlgorithm,
    /// Aggregate source pacing across the group, if smoothed upstream.
    pub paced_bps: Option<Bps>,
    /// Task identity (for placement diagnostics).
    pub task: u64,
}

/// Shared step clock for ML trainers in a rack: period and phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlPhase {
    /// Time between training steps.
    pub period: Ns,
    /// Offset of the first step.
    pub phase: Ns,
}

#[derive(Debug)]
enum GenState {
    /// Poisson arrivals with the given mean inter-arrival at load 1.
    Poisson { mean_gap_ns: f64, next: Ns },
    /// Synchronized periodic steps with per-step jitter.
    MlSteps { phase: MlPhase, step: u64 },
}

/// A traffic generator bound to one server.
#[derive(Debug)]
pub struct TaskGen {
    kind: TaskKind,
    server: usize,
    task: u64,
    load: f64,
    rng: SimRng,
    state: GenState,
}

impl TaskGen {
    /// Creates a generator for `kind` on `server`. `load` scales arrival
    /// rates (diurnal × rack factors). ML trainers must be given the
    /// rack-shared [`MlPhase`].
    pub fn new(
        kind: TaskKind,
        server: usize,
        task: u64,
        load: f64,
        mut rng: SimRng,
        ml_phase: Option<MlPhase>,
    ) -> Self {
        assert!(load > 0.0, "load must be positive");
        let state = match kind {
            TaskKind::MlTrainer => GenState::MlSteps {
                phase: ml_phase.expect("MlTrainer requires a shared MlPhase"),
                step: 0,
            },
            _ => {
                let mean_gap_ns = match kind {
                    TaskKind::Web => 18e6,
                    TaskKind::CacheFollower => 70e6,
                    TaskKind::Batch => 35e6,
                    TaskKind::Background => 8e6,
                    TaskKind::MlTrainer => unreachable!(),
                };
                // Desynchronize task instances: first arrival at a random
                // point of the first gap.
                let first = rng.exp(mean_gap_ns / load) * rng.next_f64();
                GenState::Poisson {
                    mean_gap_ns,
                    next: Ns(first as u64),
                }
            }
        };
        TaskGen {
            kind,
            server,
            task,
            load,
            rng,
            state,
        }
    }

    /// The task kind.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// When this generator next wants to run.
    pub fn next_wakeup(&self) -> Ns {
        match &self.state {
            GenState::Poisson { next, .. } => *next,
            GenState::MlSteps { phase, step } => phase.phase + phase.period * *step,
        }
    }

    fn sample_flow(&mut self) -> FlowSpec {
        let rng = &mut self.rng;
        let dctcp = CcAlgorithm::Dctcp;
        let (connections, total_bytes, algorithm, paced_bps) = match self.kind {
            TaskKind::Web => {
                // simlint: allow(cast-truncation): gen_range(n) < n fits u32
                let connections = 1 + rng.gen_range(3) as u32;
                let total_bytes = rng.bounded_pareto(1.1, 4_000.0, 2_000_000.0) as u64;
                // §3: most traffic stays in-region (DCTCP); a small share
                // crosses regions and runs Cubic over a WAN-scale RTT
                // (the simulator gives Cubic flows the long fabric delay).
                let algorithm = if rng.gen_bool(0.08) {
                    CcAlgorithm::Cubic
                } else {
                    dctcp
                };
                (connections, total_bytes, algorithm, None)
            }
            TaskKind::CacheFollower => {
                // Incast: many peers answer a fan-out read simultaneously.
                // Fan-in and response sizes put the aggregate second/third
                // slow-start wave at 1-4 MB — the regime where overflow
                // races ECN feedback and only *some* bursts lose (§8.2).
                // simlint: allow(cast-truncation): gen_range(n) < n fits u32
                let connections = 15 + rng.gen_range(86) as u32; // 15..=100
                                                                 // Heavy-tailed response sizes: the typical fetch is easily
                                                                 // absorbed; the tail is what overflows.
                let per_conn = rng.bounded_pareto(1.8, 35_000.0, 300_000.0);
                let total_bytes = (per_conn * connections as f64) as u64;
                (connections, total_bytes, dctcp, None)
            }
            TaskKind::MlTrainer => {
                // One training step: a paced multi-MB transfer. The step
                // volume scales with load so diurnal swings reach ML racks
                // (§7.2 ties contention to ingress volume). At load 1 the
                // transfer is 8-12 MB; paced at 10 Gbps it occupies the
                // server link for ~7-10 ms of each ~28 ms step — the
                // persistent-contention duty cycle of RegA-High.
                // simlint: allow(cast-truncation): gen_range(n) < n fits u32
                let connections = 4 + rng.gen_range(5) as u32; // 4..=8
                let mb = (8.0 + rng.next_f64() * 4.0) * self.load.clamp(0.4, 1.6);
                // Fabric smoothing: arrives at ~80% of server line rate.
                let paced = Some(Bps(10_000_000_000));
                (connections, (mb * 1e6) as u64, dctcp, paced)
            }
            TaskKind::Batch => {
                // simlint: allow(cast-truncation): gen_range(n) < n fits u32
                let connections = 2 + rng.gen_range(5) as u32; // 2..=6
                let total_bytes = rng.bounded_pareto(1.1, 200_000.0, 8_000_000.0) as u64;
                (connections, total_bytes, dctcp, None)
            }
            TaskKind::Background => {
                let total_bytes = rng.bounded_pareto(1.3, 1_000.0, 64_000.0) as u64;
                (1, total_bytes, dctcp, None)
            }
        };
        FlowSpec {
            dst_server: self.server,
            connections,
            total_bytes,
            algorithm,
            paced_bps,
            task: self.task,
        }
    }

    /// The flow due at `now`, if any (callers invoke this at
    /// [`TaskGen::next_wakeup`]); advances the internal clock past it.
    pub fn poll(&mut self, now: Ns) -> Option<FlowSpec> {
        match &mut self.state {
            GenState::Poisson { mean_gap_ns, next } => {
                if now < *next {
                    return None;
                }
                let mean = *mean_gap_ns;
                let gap = self.rng.exp(mean / self.load);
                *next = now + Ns(gap.max(1.0) as u64);
            }
            GenState::MlSteps { phase, step } => {
                if now < phase.phase + phase.period * *step {
                    return None;
                }
                *step += 1;
                // Small per-server jitter is modeled by the driver applying
                // the spec when the event fires; step cadence stays locked
                // to the shared clock so trainers overlap.
            }
        }
        Some(self.sample_flow())
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    #[test]
    fn poisson_rate_scales_with_load() {
        let count_arrivals = |load: f64| {
            let mut g = TaskGen::new(TaskKind::Web, 0, 1, load, rng(), None);
            let horizon = Ns::from_secs(10);
            let mut n = 0;
            loop {
                let t = g.next_wakeup();
                if t >= horizon {
                    break;
                }
                n += g.poll(t).iter().count();
            }
            n
        };
        let base = count_arrivals(1.0);
        let double = count_arrivals(2.0);
        // 10s at 18ms mean ≈ 555 arrivals.
        assert!((430..=700).contains(&base), "base {base}");
        let ratio = double as f64 / base as f64;
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn poll_before_wakeup_is_empty() {
        let mut g = TaskGen::new(TaskKind::Batch, 0, 1, 1.0, rng(), None);
        let t = g.next_wakeup();
        assert!(g.poll(t.saturating_sub(Ns(1))).is_none());
        assert!(g.poll(t).is_some());
    }

    #[test]
    fn cache_flows_are_heavy_incast() {
        let mut g = TaskGen::new(TaskKind::CacheFollower, 3, 9, 1.0, rng(), None);
        for _ in 0..20 {
            let t = g.next_wakeup();
            let f = g.poll(t).expect("a flow at its wakeup");
            assert!((15..=100).contains(&f.connections), "{}", f.connections);
            assert!(f.total_bytes >= 15 * 35_000);
            assert_eq!(f.dst_server, 3);
            assert_eq!(f.task, 9);
        }
    }

    #[test]
    fn ml_steps_lock_to_shared_phase() {
        let phase = MlPhase {
            period: Ns::from_millis(60),
            phase: Ns::from_millis(5),
        };
        let mut a = TaskGen::new(TaskKind::MlTrainer, 0, 1, 1.0, rng(), Some(phase));
        let mut b = TaskGen::new(
            TaskKind::MlTrainer,
            1,
            1,
            1.0,
            SimRng::new(999),
            Some(phase),
        );
        for step in 0..5u64 {
            let due = phase.phase + phase.period * step;
            assert_eq!(a.next_wakeup(), due);
            assert_eq!(b.next_wakeup(), due, "trainers share the step clock");
            assert!(a.poll(due).is_some());
            assert!(b.poll(due).is_some());
        }
    }

    #[test]
    fn ml_flows_are_paced_multi_mb() {
        let phase = MlPhase {
            period: Ns::from_millis(60),
            phase: Ns::ZERO,
        };
        let mut g = TaskGen::new(TaskKind::MlTrainer, 0, 1, 1.0, rng(), Some(phase));
        let f = g.poll(Ns::ZERO).expect("step 0 is due");
        assert!(f.paced_bps.is_some(), "ML traffic is fabric-smoothed");
        assert!((8_000_000..=12_000_000).contains(&f.total_bytes));
    }

    #[test]
    fn background_flows_are_mice() {
        let mut g = TaskGen::new(TaskKind::Background, 0, 1, 1.0, rng(), None);
        for _ in 0..50 {
            let t = g.next_wakeup();
            let f = g.poll(t).expect("a flow at its wakeup");
            assert!(f.total_bytes <= 64_001);
            assert_eq!(f.connections, 1);
        }
    }

    #[test]
    #[should_panic(expected = "MlPhase")]
    fn ml_without_phase_panics() {
        let _ = TaskGen::new(TaskKind::MlTrainer, 0, 1, 1.0, rng(), None);
    }

    #[test]
    fn generators_are_deterministic() {
        let run = || {
            let mut g = TaskGen::new(TaskKind::Web, 0, 1, 1.0, SimRng::new(5), None);
            let mut sizes = Vec::new();
            for _ in 0..20 {
                let t = g.next_wakeup();
                sizes.extend(g.poll(t).map(|f| f.total_bytes));
            }
            sizes
        };
        assert_eq!(run(), run());
    }
}
