//! Sweep grid definition: seed × α × placement × CC-algorithm × policy.
//!
//! [`FleetGrid`] enumerates its cartesian product in a fixed nesting
//! order (seed outermost, policy innermost) into labeled [`FleetCell`]s. The
//! cell order — not completion order — defines the order of every
//! aggregate output, which is what makes `--jobs 1` and `--jobs N` runs
//! byte-identical.

use ms_dcsim::{Bytes, Ns, PolicyKind};
use ms_transport::CcAlgorithm;
use ms_workload::{
    FatTreeOpts, FlowSpec, ScenarioBuilder, ScenarioSpec, TopoFlowSpec, TopologySpec,
};

/// How the grid's incast load is placed inside the rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Every connection targets server 0 (the paper's worst-case incast).
    SingleVictim,
    /// Connections split between servers 0 and 1 (two synchronized
    /// receivers contending for the shared buffer).
    PairedVictims,
    /// Connections spread across all servers (the diffuse, low-contention
    /// baseline).
    Spread,
}

impl PlacementKind {
    /// Stable label fragment used in cell names and CLI parsing.
    pub fn label(self) -> &'static str {
        match self {
            PlacementKind::SingleVictim => "single",
            PlacementKind::PairedVictims => "paired",
            PlacementKind::Spread => "spread",
        }
    }

    /// Parses a CLI fragment.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "single" => Some(PlacementKind::SingleVictim),
            "paired" => Some(PlacementKind::PairedVictims),
            "spread" => Some(PlacementKind::Spread),
            _ => None,
        }
    }
}

/// A `--topo` grid point: the classic one-ToR rack, or a k-ary fat tree
/// with a cross-rack placement density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoPoint {
    /// The original single-rack cell (default; adds no label fragment,
    /// so grids without `--topo` keep their historical labels).
    SingleRack,
    /// A k-ary fat tree where `density_pct` % of each victim's incast
    /// connections originate outside the victim's pod — placement
    /// density as a structural contention axis: 0 keeps the fan-in
    /// under the pod's own aggs, 100 forces every byte through spines.
    FatTree {
        /// Fat-tree radix (even, ≥ 2); the cell has k³/4 hosts.
        k: u32,
        /// Percentage (0–100) of connections sourced cross-pod.
        density_pct: u32,
    },
}

impl TopoPoint {
    /// Stable label fragment used in cell names and CLI parsing.
    pub fn label(self) -> String {
        match self {
            TopoPoint::SingleRack => String::from("none"),
            TopoPoint::FatTree { k, density_pct } => format!("k{k}d{density_pct}"),
        }
    }

    /// Parses a CLI fragment: `none` or `k<radix>d<density>` (e.g.
    /// `k4d75`).
    pub fn parse(s: &str) -> Option<Self> {
        if s == "none" {
            return Some(TopoPoint::SingleRack);
        }
        let (k, d) = s.strip_prefix('k')?.split_once('d')?;
        let k: u32 = k.parse().ok()?;
        let density_pct: u32 = d.parse().ok()?;
        (k >= 2 && k % 2 == 0 && density_pct <= 100)
            .then_some(TopoPoint::FatTree { k, density_pct })
    }
}

/// One grid point: a label (unique within the grid) plus the declarative
/// scenario to run.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// `s<seed>-a<alpha>-<placement>-<cc>-<policy>` for grid cells;
    /// free-form for hand-built cells.
    pub label: String,
    /// The scenario this cell simulates.
    pub spec: ScenarioSpec,
}

/// A seed × α × placement × CC × buffer-policy sweep over one rack
/// shape.
#[derive(Debug, Clone)]
pub struct FleetGrid {
    /// Servers per rack.
    pub servers: usize,
    /// Sampler buckets per run (1 ms each).
    pub buckets: usize,
    /// Warm-up before the sampler window.
    pub warmup: Ns,
    /// Experiment seeds.
    pub seeds: Vec<u64>,
    /// DT α values for the ToR shared buffer.
    pub alphas: Vec<f64>,
    /// Incast placements.
    pub placements: Vec<PlacementKind>,
    /// Congestion-control algorithms.
    pub ccs: Vec<CcAlgorithm>,
    /// ToR buffer-sharing policies (the §9/§10 what-if axis). The DT
    /// cells take the grid's α; other kinds use their
    /// [`PolicyKind::spec_with_alpha`] defaults.
    pub policies: Vec<PolicyKind>,
    /// Topology points (`--topo`): single rack and/or fat trees with a
    /// cross-rack placement density. Fat-tree cells size the rack to the
    /// tree's k³/4 hosts, ignoring `servers`.
    pub topos: Vec<TopoPoint>,
    /// Total connections per cell (split according to placement).
    pub connections: u32,
    /// Bytes delivered per connection group.
    pub total_bytes: u64,
    /// Capture a classified [`ms_telemetry::DropForensic`] per drop in
    /// every cell (the lake's `forensics` table).
    pub forensics: bool,
}

impl Default for FleetGrid {
    /// The binary's default 8-point smoke grid:
    /// 2 seeds × 2 α × 2 placements × DCTCP.
    fn default() -> Self {
        FleetGrid {
            servers: 8,
            buckets: 200,
            warmup: Ns::from_millis(20),
            seeds: vec![1, 2],
            alphas: vec![0.5, 2.0],
            placements: vec![PlacementKind::SingleVictim, PlacementKind::PairedVictims],
            ccs: vec![CcAlgorithm::Dctcp],
            policies: vec![PolicyKind::DtAlpha],
            topos: vec![TopoPoint::SingleRack],
            connections: 80,
            total_bytes: 12_000_000,
            forensics: false,
        }
    }
}

impl FleetGrid {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.seeds.len()
            * self.alphas.len()
            * self.placements.len()
            * self.ccs.len()
            * self.policies.len()
            * self.topos.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates all cells in grid order
    /// (seed → α → placement → CC → policy → topo).
    pub fn cells(&self) -> Vec<FleetCell> {
        let mut out = Vec::with_capacity(self.len());
        for &seed in &self.seeds {
            for &alpha in &self.alphas {
                for &placement in &self.placements {
                    for &cc in &self.ccs {
                        for &policy in &self.policies {
                            for &topo in &self.topos {
                                let mut label = format!(
                                    "s{seed}-a{alpha:.2}-{}-{}-{}",
                                    placement.label(),
                                    cc.label(),
                                    policy.label()
                                );
                                if topo != TopoPoint::SingleRack {
                                    label.push('-');
                                    label.push_str(&topo.label());
                                }
                                out.push(FleetCell {
                                    label,
                                    spec: match topo {
                                        TopoPoint::SingleRack => {
                                            self.cell_spec(seed, alpha, placement, cc, policy)
                                        }
                                        TopoPoint::FatTree { k, density_pct } => self
                                            .tree_cell_spec(
                                                seed,
                                                alpha,
                                                placement,
                                                cc,
                                                policy,
                                                k,
                                                density_pct,
                                            ),
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn cell_spec(
        &self,
        seed: u64,
        alpha: f64,
        placement: PlacementKind,
        cc: CcAlgorithm,
        policy: PolicyKind,
    ) -> ScenarioSpec {
        let mut b = ScenarioBuilder::new(self.servers, seed);
        b.buckets(self.buckets)
            .warmup(self.warmup)
            .buffer_policy(policy.spec_with_alpha(alpha));
        if self.forensics {
            b.forensics();
        }
        let start = self.warmup + Ns::from_millis(10);
        let flow = |dst: usize, conns: u32| FlowSpec {
            dst_server: dst,
            connections: conns,
            total_bytes: self.total_bytes,
            algorithm: cc,
            paced_bps: None,
            task: 1,
        };
        match placement {
            PlacementKind::SingleVictim => {
                b.flow_at(start, flow(0, self.connections));
            }
            PlacementKind::PairedVictims => {
                let half = (self.connections / 2).max(1);
                b.flow_at(start, flow(0, half));
                b.flow_at(start, flow(1, half));
            }
            PlacementKind::Spread => {
                // simlint: allow(cast-truncation): rack sizes are far below u32::MAX
                let per = (self.connections / self.servers.max(1) as u32).max(1);
                for dst in 0..self.servers {
                    b.flow_at(start, flow(dst, per));
                }
            }
        }
        b.spec()
    }

    /// A fat-tree cell: the victim set follows the placement kind, and
    /// `density_pct` % of each victim's connections are sourced from
    /// hosts outside its pod. Fabric links run at 10 Gbps against
    /// 12.5 Gbps host links with 512 KiB switch buffers, so where the
    /// fan-in concentrates — in-pod aggs vs spines — is decided by the
    /// placement structure, not by a rate parameter.
    fn tree_cell_spec(
        &self,
        seed: u64,
        alpha: f64,
        placement: PlacementKind,
        cc: CcAlgorithm,
        policy: PolicyKind,
        k: u32,
        density_pct: u32,
    ) -> ScenarioSpec {
        let policy_spec = policy.spec_with_alpha(alpha);
        let opts = FatTreeOpts {
            k,
            link_gbps: 10,
            buffer_bytes: Bytes(512 << 10),
            policy: policy_spec,
            ..FatTreeOpts::default()
        };
        let r = k / 2;
        let pod_hosts = r * r;
        let hosts = k * k * k / 4;
        let mut b = ScenarioBuilder::new(hosts as usize, seed);
        b.buckets(self.buckets)
            .warmup(self.warmup)
            .buffer_policy(policy_spec)
            .topology(TopologySpec::fat_tree(opts, seed));
        if self.forensics {
            b.forensics();
        }
        let start = self.warmup + Ns::from_millis(10);
        let victims: Vec<u32> = match placement {
            PlacementKind::SingleVictim => vec![0],
            PlacementKind::PairedVictims => vec![0, 1],
            // One victim per ToR (its first host).
            PlacementKind::Spread => (0..k * k / 2).map(|tor| tor * r).collect(),
        };
        // simlint: allow(cast-truncation): victim sets are far below u32::MAX
        let per_victim = (self.connections / victims.len() as u32).max(1);
        for &v in &victims {
            let pod = v / pod_hosts;
            let local: Vec<u32> = (pod * pod_hosts..(pod + 1) * pod_hosts)
                .filter(|&h| h != v)
                .collect();
            let remote: Vec<u32> = (0..hosts).filter(|h| h / pod_hosts != pod).collect();
            let remote_conns = per_victim * density_pct / 100;
            let shares = [(local, per_victim - remote_conns), (remote, remote_conns)];
            for (pool, conns) in shares {
                if conns == 0 || pool.is_empty() {
                    continue;
                }
                // simlint: allow(cast-truncation): pools are far below u32::MAX
                let n = pool.len() as u32;
                for (i, &src) in pool.iter().enumerate() {
                    // simlint: allow(cast-truncation): pools are far below u32::MAX
                    let share = conns / n + u32::from((i as u32) < conns % n);
                    if share == 0 {
                        continue;
                    }
                    b.topo_flow_at(
                        start,
                        TopoFlowSpec {
                            src_host: src,
                            dst_host: v,
                            connections: share,
                            total_bytes: self.total_bytes * u64::from(share)
                                / u64::from(per_victim),
                            algorithm: cc,
                            paced_bps: None,
                            task: 1,
                        },
                    );
                }
            }
        }
        b.spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_eight_points() {
        let grid = FleetGrid::default();
        assert_eq!(grid.len(), 8);
        assert_eq!(grid.cells().len(), 8);
    }

    #[test]
    fn cell_order_is_seed_alpha_placement_cc() {
        let grid = FleetGrid::default();
        let labels: Vec<String> = grid.cells().into_iter().map(|c| c.label).collect();
        assert_eq!(
            labels,
            vec![
                "s1-a0.50-single-dctcp-dt",
                "s1-a0.50-paired-dctcp-dt",
                "s1-a2.00-single-dctcp-dt",
                "s1-a2.00-paired-dctcp-dt",
                "s2-a0.50-single-dctcp-dt",
                "s2-a0.50-paired-dctcp-dt",
                "s2-a2.00-single-dctcp-dt",
                "s2-a2.00-paired-dctcp-dt",
            ]
        );
    }

    #[test]
    fn cells_are_deterministic() {
        let grid = FleetGrid::default();
        let a = grid.cells();
        let b = grid.cells();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.spec.encode(), y.spec.encode());
        }
    }

    #[test]
    fn placement_shapes_flows() {
        let grid = FleetGrid::default();
        let single = grid.cell_spec(
            1,
            1.0,
            PlacementKind::SingleVictim,
            CcAlgorithm::Dctcp,
            PolicyKind::DtAlpha,
        );
        assert_eq!(single.flows.len(), 1);
        let paired = grid.cell_spec(
            1,
            1.0,
            PlacementKind::PairedVictims,
            CcAlgorithm::Dctcp,
            PolicyKind::DtAlpha,
        );
        assert_eq!(paired.flows.len(), 2);
        let spread = grid.cell_spec(
            1,
            1.0,
            PlacementKind::Spread,
            CcAlgorithm::Dctcp,
            PolicyKind::DtAlpha,
        );
        assert_eq!(spread.flows.len(), grid.servers);
    }

    #[test]
    fn policy_axis_multiplies_the_grid_and_shapes_specs() {
        let grid = FleetGrid {
            policies: vec![
                PolicyKind::DtAlpha,
                PolicyKind::FlexibleBounds,
                PolicyKind::DelayDriven,
            ],
            ..FleetGrid::default()
        };
        assert_eq!(grid.len(), 24);
        let cells = grid.cells();
        assert_eq!(cells[0].label, "s1-a0.50-single-dctcp-dt");
        assert_eq!(cells[1].label, "s1-a0.50-single-dctcp-fb");
        assert_eq!(cells[2].label, "s1-a0.50-single-dctcp-delay");
        assert_eq!(
            cells[1].spec.policy,
            ms_dcsim::BufferPolicySpec::FlexibleBounds
        );
        assert_eq!(cells[2].spec.policy.kind(), PolicyKind::DelayDriven);
        // DT cells carry the grid alpha.
        assert_eq!(
            cells[0].spec.policy,
            ms_dcsim::BufferPolicySpec::DtAlpha { alpha: 0.5 }
        );
    }

    #[test]
    fn topo_axis_multiplies_the_grid_and_labels_tree_cells() {
        let grid = FleetGrid {
            topos: vec![
                TopoPoint::SingleRack,
                TopoPoint::FatTree {
                    k: 4,
                    density_pct: 75,
                },
            ],
            ..FleetGrid::default()
        };
        assert_eq!(grid.len(), 16);
        let cells = grid.cells();
        // Single-rack cells keep the historical label, tree cells add a
        // trailing fragment.
        assert_eq!(cells[0].label, "s1-a0.50-single-dctcp-dt");
        assert_eq!(cells[1].label, "s1-a0.50-single-dctcp-dt-k4d75");
        assert!(cells[0].spec.topology.is_none());
        assert_eq!(cells[1].spec.num_servers, 16);
        assert!(matches!(
            cells[1].spec.topology,
            Some(TopologySpec::FatTree { .. })
        ));
        assert!(!cells[1].spec.topo_flows.is_empty());
        assert!(cells[1].spec.flows.is_empty());
    }

    #[test]
    fn density_places_sources_structurally() {
        let grid = FleetGrid::default();
        let pod_of = |h: u32| h / 4; // k=4: r=2, 4 hosts per pod
        let conns_by = |density: u32, pred: &dyn Fn(u32) -> bool| {
            let spec = grid.tree_cell_spec(
                1,
                1.0,
                PlacementKind::SingleVictim,
                CcAlgorithm::Dctcp,
                PolicyKind::DtAlpha,
                4,
                density,
            );
            spec.topo_flows
                .iter()
                .filter(|f| pred(f.flow.src_host))
                .map(|f| u64::from(f.flow.connections))
                .sum::<u64>()
        };
        // Density 0: every connection comes from the victim's own pod.
        assert_eq!(conns_by(0, &|src| pod_of(src) != 0), 0);
        assert_eq!(conns_by(0, &|src| pod_of(src) == 0), 80);
        // Density 100: every connection crosses pods through the spines.
        assert_eq!(conns_by(100, &|src| pod_of(src) == 0), 0);
        assert_eq!(conns_by(100, &|src| pod_of(src) != 0), 80);
        // Density 50: an even structural split.
        assert_eq!(conns_by(50, &|src| pod_of(src) == 0), 40);
        assert_eq!(conns_by(50, &|src| pod_of(src) != 0), 40);
    }

    #[test]
    fn topo_labels_round_trip_cli_fragments() {
        for t in [
            TopoPoint::SingleRack,
            TopoPoint::FatTree {
                k: 4,
                density_pct: 0,
            },
            TopoPoint::FatTree {
                k: 6,
                density_pct: 100,
            },
        ] {
            assert_eq!(TopoPoint::parse(&t.label()), Some(t));
        }
        for bad in ["k3d50", "k4d101", "k4", "d50", "k0d0", ""] {
            assert_eq!(TopoPoint::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn labels_round_trip_cli_fragments() {
        for p in [
            PlacementKind::SingleVictim,
            PlacementKind::PairedVictims,
            PlacementKind::Spread,
        ] {
            assert_eq!(PlacementKind::parse(p.label()), Some(p));
        }
        assert_eq!(PlacementKind::parse("bogus"), None);
    }
}
