//! Region-scale sweeps: every rack × selected hours, as cells of the
//! `ms-fleet` runner ([`run_cell`] on [`run_pool`]).

use ms_analysis::dataset::RackHourObservation;
use ms_analysis::RackCategory;
use ms_fleet::{run_cell, run_pool, FleetCell, FleetConfig};
use ms_workload::placement::{build_region, RackClass, RegionKind, RegionSpec};
use ms_workload::scenario::{rack_spec_for, ScenarioConfig};
use std::collections::BTreeSet;

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Racks per region.
    pub racks: usize,
    /// Servers per rack.
    pub servers: usize,
    /// Hours of day to run (e.g. `vec![7]` for the busy hour, `0..24` for
    /// diurnal figures).
    pub hours: Vec<usize>,
    /// Scenario knobs (window length, MSS, warm-up).
    pub scenario: ScenarioConfig,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

/// The scale `repro` runs at by default: 40 racks of 28 servers, 400 ms
/// windows, the busy hour.
impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            racks: 40,
            servers: 28,
            hours: vec![7],
            scenario: ScenarioConfig {
                buckets: 400,
                ..ScenarioConfig::default()
            },
            seed: 42,
            threads: 0,
        }
    }
}

/// The outcome of sweeping one region.
#[derive(Debug, Clone)]
pub struct RegionData {
    /// Which region archetype.
    pub kind: RegionKind,
    /// The placement (for Figs. 10–11).
    pub spec: RegionSpec,
    /// One observation per `(rack, hour)` cell, sorted by `(rack, hour)`.
    pub obs: Vec<RackHourObservation>,
    /// The sweep configuration used.
    pub config: SweepConfig,
}

impl RegionData {
    /// Observations for one hour.
    pub fn at_hour(&self, hour: usize) -> impl Iterator<Item = &RackHourObservation> {
        self.obs.iter().filter(move |o| o.hour == hour)
    }

    /// Busy-hour (hour 7) average contention per rack, the categorization
    /// input of §7.1. Racks with no busy-hour observation are skipped.
    pub fn busy_hour_avg_contention(&self) -> Vec<(u32, f64)> {
        self.at_hour(7)
            .map(|o| (o.rack_id, o.analysis.contention_stats.avg))
            .collect()
    }

    /// RegA-High rack ids (top 20 % by busy-hour average contention).
    /// Meaningless for RegB (the paper does not split RegB).
    pub fn high_contention_racks(&self) -> BTreeSet<u32> {
        ms_analysis::dataset::categorize_rega_racks(&self.busy_hour_avg_contention(), 0.2)
    }

    /// The §8 category of a rack, given the categorization set.
    pub fn category_of(&self, rack_id: u32, high: &BTreeSet<u32>) -> RackCategory {
        match self.kind {
            RegionKind::RegB => RackCategory::RegB,
            RegionKind::RegA => {
                if high.contains(&rack_id) {
                    RackCategory::RegAHigh
                } else {
                    RackCategory::RegATypical
                }
            }
        }
    }

    /// Ground-truth placement class of a rack (for validating that the
    /// contention-based categorization recovers the ML-dense set).
    pub fn placement_class(&self, rack_id: u32) -> RackClass {
        self.spec.racks[rack_id as usize].class
    }
}

/// Sweeps a region: simulates every `(rack, hour)` cell and analyzes the
/// resulting rack runs. Parallel over cells; the output order (and every
/// value in it) is independent of thread count.
pub fn sweep_region(kind: RegionKind, cfg: &SweepConfig) -> RegionData {
    let spec = build_region(kind, cfg.racks, cfg.servers, cfg.seed);

    let mut keys: Vec<(u32, usize)> = Vec::new();
    let mut cells: Vec<FleetCell> = Vec::new();
    for rack in &spec.racks {
        for &hour in &cfg.hours {
            keys.push((rack.rack_id, hour));
            cells.push(FleetCell {
                label: format!("rack{}-h{hour}", rack.rack_id),
                spec: rack_spec_for(rack, &spec.diurnal, hour, 0, &cfg.scenario),
            });
        }
    }

    let fleet = FleetConfig {
        jobs: cfg.threads,
        ..FleetConfig::default()
    };
    let runs = run_pool(&cells, &fleet, |_, idx| {
        let run = run_cell(&cells[idx].spec, keys[idx].0, &fleet);
        (run.analysis, run.outcome)
    });
    let mut obs: Vec<RackHourObservation> = keys
        .iter()
        .zip(runs)
        .map(|(&(rack_id, hour), run)| {
            let (analysis, outcome) =
                run.unwrap_or_else(|message| panic!("rack {rack_id} hour {hour}: {message}"));
            RackHourObservation {
                rack_id,
                hour,
                analysis,
                outcome,
            }
        })
        .collect();
    obs.sort_by_key(|o| (o.rack_id, o.hour));

    RegionData {
        kind,
        spec,
        obs,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            racks: 4,
            servers: 8,
            hours: vec![7],
            scenario: ScenarioConfig {
                buckets: 100,
                warmup: ms_dcsim::Ns::from_millis(20),
                ..ScenarioConfig::default()
            },
            seed: 7,
            threads: 2,
        }
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let data = sweep_region(RegionKind::RegA, &tiny_cfg());
        assert_eq!(data.obs.len(), 4);
        let ids: Vec<u32> = data.obs.iter().map(|o| o.rack_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(data.obs.iter().all(|o| o.hour == 7));
    }

    #[test]
    fn sweep_deterministic_across_thread_counts() {
        let one = sweep_region(
            RegionKind::RegA,
            &SweepConfig {
                threads: 1,
                ..tiny_cfg()
            },
        );
        let four = sweep_region(
            RegionKind::RegA,
            &SweepConfig {
                threads: 4,
                ..tiny_cfg()
            },
        );
        assert_eq!(one.obs.len(), four.obs.len());
        for (a, b) in one.obs.iter().zip(&four.obs) {
            assert_eq!(a.rack_id, b.rack_id);
            assert_eq!(a.analysis.total_in_bytes, b.analysis.total_in_bytes);
            assert_eq!(a.analysis.bursts, b.analysis.bursts);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn traffic_actually_flows_in_sweeps() {
        let data = sweep_region(RegionKind::RegB, &tiny_cfg());
        let total: u64 = data.obs.iter().map(|o| o.analysis.total_in_bytes).sum();
        assert!(total > 0, "sweep produced no traffic");
    }
}
