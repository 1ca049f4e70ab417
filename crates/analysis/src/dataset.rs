//! Multi-rack aggregation: rack categorization and dataset summaries.
//!
//! §7.1 splits RegA racks by busy-hour average contention into
//! **RegA-High** (top 20 %) and **RegA-Typical** (the rest); Tables 1 and
//! 2 summarize the dataset per region and per category. This module holds
//! the observation record one `(rack, hour, run)` cell produces and the
//! aggregation helpers the experiment harness prints from.

use crate::classify::{ClassifiedBurst, RunAnalysis};
use crate::outcome::RunOutcome;

/// Which bucket of the §8 analysis a rack belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackCategory {
    /// RegA, bottom 80 % by busy-hour average contention.
    RegATypical,
    /// RegA, top 20 % by busy-hour average contention.
    RegAHigh,
    /// All of RegB.
    RegB,
}

impl std::fmt::Display for RackCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RackCategory::RegATypical => write!(f, "RegA-Typical"),
            RackCategory::RegAHigh => write!(f, "RegA-High"),
            RackCategory::RegB => write!(f, "RegB"),
        }
    }
}

/// One `(rack, hour)` observation produced by the sweep harness.
#[derive(Debug, Clone, PartialEq)]
pub struct RackHourObservation {
    /// Rack id within the region.
    pub rack_id: u32,
    /// Hour of day (0-23).
    pub hour: usize,
    /// The run analysis (bursts, contention, loss).
    pub analysis: RunAnalysis,
    /// The flattened result record (switch ground truth + analysis
    /// scalars) every aggregate consumer reads.
    pub outcome: RunOutcome,
}

/// Categorizes RegA racks by busy-hour average contention: the top
/// `high_fraction` (by value) become `RegAHigh`.
///
/// Input: `(rack_id, busy_hour_avg_contention)` pairs. Returns the rack
/// ids classified as high-contention.
pub fn categorize_rega_racks(
    busy_avgs: &[(u32, f64)],
    high_fraction: f64,
) -> std::collections::BTreeSet<u32> {
    let mut sorted: Vec<(u32, f64)> = busy_avgs.to_vec();
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let n_high = ((sorted.len() as f64) * high_fraction).round() as usize;
    sorted
        .iter()
        .rev()
        .take(n_high)
        .map(|(id, _)| *id)
        .collect()
}

/// The Table 1 row for one region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DatasetSummary {
    /// SyncMillisampler runs collected.
    pub runs: u64,
    /// Per-server runs (runs × servers that produced data).
    pub server_runs: u64,
    /// Server runs containing at least one burst.
    pub bursty_server_runs: u64,
    /// Total bursts.
    pub bursts: u64,
    /// Total sample points (server runs × buckets).
    pub sample_points: u64,
}

impl DatasetSummary {
    /// Accumulates one rack-hour observation.
    pub fn add(&mut self, obs: &RackHourObservation, buckets: usize) {
        self.runs += 1;
        self.server_runs += obs.analysis.active_servers as u64;
        self.bursty_server_runs += obs.analysis.bursty_servers as u64;
        self.bursts += obs.analysis.bursts.len() as u64;
        self.sample_points += (obs.analysis.active_servers * buckets) as u64;
    }
}

/// The Table 2 row for one rack category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategorySummary {
    /// Total bursts in the category.
    pub bursts: u64,
    /// Contended bursts.
    pub contended: u64,
    /// Lossy bursts.
    pub lossy: u64,
}

impl CategorySummary {
    /// Accumulates one burst.
    pub fn add(&mut self, burst: &ClassifiedBurst) {
        self.bursts += 1;
        self.contended += u64::from(burst.contended);
        self.lossy += u64::from(burst.lossy);
    }

    /// Percentage of bursts contended.
    pub fn pct_contended(&self) -> f64 {
        if self.bursts == 0 {
            return f64::NAN;
        }
        100.0 * self.contended as f64 / self.bursts as f64
    }

    /// Percentage of bursts lossy.
    pub fn pct_lossy(&self) -> f64 {
        if self.bursts == 0 {
            return f64::NAN;
        }
        100.0 * self.lossy as f64 / self.bursts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorize_top_fraction_by_value() {
        let avgs: Vec<(u32, f64)> = (0..10).map(|i| (i, i as f64)).collect();
        let high = categorize_rega_racks(&avgs, 0.2);
        assert_eq!(high.into_iter().collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn categorize_rounds_count() {
        let avgs: Vec<(u32, f64)> = (0..7).map(|i| (i, i as f64)).collect();
        // 20% of 7 = 1.4 → 1 rack.
        assert_eq!(categorize_rega_racks(&avgs, 0.2).len(), 1);
    }

    #[test]
    fn category_summary_percentages() {
        let mut s = CategorySummary {
            bursts: 200,
            contended: 150,
            lossy: 2,
        };
        assert!((s.pct_contended() - 75.0).abs() < 1e-12);
        assert!((s.pct_lossy() - 1.0).abs() < 1e-12);
        s.bursts = 0;
        assert!(s.pct_contended().is_nan());
    }

    #[test]
    fn category_summary_counts_each_burst_once() {
        let burst = |contended, lossy| ClassifiedBurst {
            burst: crate::burst::Burst {
                server: 0,
                start: 0,
                len: 1,
                bytes: 1,
                avg_conns: 1.0,
            },
            max_contention: if contended { 2 } else { 1 },
            contended,
            retx_bytes: u64::from(lossy),
            lossy,
        };
        let mut s = CategorySummary::default();
        for b in [burst(true, false), burst(true, true), burst(false, false)] {
            s.add(&b);
        }
        assert_eq!(
            s,
            CategorySummary {
                bursts: 3,
                contended: 2,
                lossy: 1,
            }
        );
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(RackCategory::RegAHigh.to_string(), "RegA-High");
        assert_eq!(RackCategory::RegATypical.to_string(), "RegA-Typical");
        assert_eq!(RackCategory::RegB.to_string(), "RegB");
    }
}
