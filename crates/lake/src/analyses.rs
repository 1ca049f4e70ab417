//! Out-of-core recomputation of the paper's headline analyses.
//!
//! Both entry points stream lake chunks through the *same*
//! [`SweepAggregate`] integer fold the in-memory path uses, so the
//! result is bit-for-bit equal to folding the original `RunOutcome`s
//! and `BurstRow`s directly — over a lake of any size, holding at most
//! one chunk per open column.

use crate::query::{Batch, TableScan};
use crate::segment::TableKind;
use crate::writer::Lake;
use crate::LakeError;
use millisampler::HostSeries;
use ms_analysis::{BurstRow, RunOutcome, SweepAggregate};
use ms_dcsim::{Ns, PolicyKind, SimRng};

// Column indices of the `outcomes` table (on-disk order; see
// `segment::OUTCOME_COLS`).
const OC_STATUS: usize = 1;
const OC_LABEL: usize = 2;
const OC_FIRST_METRIC: usize = 4; // switch_ingress_bytes

/// Streams the whole lake through the shared sweep fold: contention
/// bimodality, burst-size CDFs, and the loss-vs-contention table.
pub fn lake_sweep_aggregate(lake: &Lake) -> Result<SweepAggregate, LakeError> {
    let mut agg = SweepAggregate::new();
    let mut batch = Batch::new();

    let mut outcomes = TableScan::full(lake, TableKind::Outcomes)?;
    while outcomes.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            if batch.value(OC_STATUS, row) != 0 {
                agg.add_failed_cell();
                continue;
            }
            agg.add_outcome(&outcome_from_row(&batch, row)?);
        }
    }

    let mut bursts = TableScan::full(lake, TableKind::Bursts)?;
    while bursts.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            agg.add_burst(&burst_from_row(&batch, row)?);
        }
    }
    Ok(agg)
}

/// Reconstructs a [`RunOutcome`] from a full-projection outcomes row.
/// Inverse of the flattening in `writer::append_cell`; floats come back
/// from their stored bit patterns, so the round trip is exact.
fn outcome_from_row(batch: &Batch, row: usize) -> Result<RunOutcome, LakeError> {
    let m = |i: usize| batch.value(OC_FIRST_METRIC + i, row);
    let m32 = |i: usize| batch.value_u32(OC_FIRST_METRIC + i, row);
    Ok(RunOutcome {
        switch_ingress_bytes: m(0),
        switch_discard_bytes: m(1),
        flows_started: m(2),
        conns_completed: m(3),
        events: m(4),
        total_in_bytes: m(5),
        total_retx_bytes: m(6),
        bursts: m(7),
        contended_bursts: m(8),
        lossy_bursts: m(9),
        contention_avg: f64::from_bits(m(10)),
        contention_p90: m32(11)?,
        contention_max: m32(12)?,
        active_servers: m32(13)?,
        bursty_servers: m32(14)?,
        // An unknown code means a lake written by a newer schema; fall
        // back to DT rather than refusing the whole scan.
        policy: PolicyKind::from_code(m(15)).unwrap_or(PolicyKind::DtAlpha),
    })
}

/// Scans the outcomes table into a `(cell, policy)` list, in cell
/// order — the join key that lets forensics rows (which carry no
/// policy column) be attributed per policy.
fn cell_policies(lake: &Lake) -> Result<Vec<(u64, PolicyKind)>, LakeError> {
    let cell_col = TableKind::Outcomes
        .column("cell")
        .ok_or(LakeError::Corrupt("outcomes table has no cell column"))?;
    let policy_col = TableKind::Outcomes
        .column("policy")
        .ok_or(LakeError::Corrupt("outcomes table has no policy column"))?;
    let mut out = Vec::new();
    let mut scan = TableScan::new(
        lake,
        TableKind::Outcomes,
        &[cell_col, policy_col],
        Vec::new(),
    )?;
    let mut batch = Batch::new();
    while scan.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            let policy = PolicyKind::from_code(batch.value(1, row)).unwrap_or(PolicyKind::DtAlpha);
            out.push((batch.value(0, row), policy));
        }
    }
    Ok(out)
}

/// Policy of `cell` in a [`cell_policies`] list (cells are compacted in
/// ascending order, so this is a binary search); DT when absent.
fn policy_of(cells: &[(u64, PolicyKind)], cell: u64) -> PolicyKind {
    cells
        .binary_search_by_key(&cell, |&(c, _)| c)
        .map(|i| cells[i].1)
        .unwrap_or(PolicyKind::DtAlpha)
}

/// Reconstructs a [`BurstRow`] from a full-projection bursts row.
fn burst_from_row(batch: &Batch, row: usize) -> Result<BurstRow, LakeError> {
    let v = |i: usize| batch.value(i, row);
    let v32 = |i: usize| batch.value_u32(i, row);
    Ok(BurstRow {
        cell: v32(0)?,
        server: v32(1)?,
        start: v32(2)?,
        len: v32(3)?,
        bytes: v(4),
        avg_conns: f64::from_bits(v(5)),
        max_contention: v32(6)?,
        contended: v(7) != 0,
        lossy: v(8) != 0,
        retx_bytes: v(9),
    })
}

/// Streams the outcomes table back out as the exact CSV the in-memory
/// `FleetReport::to_csv` renders — same header, same row order (the
/// lake is compacted in cell order, which is grid order), same bytes.
pub fn outcomes_csv(lake: &Lake) -> Result<String, LakeError> {
    let mut out = String::new();
    out.push_str("label,status,");
    out.push_str(RunOutcome::CSV_HEADER);
    out.push('\n');
    let empty_cells = RunOutcome::CSV_HEADER.matches(',').count() + 1;

    let mut scan = TableScan::full(lake, TableKind::Outcomes)?;
    let mut batch = Batch::new();
    while scan.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            let label_id = batch.value(OC_LABEL, row);
            let label = usize::try_from(label_id)
                .ok()
                .and_then(|i| scan.dict().get(i))
                .ok_or(LakeError::Corrupt("label id not in dictionary"))?;
            out.push_str(label);
            if batch.value(OC_STATUS, row) == 0 {
                out.push_str(",ok,");
                out.push_str(&outcome_from_row(&batch, row)?.csv_cells());
            } else {
                out.push_str(",failed");
                for _ in 0..empty_cells {
                    out.push(',');
                }
            }
            out.push('\n');
        }
    }
    Ok(out)
}

// Column indices of the `forensics` table (on-disk order; see
// `segment::FORENSIC_COLS`).
const FO_CELL: usize = 0;
const FO_QUEUE: usize = 2;
const FO_REASON: usize = 5;
const FO_CAUSE: usize = 6;

/// One cell's drop-attribution counts from the lake's forensics table:
/// how many drops §8 classifies as each cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellAttribution {
    /// Sweep-global cell index.
    pub cell: u64,
    /// Drops where the victim flow's own burst dominated the window.
    pub self_burst: u64,
    /// Drops where competing flows dominated the window.
    pub cross_contention: u64,
    /// Drops away from the shared-buffer switch (fabric FIFO, NIC fault).
    pub fabric_transient: u64,
}

impl CellAttribution {
    /// All classified drops in the cell.
    pub fn total(&self) -> u64 {
        self.self_burst + self.cross_contention + self.fabric_transient
    }
}

/// Streams the forensics table into a per-cell attribution histogram —
/// the paper's §8 loss split, recomputed out-of-core. Rows come back in
/// cell order (the lake is compacted in cell order); cells with no
/// forensics are absent.
pub fn lake_loss_attribution(lake: &Lake) -> Result<Vec<CellAttribution>, LakeError> {
    let mut out: Vec<CellAttribution> = Vec::new();
    let mut scan = TableScan::new(lake, TableKind::Forensics, &[FO_CELL, FO_CAUSE], Vec::new())?;
    let mut batch = Batch::new();
    while scan.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            let cell = batch.value(0, row);
            if out.last().map_or(true, |a| a.cell != cell) {
                out.push(CellAttribution {
                    cell,
                    ..CellAttribution::default()
                });
            }
            let a = out
                .last_mut()
                .ok_or(LakeError::Corrupt("empty attribution"))?;
            match batch.value(1, row) {
                0 => a.self_burst += 1,
                1 => a.cross_contention += 1,
                2 => a.fabric_transient += 1,
                _ => return Err(LakeError::Corrupt("bad cause code in forensics table")),
            }
        }
    }
    Ok(out)
}

/// Renders [`lake_loss_attribution`] as deterministic CSV, each cell
/// joined with the buffer policy its outcome row recorded.
pub fn attribution_csv(lake: &Lake) -> Result<String, LakeError> {
    use std::fmt::Write;
    let policies = cell_policies(lake)?;
    let mut out = String::from("cell,policy,self_burst,cross_contention,fabric_transient,total\n");
    for a in lake_loss_attribution(lake)? {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            a.cell,
            policy_of(&policies, a.cell).label(),
            a.self_burst,
            a.cross_contention,
            a.fabric_transient,
            a.total()
        );
    }
    Ok(out)
}

/// One cell's drop counts split by the switch tier that discarded — ToR,
/// agg, or spine per the tier code packed into each forensic's queue id
/// (see `ms_telemetry::qid`), plus off-switch drops (fabric FIFO, NIC
/// fault), which are routed by their `FabricTransient` cause rather than
/// by queue id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellTierDrops {
    /// Sweep-global cell index.
    pub cell: u64,
    /// Drops at top-of-rack switches (and the legacy single-rack ToR).
    pub tor: u64,
    /// Drops at pod aggregation switches.
    pub agg: u64,
    /// Drops at spine switches.
    pub spine: u64,
    /// Drops away from any shared-buffer switch.
    pub offswitch: u64,
}

impl CellTierDrops {
    /// All classified drops in the cell.
    pub fn total(&self) -> u64 {
        self.tor + self.agg + self.spine + self.offswitch
    }
}

/// Streams the forensics table into per-cell tier histograms — where in
/// the fat tree each cell's loss happened. Rows come back in cell order;
/// cells with no forensics are absent.
pub fn lake_tier_drops(lake: &Lake) -> Result<Vec<CellTierDrops>, LakeError> {
    let mut out: Vec<CellTierDrops> = Vec::new();
    let mut scan = TableScan::new(
        lake,
        TableKind::Forensics,
        &[FO_CELL, FO_QUEUE, FO_CAUSE],
        Vec::new(),
    )?;
    let mut batch = Batch::new();
    while scan.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            let cell = batch.value(0, row);
            if out.last().map_or(true, |a| a.cell != cell) {
                out.push(CellTierDrops {
                    cell,
                    ..CellTierDrops::default()
                });
            }
            let a = out.last_mut().ok_or(LakeError::Corrupt("empty tiers"))?;
            let offswitch =
                batch.value(2, row) == u64::from(ms_telemetry::DropCause::FabricTransient.code());
            if offswitch {
                a.offswitch += 1;
                continue;
            }
            let qid = u32::try_from(batch.value(1, row))
                .map_err(|_| LakeError::Corrupt("bad queue id in forensics table"))?;
            match ms_telemetry::qid::qid_tier(qid) {
                ms_telemetry::qid::TIER_TOR => a.tor += 1,
                ms_telemetry::qid::TIER_AGG => a.agg += 1,
                ms_telemetry::qid::TIER_SPINE => a.spine += 1,
                _ => return Err(LakeError::Corrupt("bad tier code in forensics table")),
            }
        }
    }
    Ok(out)
}

/// Renders [`lake_tier_drops`] as deterministic CSV, one row per cell
/// with any classified drops.
pub fn tiers_csv(lake: &Lake) -> Result<String, LakeError> {
    use std::fmt::Write;
    let mut out = String::from("cell,tor,agg,spine,offswitch,total\n");
    for a in lake_tier_drops(lake)? {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            a.cell,
            a.tor,
            a.agg,
            a.spine,
            a.offswitch,
            a.total()
        );
    }
    Ok(out)
}

/// Per-policy rollup of one sweep: loss, bursts, and the §8 drop
/// attribution, folded across every cell that ran the policy. One CSV
/// row per policy present in the lake, in policy-code order — the
/// "does buffer sharing move cross-contention loss?" table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCompare {
    /// The buffer policy this row aggregates.
    pub policy: PolicyKind,
    /// Completed cells that ran this policy.
    pub cells: u64,
    /// Switch-admitted bytes summed over those cells.
    pub ingress_bytes: u64,
    /// Switch-discarded bytes summed over those cells.
    pub discard_bytes: u64,
    /// Bursts detected, summed.
    pub bursts: u64,
    /// Bursts classified contended, summed.
    pub contended_bursts: u64,
    /// Bursts classified lossy, summed.
    pub lossy_bursts: u64,
    /// Drops §8 attributes to the victim's own burst.
    pub self_burst: u64,
    /// Drops §8 attributes to competing flows.
    pub cross_contention: u64,
    /// Drops away from the shared-buffer switch.
    pub fabric_transient: u64,
}

impl PolicyCompare {
    /// Discarded bytes over admitted bytes (NaN when nothing arrived).
    pub fn loss_rate(&self) -> f64 {
        if self.ingress_bytes == 0 {
            return f64::NAN;
        }
        self.discard_bytes as f64 / self.ingress_bytes as f64
    }

    /// Cross-contention share of all attributed drops (NaN when none).
    pub fn cross_share(&self) -> f64 {
        let total = self.self_burst + self.cross_contention + self.fabric_transient;
        if total == 0 {
            return f64::NAN;
        }
        self.cross_contention as f64 / total as f64
    }
}

/// Folds the outcomes and forensics tables into one [`PolicyCompare`]
/// per policy present in the lake, in policy-code order. Failed cells
/// are excluded (their rows carry no real outcome).
pub fn lake_policy_compare(lake: &Lake) -> Result<Vec<PolicyCompare>, LakeError> {
    let mut per: [Option<PolicyCompare>; PolicyKind::ALL.len()] = [None; PolicyKind::ALL.len()];
    let slot =
        |per: &mut [Option<PolicyCompare>; PolicyKind::ALL.len()], policy: PolicyKind| -> usize {
            let i = policy.code() as usize;
            if per[i].is_none() {
                per[i] = Some(PolicyCompare {
                    policy,
                    cells: 0,
                    ingress_bytes: 0,
                    discard_bytes: 0,
                    bursts: 0,
                    contended_bursts: 0,
                    lossy_bursts: 0,
                    self_burst: 0,
                    cross_contention: 0,
                    fabric_transient: 0,
                });
            }
            i
        };

    let mut outcomes = TableScan::full(lake, TableKind::Outcomes)?;
    let mut batch = Batch::new();
    while outcomes.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            if batch.value(OC_STATUS, row) != 0 {
                continue;
            }
            let o = outcome_from_row(&batch, row)?;
            let i = slot(&mut per, o.policy);
            let p = per[i].as_mut().expect("slot initialised above");
            p.cells += 1;
            p.ingress_bytes += o.switch_ingress_bytes;
            p.discard_bytes += o.switch_discard_bytes;
            p.bursts += o.bursts;
            p.contended_bursts += o.contended_bursts;
            p.lossy_bursts += o.lossy_bursts;
        }
    }

    let policies = cell_policies(lake)?;
    for a in lake_loss_attribution(lake)? {
        let i = slot(&mut per, policy_of(&policies, a.cell));
        let p = per[i].as_mut().expect("slot initialised above");
        p.self_burst += a.self_burst;
        p.cross_contention += a.cross_contention;
        p.fabric_transient += a.fabric_transient;
    }

    Ok(per.into_iter().flatten().collect())
}

/// Renders [`lake_policy_compare`] as deterministic CSV (fixed float
/// precision, policy-code row order).
pub fn policy_compare_csv(lake: &Lake) -> Result<String, LakeError> {
    use std::fmt::Write;
    let mut out = String::from(
        "policy,cells,ingress_bytes,discard_bytes,loss_rate,bursts,contended_bursts,\
         lossy_bursts,self_burst,cross_contention,fabric_transient,cross_share\n",
    );
    for p in lake_policy_compare(lake)? {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{},{},{},{},{},{},{:.6}",
            p.policy.label(),
            p.cells,
            p.ingress_bytes,
            p.discard_bytes,
            p.loss_rate(),
            p.bursts,
            p.contended_bursts,
            p.lossy_bursts,
            p.self_burst,
            p.cross_contention,
            p.fabric_transient,
            p.cross_share()
        );
    }
    Ok(out)
}

/// Streams the forensics table back out as CSV, one row per classified
/// drop, with reason/cause codes rendered as their stable names.
pub fn forensics_csv(lake: &Lake) -> Result<String, LakeError> {
    use ms_telemetry::{DropCause, DropReason};
    use std::fmt::Write;
    let mut out = String::new();
    let cols = TableKind::Forensics.columns();
    out.push_str(&cols.join(","));
    out.push('\n');
    let mut scan = TableScan::full(lake, TableKind::Forensics)?;
    let mut batch = Batch::new();
    while scan.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            for col in 0..cols.len() {
                if col > 0 {
                    out.push(',');
                }
                let v = batch.value(col, row);
                match col {
                    FO_REASON => {
                        let reason = DropReason::ALL
                            .iter()
                            .find(|r| u64::from(r.code()) == v)
                            .ok_or(LakeError::Corrupt("bad reason code in forensics table"))?;
                        out.push_str(reason.as_str());
                    }
                    FO_CAUSE => {
                        let cause = u8::try_from(v)
                            .ok()
                            .and_then(DropCause::from_code)
                            .ok_or(LakeError::Corrupt("bad cause code in forensics table"))?;
                        out.push_str(cause.as_str());
                    }
                    _ => {
                        let _ = write!(out, "{v}");
                    }
                }
            }
            out.push('\n');
        }
    }
    Ok(out)
}

/// Synthesizes `hosts` smooth diurnal millisampler series of `buckets`
/// samples each — the bench corpus for the lake's compression-ratio
/// gate. Deterministic in `seed`; integer arithmetic only (a triangular
/// day-cycle plus bounded jitter), so identical inputs give identical
/// series on every platform. The smoothness is the point: real rack
/// traffic has strong bucket-to-bucket correlation, which is what the
/// delta encoding exploits.
pub fn synth_diurnal_series(
    seed: u64,
    hosts: u32,
    buckets: usize,
    interval: Ns,
) -> Vec<HostSeries> {
    const DAY_MS: u64 = 86_400_000;
    let mut root = SimRng::new(seed);
    let mut out = Vec::with_capacity(hosts as usize);
    for host in 0..hosts {
        let mut rng = root.fork(u64::from(host));
        let mut s = HostSeries::zeroed(host, Ns::ZERO, interval, buckets);
        for b in 0..buckets {
            let t_ms = (b as u64).wrapping_mul(interval.as_millis()) % DAY_MS;
            // Triangular diurnal load factor in [0, HALF_DAY].
            let half = DAY_MS / 2;
            let tri = if t_ms < half { t_ms } else { DAY_MS - t_ms };
            // Scale to a byte rate: quiet troughs ~50 kB, busy peaks ~1 MB.
            let base = 50_000 + tri * 950_000 / half;
            let jitter = rng.gen_range(base / 8 + 1);
            s.in_bytes[b] = base + jitter;
            s.out_bytes[b] = base / 2 + rng.gen_range(base / 16 + 1);
            s.conns[b] = 4 + tri * 28 / half + rng.gen_range(3);
            // Rare loss and ECN marks, denser at peak load.
            if rng.gen_range(DAY_MS) < tri / 4 {
                s.in_retx[b] = 1460 * (1 + rng.gen_range(4));
            }
            if rng.gen_range(DAY_MS) < tri {
                s.in_ecn[b] = 1460 * (1 + rng.gen_range(8));
            }
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::CellRows;
    use crate::writer::{LakeConfig, LakeWriter};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        #[expect(
            clippy::disallowed_methods,
            reason = "tests write scratch lakes under the system temp dir"
        )]
        let base = std::env::temp_dir();
        let dir = base.join(format!("ms-lake-analyses-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn outcome(i: u64) -> RunOutcome {
        let mut o = RunOutcome::empty();
        o.switch_ingress_bytes = 1000 * i;
        o.switch_discard_bytes = i;
        o.bursts = i % 4;
        o.lossy_bursts = i % 2;
        o.contention_avg = i as f64 * 0.37;
        o.contention_max = i as u32;
        o
    }

    fn burst(cell: u64, i: u32) -> BurstRow {
        BurstRow {
            cell: cell as u32,
            server: i,
            start: i * 3,
            len: 1 + i % 5,
            bytes: 10_000 * u64::from(i + 1),
            avg_conns: f64::from(i) * 0.5 + 1.0,
            max_contention: i % 7,
            contended: i % 7 >= 2,
            lossy: i % 3 == 0,
            retx_bytes: u64::from(i % 3 == 0) * 1460,
        }
    }

    fn forensic(cell: u64, i: u64) -> ms_telemetry::DropForensic {
        use ms_telemetry::{DropCause, DropReason};
        let cause = DropCause::from_code((i % 3) as u8).unwrap();
        ms_telemetry::DropForensic {
            ns: cell * 1_000_000 + i,
            queue: (i % 4) as u32,
            flow: cell * 10 + i,
            size: 1500,
            reason: DropReason::DynamicThresholdReject,
            cause,
            queue_occupancy: 50_000 + i,
            shared_occupancy: 120_000 + i,
            dt_threshold: 48_000,
            burst_len: 1 + (i % 7) as u32,
            competing_flows: (i % 5) as u32,
            self_bytes: 3_000 * i,
            other_bytes: 9_000 * i,
            ecn_on: i % 2 == 0,
            recent_kinds: 0x0101 * i,
        }
    }

    /// One zero row of `cols` columns, with 2^32 in column `bad`.
    fn row_with(cols: usize, bad: Option<usize>) -> Batch {
        Batch {
            cols: (0..cols)
                .map(|c| vec![if Some(c) == bad { 1 << 32 } else { 0 }])
                .collect(),
            rows: 1,
        }
    }

    #[test]
    fn u32_columns_past_u32_max_are_corrupt_not_truncated() {
        use crate::segment::{BURST_COLS, OUTCOME_COLS};
        let n = OUTCOME_COLS.len();
        assert!(outcome_from_row(&row_with(n, None), 0).is_ok());
        for m in 11..=14 {
            let bad = row_with(n, Some(OC_FIRST_METRIC + m));
            assert!(
                matches!(outcome_from_row(&bad, 0), Err(LakeError::Corrupt(_))),
                "outcome metric {m}"
            );
        }
        let n = BURST_COLS.len();
        assert!(burst_from_row(&row_with(n, None), 0).is_ok());
        for col in [0, 1, 2, 3, 6] {
            assert!(
                matches!(
                    burst_from_row(&row_with(n, Some(col)), 0),
                    Err(LakeError::Corrupt(_))
                ),
                "burst column {col}"
            );
        }
    }

    /// Builds a lake and the in-memory fold over the same rows.
    fn build(dir: &PathBuf, cells: u64) -> (Lake, SweepAggregate) {
        let w = LakeWriter::create(
            dir,
            LakeConfig {
                chunk_rows: 8,
                segment_rows: 16,
            },
        )
        .unwrap();
        let mut expect = SweepAggregate::new();
        let mut shard = w.shard_writer(0).unwrap();
        for c in 0..cells {
            let rows = if c % 5 == 4 {
                expect.add_failed_cell();
                CellRows::failed(c, &format!("cell-{c}"), String::from("boom"))
            } else {
                let o = outcome(c);
                let bursts: Vec<BurstRow> = (0..(c % 4) as u32).map(|i| burst(c, i)).collect();
                expect.add_outcome(&o);
                for b in &bursts {
                    expect.add_burst(b);
                }
                CellRows {
                    cell: c,
                    label: format!("cell-{c}"),
                    outcome: Some(Ok(o)),
                    bursts,
                    series: Vec::new(),
                    forensics: (0..(c % 3)).map(|i| forensic(c, i)).collect(),
                }
            };
            shard.append(&rows).unwrap();
        }
        shard.finish().unwrap();
        w.compact().unwrap();
        (Lake::open(dir).unwrap(), expect)
    }

    #[test]
    fn lake_aggregate_matches_in_memory_fold_bit_for_bit() {
        let dir = temp_dir("agg");
        let (lake, expect) = build(&dir, 23);
        let got = lake_sweep_aggregate(&lake).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got.to_csv(), expect.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcomes_csv_matches_fleet_report_shape() {
        let dir = temp_dir("csv");
        let (lake, _) = build(&dir, 7);
        let csv = outcomes_csv(&lake).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 8); // header + 7 cells in cell order
        assert!(lines[0].starts_with("label,status,switch_ingress_bytes"));
        assert!(lines[1].starts_with("cell-0,ok,"));
        assert!(lines[5].starts_with("cell-4,failed,"));
        let header_cols = lines[0].matches(',').count();
        for line in &lines[1..] {
            assert_eq!(line.matches(',').count(), header_cols, "bad row: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loss_attribution_folds_the_forensics_table_per_cell() {
        let dir = temp_dir("attr");
        // build() gives cell c (c % 3) forensics with causes cycling
        // 0,1,2 — so cells with 1 forensic are pure self-burst, cells
        // with 2 add one cross-contention, and cells c % 3 == 0 are
        // absent from the histogram.
        let (lake, _) = build(&dir, 9);
        let attr = lake_loss_attribution(&lake).unwrap();
        let cells: Vec<u64> = attr.iter().map(|a| a.cell).collect();
        assert_eq!(cells, vec![1, 2, 5, 7, 8]); // c%3 != 0, minus failed cells 4
        for a in &attr {
            assert_eq!(a.self_burst, 1);
            assert_eq!(a.cross_contention, u64::from(a.cell % 3 == 2));
            assert_eq!(a.fabric_transient, 0);
            assert_eq!(a.total(), a.cell % 3);
        }
        let csv = attribution_csv(&lake).unwrap();
        assert!(csv.starts_with("cell,policy,self_burst,cross_contention,fabric_transient,total\n"));
        // build() writes default-policy outcomes, so the join column is dt.
        assert!(csv.contains("\n2,dt,1,1,0,2\n"), "{csv}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier_drops_split_by_packed_queue_id() {
        use ms_telemetry::qid::{pack_qid, OFFSWITCH_QID, TIER_AGG, TIER_SPINE, TIER_TOR};
        let dir = temp_dir("tiers");
        let w = LakeWriter::create(
            &dir,
            LakeConfig {
                chunk_rows: 8,
                segment_rows: 16,
            },
        )
        .unwrap();
        let mk = |queue: u32, cause_code: u8| {
            let mut f = forensic(0, 0);
            f.queue = queue;
            f.cause = ms_telemetry::DropCause::from_code(cause_code).unwrap();
            f
        };
        let mut shard = w.shard_writer(0).unwrap();
        shard
            .append(&CellRows {
                cell: 0,
                label: String::from("cell-0"),
                outcome: Some(Ok(outcome(1))),
                bursts: Vec::new(),
                series: Vec::new(),
                forensics: vec![
                    mk(pack_qid(TIER_TOR, 0, 1), 1),
                    mk(pack_qid(TIER_AGG, 5, 2), 1),
                    mk(pack_qid(TIER_AGG, 5, 2), 0),
                    mk(pack_qid(TIER_SPINE, 3, 0), 1),
                    // Off-switch drops route by cause, not queue id.
                    mk(OFFSWITCH_QID, 2),
                    // Legacy single-rack forensics carry a bare port id.
                    mk(7, 1),
                ],
            })
            .unwrap();
        shard.finish().unwrap();
        w.compact().unwrap();
        let lake = Lake::open(&dir).unwrap();
        let rows = lake_tier_drops(&lake).unwrap();
        assert_eq!(
            rows,
            vec![CellTierDrops {
                cell: 0,
                tor: 2,
                agg: 2,
                spine: 1,
                offswitch: 1,
            }]
        );
        assert_eq!(
            tiers_csv(&lake).unwrap(),
            "cell,tor,agg,spine,offswitch,total\n0,2,2,1,1,6\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_compare_folds_outcomes_and_attribution_per_policy() {
        use ms_dcsim::PolicyKind;
        let dir = temp_dir("pcmp");
        let w = LakeWriter::create(
            &dir,
            LakeConfig {
                chunk_rows: 8,
                segment_rows: 16,
            },
        )
        .unwrap();
        // Six cells alternating dt / fb (cell % 2), each with (c % 3)
        // forensics cycling causes 0,1,2 — plus one failed cell that
        // must not count toward either policy.
        let mut shard = w.shard_writer(0).unwrap();
        for c in 0..6u64 {
            let mut o = outcome(c + 1);
            o.policy = if c % 2 == 0 {
                PolicyKind::DtAlpha
            } else {
                PolicyKind::FlexibleBounds
            };
            shard
                .append(&CellRows {
                    cell: c,
                    label: format!("cell-{c}"),
                    outcome: Some(Ok(o)),
                    bursts: Vec::new(),
                    series: Vec::new(),
                    forensics: (0..(c % 3)).map(|i| forensic(c, i)).collect(),
                })
                .unwrap();
        }
        shard
            .append(&CellRows::failed(6, "cell-6", String::from("boom")))
            .unwrap();
        shard.finish().unwrap();
        w.compact().unwrap();
        let lake = Lake::open(&dir).unwrap();

        let rows = lake_policy_compare(&lake).unwrap();
        assert_eq!(rows.len(), 2);
        let dt = &rows[0];
        let fb = &rows[1];
        assert_eq!(dt.policy, PolicyKind::DtAlpha);
        assert_eq!(fb.policy, PolicyKind::FlexibleBounds);
        // Cells 0,2,4 are dt (outcome indices 1,3,5); 1,3,5 are fb
        // (outcome indices 2,4,6). outcome(i) has ingress 1000*i.
        assert_eq!(dt.cells, 3);
        assert_eq!(fb.cells, 3);
        assert_eq!(dt.ingress_bytes, 1000 * (1 + 3 + 5));
        assert_eq!(fb.ingress_bytes, 1000 * (2 + 4 + 6));
        // Forensics: cell c carries c % 3 rows → dt cells 0,2,4 give
        // 0+2+1 = 3 drops (2 self, 1 cross), fb cells 1,3,5 give
        // 1+0+2 = 3 drops (2 self, 1 cross).
        assert_eq!((dt.self_burst, dt.cross_contention), (2, 1));
        assert_eq!((fb.self_burst, fb.cross_contention), (2, 1));
        assert_eq!(dt.fabric_transient + fb.fabric_transient, 0);

        let csv = policy_compare_csv(&lake).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("policy,cells,ingress_bytes"));
        assert!(lines[1].starts_with("dt,3,9000,"), "{csv}");
        assert!(lines[2].starts_with("fb,3,12000,"), "{csv}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forensics_csv_renders_codes_as_names() {
        let dir = temp_dir("fcsv");
        let (lake, _) = build(&dir, 6);
        let csv = forensics_csv(&lake).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("cell,ns,queue,flow,size,reason,cause,"));
        // build() gives cells 1,2,3,5 forensics: 1+2+0+2 = 5 rows.
        assert_eq!(lines.len(), 1 + 5);
        for line in &lines[1..] {
            assert!(
                line.contains(",dynamic-threshold-reject,"),
                "bad row: {line}"
            );
        }
        assert!(csv.contains(",self-burst,"));
        assert!(csv.contains(",cross-contention,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diurnal_series_is_deterministic_and_smooth() {
        let interval = Ns::from_millis(50);
        let a = synth_diurnal_series(7, 2, 500, interval);
        let b = synth_diurnal_series(7, 2, 500, interval);
        assert_eq!(a, b);
        let c = synth_diurnal_series(8, 2, 500, interval);
        assert_ne!(a, c);
        // Smoothness: the mean absolute bucket-to-bucket delta is far
        // below the mean level, which is what delta encoding compresses.
        let s = &a[0].in_bytes;
        let mean: u64 = s.iter().sum::<u64>() / s.len() as u64;
        let mean_delta: u64 =
            s.windows(2).map(|w| w[0].abs_diff(w[1])).sum::<u64>() / (s.len() as u64 - 1);
        assert!(
            mean_delta * 4 < mean,
            "mean {mean}, mean_delta {mean_delta}"
        );
        let _ = interval;
    }
}
