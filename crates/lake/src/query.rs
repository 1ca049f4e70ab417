//! Pull-based streaming scans over a compacted lake.
//!
//! The model is deliberately small: a [`TableScan`] yields column-major
//! [`Batch`]es of at most one chunk, pulled by the consumer. It walks a
//! table's segments in manifest order, skips chunks whose footer
//! `(min, max)` ranges prove no row can match ([`ColumnRange`]
//! predicate pushdown), verifies each surviving chunk's checksum, and
//! decodes only the projected columns. The terminal fold
//! ([`for_each_row`]) drives the pull loop.
//!
//! Memory is bounded by construction: a scan holds one chunk record
//! buffer plus the decoded projected columns of that one chunk —
//! never a whole segment, never the whole lake. [`ScanStats`] records
//! `peak_resident_rows` so tests can assert the bound instead of
//! trusting it.

use crate::segment::{ColumnReader, SegmentReader, TableKind};
use crate::writer::Lake;
use crate::LakeError;
use std::path::PathBuf;

/// A column-major slice of rows (at most one chunk).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// One vector per projected column, each `rows` long.
    pub cols: Vec<Vec<u64>>,
    /// Rows in the batch.
    pub rows: usize,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Value of projected column `col` at `row`.
    pub fn value(&self, col: usize, row: usize) -> u64 {
        self.cols[col][row]
    }

    /// Value of a column written from a `u32` field; a stored value past
    /// `u32::MAX` is corruption, not something to truncate.
    pub(crate) fn value_u32(&self, col: usize, row: usize) -> Result<u32, LakeError> {
        u32::try_from(self.value(col, row))
            .map_err(|_| LakeError::Corrupt("u32 column value past u32::MAX"))
    }

    fn reset(&mut self, ncols: usize) {
        self.cols.resize(ncols, Vec::new());
        self.cols.truncate(ncols);
        for c in &mut self.cols {
            c.clear();
        }
        self.rows = 0;
    }
}

/// Counters a scan accumulates; the out-of-core proof lives in
/// `peak_resident_rows`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks read, verified, and decoded.
    pub chunks_read: u64,
    /// Chunks skipped by footer min/max pushdown without being read.
    pub chunks_skipped: u64,
    /// Rows decoded across all chunks.
    pub rows_scanned: u64,
    /// Largest number of rows resident at once (≤ the chunk row budget).
    pub peak_resident_rows: u64,
}

/// An inclusive value range on one (on-disk) column; chunks whose
/// footer `(min, max)` cannot intersect it are skipped unread.
#[derive(Debug, Clone, Copy)]
pub struct ColumnRange {
    /// On-disk column index the range constrains.
    pub col: usize,
    /// Smallest admissible value.
    pub min: u64,
    /// Largest admissible value.
    pub max: u64,
}

/// A projected, pushdown-filtered scan of one table across every
/// segment of a lake.
#[derive(Debug)]
pub struct TableScan {
    paths: Vec<PathBuf>,
    projection: Vec<usize>,
    ranges: Vec<ColumnRange>,
    seg_idx: usize,
    chunk_idx: usize,
    reader: Option<SegmentReader<std::fs::File>>,
    dict: Vec<String>,
    buf: Vec<u8>,
    stats: ScanStats,
}

impl TableScan {
    /// A scan of `table` returning the columns in `projection` (on-disk
    /// indices, in the order the consumer wants them), skipping chunks
    /// that cannot satisfy `ranges`.
    pub fn new(
        lake: &Lake,
        table: TableKind,
        projection: &[usize],
        ranges: Vec<ColumnRange>,
    ) -> Result<Self, LakeError> {
        let ncols = table.columns().len();
        for &c in projection {
            if c >= ncols {
                return Err(LakeError::Invalid(format!(
                    "projection column {c} out of range for table {}",
                    table.name()
                )));
            }
        }
        for r in &ranges {
            if r.col >= ncols {
                return Err(LakeError::Invalid(format!(
                    "predicate column {} out of range for table {}",
                    r.col,
                    table.name()
                )));
            }
        }
        Ok(TableScan {
            paths: lake.segments(table),
            projection: projection.to_vec(),
            ranges,
            seg_idx: 0,
            chunk_idx: 0,
            reader: None,
            dict: Vec::new(),
            buf: Vec::new(),
            stats: ScanStats::default(),
        })
    }

    /// A full-table scan of every column in on-disk order.
    pub fn full(lake: &Lake, table: TableKind) -> Result<Self, LakeError> {
        let all: Vec<usize> = (0..table.columns().len()).collect();
        TableScan::new(lake, table, &all, Vec::new())
    }

    /// String dictionary of the segment the most recent batch came from.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Scan counters so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Pulls the next non-empty batch into `out` (reusing its
    /// allocations); `Ok(false)` at end of stream.
    pub fn next_batch(&mut self, out: &mut Batch) -> Result<bool, LakeError> {
        loop {
            if self.reader.is_none() {
                let Some(path) = self.paths.get(self.seg_idx) else {
                    return Ok(false);
                };
                let reader = SegmentReader::open(std::fs::File::open(path)?)?;
                self.dict = reader.dict.clone();
                self.chunk_idx = 0;
                self.reader = Some(reader);
            }
            let reader = self
                .reader
                .as_mut()
                .ok_or(LakeError::Corrupt("scan reader vanished"))?;
            let Some(info) = reader.chunks.get(self.chunk_idx) else {
                self.reader = None;
                self.seg_idx += 1;
                continue;
            };
            let idx = self.chunk_idx;
            self.chunk_idx += 1;
            let prunable = self.ranges.iter().any(|r| {
                let (min, max) = info.minmax[r.col];
                info.rows > 0 && (max < r.min || min > r.max)
            });
            if prunable {
                self.stats.chunks_skipped += 1;
                continue;
            }
            reader.read_chunk(idx, &mut self.buf)?;
            let (rows, cols) = reader.chunk_columns(idx, &self.buf)?;
            out.reset(self.projection.len());
            for (slot, &ci) in self.projection.iter().enumerate() {
                let col = cols
                    .get(ci)
                    .ok_or(LakeError::Corrupt("projected column missing"))?;
                let mut r = ColumnReader::new(col, rows);
                let dst = &mut out.cols[slot];
                dst.reserve(rows as usize);
                r.for_each(|v| dst.push(v))?;
                if !r.fully_consumed() {
                    return Err(LakeError::Corrupt("column has trailing bytes"));
                }
            }
            out.rows = rows as usize;
            self.stats.chunks_read += 1;
            self.stats.rows_scanned += rows;
            self.stats.peak_resident_rows = self.stats.peak_resident_rows.max(rows);
            if rows == 0 {
                continue;
            }
            return Ok(true);
        }
    }
}

/// Terminal fold: pulls every batch out of `scan` and calls `f` once
/// per row.
pub fn for_each_row(
    scan: &mut TableScan,
    mut f: impl FnMut(&Batch, usize),
) -> Result<(), LakeError> {
    let mut batch = Batch::new();
    while scan.next_batch(&mut batch)? {
        for row in 0..batch.rows {
            f(&batch, row);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::CellRows;
    use crate::writer::{LakeConfig, LakeWriter};
    use millisampler::HostSeries;
    use ms_dcsim::Ns;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        #[expect(
            clippy::disallowed_methods,
            reason = "tests write scratch lakes under the system temp dir"
        )]
        let dir = std::env::temp_dir().join(format!("ms-lake-query-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A lake whose series table has `cells` cells × `buckets` rows,
    /// chunked at `chunk_rows`.
    fn series_lake(dir: &PathBuf, cells: u64, buckets: usize, chunk_rows: usize) -> Lake {
        let w = LakeWriter::create(
            dir,
            LakeConfig {
                chunk_rows,
                segment_rows: u64::MAX,
            },
        )
        .unwrap();
        let mut shard = w.shard_writer(0).unwrap();
        for c in 0..cells {
            let mut s = HostSeries::zeroed(0, Ns::from_millis(c), Ns::from_millis(1), buckets);
            for (i, v) in s.in_bytes.iter_mut().enumerate() {
                *v = c * 10_000 + i as u64;
            }
            shard
                .append(&CellRows {
                    cell: c,
                    label: format!("cell-{c}"),
                    outcome: None,
                    bursts: Vec::new(),
                    series: vec![s],
                    forensics: Vec::new(),
                })
                .unwrap();
        }
        shard.finish().unwrap();
        w.compact().unwrap();
        Lake::open(dir).unwrap()
    }

    #[test]
    fn scan_streams_every_row_with_bounded_batches() {
        let dir = temp_dir("stream");
        let lake = series_lake(&dir, 8, 32, 16); // 256 rows, 16 chunks
        let cell_col = TableKind::Series.column("cell").unwrap();
        let in_col = TableKind::Series.column("in_bytes").unwrap();
        let mut scan =
            TableScan::new(&lake, TableKind::Series, &[cell_col, in_col], Vec::new()).unwrap();
        let mut rows = 0u64;
        let mut sum = 0u64;
        for_each_row(&mut scan, |b, r| {
            rows += 1;
            sum += b.value(1, r);
        })
        .unwrap();
        assert_eq!(rows, 256);
        let expect: u64 = (0..8u64)
            .flat_map(|c| (0..32u64).map(move |i| c * 10_000 + i))
            .sum();
        assert_eq!(sum, expect);
        let stats = scan.stats();
        assert_eq!(stats.chunks_read, 16);
        assert_eq!(stats.rows_scanned, 256);
        assert!(stats.peak_resident_rows <= 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_pushdown_skips_chunks_without_reading_them() {
        let dir = temp_dir("pushdown");
        let lake = series_lake(&dir, 8, 32, 32); // one chunk per cell
        let cell_col = TableKind::Series.column("cell").unwrap();
        let range = ColumnRange {
            col: cell_col,
            min: 3,
            max: 4,
        };
        let mut scan = TableScan::new(&lake, TableKind::Series, &[cell_col], vec![range]).unwrap();
        let mut cells_seen = Vec::new();
        for_each_row(&mut scan, |b, r| cells_seen.push(b.value(0, r))).unwrap();
        assert!(cells_seen.iter().all(|&c| c == 3 || c == 4));
        assert_eq!(cells_seen.len(), 64);
        let stats = scan.stats();
        assert_eq!(stats.chunks_read, 2);
        assert_eq!(stats.chunks_skipped, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_projection_is_rejected() {
        let dir = temp_dir("proj");
        let lake = series_lake(&dir, 1, 4, 4);
        assert!(TableScan::new(&lake, TableKind::Series, &[99], Vec::new()).is_err());
        assert!(TableScan::new(
            &lake,
            TableKind::Series,
            &[0],
            vec![ColumnRange {
                col: 99,
                min: 0,
                max: 0
            }]
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
