//! Lake directory management: shard creation, deterministic grid-order
//! compaction, and the manifest.
//!
//! Compaction is the determinism pivot of the writer path. Workers
//! finish cells in a race-dependent order across a race-dependent set
//! of shards; compaction erases both: pass 1 indexes every shard record
//! by cell, pass 2 replays the records in ascending cell order through
//! one [`SegmentWriter`] per table, rolling segments at a fixed row
//! budget. Segment bytes therefore depend only on `(cell → rows)` — the
//! same lake, byte for byte, whether the sweep ran on 1 worker or 16.
//! Shards are deleted once compacted; the manifest lists the surviving
//! segments in a fixed table order.

use crate::segment::{SegmentWriter, TableKind};
use crate::shard::{CellRows, ShardWriter};
use crate::LakeError;
use millisampler::codec::WireReader;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Writer knobs.
#[derive(Debug, Clone, Copy)]
pub struct LakeConfig {
    /// Rows per chunk (the query engine's resident-row bound).
    pub chunk_rows: usize,
    /// Rows per segment file before rolling to the next one.
    pub segment_rows: u64,
}

impl Default for LakeConfig {
    fn default() -> Self {
        LakeConfig {
            chunk_rows: 4096,
            segment_rows: 262_144,
        }
    }
}

/// One manifest line: a segment file and its row/byte counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Table the segment belongs to.
    pub table: TableKind,
    /// File name inside the lake directory.
    pub file: String,
    /// Rows in the segment.
    pub rows: u64,
    /// Segment size in bytes.
    pub bytes: u64,
}

/// The lake's table of contents (`MANIFEST.txt`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LakeManifest {
    /// Segments in fixed order: outcomes, then bursts, then series,
    /// then forensics.
    pub entries: Vec<ManifestEntry>,
}

impl LakeManifest {
    /// Total rows of one table.
    pub fn rows(&self, table: TableKind) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.table == table)
            .map(|e| e.rows)
            .sum()
    }

    /// Total segment bytes of one table.
    pub fn bytes(&self, table: TableKind) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.table == table)
            .map(|e| e.bytes)
            .sum()
    }

    /// Deterministic CSV rendering.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("table,file,rows,bytes\n");
        for e in &self.entries {
            let _ = writeln!(out, "{},{},{},{}", e.table.name(), e.file, e.rows, e.bytes);
        }
        out
    }

    /// Parses [`LakeManifest::to_csv`] output.
    pub fn parse(text: &str) -> Result<Self, LakeError> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 {
                if line != "table,file,rows,bytes" {
                    return Err(LakeError::Corrupt("bad manifest header"));
                }
                continue;
            }
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let table = parts
                .next()
                .and_then(TableKind::parse)
                .ok_or(LakeError::Corrupt("bad manifest table"))?;
            let file = parts
                .next()
                .ok_or(LakeError::Corrupt("bad manifest file"))?
                .to_string();
            let rows = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(LakeError::Corrupt("bad manifest rows"))?;
            let bytes = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(LakeError::Corrupt("bad manifest bytes"))?;
            entries.push(ManifestEntry {
                table,
                file,
                rows,
                bytes,
            });
        }
        Ok(LakeManifest { entries })
    }
}

/// Coordinates shard creation and compaction for one lake directory.
#[derive(Debug)]
pub struct LakeWriter {
    dir: PathBuf,
    cfg: LakeConfig,
}

impl LakeWriter {
    /// Creates the lake directory (and parents) if needed.
    pub fn create(dir: &Path, cfg: LakeConfig) -> Result<Self, LakeError> {
        std::fs::create_dir_all(dir)?;
        Ok(LakeWriter {
            dir: dir.to_path_buf(),
            cfg,
        })
    }

    /// The lake directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The writer's configuration.
    pub fn config(&self) -> LakeConfig {
        self.cfg
    }

    /// A shard writer for worker `worker` (`shard-w0003.mss`).
    pub fn shard_writer(&self, worker: usize) -> Result<ShardWriter, LakeError> {
        self.shard_writer_named(&format!("w{worker:04}"))
    }

    /// A shard writer with an explicit name (`shard-<name>.mss`) — used
    /// by non-fleet producers like `HostStore` exports so their shards
    /// cannot collide with worker shards.
    pub fn shard_writer_named(&self, name: &str) -> Result<ShardWriter, LakeError> {
        ShardWriter::create(&self.dir.join(format!("shard-{name}.mss")))
    }

    /// Merges every shard in the directory into final segments in
    /// ascending cell order, writes `MANIFEST.txt`, and deletes the
    /// shards. Duplicate cell indices across shards are an error.
    pub fn compact(&self) -> Result<LakeManifest, LakeError> {
        let mut shard_paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "mss")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("shard-"))
            })
            .collect();
        shard_paths.sort();

        // Pass 1: index every record by cell without decoding payloads.
        let mut index: Vec<(u64, usize, u64, u64)> = Vec::new(); // (cell, shard, offset, len)
        let mut shards = Vec::with_capacity(shard_paths.len());
        for (si, path) in shard_paths.iter().enumerate() {
            let mut file = std::fs::File::open(path)?;
            let file_len = file.seek(SeekFrom::End(0))?;
            file.seek(SeekFrom::Start(0))?;
            let mut pos = 0u64;
            let mut len_buf = [0u8; 8];
            let mut head = [0u8; 14]; // magic + max varint cell id
            while pos < file_len {
                file.read_exact(&mut len_buf)?;
                let len = u64::from_le_bytes(len_buf);
                let body = pos + 8;
                if body + len > file_len {
                    return Err(LakeError::Corrupt("shard record overruns file"));
                }
                let head_len = (len as usize).min(head.len());
                file.read_exact(&mut head[..head_len])?;
                let cell = peek_cell(&head[..head_len])?;
                index.push((cell, si, body, len));
                pos = body + len;
                file.seek(SeekFrom::Start(pos))?;
            }
            shards.push(file);
        }
        index.sort_unstable_by_key(|&(cell, ..)| cell);
        for pair in index.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(LakeError::Invalid(format!(
                    "duplicate cell {} across shards",
                    pair[0].0
                )));
            }
        }

        // Pass 2: replay records in cell order through the table builders.
        let mut outcomes = TableBuilder::new(TableKind::Outcomes, &self.dir, self.cfg)?;
        let mut bursts = TableBuilder::new(TableKind::Bursts, &self.dir, self.cfg)?;
        let mut series = TableBuilder::new(TableKind::Series, &self.dir, self.cfg)?;
        let mut forensics = TableBuilder::new(TableKind::Forensics, &self.dir, self.cfg)?;
        let mut record = Vec::new();
        for &(cell, si, offset, len) in &index {
            let file = &mut shards[si];
            file.seek(SeekFrom::Start(offset))?;
            record.resize(len as usize, 0);
            file.read_exact(&mut record)?;
            let rows = CellRows::decode(&record)?;
            if rows.cell != cell {
                return Err(LakeError::Corrupt("cell id disagrees with shard index"));
            }
            append_cell(
                &mut outcomes,
                &mut bursts,
                &mut series,
                &mut forensics,
                &rows,
            )?;
        }

        let mut manifest = LakeManifest::default();
        outcomes.finish(&mut manifest)?;
        bursts.finish(&mut manifest)?;
        series.finish(&mut manifest)?;
        forensics.finish(&mut manifest)?;
        std::fs::write(self.dir.join("MANIFEST.txt"), manifest.to_csv())?;
        for path in &shard_paths {
            std::fs::remove_file(path)?;
        }
        Ok(manifest)
    }
}

/// Reads the cell id out of a record prefix (magic + first varint).
fn peek_cell(head: &[u8]) -> Result<u64, LakeError> {
    let mut r = WireReader::new(head);
    r.expect_magic(crate::shard::CELL_MAGIC)?;
    Ok(r.u64()?)
}

/// Explodes one cell's rows into the four tables.
fn append_cell(
    outcomes: &mut TableBuilder,
    bursts: &mut TableBuilder,
    series: &mut TableBuilder,
    forensics: &mut TableBuilder,
    rows: &CellRows,
) -> Result<(), LakeError> {
    match &rows.outcome {
        None => {}
        Some(result) => {
            outcomes.roll_if_full()?;
            let label_id = outcomes.writer.dict_id(&rows.label);
            let (status, error, o) = match result {
                Ok(o) => (0u64, String::new(), o.clone()),
                Err(msg) => (1u64, msg.clone(), ms_analysis::RunOutcome::empty()),
            };
            let error_id = outcomes.writer.dict_id(&error);
            outcomes.writer.push_row(&[
                rows.cell,
                status,
                label_id,
                error_id,
                o.switch_ingress_bytes,
                o.switch_discard_bytes,
                o.flows_started,
                o.conns_completed,
                o.events,
                o.total_in_bytes,
                o.total_retx_bytes,
                o.bursts,
                o.contended_bursts,
                o.lossy_bursts,
                o.contention_avg.to_bits(),
                u64::from(o.contention_p90),
                u64::from(o.contention_max),
                u64::from(o.active_servers),
                u64::from(o.bursty_servers),
                o.policy.code(),
            ])?;
        }
    }
    for b in &rows.bursts {
        bursts.roll_if_full()?;
        bursts.writer.push_row(&[
            rows.cell,
            u64::from(b.server),
            u64::from(b.start),
            u64::from(b.len),
            b.bytes,
            b.avg_conns.to_bits(),
            u64::from(b.max_contention),
            u64::from(b.contended),
            u64::from(b.lossy),
            b.retx_bytes,
        ])?;
    }
    for s in &rows.series {
        let n = s.len();
        for bucket in 0..n {
            series.roll_if_full()?;
            series.writer.push_row(&[
                rows.cell,
                u64::from(s.host),
                s.start.as_nanos(),
                s.interval.as_nanos(),
                bucket as u64,
                s.in_bytes[bucket],
                s.in_retx[bucket],
                s.out_bytes[bucket],
                s.out_retx[bucket],
                s.in_ecn[bucket],
                s.conns[bucket],
            ])?;
        }
    }
    for f in &rows.forensics {
        forensics.roll_if_full()?;
        forensics.writer.push_row(&[
            rows.cell,
            f.ns,
            u64::from(f.queue),
            f.flow,
            u64::from(f.size),
            u64::from(f.reason.code()),
            u64::from(f.cause.code()),
            f.queue_occupancy,
            f.shared_occupancy,
            f.dt_threshold,
            u64::from(f.burst_len),
            u64::from(f.competing_flows),
            f.self_bytes,
            f.other_bytes,
            u64::from(f.ecn_on),
            f.recent_kinds,
        ])?;
    }
    Ok(())
}

/// One table's rolling segment writer during compaction.
struct TableBuilder {
    kind: TableKind,
    dir: PathBuf,
    cfg: LakeConfig,
    writer: SegmentWriter,
    seq: usize,
    written: Vec<ManifestEntry>,
}

impl TableBuilder {
    fn new(kind: TableKind, dir: &Path, cfg: LakeConfig) -> Result<Self, LakeError> {
        Ok(TableBuilder {
            kind,
            dir: dir.to_path_buf(),
            cfg,
            writer: SegmentWriter::new(kind, cfg.chunk_rows),
            seq: 0,
            written: Vec::new(),
        })
    }

    /// Rolls to a fresh segment when the current one is at its row
    /// budget. Called *before* interning dictionary strings so ids land
    /// in the segment the row goes to.
    fn roll_if_full(&mut self) -> Result<(), LakeError> {
        if self.writer.total_rows() >= self.cfg.segment_rows {
            self.roll()?;
        }
        Ok(())
    }

    fn roll(&mut self) -> Result<(), LakeError> {
        let writer = std::mem::replace(
            &mut self.writer,
            SegmentWriter::new(self.kind, self.cfg.chunk_rows),
        );
        let rows = writer.total_rows();
        let bytes = writer.finish();
        let file = format!("{}-{:04}.msl", self.kind.name(), self.seq);
        std::fs::write(self.dir.join(&file), &bytes)?;
        self.written.push(ManifestEntry {
            table: self.kind,
            file,
            rows,
            bytes: bytes.len() as u64,
        });
        self.seq += 1;
        Ok(())
    }

    /// Flushes the final (possibly empty) segment and appends this
    /// table's entries to the manifest.
    fn finish(mut self, manifest: &mut LakeManifest) -> Result<(), LakeError> {
        if self.writer.total_rows() > 0 || self.written.is_empty() {
            self.roll()?;
        }
        manifest.entries.append(&mut self.written);
        Ok(())
    }
}

/// A compacted lake opened for querying.
#[derive(Debug)]
pub struct Lake {
    /// Lake directory.
    pub dir: PathBuf,
    /// Parsed manifest.
    pub manifest: LakeManifest,
}

impl Lake {
    /// Opens a lake directory by reading its manifest.
    pub fn open(dir: &Path) -> Result<Self, LakeError> {
        let text = std::fs::read_to_string(dir.join("MANIFEST.txt"))?;
        Ok(Lake {
            dir: dir.to_path_buf(),
            manifest: LakeManifest::parse(&text)?,
        })
    }

    /// Segment paths of one table, in manifest (cell) order.
    pub fn segments(&self, table: TableKind) -> Vec<PathBuf> {
        self.manifest
            .entries
            .iter()
            .filter(|e| e.table == table)
            .map(|e| self.dir.join(&e.file))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::verify_segment_bytes;
    use millisampler::HostSeries;
    use ms_analysis::RunOutcome;
    use ms_dcsim::Ns;

    fn cell(cell: u64, buckets: usize) -> CellRows {
        let mut o = RunOutcome::empty();
        o.bursts = cell;
        o.contention_avg = cell as f64 * 0.5;
        let mut s = HostSeries::zeroed(0, Ns::from_millis(cell), Ns::from_millis(1), buckets);
        for (i, v) in s.in_bytes.iter_mut().enumerate() {
            *v = cell * 1000 + i as u64;
        }
        CellRows {
            cell,
            label: format!("cell-{cell}"),
            outcome: Some(Ok(o)),
            bursts: Vec::new(),
            series: vec![s],
            forensics: vec![ms_telemetry::DropForensic {
                ns: cell * 1_000_000,
                queue: 1,
                flow: cell,
                size: 1500,
                reason: ms_telemetry::DropReason::DynamicThresholdReject,
                cause: ms_telemetry::DropCause::SelfBurst,
                queue_occupancy: cell * 100,
                shared_occupancy: cell * 200,
                dt_threshold: 90,
                burst_len: 3,
                competing_flows: 1,
                self_bytes: 4500,
                other_bytes: 0,
                ecn_on: false,
                recent_kinds: 0x0303,
            }],
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        #[expect(
            clippy::disallowed_methods,
            reason = "tests write scratch lakes under the system temp dir"
        )]
        let dir = std::env::temp_dir().join(format!("ms-lake-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn compaction_is_shard_assignment_invariant() {
        let build = |name: &str, split: &[&[u64]]| {
            let dir = temp_dir(name);
            let w = LakeWriter::create(
                &dir,
                LakeConfig {
                    chunk_rows: 4,
                    segment_rows: 10,
                },
            )
            .unwrap();
            for (wi, cells) in split.iter().enumerate() {
                let mut shard = w.shard_writer(wi).unwrap();
                for &c in *cells {
                    shard.append(&cell(c, 6)).unwrap();
                }
                shard.finish().unwrap();
            }
            let manifest = w.compact().unwrap();
            let files: Vec<Vec<u8>> = manifest
                .entries
                .iter()
                .map(|e| std::fs::read(dir.join(&e.file)).unwrap())
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (manifest, files)
        };
        // Same cells, different shard assignment and different order.
        let (m1, f1) = build("a", &[&[0, 1, 2, 3]]);
        let (m2, f2) = build("b", &[&[3, 1], &[2], &[0]]);
        assert_eq!(m1, m2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn compaction_rolls_segments_and_cleans_shards() {
        let dir = temp_dir("roll");
        let w = LakeWriter::create(
            &dir,
            LakeConfig {
                chunk_rows: 4,
                segment_rows: 10,
            },
        )
        .unwrap();
        let mut shard = w.shard_writer(0).unwrap();
        for c in 0..5 {
            shard.append(&cell(c, 8)).unwrap(); // 40 series rows total
        }
        shard.finish().unwrap();
        let manifest = w.compact().unwrap();
        assert_eq!(manifest.rows(TableKind::Outcomes), 5);
        assert_eq!(manifest.rows(TableKind::Series), 40);
        assert_eq!(manifest.rows(TableKind::Forensics), 5);
        // 40 series rows at 10 rows/segment = 4 segment files.
        assert_eq!(
            manifest
                .entries
                .iter()
                .filter(|e| e.table == TableKind::Series)
                .count(),
            4
        );
        for e in &manifest.entries {
            let bytes = std::fs::read(dir.join(&e.file)).unwrap();
            assert_eq!(verify_segment_bytes(&bytes).unwrap(), e.rows);
        }
        // Shards are gone; manifest parses back identically.
        assert!(!std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| { e.unwrap().path().extension().is_some_and(|x| x == "mss") }));
        let reopened = Lake::open(&dir).unwrap();
        assert_eq!(reopened.manifest, manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let dir = temp_dir("dup");
        let w = LakeWriter::create(&dir, LakeConfig::default()).unwrap();
        for wi in 0..2 {
            let mut shard = w.shard_writer(wi).unwrap();
            shard.append(&cell(1, 2)).unwrap();
            shard.finish().unwrap();
        }
        assert!(matches!(w.compact(), Err(LakeError::Invalid(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_lake_compacts_to_empty_segments() {
        let dir = temp_dir("empty");
        let w = LakeWriter::create(&dir, LakeConfig::default()).unwrap();
        let manifest = w.compact().unwrap();
        assert_eq!(manifest.entries.len(), 4);
        assert_eq!(manifest.rows(TableKind::Outcomes), 0);
        assert_eq!(manifest.rows(TableKind::Forensics), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
