//! Per-worker shard files and the cell row-group they carry.
//!
//! Fleet workers cannot write final segments directly — chunk layout
//! depends on global row order, and workers finish cells in a
//! nondeterministic order. Instead each worker streams every completed
//! cell into its own transient *shard*: a row-oriented append-only file
//! of [`CellRows`] records (`"MSC2"` framing, one record per cell, each
//! closed by an 8-byte little-endian XXH64 checksum over the record).
//! Compaction (see [`crate::writer`]) then replays the records in cell
//! order, which is what makes the final segments byte-identical
//! regardless of worker count.

use crate::LakeError;
use millisampler::codec::{self, DecodeError, WireReader, WireWriter};
use millisampler::HostSeries;
use ms_analysis::{BurstRow, RunOutcome};
use ms_telemetry::{DropCause, DropForensic, DropReason};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Shard record magic. `MSC2` records end in an XXH64 checksum; `MSC1`
/// records (FNV-1a) are refused by their magic.
pub const CELL_MAGIC: &[u8; 4] = b"MSC2";

/// Everything one cell contributes to the lake: an outcomes row (or a
/// failure row, or neither for series-only exports), its classified
/// bursts, and its raw millisampler series.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRows {
    /// Sweep-global cell index; compaction orders the lake by it.
    pub cell: u64,
    /// Grid label (or a free-form name for exports).
    pub label: String,
    /// `Some(Ok(_))` → an ok outcomes row; `Some(Err(msg))` → a failed
    /// outcomes row carrying the panic message; `None` → no outcomes row
    /// (host-history exports feed only the series table).
    pub outcome: Option<Result<RunOutcome, String>>,
    /// Classified bursts (the lake's `bursts` table rows).
    pub bursts: Vec<BurstRow>,
    /// Raw per-host series (exploded into the `series` table).
    pub series: Vec<HostSeries>,
    /// Classified drop forensics (the lake's `forensics` table rows).
    pub forensics: Vec<DropForensic>,
}

impl CellRows {
    /// A failure record for a cell that panicked.
    pub fn failed(cell: u64, label: &str, message: String) -> Self {
        CellRows {
            cell,
            label: label.to_string(),
            outcome: Some(Err(message)),
            bursts: Vec::new(),
            series: Vec::new(),
            forensics: Vec::new(),
        }
    }

    /// Canonical codec encoding (identical records encode to identical
    /// bytes, so shard contents are deterministic per cell), with a
    /// trailing XXH64 checksum so any single-byte corruption of a
    /// shard record is an error rather than a different record.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_magic(CELL_MAGIC);
        w.u64(self.cell);
        w.str(&self.label);
        match &self.outcome {
            None => w.u64(0),
            Some(Ok(o)) => {
                w.u64(1);
                w.bytes(&o.encode());
            }
            Some(Err(msg)) => {
                w.u64(2);
                w.str(msg);
            }
        }
        w.u64(self.bursts.len() as u64);
        for b in &self.bursts {
            w.u64(u64::from(b.server));
            w.u64(u64::from(b.start));
            w.u64(u64::from(b.len));
            w.u64(b.bytes);
            w.f64(b.avg_conns);
            w.u64(u64::from(b.max_contention));
            w.bool(b.contended);
            w.bool(b.lossy);
            w.u64(b.retx_bytes);
        }
        w.u64(self.series.len() as u64);
        for s in &self.series {
            w.bytes(&codec::encode(s));
        }
        w.u64(self.forensics.len() as u64);
        for f in &self.forensics {
            w.u64(f.ns);
            w.u64(u64::from(f.queue));
            w.u64(f.flow);
            w.u64(u64::from(f.size));
            w.u64(u64::from(f.reason.code()));
            w.u64(u64::from(f.cause.code()));
            w.u64(f.queue_occupancy);
            w.u64(f.shared_occupancy);
            w.u64(f.dt_threshold);
            w.u64(u64::from(f.burst_len));
            w.u64(u64::from(f.competing_flows));
            w.u64(f.self_bytes);
            w.u64(f.other_bytes);
            w.bool(f.ecn_on);
            w.u64(f.recent_kinds);
        }
        let mut buf = w.finish();
        let sum = codec::xxh64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes a record produced by [`CellRows::encode`]. The magic is
    /// checked before the checksum, so a record of another version is
    /// refused by name.
    pub fn decode(data: &[u8]) -> Result<Self, LakeError> {
        if !data.starts_with(CELL_MAGIC) {
            return Err(DecodeError::BadMagic.into());
        }
        let body_len = data
            .len()
            .checked_sub(8)
            .ok_or(LakeError::Corrupt("cell record shorter than checksum"))?;
        let stored = u64::from_le_bytes(
            data[body_len..]
                .try_into()
                .map_err(|_| LakeError::Corrupt("cell record checksum slice"))?,
        );
        let body = &data[..body_len];
        if codec::xxh64(body) != stored {
            return Err(LakeError::Corrupt("cell record checksum mismatch"));
        }
        let mut r = WireReader::new(body);
        r.expect_magic(CELL_MAGIC)?;
        let cell = r.u64()?;
        let label = r.string()?;
        let outcome = match r.u64()? {
            0 => None,
            1 => Some(Ok(RunOutcome::decode(&r.bytes()?)?)),
            2 => Some(Err(r.string()?)),
            _ => return Err(LakeError::Corrupt("bad outcome tag in cell record")),
        };
        let n_bursts = r.u64()?;
        if n_bursts as usize > data.len() {
            return Err(LakeError::Corrupt("burst count exceeds record"));
        }
        let mut bursts = Vec::with_capacity(n_bursts as usize);
        for _ in 0..n_bursts {
            bursts.push(BurstRow {
                cell: u32::try_from(cell)
                    .map_err(|_| LakeError::Corrupt("burst cell index past u32"))?,
                server: r.u32()?,
                start: r.u32()?,
                len: r.u32()?,
                bytes: r.u64()?,
                avg_conns: r.f64()?,
                max_contention: r.u32()?,
                contended: r.bool()?,
                lossy: r.bool()?,
                retx_bytes: r.u64()?,
            });
        }
        let n_series = r.u64()?;
        if n_series as usize > data.len() {
            return Err(LakeError::Corrupt("series count exceeds record"));
        }
        let mut series = Vec::with_capacity(n_series as usize);
        for _ in 0..n_series {
            series.push(codec::decode(&r.bytes()?)?);
        }
        let n_forensics = r.u64()?;
        if n_forensics as usize > data.len() {
            return Err(LakeError::Corrupt("forensic count exceeds record"));
        }
        let mut forensics = Vec::with_capacity(n_forensics as usize);
        for _ in 0..n_forensics {
            let ns = r.u64()?;
            let queue = r.u32()?;
            let flow = r.u64()?;
            let size = r.u32()?;
            let reason = reason_from(r.u64()?)?;
            let cause = cause_from(r.u64()?)?;
            forensics.push(DropForensic {
                ns,
                queue,
                flow,
                size,
                reason,
                cause,
                queue_occupancy: r.u64()?,
                shared_occupancy: r.u64()?,
                dt_threshold: r.u64()?,
                burst_len: r.u32()?,
                competing_flows: r.u32()?,
                self_bytes: r.u64()?,
                other_bytes: r.u64()?,
                ecn_on: r.bool()?,
                recent_kinds: r.u64()?,
            });
        }
        r.expect_end()?;
        Ok(CellRows {
            cell,
            label,
            outcome,
            bursts,
            series,
            forensics,
        })
    }
}

fn reason_from(code: u64) -> Result<DropReason, LakeError> {
    DropReason::ALL
        .iter()
        .copied()
        .find(|r| u64::from(r.code()) == code)
        .ok_or(LakeError::Corrupt("bad drop reason in cell record"))
}

fn cause_from(code: u64) -> Result<DropCause, LakeError> {
    u8::try_from(code)
        .ok()
        .and_then(DropCause::from_code)
        .ok_or(LakeError::Corrupt("bad drop cause in cell record"))
}

/// Append-only writer for one worker's shard file. Records are framed
/// as `[len u64 LE][record bytes]` so compaction can index them with
/// one sequential pass.
#[derive(Debug)]
pub struct ShardWriter {
    out: BufWriter<std::fs::File>,
    path: PathBuf,
    records: u64,
}

impl ShardWriter {
    /// Creates (truncating) the shard file at `path`.
    pub fn create(path: &Path) -> Result<Self, LakeError> {
        let file = std::fs::File::create(path)?;
        Ok(ShardWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            records: 0,
        })
    }

    /// Appends one cell's rows.
    pub fn append(&mut self, rows: &CellRows) -> Result<(), LakeError> {
        let record = rows.encode();
        self.out.write_all(&(record.len() as u64).to_le_bytes())?;
        self.out.write_all(&record)?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The shard's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes and closes the shard.
    pub fn finish(mut self) -> Result<(), LakeError> {
        self.out.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_dcsim::Ns;

    fn sample_rows() -> CellRows {
        let mut o = RunOutcome::empty();
        o.bursts = 2;
        o.contention_avg = 1.25;
        let mut s = HostSeries::zeroed(3, Ns::from_millis(5), Ns::from_millis(1), 4);
        s.in_bytes = vec![10, 20, 30, 40];
        CellRows {
            cell: 7,
            label: String::from("s1-a0.50-single-dctcp"),
            outcome: Some(Ok(o)),
            bursts: vec![BurstRow {
                cell: 7,
                server: 3,
                start: 1,
                len: 2,
                bytes: 999,
                avg_conns: 4.5,
                max_contention: 2,
                contended: true,
                lossy: false,
                retx_bytes: 0,
            }],
            series: vec![s],
            forensics: vec![DropForensic {
                ns: 31_000_123,
                queue: 3,
                flow: 42,
                size: 1500,
                reason: DropReason::DynamicThresholdReject,
                cause: DropCause::CrossContention,
                queue_occupancy: 1_800_000,
                shared_occupancy: 3_400_000,
                dt_threshold: 1_790_000,
                burst_len: 9,
                competing_flows: 14,
                self_bytes: 30_000,
                other_bytes: 410_000,
                ecn_on: true,
                recent_kinds: 0x0101_0303_0404_0101,
            }],
        }
    }

    #[test]
    fn cell_record_round_trips() {
        let rows = sample_rows();
        let enc = rows.encode();
        assert_eq!(CellRows::decode(&enc).unwrap(), rows);
        assert_eq!(enc, CellRows::decode(&enc).unwrap().encode());
    }

    #[test]
    fn failed_and_series_only_variants_round_trip() {
        let failed = CellRows::failed(2, "s9-x", String::from("boom\nline2"));
        assert_eq!(CellRows::decode(&failed.encode()).unwrap(), failed);
        let bare = CellRows {
            cell: 0,
            label: String::from("host-store"),
            outcome: None,
            bursts: Vec::new(),
            series: Vec::new(),
            forensics: Vec::new(),
        };
        assert_eq!(CellRows::decode(&bare.encode()).unwrap(), bare);
    }

    #[test]
    fn previous_record_format_is_refused_by_name() {
        let mut enc = sample_rows().encode();
        enc[..4].copy_from_slice(b"MSC1");
        let err = CellRows::decode(&enc).unwrap_err();
        assert!(
            matches!(err, LakeError::Decode(DecodeError::BadMagic)),
            "expected a magic error, got {err}"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CellRows::decode(b"NOPE").is_err());
        let mut enc = sample_rows().encode();
        enc.truncate(enc.len() / 2);
        assert!(CellRows::decode(&enc).is_err());
    }
}
