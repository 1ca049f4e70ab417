//! The `MSL1` columnar segment format, version 2.
//!
//! A segment is one append-only file holding the rows of one table as
//! columns, split into fixed-row-count chunks:
//!
//! ```text
//! [header]   "MSL1", version, table kind, column names
//! [chunks]   per chunk: varint row count, then per column a
//!            length-prefixed delta + zigzag + varint byte run
//! [footer]   header length + XXH64, per-chunk {offset, len, rows, XXH64,
//!            per-column min/max}, string dictionary, total rows
//! [trailer]  footer length (8 LE) + footer XXH64 (8 LE) + "MSLF"
//! ```
//!
//! The fixed-width trailer lets a reader open a segment by seeking to
//! the end, so queries never scan bytes they will skip. Every byte of
//! the file is covered by some XXH64 checksum (`millisampler::codec::
//! xxh64`, seed 0): header and footer sums are verified at open, chunk
//! sums before each chunk is decoded, so any single-byte corruption or
//! truncation surfaces as `Err` — never a panic, never a loop — while
//! reads stay chunk-at-a-time out-of-core. Version 1 segments (FNV-1a
//! sums) are refused at open as "unsupported segment version".
//!
//! Determinism: a segment's bytes are a pure function of the row
//! sequence pushed into [`SegmentWriter`] (delta state resets at every
//! chunk boundary so chunks decode independently for predicate
//! pushdown). Writers that push the same rows in the same order emit
//! byte-identical files regardless of thread count upstream.

use crate::LakeError;
use millisampler::codec::{self, DecodeError, WireReader, WireWriter};
use std::io::{Read, Seek, SeekFrom};

/// Segment header magic.
pub const SEGMENT_MAGIC: &[u8; 4] = b"MSL1";
/// Trailer magic (distinct, so a truncated header is never mistaken for
/// a trailer).
pub const TRAILER_MAGIC: &[u8; 4] = b"MSLF";
/// Fixed trailer size: footer length + footer checksum + magic.
pub const TRAILER_LEN: u64 = 20;
/// Format version: 2 = XXH64 checksums.
pub const SEGMENT_VERSION: u64 = 2;

/// The tables a lake holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// One row per grid cell: status + the flattened [`RunOutcome`]
    /// scalars (floats as raw bits).
    ///
    /// [`RunOutcome`]: ms_analysis::RunOutcome
    Outcomes,
    /// One row per classified burst ([`ms_analysis::BurstRow`]).
    Bursts,
    /// One row per (host, bucket) sample of every millisampler series.
    Series,
    /// One row per classified drop forensic
    /// ([`ms_telemetry::DropForensic`]).
    Forensics,
}

/// Column names of the `outcomes` table.
pub const OUTCOME_COLS: &[&str] = &[
    "cell",
    "status",
    "label",
    "error",
    "switch_ingress_bytes",
    "switch_discard_bytes",
    "flows_started",
    "conns_completed",
    "events",
    "total_in_bytes",
    "total_retx_bytes",
    "bursts",
    "contended_bursts",
    "lossy_bursts",
    "contention_avg_bits",
    "contention_p90",
    "contention_max",
    "active_servers",
    "bursty_servers",
    "policy",
];

/// Column names of the `bursts` table.
pub const BURST_COLS: &[&str] = &[
    "cell",
    "server",
    "start",
    "len",
    "bytes",
    "avg_conns_bits",
    "max_contention",
    "contended",
    "lossy",
    "retx_bytes",
];

/// Column names of the `forensics` table (the flattened
/// [`ms_telemetry::DropForensic`], with enum fields stored as their
/// stable codes).
pub const FORENSIC_COLS: &[&str] = &[
    "cell",
    "ns",
    "queue",
    "flow",
    "size",
    "reason",
    "cause",
    "queue_occupancy",
    "shared_occupancy",
    "dt_threshold",
    "burst_len",
    "competing_flows",
    "self_bytes",
    "other_bytes",
    "ecn",
    "recent_kinds",
];

/// Column names of the `series` table.
pub const SERIES_COLS: &[&str] = &[
    "cell",
    "host",
    "run_start_ns",
    "interval_ns",
    "bucket",
    "in_bytes",
    "in_retx",
    "out_bytes",
    "out_retx",
    "in_ecn",
    "conns",
];

impl TableKind {
    /// Stable on-disk id.
    pub fn id(self) -> u64 {
        match self {
            TableKind::Outcomes => 0,
            TableKind::Bursts => 1,
            TableKind::Series => 2,
            TableKind::Forensics => 3,
        }
    }

    /// Inverse of [`TableKind::id`].
    pub fn from_id(id: u64) -> Option<Self> {
        match id {
            0 => Some(TableKind::Outcomes),
            1 => Some(TableKind::Bursts),
            2 => Some(TableKind::Series),
            3 => Some(TableKind::Forensics),
            _ => None,
        }
    }

    /// Table name used in file names, the manifest, and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Outcomes => "outcomes",
            TableKind::Bursts => "bursts",
            TableKind::Series => "series",
            TableKind::Forensics => "forensics",
        }
    }

    /// Parses a CLI table name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "outcomes" => Some(TableKind::Outcomes),
            "bursts" => Some(TableKind::Bursts),
            "series" => Some(TableKind::Series),
            "forensics" => Some(TableKind::Forensics),
            _ => None,
        }
    }

    /// The table's column names, in on-disk order.
    pub fn columns(self) -> &'static [&'static str] {
        match self {
            TableKind::Outcomes => OUTCOME_COLS,
            TableKind::Bursts => BURST_COLS,
            TableKind::Series => SERIES_COLS,
            TableKind::Forensics => FORENSIC_COLS,
        }
    }

    /// Index of a named column.
    pub fn column(self, name: &str) -> Option<usize> {
        self.columns().iter().position(|&c| c == name)
    }
}

/// Streaming encoder for one column of the current chunk: delta +
/// zigzag + varint, with running min/max for the chunk footer.
///
/// `push` is on simlint's hot-path list (one call per value written to
/// the lake): no panics, no allocation beyond the amortized `Vec`
/// growth of the output buffer.
#[derive(Debug)]
pub struct ColumnWriter {
    buf: Vec<u8>,
    prev: i64,
    rows: u64,
    min: u64,
    max: u64,
}

impl Default for ColumnWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnWriter {
    /// An empty column encoder.
    pub fn new() -> Self {
        ColumnWriter {
            buf: Vec::new(),
            prev: 0,
            rows: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Appends one value to the current chunk.
    #[inline]
    pub fn push(&mut self, v: u64) {
        // Wrapping: f64 bit patterns use the full u64 range, so deltas
        // may wrap; the reader reverses with wrapping_add.
        let delta = (v as i64).wrapping_sub(self.prev);
        codec::put_varint(&mut self.buf, codec::zigzag(delta));
        self.prev = v as i64;
        self.rows += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Rows in the current chunk.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Takes the chunk's encoded bytes and `(min, max)`, resetting the
    /// encoder (including the delta base) so the next chunk decodes
    /// independently.
    pub fn take_chunk(&mut self) -> (Vec<u8>, u64, u64) {
        let bytes = std::mem::take(&mut self.buf);
        let (min, max) = if self.rows == 0 {
            (0, 0)
        } else {
            (self.min, self.max)
        };
        self.prev = 0;
        self.rows = 0;
        self.min = u64::MAX;
        self.max = 0;
        (bytes, min, max)
    }
}

/// Streaming decoder for one column chunk.
///
/// [`ColumnReader::for_each`] is the scan loop: one call per chunk
/// column, with the position and delta base held in locals.
/// [`ColumnReader::next`] decodes one value per call. Both sit on
/// simlint's hot-path list (no panics, no allocation) and share one
/// varint step. Values are reconstructed with wrapping two's-complement
/// arithmetic and **no clamping**, so `u64` bit patterns (including
/// stored `f64` bits) round-trip losslessly.
#[derive(Debug)]
pub struct ColumnReader<'a> {
    data: &'a [u8],
    pos: usize,
    prev: i64,
    remaining: u64,
}

impl<'a> ColumnReader<'a> {
    /// A decoder over `data` holding `rows` encoded values.
    pub fn new(data: &'a [u8], rows: u64) -> Self {
        ColumnReader {
            data,
            pos: 0,
            prev: 0,
            remaining: rows,
        }
    }

    /// Decodes the next value; `Ok(None)` at end of chunk.
    #[inline]
    pub fn next(&mut self) -> Result<Option<u64>, DecodeError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let z = varint_at(self.data, &mut self.pos)?;
        self.prev = self.prev.wrapping_add(codec::unzigzag(z));
        self.remaining -= 1;
        Ok(Some(self.prev as u64))
    }

    /// Decodes every remaining value in order, calling `f` on each. On
    /// error the reader is left where this call found it.
    #[inline]
    pub fn for_each(&mut self, mut f: impl FnMut(u64)) -> Result<(), DecodeError> {
        let data = self.data;
        let mut pos = self.pos;
        let mut prev = self.prev;
        for _ in 0..self.remaining {
            prev = prev.wrapping_add(codec::unzigzag(varint_at(data, &mut pos)?));
            f(prev as u64);
        }
        self.pos = pos;
        self.prev = prev;
        self.remaining = 0;
        Ok(())
    }

    /// Whether every encoded byte was consumed (writer-side sanity).
    pub fn fully_consumed(&self) -> bool {
        self.remaining == 0 && self.pos == self.data.len()
    }
}

/// Footer metadata for one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Absolute file offset of the chunk record.
    pub offset: u64,
    /// Chunk record length in bytes.
    pub len: u64,
    /// Rows in the chunk.
    pub rows: u64,
    /// XXH64 of the chunk record bytes.
    pub checksum: u64,
    /// Per-column `(min, max)` over the chunk, for predicate pushdown.
    pub minmax: Vec<(u64, u64)>,
}

/// Builds one segment in memory (bounded by the segment row budget) and
/// emits its canonical bytes.
#[derive(Debug)]
pub struct SegmentWriter {
    kind: TableKind,
    chunk_rows: usize,
    cols: Vec<ColumnWriter>,
    body: Vec<u8>,
    chunks: Vec<ChunkInfo>,
    dict: Vec<String>,
    rows_in_chunk: usize,
    total_rows: u64,
}

impl SegmentWriter {
    /// A writer for `kind` that closes a chunk every `chunk_rows` rows.
    pub fn new(kind: TableKind, chunk_rows: usize) -> Self {
        let ncols = kind.columns().len();
        SegmentWriter {
            kind,
            chunk_rows: chunk_rows.max(1),
            cols: (0..ncols).map(|_| ColumnWriter::new()).collect(),
            body: Vec::new(),
            chunks: Vec::new(),
            dict: Vec::new(),
            rows_in_chunk: 0,
            total_rows: 0,
        }
    }

    /// Interns `s` into the segment dictionary, returning its id.
    pub fn dict_id(&mut self, s: &str) -> u64 {
        if let Some(i) = self.dict.iter().position(|d| d == s) {
            return i as u64;
        }
        self.dict.push(s.to_string());
        (self.dict.len() - 1) as u64
    }

    /// Appends one row. `values` must have one entry per column.
    pub fn push_row(&mut self, values: &[u64]) -> Result<(), LakeError> {
        if values.len() != self.cols.len() {
            return Err(LakeError::Invalid(format!(
                "row arity {} != {} columns of table {}",
                values.len(),
                self.cols.len(),
                self.kind.name()
            )));
        }
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
        self.rows_in_chunk += 1;
        self.total_rows += 1;
        if self.rows_in_chunk >= self.chunk_rows {
            self.flush_chunk();
        }
        Ok(())
    }

    /// Rows pushed so far.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    fn flush_chunk(&mut self) {
        if self.rows_in_chunk == 0 {
            return;
        }
        let mut record = Vec::new();
        codec::put_varint(&mut record, self.rows_in_chunk as u64);
        let mut minmax = Vec::with_capacity(self.cols.len());
        for col in &mut self.cols {
            let (bytes, min, max) = col.take_chunk();
            codec::put_varint(&mut record, bytes.len() as u64);
            record.extend_from_slice(&bytes);
            minmax.push((min, max));
        }
        self.chunks.push(ChunkInfo {
            offset: self.body.len() as u64, // body-relative; absolute at finish
            len: record.len() as u64,
            rows: self.rows_in_chunk as u64,
            checksum: codec::xxh64(&record),
            minmax,
        });
        self.body.extend_from_slice(&record);
        self.rows_in_chunk = 0;
    }

    /// Finalizes the segment and returns its canonical bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_chunk();

        let mut hw = WireWriter::with_magic(SEGMENT_MAGIC);
        hw.u64(SEGMENT_VERSION);
        hw.u64(self.kind.id());
        hw.u64(self.kind.columns().len() as u64);
        for name in self.kind.columns() {
            hw.str(name);
        }
        let header = hw.finish();
        let header_len = header.len() as u64;

        let mut fw = WireWriter::new();
        fw.u64(header_len);
        fw.u64(codec::xxh64(&header));
        fw.u64(self.chunks.len() as u64);
        for c in &self.chunks {
            fw.u64(c.offset + header_len);
            fw.u64(c.len);
            fw.u64(c.rows);
            fw.u64(c.checksum);
            for &(min, max) in &c.minmax {
                fw.u64(min);
                fw.u64(max);
            }
        }
        fw.u64(self.dict.len() as u64);
        for s in &self.dict {
            fw.str(s);
        }
        fw.u64(self.total_rows);
        let footer = fw.finish();

        let mut out = header;
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        out.extend_from_slice(&codec::xxh64(&footer).to_le_bytes());
        out.extend_from_slice(TRAILER_MAGIC);
        out
    }
}

/// An open segment: parsed header/footer plus a seekable source the
/// chunks are read from on demand.
#[derive(Debug)]
pub struct SegmentReader<R> {
    src: R,
    /// The table this segment belongs to.
    pub kind: TableKind,
    /// Column names, in on-disk order.
    pub col_names: Vec<String>,
    /// Per-chunk footer metadata.
    pub chunks: Vec<ChunkInfo>,
    /// Segment string dictionary (labels, error messages).
    pub dict: Vec<String>,
    /// Total rows across all chunks.
    pub total_rows: u64,
}

impl<R: Read + Seek> SegmentReader<R> {
    /// Opens a segment: checks the header magic and version, then
    /// verifies the trailer magic, footer checksum, header checksum, and
    /// the internal consistency of the chunk index.
    pub fn open(mut src: R) -> Result<Self, LakeError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        if file_len < TRAILER_LEN + 4 {
            return Err(LakeError::Corrupt("segment shorter than trailer"));
        }
        // Magic and version first, so a segment of another version is
        // refused by name rather than as a checksum mismatch. Both fit
        // in the first five bytes while the version is below 128.
        let mut head = [0u8; 5];
        src.seek(SeekFrom::Start(0))?;
        src.read_exact(&mut head)?;
        check_magic_and_version(&mut WireReader::new(&head))?;
        src.seek(SeekFrom::Start(file_len - TRAILER_LEN))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        src.read_exact(&mut trailer)?;
        if &trailer[16..20] != TRAILER_MAGIC {
            return Err(LakeError::Corrupt("bad trailer magic"));
        }
        let footer_len = u64::from_le_bytes(
            trailer[0..8]
                .try_into()
                .map_err(|_| LakeError::Corrupt("trailer slice"))?,
        );
        let stored_footer_sum = u64::from_le_bytes(
            trailer[8..16]
                .try_into()
                .map_err(|_| LakeError::Corrupt("trailer slice"))?,
        );
        let footer_start = file_len
            .checked_sub(TRAILER_LEN)
            .and_then(|v| v.checked_sub(footer_len))
            .ok_or(LakeError::Corrupt("footer length exceeds file"))?;
        src.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; footer_len as usize];
        src.read_exact(&mut footer)?;
        if codec::xxh64(&footer) != stored_footer_sum {
            return Err(LakeError::Corrupt("footer checksum mismatch"));
        }

        let mut fr = WireReader::new(&footer);
        let header_len = fr.u64()?;
        let header_sum = fr.u64()?;
        if header_len > footer_start || header_len < 4 {
            return Err(LakeError::Corrupt("header length out of range"));
        }
        src.seek(SeekFrom::Start(0))?;
        let mut header = vec![0u8; header_len as usize];
        src.read_exact(&mut header)?;
        if codec::xxh64(&header) != header_sum {
            return Err(LakeError::Corrupt("header checksum mismatch"));
        }
        let mut hr = WireReader::new(&header);
        check_magic_and_version(&mut hr)?;
        let kind = TableKind::from_id(hr.u64()?).ok_or(LakeError::Corrupt("unknown table kind"))?;
        let ncols = hr.u64()?;
        if ncols as usize != kind.columns().len() {
            return Err(LakeError::Corrupt("column count mismatch"));
        }
        let mut col_names = Vec::with_capacity(ncols as usize);
        for _ in 0..ncols {
            col_names.push(hr.string()?);
        }

        let n_chunks = fr.u64()?;
        if n_chunks > footer_len {
            // Each chunk entry takes several footer bytes; a count larger
            // than the footer itself is corrupt (and would over-allocate).
            return Err(LakeError::Corrupt("chunk count exceeds footer"));
        }
        let mut chunks = Vec::with_capacity(n_chunks as usize);
        for _ in 0..n_chunks {
            let offset = fr.u64()?;
            let len = fr.u64()?;
            let rows = fr.u64()?;
            let checksum = fr.u64()?;
            let mut minmax = Vec::with_capacity(ncols as usize);
            for _ in 0..ncols {
                minmax.push((fr.u64()?, fr.u64()?));
            }
            let end = offset
                .checked_add(len)
                .ok_or(LakeError::Corrupt("chunk extent overflow"))?;
            if offset < header_len || end > footer_start {
                return Err(LakeError::Corrupt("chunk extent out of range"));
            }
            chunks.push(ChunkInfo {
                offset,
                len,
                rows,
                checksum,
                minmax,
            });
        }
        let n_dict = fr.u64()?;
        if n_dict > footer_len {
            return Err(LakeError::Corrupt("dict count exceeds footer"));
        }
        let mut dict = Vec::with_capacity(n_dict as usize);
        for _ in 0..n_dict {
            dict.push(fr.string()?);
        }
        let total_rows = fr.u64()?;
        if chunks.iter().map(|c| c.rows).sum::<u64>() != total_rows {
            return Err(LakeError::Corrupt("row totals disagree"));
        }

        Ok(SegmentReader {
            src,
            kind,
            col_names,
            chunks,
            dict,
            total_rows,
        })
    }

    /// Reads and checksum-verifies chunk `idx` into `buf` (reused across
    /// calls so a scan holds one chunk at a time).
    pub fn read_chunk(&mut self, idx: usize, buf: &mut Vec<u8>) -> Result<(), LakeError> {
        let info = self
            .chunks
            .get(idx)
            .ok_or(LakeError::Corrupt("chunk index out of range"))?;
        self.src.seek(SeekFrom::Start(info.offset))?;
        buf.resize(info.len as usize, 0);
        self.src.read_exact(buf)?;
        if codec::xxh64(buf) != info.checksum {
            return Err(LakeError::Corrupt("chunk checksum mismatch"));
        }
        Ok(())
    }

    /// Splits a verified chunk record into per-column byte runs.
    pub fn chunk_columns<'a>(
        &self,
        idx: usize,
        buf: &'a [u8],
    ) -> Result<(u64, Vec<&'a [u8]>), LakeError> {
        let info = self
            .chunks
            .get(idx)
            .ok_or(LakeError::Corrupt("chunk index out of range"))?;
        let mut pos = 0usize;
        let rows = varint_at(buf, &mut pos)?;
        if rows != info.rows {
            return Err(LakeError::Corrupt("chunk row count disagrees with footer"));
        }
        let mut cols = Vec::with_capacity(self.col_names.len());
        for _ in 0..self.col_names.len() {
            let len = varint_at(buf, &mut pos)? as usize;
            let end = pos
                .checked_add(len)
                .ok_or(LakeError::Corrupt("column extent overflow"))?;
            if end > buf.len() {
                return Err(LakeError::Corrupt("column extent out of range"));
            }
            cols.push(&buf[pos..end]);
            pos = end;
        }
        if pos != buf.len() {
            return Err(LakeError::Corrupt("trailing bytes after last column"));
        }
        Ok((rows, cols))
    }
}

/// Consumes the header's magic and version, refusing any version but
/// [`SEGMENT_VERSION`].
fn check_magic_and_version(r: &mut WireReader<'_>) -> Result<(), LakeError> {
    r.expect_magic(SEGMENT_MAGIC)?;
    if r.u64()? != SEGMENT_VERSION {
        return Err(LakeError::Corrupt("unsupported segment version"));
    }
    Ok(())
}

/// Reads the LEB128 varint at `*pos` and advances past it: the one
/// varint step of every chunk read. Most column deltas fit in seven
/// bits, so a one-byte value returns before the multi-byte loop.
#[inline(always)]
fn varint_at(data: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let first = *data.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    if first < 0x80 {
        return Ok(u64::from(first));
    }
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let byte = *data.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(DecodeError::Overlong);
        }
    }
}

/// Fully verifies a segment held in memory: header, footer, every chunk
/// checksum, and a decode of every value of every column. Returns the
/// row count. Used by `lake stat` and the corruption tests.
pub fn verify_segment_bytes(bytes: &[u8]) -> Result<u64, LakeError> {
    let mut reader = SegmentReader::open(std::io::Cursor::new(bytes))?;
    let mut buf = Vec::new();
    let n_chunks = reader.chunks.len();
    let mut rows_seen = 0u64;
    for idx in 0..n_chunks {
        reader.read_chunk(idx, &mut buf)?;
        let (rows, cols) = reader.chunk_columns(idx, &buf)?;
        for (ci, col) in cols.iter().enumerate() {
            let mut r = ColumnReader::new(col, rows);
            let (mut min, mut max) = (u64::MAX, 0u64);
            r.for_each(|v| {
                min = min.min(v);
                max = max.max(v);
            })?;
            if !r.fully_consumed() {
                return Err(LakeError::Corrupt("column has trailing bytes"));
            }
            let expect = reader.chunks[idx].minmax[ci];
            if rows > 0 && (min, max) != expect {
                return Err(LakeError::Corrupt("footer min/max disagree with data"));
            }
        }
        rows_seen += rows;
    }
    if rows_seen != reader.total_rows {
        return Err(LakeError::Corrupt("row totals disagree"));
    }
    Ok(rows_seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment(rows: u64, chunk_rows: usize) -> Vec<u8> {
        let mut w = SegmentWriter::new(TableKind::Bursts, chunk_rows);
        for i in 0..rows {
            let vals = [
                i / 7,
                i % 5,
                i,
                1 + i % 3,
                1000 + i * 17,
                (0.5 + i as f64).to_bits(),
                i % 4,
                u64::from(i % 4 >= 2),
                u64::from(i % 9 == 0),
                i % 2 * 300,
            ];
            w.push_row(&vals).unwrap();
        }
        w.finish()
    }

    #[test]
    fn column_round_trip_preserves_bit_patterns() {
        let mut w = ColumnWriter::new();
        let values = [0u64, 5, u64::MAX, (-1.5f64).to_bits(), 1, u64::MAX / 2];
        for &v in &values {
            w.push(v);
        }
        let (bytes, min, max) = w.take_chunk();
        assert_eq!(min, 0);
        assert_eq!(max, u64::MAX);
        let mut r = ColumnReader::new(&bytes, values.len() as u64);
        for &v in &values {
            assert_eq!(r.next().unwrap(), Some(v));
        }
        assert_eq!(r.next().unwrap(), None);
        assert!(r.fully_consumed());
    }

    #[test]
    fn take_chunk_resets_delta_base() {
        let mut w = ColumnWriter::new();
        w.push(1000);
        let (first, ..) = w.take_chunk();
        w.push(1000);
        let (second, ..) = w.take_chunk();
        // Same value, fresh base: identical encodings — chunks decode
        // independently, which is what makes pushdown skipping sound.
        assert_eq!(first, second);
    }

    #[test]
    fn segment_round_trip_and_verify() {
        let bytes = sample_segment(100, 16);
        assert_eq!(verify_segment_bytes(&bytes).unwrap(), 100);
        let r = SegmentReader::open(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(r.kind, TableKind::Bursts);
        assert_eq!(r.total_rows, 100);
        assert_eq!(r.chunks.len(), 7); // 6 full chunks of 16 + 1 of 4
        assert_eq!(r.col_names.len(), BURST_COLS.len());
        // "cell" column of the first chunk covers cells 0..=2.
        assert_eq!(r.chunks[0].minmax[0], (0, 2));
    }

    #[test]
    fn identical_rows_produce_identical_bytes() {
        assert_eq!(sample_segment(50, 8), sample_segment(50, 8));
        assert_ne!(sample_segment(50, 8), sample_segment(50, 16));
    }

    #[test]
    fn empty_segment_is_valid() {
        let w = SegmentWriter::new(TableKind::Series, 64);
        let bytes = w.finish();
        assert_eq!(verify_segment_bytes(&bytes).unwrap(), 0);
    }

    #[test]
    fn dictionary_round_trips_and_dedups() {
        let mut w = SegmentWriter::new(TableKind::Outcomes, 8);
        assert_eq!(w.dict_id("alpha"), 0);
        assert_eq!(w.dict_id("beta"), 1);
        assert_eq!(w.dict_id("alpha"), 0);
        let mut row = vec![0u64; OUTCOME_COLS.len()];
        row[2] = 1; // label = "beta"
        w.push_row(&row).unwrap();
        let bytes = w.finish();
        let r = SegmentReader::open(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(r.dict, vec!["alpha", "beta"]);
    }

    #[test]
    fn wrong_arity_row_is_rejected() {
        let mut w = SegmentWriter::new(TableKind::Series, 8);
        assert!(w.push_row(&[1, 2, 3]).is_err());
    }

    /// `bytes` with the header version set to `version` and the header
    /// and footer checksums recomputed, so only the version can be wrong.
    fn with_version(bytes: &[u8], version: u8) -> Vec<u8> {
        let trailer_at = bytes.len() - TRAILER_LEN as usize;
        let footer_len = u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap());
        let footer_at = trailer_at - footer_len as usize;
        let mut fr = WireReader::new(&bytes[footer_at..trailer_at]);
        let header_len = fr.u64().unwrap();
        fr.u64().unwrap(); // the old header checksum
        let footer_rest = &bytes[trailer_at - fr.remaining()..trailer_at];
        let mut header = bytes[..header_len as usize].to_vec();
        header[4] = version; // the version varint follows the magic
        let mut fw = WireWriter::new();
        fw.u64(header_len);
        fw.u64(codec::xxh64(&header));
        let mut footer = fw.finish();
        footer.extend_from_slice(footer_rest);
        let mut out = header;
        out.extend_from_slice(&bytes[header_len as usize..footer_at]);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        out.extend_from_slice(&codec::xxh64(&footer).to_le_bytes());
        out.extend_from_slice(TRAILER_MAGIC);
        out
    }

    #[test]
    fn previous_segment_version_is_refused_by_name() {
        let bytes = sample_segment(40, 16);
        assert_eq!(with_version(&bytes, 2), bytes, "the re-seal is exact");
        let old = with_version(&bytes, 1);
        let err = SegmentReader::open(std::io::Cursor::new(&old)).unwrap_err();
        assert!(
            matches!(err, LakeError::Corrupt("unsupported segment version")),
            "expected the version by name, got {err}"
        );
        assert!(verify_segment_bytes(&old).is_err());
    }

    #[test]
    fn for_each_matches_next_and_leaves_the_reader_on_error() {
        let mut w = ColumnWriter::new();
        let values = [3u64, 200, 0, u64::MAX, 70_000, 5];
        for &v in &values {
            w.push(v);
        }
        let (bytes, ..) = w.take_chunk();
        let mut seen = Vec::new();
        let mut r = ColumnReader::new(&bytes, values.len() as u64);
        r.for_each(|v| seen.push(v)).unwrap();
        assert_eq!(seen, values);
        assert!(r.fully_consumed());
        assert_eq!(r.next().unwrap(), None);
        // Cut mid-varint: the loop fails and the reader has not moved.
        let cut = &bytes[..bytes.len() - 1];
        let mut r = ColumnReader::new(cut, values.len() as u64);
        assert_eq!(r.next().unwrap(), Some(3));
        assert_eq!(r.for_each(|_| {}), Err(DecodeError::Truncated));
        assert_eq!(r.next().unwrap(), Some(200));
    }

    #[test]
    fn truncation_is_always_rejected() {
        let bytes = sample_segment(40, 16);
        for cut in 0..bytes.len() {
            assert!(
                verify_segment_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes decoded"
            );
        }
    }
}
