//! Compact on-disk encoding for run series.
//!
//! The deployment compresses completed runs before storing them on the host
//! ("the aggregated counters from periodically executed runs, compressed
//! and stored on the host for about a week, typically a few hundred
//! megabytes", §4.2). Counter series are long arrays of small, bursty
//! values — mostly zeros with occasional spikes — so **zig-zag delta +
//! LEB128 varint** encoding compresses them by an order of magnitude
//! without a general-purpose compressor dependency.
//!
//! The encoding is canonical: a given [`HostSeries`] always produces the
//! same byte string, which is what the determinism regression tests compare.
//! A stored run is framed as `MSR3`: the magic, the varint header and
//! columns, then a trailing 8-byte little-endian XXH64 checksum
//! ([`xxh64`]) over everything before it, so any single-byte corruption
//! decodes to an error instead of a silently different series.

use crate::run::HostSeries;
use ms_dcsim::Ns;

/// Errors produced while decoding stored runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-value.
    Truncated,
    /// A varint ran past the maximum length for u64.
    Overlong,
    /// The header did not carry the expected magic bytes.
    BadMagic,
    /// A well-formed varint outside its field's range: an unknown tag, a
    /// boolean above 1, a 32-bit field above `u32::MAX`, or bytes left
    /// after the last field.
    OutOfRange,
    /// The trailing XXH64 checksum ([`xxh64`]) did not match the bytes
    /// it covers.
    Checksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded run truncated"),
            DecodeError::Overlong => write!(f, "overlong varint"),
            DecodeError::BadMagic => write!(f, "bad magic (not a millisampler run)"),
            DecodeError::OutOfRange => write!(f, "value out of range for its field"),
            DecodeError::Checksum => write!(f, "checksum mismatch (corrupted encoding)"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// `MSR3` = delta + zig-zag + varint columns plus a trailing [`xxh64`]
/// checksum, so any single-byte corruption of a stored run is detected
/// instead of silently decoding into a different series. (`MSR2` carried
/// an FNV-1a checksum and is refused as [`DecodeError::BadMagic`].)
const MAGIC: &[u8; 4] = b"MSR3";

/// XXH64 (seed 0) over `bytes` — the workspace's integrity hash for
/// stored encodings (runs here, shard records and lake segments in
/// `ms-lake`). Written from the public XXH64 specification: four 64-bit
/// lanes over 32-byte stripes, then 8-, 4- and 1-byte tails and the
/// avalanche, so it reads eight bytes per dependent step where a
/// byte-serial hash reads one. Not cryptographic; it exists to turn bit
/// rot into a [`DecodeError::Checksum`] instead of a silently different
/// time series.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    // `chunks_exact` hands these exactly 8 or 4 bytes, so the conversions
    // cannot fail and compile to plain loads.
    fn le64(b: &[u8]) -> u64 {
        b.try_into().map_or(0, u64::from_le_bytes)
    }
    fn le32(b: &[u8]) -> u64 {
        b.try_into().map_or(0, |w| u64::from(u32::from_le_bytes(w)))
    }

    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() < 32 {
        P5
    } else {
        let mut acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = round(*a, le64(lane));
            }
        }
        let mut h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = (h ^ round(0, a)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, le64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut quads = words.remainder().chunks_exact(4);
    for q in &mut quads {
        h = (h ^ le32(q).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &b in quads.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Canonical append-only varint writer — the public face of this module's
/// wire primitives, shared by every codec-encoded schema in the workspace
/// (stored host runs here, `ScenarioSpec` in `ms-workload`, `RunOutcome`
/// in `ms-analysis`). The encoding is canonical: the same value sequence
/// always produces the same bytes, which is what the cross-crate
/// determinism tests compare.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// A writer seeded with a 4-byte schema magic.
    pub fn with_magic(magic: &[u8; 4]) -> Self {
        let mut w = WireWriter::new();
        w.buf.extend_from_slice(magic);
        w
    }

    /// Appends a LEB128 varint.
    pub fn u64(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    /// Appends a zig-zag varint.
    pub fn i64(&mut self, v: i64) {
        put_varint(&mut self.buf, zigzag(v));
    }

    /// Appends an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a boolean as one varint byte.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a delta + zig-zag encoded counter series (no length
    /// prefix; the reader must know the length from the header).
    pub fn series(&mut self, series: &[u64]) {
        put_series(&mut self.buf, series);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Takes the encoded bytes, leaving the writer empty for reuse (the
    /// chunked column encoders in `ms-lake` recycle one writer per
    /// column across chunks).
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Read cursor matching [`WireWriter`], with the same canonical encoding.
#[derive(Debug)]
pub struct WireReader<'a> {
    inner: Reader<'a>,
}

impl<'a> WireReader<'a> {
    /// A cursor over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader {
            inner: Reader::new(data),
        }
    }

    /// Consumes and checks a 4-byte schema magic.
    pub fn expect_magic(&mut self, magic: &[u8; 4]) -> Result<(), DecodeError> {
        if self.inner.remaining() < 4 || self.inner.get_bytes(4)? != magic {
            return Err(DecodeError::BadMagic);
        }
        Ok(())
    }

    /// Reads a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        get_varint(&mut self.inner)
    }

    /// Reads a varint that must fit in 32 bits.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.u64()?).map_err(|_| DecodeError::OutOfRange)
    }

    /// Reads a zig-zag varint.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.u64()?))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean (0 or 1; anything else is out of range).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::OutOfRange),
        }
    }

    /// Reads a length-prefixed byte string (capped like series lengths so
    /// corrupt headers cannot trigger huge allocations).
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u64()? as usize;
        if len > 1 << 24 {
            return Err(DecodeError::Overlong);
        }
        Ok(self.inner.get_bytes(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string (lossy on invalid UTF-8).
    pub fn string(&mut self) -> Result<String, DecodeError> {
        Ok(String::from_utf8_lossy(&self.bytes()?).into_owned())
    }

    /// Reads a delta + zig-zag encoded counter series of `len` values.
    pub fn series(&mut self, len: usize) -> Result<Vec<u64>, DecodeError> {
        get_series(&mut self.inner, len)
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    /// Fails unless every byte has been read: a schema's last field ends
    /// its encoding.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::OutOfRange)
        }
    }
}

/// A read cursor over an encoded byte slice.
#[derive(Debug)]
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.data.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Appends one LEB128 varint to `buf` — the workspace's lowest-level wire
/// primitive, public so per-value encoders (the lake's `ColumnWriter`)
/// can append without constructing a [`WireWriter`].
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8; // simlint: allow(cast-truncation): masked to 7 bits
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint in the canonical form [`put_varint`] writes, so each
/// value has exactly one accepted encoding: a final byte after the first
/// must add bits (is not zero), and none may fall past the 64th.
fn get_varint(buf: &mut Reader<'_>) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = buf.get_u8()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if shift > 0 && (byte == 0 || (shift == 63 && byte > 1)) {
                return Err(DecodeError::Overlong);
            }
            return Ok(v);
        }
    }
    Err(DecodeError::Overlong)
}

/// Zig-zag maps signed deltas onto unsigned varint-friendly values.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_series(buf: &mut Vec<u8>, series: &[u64]) {
    let mut prev = 0i64;
    for &v in series {
        let delta = (v as i64).wrapping_sub(prev);
        put_varint(buf, zigzag(delta));
        prev = v as i64;
    }
}

fn get_series(buf: &mut Reader<'_>, len: usize) -> Result<Vec<u64>, DecodeError> {
    // Capacity is clamped to what the remaining input could possibly
    // hold (≥ 1 byte per value), so a corrupt length cannot trigger a
    // huge allocation before the Truncated error surfaces.
    let mut out = Vec::with_capacity(len.min(buf.remaining()));
    let mut prev = 0i64;
    for _ in 0..len {
        let delta = unzigzag(get_varint(buf)?);
        // Wrapping: valid encodings never wrap (counters fit i64), and
        // corrupt deltas must reach the checksum check, not overflow.
        prev = prev.wrapping_add(delta);
        out.push(prev.max(0) as u64);
    }
    Ok(out)
}

/// Encodes a completed run for storage.
pub fn encode(series: &HostSeries) -> Vec<u8> {
    let mut buf = Vec::with_capacity(series.len() * 2 + 64);
    buf.extend_from_slice(MAGIC);
    put_varint(&mut buf, u64::from(series.host));
    put_varint(&mut buf, series.start.as_nanos());
    put_varint(&mut buf, series.interval.as_nanos());
    put_varint(&mut buf, series.len() as u64);
    for s in [
        &series.in_bytes,
        &series.in_retx,
        &series.out_bytes,
        &series.out_retx,
        &series.in_ecn,
        &series.conns,
    ] {
        put_series(&mut buf, s);
    }
    // Trailing integrity hash over everything before it: a store serving
    // week-old runs must detect corruption, not decode a different series.
    let sum = xxh64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Decodes a stored run.
pub fn decode(data: &[u8]) -> Result<HostSeries, DecodeError> {
    let mut buf = Reader::new(data);
    if buf.remaining() < 4 || buf.get_bytes(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let host = get_varint(&mut buf)?;
    let start = Ns(get_varint(&mut buf)?);
    let interval = Ns(get_varint(&mut buf)?);
    let len = get_varint(&mut buf)? as usize;
    // Cap series length to a sane bound so corrupt headers cannot trigger
    // huge allocations.
    if len > 1 << 24 {
        return Err(DecodeError::Overlong);
    }
    let in_bytes = get_series(&mut buf, len)?;
    let in_retx = get_series(&mut buf, len)?;
    let out_bytes = get_series(&mut buf, len)?;
    let out_retx = get_series(&mut buf, len)?;
    let in_ecn = get_series(&mut buf, len)?;
    let conns = get_series(&mut buf, len)?;
    let covered = buf.pos;
    let stored = u64::from_le_bytes(
        buf.get_bytes(8)?
            .try_into()
            .map_err(|_| DecodeError::Truncated)?,
    );
    if stored != xxh64(&data[..covered]) {
        return Err(DecodeError::Checksum);
    }
    Ok(HostSeries {
        host: u32::try_from(host).map_err(|_| DecodeError::OutOfRange)?,
        start,
        interval,
        in_bytes,
        in_retx,
        out_bytes,
        out_retx,
        in_ecn,
        conns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> HostSeries {
        let mut s = HostSeries::zeroed(5, Ns::from_millis(17), Ns::from_millis(1), 2000);
        // Sparse bursty pattern, like real traffic.
        for i in (100..140).chain(900..960) {
            s.in_bytes[i] = 1_400_000 + (i as u64 * 13) % 100_000;
            s.conns[i] = 30 + (i as u64 % 5);
        }
        s.in_retx[120] = 4_500;
        s.in_ecn[130] = 90_000;
        s
    }

    #[test]
    fn round_trip_exact() {
        let s = sample_series();
        let enc = encode(&s);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec, s);
    }

    #[test]
    fn compresses_sparse_series_substantially() {
        let s = sample_series();
        let raw = s.len() * 6 * 8; // six u64 series
        let enc = encode(&s).len();
        assert!(enc * 5 < raw, "encoded {enc} should be <20% of raw {raw}");
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_varint(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn only_canonical_varints_and_in_range_fields_decode() {
        let overlong: [&[u8]; 3] = [
            &[0x80, 0x00],                                                 // zero in two bytes
            &[0x85, 0x80, 0x00],                                           // five in three bytes
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02], // bit 65
        ];
        for bytes in overlong {
            assert_eq!(WireReader::new(bytes).u64(), Err(DecodeError::Overlong));
        }
        let mut w = WireWriter::new();
        w.u64(2);
        w.u64(u64::from(u32::MAX) + 1);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.bool(), Err(DecodeError::OutOfRange));
        assert_eq!(r.expect_end(), Err(DecodeError::OutOfRange));
        assert_eq!(r.u32(), Err(DecodeError::OutOfRange));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn encoding_is_canonical() {
        // The same series must always encode to the same bytes — the
        // property the determinism regression tests build on.
        let a = encode(&sample_series());
        let b = encode(&sample_series());
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_input_rejected() {
        let s = sample_series();
        let enc = encode(&s);
        let cut = &enc[..enc.len() / 2];
        assert!(matches!(decode(cut), Err(DecodeError::Truncated)));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE1234567890"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn wire_round_trip_all_types() {
        let mut w = WireWriter::with_magic(b"TST1");
        w.u64(u64::MAX);
        w.i64(-12345);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hello, fleet");
        w.series(&[0, 5, 5, 1_000_000, 3]);
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        r.expect_magic(b"TST1").unwrap();
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -12345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "hello, fleet");
        assert_eq!(r.series(5).unwrap(), vec![0, 5, 5, 1_000_000, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_bad_magic_and_truncation_rejected() {
        let mut r = WireReader::new(b"NOPE");
        assert_eq!(r.expect_magic(b"TST1"), Err(DecodeError::BadMagic));
        let mut w = WireWriter::new();
        w.str("something long enough to cut");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes[..bytes.len() / 2]);
        assert_eq!(r.bytes(), Err(DecodeError::Truncated));
    }

    #[test]
    fn empty_run_round_trips() {
        let s = HostSeries::zeroed(1, Ns::ZERO, Ns::from_millis(1), 0);
        let dec = decode(&encode(&s)).unwrap();
        assert_eq!(dec, s);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        // The trailing XXH64 hash turns any one-byte flip anywhere in
        // the encoding into an error: either a structural decode failure
        // or a checksum mismatch — never a silently different series.
        let enc = encode(&sample_series());
        for pos in 0..enc.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = enc.clone();
                bad[pos] ^= flip;
                assert!(
                    decode(&bad).is_err(),
                    "flip {flip:#04x} at byte {pos} must not decode"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let enc = encode(&sample_series());
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn xxh64_matches_spec_vectors() {
        // Seed-0 vectors of the reference XXH64 implementation.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    fn test_buffer(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn xxh64_prefixes_cover_every_tail_path_and_stay_distinct() {
        // Lengths 0..=96 walk the short path, one to three 32-byte
        // stripes, and every 8/4/1-byte tail combination after each.
        let buf = test_buffer(96);
        let mut hashes: Vec<u64> = (0..=buf.len()).map(|n| xxh64(&buf[..n])).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 97);
    }

    #[test]
    fn xxh64_sees_every_single_bit_flip() {
        let mut buf = test_buffer(4096);
        let clean = xxh64(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(xxh64(&buf), clean, "flipping bit {bit} kept the hash");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn previous_run_format_is_refused_by_name() {
        let mut enc = encode(&sample_series());
        enc[..4].copy_from_slice(b"MSR2");
        assert_eq!(decode(&enc), Err(DecodeError::BadMagic));
    }

    #[test]
    fn host_id_past_u32_is_out_of_range() {
        // Host 5 is the one-byte varint after the magic; splice in 2^32
        // and re-seal, so only the range check can refuse the run.
        let enc = encode(&sample_series());
        assert_eq!(enc[4], 5);
        let mut patched = enc[..4].to_vec();
        put_varint(&mut patched, 1 << 32);
        patched.extend_from_slice(&enc[5..enc.len() - 8]);
        let sum = xxh64(&patched);
        patched.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(decode(&patched), Err(DecodeError::OutOfRange));
    }

    #[test]
    fn wire_writer_take_resets_for_reuse() {
        let mut w = WireWriter::new();
        w.u64(7);
        let first = w.take();
        assert!(!first.is_empty());
        assert!(w.is_empty());
        w.u64(7);
        assert_eq!(w.take(), first, "reused writer must encode identically");
    }
}
