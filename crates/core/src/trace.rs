//! Compact binary traces of per-run fault and access streams, and the
//! delta table the `learned` prefetcher consumes.
//!
//! # The `UVMT` trace format
//!
//! A trace is one run's merged page-event stream — far-faults, memory
//! accesses, kernel boundaries — with enough metadata to reproduce the
//! run that made it:
//!
//! ```text
//! magic    b"UVMT"                      4 bytes
//! version  u16 LE                       format revision (1)
//! meta     workload, prefetch, evict    length-prefixed UTF-8 each
//!          seed                         u64 LE
//! count    varint                       number of records
//! paylen   varint                       payload byte length
//! checksum u128 LE                      FNV-1a over the payload
//! payload  count records
//! ```
//!
//! Each record is a tag byte ([`TraceKind`]) followed by two zigzag
//! varints: the cycle delta and the page delta, both relative to the
//! previous record. Fault streams walk pages mostly in small strides,
//! so deltas keep records at 3–5 bytes against 17 for fixed-width —
//! the compactness that makes committing traces as CI artifacts
//! practical.
//!
//! Both formats are written and read with [`uvm_types::codec`]: its
//! LEB128 varints and zig-zag signed values, `put_raw`/`get_raw` for
//! the fixed-width little-endian header fields, and its
//! [`payload_checksum`]. The decoder verifies magic, version, and
//! checksum before yielding any record, so a truncated or bit-flipped
//! file fails loudly ([`TraceError`]) instead of training a garbage
//! table, and every count read from a file is bounded by the bytes
//! left before anything is allocated for it.
//!
//! # The `UVML` learned-table format
//!
//! [`train_table`] folds a trace's *fault* records into a
//! [`LearnedTable`]: for every context of `depth` consecutive fault
//! deltas it keeps the `degree` most frequent next deltas. The table
//! serializes to a sibling format (magic `UVML`, same
//! varint/checksum discipline) that `learned:table=PATH` loads at
//! policy-build time. Training is deterministic — ties break toward
//! the smaller delta — so retraining on the same trace is
//! byte-identical.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use uvm_types::codec::{payload_checksum, ByteReader, ByteWriter, CodecError};

/// Current revision of the `UVMT` trace format.
pub const TRACE_VERSION: u16 = 1;

/// Current revision of the `UVML` learned-table format.
pub const TABLE_VERSION: u16 = 1;

const TRACE_MAGIC: &[u8; 4] = b"UVMT";
const TABLE_MAGIC: &[u8; 4] = b"UVML";

/// What a trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A memory read serviced by the GPU.
    AccessRead,
    /// A memory write serviced by the GPU.
    AccessWrite,
    /// A far-fault the driver migrated a page for.
    Fault,
    /// A kernel boundary (page field is zero).
    KernelEnd,
}

impl TraceKind {
    /// The wire tag byte of this kind (stable across releases; the
    /// checkpoint codec reuses it to freeze pending export records).
    pub fn tag(self) -> u8 {
        match self {
            TraceKind::AccessRead => 0,
            TraceKind::AccessWrite => 1,
            TraceKind::Fault => 2,
            TraceKind::KernelEnd => 3,
        }
    }

    /// Decodes a wire tag byte back into a kind.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(TraceKind::AccessRead),
            1 => Some(TraceKind::AccessWrite),
            2 => Some(TraceKind::Fault),
            3 => Some(TraceKind::KernelEnd),
            _ => None,
        }
    }
}

/// One trace event: kind, engine cycle, raw page index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// What happened.
    pub kind: TraceKind,
    /// Engine cycle stamp.
    pub cycle: u64,
    /// Raw 4 KB page index (zero for [`TraceKind::KernelEnd`]).
    pub page: u64,
}

/// Run metadata carried in the trace header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name (e.g. `"backprop"`).
    pub workload: String,
    /// Prefetch policy spec string the run used.
    pub prefetch: String,
    /// Eviction policy spec string the run used.
    pub evict: String,
    /// The run's RNG seed.
    pub seed: u64,
}

/// Why a trace or table file failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The magic bytes were wrong — not a `UVMT`/`UVML` file.
    BadMagic,
    /// The format revision is newer than this decoder.
    BadVersion(u16),
    /// The payload checksum did not match the header.
    ChecksumMismatch,
    /// An unknown record tag byte.
    BadTag(u8),
    /// A field was truncated or malformed (short input, overlong
    /// varint, bad UTF-8).
    Codec(CodecError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a UVM trace/table file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            TraceError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            TraceError::BadTag(t) => write!(f, "unknown record tag {t}"),
            TraceError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Codec(e)
    }
}

/// Writes the magic and the fixed-width (u16 LE) format revision.
fn put_preamble(w: &mut ByteWriter, magic: &[u8; 4], version: u16) {
    w.put_raw(magic);
    w.put_raw(&version.to_le_bytes());
}

/// Reads and checks the magic and format revision.
fn check_preamble(r: &mut ByteReader<'_>, magic: &[u8; 4], version: u16) -> Result<(), TraceError> {
    if r.get_raw(magic.len())? != magic {
        return Err(TraceError::BadMagic);
    }
    let found = u16::from_le_bytes(r.get_array()?);
    if found != version {
        return Err(TraceError::BadVersion(found));
    }
    Ok(())
}

/// Writes the payload length, its checksum (u128 LE), and the payload.
fn put_payload(w: &mut ByteWriter, payload: &[u8]) {
    w.put_usize(payload.len());
    w.put_raw(&payload_checksum(payload).to_le_bytes());
    w.put_raw(payload);
}

/// Reads the payload that [`put_payload`] wrote, verifying its
/// checksum before any of it is decoded.
fn get_payload<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], TraceError> {
    let len = r.get_usize()?;
    let expect = u128::from_le_bytes(r.get_array()?);
    let payload = r.get_raw(len)?;
    if payload_checksum(payload) != expect {
        return Err(TraceError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Encodes a run's record stream into the `UVMT` wire format.
pub fn encode_trace(meta: &TraceMeta, records: &[TraceRecord]) -> Vec<u8> {
    let mut payload = ByteWriter::with_capacity(records.len() * 4);
    let mut prev_cycle: i64 = 0;
    let mut prev_page: i64 = 0;
    for r in records {
        payload.put_u8(r.kind.tag());
        payload.put_i64((r.cycle as i64).wrapping_sub(prev_cycle));
        payload.put_i64((r.page as i64).wrapping_sub(prev_page));
        prev_cycle = r.cycle as i64;
        prev_page = r.page as i64;
    }
    let payload = payload.into_bytes();

    let mut w = ByteWriter::with_capacity(payload.len() + 64);
    put_preamble(&mut w, TRACE_MAGIC, TRACE_VERSION);
    w.put_str(&meta.workload);
    w.put_str(&meta.prefetch);
    w.put_str(&meta.evict);
    w.put_raw(&meta.seed.to_le_bytes());
    w.put_usize(records.len());
    put_payload(&mut w, &payload);
    w.into_bytes()
}

/// Decodes a `UVMT` buffer, verifying magic, version, and checksum.
pub fn decode_trace(bytes: &[u8]) -> Result<(TraceMeta, Vec<TraceRecord>), TraceError> {
    let mut r = ByteReader::new(bytes);
    check_preamble(&mut r, TRACE_MAGIC, TRACE_VERSION)?;
    let meta = TraceMeta {
        workload: r.get_str()?.to_owned(),
        prefetch: r.get_str()?.to_owned(),
        evict: r.get_str()?.to_owned(),
        seed: u64::from_le_bytes(r.get_array()?),
    };
    let count = r.get_usize()?;
    let payload = get_payload(&mut r)?;

    // A record takes at least three bytes: tag plus two varints.
    let mut records = Vec::with_capacity(count.min(payload.len() / 3));
    let mut rp = ByteReader::new(payload);
    let mut cycle: i64 = 0;
    let mut page: i64 = 0;
    for _ in 0..count {
        let tag = rp.get_u8()?;
        let kind = TraceKind::from_tag(tag).ok_or(TraceError::BadTag(tag))?;
        cycle = cycle.wrapping_add(rp.get_i64()?);
        page = page.wrapping_add(rp.get_i64()?);
        records.push(TraceRecord {
            kind,
            cycle: cycle as u64,
            page: page as u64,
        });
    }
    Ok((meta, records))
}

/// The `learned` prefetcher's delta table: for each context of `depth`
/// consecutive fault deltas, the next deltas to predict, most
/// confident first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LearnedTable {
    /// Context length the table was trained with.
    depth: usize,
    /// Sorted by context, for deterministic serialization and O(log n)
    /// lookup.
    entries: Vec<(Vec<i64>, Vec<i64>)>,
}

impl LearnedTable {
    /// An empty table (predicts nothing) with the given context depth.
    pub fn empty(depth: usize) -> Self {
        LearnedTable {
            depth,
            entries: Vec::new(),
        }
    }

    /// The context length.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of distinct contexts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table holds no contexts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The predicted next deltas for `context`, most confident first.
    pub fn predict(&self, context: &[i64]) -> &[i64] {
        self.entries
            .binary_search_by(|(c, _)| c.as_slice().cmp(context))
            .map(|i| self.entries[i].1.as_slice())
            .unwrap_or(&[])
    }

    /// Serializes to the `UVML` wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.put_usize(self.depth);
        payload.put_usize(self.entries.len());
        for (context, nexts) in &self.entries {
            for &d in context {
                payload.put_i64(d);
            }
            payload.put_usize(nexts.len());
            for &d in nexts {
                payload.put_i64(d);
            }
        }
        let payload = payload.into_bytes();
        let mut w = ByteWriter::with_capacity(payload.len() + 32);
        put_preamble(&mut w, TABLE_MAGIC, TABLE_VERSION);
        put_payload(&mut w, &payload);
        w.into_bytes()
    }

    /// Decodes a `UVML` buffer, verifying magic, version, and
    /// checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = ByteReader::new(bytes);
        check_preamble(&mut r, TABLE_MAGIC, TABLE_VERSION)?;
        let mut rp = ByteReader::new(get_payload(&mut r)?);
        let depth = rp.get_usize()?;
        let count = rp.get_usize()?;
        // Every count read from the file is untrusted: each delta and
        // each length takes at least one byte, so the bytes left bound
        // every pre-allocation.
        let mut entries = Vec::with_capacity(count.min(rp.remaining()));
        for _ in 0..count {
            let mut context = Vec::with_capacity(depth.min(rp.remaining()));
            for _ in 0..depth {
                context.push(rp.get_i64()?);
            }
            let n = rp.get_usize()?;
            let mut nexts = Vec::with_capacity(n.min(rp.remaining()));
            for _ in 0..n {
                nexts.push(rp.get_i64()?);
            }
            entries.push((context, nexts));
        }
        Ok(LearnedTable { depth, entries })
    }

    /// Writes the table to `path` in `UVML` format.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.encode())
    }

    /// Loads a `UVML` table from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::decode(&bytes).map_err(|e| format!("decoding {}: {e}", path.display()))
    }
}

/// Trains a [`LearnedTable`] from a trace's fault records: for every
/// context of `depth` consecutive fault-page deltas, keep the `degree`
/// most frequent next deltas (ties toward the smaller delta, so
/// training is deterministic). Zero deltas — refaults on the same page
/// — are skipped as history noise.
pub fn train_table(records: &[TraceRecord], depth: usize, degree: usize) -> LearnedTable {
    assert!(depth >= 1, "context depth must be at least 1");
    assert!(degree >= 1, "prediction degree must be at least 1");
    let mut deltas: Vec<i64> = Vec::new();
    let mut prev: Option<u64> = None;
    for r in records {
        if r.kind != TraceKind::Fault {
            continue;
        }
        if let Some(p) = prev {
            let d = r.page as i64 - p as i64;
            if d != 0 {
                deltas.push(d);
            }
        }
        prev = Some(r.page);
    }

    let mut counts: HashMap<Vec<i64>, HashMap<i64, u64>> = HashMap::new();
    for window in deltas.windows(depth + 1) {
        let (context, next) = window.split_at(depth);
        *counts
            .entry(context.to_vec())
            .or_default()
            .entry(next[0])
            .or_insert(0) += 1;
    }

    let mut entries: Vec<(Vec<i64>, Vec<i64>)> = counts
        .into_iter()
        .map(|(context, nexts)| {
            let mut ranked: Vec<(i64, u64)> = nexts.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(degree);
            (context, ranked.into_iter().map(|(d, _)| d).collect())
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    LearnedTable { depth, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                kind: TraceKind::Fault,
                cycle: 100,
                page: 4096,
            },
            TraceRecord {
                kind: TraceKind::AccessRead,
                cycle: 150,
                page: 4096,
            },
            TraceRecord {
                kind: TraceKind::Fault,
                cycle: 220,
                page: 4097,
            },
            TraceRecord {
                kind: TraceKind::AccessWrite,
                cycle: 230,
                page: 4097,
            },
            TraceRecord {
                kind: TraceKind::Fault,
                cycle: 400,
                page: 4080, // backwards jump: signed deltas
            },
            TraceRecord {
                kind: TraceKind::KernelEnd,
                cycle: 500,
                page: 0,
            },
        ]
    }

    #[test]
    fn trace_round_trips_byte_exactly() {
        let meta = TraceMeta {
            workload: "backprop".into(),
            prefetch: "none".into(),
            evict: "LRU-4KB".into(),
            seed: 42,
        };
        let records = sample_records();
        let bytes = encode_trace(&meta, &records);
        let (meta2, records2) = decode_trace(&bytes).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(records, records2);
        // Re-encoding the decode is byte-identical.
        assert_eq!(encode_trace(&meta2, &records2), bytes);
    }

    #[test]
    fn empty_trace_round_trips() {
        let meta = TraceMeta::default();
        let bytes = encode_trace(&meta, &[]);
        let (m, r) = decode_trace(&bytes).unwrap();
        assert_eq!(m, meta);
        assert!(r.is_empty());
    }

    #[test]
    fn corrupt_header_and_payload_are_rejected() {
        let meta = TraceMeta::default();
        let good = encode_trace(&meta, &sample_records());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_trace(&bad_magic).unwrap_err(), TraceError::BadMagic);

        let mut bad_version = good.clone();
        bad_version[4] = 0xff;
        assert!(matches!(
            decode_trace(&bad_version).unwrap_err(),
            TraceError::BadVersion(_)
        ));

        let truncated = &good[..good.len() - 3];
        assert!(matches!(
            decode_trace(truncated).unwrap_err(),
            TraceError::Codec(CodecError::UnexpectedEof { .. })
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(
            decode_trace(&flipped).unwrap_err(),
            TraceError::ChecksumMismatch
        );
    }

    #[test]
    fn extreme_deltas_round_trip_without_overflow() {
        // Jumps wider than i64 wrap in both directions, so a crafted
        // file cannot overflow the decoder's running sums.
        let records: Vec<TraceRecord> = [i64::MAX as u64, 1 << 63, 0, u64::MAX]
            .into_iter()
            .map(|v| TraceRecord {
                kind: TraceKind::Fault,
                cycle: v,
                page: v,
            })
            .collect();
        let bytes = encode_trace(&TraceMeta::default(), &records);
        assert_eq!(decode_trace(&bytes).unwrap().1, records);
    }

    #[test]
    fn zigzag_is_an_involution() {
        // Record deltas are zig-zag varints: small magnitudes of
        // either sign take one byte, and every i64 round-trips.
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            let mut w = ByteWriter::new();
            w.put_i64(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len() == 1, (-64..64).contains(&v), "{v}");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_i64().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn training_ranks_deltas_by_frequency() {
        // Fault pages 0,1,2,3,4, 10, 11, 12 — delta stream
        // [1,1,1,1,6,1,1]: after a context [1], next is 1 (5 times)
        // or 6 (once).
        let pages = [0u64, 1, 2, 3, 4, 10, 11, 12];
        let records: Vec<TraceRecord> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| TraceRecord {
                kind: TraceKind::Fault,
                cycle: i as u64 * 10,
                page: p,
            })
            .collect();
        let table = train_table(&records, 1, 2);
        assert_eq!(table.depth(), 1);
        assert_eq!(table.predict(&[1]), &[1, 6]);
        assert_eq!(table.predict(&[6]), &[1]);
        assert_eq!(table.predict(&[99]), &[] as &[i64]);
    }

    #[test]
    fn training_is_deterministic_and_tables_round_trip() {
        let records: Vec<TraceRecord> = (0..200u64)
            .map(|i| TraceRecord {
                kind: TraceKind::Fault,
                cycle: i * 7,
                page: (i * i * 31) % 512,
            })
            .collect();
        let a = train_table(&records, 2, 4);
        let b = train_table(&records, 2, 4);
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
        let decoded = LearnedTable::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a);
    }

    #[test]
    fn corrupt_table_is_rejected() {
        let table = train_table(
            &[
                TraceRecord {
                    kind: TraceKind::Fault,
                    cycle: 0,
                    page: 1,
                },
                TraceRecord {
                    kind: TraceKind::Fault,
                    cycle: 1,
                    page: 2,
                },
                TraceRecord {
                    kind: TraceKind::Fault,
                    cycle: 2,
                    page: 3,
                },
            ],
            1,
            1,
        );
        let good = table.encode();
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert_eq!(
            LearnedTable::decode(&bad).unwrap_err(),
            TraceError::BadMagic
        );
        let last = good.len() - 1;
        let mut flipped = good.clone();
        flipped[last] ^= 1;
        assert_eq!(
            LearnedTable::decode(&flipped).unwrap_err(),
            TraceError::ChecksumMismatch
        );
    }

    /// Wraps a hand-built payload in a valid `UVML` envelope, so the
    /// decoder gets past the checksum to the counts inside.
    fn table_file(payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_preamble(&mut w, TABLE_MAGIC, TABLE_VERSION);
        put_payload(&mut w, payload);
        w.into_bytes()
    }

    #[test]
    fn huge_table_depth_is_a_typed_error_not_a_panic() {
        // depth = 2^62 with one entry: a capacity overflow if the
        // context were pre-allocated from the file's count.
        let mut payload = ByteWriter::new();
        payload.put_u64(1 << 62);
        payload.put_usize(1);
        payload.put_i64(5);
        let err = LearnedTable::decode(&table_file(&payload.into_bytes())).unwrap_err();
        assert!(
            matches!(err, TraceError::Codec(CodecError::UnexpectedEof { .. })),
            "{err:?}"
        );

        // Huge entry and prediction counts are bounded the same way.
        for (depth, count, n) in [(0u64, u64::MAX, 0u64), (1, 1, 1 << 60)] {
            let mut payload = ByteWriter::new();
            payload.put_u64(depth);
            payload.put_u64(count);
            if depth == 1 {
                payload.put_i64(1);
                payload.put_u64(n);
            }
            assert!(LearnedTable::decode(&table_file(&payload.into_bytes())).is_err());
        }

        // An empty table with a large depth is still valid.
        let empty = LearnedTable::empty(1 << 40);
        assert_eq!(LearnedTable::decode(&empty.encode()).unwrap(), empty);
    }
}
