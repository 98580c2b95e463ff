//! A minimal binary codec for durable state — the byte-level
//! foundation of every binary file format in the workspace: the
//! `UVMC` checkpoint container, the `UVMT` trace format and the
//! `UVML` learned-table format.
//!
//! The workspace builds offline (no serde), so every checkpointable
//! structure and file format hand-rolls its encoding against these
//! types:
//!
//! * [`ByteWriter`] — append-only encoder (varint integers, zig-zag
//!   signed values, length-prefixed byte strings),
//! * [`ByteReader`] — the matching bounds-checked decoder, returning
//!   typed [`CodecError`]s instead of panicking on truncated or
//!   corrupt input,
//! * [`payload_checksum`] — the 128-bit FNV-1a digest each file
//!   stores over its payload.
//!
//! Encodings are canonical: a given value has exactly one byte
//! sequence, so checkpoint bytes can be checksummed and compared
//! across processes. Anything order-sensitive (LRU queues, free
//! lists) must be serialized in its observable order by the caller;
//! the codec itself adds no framing beyond what is written.
//!
//! # Examples
//!
//! ```
//! use uvm_types::codec::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.put_u64(300);
//! w.put_str("nw");
//! let bytes = w.into_bytes();
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.get_u64().unwrap(), 300);
//! assert_eq!(r.get_str().unwrap(), "nw");
//! assert!(r.finish().is_ok());
//! ```

use std::fmt;

use crate::hash::StableHasher;
use crate::{BasicBlockId, LargePageId, PageId, PAGES_PER_BASIC_BLOCK, PAGES_PER_LARGE_PAGE};

/// The 128-bit FNV-1a checksum a file envelope stores over its
/// payload, so a reader can reject damage before decoding a byte.
pub fn payload_checksum(payload: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// A typed decode failure. Carries enough context to name *what*
/// failed without holding onto the (possibly large) input buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    UnexpectedEof {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A varint ran past 10 bytes (encodes more than 64 bits).
    VarintOverflow {
        /// Byte offset of the offending varint's first byte.
        offset: usize,
    },
    /// A length prefix exceeds the remaining input — corrupt or
    /// truncated data; refusing early avoids huge bogus allocations.
    BadLength {
        /// The decoded (impossible) length.
        len: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A byte that must be 0 or 1 was neither.
    BadBool {
        /// The offending byte.
        value: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A tag/discriminant byte outside the expected set.
    BadTag {
        /// What was being decoded (static context string).
        what: &'static str,
        /// The offending tag value.
        value: u64,
    },
    /// Decoding finished with bytes left over — the reader and writer
    /// disagree about the schema.
    TrailingBytes {
        /// How many bytes were left unread.
        remaining: usize,
    },
    /// An id that indexes a dense table lies outside the managed range
    /// the reader was bounded to (see [`ByteReader::with_page_limit`]).
    OutOfRange {
        /// What was being decoded (static context string).
        what: &'static str,
        /// The offending id.
        value: u64,
        /// The exclusive bound it had to stay under.
        limit: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            CodecError::VarintOverflow { offset } => {
                write!(f, "varint wider than 64 bits at byte {offset}")
            }
            CodecError::BadLength { len, remaining } => {
                write!(f, "length prefix {len} exceeds {remaining} remaining bytes")
            }
            CodecError::BadBool { value } => write!(f, "boolean byte {value:#x} (want 0 or 1)"),
            CodecError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            CodecError::BadTag { what, value } => write!(f, "bad {what} tag {value}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            CodecError::OutOfRange { what, value, limit } => {
                write!(f, "{what} {value} outside the managed range 0..{limit}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary encoder.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes with no framing.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64` as an LEB128 varint (1–10 bytes).
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `u32` (varint).
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(v as u64);
    }

    /// Appends a `usize` (varint).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `i64`, zig-zag mapped so small magnitudes stay short.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked binary decoder over a borrowed buffer.
///
/// Besides the buffer, a reader carries a *page limit*: the number of
/// pages the decoded state manages. Tables indexed by page, basic-block
/// or large-page id grow to the highest id they hold, so their decoders
/// read ids through [`get_page`](Self::get_page) and friends, which
/// reject an id at or past the limit instead of letting one corrupt
/// record size an allocation. A new reader's limit is 0: until the
/// caller states the managed range, no such id is accepted.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    page_limit: u64,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`, with a page limit of 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader {
            buf,
            pos: 0,
            page_limit: 0,
        }
    }

    /// The same reader, accepting page ids below `limit`.
    pub fn with_page_limit(mut self, limit: u64) -> Self {
        self.page_limit = limit;
        self
    }

    /// Accepts page ids below `limit` from here on.
    pub fn set_page_limit(&mut self, limit: u64) {
        self.page_limit = limit;
    }

    /// The exclusive bound on decoded page ids.
    pub fn page_limit(&self) -> u64 {
        self.page_limit
    }

    /// Reads a page id, rejecting one at or past the page limit.
    pub fn get_page(&mut self) -> Result<PageId, CodecError> {
        self.get_bounded("page id", self.page_limit)
            .map(PageId::new)
    }

    /// Reads a basic-block id, rejecting one whose first page lies at or
    /// past the page limit.
    pub fn get_basic_block(&mut self) -> Result<BasicBlockId, CodecError> {
        let limit = self.page_limit.div_ceil(PAGES_PER_BASIC_BLOCK);
        self.get_bounded("basic-block id", limit)
            .map(BasicBlockId::new)
    }

    /// Reads a large-page id, rejecting one whose first page lies at or
    /// past the page limit.
    pub fn get_large_page(&mut self) -> Result<LargePageId, CodecError> {
        let limit = self.page_limit.div_ceil(PAGES_PER_LARGE_PAGE);
        self.get_bounded("large-page id", limit)
            .map(LargePageId::new)
    }

    fn get_bounded(&mut self, what: &'static str, limit: u64) -> Result<u64, CodecError> {
        let value = self.get_u64()?;
        if value >= limit {
            return Err(CodecError::OutOfRange { what, value, limit });
        }
        Ok(value)
    }

    /// Reads an element count, rejecting one larger than the bytes left:
    /// every encoded value takes at least one byte, so a larger count is
    /// corrupt, and a caller may pre-allocate the count it gets back.
    pub fn get_count(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Succeeds only if every input byte was consumed — call after the
    /// last field so schema drift surfaces as [`CodecError::TrailingBytes`]
    /// instead of silent truncation.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads `N` raw bytes as an array (fixed-width header fields).
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.get_raw(N)?);
        Ok(b)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let b = self.get_raw(1)?;
        Ok(b[0])
    }

    /// Reads an LEB128 varint `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self
                .get_u8()
                .map_err(|_| CodecError::UnexpectedEof { offset: start })?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow { offset: start });
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow { offset: start });
            }
        }
    }

    /// Reads a varint `u32`, rejecting values above `u32::MAX`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let v = self.get_u64()?;
        u32::try_from(v).map_err(|_| CodecError::BadTag {
            what: "u32",
            value: v,
        })
    }

    /// Reads a varint `usize`, rejecting values above `usize::MAX`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadTag {
            what: "usize",
            value: v,
        })
    }

    /// Reads a zig-zag `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let v = self.get_u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(CodecError::BadBool { value }),
        }
    }

    /// Reads length-prefixed bytes, validating the length against the
    /// remaining input before allocating anything.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        self.get_raw(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u64(0);
        w.put_u64(127);
        w.put_u64(128);
        w.put_u64(u64::MAX);
        w.put_i64(0);
        w.put_i64(-1);
        w.put_i64(i64::MIN);
        w.put_i64(i64::MAX);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"abc");
        w.put_str("déjà");
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 0);
        assert_eq!(r.get_u64().unwrap(), 127);
        assert_eq!(r.get_u64().unwrap(), 128);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), 0);
        assert_eq!(r.get_i64().unwrap(), -1);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert_eq!(r.get_i64().unwrap(), i64::MAX);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "déjà");
        assert_eq!(r.get_u32().unwrap(), u32::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(matches!(r.get_u64(), Err(CodecError::UnexpectedEof { .. })));
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let mut r = ByteReader::new(&[0xff; 11]);
        assert!(matches!(
            r.get_u64(),
            Err(CodecError::VarintOverflow { .. })
        ));
        // 10 bytes encoding a 65-bit value also rejected.
        let mut r = ByteReader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        assert!(matches!(
            r.get_u64(),
            Err(CodecError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn bogus_length_prefix_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn bad_bool_and_utf8_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(
            r.get_bool(),
            Err(CodecError::BadBool { value: 7 })
        ));
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn finish_reports_trailing_bytes() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u64().unwrap();
        assert!(matches!(
            r.finish(),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }
}
