//! The `UVMC` durable-checkpoint container (DESIGN.md §12).
//!
//! A checkpoint file is a small envelope around an opaque payload the
//! engine layers produce with the `save_state` codecs:
//!
//! ```text
//! magic   4 bytes   b"UVMC"
//! version u32       CHECKPOINT_VERSION (LEB128)
//! check   2×u64     128-bit FNV-1a of the payload (LEB128)
//! payload bytes     length-prefixed opaque state image
//! ```
//!
//! The discipline mirrors the executor's spill cache: writes go to a
//! `.tmp` sibling, are fsynced, and land via atomic rename, so a
//! crash mid-write can never leave a truncated file under the real
//! name; reads verify magic, version, and checksum before a single
//! payload byte is decoded, and a corrupt file is quarantined (renamed
//! to `<name>.corrupt`) so a resume never loops over the same rotten
//! bytes. Version mismatches are *rejected but not quarantined* — the
//! file is a valid checkpoint from another revision, not damage.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use uvm_types::codec::{payload_checksum, ByteReader, ByteWriter, CodecError};

/// Container magic: the first four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"UVMC";

/// Current container format revision. Bump on any change to the
/// payload layout; readers reject every other value.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, fsync, rename, read).
    Io {
        /// What the container layer was doing.
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file's format revision is not [`CHECKPOINT_VERSION`].
    Version {
        /// Revision found in the file.
        found: u32,
        /// Revision this build reads.
        expected: u32,
    },
    /// The payload bytes do not hash to the stored checksum.
    Checksum,
    /// The payload decoded to something structurally invalid.
    Codec(CodecError),
    /// The payload is well-formed but belongs to a different run
    /// configuration (policy spec, capacity, fault plan, ...).
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, path, source } => {
                write!(f, "checkpoint {op} {}: {source}", path.display())
            }
            CheckpointError::BadMagic => write!(f, "not a UVMC checkpoint (bad magic)"),
            CheckpointError::Version { found, expected } => write!(
                f,
                "checkpoint format v{found} is not readable by this build (expects v{expected})"
            ),
            CheckpointError::Checksum => write!(f, "checkpoint payload checksum mismatch"),
            CheckpointError::Codec(e) => write!(f, "checkpoint payload corrupt: {e}"),
            CheckpointError::Incompatible(why) => {
                write!(f, "checkpoint belongs to a different run: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

impl CheckpointError {
    /// `true` for errors that mean the file itself is damaged (bad
    /// magic, bad checksum, undecodable payload) rather than merely
    /// foreign (wrong version, wrong run) or inaccessible (I/O).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            CheckpointError::BadMagic | CheckpointError::Checksum | CheckpointError::Codec(_)
        )
    }
}

/// Wraps `payload` in the `UVMC` envelope.
pub fn encode_container(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(CHECKPOINT_MAGIC);
    w.put_u32(CHECKPOINT_VERSION);
    let check = payload_checksum(payload);
    w.put_u64(check as u64);
    w.put_u64((check >> 64) as u64);
    w.put_bytes(payload);
    w.into_bytes()
}

/// Unwraps a `UVMC` envelope, verifying magic, version, and checksum
/// before returning the payload.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_raw(CHECKPOINT_MAGIC.len())?;
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let lo = r.get_u64()?;
    let hi = r.get_u64()?;
    let stored = (u128::from(hi) << 64) | u128::from(lo);
    let payload = r.get_bytes()?.to_vec();
    r.finish()?;
    if payload_checksum(&payload) != stored {
        return Err(CheckpointError::Checksum);
    }
    Ok(payload)
}

/// Writes `payload` as a checkpoint file with the spill-cache
/// discipline: envelope → `<path>.tmp` → fsync → atomic rename onto
/// `path`. A crash at any point leaves either the old file or the new
/// one, never a torn hybrid.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<(), CheckpointError> {
    let bytes = encode_container(payload);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|source| CheckpointError::Io {
            op: "create dir for",
            path: path.to_path_buf(),
            source,
        })?;
    }
    let tmp = tmp_sibling(path);
    let mut f = fs::File::create(&tmp).map_err(|source| CheckpointError::Io {
        op: "create",
        path: tmp.clone(),
        source,
    })?;
    f.write_all(&bytes)
        .and_then(|()| f.sync_all())
        .map_err(|source| CheckpointError::Io {
            op: "write",
            path: tmp.clone(),
            source,
        })?;
    drop(f);
    fs::rename(&tmp, path).map_err(|source| CheckpointError::Io {
        op: "rename into place",
        path: path.to_path_buf(),
        source,
    })
}

/// Reads a checkpoint file back, verifying the envelope. A file that
/// fails magic, checksum, or payload-shape validation is quarantined —
/// renamed to `<name>.corrupt` — before the error is returned, so a
/// retrying resume falls through to an older checkpoint (or a cold
/// start) instead of re-reading the same damage. Version mismatches
/// and plain I/O failures leave the file untouched.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = fs::read(path).map_err(|source| CheckpointError::Io {
        op: "read",
        path: path.to_path_buf(),
        source,
    })?;
    match decode_container(&bytes) {
        Ok(payload) => Ok(payload),
        Err(e) => {
            if e.is_corruption() {
                quarantine(path);
            }
            Err(e)
        }
    }
}

/// Renames a damaged checkpoint to `<name>.corrupt` (best-effort; an
/// unremovable file is left in place and the read error still stands).
pub fn quarantine(path: &Path) {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    let _ = fs::rename(path, PathBuf::from(name));
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uvmc-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn container_round_trips() {
        let payload = b"engine state bytes".to_vec();
        let bytes = encode_container(&payload);
        assert_eq!(decode_container(&bytes).unwrap(), payload);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_container(b"x");
        bytes[0] = b'Z';
        assert!(matches!(
            decode_container(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn version_mismatch_rejected_without_quarantine() {
        let dir = tempdir("ver");
        let path = dir.join("k.uvmc");
        let mut w = ByteWriter::new();
        w.put_raw(CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION + 7);
        w.put_u64(0);
        w.put_u64(0);
        w.put_bytes(b"payload");
        fs::write(&path, w.into_bytes()).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Version { found, expected }
                if found == CHECKPOINT_VERSION + 7 && expected == CHECKPOINT_VERSION
        ));
        assert!(!err.is_corruption());
        assert!(path.exists(), "foreign version is not damage");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_byte_fails_checksum_and_quarantines() {
        let dir = tempdir("sum");
        let path = dir.join("k.uvmc");
        write_checkpoint(&path, b"some payload bytes").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Checksum), "{err}");
        assert!(err.is_corruption());
        assert!(!path.exists(), "corrupt file renamed away");
        let quarantined = dir.join("k.uvmc.corrupt");
        assert!(quarantined.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_quarantined() {
        let dir = tempdir("trunc");
        let path = dir.join("k.uvmc");
        write_checkpoint(&path, &vec![0xAB; 256]).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(dir.join("k.uvmc.corrupt").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_is_atomic_no_tmp_left_behind() {
        let dir = tempdir("atomic");
        let path = dir.join("k.uvmc");
        write_checkpoint(&path, b"one").unwrap();
        write_checkpoint(&path, b"two").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), b"two");
        assert!(!dir.join("k.uvmc.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
