//! Hashers for the two regimes the simulator needs:
//!
//! * [`StableHasher`] — a stable 128-bit content hasher for on-disk
//!   cache keys, and
//! * [`FxHasher`] — a fast in-process hasher for the in-process hash
//!   maps off the per-access path (the GMMU's huge-page and region
//!   tables, each TLB's huge-page side table), where SipHash's
//!   per-byte mixing would eat the lookup-structure win. Unlike std's
//!   SipHash it is not randomly keyed, so even a map's iteration order
//!   repeats from run to run. The per-access structures (TLB slot
//!   indexes, the evictors' recency lists) index dense page tables
//!   instead and hash nothing.
//!
//! `std::hash::Hasher` implementations (SipHash) are randomly keyed
//! per process, so they cannot name on-disk cache entries. The FNV-1a
//! variant widened to 128 bits is stable across processes, platforms,
//! and compiler versions — the property the run-result spill cache
//! under `results/cache/` depends on.
//!
//! # Examples
//!
//! ```
//! use uvm_types::hash::StableHasher;
//!
//! let mut h = StableHasher::new();
//! h.write_str("nw");
//! h.write_u64(42);
//! let a = h.finish();
//! let mut h2 = StableHasher::new();
//! h2.write_str("nw");
//! h2.write_u64(42);
//! assert_eq!(a, h2.finish());
//! ```

/// FNV-1a offset basis for 128-bit hashes.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV prime for 128-bit hashes.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental, process-stable 128-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string, length-prefixed so field boundaries cannot
    /// alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Absorbs an `f64` by exact bit pattern (NaN payloads included),
    /// so any numeric change produces a different key.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs an optional `f64`, tagged so `None` differs from any
    /// `Some` value.
    pub fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.write_bool(false),
            Some(x) => {
                self.write_bool(true);
                self.write_f64(x);
            }
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// A fast, non-cryptographic `std::hash::Hasher` for in-process hash
/// maps on the simulation hot path (the rustc `FxHash` multiply-mix).
///
/// Not stable across platforms or compiler versions — never use it to
/// name on-disk cache entries; that is [`StableHasher`]'s job.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use uvm_types::hash::FxBuildHasher;
///
/// let mut map: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
/// map.insert(7, 1);
/// assert_eq!(map.get(&7), Some(&1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(f: impl FnOnce(&mut StableHasher)) -> u128 {
        let mut h = StableHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn known_stable_value() {
        // FNV-1a of the empty input is the offset basis; of "a" it is
        // a fixed constant. Pinning both guards against accidental
        // algorithm drift, which would silently orphan spilled caches.
        assert_eq!(digest(|_| {}), FNV_OFFSET);
        let a = digest(|h| h.write_bytes(b"a"));
        assert_eq!(a, (FNV_OFFSET ^ b'a' as u128).wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        let ab_c = digest(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let a_bc = digest(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn every_input_kind_perturbs() {
        let base = digest(|h| {
            h.write_u64(1);
            h.write_bool(false);
            h.write_f64(1.5);
            h.write_opt_f64(None);
        });
        let variants = [
            digest(|h| {
                h.write_u64(2);
                h.write_bool(false);
                h.write_f64(1.5);
                h.write_opt_f64(None);
            }),
            digest(|h| {
                h.write_u64(1);
                h.write_bool(true);
                h.write_f64(1.5);
                h.write_opt_f64(None);
            }),
            digest(|h| {
                h.write_u64(1);
                h.write_bool(false);
                h.write_f64(1.5000001);
                h.write_opt_f64(None);
            }),
            digest(|h| {
                h.write_u64(1);
                h.write_bool(false);
                h.write_f64(1.5);
                h.write_opt_f64(Some(0.0));
            }),
        ];
        for v in variants {
            assert_ne!(base, v);
        }
    }

    #[test]
    fn fx_hasher_discriminates_and_repeats() {
        use std::hash::Hasher;
        let hash_u64 = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_ne!(hash_u64(42), hash_u64(43));
        // Byte-wise writes agree with themselves across chunkings.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }
}
