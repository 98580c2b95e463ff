//! Dense, page-index-keyed tables for the GMMU hot path.
//!
//! The virtual address space is handed out by a 2 MB-aligned bump
//! allocator starting at address zero ([`crate::alloc::Allocations`]),
//! so the page indices a simulation touches form a small dense range.
//! That makes a plain `Vec` indexed by `PageId::index()` strictly
//! better than a `HashMap<PageId, _>` for the per-access lookups:
//! no hashing, no probing, one cache line per hit. [`DenseKey`] extends
//! the same layout to the evictors' recency lists
//! ([`LruQueue`](crate::LruQueue), [`HierarchicalLru`](crate::HierarchicalLru)).
//!
//! Because each table grows to the highest id it holds, its decoder
//! reads ids through the reader's page limit
//! ([`ByteReader::get_page`](uvm_types::codec::ByteReader::get_page)),
//! which the GMMU sets to its managed range on restore: a corrupt id
//! is a typed error, never a huge allocation.
//!
//! # Examples
//!
//! ```
//! use uvm_core::{DensePageMap, DensePageSet};
//! use uvm_types::PageId;
//!
//! let mut map: DensePageMap<u32> = DensePageMap::new();
//! map.insert(PageId::new(7), 42);
//! assert_eq!(map.get(PageId::new(7)), Some(42));
//!
//! let mut set = DensePageSet::new();
//! assert!(set.insert(PageId::new(3)));
//! assert!(!set.insert(PageId::new(3)));
//! assert!(set.contains(PageId::new(3)));
//! ```

use uvm_types::codec::{ByteReader, CodecError};
use uvm_types::{BasicBlockId, LargePageId, PageId};

/// A key with a dense integer index: its entry's position in a table
/// indexed by page, basic-block or large-page id.
pub trait DenseKey: Copy + Eq {
    /// The key's table index.
    fn dense_index(self) -> usize;

    /// Decodes a key written as its index with `put_u64`, rejecting one
    /// outside the reader's managed range.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

impl DenseKey for PageId {
    #[inline]
    fn dense_index(self) -> usize {
        self.index() as usize
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_page()
    }
}

impl DenseKey for BasicBlockId {
    #[inline]
    fn dense_index(self) -> usize {
        self.index() as usize
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_basic_block()
    }
}

impl DenseKey for LargePageId {
    #[inline]
    fn dense_index(self) -> usize {
        self.index() as usize
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_large_page()
    }
}

/// Plain integers index like pages, and decode under the page limit.
impl DenseKey for u64 {
    #[inline]
    fn dense_index(self) -> usize {
        self as usize
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_page().map(PageId::index)
    }
}

/// A `PageId → T` map backed by a dense `Vec<Option<T>>`.
///
/// Grows to the highest inserted page index; lookups outside the
/// grown range are misses, never panics.
#[derive(Clone, Debug, Default)]
pub struct DensePageMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T: Copy> DensePageMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        DensePageMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn idx(page: PageId) -> usize {
        page.index() as usize
    }

    /// The value for `page`, if present.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<T> {
        self.slots.get(Self::idx(page)).copied().flatten()
    }

    /// `true` if `page` has a value.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Inserts or replaces the value for `page`, returning the old one.
    pub fn insert(&mut self, page: PageId, value: T) -> Option<T> {
        let i = Self::idx(page);
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `page`'s value, returning it.
    pub fn remove(&mut self, page: PageId) -> Option<T> {
        let old = self.slots.get_mut(Self::idx(page))?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates present `(page, value)` entries in ascending page
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|v| (PageId::new(i as u64), v)))
    }

    /// Serializes the map for a checkpoint, delegating value encoding
    /// to `put`. Entries are written in ascending page order (the only
    /// order the dense representation has), so the encoding is
    /// canonical.
    pub fn save_state(
        &self,
        w: &mut uvm_types::codec::ByteWriter,
        mut put: impl FnMut(&mut uvm_types::codec::ByteWriter, T),
    ) {
        w.put_usize(self.len);
        for (page, value) in self.iter() {
            w.put_u64(page.index());
            put(w, value);
        }
    }

    /// Rebuilds a map from a [`save_state`](Self::save_state) image,
    /// delegating value decoding to `get`. A page at or past the
    /// reader's page limit is a [`CodecError::OutOfRange`].
    pub fn load_state<'a>(
        r: &mut ByteReader<'a>,
        mut get: impl FnMut(&mut ByteReader<'a>) -> Result<T, CodecError>,
    ) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        let mut map = DensePageMap::new();
        for _ in 0..n {
            let page = r.get_page()?;
            let value = get(r)?;
            map.insert(page, value);
        }
        Ok(map)
    }
}

/// A set of pages backed by a dense bitset.
#[derive(Clone, Debug, Default)]
pub struct DensePageSet {
    words: Vec<u64>,
    len: usize,
}

impl DensePageSet {
    /// An empty set.
    pub fn new() -> Self {
        DensePageSet {
            words: Vec::new(),
            len: 0,
        }
    }

    fn split(page: PageId) -> (usize, u64) {
        let i = page.index();
        ((i / 64) as usize, 1u64 << (i % 64))
    }

    /// `true` if `page` is a member.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        let (w, bit) = Self::split(page);
        self.words.get(w).is_some_and(|&word| word & bit != 0)
    }

    /// Inserts `page`; returns `true` if it was newly added.
    pub fn insert(&mut self, page: PageId) -> bool {
        let (w, bit) = Self::split(page);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `page`; returns `true` if it was a member.
    pub fn remove(&mut self, page: PageId) -> bool {
        let (w, bit) = Self::split(page);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let present = *word & bit != 0;
        *word &= !bit;
        if present {
            self.len -= 1;
        }
        present
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Serializes the set for a checkpoint (ascending member order —
    /// the bitmap has no other observable order).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.len);
        for page in self.iter_ascending() {
            w.put_u64(page.index());
        }
    }

    /// Rebuilds a set from a [`save_state`](Self::save_state) image. A
    /// page at or past the reader's page limit is a
    /// [`CodecError::OutOfRange`].
    pub fn load_state(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        let mut set = DensePageSet::new();
        for _ in 0..n {
            set.insert(r.get_page()?);
        }
        Ok(set)
    }

    /// Members in ascending page order: a word scan over the bitmap,
    /// skipping empty 64-page words in one comparison.
    pub fn iter_ascending(&self) -> impl Iterator<Item = PageId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some(PageId::new(w as u64 * 64 + b))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove() {
        let mut m: DensePageMap<u64> = DensePageMap::new();
        assert_eq!(m.get(PageId::new(1000)), None);
        assert_eq!(m.insert(PageId::new(5), 50), None);
        assert_eq!(m.insert(PageId::new(5), 51), Some(50));
        assert_eq!(m.len(), 1);
        assert!(m.contains(PageId::new(5)));
        assert_eq!(m.remove(PageId::new(5)), Some(51));
        assert_eq!(m.remove(PageId::new(5)), None);
        assert!(m.is_empty());
        // Removing beyond the grown range is a no-op.
        assert_eq!(m.remove(PageId::new(1 << 20)), None);
    }

    #[test]
    fn map_grows_sparsely() {
        let mut m: DensePageMap<u8> = DensePageMap::new();
        m.insert(PageId::new(0), 1);
        m.insert(PageId::new(4096), 2);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(PageId::new(0)), Some(1));
        assert_eq!(m.get(PageId::new(4096)), Some(2));
        assert_eq!(m.get(PageId::new(2048)), None);
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = DensePageSet::new();
        assert!(!s.contains(PageId::new(63)));
        assert!(s.insert(PageId::new(63)));
        assert!(!s.insert(PageId::new(63)));
        assert!(s.insert(PageId::new(64)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(PageId::new(63)));
        assert!(!s.remove(PageId::new(63)));
        assert!(!s.remove(PageId::new(1 << 30)), "out of range is absent");
        assert_eq!(s.len(), 1);
        assert!(s.contains(PageId::new(64)));
    }

    #[test]
    fn set_iter_ascending_scans_words() {
        let mut s = DensePageSet::new();
        for p in [200u64, 0, 63, 64, 65, 511] {
            s.insert(PageId::new(p));
        }
        s.remove(PageId::new(64));
        let got: Vec<u64> = s.iter_ascending().map(|p| p.index()).collect();
        assert_eq!(got, vec![0, 63, 65, 200, 511]);
        assert_eq!(DensePageSet::new().iter_ascending().count(), 0);
    }

    #[test]
    fn set_matches_reference_model() {
        use std::collections::HashSet;
        use uvm_types::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xd5e);
        let mut s = DensePageSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for _ in 0..2000 {
            let p = rng.gen_range(0u64..512);
            if rng.gen_bool(0.5) {
                assert_eq!(s.insert(PageId::new(p)), model.insert(p));
            } else {
                assert_eq!(s.remove(PageId::new(p)), model.remove(&p));
            }
            assert_eq!(s.len(), model.len());
        }
    }

    #[test]
    fn set_decoder_rejects_a_page_past_the_limit() {
        use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_u64(1 << 60);
        let bytes = w.into_bytes();
        let err = DensePageSet::load_state(&mut ByteReader::new(&bytes).with_page_limit(512))
            .unwrap_err();
        assert!(
            matches!(err, CodecError::OutOfRange { value, limit: 512, .. } if value == 1 << 60),
            "{err}"
        );
    }

    #[test]
    fn map_decoder_rejects_a_page_past_the_limit() {
        use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
        let mut m: DensePageMap<u64> = DensePageMap::new();
        m.insert(PageId::new(511), 7);
        let mut w = ByteWriter::new();
        m.save_state(&mut w, |w, v| w.put_u64(v));
        let bytes = w.into_bytes();
        let load = |limit| {
            DensePageMap::<u64>::load_state(
                &mut ByteReader::new(&bytes).with_page_limit(limit),
                |r| r.get_u64(),
            )
        };
        assert_eq!(load(512).unwrap().get(PageId::new(511)), Some(7));
        assert!(matches!(
            load(511),
            Err(CodecError::OutOfRange { value: 511, .. })
        ));
    }
}
