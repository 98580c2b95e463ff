//! An O(1) indexable page set, used by the random eviction policy to
//! pick a uniformly random resident page and by the driver for
//! resident-page scans.
//!
//! The membership and position tables are dense, page-indexed
//! structures (a u64-word bitmap plus a position vector) rather than a
//! `HashMap`: the bump allocator hands out a small dense page range,
//! so membership is one bit test and ordered scans skip 64 absent
//! pages per word. The `items` vector is kept in insertion/swap order
//! — [`sample`](IndexedPageSet::sample) indexes into it, and that
//! order is behaviour-observable through the random evictor, so the
//! bitmap only ever *adds* an access path ([`iter_ascending`]), never
//! changes an existing one.
//!
//! [`iter_ascending`]: IndexedPageSet::iter_ascending

use uvm_types::rng::Rng;
use uvm_types::PageId;

use crate::dense::DensePageSet;

/// Sentinel for "page not present" in the dense position table.
const ABSENT: u32 = u32::MAX;

/// A set of pages supporting O(1) insert, remove, membership, uniform
/// random sampling, and word-scan ordered iteration.
///
/// # Examples
///
/// ```
/// use uvm_core::IndexedPageSet;
/// use uvm_types::PageId;
///
/// let mut set = IndexedPageSet::new();
/// set.insert(PageId::new(7));
/// set.insert(PageId::new(3));
/// assert!(set.contains(PageId::new(7)));
/// assert_eq!(set.len(), 2);
/// let ordered: Vec<u64> = set.iter_ascending().map(|p| p.index()).collect();
/// assert_eq!(ordered, vec![3, 7]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IndexedPageSet {
    /// Members in insertion/swap order — the sampling order.
    items: Vec<PageId>,
    /// Page index → position in `items` (`ABSENT` when not a member).
    pos: Vec<u32>,
    /// Membership bitmap; also drives [`iter_ascending`](Self::iter_ascending).
    bits: DensePageSet,
}

impl IndexedPageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, page: PageId) -> Option<usize> {
        match self.pos.get(page.index() as usize) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    fn set_position(&mut self, page: PageId, position: u32) {
        let i = page.index() as usize;
        if i >= self.pos.len() {
            self.pos.resize(i + 1, ABSENT);
        }
        self.pos[i] = position;
    }

    /// Inserts `page`; returns `true` if it was newly added.
    pub fn insert(&mut self, page: PageId) -> bool {
        if !self.bits.insert(page) {
            return false;
        }
        assert!(
            self.items.len() < ABSENT as usize,
            "IndexedPageSet position table overflow"
        );
        self.set_position(page, self.items.len() as u32);
        self.items.push(page);
        true
    }

    /// Removes `page` (swap-remove); returns `true` if it was present.
    pub fn remove(&mut self, page: PageId) -> bool {
        if !self.bits.remove(page) {
            return false;
        }
        let pos = self
            .position(page)
            .expect("bitmap and position table agree");
        self.pos[page.index() as usize] = ABSENT;
        let last = self.items.pop().expect("bitmap implies non-empty");
        if pos < self.items.len() {
            self.items[pos] = last;
            self.set_position(last, pos as u32);
        }
        true
    }

    /// `true` if `page` is in the set — one bit test.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.bits.contains(page)
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A uniformly random member, or `None` if empty. Draws exactly
    /// one `gen_range` over the insertion/swap order, so the sampled
    /// sequence is independent of the membership representation.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<PageId> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.gen_range(0..self.items.len())])
        }
    }

    /// Iterates over members in unspecified (insertion/swap) order.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.items.iter().copied()
    }

    /// Iterates over members in ascending page order: a word scan of
    /// the membership bitmap, skipping 64 absent pages per comparison.
    /// This order is deterministic given the member set alone —
    /// independent of insertion history — which is what the
    /// policy-swap reseeding of forked sweeps relies on.
    pub fn iter_ascending(&self) -> impl Iterator<Item = PageId> + '_ {
        self.bits.iter_ascending()
    }

    /// Serializes the set for a checkpoint. The `items` vector is
    /// written *verbatim* — its insertion/swap order is what
    /// [`sample`](Self::sample) indexes into, so it is
    /// schedule-observable and must round-trip exactly.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.items.len());
        for page in &self.items {
            w.put_u64(page.index());
        }
    }

    /// Rebuilds a set from a [`save_state`](Self::save_state) image by
    /// replaying inserts in the recorded order (insert appends, so the
    /// items vector — and with it the sampling order — is reproduced
    /// exactly, and the position table and bitmap follow). A page at or
    /// past the reader's page limit is a
    /// [`CodecError::OutOfRange`](uvm_types::codec::CodecError::OutOfRange).
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        let mut set = IndexedPageSet::new();
        for _ in 0..n {
            let page = r.get_page()?;
            if !set.insert(page) {
                return Err(uvm_types::codec::CodecError::BadTag {
                    what: "duplicate page in indexed set",
                    value: page.index(),
                });
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_types::rng::SmallRng;

    #[test]
    fn insert_remove_contains() {
        let mut s = IndexedPageSet::new();
        assert!(s.insert(PageId::new(1)));
        assert!(!s.insert(PageId::new(1)), "duplicate insert rejected");
        assert!(s.contains(PageId::new(1)));
        assert!(s.remove(PageId::new(1)));
        assert!(!s.remove(PageId::new(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut s = IndexedPageSet::new();
        for i in 0..10 {
            s.insert(PageId::new(i));
        }
        s.remove(PageId::new(0)); // forces a swap with the last element
        for i in 1..10 {
            assert!(s.contains(PageId::new(i)), "page {i} lost after swap");
        }
        assert_eq!(s.len(), 9);
        // Remove everything; the set must empty cleanly.
        for i in 1..10 {
            assert!(s.remove(PageId::new(i)));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sample_is_uniformish_and_member() {
        let mut s = IndexedPageSet::new();
        for i in 0..100 {
            s.insert(PageId::new(i));
        }
        let mut rng = SmallRng::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let p = s.sample(&mut rng).unwrap();
            assert!(s.contains(p));
            seen.insert(p.index());
        }
        // With 1000 draws over 100 items, nearly all items appear.
        assert!(seen.len() > 90, "only {} distinct samples", seen.len());
    }

    #[test]
    fn sample_order_matches_the_historical_hashmap_layout() {
        // The sampled sequence is a pure function of the insertion /
        // swap-remove history and the RNG stream: re-deriving it from
        // a reference implementation that keeps the same items vector
        // must agree draw for draw. This pins the bitmap refactor to
        // the behaviour the golden fixtures were generated under.
        struct Reference {
            items: Vec<PageId>,
            index: std::collections::HashMap<PageId, usize>,
        }
        impl Reference {
            fn insert(&mut self, page: PageId) -> bool {
                if self.index.contains_key(&page) {
                    return false;
                }
                self.index.insert(page, self.items.len());
                self.items.push(page);
                true
            }
            fn remove(&mut self, page: PageId) -> bool {
                let Some(pos) = self.index.remove(&page) else {
                    return false;
                };
                let last = self.items.pop().expect("non-empty");
                if pos < self.items.len() {
                    self.items[pos] = last;
                    self.index.insert(last, pos);
                }
                true
            }
        }

        let mut s = IndexedPageSet::new();
        let mut r = Reference {
            items: Vec::new(),
            index: std::collections::HashMap::new(),
        };
        let mut churn = SmallRng::seed_from_u64(0xc0de);
        for _ in 0..4000 {
            let p = PageId::new(churn.gen_range(0u64..300));
            if churn.gen_bool(0.6) {
                assert_eq!(s.insert(p), r.insert(p));
            } else {
                assert_eq!(s.remove(p), r.remove(p));
            }
            assert_eq!(s.items, r.items, "sampling order diverged");
        }
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let expect = if r.items.is_empty() {
                None
            } else {
                Some(r.items[rng_b.gen_range(0..r.items.len())])
            };
            assert_eq!(s.sample(&mut rng_a), expect);
        }
    }

    #[test]
    fn sample_empty_is_none() {
        let s = IndexedPageSet::new();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn iter_yields_all() {
        let mut s = IndexedPageSet::new();
        for i in [3u64, 1, 4] {
            s.insert(PageId::new(i));
        }
        let mut got: Vec<_> = s.iter().map(|p| p.index()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 4]);
    }

    #[test]
    fn iter_ascending_is_sorted_regardless_of_history() {
        let mut s = IndexedPageSet::new();
        for i in [300u64, 3, 64, 1, 128, 65] {
            s.insert(PageId::new(i));
        }
        s.remove(PageId::new(64));
        let got: Vec<_> = s.iter_ascending().map(|p| p.index()).collect();
        assert_eq!(got, vec![1, 3, 65, 128, 300]);
    }
}
