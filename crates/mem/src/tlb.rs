//! Per-SM translation lookaside buffer.
//!
//! The paper models a fully associative TLB with single-cycle lookup
//! (Sec. 6.1, after Pichai et al.); misses are relayed to the GMMU for
//! a page-table walk. Architecturally the model is LRU-replaced and
//! fully associative; the *implementation* here is an intrusive LRU
//! list over a slab of slots, indexed by a dense page → slot table, so
//! `lookup`, `fill`, and `invalidate` are all O(1) — one table load,
//! no hashing — instead of the O(capacity) scans of a naive recency
//! array. The table grows to the highest page index the TLB has held,
//! two bytes per page: page ids must be the dense indices of the
//! simulator's 2 MB-aligned bump allocator, not arbitrary addresses.
//!
//! Two API layers share the same structure:
//!
//! * the plain [`lookup`](Tlb::lookup) / [`fill`](Tlb::fill) /
//!   [`invalidate`](Tlb::invalidate) surface, for standalone use, and
//! * the generation-stamped [`lookup_gen`](Tlb::lookup_gen) /
//!   [`fill_after_miss`](Tlb::fill_after_miss) surface the engine's
//!   shootdown protocol uses (see
//!   [`ShootdownDirectory`](crate::ShootdownDirectory)): each entry
//!   records the page generation it translated, and a lookup only hits
//!   when the stamp still matches the current generation — so a page
//!   eviction invalidates every SM's cached translation by bumping one
//!   counter, and a stale entry can never be observed as a hit even
//!   before its slot is reclaimed.
//!
//! The crate's property tests keep the previous `VecDeque`
//! implementation as an executable specification and check this one
//! against it.

use std::collections::HashMap;

use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
use uvm_types::hash::FxBuildHasher;
use uvm_types::{LargePageId, PageId};

/// Result of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLookup {
    /// Translation cached; access proceeds without a walk.
    Hit,
    /// Translation absent; the access is relayed to the GMMU.
    Miss,
}

/// A slot index. Two bytes cover any realistic TLB (the paper's has 64
/// entries) and halve the page table next to `u32`.
type SlotIx = u16;

/// Index sentinel: no slot. [`Tlb::new`] keeps every real slot below it.
const NIL: SlotIx = SlotIx::MAX;

/// One cached translation, threaded on the intrusive recency list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page: PageId,
    /// Page generation at fill time; a lookup hit requires this to
    /// still equal the page's current generation.
    generation: u32,
    prev: SlotIx,
    next: SlotIx,
}

/// A fully associative, LRU-replaced TLB with O(1) lookup, fill, and
/// invalidate (dense page → slot table + intrusive doubly-linked
/// recency list).
///
/// Page ids index the table directly, so they must be dense allocator
/// indices (as [`PageId`]s from the GMMU's bump allocator are): the
/// table costs two bytes per page up to the highest page cached.
///
/// # Examples
///
/// ```
/// use uvm_mem::{Tlb, TlbLookup};
/// use uvm_types::PageId;
///
/// let mut tlb = Tlb::new(2);
/// assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Miss);
/// tlb.fill(PageId::new(1));
/// assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Page index → slot, `NIL` when not cached; grows to the highest
    /// page filled.
    index: Vec<SlotIx>,
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<SlotIx>,
    /// Least recently used slot (eviction side), `NIL` when empty.
    lru: SlotIx,
    /// Most recently used slot, `NIL` when empty.
    mru: SlotIx,
    capacity: usize,
    hits: u64,
    misses: u64,
    /// Huge-page side table: one entry translates a whole 2 MB large
    /// page (the coalesced-mapping payoff — 512 pages, one slot).
    /// Modeled as a separate structure, like the dedicated large-page
    /// TLBs on real GPUs, so it does not contend with 4 KB entries for
    /// `capacity`; it holds at most one entry per huge-mapped large
    /// page. Entries are stamped with the GMMU's per-large-page
    /// mapping epoch, so a splinter invalidates every SM's entry by
    /// bumping one counter (the same trick `lookup_gen` plays with the
    /// [`ShootdownDirectory`](crate::ShootdownDirectory)).
    huge: HashMap<LargePageId, u64, FxBuildHasher>,
}

impl Tlb {
    /// The largest capacity: every slot index stays below the two-byte
    /// sentinel.
    const MAX_CAPACITY: usize = NIL as usize;

    /// Creates an empty TLB holding at most `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above 65,535 (slot indices are
    /// two bytes wide).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "TLB capacity {capacity} exceeds the {} slots a u16 index holds",
            Self::MAX_CAPACITY
        );
        Tlb {
            index: Vec::new(),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            capacity,
            hits: 0,
            misses: 0,
            huge: HashMap::default(),
        }
    }

    /// Looks up `page`, updating recency on a hit. Equivalent to
    /// [`lookup_gen`](Self::lookup_gen) at generation 0 (the
    /// generation every [`fill`](Self::fill) stamps).
    pub fn lookup(&mut self, page: PageId) -> TlbLookup {
        self.lookup_gen(page, 0)
    }

    /// Looks up `page` against its current generation, updating
    /// recency on a hit.
    ///
    /// An entry whose stamp no longer matches `generation` was shot
    /// down by a [`ShootdownDirectory::bump`] and is *never* observable
    /// as a hit: it counts as a miss, and its slot is reclaimed on the
    /// spot. (Under the engine's protocol the directory reclaims
    /// holder slots eagerly, so this lazy path is a second line of
    /// defence that also serves users who skip holder tracking.)
    ///
    /// [`ShootdownDirectory::bump`]: crate::ShootdownDirectory::bump
    pub fn lookup_gen(&mut self, page: PageId, generation: u32) -> TlbLookup {
        let slot = self.slot_of(page);
        if slot == NIL {
            self.misses += 1;
            return TlbLookup::Miss;
        }
        if self.slots[slot as usize].generation == generation {
            self.touch(slot);
            self.hits += 1;
            TlbLookup::Hit
        } else {
            // Stale translation: logically absent since the generation
            // bump.
            self.release(page, slot);
            self.misses += 1;
            TlbLookup::Miss
        }
    }

    /// Installs a translation for `page`, evicting the LRU entry if the
    /// TLB is full. Filling an already-present page refreshes recency.
    /// Equivalent to [`fill_gen`](Self::fill_gen) at generation 0.
    pub fn fill(&mut self, page: PageId) {
        let _ = self.fill_gen(page, 0);
    }

    /// Installs a translation for `page` stamped with `generation`,
    /// evicting the LRU entry if the TLB is full; returns the evicted
    /// page, if any. Filling an already-present page refreshes recency
    /// and re-stamps it.
    pub fn fill_gen(&mut self, page: PageId, generation: u32) -> Option<PageId> {
        let slot = self.slot_of(page);
        if slot != NIL {
            self.slots[slot as usize].generation = generation;
            self.touch(slot);
            return None;
        }
        self.insert_new(page, generation)
    }

    /// Fast-path fill for the access flow where [`lookup_gen`]
    /// (or [`lookup`](Self::lookup)) just missed on `page`: skips the
    /// present-entry probe `fill` pays, inserting directly. Returns
    /// the page evicted to make room, if any.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `page` is already cached — callers
    /// must only use this immediately after a miss on `page`.
    ///
    /// [`lookup_gen`]: Self::lookup_gen
    pub fn fill_after_miss(&mut self, page: PageId, generation: u32) -> Option<PageId> {
        debug_assert!(
            self.slot_of(page) == NIL,
            "fill_after_miss({page}) but the page is cached; use fill"
        );
        self.insert_new(page, generation)
    }

    /// Removes the translation for `page` if present, returning whether
    /// an entry was removed (the eager per-TLB shootdown a page
    /// eviction performs; with a [`ShootdownDirectory`] only the actual
    /// holder TLBs are visited).
    ///
    /// [`ShootdownDirectory`]: crate::ShootdownDirectory
    pub fn invalidate(&mut self, page: PageId) -> bool {
        let slot = self.slot_of(page);
        if slot == NIL {
            return false;
        }
        self.release(page, slot);
        true
    }

    /// Looks up a huge-page translation for `lp` at the GMMU's current
    /// mapping epoch. A hit covers every 4 KB page of the large page
    /// and counts once in the hit counter. A stale entry (epoch moved
    /// on: the mapping was splintered, possibly re-coalesced) is
    /// reclaimed on the spot and does *not* count a miss — the engine
    /// falls through to the 4 KB [`lookup_gen`](Self::lookup_gen),
    /// which does.
    pub fn lookup_huge(&mut self, lp: LargePageId, generation: u64) -> bool {
        match self.huge.get(&lp) {
            Some(&stamp) if stamp == generation => {
                self.hits += 1;
                true
            }
            Some(_) => {
                self.huge.remove(&lp);
                false
            }
            None => false,
        }
    }

    /// Installs (or re-stamps) the huge-page translation for `lp`.
    pub fn fill_huge(&mut self, lp: LargePageId, generation: u64) {
        self.huge.insert(lp, generation);
    }

    /// Removes the huge-page translation for `lp` if present (eager
    /// shootdown; epoch bumps make this optional).
    pub fn invalidate_huge(&mut self, lp: LargePageId) -> bool {
        self.huge.remove(&lp).is_some()
    }

    /// Current number of cached huge-page translations (stale entries
    /// included until a lookup reclaims them).
    pub fn huge_len(&self) -> usize {
        self.huge.len()
    }

    /// Current number of cached translations (stale-but-unreclaimed
    /// entries included, until a lookup or fill recycles them).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hit, miss) counts. The counters survive
    /// [`invalidate`](Self::invalidate) and generation bumps: they
    /// accumulate over every lookup the TLB ever served, regardless of
    /// how entries were later removed.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Serializes the TLB for a checkpoint: capacity, the live entries
    /// in LRU→MRU order with their generation stamps, the lifetime
    /// counters, and the huge-page side table (sorted by large page).
    ///
    /// Slot indices and the free list are *not* recorded — they are
    /// implementation details no lookup can observe. Restore replays
    /// the entries through [`fill_gen`](Self::fill_gen) in recency
    /// order, which reproduces the observable state exactly.
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.capacity);
        w.put_usize(self.len());
        let mut slot = self.lru;
        while slot != NIL {
            let s = &self.slots[slot as usize];
            w.put_u64(s.page.index());
            w.put_u32(s.generation);
            slot = s.next;
        }
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        let mut huge: Vec<(LargePageId, u64)> = self.huge.iter().map(|(&l, &e)| (l, e)).collect();
        huge.sort_unstable_by_key(|(l, _)| *l);
        w.put_usize(huge.len());
        for (lp, epoch) in huge {
            w.put_u64(lp.index());
            w.put_u64(epoch);
        }
    }

    /// Rebuilds a TLB from a [`save_state`](Self::save_state) image. A
    /// page at or past the reader's page limit is a
    /// [`CodecError::OutOfRange`].
    pub fn load_state(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let capacity = r.get_usize()?;
        if capacity == 0 || capacity > Self::MAX_CAPACITY {
            return Err(CodecError::BadTag {
                what: "tlb capacity",
                value: capacity as u64,
            });
        }
        let mut tlb = Tlb::new(capacity);
        let n = r.get_usize()?;
        if n > capacity {
            return Err(CodecError::BadTag {
                what: "tlb entry count",
                value: n as u64,
            });
        }
        for _ in 0..n {
            let page = r.get_page()?;
            let generation = r.get_u32()?;
            tlb.fill_gen(page, generation);
        }
        tlb.hits = r.get_u64()?;
        tlb.misses = r.get_u64()?;
        let n = r.get_usize()?;
        for _ in 0..n {
            let lp = LargePageId::new(r.get_u64()?);
            let epoch = r.get_u64()?;
            tlb.huge.insert(lp, epoch);
        }
        Ok(tlb)
    }

    /// Iterates the cached 4 KB translations in LRU→MRU order as
    /// `(page, generation)` — the auditor's view of what each SM still
    /// holds.
    pub fn iter_entries(&self) -> impl Iterator<Item = (PageId, u32)> + '_ {
        let mut slot = self.lru;
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let s = &self.slots[slot as usize];
            slot = s.next;
            Some((s.page, s.generation))
        })
    }

    /// Iterates the cached huge-page translations (arbitrary order) as
    /// `(large page, epoch stamp)`.
    pub fn iter_huge(&self) -> impl Iterator<Item = (LargePageId, u64)> + '_ {
        self.huge.iter().map(|(&l, &e)| (l, e))
    }

    /// The slot caching `page`, or `NIL`.
    #[inline]
    fn slot_of(&self, page: PageId) -> SlotIx {
        self.index
            .get(page.index() as usize)
            .copied()
            .unwrap_or(NIL)
    }

    /// Drops `page`'s entry in `slot` and recycles the slot.
    fn release(&mut self, page: PageId, slot: SlotIx) {
        self.index[page.index() as usize] = NIL;
        self.unlink(slot);
        self.free.push(slot);
    }

    /// Inserts a page known to be absent, evicting the LRU entry when
    /// at capacity.
    fn insert_new(&mut self, page: PageId, generation: u32) -> Option<PageId> {
        let (slot, victim) = if self.len() == self.capacity {
            let slot = self.lru;
            let victim = self.slots[slot as usize].page;
            self.index[victim.index() as usize] = NIL;
            self.unlink(slot);
            (slot, Some(victim))
        } else if let Some(slot) = self.free.pop() {
            (slot, None)
        } else {
            self.slots.push(Slot {
                page,
                generation,
                prev: NIL,
                next: NIL,
            });
            ((self.slots.len() - 1) as SlotIx, None)
        };
        let s = &mut self.slots[slot as usize];
        s.page = page;
        s.generation = generation;
        self.push_mru(slot);
        let i = page.index() as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, NIL);
        }
        self.index[i] = slot;
        victim
    }

    /// Moves `slot` to the MRU end of the recency list.
    fn touch(&mut self, slot: SlotIx) {
        if self.mru == slot {
            return;
        }
        self.unlink(slot);
        self.push_mru(slot);
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: SlotIx) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.lru = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.mru = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Appends a detached `slot` at the MRU end.
    fn push_mru(&mut self, slot: SlotIx) {
        self.slots[slot as usize].prev = self.mru;
        self.slots[slot as usize].next = NIL;
        if self.mru == NIL {
            self.lru = slot;
        } else {
            self.slots[self.mru as usize].next = slot;
        }
        self.mru = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(PageId::new(9)), TlbLookup::Miss);
        tlb.fill(PageId::new(9));
        assert_eq!(tlb.lookup(PageId::new(9)), TlbLookup::Hit);
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageId::new(1));
        tlb.fill(PageId::new(2));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        tlb.fill(PageId::new(3)); // evicts 2
        assert_eq!(tlb.lookup(PageId::new(2)), TlbLookup::Miss);
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        assert_eq!(tlb.lookup(PageId::new(3)), TlbLookup::Hit);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageId::new(1));
        tlb.fill(PageId::new(1));
        assert_eq!(tlb.len(), 1);
        tlb.fill(PageId::new(2));
        tlb.fill(PageId::new(1)); // refresh, not insert
        tlb.fill(PageId::new(3)); // evicts 2 (LRU), not 1
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        assert_eq!(tlb.lookup(PageId::new(2)), TlbLookup::Miss);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut tlb = Tlb::new(4);
        tlb.fill(PageId::new(5));
        assert!(tlb.invalidate(PageId::new(5)));
        assert_eq!(tlb.lookup(PageId::new(5)), TlbLookup::Miss);
        assert!(tlb.is_empty());
        // Invalidating an absent page is a no-op.
        assert!(!tlb.invalidate(PageId::new(6)));
    }

    #[test]
    fn invalidated_slot_frees_capacity() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageId::new(1));
        tlb.fill(PageId::new(2));
        tlb.invalidate(PageId::new(1));
        // The freed slot means this fill must NOT evict page 2.
        tlb.fill(PageId::new(3));
        assert_eq!(tlb.lookup(PageId::new(2)), TlbLookup::Hit);
        assert_eq!(tlb.lookup(PageId::new(3)), TlbLookup::Hit);
    }

    #[test]
    fn stale_generation_is_never_a_hit() {
        let mut tlb = Tlb::new(4);
        tlb.fill_gen(PageId::new(7), 0);
        assert_eq!(tlb.lookup_gen(PageId::new(7), 0), TlbLookup::Hit);
        // The page's generation moves on (a shootdown bump): the stale
        // stamp misses and the slot is reclaimed.
        assert_eq!(tlb.lookup_gen(PageId::new(7), 1), TlbLookup::Miss);
        assert!(tlb.is_empty());
        // Refilled at the new generation, it hits again.
        tlb.fill_after_miss(PageId::new(7), 1);
        assert_eq!(tlb.lookup_gen(PageId::new(7), 1), TlbLookup::Hit);
    }

    #[test]
    fn fill_after_miss_reports_victim() {
        let mut tlb = Tlb::new(2);
        assert_eq!(tlb.fill_after_miss(PageId::new(1), 0), None);
        assert_eq!(tlb.fill_after_miss(PageId::new(2), 0), None);
        assert_eq!(tlb.fill_after_miss(PageId::new(3), 0), Some(PageId::new(1)));
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Miss);
    }

    #[test]
    fn counters_survive_invalidation() {
        let mut tlb = Tlb::new(4);
        tlb.fill(PageId::new(1));
        tlb.lookup(PageId::new(1));
        tlb.invalidate(PageId::new(1));
        assert_eq!(tlb.hit_miss(), (1, 0), "invalidate keeps counters");
        tlb.lookup(PageId::new(1));
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn huge_entries_hit_until_epoch_moves() {
        let mut tlb = Tlb::new(2);
        let lp = LargePageId::new(3);
        assert!(!tlb.lookup_huge(lp, 1));
        tlb.fill_huge(lp, 1);
        assert!(tlb.lookup_huge(lp, 1));
        assert_eq!(tlb.huge_len(), 1);
        // Splinter: the GMMU bumps the epoch; the stale entry never
        // hits and is reclaimed lazily without counting a miss.
        let (hits, misses) = tlb.hit_miss();
        assert!(!tlb.lookup_huge(lp, 2));
        assert_eq!(tlb.huge_len(), 0);
        assert_eq!(tlb.hit_miss(), (hits, misses));
        // Re-coalesce at the new epoch.
        tlb.fill_huge(lp, 3);
        assert!(tlb.lookup_huge(lp, 3));
    }

    #[test]
    fn huge_entries_do_not_contend_with_small_slots() {
        let mut tlb = Tlb::new(1);
        tlb.fill(PageId::new(9));
        tlb.fill_huge(LargePageId::new(0), 1);
        assert_eq!(tlb.lookup(PageId::new(9)), TlbLookup::Hit);
        assert!(tlb.lookup_huge(LargePageId::new(0), 1));
        assert!(tlb.invalidate_huge(LargePageId::new(0)));
        assert!(!tlb.lookup_huge(LargePageId::new(0), 1));
    }
}
