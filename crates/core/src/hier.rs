//! The hierarchical LRU ordering used by the pre-eviction policies.
//!
//! Paper Sec. 5.3: pages enter the list as soon as their valid flag is
//! set (not on first access, as a traditional LRU would), so unused
//! prefetched pages are evictable alongside their neighbours. Ordering
//! is hierarchical: 2 MB large pages are ordered by the access
//! timestamp of the whole chunk, and the 64 KB basic blocks within a
//! large page are ordered by their own access timestamps. Eviction
//! candidates are therefore *basic blocks*: the LRU block of the LRU
//! large page.

use std::collections::HashMap;

use uvm_types::hash::FxBuildHasher;
use uvm_types::{BasicBlockId, LargePageId, PageId};

use crate::lru::LruQueue;

/// Hierarchically ordered residency list at (large page, basic block)
/// granularity.
///
/// Pages arrive one at a time ([`on_validate`](Self::on_validate),
/// [`on_invalidate_page`](Self::on_invalidate_page)) or as a transfer
/// group ([`on_validate_group`](Self::on_validate_group),
/// [`on_invalidate_group`](Self::on_invalidate_group)). The group forms
/// do one touch and one count update per basic-block run instead of
/// per page, and leave exactly the state of the per-page loop.
///
/// # Examples
///
/// ```
/// use uvm_core::HierarchicalLru;
/// use uvm_types::PageId;
///
/// let mut h = HierarchicalLru::new();
/// h.on_validate(PageId::new(0));
/// h.on_validate(PageId::new(512)); // second large page
/// h.on_access(PageId::new(0));     // first large page becomes MRU
/// let victim = h.candidate(0, |_| true).unwrap();
/// assert_eq!(victim, PageId::new(512).basic_block());
/// ```
#[derive(Clone, Debug, Default)]
pub struct HierarchicalLru {
    /// Large pages, LRU-ordered by chunk access time.
    large_pages: LruQueue<LargePageId>,
    /// Per large page: its resident basic blocks, LRU-ordered.
    blocks: HashMap<LargePageId, LruQueue<BasicBlockId>, FxBuildHasher>,
    /// Resident pages per basic block.
    pages_per_block: HashMap<BasicBlockId, u32, FxBuildHasher>,
    /// Resident pages per large page, maintained incrementally so the
    /// candidate scans can skip a whole large page in O(1) instead of
    /// re-summing its blocks (the TBN-family policies call
    /// [`candidate`](Self::candidate) on every eviction).
    lp_pages: HashMap<LargePageId, u64, FxBuildHasher>,
    /// Total resident pages tracked.
    total_pages: u64,
}

impl HierarchicalLru {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `page` as newly valid (migrated). Sec. 5.3: pages are
    /// *placed at the back of the LRU list* when their valid flag is
    /// set, so migration refreshes the block's and large page's
    /// position just as an access would — a freshly migrated block is
    /// never the immediate next victim.
    pub fn on_validate(&mut self, page: PageId) {
        self.validate_run(page.basic_block(), 1);
    }

    /// Group form of [`on_validate`](Self::on_validate): one large-page
    /// touch, one block touch and one count update per basic-block run
    /// of `pages`. The end state equals the per-page loop's for any page
    /// order, because re-touching the entry a run just made MRU changes
    /// nothing.
    pub fn on_validate_group(&mut self, pages: &[PageId]) {
        for run in pages.chunk_by(|a, b| a.basic_block() == b.basic_block()) {
            self.validate_run(run[0].basic_block(), run.len() as u32);
        }
    }

    fn validate_run(&mut self, bb: BasicBlockId, n: u32) {
        let lp = bb.large_page();
        self.large_pages.touch(lp);
        self.blocks.entry(lp).or_default().touch(bb);
        *self.pages_per_block.entry(bb).or_insert(0) += n;
        *self.lp_pages.entry(lp).or_insert(0) += u64::from(n);
        self.total_pages += u64::from(n);
    }

    /// Records an access to `page`: its large page and basic block move
    /// to the MRU end of their respective orders. Accesses to pages not
    /// tracked by [`on_validate`](Self::on_validate) are ignored (the
    /// GMMU faults before accessing, so this cannot happen in a run) —
    /// inserting them would create zero-page ghost blocks and break the
    /// "every queued block holds at least one page" invariant that the
    /// whole-large-page reservation skip in
    /// [`candidate`](Self::candidate) relies on.
    pub fn on_access(&mut self, page: PageId) {
        let bb = page.basic_block();
        if !self.pages_per_block.contains_key(&bb) {
            return;
        }
        let lp = page.large_page();
        self.large_pages.touch(lp);
        self.blocks.entry(lp).or_default().touch(bb);
    }

    /// Removes one page of `block` from the accounting (the page was
    /// individually invalidated). Removes the block/large page entries
    /// once empty.
    pub fn on_invalidate_page(&mut self, page: PageId) {
        self.invalidate_run(page.basic_block(), 1);
    }

    /// Group form of [`on_invalidate_page`](Self::on_invalidate_page):
    /// one count update per basic-block run of `pages`. A block or
    /// large page can only drain on a run's last page, so dropping its
    /// entries after the run leaves the per-page loop's state.
    pub fn on_invalidate_group(&mut self, pages: &[PageId]) {
        for run in pages.chunk_by(|a, b| a.basic_block() == b.basic_block()) {
            self.invalidate_run(run[0].basic_block(), run.len() as u32);
        }
    }

    fn invalidate_run(&mut self, bb: BasicBlockId, n: u32) {
        let count = self
            .pages_per_block
            .get_mut(&bb)
            .filter(|c| **c >= n)
            .expect("invalidate of untracked page");
        *count -= n;
        self.total_pages -= u64::from(n);
        let lp = bb.large_page();
        let lp_count = self
            .lp_pages
            .get_mut(&lp)
            .expect("invalidate of untracked large page");
        *lp_count -= u64::from(n);
        if *lp_count == 0 {
            self.lp_pages.remove(&lp);
        }
        if *count == 0 {
            self.pages_per_block.remove(&bb);
            if let Some(q) = self.blocks.get_mut(&lp) {
                q.remove(&bb);
                if q.is_empty() {
                    self.blocks.remove(&lp);
                    self.large_pages.remove(&lp);
                }
            }
        }
    }

    /// Resident pages currently tracked.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Resident pages of `block`.
    pub fn block_pages(&self, block: BasicBlockId) -> u32 {
        self.pages_per_block.get(&block).copied().unwrap_or(0)
    }

    /// Picks the eviction-candidate basic block: the least-recently
    /// used block of the least-recently used large page, after skipping
    /// the `reserve_pages` least-recent pages (the Sec. 5.3 reservation
    /// optimisation) and any block rejected by `eligible`.
    pub fn candidate(
        &self,
        reserve_pages: u64,
        mut eligible: impl FnMut(BasicBlockId) -> bool,
    ) -> Option<BasicBlockId> {
        let mut skipped = 0u64;
        for lp in self.large_pages.iter() {
            let Some(blocks) = self.blocks.get(lp) else {
                continue;
            };
            // Whole-large-page skip: if even the last block of this
            // large page falls inside the reservation, no block in it
            // can be a candidate (every resident block holds >= 1 page,
            // so the per-block walk below would skip each one). Exact,
            // because the per-block walk only tests `eligible` once
            // `skipped` reaches `reserve_pages`.
            let lp_total = self.lp_pages.get(lp).copied().unwrap_or(0);
            if skipped + lp_total <= reserve_pages {
                skipped += lp_total;
                continue;
            }
            for &bb in blocks.iter() {
                let pages = u64::from(self.block_pages(bb));
                if skipped < reserve_pages {
                    skipped += pages;
                    continue;
                }
                if eligible(bb) {
                    return Some(bb);
                }
            }
        }
        None
    }

    /// Picks the eviction-candidate *large page* for 2 MB LRU eviction,
    /// after skipping `reserve_pages` least-recent pages.
    pub fn candidate_large_page(
        &self,
        reserve_pages: u64,
        mut eligible: impl FnMut(LargePageId) -> bool,
    ) -> Option<LargePageId> {
        let mut skipped = 0u64;
        for &lp in self.large_pages.iter() {
            let pages = self.lp_pages.get(&lp).copied().unwrap_or(0);
            if skipped < reserve_pages {
                skipped += pages;
                continue;
            }
            if eligible(lp) {
                return Some(lp);
            }
        }
        None
    }

    /// Resident basic blocks of `lp` in LRU order.
    pub fn blocks_of(&self, lp: LargePageId) -> impl Iterator<Item = BasicBlockId> + '_ {
        self.blocks
            .get(&lp)
            .into_iter()
            .flat_map(|q| q.iter().copied())
    }

    /// Serializes the hierarchy for a checkpoint: the large-page queue
    /// in LRU→MRU order, each large page's block queue in LRU→MRU
    /// order, and the per-block page counts (sorted, for a canonical
    /// encoding).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.large_pages.len());
        for &lp in self.large_pages.iter() {
            w.put_u64(lp.index());
            let blocks = self.blocks.get(&lp);
            w.put_usize(blocks.map_or(0, |q| q.len()));
            if let Some(q) = blocks {
                for &bb in q.iter() {
                    w.put_u64(bb.index());
                }
            }
        }
        let mut counts: Vec<(BasicBlockId, u32)> =
            self.pages_per_block.iter().map(|(&b, &c)| (b, c)).collect();
        counts.sort_unstable_by_key(|(b, _)| *b);
        w.put_usize(counts.len());
        for (bb, count) in counts {
            w.put_u64(bb.index());
            w.put_u32(count);
        }
        w.put_u64(self.total_pages);
    }

    /// Rebuilds a hierarchy from a [`save_state`](Self::save_state)
    /// image.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let mut h = HierarchicalLru::new();
        let lps = r.get_usize()?;
        for _ in 0..lps {
            let lp = LargePageId::new(r.get_u64()?);
            h.large_pages.touch(lp);
            let nb = r.get_usize()?;
            let q = h.blocks.entry(lp).or_default();
            for _ in 0..nb {
                q.touch(BasicBlockId::new(r.get_u64()?));
            }
        }
        let nc = r.get_usize()?;
        for _ in 0..nc {
            let bb = BasicBlockId::new(r.get_u64()?);
            let count = r.get_u32()?;
            h.pages_per_block.insert(bb, count);
            // `lp_pages` is derived data, rebuilt here rather than
            // serialized so the checkpoint byte format is unchanged.
            *h.lp_pages.entry(bb.large_page()).or_insert(0) += u64::from(count);
        }
        h.total_pages = r.get_u64()?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn validate_tracks_counts() {
        let mut h = HierarchicalLru::new();
        for i in 0..16 {
            h.on_validate(page(i));
        }
        assert_eq!(h.total_pages(), 16);
        assert_eq!(h.block_pages(BasicBlockId::new(0)), 16);
        assert_eq!(h.block_pages(BasicBlockId::new(1)), 0);
    }

    #[test]
    fn candidate_is_lru_block_of_lru_large_page() {
        let mut h = HierarchicalLru::new();
        // Two large pages; validate one block in each.
        h.on_validate(page(0)); // lp0, bb0
        h.on_validate(page(512)); // lp1, bb32
                                  // Access lp0 -> lp1 is LRU.
        h.on_access(page(0));
        let c = h.candidate(0, |_| true).unwrap();
        assert_eq!(c, BasicBlockId::new(32));
        // Now access lp1; lp0 becomes LRU.
        h.on_access(page(512));
        let c = h.candidate(0, |_| true).unwrap();
        assert_eq!(c, BasicBlockId::new(0));
    }

    #[test]
    fn within_large_page_blocks_ordered_by_access() {
        let mut h = HierarchicalLru::new();
        h.on_validate(page(0)); // bb0
        h.on_validate(page(16)); // bb1
        h.on_validate(page(32)); // bb2
        h.on_access(page(0));
        h.on_access(page(32));
        // bb1 was validated but never accessed; insert order makes it
        // older than the touched ones.
        let c = h.candidate(0, |_| true).unwrap();
        assert_eq!(c, BasicBlockId::new(1));
    }

    #[test]
    fn unaccessed_prefetched_blocks_are_evictable() {
        // The whole point of the Sec. 5.3 design choice: valid-but-
        // never-accessed blocks appear in the list.
        let mut h = HierarchicalLru::new();
        for i in 0..16 {
            h.on_validate(page(i)); // bb0, never accessed
        }
        assert!(h.candidate(0, |_| true).is_some());
    }

    #[test]
    fn reservation_skips_top_of_list() {
        let mut h = HierarchicalLru::new();
        // Three blocks of 16 pages each in one large page.
        for b in 0..3u64 {
            for i in 0..16 {
                h.on_validate(page(b * 16 + i));
            }
            h.on_access(page(b * 16)); // access order: bb0, bb1, bb2
        }
        // No reservation: bb0.
        assert_eq!(h.candidate(0, |_| true).unwrap(), BasicBlockId::new(0));
        // Reserving 16 pages skips bb0.
        assert_eq!(h.candidate(16, |_| true).unwrap(), BasicBlockId::new(1));
        // Reserving 17..32 pages also skips bb1.
        assert_eq!(h.candidate(20, |_| true).unwrap(), BasicBlockId::new(2));
        // Reserving everything: no candidate.
        assert_eq!(h.candidate(48, |_| true), None);
    }

    #[test]
    fn eligibility_filter_respected() {
        let mut h = HierarchicalLru::new();
        h.on_validate(page(0)); // bb0
        h.on_validate(page(16)); // bb1
        let c = h.candidate(0, |bb| bb != BasicBlockId::new(0)).unwrap();
        assert_eq!(c, BasicBlockId::new(1));
        assert_eq!(h.candidate(0, |_| false), None);
    }

    #[test]
    fn invalidate_page_removes_empty_structures() {
        let mut h = HierarchicalLru::new();
        h.on_validate(page(0));
        h.on_validate(page(1));
        h.on_invalidate_page(page(0));
        assert_eq!(h.total_pages(), 1);
        assert_eq!(h.block_pages(BasicBlockId::new(0)), 1);
        h.on_invalidate_page(page(1));
        assert_eq!(h.total_pages(), 0);
        assert!(h.candidate(0, |_| true).is_none());
    }

    #[test]
    fn candidate_large_page_order() {
        let mut h = HierarchicalLru::new();
        h.on_validate(page(0)); // lp0
        h.on_validate(page(512)); // lp1
        h.on_validate(page(1024)); // lp2
        h.on_access(page(0));
        h.on_access(page(1024));
        // LRU large page is lp1 (validated, never accessed, but lp0 and
        // lp2 were touched after).
        assert_eq!(
            h.candidate_large_page(0, |_| true).unwrap(),
            LargePageId::new(1)
        );
        // Reservation skipping one page's worth skips lp1.
        assert_eq!(
            h.candidate_large_page(1, |_| true).unwrap(),
            LargePageId::new(0)
        );
    }

    #[test]
    fn blocks_of_iterates_lru_order() {
        let mut h = HierarchicalLru::new();
        h.on_validate(page(0));
        h.on_validate(page(16));
        h.on_access(page(0)); // bb0 newer than bb1
        let order: Vec<_> = h.blocks_of(LargePageId::new(0)).collect();
        assert_eq!(order, vec![BasicBlockId::new(1), BasicBlockId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn invalidate_untracked_page_panics() {
        let mut h = HierarchicalLru::new();
        h.on_invalidate_page(page(0));
    }

    /// Reference `candidate`: the pre-memoization implementation that
    /// walks every block and re-derives per-large-page totals on each
    /// call. The incremental `lp_pages` cache must never change what
    /// either scan returns.
    fn naive_candidate(h: &HierarchicalLru, reserve_pages: u64) -> Option<BasicBlockId> {
        let mut skipped = 0u64;
        for lp in h.large_pages.iter() {
            let Some(blocks) = h.blocks.get(lp) else {
                continue;
            };
            for &bb in blocks.iter() {
                let pages = u64::from(h.block_pages(bb));
                if skipped < reserve_pages {
                    skipped += pages;
                    continue;
                }
                return Some(bb);
            }
        }
        None
    }

    fn naive_candidate_large_page(h: &HierarchicalLru, reserve_pages: u64) -> Option<LargePageId> {
        let mut skipped = 0u64;
        for &lp in h.large_pages.iter() {
            let pages: u64 = h
                .blocks
                .get(&lp)
                .map(|q| q.iter().map(|&b| u64::from(h.block_pages(b))).sum())
                .unwrap_or(0);
            if skipped < reserve_pages {
                skipped += pages;
                continue;
            }
            return Some(lp);
        }
        None
    }

    #[test]
    fn candidate_matches_naive_rescan_differentially() {
        // Pseudorandom validate/access/invalidate churn over 4 large
        // pages, checking both candidate scans against the naive
        // re-summing reference at every reservation depth after each
        // step.
        let mut h = HierarchicalLru::new();
        let mut resident: Vec<u64> = Vec::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for step in 0..2000u64 {
            let r = next();
            let p = r % 2048; // 4 large pages of 512 pages each
            match r % 3 {
                0 => {
                    h.on_validate(page(p));
                    resident.push(p);
                }
                1 => {
                    // Access only resident pages, per the on_access
                    // contract (the GMMU faults before accessing).
                    if !resident.is_empty() {
                        let idx = (r as usize / 11) % resident.len();
                        h.on_access(page(resident[idx]));
                    }
                }
                _ => {
                    if !resident.is_empty() {
                        let idx = (r as usize / 7) % resident.len();
                        h.on_invalidate_page(page(resident.swap_remove(idx)));
                    }
                }
            }
            if step % 37 == 0 {
                for reserve in [0, 1, 15, 16, 17, 100, h.total_pages(), h.total_pages() + 5] {
                    assert_eq!(
                        h.candidate(reserve, |_| true),
                        naive_candidate(&h, reserve),
                        "candidate diverged at step {step}, reserve {reserve}"
                    );
                    assert_eq!(
                        h.candidate_large_page(reserve, |_| true),
                        naive_candidate_large_page(&h, reserve),
                        "candidate_large_page diverged at step {step}, reserve {reserve}"
                    );
                }
            }
        }
    }

    #[test]
    fn lp_pages_cache_survives_checkpoint_round_trip() {
        let mut h = HierarchicalLru::new();
        for i in 0..64 {
            h.on_validate(page(i));
            h.on_validate(page(512 + i));
        }
        h.on_access(page(5));
        let mut w = uvm_types::codec::ByteWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let restored =
            HierarchicalLru::load_state(&mut uvm_types::codec::ByteReader::new(&bytes)).unwrap();
        for reserve in [0, 32, 64, 96, 128] {
            assert_eq!(
                restored.candidate(reserve, |_| true),
                h.candidate(reserve, |_| true)
            );
            assert_eq!(
                restored.candidate_large_page(reserve, |_| true),
                h.candidate_large_page(reserve, |_| true)
            );
        }
        let mut w2 = uvm_types::codec::ByteWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "round trip is byte-stable");
    }
}
