//! MOSe: the Mosaic-style splinter-then-evict policy.

use uvm_types::rng::SmallRng;
use uvm_types::{BasicBlockId, Cycle, LargePageId, PageId};

use crate::hier::HierarchicalLru;
use crate::view::ResidencyView;

use super::Evictor;

/// Basic blocks evicted per selection: the LRU quarter-ish of the
/// victim large page (8 × 64 KB = 512 KB), the middle ground between
/// SLe's single block and LRU-2MB's whole 2 MB.
const BLOCKS_PER_EVICTION: usize = 8;

/// MOSe: hierarchical LRU that splinters before it evicts.
///
/// Under pressure it first demotes the coldest huge-mapped large page
/// back to 4 KB mappings (one shootdown generation, via the
/// [`select_splinter`](Evictor::select_splinter) hook), then evicts
/// only the least-recently-used *blocks* of the coldest large page —
/// unlike LRU-2MB, which writes back all 512 pages at once and
/// re-faults the warm half of the large page straight back in. This is
/// the eviction half of Mosaic's coalesce/splinter cooperation: MOSp
/// builds large pages up, MOSe tears them down no further than the
/// pressure actually requires.
#[derive(Clone, Debug, Default)]
pub struct MosaicEvictor {
    hier: HierarchicalLru,
}

impl MosaicEvictor {
    /// An evictor with an empty hierarchical list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The coldest large page worth evicting from, honoring the LRU-top
    /// reservation with a no-reservation fallback.
    fn victim_large_page(
        &self,
        view: &ResidencyView<'_>,
        t: Cycle,
        max_pin: u8,
    ) -> Option<LargePageId> {
        let reserve = (view.reserve_frac() * self.hier.total_pages() as f64).floor() as u64;
        let hier = &self.hier;
        let mut evictable = |lp| {
            hier.blocks_of(lp)
                .any(|b| view.block_evictable(b, t, max_pin))
        };
        hier.candidate_large_page(reserve, &mut evictable)
            .or_else(|| hier.candidate_large_page(0, &mut evictable))
    }
}

impl Evictor for MosaicEvictor {
    fn name(&self) -> &'static str {
        "MOSe"
    }

    fn is_pre_eviction(&self) -> bool {
        true
    }

    fn on_validate(&mut self, page: PageId) {
        self.hier.on_validate(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.hier.on_access(page);
    }

    fn on_invalidate(&mut self, page: PageId) {
        self.hier.on_invalidate_page(page);
    }

    fn on_validate_group(&mut self, pages: &[PageId]) {
        self.hier.on_validate_group(pages);
    }

    fn on_invalidate_group(&mut self, pages: &[PageId]) {
        self.hier.on_invalidate_group(pages);
    }

    fn select_splinter(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        t: Cycle,
    ) -> Option<LargePageId> {
        // Splinter the large page eviction is about to reach into, so
        // the mechanism never has to force-demote on our behalf. If the
        // victim is not coalesced there is nothing to splinter.
        use crate::view::{PIN_NONE, PIN_SOFT};
        let victim = self
            .victim_large_page(view, t, PIN_NONE)
            .or_else(|| self.victim_large_page(view, t, PIN_SOFT))?;
        view.is_huge_mapped(victim).then_some(victim)
    }

    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
    ) -> Option<Vec<Vec<PageId>>> {
        let lp = self.victim_large_page(view, t, max_pin)?;
        // LRU order within the large page: HierarchicalLru yields
        // blocks coldest-first.
        let blocks: Vec<BasicBlockId> = self
            .hier
            .blocks_of(lp)
            .filter(|&b| view.block_evictable(b, t, max_pin))
            .take(BLOCKS_PER_EVICTION)
            .collect();
        let groups: Vec<Vec<PageId>> = blocks
            .into_iter()
            .map(|b| view.evictable_pages_of_block(b, t, max_pin))
            .filter(|pages| !pages.is_empty())
            .collect();
        if groups.is_empty() {
            None
        } else {
            Some(groups)
        }
    }

    fn box_clone(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        self.hier.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        self.hier = HierarchicalLru::load_state(r)?;
        Ok(())
    }
}
