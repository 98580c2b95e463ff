//! LRU-2MB: static large-page eviction (paper Sec. 7.5).

use uvm_types::rng::SmallRng;
use uvm_types::{BasicBlockId, Cycle, PageId};

use crate::hier::HierarchicalLru;
use crate::view::ResidencyView;

use super::Evictor;

/// LRU-2MB: evict the whole least-recently-used 2 MB large page as one
/// transfer, as real NVIDIA hardware does. Owns the hierarchical
/// valid-page list and picks at large-page granularity.
#[derive(Clone, Debug, Default)]
pub struct LruLargeEvictor {
    hier: HierarchicalLru,
}

impl LruLargeEvictor {
    /// An evictor with an empty hierarchical list.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Evictor for LruLargeEvictor {
    fn name(&self) -> &'static str {
        "LRU-2MB"
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

    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
    ) -> Option<Vec<Vec<PageId>>> {
        let reserve = (view.reserve_frac() * self.hier.total_pages() as f64).floor() as u64;
        let hier = &self.hier;
        let mut evictable = |lp| {
            hier.blocks_of(lp)
                .any(|b| view.block_evictable(b, t, max_pin))
        };
        let lp = hier
            .candidate_large_page(reserve, &mut evictable)
            .or_else(|| hier.candidate_large_page(0, &mut evictable))?;
        let blocks: Vec<BasicBlockId> = self.hier.blocks_of(lp).collect();
        let pages: Vec<PageId> = blocks
            .into_iter()
            .flat_map(|b| view.evictable_pages_of_block(b, t, max_pin))
            .collect();
        if pages.is_empty() {
            None
        } else {
            Some(vec![pages])
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
