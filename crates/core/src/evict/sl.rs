//! SLe: sequential-local pre-eviction (paper Sec. 5.1).

use uvm_types::rng::SmallRng;
use uvm_types::{Cycle, PageId};

use crate::hier::HierarchicalLru;
use crate::view::ResidencyView;

use super::Evictor;

/// SLe: evict the whole 64 KB basic block of the LRU candidate as a
/// single write-back unit. Owns the Sec. 5.3 hierarchical valid-page
/// list (pages enter on migration, not first access), fed by the
/// driver's hooks.
#[derive(Clone, Debug, Default)]
pub struct SlEvictor {
    hier: HierarchicalLru,
}

impl SlEvictor {
    /// An evictor with an empty hierarchical list.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Evictor for SlEvictor {
    fn name(&self) -> &'static str {
        "SLe"
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
        let block = hier
            .candidate(reserve, |b| view.block_evictable(b, t, max_pin))
            .or_else(|| hier.candidate(0, |b| view.block_evictable(b, t, max_pin)))?;
        Some(vec![view.evictable_pages_of_block(block, t, max_pin)])
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
