//! TBNe: tree-based neighborhood pre-eviction (paper Sec. 5.2).

use uvm_types::rng::SmallRng;
use uvm_types::{Cycle, PageId};

use crate::hier::HierarchicalLru;
use crate::tree::group_contiguous;
use crate::view::ResidencyView;

use super::Evictor;

/// TBNe: the LRU basic block plus the allocation tree's eviction
/// cascade, grouped into contiguous write-back transfers. The
/// granularity floats between 64 KB and 1 MB with the tree balance.
/// Owns the hierarchical valid-page list; the trees are shared
/// residency metadata read through the view (TBNp reads the same
/// trees).
#[derive(Clone, Debug, Default)]
pub struct TbnEvictor {
    hier: HierarchicalLru,
}

impl TbnEvictor {
    /// An evictor with an empty hierarchical list.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Evictor for TbnEvictor {
    fn name(&self) -> &'static str {
        "TBNe"
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
        let victim = hier
            .candidate(reserve, |b| view.block_evictable(b, t, max_pin))
            .or_else(|| hier.candidate(0, |b| view.block_evictable(b, t, max_pin)))?;
        let planned = view
            .allocations()
            .find_by_page(victim.first_page())
            .and_then(|a| a.tree_for_block(victim))
            .map(|tree| tree.plan_eviction(victim))
            .unwrap_or_default();

        let mut blocks = vec![victim];
        blocks.extend(
            planned
                .into_iter()
                .filter(|&b| view.block_evictable(b, t, max_pin) && self.hier.block_pages(b) > 0),
        );
        blocks.sort_unstable_by_key(|b| b.index());
        blocks.dedup();
        let runs = group_contiguous(&blocks);
        let groups: Vec<Vec<PageId>> = runs
            .into_iter()
            .map(|(start, len)| {
                (0..len)
                    .flat_map(|i| view.evictable_pages_of_block(start.add(i), t, max_pin))
                    .collect::<Vec<_>>()
            })
            .filter(|g| !g.is_empty())
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
