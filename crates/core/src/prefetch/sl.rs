//! SLp: the sequential-local prefetcher of paper Sec. 3.2.

use uvm_types::rng::SmallRng;
use uvm_types::{PageId, PAGES_PER_BASIC_BLOCK};

use crate::alloc::AllocId;
use crate::view::ResidencyView;

use super::Prefetcher;

/// SLp: the remaining invalid pages of the faulty page's 64 KB basic
/// block, as one prefetch-group transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlPrefetcher;

impl Prefetcher for SlPrefetcher {
    fn name(&self) -> &'static str {
        "SLp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        _alloc: AllocId,
    ) -> Vec<Vec<PageId>> {
        let budget = view.prefetch_budget();
        if budget == 0 {
            return Vec::new();
        }
        let mut group: Vec<PageId> = Vec::with_capacity(PAGES_PER_BASIC_BLOCK as usize);
        group.extend(
            page.basic_block()
                .pages()
                .filter(|&p| p != page && !view.is_valid(p))
                .take(budget),
        );
        if group.is_empty() {
            Vec::new()
        } else {
            vec![group]
        }
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
