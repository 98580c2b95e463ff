//! Rp: the random prefetcher of paper Sec. 3.1.

use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{PageId, PAGES_PER_LARGE_PAGE};

use crate::alloc::AllocId;
use crate::view::ResidencyView;

use super::Prefetcher;

/// Rp: one random invalid 4 KB page from the faulty page's 2 MB large
/// page, clipped to the allocation extent.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomPrefetcher;

impl Prefetcher for RandomPrefetcher {
    fn name(&self) -> &'static str {
        "Rp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
    ) -> Vec<Vec<PageId>> {
        // No early exit at a zero prefetch budget: the draw below must
        // advance the shared RNG whether or not the page can land.
        let alloc = view.alloc(alloc);
        let lp_first = page.large_page().first_page();
        let start = lp_first.index().max(alloc.first_page().index());
        let end = (lp_first.index() + PAGES_PER_LARGE_PAGE).min(alloc.end_page().index());
        // Pick the k-th invalid page other than the faulty one without
        // listing them: the same pick and RNG draw as indexing a list.
        let candidates = || {
            (start..end)
                .map(PageId::new)
                .filter(|&p| p != page && !view.is_valid(p))
        };
        let count = candidates().count();
        if count == 0 {
            return Vec::new();
        }
        let pick = candidates()
            .nth(rng.gen_range(0..count))
            .expect("k < count");
        vec![vec![pick]]
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
