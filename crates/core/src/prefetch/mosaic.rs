//! MOSp: the Mosaic-style coalescing prefetcher.

use uvm_types::rng::SmallRng;
use uvm_types::{LargePageId, PageId, PAGES_PER_BASIC_BLOCK, PAGES_PER_LARGE_PAGE};

use crate::alloc::AllocId;
use crate::tree::group_contiguous;
use crate::view::ResidencyView;

use super::Prefetcher;

/// Once a faulting large page's residency reaches this fraction, MOSp
/// plans the whole remainder so the page can coalesce.
const FINISH_THRESHOLD: u64 = PAGES_PER_LARGE_PAGE / 2;

/// MOSp: tree-based neighborhood prefetch plus "finish the large page".
///
/// Mosaic's observation is that application-transparent huge pages pay
/// off only when the OS/driver *completes* large pages instead of
/// leaving them fractured. MOSp therefore plans exactly like TBNp on a
/// fault, and additionally, once the faulting large page is at least
/// half resident, appends the rest of that 2 MB range so it reaches
/// full residency and can be promoted to one huge mapping. It is the
/// only built-in prefetcher that requests contiguous frame placement
/// ([`wants_contiguous_placement`](Prefetcher::wants_contiguous_placement))
/// and approves coalescing ([`should_coalesce`](Prefetcher::should_coalesce)).
///
/// Planning stops at the view's prefetch budget, as the mechanism
/// would trim there anyway, so the finish-the-page group is dropped
/// first under pressure (it is appended after the tree plan).
#[derive(Clone, Copy, Debug, Default)]
pub struct MosaicPrefetcher;

impl MosaicPrefetcher {
    /// A stateless MOSp instance.
    pub fn new() -> Self {
        Self
    }
}

impl Prefetcher for MosaicPrefetcher {
    fn name(&self) -> &'static str {
        "MOSp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
    ) -> Vec<Vec<PageId>> {
        let mut budget = view.prefetch_budget();
        if budget == 0 {
            return Vec::new();
        }
        let fault_block = page.basic_block();
        let alloc = view.alloc(alloc);
        let tree = alloc
            .tree_for_block(fault_block)
            .expect("fault block inside allocation has a tree");
        let planned = tree.plan_prefetch(fault_block);

        let mut blocks = planned;
        blocks.push(fault_block);
        blocks.sort_unstable_by_key(|b| b.index());
        let runs = group_contiguous(&blocks);

        let mut groups = Vec::with_capacity(runs.len() + 1);
        let mut in_plan = vec![false; PAGES_PER_LARGE_PAGE as usize];
        let lp = page.large_page();
        for (start, len) in runs {
            let mut pages: Vec<PageId> = Vec::with_capacity((len * PAGES_PER_BASIC_BLOCK) as usize);
            pages.extend(
                (0..len)
                    .flat_map(|i| start.add(i).pages())
                    .filter(|&p| p != page && !view.is_valid(p))
                    .take(budget),
            );
            budget -= pages.len();
            for &p in &pages {
                if p.large_page() == lp {
                    in_plan[(p.index() - lp.first_page().index()) as usize] = true;
                }
            }
            if !pages.is_empty() {
                groups.push(pages);
            }
            // Out of budget: everything after, the finish-the-page
            // remainder included, would be trimmed.
            if budget == 0 {
                return groups;
            }
        }

        // Finish the faulting large page once it is half resident: the
        // planned pages above count toward the target, so the remainder
        // is whatever neither the tree plan nor residency covers.
        let planned_in_lp = in_plan.iter().filter(|&&b| b).count() as u64;
        if view.large_page_residency(lp) + planned_in_lp + 1 >= FINISH_THRESHOLD {
            let first = lp.first_page();
            let remainder: Vec<PageId> = (0..PAGES_PER_LARGE_PAGE)
                .map(|k| first.add(k))
                .filter(|&p| {
                    p != page
                        && alloc.contains_page(p)
                        && !in_plan[(p.index() - first.index()) as usize]
                        && !view.is_valid(p)
                })
                .take(budget)
                .collect();
            if !remainder.is_empty() {
                groups.push(remainder);
            }
        }
        groups
    }

    fn wants_contiguous_placement(&self) -> bool {
        true
    }

    fn should_coalesce(&self, _view: &ResidencyView<'_>, _lp: LargePageId) -> bool {
        true
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
