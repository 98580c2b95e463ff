//! TBNp: the tree-based neighborhood prefetcher of paper Sec. 3.3.

use uvm_types::rng::SmallRng;
use uvm_types::{PageId, PAGES_PER_BASIC_BLOCK};

use crate::alloc::AllocId;
use crate::tree::group_contiguous;
use crate::view::ResidencyView;

use super::Prefetcher;

/// TBNp: tree-balancing prefetch reverse-engineered from the NVIDIA
/// driver. Contiguous candidate blocks are grouped into single
/// transfers; the run containing the faulty page contributes its
/// remaining pages as one group.
///
/// The per-allocation trees the plan reads are *shared* residency
/// metadata — TBNe reads the same trees — so they live with the
/// allocations (maintained by the mechanism on admit/expel) and are
/// reached read-only through the view.
#[derive(Clone, Copy, Debug, Default)]
pub struct TbnPrefetcher;

impl Prefetcher for TbnPrefetcher {
    fn name(&self) -> &'static str {
        "TBNp"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
    ) -> Vec<Vec<PageId>> {
        // The mechanism keeps only the first `budget` planned pages;
        // at 0 (4 KB demand eviction under over-subscription, nearly
        // every fault) the tree walk would be thrown away whole.
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

        let mut groups = Vec::with_capacity(runs.len());
        for (start, len) in runs {
            let cap = ((len * PAGES_PER_BASIC_BLOCK) as usize).min(budget);
            let mut pages: Vec<PageId> = Vec::with_capacity(cap);
            for i in 0..len {
                if pages.len() >= budget {
                    break;
                }
                let block = start.add(i);
                // The tree's per-leaf counts mirror page-table validity
                // exactly (maintained on admit/expel), so the common
                // all-invalid and all-valid leaves resolve without the
                // per-page PTE probes that used to dominate planning.
                match tree.block_valid_pages(block) {
                    0 => pages.extend(block.pages().filter(|&p| p != page)),
                    v if v == PAGES_PER_BASIC_BLOCK as u32 => {}
                    _ => pages.extend(block.pages().filter(|&p| p != page && !view.is_valid(p))),
                }
            }
            pages.truncate(budget);
            budget -= pages.len();
            if !pages.is_empty() {
                groups.push(pages);
            }
            if budget == 0 {
                break;
            }
        }
        groups
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}
