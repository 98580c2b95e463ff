//! S256p: a 256 KB fixed-stride prefetcher, the out-of-core policy
//! proving the registry seam.
//!
//! Inspired by the fixed-granularity baselines in Long et al. (*Deep
//! Learning based Data Prefetching in CPU-GPU Unified Virtual
//! Memory*): on every fault, pull a fixed 256 KB window of consecutive
//! pages following the faulty page. Half SZp's window — a middle point
//! between SLp's 64 KB block locality and SZp's aggressive 512 KB
//! sweep. Registered purely through the policy registry: the `Gmmu`
//! mechanism has no knowledge of it.

use uvm_types::rng::SmallRng;
use uvm_types::PageId;

use crate::alloc::AllocId;
use crate::view::ResidencyView;

use super::Prefetcher;

/// Pages covered by the 256 KB window, including the faulty page.
const WINDOW_PAGES: u64 = 64;

/// S256p: 64 consecutive 4 KB pages (256 KB) starting from the faulty
/// page, clipped to the allocation extent, moved as one transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stride256kPrefetcher;

impl Prefetcher for Stride256kPrefetcher {
    fn name(&self) -> &'static str {
        "S256p"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
    ) -> Vec<Vec<PageId>> {
        let budget = view.prefetch_budget();
        if budget == 0 {
            return Vec::new();
        }
        let end = view.alloc(alloc).end_page().index();
        let mut group: Vec<PageId> = Vec::with_capacity(WINDOW_PAGES as usize);
        group.extend(
            (page.index() + 1..(page.index() + WINDOW_PAGES).min(end))
                .map(PageId::new)
                .filter(|&p| !view.is_valid(p))
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
