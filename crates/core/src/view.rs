//! Read-only residency state exposed to the pluggable policies.
//!
//! A [`ResidencyView`] is the *only* window a [`Prefetcher`] or
//! [`Evictor`] gets onto the driver: page-table validity, allocation
//! geometry (including the TBN trees), the resident-page set, in-flight
//! data-arrival times, and the pin rules derived from them. Policies
//! may observe freely but never mutate — every `&self` borrow here is
//! shared, so the invariant is enforced by the type system, not by
//! convention. All residency mutation (validate/invalidate, frame
//! accounting, tree counter updates) stays in the `Gmmu` mechanism.
//!
//! [`Prefetcher`]: crate::Prefetcher
//! [`Evictor`]: crate::Evictor

use std::collections::{BTreeSet, HashMap};

use uvm_mem::PageTable;
use uvm_types::hash::FxBuildHasher;
use uvm_types::rng::Rng;
use uvm_types::{BasicBlockId, Cycle, Duration, LargePageId, PageId, PAGES_PER_LARGE_PAGE};

use crate::alloc::{AllocId, Allocation, Allocations};
use crate::dense::{DensePageMap, DensePageSet};
use crate::indexed::IndexedPageSet;

/// No pin: freely evictable.
pub const PIN_NONE: u8 = 0;
/// Soft pin: the page's migration is still in flight (or just landed);
/// evictable only when nothing unpinned exists.
pub const PIN_SOFT: u8 = 1;
/// Hard pin: a demand page whose faulting warp has not replayed yet.
/// Never evictable — this bounds far-faults by accesses.
pub const PIN_HARD: u8 = 2;

/// Grace window (core cycles) during which a just-arrived page is
/// still protected from eviction: it covers the faulting warp's replay
/// (TLB miss + page walk + memory access), preventing the pathological
/// migrate→evict→refault livelock.
pub const PIN_GRACE: Duration = Duration::from_cycles(2_000);

/// A read-only snapshot of the driver's residency state, lent to the
/// policies for the duration of one planning or selection call.
#[derive(Clone, Copy)]
pub struct ResidencyView<'a> {
    page_table: &'a PageTable,
    allocs: &'a Allocations,
    resident: &'a IndexedPageSet,
    ready_at: &'a DensePageMap<Cycle>,
    unaccessed_demand: &'a DensePageSet,
    reserve_frac: f64,
    /// Large pages currently coalesced into a single huge mapping.
    huge_mapped: &'a BTreeSet<LargePageId>,
    /// Per-large-page resident counts, maintained by the mechanism only
    /// while a huge-page policy is active (`lp_tracking`).
    lp_resident: &'a HashMap<LargePageId, u32, FxBuildHasher>,
    lp_tracking: bool,
    /// Prefetched pages the mechanism keeps from the current plan.
    prefetch_budget: usize,
}

impl<'a> ResidencyView<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        page_table: &'a PageTable,
        allocs: &'a Allocations,
        resident: &'a IndexedPageSet,
        ready_at: &'a DensePageMap<Cycle>,
        unaccessed_demand: &'a DensePageSet,
        reserve_frac: f64,
        huge_mapped: &'a BTreeSet<LargePageId>,
        lp_resident: &'a HashMap<LargePageId, u32, FxBuildHasher>,
        lp_tracking: bool,
        prefetch_budget: usize,
    ) -> Self {
        ResidencyView {
            page_table,
            allocs,
            resident,
            ready_at,
            unaccessed_demand,
            reserve_frac,
            huge_mapped,
            lp_resident,
            lp_tracking,
            prefetch_budget,
        }
    }

    /// The same view with a different prefetch budget, so tests can
    /// plan one residency against several budgets.
    #[cfg(test)]
    pub(crate) fn with_prefetch_budget(mut self, prefetch_budget: usize) -> Self {
        self.prefetch_budget = prefetch_budget;
        self
    }

    /// `true` if `page` has a valid PTE.
    pub fn is_valid(&self, page: PageId) -> bool {
        self.page_table.is_valid(page)
    }

    /// The allocation registry (geometry + TBN trees, read-only).
    pub fn allocations(&self) -> &'a Allocations {
        self.allocs
    }

    /// The allocation with the given id.
    pub fn alloc(&self, id: AllocId) -> &'a Allocation {
        self.allocs.get(id)
    }

    /// Resident pages, unspecified order (eviction fallback scans).
    pub fn resident_iter(&self) -> impl Iterator<Item = PageId> + 'a {
        self.resident.iter()
    }

    /// A uniformly random resident page, or `None` if nothing is
    /// resident.
    pub fn sample_resident<R: Rng>(&self, rng: &mut R) -> Option<PageId> {
        self.resident.sample(rng)
    }

    /// How many prefetched pages the mechanism will keep from the plan
    /// of the fault being serviced: the frames still free after demand
    /// eviction, minus the one the faulty page takes. Fixed before
    /// [`Prefetcher::plan`](crate::Prefetcher::plan) runs, because
    /// planning never touches frames. The mechanism keeps the first
    /// `prefetch_budget()` planned pages in group order and drops the
    /// rest, so a pure planner may stop once it has emitted this many
    /// (and skip planning entirely at 0). Under over-subscription with
    /// 4 KB demand eviction it is 0 on almost every fault (Secs. 4.2
    /// and 5); without a memory limit it is effectively unbounded.
    pub fn prefetch_budget(&self) -> usize {
        self.prefetch_budget
    }

    /// Fraction of the LRU top protected from eviction (Sec. 5.3's
    /// reservation optimisation); policies apply it to their own
    /// recency structures.
    pub fn reserve_frac(&self) -> f64 {
        self.reserve_frac
    }

    /// `true` if `lp` is currently coalesced into a single huge
    /// mapping. Evicting any of its pages forces a splinter first, so
    /// splinter-aware evictors check this before selecting victims.
    pub fn is_huge_mapped(&self, lp: LargePageId) -> bool {
        self.huge_mapped.contains(&lp)
    }

    /// Resident pages within `lp`'s 512-page range. O(1) while a
    /// huge-page policy is active (the mechanism maintains per-large-
    /// page counts); a 512-entry page-table scan otherwise.
    pub fn large_page_residency(&self, lp: LargePageId) -> u64 {
        if self.lp_tracking {
            u64::from(self.lp_resident.get(&lp).copied().unwrap_or(0))
        } else {
            let first = lp.first_page();
            (0..PAGES_PER_LARGE_PAGE)
                .filter(|&k| self.page_table.is_valid(first.add(k)))
                .count() as u64
        }
    }

    /// The pin level of `page` at time `t`: [`PIN_HARD`] for demand
    /// pages awaiting their faulting warp, [`PIN_SOFT`] while the
    /// migration is in flight (plus the [`PIN_GRACE`] replay window),
    /// [`PIN_NONE`] otherwise.
    pub fn pin_level(&self, page: PageId, t: Cycle) -> u8 {
        if self.unaccessed_demand.contains(page) {
            return PIN_HARD;
        }
        if self.ready_at.get(page).is_some_and(|r| r + PIN_GRACE > t) {
            return PIN_SOFT;
        }
        PIN_NONE
    }

    /// `true` if `block` holds at least one resident page with pin
    /// level at most `max_pin` — eviction takes that subset.
    pub fn block_evictable(&self, block: BasicBlockId, t: Cycle, max_pin: u8) -> bool {
        block
            .pages()
            .any(|p| self.is_valid(p) && self.pin_level(p, t) <= max_pin)
    }

    /// The resident pages of `block` with pin level at most `max_pin`.
    pub fn evictable_pages_of_block(
        &self,
        block: BasicBlockId,
        t: Cycle,
        max_pin: u8,
    ) -> Vec<PageId> {
        block
            .pages()
            .filter(|&p| self.is_valid(p) && self.pin_level(p, t) <= max_pin)
            .collect()
    }
}

impl std::fmt::Debug for ResidencyView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidencyView")
            .field("resident", &self.resident.len())
            .field("reserve_frac", &self.reserve_frac)
            .field("prefetch_budget", &self.prefetch_budget)
            .finish_non_exhaustive()
    }
}
