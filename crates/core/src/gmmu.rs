//! The GMMU / UVM driver *mechanism*: far-fault servicing, budget
//! accounting, transfer-group scheduling, and write-back.
//!
//! This is the component the whole paper studies. The GPU engine calls
//! [`Gmmu::handle_fault`] for every distinct far-fault (a duplicate
//! fault on a page whose migration is in flight never reaches the
//! driver: the engine waits on [`Gmmu::ready_time`] instead); the
//! driver
//!
//! 1. pays the far-fault handling latency (45 µs, serialized across
//!    faults — the host runtime handles one fault at a time),
//! 2. asks the configured [`Prefetcher`] what to migrate along with
//!    the faulty page,
//! 3. evicts pages per the configured [`Evictor`] if the device
//!    memory budget would be exceeded (demand eviction stalls the
//!    migration behind the write-back; bulk pre-eviction does not),
//! 4. schedules the migration as transfer groups on the PCI-e read
//!    channel — the faulty page first as its own 4 KB transfer, then
//!    the prefetch groups (Sec. 3.2/3.3 fault-group/prefetch-group
//!    split),
//! 5. validates the pages, a transfer group at a time
//!    ([`Gmmu::admit_group`]; expulsion likewise goes by victim group),
//!    and reports per-page data-ready times. Frames, PTEs and per-page
//!    counters change per page in group order; the allocation trees,
//!    the large-page counts and the evictor's bookkeeping change once
//!    per run of pages.
//!
//! Policy lives elsewhere: the prefetchers ([`crate::prefetch`]) and
//! evictors ([`crate::evict`]) are trait objects resolved from the
//! [`PolicyRegistry`] and observe driver state only through the
//! read-only [`ResidencyView`]. The mechanism feeds their recency /
//! frequency bookkeeping via the `on_validate_group`/`on_access`/
//! `on_invalidate_group` hooks and owns every mutation: PTEs, frames, the
//! shared TBN trees, pin state, and statistics.

use std::collections::{BTreeSet, HashMap};

use uvm_interconnect::{ChannelStats, PcieChannel, PcieModel};
use uvm_mem::{FrameAllocator, FrameId, PageTable};
use uvm_types::hash::FxBuildHasher;
use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{
    BasicBlockId, Bytes, Cycle, Duration, LargePageId, PageId, VirtAddr, PAGES_PER_LARGE_PAGE,
    PAGE_SIZE,
};

use crate::alloc::Allocations;
use crate::config::UvmConfig;
use crate::dense::{DensePageMap, DensePageSet};
use crate::evict::Evictor;
use crate::fault::{READ_CHANNEL_TAG, WRITE_CHANNEL_TAG};
use crate::indexed::IndexedPageSet;
use crate::prefetch::Prefetcher;
use crate::registry::PolicyRegistry;
use crate::spec::PolicySpec;
use crate::stats::UvmStats;
use crate::tree::AllocTree;
use crate::view::{ResidencyView, PIN_NONE, PIN_SOFT};

/// Prefetch congestion cap: when the PCI-e read channel's backlog
/// exceeds this, the prefetcher is skipped for the fault (demand
/// migration only). Prefetching is opportunistic — it must never push
/// demand-migration latency unboundedly; without this throttle a
/// saturated link lets eviction decisions race arbitrarily far ahead
/// of data arrival.
const PREFETCH_CONGESTION_CAP: Duration = Duration::from_micros(90.0);

/// The result of servicing one far-fault.
#[derive(Clone, Debug)]
pub struct FaultResolution {
    /// Every page migrated for this fault (the faulty page first) with
    /// the cycle at which its data is present in device memory.
    pub ready: Vec<(PageId, Cycle)>,
    /// Pages evicted to make room (the engine shoots down their TLB
    /// entries).
    pub evicted: Vec<PageId>,
    /// Cycle at which the driver finished handling this fault (the
    /// fault-handling window, before transfers complete).
    pub handled: Cycle,
}

impl FaultResolution {
    /// Data-ready time of the faulty page itself.
    pub fn fault_page_ready(&self) -> Cycle {
        self.ready.first().expect("fault page always migrated").1
    }

    /// The pages whose cached TLB translations must be shot down: every
    /// page this fault evicted. The engine services these through its
    /// shootdown directory (generation bump + holder-slot reclamation)
    /// rather than an all-TLB broadcast.
    pub fn shootdowns(&self) -> &[PageId] {
        &self.evicted
    }
}

/// One large page's huge-mapping record. The epoch is bumped on every
/// promote *and* demote, so a TLB entry stamped with an old epoch can
/// never hit again — each splinter costs exactly one shootdown
/// generation, with no per-SM invalidation walk.
#[derive(Clone, Copy, Debug)]
struct HugeMapping {
    /// Monotonic promotion/demotion generation.
    epoch: u64,
    /// `true` while the large page is coalesced.
    mapped: bool,
    /// The huge fast-path activates only once every constituent page's
    /// migration has landed (max in-flight arrival at promotion time).
    active_from: Cycle,
}

/// `chunk_by` predicate: `a` and `b` lie in the same 64 KB basic block.
fn same_basic_block(a: &PageId, b: &PageId) -> bool {
    a.basic_block() == b.basic_block()
}

/// `chunk_by` predicate: `a` and `b` lie in the same 2 MB large page.
fn same_large_page(a: &PageId, b: &PageId) -> bool {
    a.large_page() == b.large_page()
}

/// The GMMU and UVM software-runtime model.
///
/// # Examples
///
/// ```
/// use uvm_core::{Gmmu, UvmConfig};
/// use uvm_types::{Bytes, Cycle};
///
/// let mut gmmu = Gmmu::new(UvmConfig::default());
/// let base = gmmu.malloc_managed(Bytes::mib(2));
/// let res = gmmu.handle_fault(base.page(), Cycle::ZERO);
/// assert!(gmmu.is_resident(base.page()));
/// assert!(res.fault_page_ready() > Cycle::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct Gmmu {
    cfg: UvmConfig,
    rng: SmallRng,
    /// RNG for the driver-side fault injections (latency jitter,
    /// transient migration failures, pressure mode). Separate from
    /// `rng` so arming a `FaultPlan` never perturbs policy decisions,
    /// and never drawn when the plan is inert.
    fault_rng: SmallRng,
    allocs: Allocations,
    page_table: PageTable,
    frames: FrameAllocator,
    /// Dense page-indexed frame table: the allocator hands out a small
    /// dense page range, so a `Vec` beats a `HashMap` on every access.
    frame_of: DensePageMap<FrameId>,
    /// The configured prefetch policy (owns its learning state).
    prefetcher: Box<dyn Prefetcher>,
    /// The configured eviction policy (owns its recency bookkeeping,
    /// fed through the on_validate/on_access/on_invalidate hooks).
    evictor: Box<dyn Evictor>,
    /// All resident pages, for random eviction and fallbacks.
    resident: IndexedPageSet,
    read_chan: PcieChannel,
    write_chan: PcieChannel,
    /// Next-free instants of the host runtime's fault-handling lanes
    /// (`cfg.fault_lanes` of them); a fault occupies the earliest lane.
    lanes: Vec<Cycle>,
    /// Sticky prefetcher kill-switch (over-subscription rule).
    prefetch_disabled: bool,
    /// Data-arrival times of in-flight (validated, still transferring)
    /// pages. An entry is dropped on the page's first access (its
    /// waiter replayed: the arrival grace pin did its job), on expel,
    /// or on re-admit — [`ready_time`](Self::ready_time) itself is a
    /// pure read.
    ready_at: DensePageMap<Cycle>,
    /// Prefetched pages not yet accessed (for accuracy accounting).
    unaccessed_prefetch: DensePageSet,
    /// Demand-migrated pages whose faulting warp has not yet replayed:
    /// hard-pinned from eviction so every far-fault is guaranteed to
    /// complete at least one access (bounding faults by accesses and
    /// making eviction/refault livelock impossible).
    unaccessed_demand: DensePageSet,
    /// Pages that have been evicted at least once (thrash detection).
    evicted_once: DensePageSet,
    /// Huge-mapping records, kept across demotions so epochs only ever
    /// grow (stale huge TLB entries can never hit again).
    huge: HashMap<LargePageId, HugeMapping, FxBuildHasher>,
    /// The currently coalesced large pages (ordered for deterministic
    /// policy scans through the view).
    huge_mapped: BTreeSet<LargePageId>,
    /// Per-large-page resident counts, maintained only while a
    /// huge-page policy is active (see [`Self::lp_tracking`]).
    lp_resident: HashMap<LargePageId, u32, FxBuildHasher>,
    /// Soft-reserved 2 MB frame-region base per large page.
    region_of: HashMap<LargePageId, u64, FxBuildHasher>,
    /// `true` while the prefetcher requests contiguous placement —
    /// the gate on every huge-page code path, so legacy policies keep
    /// the exact pre-existing allocation and mapping behavior.
    huge_enabled: bool,
    /// Far-fault stream capture for trace export: `(cycle, page)` per
    /// serviced fault. `None` (the default) records nothing and costs
    /// nothing, so runs without export stay bit-identical.
    fault_trace: Option<Vec<(Cycle, PageId)>>,
    stats: UvmStats,
}

impl Gmmu {
    /// Creates a driver with the given configuration and an idle PCI-e
    /// link calibrated to the paper's Table 1. The prefetcher and
    /// evictor are built from the global [`PolicyRegistry`] using the
    /// configured policy specs.
    ///
    /// # Panics
    ///
    /// Panics if either spec does not resolve (unknown name/parameter,
    /// bad value, unreadable table file). CLI layers validate specs at
    /// parse time, so reaching this is a programming error.
    pub fn new(cfg: UvmConfig) -> Self {
        let registry = PolicyRegistry::global();
        let prefetcher = registry
            .build_prefetcher_spec(&cfg.prefetch, &cfg)
            .unwrap_or_else(|e| panic!("building prefetcher: {e}"));
        let evictor = registry
            .build_evictor_spec(&cfg.evict, &cfg)
            .unwrap_or_else(|e| panic!("building evictor: {e}"));
        Self::with_policies(cfg, prefetcher, evictor)
    }

    /// Creates a driver running explicit policy instances — the
    /// third-party seam: any [`Prefetcher`]/[`Evictor`] implementation
    /// plugs in here without the mechanism knowing its name. The
    /// `cfg.prefetch`/`cfg.evict` selectors are ignored.
    pub fn with_policies(
        cfg: UvmConfig,
        prefetcher: Box<dyn Prefetcher>,
        evictor: Box<dyn Evictor>,
    ) -> Self {
        let capacity = cfg.capacity.unwrap_or(Bytes::gib(1024));
        let mut read_chan = PcieChannel::new(PcieModel::pascal_x16());
        if let Some(fc) = cfg.fault_plan.channel_faults(READ_CHANNEL_TAG) {
            read_chan = read_chan.with_transfer_faults(fc);
        }
        let mut write_chan = PcieChannel::new(PcieModel::pascal_x16());
        if let Some(fc) = cfg.fault_plan.channel_faults(WRITE_CHANNEL_TAG) {
            write_chan = write_chan.with_transfer_faults(fc);
        }
        let huge_enabled = prefetcher.wants_contiguous_placement();
        Gmmu {
            rng: SmallRng::seed_from_u64(cfg.rng_seed),
            fault_rng: SmallRng::seed_from_u64(cfg.fault_plan.seed ^ 0xDE7E_12F1_7A51_0000),
            allocs: Allocations::new(),
            page_table: PageTable::new(),
            frames: FrameAllocator::new(capacity),
            frame_of: DensePageMap::new(),
            prefetcher,
            evictor,
            resident: IndexedPageSet::new(),
            read_chan,
            write_chan,
            lanes: vec![Cycle::ZERO; cfg.fault_lanes.max(1)],
            prefetch_disabled: false,
            unaccessed_prefetch: DensePageSet::new(),
            unaccessed_demand: DensePageSet::new(),
            ready_at: DensePageMap::new(),
            evicted_once: DensePageSet::new(),
            huge: HashMap::default(),
            huge_mapped: BTreeSet::new(),
            lp_resident: HashMap::default(),
            region_of: HashMap::default(),
            huge_enabled,
            fault_trace: None,
            stats: UvmStats::new(),
            cfg,
        }
    }

    /// Starts capturing the far-fault stream (`(cycle, page)` per
    /// fault) for trace export. Off by default; when off the fault
    /// path does no extra work.
    pub fn enable_fault_trace(&mut self) {
        self.fault_trace.get_or_insert_with(Vec::new);
    }

    /// Takes the captured fault stream, leaving capture enabled (and
    /// empty). Returns an empty vec if capture was never enabled.
    pub fn take_fault_trace(&mut self) -> Vec<(Cycle, PageId)> {
        match self.fault_trace.as_mut() {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Swaps the live policies for freshly built ones mid-simulation —
    /// the warm-up → measurement transition of forked sweeps.
    ///
    /// The new prefetcher starts with empty learning state. The new
    /// evictor is reseeded by replaying `on_validate` for every
    /// resident page in ascending page order (the bitmap-scan order,
    /// which depends only on the resident set), so recency/frequency
    /// bookkeeping starts from a deterministic, representation-
    /// independent baseline. Mechanism state — residency, frame
    /// tables, PCI-e backlog, the RNG streams, the sticky prefetcher
    /// kill-switch, statistics — carries over untouched.
    ///
    /// The swap is applied *unconditionally* (even when the specs
    /// equal the current policies), so a cold warmed run and a
    /// fork-resumed run perform the identical transition and stay
    /// byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if either spec does not resolve (see [`Gmmu::new`]).
    pub fn swap_policies(&mut self, prefetch: impl Into<PolicySpec>, evict: impl Into<PolicySpec>) {
        let registry = PolicyRegistry::global();
        self.cfg.prefetch = prefetch.into();
        self.cfg.evict = evict.into();
        self.prefetcher = registry
            .build_prefetcher_spec(&self.cfg.prefetch, &self.cfg)
            .unwrap_or_else(|e| panic!("building prefetcher: {e}"));
        let mut evictor = registry
            .build_evictor_spec(&self.cfg.evict, &self.cfg)
            .unwrap_or_else(|e| panic!("building evictor: {e}"));
        for page in self.resident.iter_ascending() {
            evictor.on_validate(page);
        }
        self.evictor = evictor;
        // Huge-page state transition: the incoming pair starts from
        // plain 4 KB mappings (epoch bumps make any cached huge TLB
        // entries unhittable), and the per-large-page residency counts
        // are rebuilt from the resident set — deterministic regardless
        // of migration history, mirroring the evictor reseed above.
        let mapped: Vec<LargePageId> = self.huge_mapped.iter().copied().collect();
        for lp in mapped {
            self.demote(lp);
        }
        self.huge_enabled = self.prefetcher.wants_contiguous_placement();
        self.lp_resident.clear();
        if self.lp_tracking() {
            let Gmmu {
                resident,
                lp_resident,
                ..
            } = self;
            for page in resident.iter_ascending() {
                *lp_resident.entry(page.large_page()).or_insert(0) += 1;
            }
            let stale: Vec<(LargePageId, u64)> = self
                .region_of
                .iter()
                .filter(|(lp, _)| !self.lp_resident.contains_key(lp))
                .map(|(&lp, &base)| (lp, base))
                .collect();
            for (lp, base) in stale {
                self.region_of.remove(&lp);
                self.frames.release_region(base);
            }
        }
        // Coalesce on full residency, applied to the inherited
        // placement: large pages the previous policies happened to
        // leave fully resident *and* physically contiguous (e.g. a
        // frontier-sequential warm-up before eviction fragmented the
        // pool) are promotable immediately — without this sweep a
        // coalescing pair swapped in at capacity could never form a
        // huge page, since no free 2 MB region survives steady state.
        if self.huge_enabled {
            let mut full: Vec<LargePageId> = self
                .lp_resident
                .iter()
                .filter(|&(_, &count)| u64::from(count) == PAGES_PER_LARGE_PAGE)
                .map(|(&lp, _)| lp)
                .collect();
            full.sort_unstable();
            for lp in full {
                self.maybe_promote(lp);
            }
        }
    }

    /// Registers a managed allocation (the `cudaMallocManaged`
    /// analogue) and returns its base virtual address.
    pub fn malloc_managed(&mut self, size: Bytes) -> VirtAddr {
        let id = self.allocs.allocate(size);
        self.allocs.get(id).base()
    }

    /// The allocation registry.
    pub fn allocations(&self) -> &Allocations {
        &self.allocs
    }

    /// `true` if `page` has a valid PTE (its data may still be in
    /// flight; see [`ready_time`](Self::ready_time)).
    pub fn is_resident(&self, page: PageId) -> bool {
        self.page_table.is_valid(page)
    }

    /// If `page`'s migration is still in flight at `now`, the cycle at
    /// which its data arrives. A pure read: in-flight entries are
    /// cleared when the page is accessed, expelled, or re-admitted —
    /// never by querying.
    pub fn ready_time(&self, page: PageId, now: Cycle) -> Option<Cycle> {
        self.ready_at.get(page).filter(|&t| t > now)
    }

    /// Records a warp access to a resident page: sets PTE flags,
    /// notifies the eviction policy's bookkeeping, and updates the
    /// prefetch-accuracy accounting.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not resident (the engine must fault first).
    pub fn record_access(&mut self, page: PageId, write: bool) {
        self.stats.accesses += 1;
        self.page_table.mark_access(page, write);
        self.evictor.on_access(page);
        // The arrival grace pin protects a migrated page until its
        // waiter actually uses it; the first access consumes it.
        self.ready_at.remove(page);
        self.unaccessed_demand.remove(page);
        if self.unaccessed_prefetch.remove(page) {
            self.stats.prefetched_used += 1;
        }
    }

    /// Services one distinct far-fault on `page` raised at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already resident, lies outside every managed
    /// allocation, or the device memory budget cannot accommodate the
    /// migration even after eviction.
    pub fn handle_fault(&mut self, page: PageId, now: Cycle) -> FaultResolution {
        assert!(
            !self.page_table.is_valid(page),
            "far-fault on already-resident {page}"
        );
        let alloc_id = self
            .allocs
            .find_by_page(page)
            .unwrap_or_else(|| panic!("far-fault on unmanaged {page}"))
            .id();

        self.stats.far_faults += 1;
        if let Some(trace) = self.fault_trace.as_mut() {
            trace.push((now, page));
        }
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one lane");
        let mut handled = self.lanes[lane].max(now) + self.cfg.fault_latency;
        let plan = self.cfg.fault_plan;
        // Injected far-fault latency jitter: up to +jitter_frac of the
        // base handling latency, uniform. Zero fractions never draw.
        if plan.latency_jitter_frac > 0.0 {
            let u = (self.fault_rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let extra = (self.cfg.fault_latency.cycles() as f64 * plan.latency_jitter_frac * u)
                .round() as u64;
            handled += Duration::from_cycles(extra);
            self.stats.fault_injection.jitter_cycles += extra;
        }
        // Injected transient migration failures: each failed attempt
        // re-enters the fault pipeline as a replayable fault and pays
        // another full handling window on the same lane, bounded by
        // the plan's replay budget.
        if plan.migration_fail_prob > 0.0 {
            let mut attempts = 0u32;
            while self.fault_rng.gen_bool(plan.migration_fail_prob) {
                if attempts >= plan.migration_max_retries {
                    self.stats.fault_injection.migration_giveups += 1;
                    break;
                }
                attempts += 1;
                self.stats.fault_injection.migration_retries += 1;
                handled += self.cfg.fault_latency;
            }
        }
        self.lanes[lane] = handled;

        // Injected oversubscription pressure: with probability
        // `pressure_prob` a fault lands while the host runtime is
        // reclaiming memory, forcing emergency eviction down to the
        // plan's free-frame target before the fault proceeds. Only
        // meaningful under a finite device budget.
        let mut evicted = Vec::new();
        if plan.pressure_prob > 0.0
            && self.cfg.capacity.is_some()
            && self.fault_rng.gen_bool(plan.pressure_prob)
        {
            let target =
                (plan.pressure_free_frac * self.frames.capacity_frames() as f64).ceil() as u64;
            while self.frames.free_frames() < target {
                let Some((pages, _)) = self.evict_once(handled, now) else {
                    break;
                };
                self.stats.fault_injection.emergency_evictions += pages.len() as u64;
                evicted.extend(pages);
            }
        }

        // Make room for the faulty page. Only the *demand* page forces
        // eviction; demand eviction (LRU/Random 4 KB) stalls the
        // migration behind the write-back, pre-eviction does not.
        // Victim pinning is evaluated at the fault's *arrival* time:
        // state mutates now, so a page whose waiter has not yet been
        // able to replay (its data lands later) must stay protected.
        let (demand_evicted, wb_barrier) = self.ensure_frames(1, handled, now);
        evicted.extend(demand_evicted);

        // The prefetcher fills only frames that are free after demand
        // eviction — aggressive prefetching that displaces resident
        // pages is counterproductive (Sec. 4.2). Bulk pre-eviction is
        // exactly what re-enables prefetching under over-subscription
        // (Sec. 5): evicting 64 KB–1 MB for one demand page leaves
        // room for the matching prefetch.
        // Prefetch is throttled when the read channel is congested:
        // a backlog beyond the cap means prefetch traffic is already
        // outpacing the link.
        let backlog = self.read_chan.next_free().since(handled);
        let congested = backlog > PREFETCH_CONGESTION_CAP;
        let mut prefetch = if self.prefetch_disabled || congested {
            Vec::new()
        } else {
            let (view, prefetcher, _, rng) = self.policy_view();
            prefetcher.plan(&view, rng, page, alloc_id)
        };
        // The planner saw this budget; trimming here keeps the
        // mechanism correct for planners that ignore it.
        let mut room = self.frames.free_frames().saturating_sub(1);
        for group in &mut prefetch {
            let keep = (room as usize).min(group.len());
            group.truncate(keep);
            room -= keep as u64;
        }
        prefetch.retain(|g| !g.is_empty());
        let prefetch_pages: usize = prefetch.iter().map(Vec::len).sum();
        let needed = 1 + prefetch_pages as u64;
        debug_assert!(needed <= self.frames.free_frames());

        let mut migrate_from = handled;
        if let Some(barrier) = wb_barrier {
            migrate_from = migrate_from.max(barrier);
        }

        // Fault group first (4 KB), then the prefetch groups.
        let mut ready = Vec::with_capacity(needed as usize);
        let t = self.schedule_read(migrate_from, PAGE_SIZE);
        self.admit_group(&[page], t, false);
        ready.push((page, t));
        let mut last_finish = t;
        for group in prefetch {
            let size = PAGE_SIZE * group.len() as u64;
            let t = self.schedule_read(migrate_from, size);
            last_finish = last_finish.max(t);
            self.admit_group(&group, t, true);
            ready.extend(group.into_iter().map(|p| (p, t)));
        }
        // The fault is retired only once its migration completes: the
        // host runtime's lane stays occupied until the copy lands, so
        // fault admission throttles to PCI-e throughput instead of
        // racing unboundedly ahead of data arrival.
        self.lanes[lane] = self.lanes[lane].max(last_finish);

        self.promote_candidates(&ready);
        self.sync_frame_stats();
        self.update_prefetch_kill_switch();
        FaultResolution {
            ready,
            evicted,
            handled,
        }
    }

    /// The `cudaMemPrefetchAsync` analogue (Sec. 3): asynchronously
    /// migrates every non-resident page of `[start, start+size)` to the
    /// device, overlapping kernel execution. Contiguous invalid runs
    /// are grouped into transfers of up to 2 MB. Unlike a far-fault
    /// there is no 45 µs handling window — the host initiated the copy.
    ///
    /// Returns the `(page, data-ready cycle)` pairs of the migrated
    /// pages. Pages outside any managed allocation are skipped.
    ///
    /// # Panics
    ///
    /// Panics if making room requires evicting when every resident page
    /// is hard-pinned (budget far too small).
    pub fn mem_prefetch_async(
        &mut self,
        start: VirtAddr,
        size: Bytes,
        now: Cycle,
    ) -> Vec<(PageId, Cycle)> {
        let first = start.page().index();
        let last = if size == Bytes::ZERO {
            first
        } else {
            start.offset(size - Bytes::new(1)).page().index() + 1
        };
        let mut ready = Vec::new();
        let mut run: Vec<PageId> = Vec::new();
        let flush = |gmmu: &mut Self, run: &mut Vec<PageId>, ready: &mut Vec<(PageId, Cycle)>| {
            if run.is_empty() {
                return;
            }
            for chunk in run.chunks(PAGES_PER_LARGE_PAGE as usize) {
                let (_, barrier) = gmmu.ensure_frames(chunk.len() as u64, now, now);
                let at = barrier.map_or(now, |b| b.max(now));
                let t = gmmu.schedule_read(at, PAGE_SIZE * chunk.len() as u64);
                gmmu.admit_group(chunk, t, true);
                ready.extend(chunk.iter().map(|&p| (p, t)));
            }
            run.clear();
        };
        for idx in first..last {
            let page = PageId::new(idx);
            let in_alloc = self.allocs.find_by_page(page).is_some();
            if in_alloc && !self.page_table.is_valid(page) {
                run.push(page);
            } else {
                flush(self, &mut run, &mut ready);
            }
        }
        flush(self, &mut run, &mut ready);
        self.promote_candidates(&ready);
        self.sync_frame_stats();
        self.update_prefetch_kill_switch();
        ready
    }

    /// Driver-side statistics.
    pub fn stats(&self) -> &UvmStats {
        &self.stats
    }

    /// Host→device (migration) channel statistics.
    pub fn read_stats(&self) -> &ChannelStats {
        self.read_chan.stats()
    }

    /// Device→host (write-back) channel statistics.
    pub fn write_stats(&self) -> &ChannelStats {
        self.write_chan.stats()
    }

    /// Resident page count.
    pub fn resident_pages(&self) -> u64 {
        self.page_table.valid_pages()
    }

    /// Device memory frame budget.
    pub fn capacity_frames(&self) -> u64 {
        self.frames.capacity_frames()
    }

    /// `true` once the over-subscription rule has disabled the
    /// prefetcher.
    pub fn prefetch_disabled(&self) -> bool {
        self.prefetch_disabled
    }

    /// The configuration in force.
    pub fn config(&self) -> &UvmConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Transfer scheduling (fault-aware wrappers)
    // ------------------------------------------------------------------

    /// Schedules a host→device transfer and folds any injected replay
    /// activity into the driver's fault-injection counters.
    fn schedule_read(&mut self, at: Cycle, size: Bytes) -> Cycle {
        let t = self.read_chan.schedule(at, size);
        self.stats.fault_injection.transfer_retries += t.retries as u64;
        if t.gave_up {
            self.stats.fault_injection.transfer_giveups += 1;
        }
        t.finish
    }

    /// Schedules a device→host write-back; see [`Self::schedule_read`].
    fn schedule_write(&mut self, at: Cycle, size: Bytes) -> Cycle {
        let t = self.write_chan.schedule(at, size);
        self.stats.fault_injection.transfer_retries += t.retries as u64;
        if t.gave_up {
            self.stats.fault_injection.transfer_giveups += 1;
        }
        t.finish
    }

    // ------------------------------------------------------------------
    // Eviction mechanism
    // ------------------------------------------------------------------

    /// Frees frames until `needed` are available at driver time `t`.
    /// Returns the evicted pages and, for demand-eviction policies, the
    /// write-back completion barrier the migration must wait for.
    fn ensure_frames(
        &mut self,
        needed: u64,
        wb_time: Cycle,
        pin_time: Cycle,
    ) -> (Vec<PageId>, Option<Cycle>) {
        assert!(
            needed <= self.frames.capacity_frames(),
            "migration of {needed} pages exceeds total device memory"
        );
        let mut evicted = Vec::new();
        let mut barrier: Option<Cycle> = None;
        // Memory-threshold pre-eviction: keep the free-page buffer
        // topped up before anything else (Sec. 4.2). Buffer top-up is
        // asynchronous: it never stalls the migration.
        if self.cfg.free_buffer_frac > 0.0 {
            let buffer =
                (self.cfg.free_buffer_frac * self.frames.capacity_frames() as f64).ceil() as u64;
            while self.frames.free_frames() < buffer.max(needed) {
                let Some((pages, _)) = self.evict_once(wb_time, pin_time) else {
                    break;
                };
                evicted.extend(pages);
            }
        }
        while self.frames.free_frames() < needed {
            let Some((pages, wb_finish)) = self.evict_once(wb_time, pin_time) else {
                panic!(
                    "cannot evict: every resident page is a demand page \
                     awaiting its faulting warp ({} resident, {} free, \
                     {needed} needed) — the device budget is too small \
                     for the configured concurrency",
                    self.resident.len(),
                    self.frames.free_frames()
                );
            };
            if !self.evictor.is_pre_eviction() {
                barrier = Some(barrier.map_or(wb_finish, |b| b.max(wb_finish)));
            }
            evicted.extend(pages);
        }
        (evicted, barrier)
    }

    /// Runs one eviction operation: asks the policy for victim groups,
    /// schedules their write-back, and invalidates them. Returns the
    /// evicted pages and the write-back finish time, or `None` if no
    /// victim is eligible.
    fn evict_once(&mut self, wb_time: Cycle, pin_time: Cycle) -> Option<(Vec<PageId>, Cycle)> {
        // Splinter before selecting victims (the Mosaic ordering): the
        // policy may demote one coalesced large page per eviction
        // operation so its pages become individually evictable without
        // a forced demotion.
        if !self.huge_mapped.is_empty() {
            let splinter = {
                let (view, _, evictor, rng) = self.policy_view();
                evictor.select_splinter(&view, rng, pin_time)
            };
            if let Some(lp) = splinter {
                if self.demote(lp) {
                    self.stats.huge_pages.splinters += 1;
                }
            }
        }
        // Prefer fully unpinned victims; fall back to soft-pinned
        // (in-flight prefetched) pages. Hard-pinned demand pages are
        // never victims.
        let groups = {
            let (view, _, evictor, rng) = self.policy_view();
            evictor
                .select_victims(&view, rng, pin_time, PIN_NONE)
                .or_else(|| evictor.select_victims(&view, rng, pin_time, PIN_SOFT))?
        };
        let mut all = Vec::new();
        let mut finish = wb_time;
        for group in groups {
            if self.cfg.writeback_dirty_only {
                // Ablation: transfer only the dirty pages, one transfer
                // per contiguous dirty run — less write traffic, worse
                // per-transfer bandwidth.
                let mut run = 0u64;
                for &p in &group {
                    if self.page_table.flags(p).dirty {
                        run += 1;
                    } else if run > 0 {
                        let wb = self.schedule_write(wb_time, PAGE_SIZE * run);
                        finish = finish.max(wb);
                        run = 0;
                    }
                }
                if run > 0 {
                    let wb = self.schedule_write(wb_time, PAGE_SIZE * run);
                    finish = finish.max(wb);
                }
            } else {
                // The paper's design choice: the whole group is written
                // back as a single unit irrespective of clean/dirty
                // pages (Sec. 5.1).
                let size = PAGE_SIZE * group.len() as u64;
                let wb = self.schedule_write(wb_time, size);
                finish = finish.max(wb);
            }
            self.expel_group(&group);
            all.extend(group);
        }
        if all.is_empty() {
            None
        } else {
            self.stats.evictions += 1;
            Some((all, finish))
        }
    }

    // ------------------------------------------------------------------
    // Page state transitions
    // ------------------------------------------------------------------

    /// Makes a transfer group resident: allocates each page a frame,
    /// validates its PTE, and registers it in every tracking structure
    /// (including the eviction policy's bookkeeping and the shared TBN
    /// trees).
    ///
    /// Everything whose order is observable runs per page, in `pages`
    /// order: frame allocation (the free list and region bitmaps set
    /// later frame ids), the PTE and the per-page tables and counters.
    /// The allocation lookup and tree update run once per basic-block
    /// run, the large-page count once per large-page run, and the
    /// evictor hears the whole group at once.
    fn admit_group(&mut self, pages: &[PageId], ready: Cycle, prefetched: bool) {
        for &page in pages {
            let frame = self.allocate_frame_for(page);
            self.frame_of.insert(page, frame);
            self.page_table.validate(page);
            self.resident.insert(page);
            self.ready_at.insert(page, ready);
            if prefetched {
                self.unaccessed_prefetch.insert(page);
            } else {
                self.unaccessed_demand.insert(page);
            }
            if self.evicted_once.contains(page) {
                self.stats.pages_thrashed += 1;
            }
        }
        self.evictor.on_validate_group(pages);
        for run in pages.chunk_by(same_basic_block) {
            if let Some(tree) = self.tree_of(run[0].basic_block()) {
                tree.add_pages(run[0].basic_block(), run.len() as u32);
            }
        }
        let n = pages.len() as u64;
        self.stats.pages_migrated += n;
        if prefetched {
            self.stats.pages_prefetched += n;
        }
        if self.lp_tracking() {
            for run in pages.chunk_by(same_large_page) {
                *self.lp_resident.entry(run[0].large_page()).or_insert(0) += run.len() as u32;
            }
        }
    }

    /// Removes a victim group from residency and every tracking
    /// structure.
    ///
    /// Per page, in `pages` order: the PTE, the frame free (its order
    /// sets later frame ids), the per-page tables and the write-back
    /// and wasted-prefetch counters. Per large-page run: the forced
    /// splinter check and the large-page count, whose drain can only
    /// fall on the run's last page, so the drained large page releases
    /// its frame region right after that page's frame is freed, where
    /// a page-at-a-time loop would release it. Per basic-block run: the
    /// allocation lookup and tree update.
    fn expel_group(&mut self, pages: &[PageId]) {
        for lp_run in pages.chunk_by(same_large_page) {
            let lp = lp_run[0].large_page();
            if self.huge_mapped.contains(&lp) {
                // Eviction reached into a coalesced large page the
                // policy did not splinter first: force the demotion
                // (Mosaic's safety net — correctness never depends on
                // the policy).
                self.demote(lp);
                self.stats.huge_pages.forced_splinters += 1;
            }
            for bb_run in lp_run.chunk_by(same_basic_block) {
                for &page in bb_run {
                    let flags = self.page_table.invalidate(page);
                    assert!(flags.valid, "expel of non-resident {page}");
                    if !flags.dirty {
                        self.stats.clean_pages_written_back += 1;
                    }
                    if self.unaccessed_prefetch.remove(page) {
                        self.stats.prefetched_wasted += 1;
                    }
                    let frame = self
                        .frame_of
                        .remove(page)
                        .expect("resident page has a frame");
                    self.frames
                        .free(frame)
                        .expect("resident page owns a live frame");
                    self.resident.remove(page);
                    self.ready_at.remove(page);
                    self.unaccessed_demand.remove(page);
                    self.evicted_once.insert(page);
                }
                if let Some(tree) = self.tree_of(bb_run[0].basic_block()) {
                    tree.remove_pages(bb_run[0].basic_block(), bb_run.len() as u32);
                }
            }
            if self.lp_tracking() {
                if let Some(count) = self.lp_resident.get_mut(&lp) {
                    *count = count
                        .checked_sub(lp_run.len() as u32)
                        .expect("lp_resident counts every resident page");
                    if *count == 0 {
                        self.lp_resident.remove(&lp);
                        // The large page drained: hand its soft-reserved
                        // frame region back as one reusable 2 MB block.
                        if let Some(base) = self.region_of.remove(&lp) {
                            self.frames.release_region(base);
                        }
                    }
                }
            }
        }
        self.evictor.on_invalidate_group(pages);
        self.stats.pages_evicted += pages.len() as u64;
    }

    /// The allocation tree covering `bb`, if `bb` is managed.
    fn tree_of(&mut self, bb: BasicBlockId) -> Option<&mut AllocTree> {
        self.allocs
            .find_by_block_mut(bb)
            .and_then(|alloc| alloc.tree_for_block_mut(bb))
    }

    // ------------------------------------------------------------------
    // Huge-page mechanism (coalesce / splinter)
    // ------------------------------------------------------------------

    /// `true` while per-large-page residency counts are maintained:
    /// whenever a huge-page policy is active, and — after a swap away
    /// from one — until every soft-reserved frame region has drained.
    fn lp_tracking(&self) -> bool {
        self.huge_enabled || !self.region_of.is_empty()
    }

    /// Allocates the frame backing `page`. Legacy policies take the
    /// exact pre-existing single-frame path; a contiguity-requesting
    /// prefetcher gets region placement instead: the page's 2 MB range
    /// is soft-reserved on first touch and each page lands at
    /// `region_base + offset` — the physical contiguity a later
    /// coalesce requires.
    fn allocate_frame_for(&mut self, page: PageId) -> FrameId {
        if self.huge_enabled {
            let lp = page.large_page();
            let offset = page.index() - lp.first_page().index();
            if let Some(&base) = self.region_of.get(&lp) {
                if let Some(frame) = self.frames.allocate_in_region(base, offset) {
                    return frame;
                }
            } else if let Some(base) = self.frames.reserve_region() {
                self.region_of.insert(lp, base);
                if let Some(frame) = self.frames.allocate_in_region(base, offset) {
                    return frame;
                }
            }
            // Slot stolen or no contiguous 2 MB range left: fall back
            // to a plain frame — the large page loses its shot at
            // coalescing, never its residency.
        }
        self.frames
            .allocate()
            .expect("ensure_frames guaranteed capacity")
    }

    /// Considers every large page `ready` touched for promotion.
    fn promote_candidates(&mut self, ready: &[(PageId, Cycle)]) {
        if !self.huge_enabled {
            return;
        }
        let mut lps: Vec<LargePageId> = ready.iter().map(|&(p, _)| p.large_page()).collect();
        lps.sort_unstable();
        lps.dedup();
        for lp in lps {
            self.maybe_promote(lp);
        }
    }

    /// Splits the borrows every policy call needs: the read-only
    /// residency view, both policies, and the driver's RNG. The view's
    /// prefetch budget is the frames free right now minus the one a
    /// fault page takes — exactly the room `handle_fault` trims the
    /// plan to, since it builds the view after demand eviction.
    fn policy_view(
        &mut self,
    ) -> (
        ResidencyView<'_>,
        &mut dyn Prefetcher,
        &mut dyn Evictor,
        &mut SmallRng,
    ) {
        let lp_tracking = self.lp_tracking();
        let prefetch_budget = self.frames.free_frames().saturating_sub(1) as usize;
        let Gmmu {
            prefetcher,
            evictor,
            rng,
            page_table,
            allocs,
            resident,
            ready_at,
            unaccessed_demand,
            cfg,
            huge_mapped,
            lp_resident,
            ..
        } = self;
        let view = ResidencyView::new(
            page_table,
            allocs,
            resident,
            ready_at,
            unaccessed_demand,
            cfg.reserve_frac,
            huge_mapped,
            lp_resident,
            lp_tracking,
            prefetch_budget,
        );
        (view, prefetcher.as_mut(), evictor.as_mut(), rng)
    }

    /// Promotes `lp` to a single huge mapping if the mechanism's
    /// preconditions hold — fully resident on a physically contiguous,
    /// 2 MB-aligned frame range — and the prefetcher's
    /// [`should_coalesce`](Prefetcher::should_coalesce) approves.
    fn maybe_promote(&mut self, lp: LargePageId) {
        if self.huge_mapped.contains(&lp) {
            return;
        }
        if u64::from(self.lp_resident.get(&lp).copied().unwrap_or(0)) != PAGES_PER_LARGE_PAGE {
            return;
        }
        let first = lp.first_page();
        let Some(base) = self.frame_of.get(first).map(FrameId::index) else {
            return;
        };
        if base % PAGES_PER_LARGE_PAGE != 0 {
            return;
        }
        for k in 1..PAGES_PER_LARGE_PAGE {
            if self.frame_of.get(first.add(k)).map(FrameId::index) != Some(base + k) {
                return;
            }
        }
        let approved = {
            let (view, prefetcher, _, _) = self.policy_view();
            prefetcher.should_coalesce(&view, lp)
        };
        if !approved {
            return;
        }
        // The huge fast-path activates only once every constituent
        // page's migration has landed (accessed pages have no in-flight
        // entry: their data is already present).
        let mut active_from = Cycle::ZERO;
        for k in 0..PAGES_PER_LARGE_PAGE {
            if let Some(t) = self.ready_at.get(first.add(k)) {
                active_from = active_from.max(t);
            }
        }
        let mapping = self.huge.entry(lp).or_insert(HugeMapping {
            epoch: 0,
            mapped: false,
            active_from: Cycle::ZERO,
        });
        mapping.epoch += 1;
        mapping.mapped = true;
        mapping.active_from = active_from;
        self.huge_mapped.insert(lp);
        self.stats.huge_pages.coalesces += 1;
    }

    /// Splinters `lp` back to 4 KB mappings. The epoch bump makes every
    /// cached huge TLB entry stale (one shootdown generation); resident
    /// pages and their frames are untouched. Returns `false` if `lp`
    /// was not coalesced.
    fn demote(&mut self, lp: LargePageId) -> bool {
        if !self.huge_mapped.remove(&lp) {
            return false;
        }
        let mapping = self
            .huge
            .get_mut(&lp)
            .expect("coalesced large page has a mapping record");
        mapping.mapped = false;
        mapping.epoch += 1;
        true
    }

    /// The huge-mapping translation the engine's TLBs consult: the
    /// current epoch of `lp`'s huge mapping, or `None` if `lp` is not
    /// coalesced or its promotion has not activated by `now` (data
    /// still in flight). Near-free when no huge mapping exists.
    pub fn huge_translation(&self, lp: LargePageId, now: Cycle) -> Option<u64> {
        if self.huge_mapped.is_empty() {
            return None;
        }
        let mapping = self.huge.get(&lp)?;
        (mapping.mapped && now >= mapping.active_from).then_some(mapping.epoch)
    }

    /// `true` if `lp` is currently coalesced into one huge mapping.
    pub fn is_huge_mapped(&self, lp: LargePageId) -> bool {
        self.huge_mapped.contains(&lp)
    }

    /// The current epoch of `lp`'s huge mapping regardless of
    /// coalesced/splintered state, or `None` if `lp` has never been
    /// promoted. The engine's audit uses this to bound cached huge-TLB
    /// epochs.
    pub fn huge_epoch(&self, lp: LargePageId) -> Option<u64> {
        self.huge.get(&lp).map(|m| m.epoch)
    }

    /// Folds the frame allocator's split/merge/region counters into the
    /// driver statistics (called after every migration entry point).
    fn sync_frame_stats(&mut self) {
        let s = self.frames.stats();
        self.stats.huge_pages.alloc_splits = s.splits;
        self.stats.huge_pages.alloc_merges = s.merges;
        self.stats.huge_pages.regions_reserved = s.regions_reserved;
        self.stats.huge_pages.region_steals = s.region_steals;
    }

    /// Applies the sticky prefetcher-disable rule after a migration.
    fn update_prefetch_kill_switch(&mut self) {
        if self.prefetch_disabled {
            return;
        }
        if self.cfg.free_buffer_frac > 0.0 {
            let threshold = ((1.0 - self.cfg.free_buffer_frac)
                * self.frames.capacity_frames() as f64)
                .floor() as u64;
            if self.frames.used_frames() >= threshold {
                self.prefetch_disabled = true;
            }
        }
        if self.cfg.disable_prefetch_on_oversubscription && self.frames.is_full() {
            self.prefetch_disabled = true;
        }
    }

    // ------------------------------------------------------------------
    // Durable checkpointing
    // ------------------------------------------------------------------

    /// Serializes every mutable driver field for a durable checkpoint.
    ///
    /// Configuration (the `UvmConfig`, PCI-e model, fault plan) is
    /// *not* stored — the restore path rebuilds the driver from the
    /// same `RunOptions` and overwrites mutable state, so anything
    /// derivable stays derivable. The two policy specs *are* stored
    /// (as strings) because a warm-up → measurement
    /// [`swap_policies`](Self::swap_policies) changes them mid-run;
    /// each policy's learning state rides in its own length-prefixed
    /// sub-buffer via the [`Prefetcher::save_state`] /
    /// [`Evictor::save_state`] seam.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        for s in self.rng.state() {
            w.put_u64(s);
        }
        for s in self.fault_rng.state() {
            w.put_u64(s);
        }
        w.put_str(&self.cfg.prefetch.to_string());
        w.put_str(&self.cfg.evict.to_string());
        self.allocs.save_state(w);
        self.page_table.save_state(w);
        self.frames.save_state(w);
        self.frame_of.save_state(w, |w, f| w.put_u64(f.index()));
        {
            let mut sub = uvm_types::codec::ByteWriter::new();
            self.prefetcher.save_state(&mut sub);
            w.put_bytes(sub.as_bytes());
        }
        {
            let mut sub = uvm_types::codec::ByteWriter::new();
            self.evictor.save_state(&mut sub);
            w.put_bytes(sub.as_bytes());
        }
        self.resident.save_state(w);
        self.read_chan.save_state(w);
        self.write_chan.save_state(w);
        w.put_usize(self.lanes.len());
        for lane in &self.lanes {
            w.put_u64(lane.index());
        }
        w.put_bool(self.prefetch_disabled);
        self.ready_at.save_state(w, |w, t| w.put_u64(t.index()));
        self.unaccessed_prefetch.save_state(w);
        self.unaccessed_demand.save_state(w);
        self.evicted_once.save_state(w);
        let mut huge: Vec<(&LargePageId, &HugeMapping)> = self.huge.iter().collect();
        huge.sort_unstable_by_key(|(lp, _)| **lp);
        w.put_usize(huge.len());
        for (lp, m) in huge {
            w.put_u64(lp.index());
            w.put_u64(m.epoch);
            w.put_bool(m.mapped);
            w.put_u64(m.active_from.index());
        }
        let mut lp_res: Vec<(&LargePageId, &u32)> = self.lp_resident.iter().collect();
        lp_res.sort_unstable_by_key(|(lp, _)| **lp);
        w.put_usize(lp_res.len());
        for (lp, &count) in lp_res {
            w.put_u64(lp.index());
            w.put_u32(count);
        }
        let mut regions: Vec<(&LargePageId, &u64)> = self.region_of.iter().collect();
        regions.sort_unstable_by_key(|(lp, _)| **lp);
        w.put_usize(regions.len());
        for (lp, &base) in regions {
            w.put_u64(lp.index());
            w.put_u64(base);
        }
        w.put_bool(self.huge_enabled);
        match &self.fault_trace {
            Some(trace) => {
                w.put_bool(true);
                w.put_usize(trace.len());
                for &(t, p) in trace {
                    w.put_u64(t.index());
                    w.put_u64(p.index());
                }
            }
            None => w.put_bool(false),
        }
        self.stats.save_state(w);
    }

    /// Restores a [`save_state`](Self::save_state) image into a driver
    /// freshly built from the same configuration. The policy pair is
    /// rebuilt from the *stored* specs (which may differ from the
    /// construction-time specs after a warm-up swap) and then fed its
    /// serialized learning state.
    pub fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        use uvm_types::codec::CodecError;

        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.get_u64()?;
        }
        self.rng = SmallRng::from_state(rng_state);
        let mut fault_state = [0u64; 4];
        for s in &mut fault_state {
            *s = r.get_u64()?;
        }
        self.fault_rng = SmallRng::from_state(fault_state);
        let prefetch_spec: PolicySpec = r.get_str()?.parse().map_err(|e| {
            crate::checkpoint::CheckpointError::Incompatible(format!("stored prefetch spec: {e}"))
        })?;
        let evict_spec: PolicySpec = r.get_str()?.parse().map_err(|e| {
            crate::checkpoint::CheckpointError::Incompatible(format!("stored evict spec: {e}"))
        })?;
        if prefetch_spec != self.cfg.prefetch || evict_spec != self.cfg.evict {
            let registry = PolicyRegistry::global();
            self.cfg.prefetch = prefetch_spec;
            self.cfg.evict = evict_spec;
            self.prefetcher = registry
                .build_prefetcher_spec(&self.cfg.prefetch, &self.cfg)
                .map_err(|e| {
                    crate::checkpoint::CheckpointError::Incompatible(format!(
                        "stored prefetch spec does not build: {e}"
                    ))
                })?;
            self.evictor = registry
                .build_evictor_spec(&self.cfg.evict, &self.cfg)
                .map_err(|e| {
                    crate::checkpoint::CheckpointError::Incompatible(format!(
                        "stored evict spec does not build: {e}"
                    ))
                })?;
        }
        self.allocs = Allocations::load_state(r)?;
        // Every page-indexed table decoded from here on (this driver's,
        // its evictor's, and the engine's TLBs after it) must lie inside
        // the restored managed range.
        r.set_page_limit(self.allocs.page_limit());
        self.page_table = PageTable::load_state(r)?;
        self.frames = FrameAllocator::load_state(r)?;
        self.frame_of = DensePageMap::load_state(r, |r| Ok(FrameId::from_index(r.get_u64()?)))?;
        {
            let bytes = r.get_bytes()?;
            let mut sub = uvm_types::codec::ByteReader::new(bytes).with_page_limit(r.page_limit());
            self.prefetcher.load_state(&mut sub)?;
            sub.finish()?;
        }
        {
            let bytes = r.get_bytes()?;
            let mut sub = uvm_types::codec::ByteReader::new(bytes).with_page_limit(r.page_limit());
            self.evictor.load_state(&mut sub)?;
            sub.finish()?;
        }
        self.resident = IndexedPageSet::load_state(r)?;
        self.read_chan.load_state(r)?;
        self.write_chan.load_state(r)?;
        let lanes = r.get_usize()?;
        if lanes == 0 {
            return Err(CodecError::BadTag {
                what: "fault lane count",
                value: 0,
            }
            .into());
        }
        self.lanes = (0..lanes)
            .map(|_| Ok(Cycle::new(r.get_u64()?)))
            .collect::<Result<_, CodecError>>()?;
        self.prefetch_disabled = r.get_bool()?;
        self.ready_at = DensePageMap::load_state(r, |r| Ok(Cycle::new(r.get_u64()?)))?;
        self.unaccessed_prefetch = DensePageSet::load_state(r)?;
        self.unaccessed_demand = DensePageSet::load_state(r)?;
        self.evicted_once = DensePageSet::load_state(r)?;
        self.huge = HashMap::default();
        self.huge_mapped = BTreeSet::new();
        for _ in 0..r.get_usize()? {
            let lp = LargePageId::new(r.get_u64()?);
            let mapping = HugeMapping {
                epoch: r.get_u64()?,
                mapped: r.get_bool()?,
                active_from: Cycle::new(r.get_u64()?),
            };
            if mapping.mapped {
                self.huge_mapped.insert(lp);
            }
            if self.huge.insert(lp, mapping).is_some() {
                return Err(CodecError::BadTag {
                    what: "duplicate huge-mapping record",
                    value: lp.index(),
                }
                .into());
            }
        }
        self.lp_resident = HashMap::default();
        for _ in 0..r.get_usize()? {
            let lp = LargePageId::new(r.get_u64()?);
            let count = r.get_u32()?;
            if self.lp_resident.insert(lp, count).is_some() {
                return Err(CodecError::BadTag {
                    what: "duplicate lp-resident record",
                    value: lp.index(),
                }
                .into());
            }
        }
        self.region_of = HashMap::default();
        for _ in 0..r.get_usize()? {
            let lp = LargePageId::new(r.get_u64()?);
            let base = r.get_u64()?;
            if self.region_of.insert(lp, base).is_some() {
                return Err(CodecError::BadTag {
                    what: "duplicate region record",
                    value: lp.index(),
                }
                .into());
            }
        }
        self.huge_enabled = r.get_bool()?;
        self.fault_trace = if r.get_bool()? {
            let n = r.get_count()?;
            let mut trace = Vec::with_capacity(n);
            for _ in 0..n {
                let t = Cycle::new(r.get_u64()?);
                trace.push((t, PageId::new(r.get_u64()?)));
            }
            Some(trace)
        } else {
            None
        };
        self.stats = UvmStats::load_state(r)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Invariant auditing
    // ------------------------------------------------------------------

    /// Cross-checks the driver's redundant views of page state:
    /// allocator occupancy ↔ resident set ↔ page-table entries ↔
    /// frame table ↔ huge-mapping records ↔ soft-region reservations.
    /// Read-only and schedule-inert — running it cannot perturb a
    /// simulation. Returns every violation found, so a failing audit
    /// reports the full inconsistency picture, not just the first
    /// symptom.
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut violations = Vec::new();
        let resident_count = self.resident.len() as u64;
        if self.page_table.valid_pages() != resident_count {
            violations.push(format!(
                "page table holds {} valid PTEs but the resident set holds {} pages",
                self.page_table.valid_pages(),
                resident_count
            ));
        }
        if self.frames.used_frames() != resident_count {
            violations.push(format!(
                "allocator reports {} frames in use but {} pages are resident \
                 (every resident page owns exactly one frame)",
                self.frames.used_frames(),
                resident_count
            ));
        }
        let mut frames_seen: Vec<u64> = Vec::with_capacity(self.resident.len());
        for page in self.resident.iter_ascending() {
            if !self.page_table.is_valid(page) {
                violations.push(format!("resident {page} has no valid PTE"));
            }
            match self.frame_of.get(page) {
                Some(frame) => {
                    if frame.index() >= self.frames.capacity_frames() {
                        violations.push(format!(
                            "resident {page} maps to frame {} beyond the {}-frame budget",
                            frame.index(),
                            self.frames.capacity_frames()
                        ));
                    }
                    frames_seen.push(frame.index());
                }
                None => violations.push(format!("resident {page} has no backing frame")),
            }
        }
        frames_seen.sort_unstable();
        for pair in frames_seen.windows(2) {
            if pair[0] == pair[1] {
                violations.push(format!(
                    "frame {} backs more than one resident page",
                    pair[0]
                ));
            }
        }
        // Per-large-page residency counts (maintained only while a
        // huge-page policy is or was recently active) must agree with a
        // recount of the resident set.
        if self.lp_tracking() {
            let mut recount: HashMap<LargePageId, u32, FxBuildHasher> = HashMap::default();
            for page in self.resident.iter_ascending() {
                *recount.entry(page.large_page()).or_insert(0) += 1;
            }
            if recount != self.lp_resident {
                let mut tracked: Vec<_> = self.lp_resident.keys().copied().collect();
                tracked.sort_unstable();
                for lp in tracked {
                    let have = self.lp_resident.get(&lp).copied().unwrap_or(0);
                    let want = recount.get(&lp).copied().unwrap_or(0);
                    if have != want {
                        violations.push(format!(
                            "lp_resident[{lp}] = {have} but {want} of its pages are resident"
                        ));
                    }
                }
                let mut actual: Vec<_> = recount.keys().copied().collect();
                actual.sort_unstable();
                for lp in actual {
                    if !self.lp_resident.contains_key(&lp) {
                        violations
                            .push(format!("{lp} has resident pages but no lp_resident record"));
                    }
                }
            }
        }
        // Huge mappings: the ordered set and the record map must agree,
        // and a coalesced large page must be fully resident on the
        // aligned, contiguous frame range promotion verified.
        for &lp in &self.huge_mapped {
            match self.huge.get(&lp) {
                Some(m) if m.mapped => {}
                Some(_) => violations.push(format!(
                    "{lp} is in huge_mapped but its record says splintered"
                )),
                None => violations.push(format!("{lp} is in huge_mapped with no record")),
            }
            let count = self.lp_resident.get(&lp).copied().unwrap_or(0);
            if u64::from(count) != PAGES_PER_LARGE_PAGE {
                violations.push(format!(
                    "coalesced {lp} has only {count}/{PAGES_PER_LARGE_PAGE} resident pages"
                ));
                continue;
            }
            let first = lp.first_page();
            let base = self.frame_of.get(first).map(FrameId::index);
            match base {
                Some(base) if base % PAGES_PER_LARGE_PAGE == 0 => {
                    for k in 1..PAGES_PER_LARGE_PAGE {
                        if self.frame_of.get(first.add(k)).map(FrameId::index) != Some(base + k) {
                            violations.push(format!(
                                "coalesced {lp} is not frame-contiguous at page offset {k}"
                            ));
                            break;
                        }
                    }
                }
                Some(base) => {
                    violations.push(format!("coalesced {lp} starts at unaligned frame {base}"))
                }
                None => violations.push(format!("coalesced {lp} has no frame for its first page")),
            }
        }
        for (lp, m) in &self.huge {
            if m.mapped && !self.huge_mapped.contains(lp) {
                violations.push(format!(
                    "{lp} record says coalesced but it is missing from huge_mapped"
                ));
            }
        }
        // Soft-reserved frame regions must still exist in the allocator,
        // and only large pages with resident pages may hold one.
        let mut regions: Vec<(&LargePageId, &u64)> = self.region_of.iter().collect();
        regions.sort_unstable_by_key(|(lp, _)| **lp);
        for (lp, &base) in regions {
            if !self.frames.is_region_reserved(base) {
                violations.push(format!(
                    "{lp} claims soft region at frame {base} but the allocator has none"
                ));
            }
            if !self.lp_resident.contains_key(lp) {
                violations.push(format!(
                    "{lp} holds soft region at frame {base} with zero resident pages"
                ));
            }
        }
        // The shared allocation trees are residency metadata: each
        // block's valid count must equal its valid-PTE population.
        for alloc in self.allocs.iter() {
            for tree in alloc.trees() {
                let extent = tree.extent();
                for b in 0..extent.num_blocks {
                    let block = extent.first_block.add(b);
                    let tracked = tree.block_valid_pages(block);
                    let actual = (0..uvm_types::PAGES_PER_BASIC_BLOCK)
                        .filter(|&k| self.page_table.is_valid(block.first_page().add(k)))
                        .count() as u32;
                    if tracked != actual {
                        violations.push(format!(
                            "tree block {} tracks {tracked} valid pages but the page \
                             table holds {actual}",
                            block.index()
                        ));
                    }
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(AuditError { violations })
        }
    }
}

/// One or more failed GMMU invariants, reported together.
#[derive(Debug)]
pub struct AuditError {
    /// Human-readable description of each violated invariant.
    pub violations: Vec<String>,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "GMMU audit failed ({} violations):",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocId;
    use crate::policy::{EvictPolicy, PrefetchPolicy};
    use crate::prefetch::{LearnedPrefetcher, RandomPrefetcher};
    use crate::trace::{train_table, TraceKind, TraceRecord};
    use uvm_types::Duration;

    fn first_page_of_block(base: VirtAddr, block: u64) -> PageId {
        base.page().add(block * 16)
    }

    /// Touch (fault if needed, then access) a page, returning the time
    /// the access could proceed.
    fn touch(gmmu: &mut Gmmu, page: PageId, now: Cycle) -> Cycle {
        let t = if gmmu.is_resident(page) {
            gmmu.ready_time(page, now).unwrap_or(now)
        } else {
            gmmu.handle_fault(page, now).fault_page_ready()
        };
        gmmu.record_access(page, false);
        t
    }

    #[test]
    fn no_prefetch_migrates_single_pages() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::None));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..10 {
            now = touch(&mut g, base.page().add(i), now);
        }
        assert_eq!(g.stats().far_faults, 10);
        assert_eq!(g.stats().pages_migrated, 10);
        assert_eq!(g.stats().pages_prefetched, 0);
        assert_eq!(g.read_stats().histogram.count_4kib(), 10);
    }

    #[test]
    fn faults_serialize_through_a_single_lane_driver() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_prefetch(PrefetchPolicy::None)
                .with_fault_lanes(1),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let r1 = g.handle_fault(base.page(), Cycle::ZERO);
        let r2 = g.handle_fault(base.page().add(1), Cycle::ZERO);
        // Second fault's handling starts only after the first fault is
        // fully retired (handling window + migration landed).
        assert_eq!(r2.handled, r1.fault_page_ready() + g.config().fault_latency);
        assert!(r2.fault_page_ready() > r1.fault_page_ready());
    }

    #[test]
    fn fault_lanes_overlap_handling_windows() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_prefetch(PrefetchPolicy::None)
                .with_fault_lanes(4),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut handled = Vec::new();
        for i in 0..4 {
            handled.push(g.handle_fault(base.page().add(i), Cycle::ZERO).handled);
        }
        // All four faults finish handling in the same 45us window.
        assert!(handled.iter().all(|&h| h == handled[0]));
        // The fifth queues behind the earliest lane, which is occupied
        // until its fault's 4 KB migration lands.
        let fifth = g.handle_fault(base.page().add(4), Cycle::ZERO);
        let transfer = PcieModel::pascal_x16().transfer_time(PAGE_SIZE);
        assert_eq!(
            fifth.handled,
            handled[0] + transfer + g.config().fault_latency
        );
    }

    #[test]
    fn random_prefetch_stays_in_large_page() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::Random));
        let base = g.malloc_managed(Bytes::mib(4));
        let fault = base.page().add(600); // second large page
        let res = g.handle_fault(fault, Cycle::ZERO);
        assert_eq!(res.ready.len(), 2);
        let extra = res.ready[1].0;
        assert_eq!(extra.large_page(), fault.large_page());
        assert_ne!(extra, fault);
        assert_eq!(g.stats().pages_prefetched, 1);
        // Both travel as separate 4 KB transfers.
        assert_eq!(g.read_stats().histogram.count_4kib(), 2);
    }

    /// Rp's counted pick equals indexing the list of invalid pages
    /// other than the faulty one, and leaves the RNG at the same
    /// position, on seeded residencies. A large page with no other
    /// invalid page plans nothing and draws nothing.
    #[test]
    fn random_prefetch_pick_matches_candidate_list() {
        fn list_pick(
            view: &ResidencyView<'_>,
            rng: &mut SmallRng,
            page: PageId,
            alloc: AllocId,
        ) -> Vec<Vec<PageId>> {
            let alloc = view.alloc(alloc);
            let lp_first = page.large_page().first_page();
            let start = lp_first.index().max(alloc.first_page().index());
            let end = (lp_first.index() + PAGES_PER_LARGE_PAGE).min(alloc.end_page().index());
            let candidates: Vec<PageId> = (start..end)
                .map(PageId::new)
                .filter(|&p| p != page && !view.is_valid(p))
                .collect();
            if candidates.is_empty() {
                return Vec::new();
            }
            vec![vec![candidates[rng.gen_range(0..candidates.len())]]]
        }

        let mut rng = SmallRng::seed_from_u64(0x5eed_0a9e);
        for round in 0..8 {
            let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::None));
            let ranges = [
                (g.malloc_managed(Bytes::mib(4)), 1024u64),
                (g.malloc_managed(Bytes::kib(2600)), 650),
            ];
            // The first large page is resident but for one hole.
            let hole = ranges[0]
                .0
                .page()
                .add(rng.gen_range(0..PAGES_PER_LARGE_PAGE));
            for p in (0..PAGES_PER_LARGE_PAGE).map(|k| ranges[0].0.page().add(k)) {
                if p != hole {
                    g.handle_fault(p, Cycle::ZERO);
                }
            }
            let target = g.resident_pages() + rng.gen_range(0..1200u64);
            while g.resident_pages() < target {
                let (base, pages) = ranges[rng.gen_range(0..ranges.len())];
                let p = base.page().add(rng.gen_range(0..pages));
                if p != hole && !g.is_resident(p) {
                    g.handle_fault(p, Cycle::ZERO);
                }
            }
            let faults: Vec<(PageId, AllocId)> = ranges
                .iter()
                .flat_map(|&(base, pages)| (0..pages).map(move |k| base.page().add(k)))
                .filter(|&p| !g.is_resident(p))
                .map(|p| (p, g.allocs.find_by_page(p).unwrap().id()))
                .collect();
            assert_eq!(faults[0].0, hole, "round {round}");
            let (view, _, _, _) = g.policy_view();
            for &(page, alloc) in &faults {
                let mut counted_rng = rng.clone();
                let mut list_rng = rng.clone();
                let counted = RandomPrefetcher.plan(&view, &mut counted_rng, page, alloc);
                let listed = list_pick(&view, &mut list_rng, page, alloc);
                assert_eq!(counted, listed, "round {round}, fault {page}");
                if page == hole {
                    assert!(counted.is_empty(), "round {round}: hole has no candidates");
                    assert_eq!(counted_rng.state(), rng.state(), "hole draws nothing");
                }
                assert_eq!(counted_rng.next_u64(), list_rng.next_u64(), "fault {page}");
                rng.next_u64();
            }
        }
    }

    #[test]
    fn sequential_local_prefetch_migrates_the_block() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal));
        let base = g.malloc_managed(Bytes::mib(2));
        let fault = base.page().add(5); // middle of block 0
        let res = g.handle_fault(fault, Cycle::ZERO);
        assert_eq!(res.ready.len(), 16);
        for i in 0..16 {
            assert!(g.is_resident(base.page().add(i)));
        }
        // Fault group 4 KB + prefetch group 60 KB.
        assert_eq!(g.read_stats().histogram.count(PAGE_SIZE), 1);
        assert_eq!(g.read_stats().histogram.count(Bytes::kib(60)), 1);
        // A second fault in the same block never happens (all valid);
        // fault in the next block migrates that block.
        let res2 = g.handle_fault(base.page().add(16), Cycle::ZERO);
        assert_eq!(res2.ready.len(), 16);
    }

    #[test]
    fn mem_prefetch_async_migrates_a_range_in_bulk() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::None));
        let base = g.malloc_managed(Bytes::mib(4));
        let ready = g.mem_prefetch_async(base, Bytes::mib(4), Cycle::ZERO);
        assert_eq!(ready.len(), 1024);
        assert_eq!(g.stats().pages_migrated, 1024);
        assert_eq!(g.stats().pages_prefetched, 1024);
        assert_eq!(g.stats().far_faults, 0);
        // Two 2 MB transfers, no 4 KB piecemeal traffic.
        assert_eq!(g.read_stats().histogram.count(Bytes::mib(2)), 2);
        assert_eq!(g.read_stats().histogram.count_4kib(), 0);
        // Subsequent accesses never fault.
        for i in 0..1024 {
            assert!(g.is_resident(base.page().add(i)));
        }
    }

    #[test]
    fn mem_prefetch_async_skips_resident_pages_and_foreign_ranges() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::None));
        let base = g.malloc_managed(Bytes::kib(128));
        g.handle_fault(base.page().add(3), Cycle::ZERO);
        let ready = g.mem_prefetch_async(base, Bytes::mib(64), Cycle::ZERO);
        // 32 pages requested... allocation covers 32 pages, one already
        // resident; the huge range clips to the allocation.
        assert_eq!(ready.len(), 31);
        // The resident page split the run into two transfers.
        assert_eq!(g.read_stats().histogram.count(Bytes::kib(12)), 1);
        assert_eq!(g.read_stats().histogram.count(Bytes::kib(112)), 1);
    }

    #[test]
    fn mem_prefetch_async_respects_the_memory_budget() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(1))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::SequentialLocal),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        // Touch the first 128 pages so there is something evictable.
        for i in 0..128 {
            let res = g.handle_fault(base.page().add(i), now);
            now = res.fault_page_ready();
            g.record_access(base.page().add(i), false);
        }
        let ready = g.mem_prefetch_async(
            base.offset(Bytes::mib(1)),
            Bytes::mib(1),
            now + Duration::from_cycles(10_000),
        );
        assert_eq!(ready.len(), 256);
        assert!(g.resident_pages() <= g.capacity_frames());
        assert!(g.stats().pages_evicted > 0);
    }

    #[test]
    fn mem_prefetch_async_empty_and_partial_ranges() {
        let mut g = Gmmu::new(UvmConfig::default());
        let base = g.malloc_managed(Bytes::mib(1));
        assert!(g
            .mem_prefetch_async(base, Bytes::ZERO, Cycle::ZERO)
            .is_empty());
        // A 1-byte range covers exactly one page.
        let ready = g.mem_prefetch_async(base, Bytes::new(1), Cycle::ZERO);
        assert_eq!(ready.len(), 1);
        // A range straddling a page boundary covers both pages.
        let ready = g.mem_prefetch_async(base.offset(Bytes::new(4095)), Bytes::new(2), Cycle::ZERO);
        assert_eq!(ready.len(), 1, "page 0 already resident, page 1 migrates");
    }

    #[test]
    fn zheng_512k_prefetches_128_consecutive_pages() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::Sequential512K));
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::ZERO);
        // Fault page + 127 consecutive prefetched pages, crossing 64 KB
        // block boundaries (unlike SLp).
        assert_eq!(res.ready.len(), 128);
        assert!(g.is_resident(base.page().add(127)));
        assert!(!g.is_resident(base.page().add(128)));
        // One 4 KB fault group + one 508 KB prefetch group.
        assert_eq!(g.read_stats().histogram.count(PAGE_SIZE), 1);
        assert_eq!(g.read_stats().histogram.count(Bytes::kib(508)), 1);
        // Near the allocation end, the plan clips.
        let tail = base.page().add(511);
        let res = g.handle_fault(tail, Cycle::ZERO);
        assert_eq!(res.ready.len(), 1);
    }

    #[test]
    fn stride_256k_prefetches_64_consecutive_pages() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::Stride256K));
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::ZERO);
        // Fault page + 63 consecutive prefetched pages: half SZp's
        // window.
        assert_eq!(res.ready.len(), 64);
        assert!(g.is_resident(base.page().add(63)));
        assert!(!g.is_resident(base.page().add(64)));
        // One 4 KB fault group + one 252 KB prefetch group.
        assert_eq!(g.read_stats().histogram.count(PAGE_SIZE), 1);
        assert_eq!(g.read_stats().histogram.count(Bytes::kib(252)), 1);
        // Near the allocation end, the plan clips.
        let tail = base.page().add(511);
        let res = g.handle_fault(tail, Cycle::ZERO);
        assert_eq!(res.ready.len(), 1);
    }

    #[test]
    fn tbnp_fig2a_through_the_driver() {
        let mut g =
            Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::TreeBasedNeighborhood));
        let base = g.malloc_managed(Bytes::kib(512));
        let mut now = Cycle::ZERO;
        for b in [1u64, 3, 5, 7] {
            now = touch(&mut g, first_page_of_block(base, b), now);
        }
        assert_eq!(g.stats().pages_migrated, 4 * 16);
        // Fifth fault on block 0 cascades: blocks 0, 2, 4, 6 migrate.
        let res = g.handle_fault(first_page_of_block(base, 0), now);
        assert_eq!(res.ready.len(), 4 * 16);
        assert_eq!(g.resident_pages(), 128);
        assert_eq!(g.stats().far_faults, 5);
    }

    #[test]
    fn tbnp_contiguous_blocks_group_into_one_transfer() {
        // Fig. 2b: after blocks 1,3 then 0 (+2 prefetched), the fault on
        // block 4 migrates blocks 4..8 as 4 KB + 252 KB transfers.
        let mut g =
            Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::TreeBasedNeighborhood));
        let base = g.malloc_managed(Bytes::kib(512));
        let mut now = Cycle::ZERO;
        for b in [1u64, 3, 0] {
            now = touch(&mut g, first_page_of_block(base, b), now);
        }
        let _ = g.handle_fault(first_page_of_block(base, 4), now);
        assert_eq!(g.read_stats().histogram.count(Bytes::kib(252)), 1);
        assert_eq!(g.resident_pages(), 128);
    }

    fn oversub_config(evict: EvictPolicy) -> UvmConfig {
        // 1 MB budget (256 frames), 2 MB working set.
        UvmConfig::default()
            .with_capacity(Bytes::mib(1))
            .with_prefetch(PrefetchPolicy::None)
            .with_evict(evict)
    }

    #[test]
    fn lru_eviction_picks_oldest_accessed_page() {
        let mut g = Gmmu::new(oversub_config(EvictPolicy::LruPage));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..256 {
            now = touch(&mut g, base.page().add(i), now);
        }
        assert_eq!(g.stats().pages_evicted, 0);
        // Next fault evicts page 0, the LRU.
        let res = g.handle_fault(base.page().add(256), now);
        assert_eq!(res.evicted, vec![base.page()]);
        assert!(!g.is_resident(base.page()));
        assert_eq!(g.stats().pages_evicted, 1);
    }

    #[test]
    fn demand_eviction_stalls_behind_writeback() {
        let mut g = Gmmu::new(oversub_config(EvictPolicy::LruPage));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..256 {
            now = touch(&mut g, base.page().add(i), now);
        }
        let res = g.handle_fault(base.page().add(256), now);
        // The migration waited for the 4 KB write-back after handling.
        let wb = PcieModel::pascal_x16().transfer_time(PAGE_SIZE);
        let read = PcieModel::pascal_x16().transfer_time(PAGE_SIZE);
        assert_eq!(res.fault_page_ready(), res.handled + wb + read);
    }

    #[test]
    fn pre_eviction_does_not_stall_migration() {
        let mut g = Gmmu::new(oversub_config(EvictPolicy::SequentialLocal));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..256 {
            now = touch(&mut g, base.page().add(i), now);
        }
        let res = g.handle_fault(base.page().add(256), now);
        let read = PcieModel::pascal_x16().transfer_time(PAGE_SIZE);
        assert_eq!(res.fault_page_ready(), res.handled + read);
        // And a whole 64 KB block was written back as one unit.
        assert_eq!(g.write_stats().histogram.count(Bytes::kib(64)), 1);
        assert_eq!(g.stats().pages_evicted, 16);
    }

    #[test]
    fn tbne_cascade_groups_writebacks() {
        // Reproduce Fig. 8 through the driver: fill 512 KB, evict via
        // TBNe with LRU order blocks 1, 3, 4, 0.
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::kib(512))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::TreeBasedNeighborhood),
        );
        let base = g.malloc_managed(Bytes::kib(512));
        let other = g.malloc_managed(Bytes::kib(512));
        let mut now = Cycle::ZERO;
        // Fill all 8 blocks of the first allocation's tree.
        for b in 0..8 {
            for p in 0..16 {
                now = touch(&mut g, base.page().add(b * 16 + p), now);
            }
        }
        // Access order for LRU: make blocks 1, 3, 4, 0 the LRU order,
        // then 2, 5, 6, 7 more recent.
        for b in [1u64, 3, 4, 0, 2, 5, 6, 7] {
            now = touch(&mut g, first_page_of_block(base, b), now);
        }
        // One fault in the second allocation forces eviction: victim
        // is block 1 of the first tree.
        let res = g.handle_fault(other.page(), now);
        // Block 1 evicted alone (no cascade at 7/8 valid).
        assert_eq!(res.evicted.len(), 16);
        assert_eq!(res.evicted[0].basic_block().index(), 1);
    }

    #[test]
    fn large_page_eviction_moves_2mb_as_one_transfer() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(2))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruLargePage),
        );
        let base = g.malloc_managed(Bytes::mib(4));
        let mut now = Cycle::ZERO;
        for i in 0..512 {
            now = touch(&mut g, base.page().add(i), now);
        }
        // Let the grace pin on the most recent migration expire.
        now += Duration::from_cycles(10_000);
        let res = g.handle_fault(base.page().add(512), now);
        assert_eq!(res.evicted.len(), 512);
        assert_eq!(g.write_stats().histogram.count(Bytes::mib(2)), 1);
    }

    #[test]
    fn access_frequency_eviction_keeps_hot_pages() {
        let mut g = Gmmu::new(oversub_config(EvictPolicy::AccessFrequency));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..256 {
            now = touch(&mut g, base.page().add(i), now);
        }
        // Re-touch every page except page 7: everything else has two
        // accesses, page 7 has one.
        for i in 0..256 {
            if i != 7 {
                now = touch(&mut g, base.page().add(i), now);
            }
        }
        now += Duration::from_cycles(10_000);
        // The next fault evicts the least-frequently-used page 7 —
        // NOT page 0, which LRU would pick.
        let res = g.handle_fault(base.page().add(256), now);
        assert_eq!(res.evicted, vec![base.page().add(7)]);
        assert!(g.is_resident(base.page()));
    }

    #[test]
    fn access_frequency_counts_reset_on_eviction() {
        let mut g = Gmmu::new(oversub_config(EvictPolicy::AccessFrequency));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        // Make page 0 hot, then force its eventual eviction by touching
        // everything else many times.
        for _ in 0..3 {
            now = touch(&mut g, base.page(), now);
        }
        for i in 1..257 {
            now = touch(&mut g, base.page().add(i), now);
            now = touch(&mut g, base.page().add(i), now);
            now = touch(&mut g, base.page().add(i), now);
            now = touch(&mut g, base.page().add(i), now);
        }
        assert!(!g.is_resident(base.page()), "page 0 eventually evicted");
        // Re-admitting starts the count cold: page 0 is immediately the
        // coldest page again.
        now += Duration::from_cycles(10_000);
        now = touch(&mut g, base.page(), now);
        let _ = now;
        assert!(g.stats().pages_thrashed > 0);
    }

    #[test]
    fn prefetch_kill_switch_on_oversubscription() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(1))
                .with_prefetch(PrefetchPolicy::SequentialLocal)
                .with_evict(EvictPolicy::LruPage)
                .with_disable_prefetch_on_oversubscription(true),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        // 16 block faults fill the 256-frame budget exactly.
        for b in 0..16 {
            now = touch(&mut g, first_page_of_block(base, b), now);
        }
        assert!(g.prefetch_disabled());
        let before = g.stats().pages_prefetched;
        let _ = touch(&mut g, first_page_of_block(base, 16), now);
        assert_eq!(g.stats().pages_prefetched, before, "no prefetch after full");
        assert_eq!(g.stats().pages_evicted, 1, "single 4 KB demand eviction");
    }

    #[test]
    fn free_page_buffer_disables_prefetch_early_and_keeps_frames_free() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(1))
                .with_prefetch(PrefetchPolicy::SequentialLocal)
                .with_evict(EvictPolicy::LruPage)
                .with_free_buffer_frac(0.10),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for b in 0..32 {
            now = touch(&mut g, first_page_of_block(base, b), now);
        }
        assert!(g.prefetch_disabled());
        // The buffer keeps ~10% of 256 frames free at fault time.
        assert!(g.capacity_frames() - g.resident_pages() >= 25);
        assert!(g.stats().pages_evicted > 0);
    }

    #[test]
    fn reservation_protects_top_of_lru() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(1))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruPage)
                .with_reserve_frac(0.10),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..256 {
            now = touch(&mut g, base.page().add(i), now);
        }
        // 10% of 256 = 25 pages reserved; the victim is page 25.
        let res = g.handle_fault(base.page().add(256), now);
        assert_eq!(res.evicted, vec![base.page().add(25)]);
        assert!(g.is_resident(base.page()));
    }

    #[test]
    fn thrashing_counts_re_migrations() {
        let mut g = Gmmu::new(oversub_config(EvictPolicy::LruPage));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        // Two linear sweeps over 512 pages with a 256-frame budget:
        // the second sweep re-migrates evicted pages.
        for _ in 0..2 {
            for i in 0..512 {
                now = touch(&mut g, base.page().add(i), now);
            }
        }
        assert!(g.stats().pages_thrashed > 0);
        assert!(g.stats().pages_thrashed <= g.stats().pages_evicted);
    }

    #[test]
    fn random_eviction_is_seeded_and_reproducible() {
        let run = |seed| {
            let mut g = Gmmu::new(oversub_config(EvictPolicy::RandomPage).with_rng_seed(seed));
            let base = g.malloc_managed(Bytes::mib(2));
            let mut now = Cycle::ZERO;
            for i in 0..300 {
                now = touch(&mut g, base.page().add(i), now);
            }
            g.stats().clone()
        };
        assert_eq!(run(7), run(7));
        assert_eq!(run(7).pages_evicted, 300 - 256);
    }

    #[test]
    fn ready_time_reports_in_flight_pages() {
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal));
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::ZERO);
        let (last_page, last_ready) = *res.ready.last().unwrap();
        // Immediately after the fault, the prefetched tail is in flight.
        assert_eq!(g.ready_time(last_page, Cycle::ZERO), Some(last_ready));
        // Once its transfer completes it is no longer in flight.
        assert_eq!(g.ready_time(last_page, last_ready), None);
    }

    #[test]
    fn with_policies_accepts_third_party_implementations() {
        // A custom prefetcher/evictor pair plugs into the mechanism
        // without any registry entry or enum variant: the seam the
        // policy layer exists for.
        #[derive(Clone, Debug)]
        struct NextPagePrefetcher;
        impl Prefetcher for NextPagePrefetcher {
            fn name(&self) -> &'static str {
                "next-page"
            }
            fn plan(
                &mut self,
                view: &ResidencyView<'_>,
                _rng: &mut SmallRng,
                page: PageId,
                alloc: AllocId,
            ) -> Vec<Vec<PageId>> {
                let next = page.add(1);
                if next.index() < view.alloc(alloc).end_page().index() && !view.is_valid(next) {
                    vec![vec![next]]
                } else {
                    Vec::new()
                }
            }
            fn box_clone(&self) -> Box<dyn Prefetcher> {
                Box::new(self.clone())
            }
        }
        #[derive(Clone, Debug)]
        struct HighestPageEvictor;
        impl Evictor for HighestPageEvictor {
            fn name(&self) -> &'static str {
                "highest-page"
            }
            fn is_pre_eviction(&self) -> bool {
                false
            }
            fn select_victims(
                &mut self,
                view: &ResidencyView<'_>,
                _rng: &mut SmallRng,
                t: Cycle,
                max_pin: u8,
            ) -> Option<Vec<Vec<PageId>>> {
                view.resident_iter()
                    .filter(|&p| view.pin_level(p, t) <= max_pin)
                    .max_by_key(|p| p.index())
                    .map(|p| vec![vec![p]])
            }
            fn box_clone(&self) -> Box<dyn Evictor> {
                Box::new(self.clone())
            }
        }

        let mut g = Gmmu::with_policies(
            UvmConfig::default().with_capacity(Bytes::mib(1)),
            Box::new(NextPagePrefetcher),
            Box::new(HighestPageEvictor),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::ZERO);
        assert_eq!(res.ready.len(), 2, "fault page + the next page");
        assert!(g.is_resident(base.page().add(1)));

        let mut now = Cycle::ZERO;
        for i in 0..256 {
            let p = base.page().add(i);
            if !g.is_resident(p) {
                now = g.handle_fault(p, now).fault_page_ready();
            }
            g.record_access(p, false);
        }
        now += Duration::from_cycles(10_000);
        let res = g.handle_fault(base.page().add(400), now);
        // The custom evictor always removes the highest resident page.
        assert_eq!(res.evicted, vec![base.page().add(255)]);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn fault_on_resident_page_panics() {
        let mut g = Gmmu::new(UvmConfig::default());
        let base = g.malloc_managed(Bytes::mib(2));
        g.handle_fault(base.page(), Cycle::ZERO);
        g.handle_fault(base.page(), Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "unmanaged")]
    fn fault_outside_allocations_panics() {
        let mut g = Gmmu::new(UvmConfig::default());
        g.handle_fault(PageId::new(1_000_000), Cycle::ZERO);
    }

    #[test]
    fn prefetch_trimmed_to_budget() {
        // A 1 MB budget with a 2 MB allocation: TBNp would love to pull
        // large chunks, but migrations never exceed the budget.
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(1))
                .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
                .with_evict(EvictPolicy::TreeBasedNeighborhood),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for b in 0..32 {
            now = touch(&mut g, first_page_of_block(base, b), now);
            assert!(g.resident_pages() <= g.capacity_frames());
        }
        assert!(g.stats().pages_evicted > 0);
    }

    /// The prefetch-budget contract for every registry prefetcher (and
    /// `learned` serving a trained table): at budgets 0, 1, 17 and
    /// unbounded, the mechanism-trimmed plan equals the trimmed
    /// unbounded plan, and the RNG's next draw and the policy's
    /// `save_state` bytes are the same as after an unbounded plan.
    #[test]
    fn prefetch_budget_contract() {
        fn trim(mut groups: Vec<Vec<PageId>>, budget: usize) -> Vec<Vec<PageId>> {
            let mut room = budget;
            for group in &mut groups {
                group.truncate(room);
                room -= group.len();
            }
            groups.retain(|g| !g.is_empty());
            groups
        }
        fn state_bytes(policy: &dyn Prefetcher) -> Vec<u8> {
            let mut w = uvm_types::codec::ByteWriter::new();
            policy.save_state(&mut w);
            w.into_bytes()
        }

        let registry = PolicyRegistry::global();
        let cfg = UvmConfig::default();
        let mut rng = SmallRng::seed_from_u64(0x00B0_D6E7);
        let mut checked = 0usize;
        for _ in 0..8 {
            // A random residency over a 2 MB-aligned and a ragged
            // allocation: scattered demand pages plus a few bulk copies
            // that leave whole blocks valid.
            let mut g = Gmmu::new(cfg.clone().with_prefetch(PrefetchPolicy::None));
            let ranges = [
                (g.malloc_managed(Bytes::mib(4)), 1024u64),
                (g.malloc_managed(Bytes::kib(2600)), 650),
            ];
            let random_page = |rng: &mut SmallRng| {
                let (base, pages) = ranges[rng.gen_range(0..ranges.len())];
                base.page().add(rng.gen_range(0..pages))
            };
            let target = rng.gen_range(0..1600u64);
            while g.resident_pages() < target {
                let p = random_page(&mut rng);
                if !g.is_resident(p) {
                    g.handle_fault(p, Cycle::ZERO);
                }
            }
            for _ in 0..rng.gen_range(0..4u64) {
                let (base, pages) = ranges[rng.gen_range(0..ranges.len())];
                let start = base.offset(Bytes::kib(4 * rng.gen_range(0..pages)));
                g.mem_prefetch_async(start, Bytes::kib(4 * rng.gen_range(1..200u64)), Cycle::ZERO);
            }

            // Markov and learned only predict along a learned stride:
            // warm both on one, and fault along it below.
            let (stride_base, _) = ranges[0];
            let stride: Vec<TraceRecord> = (0..48)
                .map(|k| TraceRecord {
                    kind: TraceKind::Fault,
                    cycle: k,
                    page: stride_base.page().index() + 3 * k,
                })
                .collect();
            let mut policies: Vec<Box<dyn Prefetcher>> = registry
                .prefetcher_names()
                .iter()
                .map(|name| {
                    registry
                        .build_prefetcher_spec(&name.parse().unwrap(), &cfg)
                        .unwrap()
                })
                .collect();
            policies.push(Box::new(LearnedPrefetcher::with_table(
                train_table(&stride, 2, 8),
                16,
            )));

            let faults: Vec<PageId> = (0..32)
                .map(|k| match k {
                    0..16 => stride_base.page().add(3 * k),
                    _ => random_page(&mut rng),
                })
                .filter(|&p| !g.is_resident(p))
                .collect();
            let alloc_of: Vec<AllocId> = faults
                .iter()
                .map(|&p| g.allocs.find_by_page(p).unwrap().id())
                .collect();
            let (view, _, _, _) = g.policy_view();
            for policy in &mut policies {
                for (&page, &alloc) in faults.iter().zip(&alloc_of) {
                    let mut full_rng = rng.clone();
                    let mut full_policy = policy.snapshot_box();
                    let full = full_policy.plan(
                        &view.with_prefetch_budget(usize::MAX),
                        &mut full_rng,
                        page,
                        alloc,
                    );
                    for group in &full {
                        assert!(group.iter().all(|&p| p != page && !view.is_valid(p)));
                    }
                    for budget in [0, 1, 17, usize::MAX] {
                        let mut budget_rng = rng.clone();
                        let mut budget_policy = policy.snapshot_box();
                        let plan = budget_policy.plan(
                            &view.with_prefetch_budget(budget),
                            &mut budget_rng,
                            page,
                            alloc,
                        );
                        let name = policy.name();
                        assert_eq!(
                            trim(plan, budget),
                            trim(full.clone(), budget),
                            "{name} plan, budget {budget}, fault {page}"
                        );
                        assert_eq!(
                            budget_rng.next_u64(),
                            full_rng.clone().next_u64(),
                            "{name} RNG, budget {budget}"
                        );
                        assert_eq!(
                            state_bytes(budget_policy.as_ref()),
                            state_bytes(full_policy.as_ref()),
                            "{name} state, budget {budget}"
                        );
                    }
                    checked += usize::from(!full.is_empty());
                    // Carry the unbounded outcome forward, so history
                    // planners see the fault stream build up.
                    *policy = full_policy;
                    rng = full_rng;
                }
            }
        }
        assert!(checked > 100, "only {checked} non-empty plans exercised");
    }

    #[test]
    fn congested_read_channel_suppresses_prefetch() {
        // Saturate the read channel with a user-directed bulk copy,
        // then fault: the prefetcher must stand down (demand-only)
        // until the backlog drains below the congestion cap.
        let mut g = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal));
        let big = g.malloc_managed(Bytes::mib(8));
        let other = g.malloc_managed(Bytes::mib(2));
        // ~8 MiB of transfers = ~730us of backlog at peak bandwidth.
        g.mem_prefetch_async(big, Bytes::mib(8), Cycle::ZERO);
        let res = g.handle_fault(other.page(), Cycle::ZERO);
        assert_eq!(res.ready.len(), 1, "no prefetch while congested");
        // Far in the future the backlog has drained: prefetch resumes.
        let later = Cycle::ZERO + Duration::from_micros(5_000.0);
        let res = g.handle_fault(other.page().add(16), later);
        assert_eq!(res.ready.len(), 16, "prefetch resumes when idle");
    }

    #[test]
    fn prefetch_accuracy_accounting_through_the_driver() {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::kib(128)) // 32 frames
                .with_prefetch(PrefetchPolicy::SequentialLocal)
                .with_evict(EvictPolicy::SequentialLocal),
        );
        let base = g.malloc_managed(Bytes::mib(1));
        let mut now = Cycle::ZERO;
        // Touch two pages per block (the fault page plus one
        // prefetched neighbour): 14 of 16 prefetched pages per block
        // are never accessed.
        for b in 0..4 {
            now = touch(&mut g, first_page_of_block(base, b), now);
            now = touch(&mut g, first_page_of_block(base, b).add(1), now);
        }
        now += Duration::from_cycles(10_000);
        // Force evictions of the untouched prefetched pages.
        for b in 4..6 {
            now = touch(&mut g, first_page_of_block(base, b), now);
            now += Duration::from_cycles(10_000);
        }
        let s = g.stats();
        assert!(s.prefetched_wasted > 0, "unused prefetched pages evicted");
        assert!(s.prefetched_used > 0, "accessed pages counted as used");
        assert!(s.prefetch_accuracy() < 1.0);
        // Clean write-backs: nothing was written, so every evicted page
        // was clean.
        assert_eq!(s.clean_pages_written_back, s.pages_evicted);
    }

    #[test]
    fn dirty_only_writeback_moves_fewer_bytes() {
        let run = |dirty_only: bool| {
            let mut g = Gmmu::new(
                UvmConfig::default()
                    .with_capacity(Bytes::kib(256))
                    .with_prefetch(PrefetchPolicy::SequentialLocal)
                    .with_evict(EvictPolicy::SequentialLocal)
                    .with_writeback_dirty_only(dirty_only),
            );
            let base = g.malloc_managed(Bytes::mib(1));
            let mut now = Cycle::ZERO;
            // Sweep 128 pages writing every fourth page, through a
            // 64-frame budget.
            for i in 0..128u64 {
                let p = base.page().add(i);
                if !g.is_resident(p) {
                    let res = g.handle_fault(p, now);
                    now = res.fault_page_ready() + Duration::from_cycles(3_000);
                }
                g.record_access(p, i % 4 == 0);
            }
            (g.write_stats().bytes, g.stats().pages_evicted)
        };
        let (bulk_bytes, bulk_evicted) = run(false);
        let (dirty_bytes, dirty_evicted) = run(true);
        assert_eq!(bulk_evicted, dirty_evicted, "same eviction decisions");
        assert_eq!(
            bulk_bytes,
            PAGE_SIZE * bulk_evicted,
            "bulk writes everything"
        );
        assert!(
            dirty_bytes.bytes() < bulk_bytes.bytes() / 2,
            "dirty-only writes ~1/4 of the pages ({dirty_bytes} vs {bulk_bytes})"
        );
    }

    #[test]
    fn driver_latency_is_45us() {
        let mut g = Gmmu::new(UvmConfig::default());
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::new(1000));
        assert_eq!(res.handled, Cycle::new(1000) + Duration::from_micros(45.0));
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use crate::fault::FaultPlan;

    /// Runs a small oversubscribed streaming scenario and returns the
    /// final driver stats plus read-channel retry/giveup counters.
    fn faulty_run(plan: FaultPlan) -> (UvmStats, u64, u64) {
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::kib(4 * 64)) // 64 frames
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruPage)
                .with_fault_plan(plan),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..128 {
            now = touch(&mut g, base.page().add(i), now);
        }
        let read = g.read_stats();
        (
            g.stats().clone(),
            read.retries + g.write_stats().retries,
            read.giveups + g.write_stats().giveups,
        )
    }

    #[test]
    fn inert_plan_is_byte_identical_to_no_plan() {
        // A plan with a seed but zero probabilities must not perturb
        // anything: no injection RNG is ever drawn.
        let (baseline, r0, g0) = faulty_run(FaultPlan::none());
        let (seeded, r1, g1) = faulty_run(FaultPlan::none().with_seed(0xABCD));
        assert_eq!(baseline, seeded);
        assert_eq!((r0, g0), (0, 0));
        assert_eq!((r1, g1), (0, 0));
        assert!(baseline.fault_injection.is_clean());
    }

    #[test]
    fn injected_faults_are_deterministic_per_seed() {
        let plan = FaultPlan::chaos().with_seed(7);
        let (a, ra, ga) = faulty_run(plan);
        let (b, rb, gb) = faulty_run(plan);
        assert_eq!(a, b);
        assert_eq!((ra, ga), (rb, gb));
        assert!(
            !a.fault_injection.is_clean(),
            "chaos over 128 faults must inject something: {:?}",
            a.fault_injection
        );
        // A different seed reshuffles the injections.
        let (c, _, _) = faulty_run(plan.with_seed(8));
        assert_ne!(a.fault_injection, c.fault_injection);
    }

    #[test]
    fn transfer_retries_surface_in_driver_stats() {
        let plan = FaultPlan::none().with_transfer_faults(0.5, 3, Duration::from_micros(5.0));
        let (stats, chan_retries, chan_giveups) = faulty_run(plan);
        assert!(stats.fault_injection.transfer_retries > 0);
        // The driver-side counters mirror the channel-side ones.
        assert_eq!(stats.fault_injection.transfer_retries, chan_retries);
        assert_eq!(stats.fault_injection.transfer_giveups, chan_giveups);
    }

    #[test]
    fn latency_jitter_extends_the_handling_window() {
        let plan = FaultPlan::none().with_latency_jitter(1.0).with_seed(3);
        let mut g = Gmmu::new(UvmConfig::default().with_fault_plan(plan));
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::ZERO);
        let jitter = g.stats().fault_injection.jitter_cycles;
        assert!(jitter > 0, "full jitter with this seed draws a nonzero u");
        assert_eq!(
            res.handled,
            Cycle::ZERO + g.config().fault_latency + Duration::from_cycles(jitter)
        );
    }

    #[test]
    fn migration_storm_replays_the_fault_until_the_budget_runs_out() {
        // Certain failure: every attempt fails, so the fault pays the
        // full replay budget and then gives up (the migration still
        // completes — the simulated world stays forward-progressing).
        let plan = FaultPlan::none().with_migration_faults(1.0, 2);
        let mut g = Gmmu::new(UvmConfig::default().with_fault_plan(plan));
        let base = g.malloc_managed(Bytes::mib(2));
        let res = g.handle_fault(base.page(), Cycle::ZERO);
        let fi = &g.stats().fault_injection;
        assert_eq!(fi.migration_retries, 2);
        assert_eq!(fi.migration_giveups, 1);
        // Base window + two replayed handling windows.
        assert_eq!(
            res.handled,
            Cycle::ZERO
                + g.config().fault_latency
                + g.config().fault_latency
                + g.config().fault_latency
        );
        assert!(g.is_resident(base.page()));
    }

    #[test]
    fn pressure_mode_forces_emergency_eviction() {
        // Certain pressure with a 25 % free-frame target: once the
        // 64-frame budget fills, every fault first bulk-evicts down to
        // 16 free frames before the demand path even runs.
        let plan = FaultPlan::none().with_pressure(1.0, 0.25);
        let mut g = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::kib(4 * 64))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruPage)
                .with_fault_plan(plan),
        );
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..80 {
            now = touch(&mut g, base.page().add(i), now);
        }
        let fi = &g.stats().fault_injection;
        assert!(fi.emergency_evictions > 0, "{fi:?}");
        assert!(g.capacity_frames() - g.resident_pages() >= 15);
        // Emergency victims are part of the per-fault evicted set (the
        // engine must shoot down their TLB entries), so the aggregate
        // eviction counter covers them.
        assert!(g.stats().pages_evicted >= fi.emergency_evictions);
    }

    #[test]
    fn pressure_mode_is_inert_without_a_capacity_budget() {
        let plan = FaultPlan::none().with_pressure(1.0, 0.25);
        let mut g = Gmmu::new(UvmConfig::default().with_fault_plan(plan));
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..16 {
            now = touch(&mut g, base.page().add(i), now);
        }
        assert_eq!(g.stats().fault_injection.emergency_evictions, 0);
        assert_eq!(g.stats().pages_evicted, 0);
    }

    /// Serializes `g`, restores the image into a fresh driver built
    /// from `cfg`, and asserts the restored driver re-serializes to the
    /// identical bytes (state equality through the codec's own lens).
    fn assert_state_round_trips(g: &mut Gmmu, cfg: UvmConfig) -> Gmmu {
        g.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        g.save_state(&mut w);
        let image = w.into_bytes();
        let mut restored = Gmmu::new(cfg);
        let mut r = uvm_types::codec::ByteReader::new(&image);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        restored.audit().unwrap();
        let mut w2 = uvm_types::codec::ByteWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(image, w2.into_bytes(), "restored driver diverges");
        restored
    }

    #[test]
    fn checkpoint_rejects_a_fault_trace_count_past_the_input() {
        let cfg = UvmConfig::default();
        let mut g = Gmmu::new(cfg.clone());
        g.malloc_managed(Bytes::mib(2));
        g.enable_fault_trace();
        let mut w = uvm_types::codec::ByteWriter::new();
        g.save_state(&mut w);
        let image = w.into_bytes();
        let mut stats = uvm_types::codec::ByteWriter::new();
        g.stats().save_state(&mut stats);
        // The (empty) fault trace sits just before the stats: tag 1,
        // count 0. Claim 2^60 entries instead.
        let at = image.len() - stats.len() - 1;
        assert_eq!(image[at - 1..=at], [1, 0]);
        let mut huge = uvm_types::codec::ByteWriter::new();
        huge.put_u64(1 << 60);
        let crafted = [&image[..at], huge.as_bytes(), &image[at + 1..]].concat();
        let err = Gmmu::new(cfg)
            .load_state(&mut uvm_types::codec::ByteReader::new(&crafted))
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::checkpoint::CheckpointError::Codec(
                    uvm_types::codec::CodecError::BadLength { .. }
                )
            ),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_round_trips_under_eviction_pressure() {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::mib(1))
            .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
            .with_evict(EvictPolicy::TreeBasedNeighborhood);
        let mut g = Gmmu::new(cfg.clone());
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for block in 0..32 {
            now = touch(&mut g, first_page_of_block(base, block), now);
        }
        assert!(g.stats().pages_evicted > 0);
        let mut restored = assert_state_round_trips(&mut g, cfg);
        // The restored driver continues identically to the original.
        let page = first_page_of_block(base, 7);
        assert_eq!(g.is_resident(page), restored.is_resident(page));
        let (a, b) = (touch(&mut g, page, now), touch(&mut restored, page, now));
        assert_eq!(a, b);
        assert_eq!(g.stats(), restored.stats());
    }

    #[test]
    fn checkpoint_round_trips_with_huge_pages_and_chaos() {
        let plan = FaultPlan::none()
            .with_migration_faults(0.2, 3)
            .with_pressure(0.1, 0.05);
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::mib(4))
            .with_prefetch(PrefetchPolicy::MosaicCoalesce)
            .with_evict(EvictPolicy::MosaicSplinter)
            .with_fault_plan(plan);
        let mut g = Gmmu::new(cfg.clone());
        let base = g.malloc_managed(Bytes::mib(8));
        let mut now = Cycle::ZERO;
        for i in 0..1024 {
            now = touch(&mut g, base.page().add(i % 700), now);
        }
        let mut restored = assert_state_round_trips(&mut g, cfg);
        for i in 0..32 {
            let page = base.page().add(600 + i);
            assert_eq!(
                touch(&mut g, page, now),
                touch(&mut restored, page, now),
                "divergence at post-restore access {i}"
            );
        }
        assert_eq!(g.stats(), restored.stats());
        restored.audit().unwrap();
    }

    #[test]
    fn checkpoint_restores_swapped_policies() {
        // A warm-up → measurement swap leaves the live specs different
        // from the construction-time config; the checkpoint must carry
        // the live pair.
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::mib(1))
            .with_prefetch(PrefetchPolicy::None)
            .with_evict(EvictPolicy::LruPage);
        let mut g = Gmmu::new(cfg.clone());
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for i in 0..64 {
            now = touch(&mut g, base.page().add(i), now);
        }
        g.swap_policies(
            PrefetchPolicy::SequentialLocal,
            EvictPolicy::SequentialLocal,
        );
        for i in 0..64 {
            now = touch(&mut g, base.page().add(256 + i), now);
        }
        let mut restored = assert_state_round_trips(&mut g, cfg);
        assert_eq!(
            restored.config().prefetch,
            PrefetchPolicy::SequentialLocal.into()
        );
        let page = base.page().add(400);
        assert_eq!(touch(&mut g, page, now), touch(&mut restored, page, now));
        assert_eq!(g.stats(), restored.stats());
    }

    #[test]
    fn audit_catches_a_planted_inconsistency() {
        let mut g = Gmmu::new(UvmConfig::default().with_capacity(Bytes::mib(1)));
        let base = g.malloc_managed(Bytes::mib(1));
        let mut now = Cycle::ZERO;
        for i in 0..8 {
            now = touch(&mut g, base.page().add(i), now);
        }
        g.audit().unwrap();
        // Tear one page out of the resident set behind the page table's
        // back: the cross-check must notice the disagreement.
        let victim = base.page().add(3);
        g.resident.remove(victim);
        let err = g.audit().unwrap_err();
        assert!(
            err.violations.iter().any(|v| v.contains("valid PTEs")),
            "{err}"
        );
    }

    /// One step of the seeded stream the group-transition tests drive.
    enum GroupStep {
        /// Admit these non-resident pages as one group.
        Validate(Vec<PageId>),
        /// Expel these resident pages as one group.
        Invalidate(Vec<PageId>),
        /// Access these resident pages (`true`: a write).
        Access(Vec<(PageId, bool)>),
    }

    /// Draws the next step over `span` pages from `base`: contiguous
    /// runs starting near a basic-block or large-page edge, A-B-A
    /// groups (two pages of one block around a page of the next large
    /// page), whole large pages, and accesses.
    fn group_step(
        rng: &mut SmallRng,
        base: PageId,
        span: u64,
        resident: impl Fn(PageId) -> bool,
    ) -> GroupStep {
        let want = rng.gen_bool(0.45);
        let pages: Vec<PageId> = match rng.gen_range(0..10u32) {
            0 | 1 => {
                let a = rng.gen_range(0..span - PAGES_PER_LARGE_PAGE) & !15;
                let b = a + PAGES_PER_LARGE_PAGE + rng.gen_range(0..16);
                [a + rng.gen_range(0..8), b, a + 8 + rng.gen_range(0..8)]
                    .into_iter()
                    .map(|k| base.add(k))
                    .filter(|&p| resident(p) == want)
                    .collect()
            }
            2..=5 => {
                let unit = if rng.gen_bool(0.5) {
                    PAGES_PER_LARGE_PAGE
                } else {
                    16
                };
                let edge = rng.gen_range(1..span / unit) * unit;
                let start = edge.saturating_sub(rng.gen_range(0..20));
                let len = rng.gen_range(1..80u64);
                (start..(start + len).min(span))
                    .map(|k| base.add(k))
                    .take_while(|&p| resident(p) == want)
                    .collect()
            }
            6 => {
                let lp = rng.gen_range(0..span / PAGES_PER_LARGE_PAGE) * PAGES_PER_LARGE_PAGE;
                (lp..lp + PAGES_PER_LARGE_PAGE)
                    .map(|k| base.add(k))
                    .filter(|&p| resident(p) == want)
                    .collect()
            }
            _ => {
                let mut accesses = Vec::new();
                for _ in 0..8 {
                    let p = base.add(rng.gen_range(0..span));
                    if resident(p) {
                        accesses.push((p, rng.gen_bool(0.3)));
                    }
                }
                return GroupStep::Access(accesses);
            }
        };
        if want {
            GroupStep::Invalidate(pages)
        } else {
            GroupStep::Validate(pages)
        }
    }

    /// The group-hook contract: for every registry evictor, an instance
    /// fed `on_validate_group`/`on_invalidate_group` ends every step in
    /// the same state as one fed the per-page loop. After each step of
    /// the seeded group stream, their `save_state` bytes and
    /// `select_victims` answers must match.
    #[test]
    fn evictor_group_hooks_match_per_page_loop() {
        fn state_bytes(policy: &dyn Evictor) -> Vec<u8> {
            let mut w = uvm_types::codec::ByteWriter::new();
            policy.save_state(&mut w);
            w.into_bytes()
        }

        let registry = PolicyRegistry::global();
        let names = registry.evictor_names();
        for name in ["LRU-4KB", "Re", "SLe", "TBNe", "LRU-2MB", "MOSe", "AFe"] {
            assert!(names.contains(&name), "registry lost {name}");
        }
        let cfg = UvmConfig::default();
        for name in names {
            let spec: PolicySpec = name.parse().unwrap();
            let mut grouped = registry.build_evictor_spec(&spec, &cfg).unwrap();
            let mut looped = registry.build_evictor_spec(&spec, &cfg).unwrap();
            // The driver only supplies residency for the views; its own
            // evictor is never consulted.
            let mut g = Gmmu::new(cfg.clone().with_prefetch(PrefetchPolicy::None));
            let base = g.malloc_managed(Bytes::mib(6)).page();
            let span = 3 * PAGES_PER_LARGE_PAGE;
            let mut rng = SmallRng::seed_from_u64(0x0006_E00F_9A6E);
            let mut policy_rng = SmallRng::seed_from_u64(7);
            for step in 0..400u64 {
                let now = Cycle::new(step * 500);
                match group_step(&mut rng, base, span, |p| g.is_resident(p)) {
                    GroupStep::Validate(pages) => {
                        let ready = now + Duration::from_cycles(rng.gen_range(0..4000));
                        g.admit_group(&pages, ready, rng.gen_bool(0.8));
                        grouped.on_validate_group(&pages);
                        for &p in &pages {
                            looped.on_validate(p);
                        }
                    }
                    GroupStep::Invalidate(pages) => {
                        g.expel_group(&pages);
                        grouped.on_invalidate_group(&pages);
                        for &p in &pages {
                            looped.on_invalidate(p);
                        }
                    }
                    GroupStep::Access(pages) => {
                        for (p, write) in pages {
                            g.record_access(p, write);
                            grouped.on_access(p);
                            looped.on_access(p);
                        }
                    }
                }
                assert_eq!(
                    state_bytes(grouped.as_ref()),
                    state_bytes(looped.as_ref()),
                    "{name} state after step {step}"
                );
                let (view, _, _, _) = g.policy_view();
                for max_pin in [PIN_NONE, PIN_SOFT] {
                    let mut rng_a = policy_rng.clone();
                    let mut rng_b = policy_rng.clone();
                    assert_eq!(
                        grouped.select_victims(&view, &mut rng_a, now, max_pin),
                        looped.select_victims(&view, &mut rng_b, now, max_pin),
                        "{name} victims after step {step}, max_pin {max_pin}"
                    );
                    assert_eq!(rng_a.next_u64(), rng_b.next_u64());
                }
                policy_rng.next_u64();
            }
            g.audit().unwrap();
        }
    }

    /// The mechanism half of the same contract: a driver admitting and
    /// expelling whole groups ends every step byte-identical (frames,
    /// free lists, regions, large-page counts, trees, statistics) to one
    /// handed each page as a group of one — the page-at-a-time path.
    /// Run under region placement with coalescing, so region release
    /// and forced splinters are exercised.
    #[test]
    fn group_transitions_match_single_page_groups() {
        fn state_bytes(g: &Gmmu) -> Vec<u8> {
            let mut w = uvm_types::codec::ByteWriter::new();
            g.save_state(&mut w);
            w.into_bytes()
        }

        let pairs = [
            (PrefetchPolicy::MosaicCoalesce, EvictPolicy::MosaicSplinter),
            (PrefetchPolicy::MosaicCoalesce, EvictPolicy::LruLargePage),
            (
                PrefetchPolicy::TreeBasedNeighborhood,
                EvictPolicy::TreeBasedNeighborhood,
            ),
        ];
        for (prefetch, evict) in pairs {
            let cfg = UvmConfig::default()
                .with_prefetch(prefetch)
                .with_evict(evict);
            let mut grouped = Gmmu::new(cfg.clone());
            let mut single = Gmmu::new(cfg);
            let base = grouped.malloc_managed(Bytes::mib(6)).page();
            single.malloc_managed(Bytes::mib(6));
            let span = 3 * PAGES_PER_LARGE_PAGE;
            let mut rng = SmallRng::seed_from_u64(0x5EED_6A0F);
            for step in 0..600u64 {
                let now = Cycle::new(step * 500);
                match group_step(&mut rng, base, span, |p| grouped.is_resident(p)) {
                    GroupStep::Validate(pages) => {
                        let prefetched = rng.gen_bool(0.8);
                        let ready: Vec<(PageId, Cycle)> = pages.iter().map(|&p| (p, now)).collect();
                        grouped.admit_group(&pages, now, prefetched);
                        grouped.promote_candidates(&ready);
                        for &p in &pages {
                            single.admit_group(&[p], now, prefetched);
                        }
                        single.promote_candidates(&ready);
                    }
                    GroupStep::Invalidate(pages) => {
                        grouped.expel_group(&pages);
                        for &p in &pages {
                            single.expel_group(&[p]);
                        }
                    }
                    GroupStep::Access(pages) => {
                        for (p, write) in pages {
                            grouped.record_access(p, write);
                            single.record_access(p, write);
                        }
                    }
                }
                grouped.sync_frame_stats();
                single.sync_frame_stats();
                assert_eq!(
                    state_bytes(&grouped),
                    state_bytes(&single),
                    "{prefetch:?}/{evict:?} state after step {step}"
                );
            }
            grouped.audit().unwrap();
            let huge = &grouped.stats().huge_pages;
            let (coalesces, forced) = (huge.coalesces, huge.forced_splinters);
            if prefetch == PrefetchPolicy::MosaicCoalesce {
                assert!(
                    coalesces > 0 && forced > 0,
                    "{coalesces} coalesces, {forced} forced"
                );
            }
        }
    }
}
