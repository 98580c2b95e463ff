//! Micro-benchmarks of the core mechanisms: tree balancing, LRU
//! bookkeeping, the PCI-e cost model, the GMMU frame-lookup hot path,
//! the buddy frame allocator's split/merge and region cycles, and
//! end-to-end fault servicing through the GMMU.
//!
//! Run with `cargo bench -p uvm-bench --bench microbench`; an optional
//! bare argument filters cases by substring. Set
//! `UVM_BENCH_JSON=BENCH_engine.json` to fold the results into the
//! committed report next to `engine_hotpath`'s (the harness merges
//! by case name rather than overwriting).

use std::hint::black_box;

use uvm_bench::harness::Bench;
use uvm_core::{
    AllocTree, EvictPolicy, Gmmu, HierarchicalLru, LruQueue, PrefetchPolicy, UvmConfig,
};
use uvm_interconnect::PcieModel;
use uvm_types::{BasicBlockId, Bytes, Cycle, PageId, TreeExtent, PAGE_SIZE};

fn bench_tree(b: &Bench) {
    let extent = TreeExtent {
        first_block: BasicBlockId::new(0),
        num_blocks: 32,
    };

    let mut tree = AllocTree::new(extent);
    for i in 0..16 {
        tree.fill_block(BasicBlockId::new(i));
    }
    b.bench("tree/plan_prefetch_half_full_2mb", || {
        black_box(black_box(&tree).plan_prefetch(black_box(BasicBlockId::new(16))));
    });
    b.bench("tree/plan_eviction_half_full_2mb", || {
        black_box(black_box(&tree).plan_eviction(black_box(BasicBlockId::new(0))));
    });

    let mut tree = AllocTree::new(extent);
    b.bench("tree/fill_clear_block", || {
        tree.fill_block(BasicBlockId::new(7));
        tree.clear_block(BasicBlockId::new(7));
    });
}

fn bench_lru(b: &Bench) {
    let mut q = LruQueue::new();
    for i in 0..10_000u64 {
        q.touch(PageId::new(i));
    }
    let mut i = 0u64;
    b.bench("lru/queue_touch_10k", || {
        q.touch(PageId::new(i % 10_000));
        i += 1;
    });

    // Steady state: a prebuilt residency of 4 large pages (2048 pages,
    // 128 blocks). Each iteration replaces one page, touches another,
    // and re-picks a candidate past a 20%-style reservation — the
    // TBN-family per-eviction pattern. (The previous version rebuilt
    // the whole 512-page hierarchy inside the timed closure, so it
    // measured bulk construction, not the per-eviction cost.)
    let mut h = HierarchicalLru::new();
    for i in 0..2048u64 {
        h.on_validate(PageId::new(i));
    }
    let mut i = 0u64;
    b.bench("lru/hier_validate_access_candidate", || {
        h.on_invalidate_page(PageId::new(i % 2048));
        h.on_validate(PageId::new(i % 2048));
        h.on_access(PageId::new((i * 7) % 2048));
        i += 1;
        black_box(h.candidate(409, |_| true));
    });
}

fn bench_pcie(b: &Bench) {
    let model = PcieModel::pascal_x16();
    b.bench("pcie_transfer_time", || {
        for kb in [4u64, 16, 64, 256, 1024] {
            black_box(model.transfer_time(Bytes::kib(kb)));
        }
    });
}

/// The per-access hot path the dense page-indexed tables optimise:
/// every simulated GPU memory access funnels through `is_resident`
/// (frame table probe) and `record_access` (ready-time + first-touch
/// bookkeeping). All pages are resident, so this isolates the lookup
/// cost from migration.
fn bench_gmmu_lookup(b: &Bench) {
    let mut gmmu =
        Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::TreeBasedNeighborhood));
    let base = gmmu.malloc_managed(Bytes::mib(16));
    let pages = Bytes::mib(16).pages_ceil();
    let mut now = Cycle::ZERO;
    for block in 0..pages / 16 {
        let page = base.page().add(block * 16);
        if !gmmu.is_resident(page) {
            let res = gmmu.handle_fault(page, now);
            now = res.fault_page_ready();
        }
    }
    b.bench("gmmu/frame_lookup_4k_resident_pages", || {
        let mut resident = 0u64;
        for i in 0..pages {
            let page = base.page().add(i);
            if gmmu.is_resident(page) {
                resident += 1;
            }
            gmmu.record_access(page, false);
        }
        black_box(resident);
    });
}

/// The GMMU's dense page-indexed frame table (`DensePageMap`),
/// probing a 4096-page resident set for hits and misses.
fn bench_frame_table(b: &Bench) {
    use uvm_core::DensePageMap;
    use uvm_mem::{FrameAllocator, FrameId};

    let pages = 4096u64;
    let mut frames = FrameAllocator::new(PAGE_SIZE * pages);
    let mut dense: DensePageMap<FrameId> = DensePageMap::new();
    for i in 0..pages {
        let f = frames.allocate().expect("within budget");
        dense.insert(PageId::new(i), f);
    }
    b.bench("frame_table/dense_probe_4k", || {
        let mut hits = 0u64;
        for i in 0..2 * pages {
            if dense.get(PageId::new(i)).is_some() {
                hits += 1;
            }
        }
        black_box(hits);
    });
}

/// The buddy frame allocator's contiguity machinery (DESIGN.md §9):
/// the legacy single-frame path every non-Mosaic policy stays on, the
/// order-4 split/merge cycle, and the 2 MB region reserve → carve →
/// release cycle backing MOSp's contiguous placement.
fn bench_frame_alloc(b: &Bench) {
    use uvm_mem::FrameAllocator;
    use uvm_types::BASIC_BLOCK_ORDER;

    const FRAMES: u64 = 4096; // eight 2 MB regions

    // Steady-state single-frame churn: LIFO pop + push.
    let mut alloc = FrameAllocator::with_frames(FRAMES);
    b.bench("frames/alloc_free_single", || {
        let f = alloc.allocate().expect("within budget");
        alloc.free(f).expect("just allocated");
    });

    // Split/merge cycle: carving a 64 KB block out of a free 2 MB
    // buddy splits five levels down; freeing it merges five levels
    // back up, restoring the order-9 block for the next iteration.
    let mut alloc = FrameAllocator::with_frames(FRAMES);
    let base = alloc.reserve_region().expect("capacity for a region");
    alloc.release_region(base); // park a free order-9 block
    b.bench("frames/split_merge_64k_of_2mb", || {
        let block = alloc
            .allocate_block(BASIC_BLOCK_ORDER)
            .expect("order-9 block is free");
        alloc
            .free_block(block, BASIC_BLOCK_ORDER)
            .expect("just allocated");
    });

    // MOSp's placement cycle: soft-reserve a 2 MB region, carve all
    // 512 frames page-by-page, free them back into the region mask,
    // and release (a fully-free release recycles the order-9 block).
    let mut alloc = FrameAllocator::with_frames(FRAMES);
    let mut held = Vec::with_capacity(512);
    b.bench("frames/region_reserve_carve_release_2mb", || {
        let base = alloc.reserve_region().expect("capacity for a region");
        for off in 0..512u64 {
            held.push(alloc.allocate_in_region(base, off).expect("slot is free"));
        }
        for f in held.drain(..) {
            alloc.free(f).expect("just allocated");
        }
        alloc.release_region(base);
    });
}

fn bench_gmmu_faults(b: &Bench) {
    b.bench("gmmu/fault_tbnp_no_budget", || {
        let mut gmmu =
            Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::TreeBasedNeighborhood));
        let base = gmmu.malloc_managed(Bytes::mib(8));
        let mut now = Cycle::ZERO;
        for block in 0..64u64 {
            let page = base.page().add(block * 16);
            if !gmmu.is_resident(page) {
                let res = gmmu.handle_fault(page, now);
                now = res.fault_page_ready();
            }
            gmmu.record_access(page, false);
        }
        black_box(gmmu.stats().pages_migrated);
    });

    b.bench("gmmu/fault_with_tbne_eviction", || {
        let mut gmmu = Gmmu::new(
            UvmConfig::default()
                .with_capacity(Bytes::mib(2))
                .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
                .with_evict(EvictPolicy::TreeBasedNeighborhood),
        );
        let base = gmmu.malloc_managed(Bytes::mib(4));
        let mut now = Cycle::ZERO;
        for block in 0..64u64 {
            let page = base.page().add(block * 16);
            if !gmmu.is_resident(page) {
                let res = gmmu.handle_fault(page, now);
                now = res.fault_page_ready();
            }
            gmmu.record_access(page, false);
        }
        black_box(gmmu.stats().pages_evicted);
    });

    // Over-subscription's common case (paper Secs. 4.2 and 5): the
    // device is full, so LRU-4KB frees exactly one frame per fault and
    // TBNp's prefetch budget is 0. A sweep over an allocation four
    // times the device misses on every page once two laps have filled
    // the device; the set-up runs those laps and checks that each
    // fault then migrates and evicts exactly one page.
    let mut gmmu = Gmmu::new(
        UvmConfig::default()
            .with_capacity(Bytes::mib(1))
            .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
            .with_evict(EvictPolicy::LruPage),
    );
    let base = gmmu.malloc_managed(Bytes::mib(4));
    let pages = Bytes::mib(4).pages_ceil();
    let mut now = Cycle::ZERO;
    let mut next = 0u64;
    let mut fault_next = |gmmu: &mut Gmmu| {
        let page = base.page().add(next % pages);
        next += 1;
        if !gmmu.is_resident(page) {
            let res = gmmu.handle_fault(page, now);
            now = res.fault_page_ready();
        }
        gmmu.record_access(page, false);
    };
    for _ in 0..2 * pages {
        fault_next(&mut gmmu);
    }
    let before = gmmu.stats().clone();
    for _ in 0..64 {
        fault_next(&mut gmmu);
    }
    let after = gmmu.stats();
    assert_eq!(after.far_faults - before.far_faults, 64);
    assert_eq!(after.pages_migrated - before.pages_migrated, 64);
    assert_eq!(after.pages_evicted - before.pages_evicted, 64);
    b.bench("gmmu/fault_tbnp_lru4k_full_device", || {
        for _ in 0..64 {
            fault_next(&mut gmmu);
        }
        black_box(gmmu.stats().pages_evicted);
    });

    // The 2 MB eviction path (paper Sec. 7.5): a 4-large-page device
    // under a sweep four times its size, TBNp filling each large page
    // and LRU-2MB writing back a whole cold large page at a time. Each
    // iteration sweeps one large page's worth of pages; the set-up
    // runs two laps and checks that every eviction then expels 512
    // pages.
    let mut gmmu = Gmmu::new(
        UvmConfig::default()
            .with_capacity(Bytes::mib(8))
            .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
            .with_evict(EvictPolicy::LruLargePage),
    );
    let base = gmmu.malloc_managed(Bytes::mib(32));
    let pages = Bytes::mib(32).pages_ceil();
    let mut now = Cycle::ZERO;
    let mut next = 0u64;
    let mut sweep_large_page = |gmmu: &mut Gmmu| {
        for _ in 0..512 {
            let page = base.page().add(next % pages);
            next += 1;
            if !gmmu.is_resident(page) {
                let res = gmmu.handle_fault(page, now);
                now = res.fault_page_ready();
            }
            gmmu.record_access(page, false);
        }
    };
    for _ in 0..2 * pages / 512 {
        sweep_large_page(&mut gmmu);
    }
    let before = gmmu.stats().clone();
    for _ in 0..pages / 512 {
        sweep_large_page(&mut gmmu);
    }
    let after = gmmu.stats();
    let evictions = after.evictions - before.evictions;
    assert!(evictions > 0, "the sweep must evict");
    assert_eq!(after.pages_evicted - before.pages_evicted, 512 * evictions);
    b.bench("gmmu/fault_tbnp_lru2mb_full_device", || {
        sweep_large_page(&mut gmmu);
        black_box(gmmu.stats().pages_evicted);
    });
}

fn main() {
    let b = Bench::from_args();
    bench_tree(&b);
    bench_lru(&b);
    bench_pcie(&b);
    bench_gmmu_lookup(&b);
    bench_frame_table(&b);
    bench_frame_alloc(&b);
    bench_gmmu_faults(&b);
    b.write_json_from_env("microbench")
        .expect("write bench JSON report");
}
