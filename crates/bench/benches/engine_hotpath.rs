//! Micro-benchmarks of the engine's per-run hot path: per-SM TLB
//! lookup/fill/invalidate, the eviction shootdown broadcast, the
//! resident-set sampling path, and the fig5-style end-to-end
//! single-run path.
//!
//! Run with `cargo bench -p uvm-bench --bench engine_hotpath`; set
//! `UVM_BENCH_JSON=BENCH_engine.json` to also emit the JSON report the
//! CI `perf-smoke` job tracks.

use std::hint::black_box;

use uvm_bench::harness::Bench;
use uvm_core::{EvictPolicy, PrefetchPolicy};
use uvm_mem::{ShootdownDirectory, Tlb};
use uvm_sim::{run_workload, RunOptions};
use uvm_types::PageId;
use uvm_workloads::Hotspot;

/// Paper Table 2 scale: 28 SMs, 64-entry fully associative TLBs.
const NUM_SMS: usize = 28;
const TLB_ENTRIES: usize = 64;

/// 4096 pseudo-random resident pages (xorshift), for scattered-hit
/// patterns.
fn hit_pattern() -> Vec<PageId> {
    let mut state = 0x9e37_79b9u64;
    (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            PageId::new(state % TLB_ENTRIES as u64)
        })
        .collect()
}

fn full_tlb() -> Tlb {
    let mut tlb = Tlb::new(TLB_ENTRIES);
    for i in 0..TLB_ENTRIES as u64 {
        tlb.fill(PageId::new(i));
    }
    tlb
}

fn bench_tlb(b: &Bench) {
    // Hit path, in recency order: each hit lands at the LRU front —
    // the scan's best case.
    let mut tlb = full_tlb();
    let mut i = 0u64;
    b.bench("tlb/lookup_hit_64_mru_order", || {
        let hit = tlb.lookup(PageId::new(i % TLB_ENTRIES as u64));
        i += 1;
        black_box(hit);
    });

    // Hit path, scattered: pseudo-random touches land all over the
    // recency list (the average case of real kernels, ~capacity/2
    // scanned). The pattern table is precomputed so both TLB
    // representations pay the same driver overhead.
    let mut tlb = full_tlb();
    let pattern = hit_pattern();
    let mut i = 0usize;
    b.bench("tlb/lookup_hit_64_scattered", || {
        let hit = tlb.lookup(pattern[i % pattern.len()]);
        i += 1;
        black_box(hit);
    });

    // Miss path: probe pages that are never resident.
    let mut tlb = full_tlb();
    let mut i = 0u64;
    b.bench("tlb/lookup_miss_64", || {
        let miss = tlb.lookup(PageId::new(1000 + (i % 1024)));
        i += 1;
        black_box(miss);
    });

    // Fill at capacity: every fill evicts the LRU entry.
    let mut tlb = full_tlb();
    let mut i = 0u64;
    b.bench("tlb/fill_evict_64", || {
        tlb.fill(PageId::new(100 + (i % 1024)));
        i += 1;
    });

    // Shootdown steady state with a *representative* holder density.
    // SM `s` caches the 64-page window starting at page 32*s, so every
    // interior page is held by exactly two SMs — matching the ~0-2
    // holders per evicted page the engine actually sees (each SM's
    // 64-entry TLB covers a sliver of a multi-thousand-page working
    // set; the previous setup filled the *same* 64 pages into all 28
    // TLBs and therefore timed a 14-holder drain that never occurs in
    // a run).
    let windowed_tlbs = || -> Vec<Tlb> {
        (0..NUM_SMS)
            .map(|s| {
                let mut tlb = Tlb::new(TLB_ENTRIES);
                for p in 0..TLB_ENTRIES as u64 {
                    tlb.fill(PageId::new(32 * s as u64 + p));
                }
                tlb
            })
            .collect()
    };
    // Interior pages (two holders): [64, 32 * NUM_SMS).
    let span = 32 * NUM_SMS as u64 - 64;
    let holders_of = |page: u64| [page / 32 - 1, page / 32];

    // Generation bump + targeted drain over the holder set, then the
    // true holders refill so state stays in a steady cycle.
    let mut tlbs = windowed_tlbs();
    let mut dir = ShootdownDirectory::new(NUM_SMS);
    for (s, _) in tlbs.iter().enumerate() {
        for p in 0..TLB_ENTRIES as u64 {
            dir.note_fill(PageId::new(32 * s as u64 + p), s);
        }
    }
    let mut i = 0u64;
    b.bench("tlb/shootdown_directory_28sms", || {
        let page = 64 + i % span;
        dir.bump(PageId::new(page));
        dir.drain_holders(PageId::new(page), |s| {
            tlbs[s].invalidate(PageId::new(page));
        });
        for s in holders_of(page) {
            tlbs[s as usize].fill(PageId::new(page));
            dir.note_fill(PageId::new(page), s as usize);
        }
        i += 1;
    });
}

/// The evictor sampling path: the resident set under migration/
/// eviction churn with random victim draws — the random evictor's
/// steady state at over-subscription, on the bitmap-backed
/// [`IndexedPageSet`].
fn bench_resident_set(b: &Bench) {
    use uvm_core::IndexedPageSet;
    use uvm_types::rng::SmallRng;

    /// 64 Ki resident pages (a 256 MB device at 4 KB), then churn:
    /// per step evict one random victim and admit one fresh page,
    /// drawing `samples` candidate victims per step like the
    /// max-pin retry loop does.
    const RESIDENT: u64 = 64 * 1024;
    const STEPS: u64 = 4 * 1024;
    const DRAWS: usize = 4;

    b.bench("resident/indexed_churn_sample_64k", || {
        let mut set = IndexedPageSet::default();
        for p in 0..RESIDENT {
            set.insert(PageId::new(p));
        }
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for next in RESIDENT..RESIDENT + STEPS {
            let mut victim = set.sample(&mut rng).expect("set is never empty");
            for _ in 1..DRAWS {
                victim = set.sample(&mut rng).expect("set is never empty");
            }
            set.remove(victim);
            set.insert(PageId::new(next));
        }
        black_box(set.len());
    });
}

/// End-to-end single-run path (the floor under every figure binary):
/// the golden-fixture hotspot workload at 110 % over-subscription.
fn bench_single_run(b: &Bench) {
    let w = Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    };
    let opts = || {
        RunOptions::default()
            .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
            .with_evict(EvictPolicy::LruPage)
            .with_memory_frac(1.10)
    };
    b.bench("engine/single_run_hotspot_tbnp_lru4k", || {
        black_box(run_workload(&w, opts()));
    });

    let opts_slp = || {
        RunOptions::default()
            .with_prefetch(PrefetchPolicy::SequentialLocal)
            .with_evict(EvictPolicy::SequentialLocal)
            .with_memory_frac(1.10)
    };
    b.bench("engine/single_run_hotspot_slp_sle", || {
        black_box(run_workload(&w, opts_slp()));
    });
}

fn main() {
    let b = Bench::from_args();
    bench_tlb(&b);
    bench_resident_set(&b);
    bench_single_run(&b);
    b.write_json_from_env("engine_hotpath")
        .expect("write bench JSON report");
}
