//! Golden-fixture suite for the Mosaic-style huge-page policy pair.
//!
//! The smoke-scale hotspot workload is simulated under MOSp/MOSe —
//! cold, warmed (forked from the shared TBNp+LRU-4KB warm-up the
//! sweep executor uses), and cross-paired with the paper policies —
//! and the resulting statistics, including the huge-page mechanism
//! counters (coalesces, splinters, allocator splits/merges), are
//! compared byte-for-byte against committed JSON fixtures under
//! `tests/fixtures/`. A passing run pins the whole promote/demote
//! pipeline: contiguous placement, coalesce timing, splinter-before-
//! evict, and the huge-TLB fast path. Every freshly simulated result
//! must also obey the driver's conservation laws
//! ([`common::assert_conservation_laws`]).
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! UVM_UPDATE_GOLDEN=1 cargo test -p uvm-sim --test huge_page_fixtures
//! ```

use std::fs;
use std::path::PathBuf;

use uvm_core::{EvictPolicy, PrefetchPolicy};
use uvm_sim::{run_workload, RunOptions, RunResult, Warmup};
use uvm_workloads::Hotspot;

mod common;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// Same smoke-scale workload as the paper-policy golden fixtures:
/// iterative re-touching over a multi-large-page footprint, so the
/// coalescer sees fully-resident 2 MB spans and eviction pressure
/// forces splinters.
fn workload() -> Hotspot {
    Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    }
}

/// The cells this suite pins: the Mosaic pair cold and warmed, plus
/// each Mosaic policy cross-paired with its paper counterpart (those
/// exercise coalescing-without-splintering and vice versa).
fn cells() -> [(&'static str, PrefetchPolicy, EvictPolicy, Option<Warmup>); 4] {
    [
        (
            "cold",
            PrefetchPolicy::MosaicCoalesce,
            EvictPolicy::MosaicSplinter,
            None,
        ),
        (
            "warmed",
            PrefetchPolicy::MosaicCoalesce,
            EvictPolicy::MosaicSplinter,
            Some(Warmup::default()),
        ),
        (
            "cold",
            PrefetchPolicy::MosaicCoalesce,
            EvictPolicy::TreeBasedNeighborhood,
            None,
        ),
        (
            "cold",
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::MosaicSplinter,
            None,
        ),
    ]
}

/// The paper-fixture encoding extended with the access denominator
/// and every huge-page mechanism counter.
fn encode(r: &RunResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"name\": \"{}\",\n", r.name));
    s.push_str(&format!(
        "  \"total_time_cycles\": {},\n",
        r.total_time.cycles()
    ));
    let kt: Vec<String> = r
        .kernel_times
        .iter()
        .map(|t| t.cycles().to_string())
        .collect();
    s.push_str(&format!(
        "  \"kernel_times_cycles\": [{}],\n",
        kt.join(", ")
    ));
    s.push_str(&format!("  \"accesses\": {},\n", r.accesses));
    s.push_str(&format!("  \"far_faults\": {},\n", r.far_faults));
    s.push_str(&format!("  \"pages_migrated\": {},\n", r.pages_migrated));
    s.push_str(&format!(
        "  \"pages_prefetched\": {},\n",
        r.pages_prefetched
    ));
    s.push_str(&format!("  \"pages_evicted\": {},\n", r.pages_evicted));
    s.push_str(&format!("  \"pages_thrashed\": {},\n", r.pages_thrashed));
    s.push_str(&format!("  \"prefetched_used\": {},\n", r.prefetched_used));
    s.push_str(&format!(
        "  \"prefetched_wasted\": {},\n",
        r.prefetched_wasted
    ));
    s.push_str(&format!(
        "  \"clean_pages_written_back\": {},\n",
        r.clean_pages_written_back
    ));
    s.push_str(&format!(
        "  \"read_transfers_4k\": {},\n",
        r.read_transfers_4k
    ));
    s.push_str(&format!("  \"read_transfers\": {},\n", r.read_transfers));
    s.push_str(&format!("  \"read_bytes\": {},\n", r.read_bytes.bytes()));
    s.push_str(&format!("  \"write_bytes\": {},\n", r.write_bytes.bytes()));
    let hp = &r.huge_pages;
    s.push_str(&format!("  \"hp_coalesces\": {},\n", hp.coalesces));
    s.push_str(&format!("  \"hp_splinters\": {},\n", hp.splinters));
    s.push_str(&format!(
        "  \"hp_forced_splinters\": {},\n",
        hp.forced_splinters
    ));
    s.push_str(&format!("  \"hp_alloc_splits\": {},\n", hp.alloc_splits));
    s.push_str(&format!("  \"hp_alloc_merges\": {},\n", hp.alloc_merges));
    s.push_str(&format!(
        "  \"hp_regions_reserved\": {},\n",
        hp.regions_reserved
    ));
    s.push_str(&format!("  \"hp_region_steals\": {}\n", hp.region_steals));
    s.push_str("}\n");
    s
}

#[test]
fn huge_page_fixtures_match() {
    let update = std::env::var("UVM_UPDATE_GOLDEN").is_ok();
    let dir = fixture_dir();
    if update {
        fs::create_dir_all(&dir).expect("create fixture dir");
    }
    let w = workload();
    for (label, prefetch, evict, warmup) in cells() {
        let mut opts = RunOptions::default()
            .with_prefetch(prefetch)
            .with_evict(evict)
            .with_memory_frac(1.10);
        if let Some(warmup) = warmup {
            opts = opts.with_warmup(warmup);
        }
        let r = run_workload(&w, opts);
        common::assert_conservation_laws(&r, &format!("{prefetch}+{evict} ({label})"));
        // Liveness: the cold Mosaic pair must actually promote.
        // Warmed runs inherit the warm-up's fragmented frame pool
        // (scattered LRU-4KB holes, no free 2 MB region at capacity),
        // so zero coalesces there is the *correct* physical outcome —
        // exactly the fragmentation argument for allocator cooperation
        // from first touch; DESIGN.md §9 discusses the asymmetry.
        if label == "cold"
            && prefetch == PrefetchPolicy::MosaicCoalesce
            && evict == EvictPolicy::MosaicSplinter
        {
            assert!(
                r.huge_pages.coalesces > 0,
                "{label}: MOSp+MOSe never promoted a huge page — the \
                 mechanism is dead and the fixture would pin a no-op"
            );
        }
        let encoded = encode(&r);
        let path = dir.join(format!("hotspot_huge_{prefetch}_{evict}_{label}.json"));
        if update {
            fs::write(&path, &encoded).expect("write fixture");
        } else {
            let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing fixture {} ({e}); run with UVM_UPDATE_GOLDEN=1 \
                     to generate",
                    path.display()
                )
            });
            assert_eq!(
                committed,
                encoded,
                "{prefetch}+{evict} ({label}): simulation output drifted \
                 from the committed fixture {}",
                path.display()
            );
        }
    }
}

/// The huge-page counters stay exactly zero for every paper policy
/// pair: the mechanism must be unobservable unless a Mosaic policy is
/// selected (this is what keeps the 20 paper fixtures byte-identical).
#[test]
fn paper_policies_never_touch_the_huge_page_machinery() {
    let w = workload();
    for prefetch in [PrefetchPolicy::None, PrefetchPolicy::TreeBasedNeighborhood] {
        for evict in [EvictPolicy::LruPage, EvictPolicy::LruLargePage] {
            let r = run_workload(
                &w,
                RunOptions::default()
                    .with_prefetch(prefetch)
                    .with_evict(evict)
                    .with_memory_frac(1.10),
            );
            common::assert_conservation_laws(&r, &format!("{prefetch}+{evict}"));
            assert!(
                r.huge_pages.is_clean(),
                "{prefetch}+{evict}: huge-page counters moved: {:?}",
                r.huge_pages
            );
        }
    }
}
