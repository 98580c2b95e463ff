//! Golden-fixture regression suite for the policy layer.
//!
//! One smoke-scale workload is simulated under every (paper prefetcher
//! × paper evictor) pair and the resulting driver statistics + kernel
//! times are compared *byte-for-byte* against committed JSON fixtures
//! under `tests/fixtures/`. The fixtures were generated before the
//! policies were extracted out of the `Gmmu` into the trait-based
//! policy layer, so a passing run proves the refactor preserved every
//! simulation outcome exactly — fault counts, eviction decisions,
//! transfer schedules, and timing. Every freshly simulated result must
//! also obey the driver's conservation laws
//! ([`common::assert_conservation_laws`]), which hold independently of
//! the fixtures.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! UVM_UPDATE_GOLDEN=1 cargo test -p uvm-sim --test golden_fixtures
//! ```

use std::fs;
use std::path::PathBuf;

use uvm_core::{EvictPolicy, PrefetchPolicy};
use uvm_sim::{run_workload, RunOptions, RunResult};
use uvm_workloads::Hotspot;

mod common;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The smoke-scale workload the fixtures pin down. Hotspot exercises
/// iterative re-touching (LRU order churn), multi-large-page footprints
/// (hierarchical ordering, 2 MB eviction), and tree rebalancing.
fn workload() -> Hotspot {
    Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    }
}

/// 110 % over-subscription so every evictor actually evicts; the
/// prefetcher stays enabled (the Fig. 11 pre-eviction setup).
fn options(prefetch: PrefetchPolicy, evict: EvictPolicy) -> RunOptions {
    RunOptions::default()
        .with_prefetch(prefetch)
        .with_evict(evict)
        .with_memory_frac(1.10)
}

/// Deterministic encoding of everything the fixtures assert on:
/// the full `UvmStats` projection of the run plus per-launch and
/// total kernel times in exact cycles.
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
    s.push_str(&format!("  \"write_bytes\": {}\n", r.write_bytes.bytes()));
    s.push_str("}\n");
    s
}

#[test]
fn golden_fixtures_match_for_every_paper_policy_pair() {
    let update = std::env::var("UVM_UPDATE_GOLDEN").is_ok();
    let dir = fixture_dir();
    if update {
        fs::create_dir_all(&dir).expect("create fixture dir");
    }
    let w = workload();
    let mut checked = 0usize;
    for prefetch in PrefetchPolicy::ALL {
        for evict in EvictPolicy::ALL {
            let r = run_workload(&w, options(prefetch, evict));
            common::assert_conservation_laws(&r, &format!("{prefetch}+{evict}"));
            let encoded = encode(&r);
            let path = dir.join(format!("hotspot_{prefetch}_{evict}.json"));
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
                    "{prefetch}+{evict}: simulation output drifted from the \
                     committed fixture {}",
                    path.display()
                );
            }
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        PrefetchPolicy::ALL.len() * EvictPolicy::ALL.len(),
        "every paper pair covered"
    );
}
