//! Huge-page policy ablation: the Mosaic-style coalescing pair
//! (MOSp + MOSe) against the paper's best combination (TBNp + TBNe)
//! and static 2 MB LRU eviction, swept over over-subscription levels
//! in steady state (every cell forks from a shared warm-up snapshot).
//!
//! ```sh
//! cargo run --release -p uvm-bench --bin ablation_huge_pages -- --smoke
//! cargo run --release -p uvm-bench --bin ablation_huge_pages -- \
//!     --smoke --oversub 1.25
//! ```
//!
//! Reports far-faults per kilo-access (the Mosaic headline metric),
//! kernel time, and the huge-page mechanism counters (coalesces,
//! splinters, allocator splits/merges) for the MOSp+MOSe cells.
//! Without `--oversub` the sweep covers
//! [`HUGE_PAGE_OVERSUB`].

use uvm_bench::{config_from_args, emit};
use uvm_sim::experiments::{huge_page_ablation, HUGE_PAGE_OVERSUB};
use uvm_sim::Warmup;

fn main() -> std::process::ExitCode {
    let cfg = config_from_args();
    let oversubs: Vec<f64> = match cfg.oversub {
        Some(frac) => vec![frac],
        None => HUGE_PAGE_OVERSUB.to_vec(),
    };
    let t = huge_page_ablation(&cfg.executor(), cfg.scale, Warmup::default(), &oversubs);
    uvm_bench::finish(
        emit("ablation_huge_pages_faults_per_kilo", &t.faults_per_kilo)
            .and_then(|()| emit("ablation_huge_pages_time", &t.time))
            .and_then(|()| emit("ablation_huge_pages_activity", &t.activity)),
    )
}
