//! Synthetic, access-pattern-faithful versions of the seven benchmarks
//! the paper evaluates (Sec. 6.2, from Rodinia and PolyBench).
//!
//! The paper characterises each benchmark purely by its page-access
//! behaviour — streaming, random, iterative stencil with reuse,
//! diagonal wavefront, and so on — and explains every result in those
//! terms (Sec. 7). Each module here reproduces one benchmark's
//! published pattern class at a paper-scale footprint (4–38.5 MB,
//! average ≈ 15.5 MB), with the same grid/thread-block structure and
//! iterative kernel-launch shape:
//!
//! | Benchmark   | Pattern (paper's description)                                    |
//! |-------------|------------------------------------------------------------------|
//! | `backprop`  | streaming scan, no reuse across iterations                        |
//! | `pathfinder`| streaming row-by-row wavefront, no reuse                          |
//! | `bfs`       | random page accesses, reuse across frontier iterations            |
//! | `hotspot`   | iterative dense stencil, whole working set reused every iteration |
//! | `srad`      | iterative multi-array stencil, heavy reuse                        |
//! | `gaussian`  | shrinking active region, strong early reuse                       |
//! | `nw`        | sparse-but-localized diagonal wavefront, 127 iterations           |
//!
//! # Examples
//!
//! ```
//! use uvm_workloads::{standard_suite, Workload};
//! use uvm_types::Bytes;
//!
//! let suite = standard_suite();
//! assert_eq!(suite.len(), 7);
//! let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
//! assert!(names.contains(&"nw"));
//! ```

mod backprop;
mod bfs;
mod gaussian;
mod hotspot;
mod micro;
mod nw;
mod pathfinder;
mod srad;

pub use backprop::Backprop;
pub use bfs::Bfs;
pub use gaussian::Gaussian;
pub use hotspot::Hotspot;
pub use micro::{LinearSweep, StridedTouch};
pub use nw::NeedlemanWunsch;
pub use pathfinder::Pathfinder;
pub use srad::Srad;

use uvm_gpu::KernelSpec;
use uvm_types::{Bytes, VirtAddr, PAGE_SIZE};

/// A benchmark that can be instantiated against a UVM allocator.
///
/// `build` registers the benchmark's managed allocations through
/// `malloc` (the simulation harness passes a closure over
/// `uvm_core::Gmmu::malloc_managed`) and returns the sequence of
/// kernel launches to execute.
///
/// Workloads are `Debug + Send + Sync` so the experiment executor can
/// (a) derive a canonical identity for run deduplication and caching,
/// and (b) simulate them from a worker pool.
pub trait Workload: std::fmt::Debug + Send + Sync {
    /// Benchmark name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Allocates the working set and produces the kernel launches.
    fn build(&self, malloc: &mut dyn FnMut(Bytes) -> VirtAddr) -> Vec<KernelSpec>;

    /// A canonical identity string covering every parameter that
    /// changes the generated access stream. Two workloads with equal
    /// signatures must build identical kernels; the default `Debug`
    /// rendering satisfies this for plain parameter structs.
    fn signature(&self) -> String {
        format!("{self:?}")
    }
}

/// The paper's seven-benchmark suite at default (paper-scale) sizes.
pub fn standard_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Backprop::default()),
        Box::new(Bfs::default()),
        Box::new(Gaussian::default()),
        Box::new(Hotspot::default()),
        Box::new(NeedlemanWunsch::default()),
        Box::new(Pathfinder::default()),
        Box::new(Srad::default()),
    ]
}

/// Address of 4 KB page number `page` within an allocation at `base`.
pub(crate) fn page_addr(base: VirtAddr, page: u64) -> VirtAddr {
    base.offset(PAGE_SIZE * page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Builds a workload against a dummy bump allocator and returns
    /// (kernels, footprint). Shared by the per-benchmark test modules.
    pub(crate) fn build_dummy(w: &dyn Workload) -> (Vec<KernelSpec>, Bytes) {
        let mut next = 0u64;
        let mut total = Bytes::ZERO;
        let mut malloc = |size: Bytes| {
            // 2 MB-aligned bump allocation, as the real registry does.
            let base = VirtAddr::new(next);
            let rounded = size.bytes().div_ceil(2 * 1024 * 1024) * 2 * 1024 * 1024;
            next += rounded;
            total += size;
            base
        };
        (w.build(&mut malloc), total)
    }

    #[test]
    fn suite_has_seven_distinct_benchmarks() {
        let suite = standard_suite();
        let names: HashSet<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn footprints_are_paper_scale() {
        // Paper Sec. 6.2: 4 MB to 38.5 MB, average ~15.5 MB.
        let suite = standard_suite();
        let mut sum = 0.0;
        for w in &suite {
            let (_, fp) = build_dummy(w.as_ref());
            let mib = fp.bytes() as f64 / (1024.0 * 1024.0);
            assert!((4.0..=38.5).contains(&mib), "{}: {mib} MiB", w.name());
            sum += mib;
        }
        let avg = sum / 7.0;
        assert!((8.0..=24.0).contains(&avg), "average {avg} MiB");
    }

    #[test]
    fn every_benchmark_produces_kernels_and_accesses() {
        for w in standard_suite() {
            let (kernels, _) = build_dummy(w.as_ref());
            assert!(!kernels.is_empty(), "{} has no kernels", w.name());
            let total_blocks: usize = kernels.iter().map(|k| k.num_blocks()).sum();
            assert!(total_blocks > 0, "{} has no thread blocks", w.name());
        }
    }
}
