//! Core newtypes and geometry constants shared by every crate in the
//! UVM-interplay simulator.
//!
//! The simulator reproduces the memory-system behaviour studied in
//! *"Interplay between Hardware Prefetcher and Page Eviction Policy in
//! CPU-GPU Unified Virtual Memory"* (ISCA 2019). Throughout the paper —
//! and therefore throughout this workspace — three granularities matter:
//!
//! * the 4 KB **page**, the unit of demand migration and of the GPU page
//!   table ([`PageId`]);
//! * the 64 KB **basic block**, the unit the hardware prefetcher and the
//!   proposed pre-eviction policies operate on ([`BasicBlockId`]);
//! * the 2 MB **large page**, the boundary within which the tree-based
//!   prefetcher balances and the granularity of NVIDIA's static eviction
//!   ([`LargePageId`]).
//!
//! # Examples
//!
//! ```
//! use uvm_types::{VirtAddr, PAGE_SIZE, BASIC_BLOCK_SIZE};
//!
//! let addr = VirtAddr::new(3 * PAGE_SIZE.bytes() + 17);
//! assert_eq!(addr.page().index(), 3);
//! assert_eq!(addr.basic_block().index(), 0);
//! assert_eq!(BASIC_BLOCK_SIZE.bytes() / PAGE_SIZE.bytes(), 16);
//! ```

mod addr;
pub mod codec;
mod geometry;
pub mod hash;
pub mod rng;
mod size;
mod time;

pub use addr::{BasicBlockId, LargePageId, PageId, VirtAddr};
pub use geometry::{round_up_pow2_blocks, split_allocation, TreeExtent};
pub use size::{
    Bytes, BASIC_BLOCK_SIZE, LARGE_PAGE_ORDER, LARGE_PAGE_SIZE, PAGES_PER_BASIC_BLOCK,
    PAGES_PER_LARGE_PAGE, PAGE_SIZE,
};
pub use time::{Cycle, Duration, CORE_CLOCK_HZ};
