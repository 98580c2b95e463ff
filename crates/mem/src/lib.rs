//! GPU memory-system structures for the UVM simulator.
//!
//! This crate provides the hardware state the GMMU manipulates when it
//! resolves a far-fault (Fig. 1 of the paper):
//!
//! * the GPU [`PageTable`] with per-page valid/dirty/accessed flags,
//! * per-SM [`Tlb`]s (fully associative, LRU, single-cycle lookup as in
//!   the paper's simplifying assumption) and the
//!   [`ShootdownDirectory`] that invalidates their entries in
//!   O(holders) when a page is evicted,
//! * a [`FrameAllocator`] enforcing the strict device-memory budget.
//!
//! Duplicate far faults to one page are merged above this crate, by the
//! GMMU's in-flight table: a second fault on a page whose migration is
//! under way waits for that page's ready time.
//!
//! # Examples
//!
//! A TLB miss on a non-resident page is a far fault: the page is
//! validated, given a frame, and its translation filled.
//!
//! ```
//! use uvm_mem::{FrameAllocator, PageTable, Tlb, TlbLookup};
//! use uvm_types::{Bytes, PageId};
//!
//! let (mut table, mut tlb) = (PageTable::new(), Tlb::new(4));
//! let mut frames = FrameAllocator::new(Bytes::kib(4)); // one frame
//! let page = PageId::new(7);
//! assert_eq!(tlb.lookup(page), TlbLookup::Miss);
//! assert!(!table.is_valid(page));
//! assert!(frames.allocate().is_some());
//! table.validate(page);
//! tlb.fill(page);
//! assert_eq!(tlb.lookup(page), TlbLookup::Hit);
//! assert!(frames.allocate().is_none()); // budget exhausted
//! ```

mod frames;
mod page_table;
mod shootdown;
mod tlb;

pub use frames::{FrameAllocStats, FrameAllocator, FrameError, FrameId};
pub use page_table::{PageTable, PteFlags};
pub use shootdown::ShootdownDirectory;
pub use tlb::{Tlb, TlbLookup};
