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
//! * the far-fault [`Mshr`]s in which outstanding faults are registered
//!   and duplicate faults to the same page are merged,
//! * a [`FrameAllocator`] enforcing the strict device-memory budget.
//!
//! # Examples
//!
//! ```
//! use uvm_mem::{Mshr, RegisterOutcome};
//! use uvm_types::PageId;
//!
//! let mut mshr: Mshr<u32> = Mshr::new();
//! assert_eq!(mshr.register(PageId::new(7), 1), RegisterOutcome::NewFault);
//! assert_eq!(mshr.register(PageId::new(7), 2), RegisterOutcome::Merged);
//! assert_eq!(mshr.complete(PageId::new(7)), vec![1, 2]);
//! ```

mod frames;
mod mshr;
mod page_table;
mod shootdown;
mod tlb;
mod walk;

pub use frames::{FrameAllocStats, FrameAllocator, FrameError, FrameId, MAX_FRAME_ORDER};
pub use mshr::{Mshr, RegisterOutcome};
pub use page_table::{PageTable, PteFlags};
pub use shootdown::ShootdownDirectory;
pub use tlb::{Tlb, TlbLookup};
pub use walk::RadixWalkModel;
