//! Discrete-event GPU execution engine for the UVM simulator.
//!
//! This crate models the GPU side of the paper's Fig. 1 control flow:
//! warps issue coalesced memory accesses; each access performs a
//! single-cycle TLB lookup in its SM's fully associative TLB; a miss is
//! relayed to the GMMU for a 100-cycle page-table walk; an invalid PTE
//! raises a far-fault that the [`uvm_core::Gmmu`] driver services
//! (45 µs handling plus PCI-e migration), after which the access
//! replays.
//!
//! Compute is abstracted: every warp is a stream of page-granular
//! coalesced accesses separated by a configurable compute delay. This
//! keeps the memory system — the object of the paper's study — in full
//! detail while making kernels cheap to simulate.
//!
//! # Examples
//!
//! ```
//! use uvm_core::{Gmmu, UvmConfig};
//! use uvm_gpu::{Access, Engine, GpuConfig, KernelSpec, ThreadBlockSpec};
//! use uvm_types::Bytes;
//!
//! let mut gmmu = Gmmu::new(UvmConfig::default());
//! let base = gmmu.malloc_managed(Bytes::mib(1));
//! let mut engine = Engine::new(gmmu, GpuConfig::default());
//!
//! // One thread block streaming over 32 pages.
//! let kernel = KernelSpec::new("stream").with_block(ThreadBlockSpec::from_accesses(
//!     (0..32).map(move |i| Access::read(base.offset(Bytes::kib(4) * i))),
//! ));
//! let time = engine.run_kernel(kernel);
//! assert!(time.cycles() > 0);
//! assert_eq!(engine.gmmu().stats().far_faults, 2); // TBNp prefetched the rest
//! ```

mod engine;
mod kernel;

pub use engine::{Engine, EngineSnapshot, GpuConfig, KernelResult, TraceEvent};
pub use kernel::{coalesce_pages, Access, CompiledKernel, KernelSpec, ThreadBlockSpec};
