//! The `fit` and `oversub` policy grids: paper-scale single
//! simulations through `run_workload`, and the simulated outputs each
//! one is checked on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use uvm_core::{EvictPolicy, PrefetchPolicy};
use uvm_gpu::Engine;
use uvm_sim::{try_run_workload, RunOptions, RunResult};
use uvm_types::Bytes;
use uvm_workloads::Workload;

/// One simulation of a grid: a suite index and its options.
#[derive(Clone, Debug)]
pub struct Cell {
    pub workload: usize,
    pub opts: RunOptions,
}

/// The Figs. 3-5 prefetcher grid: every benchmark under each paper
/// prefetcher with LRU-4KB eviction and unlimited device memory.
pub fn fit_cells(workloads: usize, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in 0..workloads {
        for p in PrefetchPolicy::ALL {
            let opts = RunOptions::default()
                .with_prefetch(p)
                .with_evict(EvictPolicy::LruPage)
                .with_rng_seed(seed);
            cells.push(Cell { workload, opts });
        }
    }
    cells
}

/// Over-subscription levels of the eviction grid (working set as a
/// multiple of device memory).
pub const OVERSUB_FRACS: [f64; 2] = [1.10, 1.50];

/// The eviction grid: every benchmark under TBNp with LRU-4KB, SLe and
/// TBNe eviction at 110 % and 150 % over-subscription.
pub fn oversub_cells(workloads: usize, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in 0..workloads {
        for e in [
            EvictPolicy::LruPage,
            EvictPolicy::SequentialLocal,
            EvictPolicy::TreeBasedNeighborhood,
        ] {
            for frac in OVERSUB_FRACS {
                let opts = RunOptions::default()
                    .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
                    .with_evict(e)
                    .with_memory_frac(frac)
                    .with_rng_seed(seed);
                cells.push(Cell { workload, opts });
            }
        }
    }
    cells
}

/// The simulated outputs of one run that the benchmark checks: every
/// `RunResult` counter and the per-launch kernel times. Floats are
/// kept as bit patterns so equality is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub kernel_times: Vec<u64>,
    pub footprint: u64,
    pub capacity: Option<u64>,
    pub accesses: u64,
    pub far_faults: u64,
    pub pages_migrated: u64,
    pub pages_prefetched: u64,
    pub pages_evicted: u64,
    pub pages_thrashed: u64,
    pub prefetched_used: u64,
    pub prefetched_wasted: u64,
    pub clean_writebacks: u64,
    pub read_bandwidth_bits: u64,
    pub write_bandwidth_bits: u64,
    pub read_transfers_4k: u64,
    pub read_transfers: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub injected: [u64; 6],
    pub huge_pages: String,
}

impl Outcome {
    pub fn from_result(r: &RunResult) -> Self {
        Outcome {
            kernel_times: r.kernel_times.iter().map(|t| t.cycles()).collect(),
            footprint: r.footprint.bytes(),
            capacity: r.capacity.map(Bytes::bytes),
            accesses: r.accesses,
            far_faults: r.far_faults,
            pages_migrated: r.pages_migrated,
            pages_prefetched: r.pages_prefetched,
            pages_evicted: r.pages_evicted,
            pages_thrashed: r.pages_thrashed,
            prefetched_used: r.prefetched_used,
            prefetched_wasted: r.prefetched_wasted,
            clean_writebacks: r.clean_pages_written_back,
            read_bandwidth_bits: r.read_bandwidth_gbps.to_bits(),
            write_bandwidth_bits: r.write_bandwidth_gbps.to_bits(),
            read_transfers_4k: r.read_transfers_4k,
            read_transfers: r.read_transfers,
            read_bytes: r.read_bytes.bytes(),
            write_bytes: r.write_bytes.bytes(),
            injected: [
                r.transfer_retries,
                r.transfer_giveups,
                r.migration_retries,
                r.migration_giveups,
                r.emergency_evictions,
                r.fault_jitter_cycles,
            ],
            huge_pages: format!("{:?}", r.huge_pages),
        }
    }

    /// The same record read straight off a finished engine, for runs
    /// the benchmark drives itself.
    pub fn from_engine(
        engine: &Engine,
        footprint: Bytes,
        capacity: Option<Bytes>,
        kernel_times: Vec<u64>,
    ) -> Self {
        let gmmu = engine.gmmu();
        let s = gmmu.stats();
        let read = gmmu.read_stats();
        let write = gmmu.write_stats();
        let fi = &s.fault_injection;
        Outcome {
            kernel_times,
            footprint: footprint.bytes(),
            capacity: capacity.map(Bytes::bytes),
            accesses: s.accesses,
            far_faults: s.far_faults,
            pages_migrated: s.pages_migrated,
            pages_prefetched: s.pages_prefetched,
            pages_evicted: s.pages_evicted,
            pages_thrashed: s.pages_thrashed,
            prefetched_used: s.prefetched_used,
            prefetched_wasted: s.prefetched_wasted,
            clean_writebacks: s.clean_pages_written_back,
            read_bandwidth_bits: read.average_bandwidth_gbps().to_bits(),
            write_bandwidth_bits: write.average_bandwidth_gbps().to_bits(),
            read_transfers_4k: read.histogram.count_4kib(),
            read_transfers: read.transfers(),
            read_bytes: read.bytes.bytes(),
            write_bytes: write.bytes.bytes(),
            injected: [
                fi.transfer_retries,
                fi.transfer_giveups,
                fi.migration_retries,
                fi.migration_giveups,
                fi.emergency_evictions,
                fi.jitter_cycles,
            ],
            huge_pages: format!("{:?}", s.huge_pages),
        }
    }

    /// Digest of every checked field.
    pub fn digest(&self) -> u64 {
        let mut h = crate::stats::Fnv::default();
        h.bytes(format!("{self:?}").as_bytes());
        h.finish()
    }

    /// Simulated time of all launches, in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.kernel_times.iter().sum()
    }
}

/// Runs one cell through `try_run_workload`, turning a panic or a
/// `SimError` into an error message.
pub fn run_cell(workload: &dyn Workload, opts: &RunOptions) -> Result<RunResult, String> {
    let opts = opts.clone();
    match catch_unwind(AssertUnwindSafe(|| try_run_workload(workload, opts))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(payload)),
    }
}

pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}
