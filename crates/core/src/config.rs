//! GMMU / UVM driver configuration (the paper's Table 2 constants plus
//! the experiment knobs).

use uvm_types::{Bytes, Duration};

use crate::fault::FaultPlan;
use crate::spec::PolicySpec;

/// Configuration of the UVM driver model.
///
/// Defaults follow the paper's simulator setup (Table 2): 45 µs
/// far-fault handling latency, TBNp prefetching, LRU 4 KB eviction,
/// unlimited memory (no over-subscription), no free-page buffer, no
/// LRU reservation. The 100-cycle page walk and the 90 µs prefetch
/// congestion cap are fixed constants of the engine and the GMMU.
///
/// # Examples
///
/// ```
/// use uvm_core::{EvictPolicy, PrefetchPolicy, UvmConfig};
/// use uvm_types::Bytes;
///
/// let cfg = UvmConfig::default()
///     .with_capacity(Bytes::mib(16))
///     .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
///     .with_evict(EvictPolicy::TreeBasedNeighborhood);
/// assert_eq!(cfg.capacity, Some(Bytes::mib(16)));
/// ```
#[derive(Clone, Debug)]
pub struct UvmConfig {
    /// Device memory budget; `None` means effectively unlimited (the
    /// no-over-subscription experiments of Sec. 4.1).
    pub capacity: Option<Bytes>,
    /// Hardware prefetcher spec, resolved through the policy
    /// registry ([`PrefetchPolicy`](crate::PrefetchPolicy) selectors
    /// convert via `Into<PolicySpec>`).
    pub prefetch: PolicySpec,
    /// Eviction / pre-eviction policy spec, resolved through the
    /// policy registry.
    pub evict: PolicySpec,
    /// Far-fault handling latency paid per fault by the host runtime
    /// (45 µs measured on the GTX 1080ti, Sec. 6.1).
    pub fault_latency: Duration,
    /// If `true`, the hardware prefetcher is disabled permanently the
    /// first time device memory fills (the Fig. 6 / Fig. 9 setup:
    /// "upon over-subscription, hardware prefetcher is disabled").
    pub disable_prefetch_on_oversubscription: bool,
    /// Free-page-buffer fraction for memory-threshold pre-eviction
    /// (Sec. 4.2): the driver pre-evicts to keep this fraction of
    /// frames free, and disables the prefetcher once occupancy reaches
    /// `1 - free_buffer_frac`. `0.0` disables the buffer.
    pub free_buffer_frac: f64,
    /// Fraction of the LRU list (in pages), counted from the LRU end,
    /// protected from eviction (the Sec. 5.3 / Fig. 14 reservation).
    pub reserve_frac: f64,
    /// RNG seed for the random prefetcher / evictor.
    pub rng_seed: u64,
    /// Write back only dirty pages on eviction, as separate transfers
    /// per contiguous dirty run, instead of the paper's design choice
    /// of writing back whole victim groups as a single unit
    /// irrespective of clean/dirty (Sec. 5.1). `false` (the paper's
    /// choice) trades extra write traffic for fewer, larger transfers.
    pub writeback_dirty_only: bool,
    /// Number of far-faults the host runtime can handle concurrently.
    /// The CUDA driver drains its fault buffer in batches and walks
    /// faults with multiple threads (the paper adopts the
    /// multi-threaded walk model of Ausavarungnirun et al.), so fault
    /// handling windows overlap; each fault still pays the full 45 µs
    /// latency. `1` models a fully serialized host runtime.
    pub fault_lanes: usize,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] (the
    /// default) injects nothing and draws from no RNG, so baseline
    /// behaviour is bit-exact with or without the fault layer.
    pub fault_plan: FaultPlan,
}

impl Default for UvmConfig {
    fn default() -> Self {
        UvmConfig {
            capacity: None,
            prefetch: PolicySpec::new("TBNp"),
            evict: PolicySpec::new("LRU-4KB"),
            fault_latency: Duration::from_micros(45.0),
            disable_prefetch_on_oversubscription: false,
            free_buffer_frac: 0.0,
            reserve_frac: 0.0,
            rng_seed: 0x5eed_cafe,
            writeback_dirty_only: false,
            fault_lanes: 8,
            fault_plan: FaultPlan::none(),
        }
    }
}

impl UvmConfig {
    /// Sets the device-memory budget.
    pub fn with_capacity(mut self, capacity: Bytes) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the hardware prefetcher — an enum selector, a
    /// [`PolicySpec`], or anything else converting into one.
    pub fn with_prefetch(mut self, prefetch: impl Into<PolicySpec>) -> Self {
        self.prefetch = prefetch.into();
        self
    }

    /// Sets the eviction policy — an enum selector, a [`PolicySpec`],
    /// or anything else converting into one.
    pub fn with_evict(mut self, evict: impl Into<PolicySpec>) -> Self {
        self.evict = evict.into();
        self
    }

    /// Sets the sticky prefetcher-disable-on-full behaviour.
    pub fn with_disable_prefetch_on_oversubscription(mut self, disable: bool) -> Self {
        self.disable_prefetch_on_oversubscription = disable;
        self
    }

    /// Sets the free-page-buffer fraction.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `0.0..1.0`.
    pub fn with_free_buffer_frac(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac), "buffer fraction out of range");
        self.free_buffer_frac = frac;
        self
    }

    /// Sets the LRU reservation fraction.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `0.0..1.0`.
    pub fn with_reserve_frac(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac), "reserve fraction out of range");
        self.reserve_frac = frac;
        self
    }

    /// Sets the RNG seed.
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Selects dirty-only write-back (see the field docs).
    pub fn with_writeback_dirty_only(mut self, dirty_only: bool) -> Self {
        self.writeback_dirty_only = dirty_only;
        self
    }

    /// Sets the number of concurrent fault-handling lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_fault_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one fault lane");
        self.fault_lanes = lanes;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EvictPolicy, PrefetchPolicy};

    #[test]
    fn defaults_match_table2() {
        let cfg = UvmConfig::default();
        assert!((cfg.fault_latency.as_micros() - 45.0).abs() < 0.01);
        assert_eq!(cfg.capacity, None);
        assert_eq!(cfg.free_buffer_frac, 0.0);
        assert_eq!(cfg.reserve_frac, 0.0);
        assert!(cfg.fault_plan.is_none());
    }

    #[test]
    fn fault_plan_builder() {
        let cfg = UvmConfig::default().with_fault_plan(FaultPlan::chaos().with_seed(3));
        assert_eq!(cfg.fault_plan, FaultPlan::chaos().with_seed(3));
        assert!(!cfg.fault_plan.is_none());
    }

    #[test]
    fn builder_chains() {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::mib(8))
            .with_prefetch(PrefetchPolicy::SequentialLocal)
            .with_evict(EvictPolicy::SequentialLocal)
            .with_disable_prefetch_on_oversubscription(true)
            .with_free_buffer_frac(0.05)
            .with_reserve_frac(0.1)
            .with_rng_seed(7);
        assert_eq!(cfg.capacity, Some(Bytes::mib(8)));
        assert_eq!(cfg.prefetch, PolicySpec::new("SLp"));
        assert_eq!(cfg.evict, PolicySpec::new("SLe"));
        assert!(cfg.disable_prefetch_on_oversubscription);
        assert_eq!(cfg.free_buffer_frac, 0.05);
        assert_eq!(cfg.reserve_frac, 0.1);
        assert_eq!(cfg.rng_seed, 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn buffer_fraction_validated() {
        let _ = UvmConfig::default().with_free_buffer_frac(1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reserve_fraction_validated() {
        let _ = UvmConfig::default().with_reserve_frac(-0.1);
    }
}
