//! Driver-side statistics: the counters behind Figs. 5, 7, 10, 16.

/// Counters maintained by the GMMU driver model.
///
/// Interconnect-side statistics (bytes, busy time, per-size transfer
/// histogram — Figs. 4 and 7) live on the PCI-e channels; these are the
/// page-level counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Completed memory accesses across all kernels (the denominator of
    /// the faults-per-kilo-access metric used by the huge-page
    /// ablation).
    pub accesses: u64,
    /// Distinct far-faults serviced by the driver (Fig. 5). Duplicate
    /// faults that wait on an in-flight migration do not count.
    pub far_faults: u64,
    /// Pages migrated host→device for any reason.
    pub pages_migrated: u64,
    /// Of those, pages brought in by the prefetcher rather than by the
    /// faulting access itself.
    pub pages_prefetched: u64,
    /// Pages evicted device→host (Fig. 10).
    pub pages_evicted: u64,
    /// Eviction operations (one per victim selection, possibly bulk).
    pub evictions: u64,
    /// Pages migrated again after having been evicted at least once —
    /// the thrashing measure of Fig. 16.
    pub pages_thrashed: u64,
    /// Prefetched pages that were accessed at least once while
    /// resident — the prefetcher's useful work.
    pub prefetched_used: u64,
    /// Prefetched pages evicted without ever being accessed — the
    /// "unused prefetched pages" of Sec. 5 that motivate pre-eviction.
    pub prefetched_wasted: u64,
    /// Evicted pages that were clean (never written); bulk write-back
    /// moves them anyway, trading write traffic for bandwidth
    /// (Sec. 5.1's design choice).
    pub clean_pages_written_back: u64,
    /// Per-category retry/giveup counters for injected faults. All
    /// zero unless the config carries a non-trivial `FaultPlan`.
    pub fault_injection: FaultInjectionStats,
    /// Huge-page coalesce/splinter/fragmentation counters. All zero
    /// unless a huge-page policy (MOSp/MOSe) is active.
    pub huge_pages: HugePageStats,
}

/// Counters for the huge-page mechanism: 2 MB coalesce/splinter
/// transitions driven by the policy hooks, plus the frame allocator's
/// block split/merge and soft-region fragmentation activity (mirrored
/// from [`FrameAllocStats`](uvm_mem::FrameAllocStats) by the GMMU).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HugePageStats {
    /// Large pages promoted to a single huge mapping (full residency on
    /// physically contiguous, aligned frames, policy-approved).
    pub coalesces: u64,
    /// Huge mappings splintered back to 4 KB mappings at the evictor's
    /// request under memory pressure.
    pub splinters: u64,
    /// Huge mappings the mechanism force-splintered because eviction
    /// reached into a still-coalesced large page.
    pub forced_splinters: u64,
    /// Free blocks split by the frame allocator to serve single-frame
    /// demand (one count per halving).
    pub alloc_splits: u64,
    /// Released fully free 2 MB regions returned to the frame
    /// allocator's block list.
    pub alloc_merges: u64,
    /// Soft 2 MB regions reserved for contiguous placement.
    pub regions_reserved: u64,
    /// Fragmentation events: frames stolen out of a soft-reserved
    /// region by ordinary demand allocation.
    pub region_steals: u64,
}

impl HugePageStats {
    /// `true` if the huge-page machinery never engaged.
    pub fn is_clean(&self) -> bool {
        *self == HugePageStats::default()
    }
}

/// Counters for the deterministic fault-injection layer, split by
/// injection category so an ablation can attribute slowdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultInjectionStats {
    /// PCI-e transfer replays paid across both link directions.
    pub transfer_retries: u64,
    /// Transfers whose replay budget ran out (completed degraded).
    pub transfer_giveups: u64,
    /// Page migrations that transiently failed and re-entered the
    /// far-fault pipeline as replayable faults.
    pub migration_retries: u64,
    /// Migrations whose replay budget ran out.
    pub migration_giveups: u64,
    /// Pages evicted by the oversubscription pressure mode on top of
    /// ordinary demand/pre-eviction.
    pub emergency_evictions: u64,
    /// Total extra far-fault latency injected as jitter, in cycles.
    pub jitter_cycles: u64,
}

impl FaultInjectionStats {
    /// `true` if no injected fault ever fired.
    pub fn is_clean(&self) -> bool {
        *self == FaultInjectionStats::default()
    }
}

impl UvmStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prefetch accuracy: of the prefetched pages whose fate is known
    /// (used, or evicted unused), the fraction that were used. Returns
    /// 1.0 when nothing has been resolved yet.
    pub fn prefetch_accuracy(&self) -> f64 {
        let resolved = self.prefetched_used + self.prefetched_wasted;
        if resolved == 0 {
            1.0
        } else {
            self.prefetched_used as f64 / resolved as f64
        }
    }

    /// Serializes all counters for a checkpoint.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        for v in [
            self.accesses,
            self.far_faults,
            self.pages_migrated,
            self.pages_prefetched,
            self.pages_evicted,
            self.evictions,
            self.pages_thrashed,
            self.prefetched_used,
            self.prefetched_wasted,
            self.clean_pages_written_back,
            self.fault_injection.transfer_retries,
            self.fault_injection.transfer_giveups,
            self.fault_injection.migration_retries,
            self.fault_injection.migration_giveups,
            self.fault_injection.emergency_evictions,
            self.fault_injection.jitter_cycles,
            self.huge_pages.coalesces,
            self.huge_pages.splinters,
            self.huge_pages.forced_splinters,
            self.huge_pages.alloc_splits,
            self.huge_pages.alloc_merges,
            self.huge_pages.regions_reserved,
            self.huge_pages.region_steals,
        ] {
            w.put_u64(v);
        }
    }

    /// Rebuilds counters from a [`save_state`](Self::save_state) image.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        Ok(UvmStats {
            accesses: r.get_u64()?,
            far_faults: r.get_u64()?,
            pages_migrated: r.get_u64()?,
            pages_prefetched: r.get_u64()?,
            pages_evicted: r.get_u64()?,
            evictions: r.get_u64()?,
            pages_thrashed: r.get_u64()?,
            prefetched_used: r.get_u64()?,
            prefetched_wasted: r.get_u64()?,
            clean_pages_written_back: r.get_u64()?,
            fault_injection: FaultInjectionStats {
                transfer_retries: r.get_u64()?,
                transfer_giveups: r.get_u64()?,
                migration_retries: r.get_u64()?,
                migration_giveups: r.get_u64()?,
                emergency_evictions: r.get_u64()?,
                jitter_cycles: r.get_u64()?,
            },
            huge_pages: HugePageStats {
                coalesces: r.get_u64()?,
                splinters: r.get_u64()?,
                forced_splinters: r.get_u64()?,
                alloc_splits: r.get_u64()?,
                alloc_merges: r.get_u64()?,
                regions_reserved: r.get_u64()?,
                region_steals: r.get_u64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default() {
        let s = UvmStats::new();
        assert_eq!(s, UvmStats::default());
        assert_eq!(s.far_faults, 0);
    }

    #[test]
    fn prefetch_accuracy_computed() {
        assert_eq!(UvmStats::default().prefetch_accuracy(), 1.0);
        let s = UvmStats {
            prefetched_used: 30,
            prefetched_wasted: 10,
            ..UvmStats::default()
        };
        assert!((s.prefetch_accuracy() - 0.75).abs() < 1e-12);
    }
}
