//! The discrete-event engine: SMs, warp actors, TLBs, fault replay.
//!
//! The per-event hot path is allocation-free and O(1) per step: warp
//! events flow through a calendar [`EventQueue`], access streams are
//! pre-compiled into an engine-owned arena walked by cursor, per-SM
//! TLB operations index a dense page → slot table (no hashing), and
//! eviction shootdowns consult a
//! [`ShootdownDirectory`] so only the TLBs actually holding a page are
//! touched. See DESIGN.md §7 for the design, its exactness argument,
//! and the same-cycle ordering contract the schedule rests on.

use uvm_core::Gmmu;
use uvm_mem::{RadixWalkModel, ShootdownDirectory, Tlb, TlbLookup};
use uvm_types::{Cycle, Duration, PageId};

use crate::kernel::{Access, KernelSpec};
use crate::queue::EventQueue;

/// One completed page access in a captured trace (the raw data of the
/// paper's Fig. 12 scatter, with warp attribution for per-warp
/// pattern analysis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Completion cycle of the access.
    pub cycle: Cycle,
    /// Page touched.
    pub page: PageId,
    /// Index of the warp (thread block) that issued the access.
    pub warp: usize,
    /// `true` for a store.
    pub write: bool,
}

/// GPU-side configuration (paper Table 2 defaults: 28 Pascal SMs).
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Thread blocks resident per SM at a time.
    pub blocks_per_sm: usize,
    /// Entries in each SM's fully associative TLB.
    pub tlb_entries: usize,
    /// Device-memory access latency on a TLB hit.
    pub mem_latency: Duration,
    /// Compute delay between a warp's consecutive coalesced accesses.
    pub compute_delay: Duration,
    /// Watchdog: abort if a single kernel exceeds this many simulated
    /// cycles (`None` = no limit). Guards against pathological
    /// eviction/refault cycles in exploratory configurations.
    pub max_kernel_cycles: Option<u64>,
    /// Optional detailed page-walk model: `Some((per-level latency,
    /// walk-cache entries))` replaces the flat Table 2 walk latency
    /// with a 4-level radix walk ([`RadixWalkModel`]).
    pub radix_walk: Option<(Duration, usize)>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 28,
            blocks_per_sm: 8,
            tlb_entries: 64,
            mem_latency: Duration::from_cycles(300),
            compute_delay: Duration::from_cycles(20),
            max_kernel_cycles: None,
            radix_walk: None,
        }
    }
}

/// Outcome of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Launch-to-completion time.
    pub time: Duration,
    /// Cycle at which the kernel completed.
    pub end: Cycle,
}

/// State of one warp actor: a cursor over its arena chunk.
struct WarpState {
    /// Next access to issue, as an index into the engine's arena.
    cursor: usize,
    /// One past the warp's last arena index.
    end: usize,
    /// The access currently being attempted (replayed after a fault).
    current: Option<Access>,
    /// SM this warp's thread block runs on.
    sm: usize,
    /// Static same-cycle tiebreak: the warp's position in the SM-major
    /// dispatch enumeration. Events at equal cycles pop in ascending
    /// rank, making the schedule a pure function of `(cycle, warp)` —
    /// see [`EventQueue::push_keyed`].
    rank: u64,
    done: bool,
}

/// The GPU engine: owns the [`Gmmu`] and executes kernels on it.
///
/// Kernels run to completion one after another, modelling the
/// `cudaDeviceSynchronize` between iterative launches of the paper's
/// benchmarks; device state (page table, LRU lists, statistics)
/// persists across launches.
///
/// Between launches the engine can be frozen into an
/// [`EngineSnapshot`] and forked, so a sweep's shared warm-up prefix
/// simulates once (see DESIGN.md §8).
#[derive(Clone)]
pub struct Engine {
    gmmu: Gmmu,
    cfg: GpuConfig,
    tlbs: Vec<Tlb>,
    /// Per-page generation counters + TLB holder sets, replacing the
    /// all-SM invalidate broadcast on page eviction.
    shootdown: ShootdownDirectory,
    /// Warp event calendar, reused (empty) across kernel launches.
    queue: EventQueue<usize>,
    /// Flattened access streams of the running kernel; storage reused
    /// across launches.
    arena: Vec<Access>,
    walker: Option<RadixWalkModel>,
    now: Cycle,
    trace: Option<Vec<TraceEvent>>,
    /// `UVM_DEBUG_FAULTS` presence, sampled once at construction.
    debug_faults: bool,
}

impl Engine {
    /// Creates an engine over `gmmu`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_sms` or `cfg.blocks_per_sm` is zero.
    pub fn new(gmmu: Gmmu, cfg: GpuConfig) -> Self {
        assert!(cfg.num_sms > 0, "need at least one SM");
        assert!(cfg.blocks_per_sm > 0, "need at least one block per SM");
        let tlbs = (0..cfg.num_sms)
            .map(|_| Tlb::new(cfg.tlb_entries))
            .collect();
        let walker = cfg
            .radix_walk
            .map(|(per_level, entries)| RadixWalkModel::new(per_level, entries));
        let shootdown = ShootdownDirectory::new(cfg.num_sms);
        Engine {
            gmmu,
            cfg,
            tlbs,
            shootdown,
            queue: EventQueue::new(),
            arena: Vec::new(),
            walker,
            now: Cycle::ZERO,
            trace: None,
            debug_faults: std::env::var_os("UVM_DEBUG_FAULTS").is_some(),
        }
    }

    /// The driver model (shared, read-only).
    pub fn gmmu(&self) -> &Gmmu {
        &self.gmmu
    }

    /// The driver model (mutable, e.g. for additional allocations
    /// between kernels).
    pub fn gmmu_mut(&mut self) -> &mut Gmmu {
        &mut self.gmmu
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Starts capturing a [`TraceEvent`] for every completed access
    /// (the raw data of the paper's Fig. 12).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Takes the captured access trace, leaving capture enabled. The
    /// next trace buffer is pre-sized from the taken trace's length,
    /// so steady-state capture (one take per kernel) does not regrow
    /// from zero capacity each launch.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(trace) => {
                let taken = std::mem::take(trace);
                *trace = Vec::with_capacity(taken.len());
                taken
            }
            None => Vec::new(),
        }
    }

    /// Runs `kernel` to completion and returns its execution time.
    /// The engine clock advances to the kernel's end.
    pub fn run_kernel(&mut self, kernel: KernelSpec) -> Duration {
        self.run_kernel_detailed(kernel).time
    }

    /// Runs `kernel` to completion with a detailed result.
    pub fn run_kernel_detailed(&mut self, kernel: KernelSpec) -> KernelResult {
        let start = self.now;
        let mut arena = std::mem::take(&mut self.arena);
        let compiled = kernel.compile_into(&mut arena);
        self.arena = arena;
        let name = compiled.name().to_owned();
        if let Some(trace) = &mut self.trace {
            trace.reserve(self.arena.len());
        }

        // Dispatch: TBs are distributed round-robin; each SM runs at
        // most `blocks_per_sm` concurrently, starting queued TBs as
        // earlier ones finish.
        let mut warps: Vec<WarpState> = Vec::with_capacity(compiled.num_blocks());
        let mut sm_queues: Vec<Vec<usize>> = vec![Vec::new(); self.cfg.num_sms];
        for i in 0..compiled.num_blocks() {
            let sm = i % self.cfg.num_sms;
            let (cursor, end) = compiled.chunk(i);
            warps.push(WarpState {
                cursor,
                end,
                current: None,
                sm,
                rank: 0,
                done: false,
            });
            sm_queues[sm].push(i);
        }
        // Same-cycle ranks follow the SM-major dispatch enumeration
        // (all of SM0's blocks, then SM1's, ...), matching the order
        // the initial pushes historically queued in.
        let mut rank = 0u64;
        for q in &sm_queues {
            for &w in q {
                warps[w].rank = rank;
                rank += 1;
            }
        }

        // Queues were filled in dispatch order; pop from the front.
        for q in &mut sm_queues {
            q.reverse();
        }

        debug_assert!(self.queue.is_empty(), "previous kernel drained the queue");
        let mut active_per_sm = vec![0usize; self.cfg.num_sms];
        for sm in 0..self.cfg.num_sms {
            while active_per_sm[sm] < self.cfg.blocks_per_sm {
                let Some(w) = sm_queues[sm].pop() else { break };
                active_per_sm[sm] += 1;
                self.queue.push_keyed(start, warps[w].rank, w);
            }
        }

        let mut end = start;
        let mut last_popped = start;
        while let Some((t, w)) = self.queue.pop() {
            debug_assert!(
                t >= last_popped,
                "event time went backwards: {t} after {last_popped}"
            );
            last_popped = t;
            if let Some(cap) = self.cfg.max_kernel_cycles {
                let fi = &self.gmmu.stats().fault_injection;
                assert!(
                    t.since(start).cycles() <= cap,
                    "watchdog: kernel {name} exceeded {cap} cycles \
                     (far-faults {}, evicted {}, thrashed {}; injected: \
                     transfer retries {}, migration retries {}, \
                     emergency evictions {}, jitter cycles {})",
                    self.gmmu.stats().far_faults,
                    self.gmmu.stats().pages_evicted,
                    self.gmmu.stats().pages_thrashed,
                    fi.transfer_retries,
                    fi.migration_retries,
                    fi.emergency_evictions,
                    fi.jitter_cycles,
                );
            }
            let warp = &mut warps[w];
            if warp.done {
                continue;
            }
            if warp.current.is_none() && warp.cursor < warp.end {
                warp.current = Some(self.arena[warp.cursor]);
                warp.cursor += 1;
            }
            let Some(access) = warp.current else {
                // Warp retired: start the next queued TB on its SM.
                warp.done = true;
                end = end.max(t);
                let sm = warp.sm;
                active_per_sm[sm] -= 1;
                if let Some(next) = sm_queues[sm].pop() {
                    active_per_sm[sm] += 1;
                    self.queue.push_keyed(t, warps[next].rank, next);
                }
                continue;
            };

            let page = access.page();
            let sm = warp.sm;
            let rank = warp.rank;
            // Huge-page fast path: a coalesced 2 MB mapping serves the
            // whole large page out of one side-table TLB entry. Entries
            // are epoch-stamped, so one splinter (epoch bump) stales
            // them on every SM at once — no per-SM invalidation walk.
            if let Some(epoch) = self.gmmu.huge_translation(page.large_page(), t) {
                if self.tlbs[sm].lookup_huge(page.large_page(), epoch) {
                    let done = t + Duration::from_cycles(1) + self.cfg.mem_latency;
                    self.complete_access(access, done, w);
                    warps[w].current = None;
                    self.queue
                        .push_keyed(done + self.cfg.compute_delay, rank, w);
                    continue;
                }
            }
            let generation = self.shootdown.generation(page);
            match self.tlbs[sm].lookup_gen(page, generation) {
                TlbLookup::Hit => {
                    // 1-cycle lookup + device memory access.
                    let done = t + Duration::from_cycles(1) + self.cfg.mem_latency;
                    self.complete_access(access, done, w);
                    warps[w].current = None;
                    self.queue
                        .push_keyed(done + self.cfg.compute_delay, rank, w);
                }
                TlbLookup::Miss => {
                    let walk_latency = match &mut self.walker {
                        Some(w) => w.walk(page),
                        None => self.gmmu.config().walk_latency,
                    };
                    let walked = t + Duration::from_cycles(1) + walk_latency;
                    if !self.gmmu.is_resident(page) {
                        // Far-fault: the driver migrates (and possibly
                        // prefetches / evicts); the access replays when
                        // the faulty page's data arrives.
                        let res = self.gmmu.handle_fault(page, walked);
                        if self.debug_faults {
                            eprintln!(
                                "t={} w={w} fault pg{} ready={} evicted={}",
                                t.index(),
                                page.index(),
                                res.fault_page_ready().index(),
                                res.evicted.len()
                            );
                        }
                        for &evicted in res.shootdowns() {
                            // New generation, then reclaim the holders'
                            // slots so TLB occupancy matches an eager
                            // broadcast exactly.
                            self.shootdown.bump(evicted);
                            let tlbs = &mut self.tlbs;
                            self.shootdown.drain_holders(evicted, |unit| {
                                tlbs[unit].invalidate(evicted);
                            });
                        }
                        self.queue.push_keyed(res.fault_page_ready(), rank, w);
                    } else if let Some(ready) = self.gmmu.ready_time(page, walked) {
                        // In-flight prefetch: stall until the data lands
                        // (the MSHR-merge path — the migration already
                        // has an owner).
                        self.queue.push_keyed(ready, rank, w);
                    } else if let Some(epoch) =
                        self.gmmu.huge_translation(page.large_page(), walked)
                    {
                        // The walk resolved a coalesced large page: fill
                        // the huge side table (epoch-validated, so it
                        // needs no shootdown-directory tracking) instead
                        // of a 4 KB slot.
                        self.tlbs[sm].fill_huge(page.large_page(), epoch);
                        let done = walked + self.cfg.mem_latency;
                        self.complete_access(access, done, w);
                        warps[w].current = None;
                        self.queue
                            .push_keyed(done + self.cfg.compute_delay, rank, w);
                    } else {
                        // The lookup above just missed, so the page is
                        // certainly absent: take the no-reprobe fill.
                        if let Some(victim) = self.tlbs[sm].fill_after_miss(page, generation) {
                            self.shootdown.note_drop(victim, sm);
                        }
                        self.shootdown.note_fill(page, sm);
                        let done = walked + self.cfg.mem_latency;
                        self.complete_access(access, done, w);
                        warps[w].current = None;
                        self.queue
                            .push_keyed(done + self.cfg.compute_delay, rank, w);
                    }
                }
            }
        }

        self.now = end;
        KernelResult {
            name,
            time: end.since(start),
            end,
        }
    }

    /// Freezes the engine into a forkable [`EngineSnapshot`].
    ///
    /// Everything the simulation's future depends on is captured: the
    /// GMMU (page/frame tables, policy state, PCI-e channel backlog,
    /// RNG streams, statistics), all per-SM TLBs, the shootdown
    /// directory, the walk-cache model, the calendar event queue, the
    /// clock, and the trace buffer. Per-warp arena cursors are kernel-
    /// local (the access arena is recompiled per launch), which is why
    /// snapshots are only legal at a launch boundary.
    ///
    /// # Panics
    ///
    /// Panics if called mid-kernel (events still queued): per-warp
    /// state would be lost.
    pub fn snapshot(&self) -> EngineSnapshot {
        assert!(
            self.queue.is_empty(),
            "engine snapshot mid-kernel: the event queue still holds warp events"
        );
        EngineSnapshot {
            inner: self.clone(),
        }
    }

    /// Serializes the full engine state for a durable checkpoint.
    ///
    /// Only legal at a kernel boundary, like [`snapshot`](Self::snapshot):
    /// per-warp cursors are kernel-local, so the event queue must be
    /// drained. The GPU configuration is *not* stored — the restore
    /// path rebuilds the engine from the same `RunOptions` — but
    /// structural parameters (SM count, radix-walk presence) are
    /// cross-checked on load so a checkpoint can never be restored
    /// into a differently shaped machine.
    ///
    /// # Panics
    ///
    /// Panics if called mid-kernel (events still queued).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        assert!(
            self.queue.is_empty(),
            "engine checkpoint mid-kernel: the event queue still holds warp events"
        );
        w.put_u64(self.now.index());
        self.gmmu.save_state(w);
        w.put_usize(self.tlbs.len());
        for tlb in &self.tlbs {
            tlb.save_state(w);
        }
        self.shootdown.save_state(w);
        match &self.walker {
            Some(walker) => {
                w.put_bool(true);
                walker.save_state(w);
            }
            None => w.put_bool(false),
        }
        match &self.trace {
            Some(trace) => {
                w.put_bool(true);
                w.put_usize(trace.len());
                for ev in trace {
                    w.put_u64(ev.cycle.index());
                    w.put_u64(ev.page.index());
                    w.put_usize(ev.warp);
                    w.put_bool(ev.write);
                }
            }
            None => w.put_bool(false),
        }
    }

    /// Restores a [`save_state`](Self::save_state) image into an engine
    /// freshly built from the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_core::CheckpointError> {
        use uvm_core::CheckpointError;

        self.now = Cycle::new(r.get_u64()?);
        self.gmmu.load_state(r)?;
        let num_tlbs = r.get_usize()?;
        if num_tlbs != self.cfg.num_sms {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint has {num_tlbs} SM TLBs but this run is configured for {}",
                self.cfg.num_sms
            )));
        }
        self.tlbs = (0..num_tlbs)
            .map(|_| Tlb::load_state(r))
            .collect::<Result<_, _>>()?;
        self.shootdown = ShootdownDirectory::load_state(r)?;
        if self.shootdown.num_units() != self.cfg.num_sms {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint shootdown directory tracks {} units but this run has {} SMs",
                self.shootdown.num_units(),
                self.cfg.num_sms
            )));
        }
        let has_walker = r.get_bool()?;
        if has_walker != self.walker.is_some() {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint {} a radix-walk model but this run {}",
                if has_walker { "carries" } else { "lacks" },
                if self.walker.is_some() {
                    "expects one"
                } else {
                    "does not"
                },
            )));
        }
        if has_walker {
            self.walker = Some(RadixWalkModel::load_state(r)?);
        }
        self.trace = if r.get_bool()? {
            let n = r.get_count()?;
            let mut trace = Vec::with_capacity(n);
            for _ in 0..n {
                trace.push(TraceEvent {
                    cycle: Cycle::new(r.get_u64()?),
                    page: PageId::new(r.get_u64()?),
                    warp: r.get_usize()?,
                    write: r.get_bool()?,
                });
            }
            Some(trace)
        } else {
            None
        };
        Ok(())
    }

    /// Audits the engine-level invariants on top of
    /// [`Gmmu::audit`]: every cached TLB translation must be
    /// consistent with the shootdown directory's generation counters
    /// and holder bits, both directions, and every cached huge-page
    /// epoch must be bounded by the driver's current epoch.
    ///
    /// The strong form holds because the engine always pairs
    /// `bump(evicted)` with an immediate `drain_holders`, so a stale
    /// entry or dangling holder bit can never survive an eviction.
    /// Read-only and schedule-inert.
    pub fn audit(&self) -> Result<(), uvm_core::AuditError> {
        let mut violations = match self.gmmu.audit() {
            Ok(()) => Vec::new(),
            Err(e) => e.violations,
        };
        // Per-SM maps of what each TLB currently caches, for O(1)
        // cross-checks in both directions.
        let held: Vec<std::collections::HashMap<PageId, u32>> = self
            .tlbs
            .iter()
            .map(|tlb| tlb.iter_entries().collect())
            .collect();
        for (sm, entries) in held.iter().enumerate() {
            for (&page, &gen) in entries {
                let current = self.shootdown.generation(page);
                if gen > current {
                    violations.push(format!(
                        "SM{sm} TLB caches {page} at generation {gen}, \
                         ahead of the directory's {current}"
                    ));
                } else if gen == current {
                    if !self.gmmu.is_resident(page) {
                        violations.push(format!(
                            "SM{sm} TLB holds a live translation for non-resident {page}"
                        ));
                    }
                    if !self.shootdown.holders_of(page).contains(&sm) {
                        violations.push(format!(
                            "SM{sm} TLB holds {page} but its holder bit is clear"
                        ));
                    }
                }
            }
        }
        for (page, sm) in self.shootdown.iter_holders() {
            match held.get(sm).and_then(|entries| entries.get(&page)) {
                Some(&gen) if gen == self.shootdown.generation(page) => {}
                Some(&gen) => violations.push(format!(
                    "holder bit says SM{sm} caches {page} but its entry is stale \
                     (generation {gen} vs {})",
                    self.shootdown.generation(page)
                )),
                None => violations.push(format!(
                    "holder bit says SM{sm} caches {page} but its TLB has no entry"
                )),
            }
        }
        for (sm, tlb) in self.tlbs.iter().enumerate() {
            for (lp, epoch) in tlb.iter_huge() {
                match self.gmmu.huge_epoch(lp) {
                    Some(current) if epoch <= current => {}
                    Some(current) => violations.push(format!(
                        "SM{sm} huge TLB caches {lp} at epoch {epoch}, \
                         ahead of the driver's {current}"
                    )),
                    None => violations.push(format!("SM{sm} huge TLB caches never-promoted {lp}")),
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(uvm_core::AuditError { violations })
        }
    }

    fn complete_access(&mut self, access: Access, done: Cycle, warp: usize) {
        self.gmmu.record_access(access.page(), access.write);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                cycle: done,
                page: access.page(),
                warp,
                write: access.write,
            });
        }
    }
}

/// A frozen engine state captured between kernel launches.
///
/// Snapshots are immutable and `Send + Sync`: a sweep executor shares
/// one behind an `Arc` and every worker [`fork`](Self::fork)s its own
/// independent [`Engine`] from it. Forks are deep copies — running one
/// can never perturb the snapshot or a sibling fork (the differential
/// suite in `tests/fork_equivalence.rs` pins this down).
#[derive(Clone)]
pub struct EngineSnapshot {
    inner: Engine,
}

impl EngineSnapshot {
    /// A fresh, fully independent engine resuming from this snapshot.
    pub fn fork(&self) -> Engine {
        self.inner.clone()
    }

    /// The frozen driver state (read-only).
    pub fn gmmu(&self) -> &Gmmu {
        &self.inner.gmmu
    }

    /// The frozen clock.
    pub fn now(&self) -> Cycle {
        self.inner.now
    }

    /// Serializes the frozen state (a snapshot is always at a kernel
    /// boundary, so this cannot panic).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        self.inner.save_state(w);
    }

    /// Audits the frozen state (see [`Engine::audit`]).
    pub fn audit(&self) -> Result<(), uvm_core::AuditError> {
        self.inner.audit()
    }
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("now", &self.inner.now)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("num_sms", &self.cfg.num_sms)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ThreadBlockSpec;
    use uvm_core::{EvictPolicy, PrefetchPolicy, UvmConfig};
    use uvm_types::{Bytes, VirtAddr};

    fn engine_with(cfg: UvmConfig, alloc: Bytes) -> (Engine, VirtAddr) {
        let mut gmmu = Gmmu::new(cfg);
        let base = gmmu.malloc_managed(alloc);
        (Engine::new(gmmu, GpuConfig::default()), base)
    }

    fn seq_reads(base: VirtAddr, pages: u64) -> ThreadBlockSpec {
        ThreadBlockSpec::from_accesses(
            (0..pages).map(move |i| Access::read(base.offset(Bytes::kib(4) * i))),
        )
    }

    #[test]
    fn empty_kernel_takes_no_time() {
        let (mut e, _) = engine_with(UvmConfig::default(), Bytes::mib(1));
        let t = e.run_kernel(KernelSpec::new("empty"));
        assert_eq!(t, Duration::ZERO);
    }

    #[test]
    fn single_access_pays_fault_and_migration() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        let t = e.run_kernel(KernelSpec::new("one").with_block(seq_reads(base, 1)));
        // 1 (TLB) + 100 (walk) + 45us + 4KB transfer + 300 (mem) + ...
        assert!(t > Duration::from_micros(45.0));
        assert!(t < Duration::from_micros(60.0));
        assert_eq!(e.gmmu().stats().far_faults, 1);
    }

    #[test]
    fn tlb_hits_after_first_touch() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        // Access the same page 100 times.
        let k = KernelSpec::new("hot").with_block(ThreadBlockSpec::from_accesses(
            (0..100).map(move |_| Access::read(base)),
        ));
        e.run_kernel(k);
        assert_eq!(e.gmmu().stats().far_faults, 1);
        // Second launch touches it again: still no fault.
        let k = KernelSpec::new("hot2").with_block(ThreadBlockSpec::from_accesses(
            std::iter::once(Access::read(base)),
        ));
        e.run_kernel(k);
        assert_eq!(e.gmmu().stats().far_faults, 1);
    }

    #[test]
    fn prefetched_pages_do_not_refault() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal),
            Bytes::mib(1),
        );
        e.run_kernel(KernelSpec::new("s").with_block(seq_reads(base, 64)));
        // 64 pages = 4 basic blocks = 4 faults with SLp.
        assert_eq!(e.gmmu().stats().far_faults, 4);
        assert_eq!(e.gmmu().stats().pages_migrated, 64);
    }

    #[test]
    fn kernels_serialize_and_clock_advances() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        let r1 = e.run_kernel_detailed(KernelSpec::new("a").with_block(seq_reads(base, 8)));
        assert_eq!(e.now(), r1.end);
        let r2 = e.run_kernel_detailed(KernelSpec::new("b").with_block(seq_reads(base, 8)));
        assert!(r2.end >= r1.end);
        assert_eq!(r2.name, "b");
    }

    #[test]
    fn multiple_blocks_share_the_machine() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(4),
        );
        let mut k = KernelSpec::new("par");
        for b in 0..56 {
            // Each block reads its own page: 56 faults, but they share
            // the driver, so time is dominated by 56 serialized faults.
            let page_base = base.offset(Bytes::kib(4) * b);
            k.push_block(ThreadBlockSpec::from_accesses(std::iter::once(
                Access::read(page_base),
            )));
        }
        let t = e.run_kernel(k);
        assert_eq!(e.gmmu().stats().far_faults, 56);
        // All faults raised around t=0 drain through the default 8
        // fault lanes: at least ceil(56/8) = 7 serialized windows.
        assert!(t > Duration::from_micros(45.0 * 6.0));
        assert!(t < Duration::from_micros(45.0 * 20.0));
    }

    #[test]
    fn concurrent_faults_on_same_page_merge() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        let mut k = KernelSpec::new("merge");
        for _ in 0..10 {
            k.push_block(ThreadBlockSpec::from_accesses(std::iter::once(
                Access::read(base),
            )));
        }
        e.run_kernel(k);
        // Ten warps, one page: a single migration.
        assert_eq!(e.gmmu().stats().far_faults, 1);
        assert_eq!(e.gmmu().stats().pages_migrated, 1);
    }

    #[test]
    fn eviction_shoots_down_tlbs_and_refaults() {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256)) // 64 frames
            .with_prefetch(PrefetchPolicy::None)
            .with_evict(EvictPolicy::LruPage);
        let (mut e, base) = engine_with(cfg, Bytes::mib(1));
        // Two sweeps over 128 pages with a 64-frame budget.
        e.run_kernel(KernelSpec::new("sweep1").with_block(seq_reads(base, 128)));
        let faults_after_first = e.gmmu().stats().far_faults;
        assert_eq!(faults_after_first, 128);
        e.run_kernel(KernelSpec::new("sweep2").with_block(seq_reads(base, 128)));
        // LRU on a linear re-scan thrashes: every page refaults.
        assert_eq!(e.gmmu().stats().far_faults, 256);
        assert!(e.gmmu().stats().pages_thrashed >= 128);
    }

    #[test]
    fn trace_captures_accesses() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.enable_trace();
        e.run_kernel(KernelSpec::new("t").with_block(seq_reads(base, 4)));
        let trace = e.take_trace();
        assert_eq!(trace.len(), 4);
        let pages: Vec<u64> = trace.iter().map(|ev| ev.page.index()).collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
        assert!(trace.iter().all(|ev| ev.warp == 0 && !ev.write));
        // Trace is consumed but capture stays on.
        e.run_kernel(KernelSpec::new("t2").with_block(seq_reads(base, 2)));
        assert_eq!(e.take_trace().len(), 2);
    }

    #[test]
    fn radix_walk_model_shortens_warm_walks() {
        // Same kernel, flat vs radix walks: the radix walker's warm
        // walks (25 cycles) beat the flat 100-cycle walk for a
        // sequential scan, so the run is strictly faster.
        let run = |radix: Option<(Duration, usize)>| {
            let mut gmmu =
                Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::SequentialLocal));
            let base = gmmu.malloc_managed(Bytes::mib(1));
            let mut e = Engine::new(
                gmmu,
                GpuConfig {
                    radix_walk: radix,
                    ..GpuConfig::default()
                },
            );
            e.run_kernel(KernelSpec::new("scan").with_block(seq_reads(base, 256)))
        };
        let flat = run(None);
        let radix = run(Some((Duration::from_cycles(25), 32)));
        assert!(radix < flat, "radix {radix} vs flat {flat}");
    }

    #[test]
    fn fault_injection_is_deterministic_at_the_engine_level() {
        use uvm_core::FaultPlan;
        // A full engine replay under the chaos plan: two engines with
        // the same seed produce identical times and stats; a seeded
        // but all-zero-probability plan matches the unarmed engine.
        let run = |plan: FaultPlan| {
            let cfg = UvmConfig::default()
                .with_capacity(Bytes::kib(256))
                .with_prefetch(PrefetchPolicy::None)
                .with_evict(EvictPolicy::LruPage)
                .with_fault_plan(plan);
            let (mut e, base) = engine_with(cfg, Bytes::mib(1));
            let t = e.run_kernel(KernelSpec::new("sweep").with_block(seq_reads(base, 128)));
            (t, e.gmmu().stats().clone())
        };
        let chaos = FaultPlan::chaos().with_seed(0xfa11);
        let (t1, s1) = run(chaos);
        let (t2, s2) = run(chaos);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(!s1.fault_injection.is_clean(), "chaos injects something");

        let (t_clean, s_clean) = run(FaultPlan::none());
        let (t_inert, s_inert) = run(FaultPlan::none().with_seed(0xfa11));
        assert_eq!(t_clean, t_inert, "an inert plan draws no randomness");
        assert_eq!(s_clean, s_inert);
        assert!(s_clean.fault_injection.is_clean());
        assert!(t1 > t_clean, "injected faults cost time");
    }

    #[test]
    fn arena_is_reused_across_kernels() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("a").with_block(seq_reads(base, 64)));
        let cap = e.arena.capacity();
        assert!(cap >= 64);
        e.run_kernel(KernelSpec::new("b").with_block(seq_reads(base, 32)));
        assert_eq!(e.arena.capacity(), cap, "smaller kernel reuses the arena");
    }

    /// Builds a fresh engine from `cfg`, restores `image` into it, and
    /// checks the restored engine re-serializes identically.
    fn restore(image: &[u8], cfg: UvmConfig, alloc: Bytes) -> Engine {
        let mut gmmu = Gmmu::new(cfg);
        gmmu.malloc_managed(alloc);
        let mut e = Engine::new(gmmu, GpuConfig::default());
        let mut r = uvm_types::codec::ByteReader::new(image);
        e.load_state(&mut r).unwrap();
        r.finish().unwrap();
        e.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        assert_eq!(image, w.into_bytes(), "restored engine diverges");
        e
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_under_thrashing() {
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256))
            .with_prefetch(PrefetchPolicy::SequentialLocal)
            .with_evict(EvictPolicy::LruPage);
        let (mut e, base) = engine_with(cfg.clone(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("warm").with_block(seq_reads(base, 128)));
        e.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let image = w.into_bytes();
        let mut resumed = restore(&image, cfg, Bytes::mib(1));
        // Both engines run the same second kernel: identical timing,
        // stats, and a second checkpoint with identical bytes.
        let t1 = e.run_kernel(KernelSpec::new("again").with_block(seq_reads(base, 128)));
        let t2 = resumed.run_kernel(KernelSpec::new("again").with_block(seq_reads(base, 128)));
        assert_eq!(t1, t2);
        assert_eq!(e.gmmu().stats(), resumed.gmmu().stats());
        let (mut w1, mut w2) = (
            uvm_types::codec::ByteWriter::new(),
            uvm_types::codec::ByteWriter::new(),
        );
        e.save_state(&mut w1);
        resumed.save_state(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
        e.audit().unwrap();
        resumed.audit().unwrap();
    }

    #[test]
    fn checkpoint_resume_replays_chaos_identically() {
        use uvm_core::FaultPlan;
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(256))
            .with_prefetch(PrefetchPolicy::None)
            .with_evict(EvictPolicy::LruPage)
            .with_fault_plan(FaultPlan::chaos().with_seed(0xfa11));
        // Reference: uninterrupted two-kernel run.
        let (mut reference, base) = engine_with(cfg.clone(), Bytes::mib(1));
        reference.run_kernel(KernelSpec::new("a").with_block(seq_reads(base, 128)));
        let t_ref = reference.run_kernel(KernelSpec::new("b").with_block(seq_reads(base, 96)));
        // Checkpointed: same first kernel, save, restore, second kernel.
        let (mut e, base) = engine_with(cfg.clone(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("a").with_block(seq_reads(base, 128)));
        e.audit().unwrap();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let mut resumed = restore(&w.into_bytes(), cfg, Bytes::mib(1));
        let t = resumed.run_kernel(KernelSpec::new("b").with_block(seq_reads(base, 96)));
        assert_eq!(t, t_ref, "resume diverged from the uninterrupted run");
        assert_eq!(resumed.gmmu().stats(), reference.gmmu().stats());
        assert!(!resumed.gmmu().stats().fault_injection.is_clean());
    }

    #[test]
    fn checkpoint_rejects_a_trace_count_past_the_input() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.enable_trace();
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 8)));
        e.take_trace();
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let mut image = w.into_bytes();
        // The image ends with the (empty) access trace: tag 1, count 0.
        assert_eq!(image[image.len() - 2..], [1, 0]);
        image.pop();
        let mut huge = uvm_types::codec::ByteWriter::new();
        huge.put_u64(1 << 60);
        image.extend_from_slice(huge.as_bytes());
        let mut gmmu = Gmmu::new(UvmConfig::default());
        gmmu.malloc_managed(Bytes::mib(1));
        let mut fresh = Engine::new(gmmu, GpuConfig::default());
        let err = fresh
            .load_state(&mut uvm_types::codec::ByteReader::new(&image))
            .unwrap_err();
        assert!(
            matches!(
                err,
                uvm_core::CheckpointError::Codec(uvm_types::codec::CodecError::BadLength { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_rejects_a_tlb_page_outside_the_managed_range() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 8)));
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let image = w.into_bytes();
        // Restored into a machine that manages 1 MB (256 pages), the
        // image loads; a TLB page id past that range does not.
        restore(&image, UvmConfig::default(), Bytes::mib(1));
        let mut tlb = Tlb::new(4);
        tlb.fill(PageId::new(256));
        let mut w = uvm_types::codec::ByteWriter::new();
        tlb.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = uvm_types::codec::ByteReader::new(&bytes).with_page_limit(256);
        assert!(matches!(
            Tlb::load_state(&mut r),
            Err(uvm_types::codec::CodecError::OutOfRange {
                value: 256,
                limit: 256,
                ..
            })
        ));
    }

    #[test]
    fn checkpoint_rejects_mismatched_machine_shape() {
        let (mut e, base) = engine_with(UvmConfig::default(), Bytes::mib(1));
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 8)));
        let mut w = uvm_types::codec::ByteWriter::new();
        e.save_state(&mut w);
        let image = w.into_bytes();
        let mut gmmu = Gmmu::new(UvmConfig::default());
        gmmu.malloc_managed(Bytes::mib(1));
        let mut other = Engine::new(
            gmmu,
            GpuConfig {
                num_sms: 4,
                ..GpuConfig::default()
            },
        );
        let mut r = uvm_types::codec::ByteReader::new(&image);
        let err = other.load_state(&mut r).unwrap_err();
        assert!(
            matches!(err, uvm_core::CheckpointError::Incompatible(_)),
            "{err}"
        );
    }

    #[test]
    fn audit_catches_a_stale_holder_bit() {
        let (mut e, base) = engine_with(
            UvmConfig::default().with_prefetch(PrefetchPolicy::None),
            Bytes::mib(1),
        );
        e.run_kernel(KernelSpec::new("k").with_block(seq_reads(base, 4)));
        e.audit().unwrap();
        // Plant a holder bit for a page no TLB caches: the reverse
        // cross-check must flag it.
        e.shootdown.note_fill(base.page().add(100), 3);
        let err = e.audit().unwrap_err();
        assert!(
            err.violations.iter().any(|v| v.contains("holder bit")),
            "{err}"
        );
    }

    #[test]
    fn watchdog_trips_with_the_fault_count() {
        let mut gmmu = Gmmu::new(UvmConfig::default().with_prefetch(PrefetchPolicy::None));
        let base = gmmu.malloc_managed(Bytes::mib(1));
        let mut e = Engine::new(
            gmmu,
            GpuConfig {
                max_kernel_cycles: Some(50_000),
                ..GpuConfig::default()
            },
        );
        let mut k = KernelSpec::new("wd");
        for b in 0..8u64 {
            k.push_block(seq_reads(base.offset(Bytes::kib(4) * (b * 16)), 16));
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.run_kernel(k)))
            .expect_err("the watchdog must trip");
        let msg = *err.downcast::<String>().expect("panic carries a message");
        assert!(
            msg.starts_with("watchdog: kernel wd exceeded 50000 cycles"),
            "{msg}"
        );
        let far_faults = e.gmmu().stats().far_faults;
        assert!(far_faults > 0, "the kernel faulted before tripping");
        assert!(msg.contains(&format!("(far-faults {far_faults},")), "{msg}");
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn zero_sms_rejected() {
        let gmmu = Gmmu::new(UvmConfig::default());
        let _ = Engine::new(
            gmmu,
            GpuConfig {
                num_sms: 0,
                ..GpuConfig::default()
            },
        );
    }
}
