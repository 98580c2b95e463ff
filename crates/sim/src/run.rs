//! Single-run driver: one workload under one configuration, plus the
//! shared warm-up prefix machinery behind sweep forking.

use std::borrow::Cow;
use std::fmt;
use std::path::PathBuf;

use uvm_core::trace::{encode_trace, TraceKind, TraceMeta, TraceRecord};
use uvm_core::{
    read_checkpoint, write_checkpoint, CheckpointError, EvictPolicy, FaultPlan, Gmmu,
    HugePageStats, PolicyRegistry, PolicySpec, PrefetchPolicy, UvmConfig,
};
use uvm_gpu::{Engine, EngineSnapshot, GpuConfig, KernelSpec, TraceEvent};
use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
use uvm_types::{Bytes, Cycle, Duration, PageId};
use uvm_workloads::Workload;

use crate::exec::RunKey;

/// A shared warm-up phase preceding the measured (tail) launches.
///
/// With a warm-up in force, the first launches of a run simulate under
/// the warm-up policies; the driver then [swaps] to the run's own
/// `prefetch`/`evict` pair for the remaining launches. Runs differing
/// *only* in their tail policies therefore share a byte-identical
/// prefix, which the [`Executor`](crate::Executor) simulates once and
/// forks per point (DESIGN.md §8).
///
/// [swaps]: Gmmu::swap_policies
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Warmup {
    /// Launches simulated under the warm-up policies. Clamped so the
    /// final launch always runs under the measured policies: at most
    /// `total launches - 1` take part in the warm-up.
    pub kernels: usize,
    /// Prefetcher in force during the warm-up.
    pub prefetch: PrefetchPolicy,
    /// Eviction policy in force during the warm-up.
    pub evict: EvictPolicy,
}

impl Default for Warmup {
    /// One warm-up launch under the paper-default policies
    /// (TBNp + LRU-4KB).
    fn default() -> Self {
        Warmup {
            kernels: 1,
            prefetch: PrefetchPolicy::TreeBasedNeighborhood,
            evict: EvictPolicy::LruPage,
        }
    }
}

impl Warmup {
    /// The number of launches actually warmed for a workload with
    /// `total` launches (the final launch is never consumed).
    pub fn effective_kernels(&self, total: usize) -> usize {
        self.kernels.min(total.saturating_sub(1))
    }
}

/// Durable-checkpoint settings for a run (DESIGN.md §12).
///
/// With a spec installed, [`run_workload`] writes a `UVMC` checkpoint
/// of the full engine state into `dir` every `every_n_kernels`
/// completed launches (always at a kernel-boundary quiescent point),
/// and *resumes* from the latest valid checkpoint when one exists.
/// The file is named after the run's [`RunKey`](crate::RunKey), which
/// deliberately excludes the checkpoint settings themselves — a
/// checkpointed run and a plain run are the same simulation, and a
/// resumed run is byte-identical to an uninterrupted one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory the `<runkey>.uvmc` files live in.
    pub dir: PathBuf,
    /// Checkpoint every N completed kernel launches (must be ≥ 1).
    pub every_n_kernels: usize,
}

/// Options for one simulation run.
///
/// `memory_frac` expresses the paper's over-subscription percentage:
/// the working set is `memory_frac` × the device memory size. `None`
/// disables the budget entirely (the "no over-subscription" setup of
/// Sec. 4.1); `Some(1.10)` is the paper's usual "110 %".
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Hardware prefetcher spec (enum selectors convert via
    /// `Into<PolicySpec>`; parameterized forms like `markov:depth=2`
    /// are first-class).
    pub prefetch: PolicySpec,
    /// Eviction policy spec.
    pub evict: PolicySpec,
    /// Working set as a multiple of device memory (`None` = unlimited
    /// memory).
    pub memory_frac: Option<f64>,
    /// Disable the prefetcher permanently once memory first fills
    /// (the Fig. 6 / Fig. 9 rule).
    pub disable_prefetch_on_oversubscription: bool,
    /// Free-page-buffer fraction (0 = no memory-threshold
    /// pre-eviction).
    pub free_buffer_frac: f64,
    /// LRU-top reservation fraction (Sec. 5.3 / Fig. 14).
    pub reserve_frac: f64,
    /// GPU-side configuration.
    pub gpu: GpuConfig,
    /// Capture the page-access trace per kernel (Fig. 12).
    pub trace: bool,
    /// Override the number of concurrent fault-handling lanes
    /// (`None` = driver default; see DESIGN.md §4).
    pub fault_lanes: Option<usize>,
    /// Dirty-only write-back instead of the paper's bulk-unit
    /// write-back (the Sec. 5.1 design-choice ablation).
    pub writeback_dirty_only: bool,
    /// RNG seed for random policies.
    pub rng_seed: u64,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] by
    /// default — nothing injected, no RNG drawn).
    pub fault_plan: FaultPlan,
    /// Shared warm-up prefix (`None` = every launch runs under
    /// `prefetch`/`evict`, the historical behavior).
    pub warmup: Option<Warmup>,
    /// Write the run's merged fault/access stream to this `UVMT` file
    /// (DESIGN.md §10). `None` (the default) records nothing and
    /// leaves the simulated run bit-identical.
    pub trace_export: Option<PathBuf>,
    /// Durable checkpoint/resume settings (DESIGN.md §12). `None`
    /// (the default) is a strict no-op: no files, no extra work, same
    /// [`RunKey`](crate::RunKey).
    pub checkpoint: Option<CheckpointSpec>,
    /// Run the [`Engine::audit`] invariant auditor at every kernel
    /// boundary. Schedule-inert (read-only cross-checks); also
    /// enabled by the `UVM_AUDIT=1` environment variable.
    pub audit: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            prefetch: PolicySpec::new("TBNp"),
            evict: PolicySpec::new("LRU-4KB"),
            memory_frac: None,
            disable_prefetch_on_oversubscription: false,
            free_buffer_frac: 0.0,
            reserve_frac: 0.0,
            gpu: GpuConfig::default(),
            trace: false,
            fault_lanes: None,
            writeback_dirty_only: false,
            rng_seed: 0x5eed,
            fault_plan: FaultPlan::none(),
            warmup: None,
            trace_export: None,
            checkpoint: None,
            audit: false,
        }
    }
}

impl RunOptions {
    /// Sets the prefetcher (builder style) — an enum selector, a
    /// [`PolicySpec`], or anything else converting into one.
    pub fn with_prefetch(mut self, p: impl Into<PolicySpec>) -> Self {
        self.prefetch = p.into();
        self
    }

    /// Sets the eviction policy — an enum selector, a [`PolicySpec`],
    /// or anything else converting into one.
    pub fn with_evict(mut self, e: impl Into<PolicySpec>) -> Self {
        self.evict = e.into();
        self
    }

    /// Sets the over-subscription fraction (1.10 = working set is
    /// 110 % of device memory).
    pub fn with_memory_frac(mut self, frac: f64) -> Self {
        self.memory_frac = Some(frac);
        self
    }

    /// Sets the Fig. 6 / Fig. 9 sticky prefetcher kill-switch.
    pub fn with_disable_prefetch_on_oversubscription(mut self, disable: bool) -> Self {
        self.disable_prefetch_on_oversubscription = disable;
        self
    }

    /// Sets the free-page-buffer fraction (memory-threshold
    /// pre-eviction).
    pub fn with_free_buffer_frac(mut self, frac: f64) -> Self {
        self.free_buffer_frac = frac;
        self
    }

    /// Sets the LRU-top reservation fraction (Sec. 5.3 / Fig. 14).
    pub fn with_reserve_frac(mut self, frac: f64) -> Self {
        self.reserve_frac = frac;
        self
    }

    /// Sets the GPU-side configuration.
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Enables per-kernel page-access trace capture (Fig. 12).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Overrides the number of concurrent fault-handling lanes.
    pub fn with_fault_lanes(mut self, lanes: usize) -> Self {
        self.fault_lanes = Some(lanes);
        self
    }

    /// Switches to dirty-only write-back (the Sec. 5.1 ablation).
    pub fn with_writeback_dirty_only(mut self, dirty_only: bool) -> Self {
        self.writeback_dirty_only = dirty_only;
        self
    }

    /// Sets the RNG seed for random policies.
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Installs a shared warm-up prefix: the first launches run under
    /// the warm-up policies, the rest under this run's own pair.
    pub fn with_warmup(mut self, warmup: Warmup) -> Self {
        self.warmup = Some(warmup);
        self
    }

    /// Exports the run's merged fault/access stream to `path` in the
    /// `UVMT` format (DESIGN.md §10).
    pub fn with_trace_export(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_export = Some(path.into());
        self
    }

    /// Enables durable checkpointing: a `UVMC` snapshot of the full
    /// engine state lands in `dir` every `every_n_kernels` launches,
    /// and the run resumes from the latest valid one when re-executed.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, every_n_kernels: usize) -> Self {
        self.checkpoint = Some(CheckpointSpec {
            dir: dir.into(),
            every_n_kernels,
        });
        self
    }

    /// Enables the GMMU/engine invariant auditor at every kernel
    /// boundary (also switched on globally by `UVM_AUDIT=1`).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Checks every option for validity in one place: numeric ranges
    /// that were previously scattered asserts, plus policy-spec
    /// resolution through the global registry. Called before any
    /// simulation starts — by the run entry points, which report
    /// [`SimError::Options`], and by `Plan::submit`, which panics — so
    /// bad options fail loudly at submission instead of deep in the
    /// engine.
    pub fn validate(&self) -> Result<(), OptionsError> {
        if let Some(frac) = self.memory_frac {
            if !frac.is_finite() || frac <= 0.0 {
                return Err(OptionsError::BadMemoryFrac(frac));
            }
        }
        for (field, value) in [
            ("free_buffer_frac", self.free_buffer_frac),
            ("reserve_frac", self.reserve_frac),
        ] {
            if !value.is_finite() || !(0.0..1.0).contains(&value) {
                return Err(OptionsError::BadFraction { field, value });
            }
        }
        if self.fault_lanes == Some(0) {
            return Err(OptionsError::ZeroFaultLanes);
        }
        if let Some(spec) = &self.checkpoint {
            if spec.every_n_kernels == 0 {
                return Err(OptionsError::ZeroCheckpointInterval);
            }
        }
        let registry = PolicyRegistry::global();
        registry
            .canonical_prefetch_spec(&self.prefetch)
            .map_err(|e| OptionsError::BadPolicy(e.to_string()))?;
        registry
            .canonical_evict_spec(&self.evict)
            .map_err(|e| OptionsError::BadPolicy(e.to_string()))?;
        Ok(())
    }
}

/// Why a [`RunOptions`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum OptionsError {
    /// `memory_frac` must be finite and positive.
    BadMemoryFrac(f64),
    /// A fraction field must lie in `0.0..1.0`.
    BadFraction {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `fault_lanes` must be at least 1 when overridden.
    ZeroFaultLanes,
    /// `checkpoint.every_n_kernels` must be at least 1.
    ZeroCheckpointInterval,
    /// A policy spec failed registry resolution (unknown name or
    /// parameter, bad value); carries the registry's message.
    BadPolicy(String),
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::BadMemoryFrac(v) => {
                write!(f, "memory_frac must be finite and positive, got {v}")
            }
            OptionsError::BadFraction { field, value } => {
                write!(f, "{field} must lie in 0.0..1.0, got {value}")
            }
            OptionsError::ZeroFaultLanes => write!(f, "fault_lanes must be at least 1"),
            OptionsError::ZeroCheckpointInterval => {
                write!(f, "checkpoint.every_n_kernels must be at least 1")
            }
            OptionsError::BadPolicy(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for OptionsError {}

/// Why a simulation run could not complete or deliver its artifacts.
///
/// Returned by [`try_run_workload`], [`simulate_prefix`] and
/// [`try_resume_run`]; the historical
/// [`run_workload`]/[`resume_run`] entry points panic with the same
/// message. The executor catches these as typed
/// [`RunError`](crate::RunError)s so one full disk or unreadable
/// checkpoint does not take a whole sweep down.
#[derive(Debug)]
pub enum SimError {
    /// The options failed [`RunOptions::validate`]; nothing was
    /// simulated.
    Options(OptionsError),
    /// A filesystem side-effect failed (trace export, directory
    /// creation): disk full, permissions, path shadowed by a file.
    Io {
        /// What the run was doing.
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Writing or reading a durable checkpoint failed in a way a cold
    /// start cannot paper over (I/O failure, version skew, or a
    /// checkpoint from a different run at this run's path).
    Checkpoint(CheckpointError),
    /// The invariant auditor found the engine state inconsistent at a
    /// kernel boundary — a simulator bug, surfaced instead of silently
    /// checkpointing garbage.
    Audit {
        /// Launch index (0-based) after which the audit ran.
        kernel: usize,
        /// Every violated invariant.
        error: uvm_core::AuditError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Options(e) => write!(f, "invalid run options: {e}"),
            SimError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            SimError::Checkpoint(e) => write!(f, "{e}"),
            SimError::Audit { kernel, error } => {
                write!(f, "invariant audit failed after kernel {kernel}: {error}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Options(e) => Some(e),
            SimError::Io { source, .. } => Some(source),
            SimError::Checkpoint(e) => Some(e),
            SimError::Audit { error, .. } => Some(error),
        }
    }
}

impl From<OptionsError> for SimError {
    fn from(e: OptionsError) -> Self {
        SimError::Options(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

impl From<CodecError> for SimError {
    fn from(e: CodecError) -> Self {
        SimError::Checkpoint(CheckpointError::Codec(e))
    }
}

/// Whether the invariant auditor is in force for `opts`: the explicit
/// flag, or the `UVM_AUDIT=1` environment switch (any value but `0`).
fn audit_enabled(opts: &RunOptions) -> bool {
    opts.audit || std::env::var("UVM_AUDIT").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The checkpoint in force for a run: the explicit
/// [`RunOptions::with_checkpoint`] spec, else the process-wide
/// `UVM_CHECKPOINT_DIR` / `UVM_CHECKPOINT_EVERY` environment override
/// (set by the bench binaries' `--checkpoint-dir`/`--checkpoint-every`
/// flags), else off. The environment route keeps every experiment
/// runner durable without threading options through each sweep — safe
/// because checkpointing never changes results or run identity. The
/// file is named after the run's [`RunKey`], which excludes the
/// checkpoint settings themselves.
fn effective_checkpoint<'w>(
    workload: &'w dyn Workload,
    opts: &RunOptions,
) -> Option<Checkpoint<'w>> {
    let (dir, every) = match &opts.checkpoint {
        Some(spec) => (spec.dir.clone(), spec.every_n_kernels),
        None => {
            let dir = std::env::var_os("UVM_CHECKPOINT_DIR").filter(|d| !d.is_empty())?;
            let every = std::env::var("UVM_CHECKPOINT_EVERY")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1);
            (PathBuf::from(dir), every)
        }
    };
    let path = dir.join(format!("{}.uvmc", RunKey::new(workload, opts).to_hex()));
    Some(Checkpoint {
        workload,
        path,
        every,
    })
}

/// Measurements from one simulation run — the raw material of every
/// figure in the paper.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub name: String,
    /// Total execution time across all kernel launches.
    pub total_time: Duration,
    /// Per-launch execution times, in launch order.
    pub kernel_times: Vec<Duration>,
    /// Working-set footprint (requested bytes).
    pub footprint: Bytes,
    /// Device-memory budget in effect (`None` = unlimited).
    pub capacity: Option<Bytes>,
    /// Completed warp accesses — the denominator of
    /// [`faults_per_kilo_access`](Self::faults_per_kilo_access).
    pub accesses: u64,
    /// Distinct far-faults serviced (Fig. 5).
    pub far_faults: u64,
    /// Pages migrated host→device.
    pub pages_migrated: u64,
    /// Pages brought in by the prefetcher.
    pub pages_prefetched: u64,
    /// Pages evicted (Fig. 10).
    pub pages_evicted: u64,
    /// Pages re-migrated after eviction (Fig. 16).
    pub pages_thrashed: u64,
    /// Prefetched pages accessed while resident (useful prefetches).
    pub prefetched_used: u64,
    /// Prefetched pages evicted without ever being accessed.
    pub prefetched_wasted: u64,
    /// Evicted pages that were clean but written back anyway
    /// (the bulk write-back overhead of Sec. 5.1).
    pub clean_pages_written_back: u64,
    /// Average PCI-e read (host→device) bandwidth in GB/s (Fig. 4).
    pub read_bandwidth_gbps: f64,
    /// Average PCI-e write-back bandwidth in GB/s.
    pub write_bandwidth_gbps: f64,
    /// Count of 4 KB transfers on the read channel (Fig. 7).
    pub read_transfers_4k: u64,
    /// Total transfers on the read channel.
    pub read_transfers: u64,
    /// Total bytes moved host→device.
    pub read_bytes: Bytes,
    /// Total bytes moved device→host.
    pub write_bytes: Bytes,
    /// Injected PCI-e transfer replays (both link directions).
    pub transfer_retries: u64,
    /// Injected transfers whose replay budget ran out.
    pub transfer_giveups: u64,
    /// Injected transient migration failures replayed as faults.
    pub migration_retries: u64,
    /// Injected migrations whose replay budget ran out.
    pub migration_giveups: u64,
    /// Pages evicted by the injected oversubscription pressure mode.
    pub emergency_evictions: u64,
    /// Total injected far-fault latency jitter, in cycles.
    pub fault_jitter_cycles: u64,
    /// Huge-page coalesce/splinter and allocator split/merge counters.
    /// All-zero ([`HugePageStats::is_clean`]) for every legacy policy —
    /// only the Mosaic pair exercises the huge-page mechanism.
    pub huge_pages: HugePageStats,
    /// Per-kernel page-access traces, if requested.
    pub traces: Vec<Vec<TraceEvent>>,
}

impl RunResult {
    /// Total time in milliseconds of simulated time.
    pub fn total_ms(&self) -> f64 {
        self.total_time.as_secs() * 1e3
    }

    /// Speed-up of this run relative to `baseline` (>1 means faster).
    pub fn speedup_vs(&self, baseline: &RunResult) -> f64 {
        baseline.total_time.as_secs() / self.total_time.as_secs()
    }

    /// Distinct far-faults per thousand completed accesses — the
    /// huge-page ablation's figure of merit (0 when nothing ran).
    pub fn faults_per_kilo_access(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.far_faults as f64 * 1000.0 / self.accesses as f64
    }
}

/// Measures a workload's working-set footprint (requested bytes across
/// managed allocations) without running it. The device budget for the
/// over-subscription experiments is derived from this, mirroring the
/// paper's definition of the working set; the rounded-up tree tails
/// remain migratable on top of it.
pub fn measure_footprint(workload: &dyn Workload) -> Bytes {
    let mut gmmu = Gmmu::new(UvmConfig::default());
    let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
    let _ = workload.build(&mut malloc);
    gmmu.allocations().total_requested()
}

/// A cold run's checkpoint file and interval, resolved once by
/// [`effective_checkpoint`].
struct Checkpoint<'w> {
    workload: &'w dyn Workload,
    path: PathBuf,
    every: usize,
}

/// One run's launch lineage: the engine, the launches still to run,
/// and everything the run has accumulated so far.
///
/// Cold runs, warm-up prefixes and forked tails all advance through
/// [`Lineage::run_to`], so launching, auditing and checkpointing exist
/// once (DESIGN.md §8). `E` is the live [`Engine`] while the lineage
/// runs, and the frozen [`EngineSnapshot`] inside a [`SweepPrefix`].
#[derive(Clone, Debug)]
struct Lineage<'k, E> {
    engine: E,
    /// Every launch of the run, in order; the first
    /// `kernel_times.len()` have run. A cold run owns the list and
    /// moves each launch out as it runs it; a forked tail borrows its
    /// prefix's list and clones each launch it runs.
    kernels: Cow<'k, [KernelSpec]>,
    kernel_times: Vec<Duration>,
    traces: Vec<Vec<TraceEvent>>,
    /// Export records so far (`None` when the run exports nothing).
    export: Option<Vec<TraceRecord>>,
    name: String,
    footprint: Bytes,
    capacity: Option<Bytes>,
}

impl Lineage<'static, Engine> {
    /// Builds the engine and launch list for `workload` under `opts`,
    /// with the warm-up pair installed when a warm-up is in force.
    fn build(workload: &dyn Workload, opts: &RunOptions) -> Self {
        let footprint = measure_footprint(workload);
        // `memory_frac` is range-checked by `RunOptions::validate`.
        let capacity = opts
            .memory_frac
            .map(|frac| Bytes::new((footprint.bytes() as f64 / frac).ceil() as u64));
        let (prefetch, evict) = match opts.warmup {
            Some(w) => (w.prefetch.into(), w.evict.into()),
            None => (opts.prefetch.clone(), opts.evict.clone()),
        };
        let mut cfg = UvmConfig::default()
            .with_prefetch(prefetch)
            .with_evict(evict)
            .with_disable_prefetch_on_oversubscription(opts.disable_prefetch_on_oversubscription)
            .with_rng_seed(opts.rng_seed)
            .with_fault_plan(opts.fault_plan);
        if let Some(capacity) = capacity {
            cfg = cfg.with_capacity(capacity);
        }
        if opts.free_buffer_frac > 0.0 {
            cfg = cfg.with_free_buffer_frac(opts.free_buffer_frac);
        }
        if opts.reserve_frac > 0.0 {
            cfg = cfg.with_reserve_frac(opts.reserve_frac);
        }
        if let Some(lanes) = opts.fault_lanes {
            cfg = cfg.with_fault_lanes(lanes);
        }
        if opts.writeback_dirty_only {
            cfg = cfg.with_writeback_dirty_only(true);
        }
        let mut gmmu = Gmmu::new(cfg);
        if opts.trace_export.is_some() {
            gmmu.enable_fault_trace();
        }
        let kernels = {
            let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
            workload.build(&mut malloc)
        };
        let mut engine = Engine::new(gmmu, opts.gpu.clone());
        if opts.trace || opts.trace_export.is_some() {
            engine.enable_trace();
        }
        Lineage {
            engine,
            kernel_times: Vec::with_capacity(kernels.len()),
            kernels: Cow::Owned(kernels),
            traces: Vec::new(),
            export: opts.trace_export.as_ref().map(|_| Vec::new()),
            name: workload.name().to_owned(),
            footprint,
            capacity,
        }
    }

    /// Freezes the lineage between launches into a forkable prefix.
    fn freeze(self) -> Lineage<'static, EngineSnapshot> {
        Lineage {
            engine: self.engine.snapshot(),
            kernels: self.kernels,
            kernel_times: self.kernel_times,
            traces: self.traces,
            export: self.export,
            name: self.name,
            footprint: self.footprint,
            capacity: self.capacity,
        }
    }
}

impl Lineage<'static, EngineSnapshot> {
    /// A fresh engine forked from the frozen one, continuing this
    /// lineage's launches under `opts`' export setting.
    fn fork(&self, opts: &RunOptions) -> Lineage<'_, Engine> {
        let mut engine = self.engine.fork();
        let export = opts.trace_export.as_ref().map(|_| {
            // A prefix built without export captured nothing for the
            // warm launches; turn capture on for the tail either way.
            engine.enable_trace();
            engine.gmmu_mut().enable_fault_trace();
            self.export.clone().unwrap_or_default()
        });
        Lineage {
            engine,
            kernels: Cow::Borrowed(&self.kernels),
            kernel_times: self.kernel_times.clone(),
            traces: self.traces.clone(),
            export,
            name: self.name.clone(),
            footprint: self.footprint,
            capacity: self.capacity,
        }
    }
}

impl Lineage<'_, Engine> {
    /// Launches in the whole run.
    fn total(&self) -> usize {
        self.kernels.len()
    }

    /// Index of the next launch to run.
    fn next(&self) -> usize {
        self.kernel_times.len()
    }

    /// Installs the run's own `prefetch`/`evict` pair (the warm-up
    /// swap).
    fn swap_policies(&mut self, opts: &RunOptions) {
        self.engine
            .gmmu_mut()
            .swap_policies(opts.prefetch.clone(), opts.evict.clone());
    }

    /// Runs the launches from [`next`](Self::next) up to (not
    /// including) `end`. With auditing enabled the invariant auditor
    /// runs after each launch, and a violation stops the run as a
    /// typed [`SimError::Audit`]. With `ckpt`, a checkpoint is written
    /// every `ckpt.every` completed launches, except after the last.
    fn run_to(
        &mut self,
        end: usize,
        opts: &RunOptions,
        ckpt: Option<&Checkpoint<'_>>,
    ) -> Result<(), SimError> {
        let audit = audit_enabled(opts);
        while self.next() < end {
            let i = self.next();
            let kernel = match &mut self.kernels {
                Cow::Owned(kernels) => std::mem::replace(&mut kernels[i], KernelSpec::new("")),
                Cow::Borrowed(kernels) => kernels[i].clone(),
            };
            self.run_launch(kernel, opts.trace);
            if audit {
                self.audit(i)?;
            }
            if let Some(ckpt) = ckpt {
                if (i + 1).is_multiple_of(ckpt.every) && i + 1 < self.total() {
                    write_checkpoint(&ckpt.path, &self.encode_state(ckpt.workload))?;
                }
            }
        }
        Ok(())
    }

    /// Runs the invariant auditor; `kernel` names the launch it
    /// follows.
    fn audit(&self, kernel: usize) -> Result<(), SimError> {
        self.engine
            .audit()
            .map_err(|error| SimError::Audit { kernel, error })
    }

    /// Runs one launch, recording its time, its trace (if enabled),
    /// and its export records (if an export stream is being
    /// collected).
    fn run_launch(&mut self, kernel: KernelSpec, trace: bool) {
        let time = self.engine.run_kernel(kernel);
        self.kernel_times.push(time);
        if !trace && self.export.is_none() {
            return;
        }
        let events = self.engine.take_trace();
        if let Some(records) = &mut self.export {
            let faults = self.engine.gmmu_mut().take_fault_trace();
            append_export_records(records, &events, &faults, self.engine.now().index());
        }
        if trace {
            self.traces.push(events);
        }
    }

    /// Writes the export (if any) and assembles the [`RunResult`].
    fn finish(self, opts: &RunOptions) -> Result<RunResult, SimError> {
        if let Some(records) = &self.export {
            write_export(opts, &self.name, records)?;
        }
        let gmmu = self.engine.gmmu();
        let stats = gmmu.stats();
        let read = gmmu.read_stats();
        let write = gmmu.write_stats();
        Ok(RunResult {
            total_time: self
                .kernel_times
                .iter()
                .fold(Duration::ZERO, |acc, &t| acc + t),
            name: self.name,
            kernel_times: self.kernel_times,
            footprint: self.footprint,
            capacity: self.capacity,
            accesses: stats.accesses,
            far_faults: stats.far_faults,
            pages_migrated: stats.pages_migrated,
            pages_prefetched: stats.pages_prefetched,
            pages_evicted: stats.pages_evicted,
            pages_thrashed: stats.pages_thrashed,
            prefetched_used: stats.prefetched_used,
            prefetched_wasted: stats.prefetched_wasted,
            clean_pages_written_back: stats.clean_pages_written_back,
            read_bandwidth_gbps: read.average_bandwidth_gbps(),
            write_bandwidth_gbps: write.average_bandwidth_gbps(),
            read_transfers_4k: read.histogram.count_4kib(),
            read_transfers: read.transfers(),
            read_bytes: read.bytes,
            write_bytes: write.bytes,
            transfer_retries: stats.fault_injection.transfer_retries,
            transfer_giveups: stats.fault_injection.transfer_giveups,
            migration_retries: stats.fault_injection.migration_retries,
            migration_giveups: stats.fault_injection.migration_giveups,
            emergency_evictions: stats.fault_injection.emergency_evictions,
            fault_jitter_cycles: stats.fault_injection.jitter_cycles,
            huge_pages: stats.huge_pages.clone(),
            traces: self.traces,
        })
    }

    /// Serializes everything a mid-run kernel boundary needs to
    /// resume: run identity, cursor, accumulated measurements, pending
    /// export records, and the full engine image as an opaque
    /// sub-buffer.
    fn encode_state(&self, workload: &dyn Workload) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(workload.name());
        w.put_str(&workload.signature());
        w.put_usize(self.total());
        w.put_usize(self.next());
        w.put_usize(self.kernel_times.len());
        for t in &self.kernel_times {
            w.put_u64(t.cycles());
        }
        w.put_usize(self.traces.len());
        for trace in &self.traces {
            w.put_usize(trace.len());
            for e in trace {
                w.put_u64(e.cycle.index());
                w.put_u64(e.page.index());
                w.put_usize(e.warp);
                w.put_bool(e.write);
            }
        }
        match &self.export {
            None => w.put_bool(false),
            Some(records) => {
                w.put_bool(true);
                w.put_usize(records.len());
                for r in records {
                    w.put_u8(r.kind.tag());
                    w.put_u64(r.cycle);
                    w.put_u64(r.page);
                }
            }
        }
        let mut ew = ByteWriter::new();
        self.engine.save_state(&mut ew);
        w.put_bytes(&ew.into_bytes());
        w.into_bytes()
    }

    /// Resumes from the checkpoint at `ckpt.path` when there is one,
    /// restoring the engine and the run's accumulators, and audits the
    /// restored state when auditing is enabled.
    ///
    /// A missing checkpoint, or a corrupt one (already quarantined as
    /// `.corrupt` by the container reader), leaves a cold start.
    /// Version skew, I/O failures, and checkpoints belonging to a
    /// different run are hard errors: silently cold-starting over them
    /// would hide real damage.
    fn resume_from(&mut self, ckpt: &Checkpoint<'_>, opts: &RunOptions) -> Result<(), SimError> {
        let payload = match read_checkpoint(&ckpt.path) {
            Ok(p) => p,
            Err(CheckpointError::Io { source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                return Ok(())
            }
            Err(e) if e.is_corruption() => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let workload = ckpt.workload;
        let total = self.total();
        let mut r = ByteReader::new(&payload);
        let name = r.get_str()?.to_owned();
        let signature = r.get_str()?.to_owned();
        if name != workload.name() || signature != workload.signature() {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint is for workload '{name}' ({signature}), \
                 not '{}' ({})",
                workload.name(),
                workload.signature()
            ))
            .into());
        }
        let stored_total = r.get_usize()?;
        if stored_total != total {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint covers a {stored_total}-launch run, this run has {total} launches"
            ))
            .into());
        }
        let next = r.get_usize()?;
        let times = r.get_usize()?;
        if next > total || times != next {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint cursor at kernel {next} with {times} recorded times"
            ))
            .into());
        }
        for _ in 0..times {
            self.kernel_times.push(Duration::from_cycles(r.get_u64()?));
        }
        let trace_count = r.get_usize()?;
        for _ in 0..trace_count {
            let events = r.get_usize()?;
            let mut trace = Vec::with_capacity(events.min(1 << 20));
            for _ in 0..events {
                trace.push(TraceEvent {
                    cycle: Cycle::new(r.get_u64()?),
                    page: PageId::new(r.get_u64()?),
                    warp: r.get_usize()?,
                    write: r.get_bool()?,
                });
            }
            self.traces.push(trace);
        }
        let had_export = r.get_bool()?;
        if had_export != self.export.is_some() {
            return Err(CheckpointError::Incompatible(
                "checkpoint and run disagree about trace export".into(),
            )
            .into());
        }
        if let Some(records) = &mut self.export {
            let n = r.get_usize()?;
            for _ in 0..n {
                let tag = r.get_u8()?;
                let kind = TraceKind::from_tag(tag).ok_or(CodecError::BadTag {
                    what: "export record kind",
                    value: u64::from(tag),
                })?;
                records.push(TraceRecord {
                    kind,
                    cycle: r.get_u64()?,
                    page: r.get_u64()?,
                });
            }
        }
        let image = r.get_bytes()?;
        let mut er = ByteReader::new(image);
        self.engine.load_state(&mut er)?;
        er.finish()?;
        r.finish()?;
        if audit_enabled(opts) {
            self.audit(next.saturating_sub(1))?;
        }
        Ok(())
    }
}

/// Merges one launch's access events and fault stream into the export
/// record list, cycle-sorted (faults first on ties), closing with a
/// kernel-boundary marker.
fn append_export_records(
    records: &mut Vec<TraceRecord>,
    events: &[TraceEvent],
    faults: &[(Cycle, PageId)],
    end_cycle: u64,
) {
    records.reserve(events.len() + faults.len() + 1);
    let fault = |&(cycle, page): &(Cycle, PageId)| TraceRecord {
        kind: TraceKind::Fault,
        cycle: cycle.index(),
        page: page.index(),
    };
    let mut faults = faults.iter().peekable();
    for e in events {
        while let Some(f) = faults.next_if(|f| f.0 <= e.cycle) {
            records.push(fault(f));
        }
        records.push(TraceRecord {
            kind: if e.write {
                TraceKind::AccessWrite
            } else {
                TraceKind::AccessRead
            },
            cycle: e.cycle.index(),
            page: e.page.index(),
        });
    }
    records.extend(faults.map(fault));
    records.push(TraceRecord {
        kind: TraceKind::KernelEnd,
        cycle: end_cycle,
        page: 0,
    });
}

/// Writes the collected export stream to `opts.trace_export`. A run
/// that was asked to export must never silently produce nothing, so
/// every filesystem failure (disk full, read-only directory, a file
/// shadowing the parent path) surfaces as a typed [`SimError::Io`].
fn write_export(opts: &RunOptions, name: &str, records: &[TraceRecord]) -> Result<(), SimError> {
    let Some(path) = &opts.trace_export else {
        return Ok(());
    };
    let meta = TraceMeta {
        workload: name.to_owned(),
        prefetch: opts.prefetch.to_string(),
        evict: opts.evict.to_string(),
        seed: opts.rng_seed,
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|source| SimError::Io {
            op: "creating trace-export dir",
            path: parent.to_path_buf(),
            source,
        })?;
    }
    std::fs::write(path, encode_trace(&meta, records)).map_err(|source| SimError::Io {
        op: "writing trace export",
        path: path.clone(),
        source,
    })
}

/// Runs `workload` under `opts` and returns the measurements.
///
/// The device-memory budget is derived from the workload's footprint
/// and `opts.memory_frac`, mirroring the paper's method of scaling the
/// memory-size parameter rather than the working set (Sec. 7.3).
///
/// With `opts.warmup` set, the first launches run under the warm-up
/// policies and the driver swaps to `opts.prefetch`/`opts.evict` for
/// the rest. The reported times and counters still cover *all*
/// launches; this in-place path is byte-identical to
/// [`simulate_prefix`] + [`resume_run`], which the fork-equivalence
/// suite asserts.
///
/// # Panics
///
/// Panics on the failures [`try_run_workload`] reports as typed
/// [`SimError`]s (invalid options, export I/O, checkpoint damage,
/// audit violations).
pub fn run_workload(workload: &dyn Workload, opts: RunOptions) -> RunResult {
    match try_run_workload(workload, opts) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_workload`] with every failure surfaced as a typed
/// [`SimError`] instead of a panic.
///
/// With `opts.checkpoint` set, the run resumes from the latest valid
/// `UVMC` checkpoint under the spec's directory (byte-identical to an
/// uninterrupted run) and writes a fresh checkpoint every
/// `every_n_kernels` completed launches. With auditing enabled
/// ([`RunOptions::with_audit`] or `UVM_AUDIT=1`), the engine's
/// invariant auditor runs at every kernel boundary — in particular at
/// every checkpoint boundary — and an inconsistency fails the run
/// rather than persisting damaged state.
pub fn try_run_workload(workload: &dyn Workload, opts: RunOptions) -> Result<RunResult, SimError> {
    opts.validate()?;
    let mut lineage = Lineage::build(workload, &opts);
    let ckpt = effective_checkpoint(workload, &opts);
    if let Some(ckpt) = &ckpt {
        lineage.resume_from(ckpt, &opts)?;
    }
    let total = lineage.total();
    let warm = opts.warmup.map_or(0, |w| w.effective_kernels(total));
    lineage.run_to(warm, &opts, ckpt.as_ref())?;
    // The cold path swaps in place rather than snapshotting, which
    // keeps the fork-equivalence suite a real differential. A
    // checkpoint taken after the swap restored the tail pair already.
    if opts.warmup.is_some() && lineage.next() == warm && warm < total {
        lineage.swap_policies(&opts);
    }
    lineage.run_to(total, &opts, ckpt.as_ref())?;
    lineage.finish(&opts)
}

/// A simulated warm-up prefix, ready to be forked into per-policy
/// tails.
///
/// Produced by [`simulate_prefix`]; consumed (any number of times) by
/// [`resume_run`]. The frozen lineage owns a deep copy of the engine,
/// so the prefix is immutable and can be shared across worker threads.
#[derive(Clone, Debug)]
pub struct SweepPrefix {
    lineage: Lineage<'static, EngineSnapshot>,
}

impl SweepPrefix {
    /// Warm-up launches contained in the prefix.
    pub fn warm_launches(&self) -> usize {
        self.lineage.kernel_times.len()
    }

    /// Launches remaining after the prefix.
    pub fn tail_launches(&self) -> usize {
        self.lineage.kernels.len() - self.warm_launches()
    }
}

/// Simulates the shared warm-up prefix of a sweep once.
///
/// `opts` must carry a warm-up; only its *shared* fields matter — the
/// tail `prefetch`/`evict` pair is ignored here and supplied per point
/// by [`resume_run`]. Prefixes neither read nor write checkpoints.
///
/// # Errors
///
/// Invalid options are [`SimError::Options`]. With auditing enabled
/// ([`RunOptions::with_audit`] or `UVM_AUDIT=1`), an invariant
/// violation after a warm-up launch is [`SimError::Audit`], which the
/// executor reports as a failure of every run in the prefix's group.
///
/// # Panics
///
/// Panics if `opts.warmup` is `None`.
pub fn simulate_prefix(
    workload: &dyn Workload,
    opts: &RunOptions,
) -> Result<SweepPrefix, SimError> {
    opts.validate()?;
    let warm = opts
        .warmup
        .expect("simulate_prefix requires RunOptions::warmup");
    let mut lineage = Lineage::build(workload, opts);
    lineage.run_to(warm.effective_kernels(lineage.total()), opts, None)?;
    Ok(SweepPrefix {
        lineage: lineage.freeze(),
    })
}

/// Resumes a run from a shared prefix under `opts`' own tail policies.
///
/// The engine is forked from the snapshot, the policies swapped to
/// `opts.prefetch`/`opts.evict`, and the remaining launches simulated.
/// The result covers the whole run (warm-up included) and is
/// byte-identical to a cold [`run_workload`] with the same options.
///
/// # Panics
///
/// Panics on the failures [`try_resume_run`] reports as typed
/// [`SimError`]s (invalid options, trace-export I/O, audit
/// violations).
pub fn resume_run(prefix: &SweepPrefix, opts: &RunOptions) -> RunResult {
    match try_resume_run(prefix, opts) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// [`resume_run`] with every failure surfaced as a typed
/// [`SimError`] instead of a panic.
pub fn try_resume_run(prefix: &SweepPrefix, opts: &RunOptions) -> Result<RunResult, SimError> {
    opts.validate()?;
    debug_assert!(
        opts.warmup.is_some(),
        "resume_run options should carry the sweep's warm-up"
    );
    let mut lineage = prefix.lineage.fork(opts);
    lineage.swap_policies(opts);
    let total = lineage.total();
    lineage.run_to(total, opts, None)?;
    lineage.finish(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_workloads::{LinearSweep, StridedTouch};

    fn sweep() -> LinearSweep {
        LinearSweep {
            pages: 256,
            repeats: 2,
            thread_blocks: 8,
        }
    }

    #[test]
    fn footprint_measured_without_running() {
        let fp = measure_footprint(&sweep());
        assert_eq!(fp, Bytes::mib(1));
    }

    #[test]
    fn unlimited_memory_never_evicts() {
        let r = run_workload(&sweep(), RunOptions::default());
        assert_eq!(r.capacity, None);
        assert_eq!(r.pages_evicted, 0);
        assert_eq!(r.pages_migrated, 256);
        assert_eq!(r.kernel_times.len(), 2);
        assert!(r.total_ms() > 0.0);
    }

    #[test]
    fn oversubscription_budget_derived_from_footprint() {
        let r = run_workload(
            &sweep(),
            RunOptions::default()
                .with_memory_frac(1.10)
                .with_prefetch(PrefetchPolicy::None),
        );
        // 1 MiB working set at 110% => ~0.909 MiB budget.
        let cap = r.capacity.unwrap();
        assert!(cap < Bytes::mib(1));
        assert!(cap > Bytes::kib(900));
        assert!(r.pages_evicted > 0);
    }

    #[test]
    fn prefetcher_reduces_far_faults() {
        let none = run_workload(
            &sweep(),
            RunOptions::default().with_prefetch(PrefetchPolicy::None),
        );
        let tbn = run_workload(
            &sweep(),
            RunOptions::default().with_prefetch(PrefetchPolicy::TreeBasedNeighborhood),
        );
        assert!(tbn.far_faults < none.far_faults / 4);
        assert!(tbn.total_time < none.total_time);
        assert!(tbn.speedup_vs(&none) > 1.0);
        assert!(none.speedup_vs(&tbn) < 1.0);
    }

    #[test]
    fn trace_capture_per_kernel() {
        let r = run_workload(
            &StridedTouch::default(),
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.traces.len(), 1);
        assert_eq!(r.traces[0].len(), 4);
    }

    #[test]
    fn warmup_with_identical_policies_matches_cold_run() {
        // Unlimited memory, warm-up pair == tail pair: the swap
        // reinstalls equivalent fresh policies, so nothing diverges.
        let cold = run_workload(&sweep(), RunOptions::default());
        let warm = run_workload(
            &sweep(),
            RunOptions::default().with_warmup(Warmup::default()),
        );
        assert_eq!(cold.total_time, warm.total_time);
        assert_eq!(cold.far_faults, warm.far_faults);
        assert_eq!(cold.kernel_times, warm.kernel_times);
    }

    #[test]
    fn warmup_clamps_to_leave_one_measured_launch() {
        let w = Warmup {
            kernels: 10,
            ..Warmup::default()
        };
        assert_eq!(w.effective_kernels(2), 1);
        assert_eq!(w.effective_kernels(1), 0);
        assert_eq!(w.effective_kernels(0), 0);
        let r = run_workload(&sweep(), RunOptions::default().with_warmup(w));
        assert_eq!(r.kernel_times.len(), 2);
    }

    #[test]
    fn prefix_resume_matches_in_place_warmed_run() {
        let opts = RunOptions::default()
            .with_memory_frac(1.10)
            .with_prefetch(PrefetchPolicy::None)
            .with_warmup(Warmup::default());
        let cold = run_workload(&sweep(), opts.clone());
        let prefix = simulate_prefix(&sweep(), &opts).unwrap();
        assert_eq!(prefix.warm_launches(), 1);
        assert_eq!(prefix.tail_launches(), 1);
        let forked = resume_run(&prefix, &opts);
        assert_eq!(format!("{cold:?}"), format!("{forked:?}"));
    }

    #[test]
    fn invalid_options_are_a_typed_error_on_every_path() {
        let bad = RunOptions::default()
            .with_memory_frac(-1.0)
            .with_warmup(Warmup::default());
        let is_options_error =
            |e: SimError| matches!(e, SimError::Options(OptionsError::BadMemoryFrac(_)));
        assert!(is_options_error(
            try_run_workload(&sweep(), bad.clone()).unwrap_err()
        ));
        assert!(is_options_error(
            simulate_prefix(&sweep(), &bad).unwrap_err()
        ));
        let good = RunOptions::default().with_warmup(Warmup::default());
        let prefix = simulate_prefix(&sweep(), &good).unwrap();
        assert!(is_options_error(try_resume_run(&prefix, &bad).unwrap_err()));
    }

    #[test]
    fn bandwidth_reflects_transfer_sizes() {
        let none = run_workload(
            &sweep(),
            RunOptions::default().with_prefetch(PrefetchPolicy::None),
        );
        // All 4 KB transfers: average bandwidth equals Table 1's 4 KB row.
        assert!((none.read_bandwidth_gbps - 3.2219).abs() < 0.01);
        assert_eq!(none.read_transfers_4k, none.read_transfers);
        let tbn = run_workload(&sweep(), RunOptions::default());
        assert!(tbn.read_bandwidth_gbps > 6.0);
    }
}
