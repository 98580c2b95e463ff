//! The traced loop: one simulation driven through the public layer
//! seams (`Gmmu::with_policies`, `Engine::new`, `Engine::run_kernel`),
//! with each layer timed from outside, around the calls into it.
//!
//! Policy time is taken by decorators wrapping the boxed
//! `Prefetcher`/`Evictor`; engine time around each `run_kernel` call;
//! set-up time around `measure_footprint` and `Workload::build`. The
//! timings go to a thread-local [`Ledger`]: the loop is
//! single-threaded, and a thread-local keeps the decorators plain data
//! as the policy traits require.
//!
//! What cannot be separated from outside — the TLBs and shootdowns,
//! the GMMU fault-service mechanism and the PCI-e model — stays inside
//! the engine's self time.
//!
//! The decorators cost host time of their own: two clock reads and a
//! ledger update per call. [`calibrate`] measures that cost on calls
//! that do nothing, so the ledger can charge it to the tracing instead
//! of to the policy rows and the engine's self time.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use uvm_core::{
    read_checkpoint, write_checkpoint, AllocId, Evictor, Gmmu, PolicyRegistry, Prefetcher,
    ResidencyView, UvmConfig,
};
use uvm_gpu::{Engine, KernelSpec};
use uvm_sim::{measure_footprint, RunOptions};
use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
use uvm_types::rng::SmallRng;
use uvm_types::{Bytes, Cycle, LargePageId, PageId};
use uvm_workloads::Workload;

use crate::grid::Outcome;

/// Host nanoseconds and call counts per layer, accumulated by the
/// traced loop and the policy decorators.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// `measure_footprint` + `Workload::build`.
    pub build_ns: u64,
    /// `Engine::run_kernel`, policy hooks included.
    pub run_kernel_ns: u64,
    pub run_kernel_calls: u64,
    /// `Prefetcher::plan`.
    pub prefetch_ns: u64,
    pub prefetch_calls: u64,
    /// `Evictor::select_victims` / `select_splinter`.
    pub select_ns: u64,
    pub select_calls: u64,
    /// `Evictor::on_access` / `on_validate` / `on_invalidate`.
    pub hook_ns: u64,
    pub hook_calls: u64,
    /// `Engine::save_state` + `write_checkpoint`.
    pub ckpt_write_ns: u64,
    /// A fresh engine + `read_checkpoint` + `Engine::load_state`.
    pub ckpt_read_ns: u64,
    pub ckpt_bytes: u64,
}

impl Ledger {
    /// Policy calls that went through a timing decorator.
    pub fn timed_calls(&self) -> u64 {
        self.prefetch_calls + self.select_calls + self.hook_calls
    }

    /// Checkpoint round trips, which only the traced loop makes.
    pub fn checkpoint_ns(&self) -> u64 {
        self.ckpt_write_ns + self.ckpt_read_ns
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Takes (and resets) this thread's ledger.
pub fn take_ledger() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

fn record(f: impl FnOnce(&mut Ledger)) {
    LEDGER.with(|l| f(&mut l.borrow_mut()));
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times `Prefetcher::plan`; forwards everything else untouched.
#[derive(Debug)]
pub struct TimedPrefetcher(pub Box<dyn Prefetcher>);

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
    ) -> Vec<Vec<PageId>> {
        let t = Instant::now();
        let groups = self.0.plan(view, rng, page, alloc);
        let ns = ns_since(t);
        record(|l| {
            l.prefetch_ns += ns;
            l.prefetch_calls += 1;
        });
        groups
    }

    fn wants_contiguous_placement(&self) -> bool {
        self.0.wants_contiguous_placement()
    }

    fn should_coalesce(&self, view: &ResidencyView<'_>, lp: LargePageId) -> bool {
        self.0.should_coalesce(view, lp)
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(TimedPrefetcher(self.0.box_clone()))
    }

    fn snapshot_box(&self) -> Box<dyn Prefetcher> {
        Box::new(TimedPrefetcher(self.0.snapshot_box()))
    }

    fn save_state(&self, w: &mut ByteWriter) {
        self.0.save_state(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.0.load_state(r)
    }
}

/// Times victim selection and the per-access hooks; forwards
/// everything else untouched.
#[derive(Debug)]
pub struct TimedEvictor(pub Box<dyn Evictor>);

impl TimedEvictor {
    fn hook(&mut self, f: impl FnOnce(&mut dyn Evictor)) {
        let t = Instant::now();
        f(self.0.as_mut());
        let ns = ns_since(t);
        record(|l| {
            l.hook_ns += ns;
            l.hook_calls += 1;
        });
    }
}

impl Evictor for TimedEvictor {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_pre_eviction(&self) -> bool {
        self.0.is_pre_eviction()
    }

    fn on_validate(&mut self, page: PageId) {
        self.hook(|e| e.on_validate(page));
    }

    fn on_access(&mut self, page: PageId) {
        self.hook(|e| e.on_access(page));
    }

    fn on_invalidate(&mut self, page: PageId) {
        self.hook(|e| e.on_invalidate(page));
    }

    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
    ) -> Option<Vec<Vec<PageId>>> {
        let start = Instant::now();
        let victims = self.0.select_victims(view, rng, t, max_pin);
        let ns = ns_since(start);
        record(|l| {
            l.select_ns += ns;
            l.select_calls += 1;
        });
        victims
    }

    fn select_splinter(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        t: Cycle,
    ) -> Option<LargePageId> {
        let start = Instant::now();
        let lp = self.0.select_splinter(view, rng, t);
        let ns = ns_since(start);
        record(|l| {
            l.select_ns += ns;
            l.select_calls += 1;
        });
        lp
    }

    fn box_clone(&self) -> Box<dyn Evictor> {
        Box::new(TimedEvictor(self.0.box_clone()))
    }

    fn snapshot_box(&self) -> Box<dyn Evictor> {
        Box::new(TimedEvictor(self.0.snapshot_box()))
    }

    fn save_state(&self, w: &mut ByteWriter) {
        self.0.save_state(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.0.load_state(r)
    }
}

/// Host cost of one timing-decorator call, apart from the call it wraps.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecoratorCost {
    /// What the timed interval reads around a call that does nothing,
    /// ns: the share charged to a policy row.
    pub inside_ns: f64,
    /// What a decorated call that does nothing takes in all, ns: the
    /// share charged to the engine's `run_kernel` time.
    pub total_ns: f64,
}

/// An evictor whose hooks do nothing, for [`calibrate`].
#[derive(Clone, Debug)]
struct NoopEvictor;

impl Evictor for NoopEvictor {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn is_pre_eviction(&self) -> bool {
        false
    }

    fn select_victims(
        &mut self,
        _view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        _t: Cycle,
        _max_pin: u8,
    ) -> Option<Vec<Vec<PageId>>> {
        None
    }

    fn box_clone(&self) -> Box<dyn Evictor> {
        Box::new(self.clone())
    }
}

const CALIBRATION_CALLS: u64 = 200_000;
const CALIBRATION_BATCHES: usize = 7;

/// Measures [`DecoratorCost`]: batches of decorated `on_access` calls,
/// through a boxed evictor as the GMMU makes them, into an evictor that
/// does nothing. Each figure is the cheapest batch's, so corrections
/// made with it err low. Leaves this thread's ledger as it found it.
pub fn calibrate() -> DecoratorCost {
    let saved = take_ledger();
    let mut evictor: Box<dyn Evictor> = Box::new(TimedEvictor(Box::new(NoopEvictor)));
    let mut cost = DecoratorCost {
        inside_ns: f64::MAX,
        total_ns: f64::MAX,
    };
    for _ in 0..CALIBRATION_BATCHES {
        let t = Instant::now();
        for i in 0..CALIBRATION_CALLS {
            evictor.on_access(std::hint::black_box(PageId::new(i)));
        }
        let total_ns = ns_since(t) as f64 / CALIBRATION_CALLS as f64;
        let inside_ns = take_ledger().hook_ns as f64 / CALIBRATION_CALLS as f64;
        cost.total_ns = cost.total_ns.min(total_ns);
        cost.inside_ns = cost.inside_ns.min(inside_ns);
    }
    LEDGER.with(|l| *l.borrow_mut() = saved);
    cost
}

/// The `UvmConfig` that `run_workload` derives from these options
/// (the grids set only policies, memory fraction and seed).
fn config(opts: &RunOptions, capacity: Option<Bytes>) -> UvmConfig {
    let mut cfg = UvmConfig::default()
        .with_prefetch(opts.prefetch.clone())
        .with_evict(opts.evict.clone())
        .with_disable_prefetch_on_oversubscription(opts.disable_prefetch_on_oversubscription)
        .with_rng_seed(opts.rng_seed)
        .with_fault_plan(opts.fault_plan);
    if let Some(capacity) = capacity {
        cfg = cfg.with_capacity(capacity);
    }
    cfg
}

/// A `Gmmu` running the configured policies behind timing decorators.
fn timed_gmmu(cfg: &UvmConfig) -> Result<Gmmu, String> {
    let registry = PolicyRegistry::global();
    let prefetcher = registry
        .build_prefetcher_spec(&cfg.prefetch, cfg)
        .map_err(|e| e.to_string())?;
    let evictor = registry
        .build_evictor_spec(&cfg.evict, cfg)
        .map_err(|e| e.to_string())?;
    Ok(Gmmu::with_policies(
        cfg.clone(),
        Box::new(TimedPrefetcher(prefetcher)),
        Box::new(TimedEvictor(evictor)),
    ))
}

/// Runs one launch, charging its time to the engine's ledger row.
fn timed_launch(engine: &mut Engine, kernel: KernelSpec) -> u64 {
    let t = Instant::now();
    let time = engine.run_kernel(kernel);
    let ns = ns_since(t);
    record(|l| {
        l.run_kernel_ns += ns;
        l.run_kernel_calls += 1;
    });
    time.cycles()
}

/// Simulates `workload` under `opts` through the timed seams.
///
/// With `checkpoint = Some((path, n))`, every `n` completed launches
/// the engine image is written to `path`, read back, and loaded into a
/// freshly built engine that carries the run on — the durable
/// checkpoint round trip, timed on both sides (building the fresh
/// engine counts as reading).
///
/// The options must be ones `run_workload` would accept; only the
/// policies, memory fraction, prefetch kill-switch, seed and fault plan
/// are honoured.
pub fn traced_run(
    workload: &dyn Workload,
    opts: &RunOptions,
    checkpoint: Option<(&Path, usize)>,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let footprint = measure_footprint(workload);
    let build_footprint_ns = ns_since(t);
    let capacity = opts
        .memory_frac
        .map(|frac| Bytes::new((footprint.bytes() as f64 / frac).ceil() as u64));
    let cfg = config(opts, capacity);
    let mut gmmu = timed_gmmu(&cfg)?;
    let t = Instant::now();
    let kernels = {
        let mut malloc = |size: Bytes| gmmu.malloc_managed(size);
        workload.build(&mut malloc)
    };
    let build_ns = build_footprint_ns + ns_since(t);
    record(|l| l.build_ns += build_ns);
    let mut engine = Engine::new(gmmu, opts.gpu.clone());

    let total = kernels.len();
    let mut kernel_times = Vec::with_capacity(total);
    for (i, kernel) in kernels.into_iter().enumerate() {
        kernel_times.push(timed_launch(&mut engine, kernel));
        let Some((path, every)) = checkpoint else {
            continue;
        };
        if (i + 1) % every != 0 || i + 1 == total {
            continue;
        }
        let t = Instant::now();
        let mut w = ByteWriter::new();
        engine.save_state(&mut w);
        let image = w.into_bytes();
        write_checkpoint(path, &image).map_err(|e| e.to_string())?;
        let write_ns = ns_since(t);

        let t = Instant::now();
        let mut fresh = Engine::new(timed_gmmu(&cfg)?, opts.gpu.clone());
        let payload = read_checkpoint(path).map_err(|e| e.to_string())?;
        let mut r = ByteReader::new(&payload);
        fresh.load_state(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        let read_ns = ns_since(t);
        engine = fresh;
        record(|l| {
            l.ckpt_write_ns += write_ns;
            l.ckpt_read_ns += read_ns;
            l.ckpt_bytes += image.len() as u64;
        });
    }
    Ok(Outcome::from_engine(
        &engine,
        footprint,
        capacity,
        kernel_times,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_core::{EvictPolicy, PrefetchPolicy};
    use uvm_sim::experiments::{suite, Scale};
    use uvm_sim::run_workload;

    /// The decorators and the benchmark's own launch loop leave every
    /// simulated output unchanged, checkpoint round trips included.
    #[test]
    fn traced_runs_match_run_workload() {
        let dir = std::env::temp_dir().join(format!("perfbench-inert-{}", std::process::id()));
        let ckpt = dir.join("run.uvmc");
        let smoke = suite(Scale::Smoke);
        let grids = [
            RunOptions::default()
                .with_prefetch(PrefetchPolicy::Random)
                .with_rng_seed(7),
            RunOptions::default()
                .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
                .with_evict(EvictPolicy::TreeBasedNeighborhood)
                .with_memory_frac(1.5),
            RunOptions::default()
                .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
                .with_evict(EvictPolicy::SequentialLocal)
                .with_memory_frac(1.1),
        ];
        for w in smoke
            .iter()
            .filter(|w| ["hotspot", "nw"].contains(&w.name()))
        {
            for opts in &grids {
                let plain = Outcome::from_result(&run_workload(w.as_ref(), opts.clone()));
                take_ledger();
                let traced = traced_run(w.as_ref(), opts, None).unwrap();
                let ledger = take_ledger();
                assert_eq!(traced, plain, "{} {opts:?}", w.name());
                assert_eq!(ledger.run_kernel_calls, plain.kernel_times.len() as u64);
                assert!(
                    ledger.hook_calls > 0
                        && ledger.run_kernel_ns
                            >= ledger.prefetch_ns + ledger.select_ns + ledger.hook_ns
                );
                if opts.memory_frac.is_some() {
                    assert!(ledger.select_calls > 0, "{}: no victim selection", w.name());
                    let resumed = traced_run(w.as_ref(), opts, Some((&ckpt, 2))).unwrap();
                    assert_eq!(resumed, plain, "{} checkpointed", w.name());
                    assert!(take_ledger().ckpt_bytes > 0);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn calibration_is_plausible_and_leaves_the_ledger_alone() {
        take_ledger();
        record(|l| l.hook_calls = 3);
        let cost = calibrate();
        assert!(cost.inside_ns > 0.0, "{cost:?}");
        assert!(cost.inside_ns <= cost.total_ns, "{cost:?}");
        assert!(cost.total_ns < 10_000.0, "{cost:?}");
        assert_eq!(take_ledger().hook_calls, 3);
    }
}
