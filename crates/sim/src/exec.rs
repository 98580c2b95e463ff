//! Run-plan execution: deduplicating, memoizing, parallel driver for
//! experiment sweeps.
//!
//! Every figure of the paper is a sweep of independent simulations,
//! and each simulation is a pure function of `(workload, RunOptions)`
//! — embarrassingly parallel and perfectly cacheable. This module
//! exploits both properties:
//!
//! * [`RunKey`] — a canonical, process-stable 128-bit hash of the
//!   workload identity plus every [`RunOptions`] field (including the
//!   fault-injection plan) and the simulator revision;
//! * [`Plan`] — collects the runs an experiment set needs *before*
//!   executing anything, so identical configurations shared by
//!   several figures (Figs. 3/4/5 share one prefetcher sweep) are
//!   simulated once;
//! * [`Executor`] — executes the unique runs of a plan across a
//!   `std::thread::scope` worker pool, memoizes every [`RunResult`]
//!   in-process, and optionally spills results as checksummed JSON
//!   under a cache directory (`results/cache/`) so `all_experiments`
//!   can resume.
//!
//! The executor is hardened against the failure modes of long sweeps:
//!
//! * a panicking run is caught at the run boundary and reported as a
//!   typed [`RunError`] while its siblings complete (a run is a pure
//!   function of its inputs, so it is never retried, and every
//!   data-driven loop in the model has its own bound, so no run needs
//!   a watchdog — see DESIGN.md §6);
//! * spill entries carry a `uvmspill v3 crc=…` header and are
//!   published atomically (temp file + rename), so a crash mid-write
//!   or bit rot is detected, the entry quarantined as `*.corrupt`,
//!   and the run recomputed instead of misread;
//! * typed simulation failures (checkpoint I/O, trace export to a
//!   dead disk, invariant-audit violations) surface as
//!   [`RunError::Failed`] instead of panics;
//! * an optional write-ahead sweep journal
//!   ([`Executor::with_journal`]) records submit/complete per unique
//!   run, and [`Plan::resume`] replays it after a crash — completed
//!   runs are served from verified spill entries, interrupted ones
//!   restart from their latest checkpoint.
//!
//! Results are returned in submission order, so a plan's output is
//! byte-identical no matter how many workers execute it.
//!
//! # Sweep prefix forking
//!
//! Runs carrying a [`Warmup`](crate::Warmup) that agree on every field
//! *except* the tail `prefetch`/`evict` pair share a byte-identical
//! warm-up prefix. The executor detects such groups at execution time,
//! simulates the prefix once ([`crate::simulate_prefix`]), snapshots
//! the engine, and fans the per-policy tails out across the worker
//! pool ([`crate::resume_run`]) — turning a P-point sweep from
//! `O(P × run)` into `O(warm-up + P × tail)`. Forked results are
//! byte-identical to cold runs of the same options (the
//! fork-equivalence suite asserts this), so the memo and spill caches
//! never distinguish the two. Disable with
//! [`Executor::with_prefix_forking`]`(false)`.
//!
//! # Examples
//!
//! ```
//! use uvm_sim::{Executor, RunOptions};
//! use uvm_workloads::LinearSweep;
//!
//! let sweep = LinearSweep { pages: 64, repeats: 1, thread_blocks: 2 };
//! let exec = Executor::new(2);
//! let mut plan = exec.plan();
//! plan.submit(&sweep, RunOptions::default());
//! plan.submit(&sweep, RunOptions::default()); // duplicate: simulated once
//! let results = plan.execute();
//! assert_eq!(results.len(), 2);
//! assert_eq!(exec.runs_executed(), 1);
//! ```

use std::collections::HashMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use uvm_core::{HugePageStats, PolicyRegistry};
use uvm_types::codec::payload_checksum;
use uvm_types::hash::StableHasher;
use uvm_types::{Bytes, Duration};
use uvm_workloads::Workload;

use crate::error::{ExecutionReport, RunError};
use crate::journal::Journal;
use crate::run::{
    simulate_prefix, try_resume_run, try_run_workload, RunOptions, RunResult, SimError, SweepPrefix,
};

/// Spill-format version; bump when [`RunResult`] fields change so
/// stale cache entries are ignored rather than misread.
const SPILL_VERSION: u64 = 3;

/// Simulator behaviour revision, folded into every [`RunKey`]. Bump
/// when a model change alters results without any [`RunOptions`]
/// field changing, so stale spill entries stop matching. (v3: the
/// markov/learned prediction chain is capped at `degree` steps.)
const SIM_REVISION: u64 = 3;

/// A canonical, process-stable identity of one simulation run.
///
/// Two runs get the same key exactly when they simulate the same
/// workload (same [`Workload::signature`]) under the same
/// [`RunOptions`] — fault plan included — on the same simulator
/// revision; any change produces a different key. Durability-only
/// options (the checkpoint spec, the audit flag) are deliberately
/// *excluded*: they must never change results, so a checkpointed run
/// and a plain run share one cache entry — and the key doubles as the
/// checkpoint file's name, letting a resumed sweep find the partial
/// state of the exact run it is re-attempting. The key also names the
/// on-disk spill entry, so it must not depend on the process's hash
/// seeds — it is built on the FNV-based [`StableHasher`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(u128);

/// Hashes every behaviour-affecting [`RunOptions`] field shared by a
/// sweep's prefix — everything except the tail `prefetch`/`evict`
/// pair. Both the run key and the prefix-group digest build on this,
/// so the two can never silently disagree about what "same prefix"
/// means. The `checkpoint` and `audit` fields are intentionally NOT
/// hashed: checkpointing off must be a strict no-op on identity, and
/// the auditor only reads state.
fn hash_shared_opts(h: &mut StableHasher, opts: &RunOptions) {
    h.write_opt_f64(opts.memory_frac);
    h.write_bool(opts.disable_prefetch_on_oversubscription);
    h.write_f64(opts.free_buffer_frac);
    h.write_f64(opts.reserve_frac);
    // GpuConfig is plain data; its Debug rendering covers every
    // field.
    h.write_str(&format!("{:?}", opts.gpu));
    h.write_bool(opts.trace);
    // Trace export is part of the run identity; belt-and-braces on top
    // of the executor treating exporting runs as uncacheable, so even
    // a stale pre-existing spill entry can never satisfy one.
    match &opts.trace_export {
        None => h.write_bool(false),
        Some(path) => {
            h.write_bool(true);
            h.write_str(&path.display().to_string());
        }
    }
    match opts.fault_lanes {
        None => h.write_bool(false),
        Some(lanes) => {
            h.write_bool(true);
            h.write_u64(lanes as u64);
        }
    }
    h.write_bool(opts.writeback_dirty_only);
    h.write_u64(opts.rng_seed);
    opts.fault_plan.hash_into(h);
    // The warm-up is part of the run identity (fork lineage): a warmed
    // run and an unwarmed run of the same tail policies are different
    // simulations, and every fork of one prefix hashes that prefix.
    match opts.warmup {
        None => h.write_bool(false),
        Some(w) => {
            h.write_bool(true);
            h.write_u64(w.kernels as u64);
            h.write_str(&format!("{:?}", w.prefetch));
            h.write_str(&format!("{:?}", w.evict));
        }
    }
}

/// Digest of a run's *shared prefix*: the workload plus every option
/// except the tail policies. Two runs fork from one warm-up snapshot
/// exactly when their digests match (and a warm-up is present).
fn prefix_digest(workload: &dyn Workload, opts: &RunOptions) -> u128 {
    let mut h = StableHasher::new();
    h.write_str("uvm-prefix-v2");
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_u64(SIM_REVISION);
    h.write_str(workload.name());
    h.write_str(&workload.signature());
    hash_shared_opts(&mut h, opts);
    h.finish()
}

impl RunKey {
    /// Computes the key of `(workload, opts)`.
    pub fn new(workload: &dyn Workload, opts: &RunOptions) -> Self {
        let mut h = StableHasher::new();
        h.write_str("uvm-runkey-v4");
        h.write_str(env!("CARGO_PKG_VERSION"));
        h.write_u64(SIM_REVISION);
        h.write_str(workload.name());
        h.write_str(&workload.signature());
        // Specs hash by *canonical* Display form — aliases resolved
        // through the registry first — so `LRNp:table=…` and
        // `learned:table=…` name one cache entry, `markov:depth=2` and
        // `markov:table=4096,...` name distinct ones, and parameter
        // *order* never matters. A spec the registry rejects (caught
        // later by `RunOptions::validate`) hashes as written.
        let registry = PolicyRegistry::global();
        let prefetch = registry
            .canonical_prefetch_spec(&opts.prefetch)
            .unwrap_or_else(|_| opts.prefetch.clone());
        let evict = registry
            .canonical_evict_spec(&opts.evict)
            .unwrap_or_else(|_| opts.evict.clone());
        h.write_str(&prefetch.to_string());
        h.write_str(&evict.to_string());
        // A `learned:table=PATH` run is defined by the table's
        // *content*, not its path: retraining over the same file must
        // not be served stale spill entries, so the bytes fold in too.
        // Keyed off the canonical name so alias spellings get the same
        // staleness protection.
        if prefetch.name() == "learned" {
            if let Some(path) = prefetch.param("table") {
                match std::fs::read(path) {
                    Ok(bytes) => h.write_bytes(&bytes),
                    Err(_) => h.write_str("unreadable"),
                }
            }
        }
        hash_shared_opts(&mut h, opts);
        RunKey(h.finish())
    }

    /// A key from a raw digest; lets tests fabricate keys without a
    /// workload in hand.
    #[cfg(test)]
    pub(crate) fn from_digest(digest: u128) -> Self {
        RunKey(digest)
    }

    /// The key as a fixed-width hex string (the spill file stem and
    /// the checkpoint file stem).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a key back from its [`to_hex`](Self::to_hex) rendering —
    /// the form the sweep journal stores on disk.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(RunKey)
    }
}

struct Submission<'w> {
    key: RunKey,
    workload: &'w dyn Workload,
    opts: RunOptions,
}

/// A batch of runs collected before execution.
///
/// Built by [`Executor::plan`]; submissions are deduplicated by
/// [`RunKey`] at execution time.
pub struct Plan<'e, 'w> {
    exec: &'e Executor,
    subs: Vec<Submission<'w>>,
}

impl<'e, 'w> Plan<'e, 'w> {
    /// Adds one run to the plan and returns its index in the result
    /// vector [`execute`](Self::execute) will produce.
    ///
    /// # Panics
    ///
    /// Panics if the options fail [`RunOptions::validate`] — bad
    /// submissions die here, at the call site that wrote them, not in
    /// a worker thread deep in the engine.
    ///
    /// [`RunOptions::validate`]: crate::RunOptions::validate
    pub fn submit(&mut self, workload: &'w dyn Workload, opts: RunOptions) -> usize {
        if let Err(e) = opts.validate() {
            panic!("{}", SimError::Options(e));
        }
        self.subs.push(Submission {
            key: RunKey::new(workload, &opts),
            workload,
            opts,
        });
        self.subs.len() - 1
    }

    /// Number of submitted runs (duplicates included).
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` if nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Executes the plan and returns one result per submission, in
    /// submission order. Duplicate keys are simulated once; results
    /// already memoized (or spilled to disk) by the executor are not
    /// simulated at all.
    ///
    /// # Panics
    ///
    /// Panics with an aggregated message if any run fails (a caught
    /// panic or a typed simulation error). Use
    /// [`try_execute`](Self::try_execute) to keep the surviving
    /// results instead.
    pub fn execute(self) -> Vec<Arc<RunResult>> {
        let report = self.exec.execute_report(self.subs, false);
        if !report.failures.is_empty() {
            let mut msg = String::from("experiment sweep failed:\n");
            for f in &report.failures {
                msg.push_str("  ");
                msg.push_str(&f.to_string());
                msg.push('\n');
            }
            panic!("{msg}");
        }
        report
            .results
            .into_iter()
            .map(|r| r.expect("report without failures has every result"))
            .collect()
    }

    /// Executes the plan without aborting on failed runs: every
    /// submission whose simulation completed gets its result, each
    /// distinct failure is reported as a [`RunError`], and the sweep
    /// as a whole always returns.
    pub fn try_execute(self) -> ExecutionReport {
        self.exec.execute_report(self.subs, false)
    }

    /// Executes the plan in crash-recovery mode: the executor's sweep
    /// journal (see [`Executor::with_journal`]) is replayed first, so
    /// spill-cache hits the journal vouches for count as `recovered`
    /// and members the journal shows as interrupted are restarted and
    /// counted as `resumed` — from their latest valid checkpoint when
    /// [`RunOptions::with_checkpoint`] is on. Without a journal this
    /// is identical to [`try_execute`](Self::try_execute).
    ///
    /// [`RunOptions::with_checkpoint`]: crate::RunOptions::with_checkpoint
    pub fn resume(self) -> ExecutionReport {
        self.exec.execute_report(self.subs, true)
    }
}

/// The deduplicating, memoizing, fault-tolerant run executor.
///
/// One executor is meant to live for a whole experiment session (all
/// figures of one binary invocation): its in-process cache is what
/// lets later figures reuse the sweeps of earlier ones, and its
/// failure log accumulates across plans so a final
/// [`failure_report`](Executor::failure_report) covers the session.
pub struct Executor {
    jobs: usize,
    spill_dir: Option<PathBuf>,
    prefix_forking: bool,
    journal: Option<Journal>,
    cache: Mutex<HashMap<RunKey, Arc<RunResult>>>,
    failures: Mutex<Vec<RunError>>,
    executed: AtomicUsize,
    hits: AtomicUsize,
    quarantined: AtomicUsize,
    prefixes: AtomicUsize,
}

impl Executor {
    /// An executor running up to `jobs` simulations concurrently.
    /// `jobs == 0` selects the machine's available parallelism,
    /// resolved once here — never re-queried per plan.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        Executor {
            jobs,
            spill_dir: None,
            prefix_forking: true,
            journal: None,
            cache: Mutex::new(HashMap::new()),
            failures: Mutex::new(Vec::new()),
            executed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            prefixes: AtomicUsize::new(0),
        }
    }

    /// Enables the JSON spill cache under `dir` (typically
    /// `results/cache/`). Completed runs — except trace-capturing and
    /// trace-exporting ones, which are uncacheable — are written
    /// atomically as `<runkey-hex>.json` with a checksum header;
    /// later executions (same or future process) load them instead of
    /// re-simulating. Corrupt entries are renamed to `*.json.corrupt`
    /// and recomputed. Delete the directory to clear the cache.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Enables the write-ahead sweep journal at `path` (see
    /// [`crate::Journal`]). Each unique run appends a submit record
    /// before simulating and a done record the moment its result is
    /// durably stored, so a sweep re-run with [`Plan::resume`] after a
    /// crash — SIGKILL included — skips journal-vouched spill hits and
    /// restarts only the interrupted members. Pair with
    /// [`with_spill_dir`](Self::with_spill_dir): without a spill cache
    /// the journal still attributes interruptions but has no stored
    /// results to recover.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(Journal::new(path));
        self
    }

    /// Enables or disables sweep prefix forking (on by default).
    /// Disabled, every warmed run simulates its own warm-up in place —
    /// same results, no sharing; the sweep bench uses this as its
    /// cold baseline.
    pub fn with_prefix_forking(mut self, enabled: bool) -> Self {
        self.prefix_forking = enabled;
        self
    }

    /// The worker-pool width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Simulations actually executed to completion (cache misses) so
    /// far.
    pub fn runs_executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// Submissions satisfied from the in-process or spill cache.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Spill-cache entries found corrupt, quarantined as
    /// `*.json.corrupt`, and recomputed.
    pub fn quarantined_entries(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Shared warm-up prefixes simulated (each one served a group of
    /// forked tails that would otherwise have re-simulated it).
    pub fn prefixes_simulated(&self) -> usize {
        self.prefixes.load(Ordering::Relaxed)
    }

    /// Every failed run recorded by this executor, across all plans.
    pub fn failures(&self) -> Vec<RunError> {
        self.lock_failures().clone()
    }

    /// An end-of-sweep failure report, or `None` when every run
    /// completed cleanly and no cache entry was quarantined.
    pub fn failure_report(&self) -> Option<String> {
        let failures = self.lock_failures();
        let quarantined = self.quarantined_entries();
        if failures.is_empty() && quarantined == 0 {
            return None;
        }
        let mut s = String::from("== sweep failure report ==\n");
        s.push_str(&format!(
            "{} failed run(s), {} quarantined spill entr{}\n",
            failures.len(),
            quarantined,
            if quarantined == 1 { "y" } else { "ies" },
        ));
        for f in failures.iter() {
            s.push_str("  - ");
            s.push_str(&f.to_string());
            s.push('\n');
        }
        s.push_str(&format!(
            "{} run(s) executed, {} cache hit(s)\n",
            self.runs_executed(),
            self.cache_hits(),
        ));
        Some(s)
    }

    /// Starts an empty plan against this executor.
    pub fn plan(&self) -> Plan<'_, '_> {
        Plan {
            exec: self,
            subs: Vec::new(),
        }
    }

    /// Convenience: a single run through the cache machinery.
    pub fn run_one(&self, workload: &dyn Workload, opts: RunOptions) -> Arc<RunResult> {
        let mut plan = self.plan();
        plan.submit(workload, opts);
        plan.execute().pop().expect("one submission, one result")
    }

    /// A lock that survives a worker's panic: the data under it is
    /// only ever replaced wholesale, so a poisoned guard still holds
    /// consistent state.
    fn lock_cache(&self) -> MutexGuard<'_, HashMap<RunKey, Arc<RunResult>>> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_failures(&self) -> MutexGuard<'_, Vec<RunError>> {
        self.failures.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs one unit of simulation work — a cold run, a group's
    /// warm-up prefix, or a forked tail — with panics caught at this
    /// boundary, so one bad run cannot take the worker pool down.
    /// Typed simulation failures (I/O, checkpoint, audit) become
    /// [`Failure::Sim`].
    fn attempt<T>(work: impl FnOnce() -> Result<T, SimError>) -> Result<T, Failure> {
        match catch_unwind(AssertUnwindSafe(work)) {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(e)) => Err(Failure::Sim(e.to_string())),
            Err(payload) => Err(Failure::Panic(panic_message(payload))),
        }
    }

    /// Runs `f(0..len)` across the worker pool and collects the
    /// outcomes by index. `f` must not panic (simulation panics are
    /// already caught inside [`Executor::attempt`]).
    fn parallel_map<T: Send>(&self, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(len).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(f(i));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("worker pool drained every slot")
            })
            .collect()
    }

    fn execute_report(&self, subs: Vec<Submission<'_>>, resume: bool) -> ExecutionReport {
        // Crash-recovery mode replays the sweep journal before
        // touching the caches, so spill hits can be attributed to
        // journal-vouched completions and re-runs to interruptions.
        let replay = match (&self.journal, resume) {
            (Some(j), true) => Some(j.replay()),
            _ => None,
        };
        let mut recovered = 0usize;
        let mut resumed = 0usize;
        // Resolve each submission against the caches; collect the
        // unique keys that still need simulating, in first-seen order.
        let mut todo: Vec<&Submission<'_>> = Vec::new();
        {
            let mut cache = self.lock_cache();
            let mut claimed: Vec<RunKey> = Vec::new();
            for sub in &subs {
                // An exporting run's deliverable is the trace *file*,
                // which only an actual simulation writes: a memo or
                // spill hit would skip `write_export` and silently
                // produce no trace (e.g. after the user deleted the
                // .uvmt). Exporting runs therefore always simulate.
                let cacheable = sub.opts.trace_export.is_none();
                if cacheable {
                    if cache.contains_key(&sub.key) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if let Some(spilled) = self.load_spill(sub.key) {
                        // The spill entry passed its checksum AND the
                        // journal saw this run complete: a genuine
                        // crash recovery, not a routine warm cache.
                        if replay.as_ref().is_some_and(|r| r.is_completed(sub.key)) {
                            recovered += 1;
                        }
                        cache.insert(sub.key, Arc::new(spilled));
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                if claimed.contains(&sub.key) {
                    // Duplicate within this plan: simulated once.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if replay.as_ref().is_some_and(|r| r.was_interrupted(sub.key)) {
                    resumed += 1;
                }
                claimed.push(sub.key);
                todo.push(sub);
            }
        }

        // Write-ahead: journal every run we are about to simulate
        // before any worker starts, so a crash at ANY later point
        // leaves each of them attributable as interrupted.
        if let Some(journal) = &self.journal {
            for sub in &todo {
                let _ = journal.record_submitted(sub.key, sub.workload.name());
            }
        }

        let mut failures: Vec<RunError> = Vec::new();
        if !todo.is_empty() {
            // Workers publish each completed run durably (spill entry
            // + journal done record) the moment it finishes — see
            // `publish` — so only the memo insert happens here.
            let outcomes = self.execute_todo(&todo);
            let mut cache = self.lock_cache();
            for (sub, outcome) in todo.iter().zip(outcomes) {
                match outcome {
                    Ok(result) => {
                        cache.insert(sub.key, Arc::new(result));
                    }
                    Err(err) => failures.push(err),
                }
            }
        }

        if !failures.is_empty() {
            self.lock_failures().extend(failures.iter().cloned());
        }
        let cache = self.lock_cache();
        let results = subs
            .iter()
            .map(|sub| cache.get(&sub.key).map(Arc::clone))
            .collect();
        ExecutionReport {
            results,
            failures,
            recovered,
            resumed,
        }
    }

    /// Durably publishes one completed run from a worker thread: the
    /// spill entry first, then the journal `D` record that vouches for
    /// it. Ordered so a crash between the two can only lose the
    /// vouching, never fabricate it — `Plan::resume` then re-runs the
    /// member, which is safe.
    fn publish(&self, sub: &Submission<'_>, result: &RunResult) {
        self.store_spill(sub.key, &sub.opts, result);
        if let Some(journal) = &self.journal {
            let _ = journal.record_done(sub.key);
        }
    }

    /// Simulates the deduplicated `todo` list, forking shared warm-up
    /// prefixes where possible, and returns one outcome per entry.
    ///
    /// Phase A runs the cold/in-place runs and the shared prefixes on
    /// one pool pass; phase B fans the forked tails of the successful
    /// prefixes out on a second pass. A failed prefix fails every
    /// member of its group (each with its own key and name).
    fn execute_todo(&self, todo: &[&Submission<'_>]) -> Vec<Result<RunResult, RunError>> {
        // Group warmed runs by shared-prefix digest, in first-seen
        // order; everything else (and singleton groups, which gain
        // nothing from a snapshot) simulates cold.
        let mut cold: Vec<usize> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if self.prefix_forking {
            let mut by_digest: HashMap<u128, usize> = HashMap::new();
            for (i, sub) in todo.iter().enumerate() {
                if sub.opts.warmup.is_some() {
                    let digest = prefix_digest(sub.workload, &sub.opts);
                    match by_digest.get(&digest) {
                        Some(&g) => groups[g].push(i),
                        None => {
                            by_digest.insert(digest, groups.len());
                            groups.push(vec![i]);
                        }
                    }
                } else {
                    cold.push(i);
                }
            }
            groups.retain(|members| {
                if members.len() < 2 {
                    cold.extend(members.iter().copied());
                    false
                } else {
                    true
                }
            });
            cold.sort_unstable();
        } else {
            cold.extend(0..todo.len());
        }

        enum Job {
            Cold(usize),
            Prefix(usize),
        }
        enum Done {
            Run(usize, Box<Result<RunResult, RunError>>),
            Prefix(usize, Result<Arc<SweepPrefix>, Failure>),
        }
        let jobs: Vec<Job> = cold
            .iter()
            .map(|&i| Job::Cold(i))
            .chain((0..groups.len()).map(Job::Prefix))
            .collect();

        let phase_a = self.parallel_map(jobs.len(), |j| match jobs[j] {
            Job::Cold(i) => {
                let sub = todo[i];
                let outcome = Self::attempt(|| try_run_workload(sub.workload, sub.opts.clone()))
                    .map_err(|failure| failure.into_run_error(sub));
                if let Ok(result) = &outcome {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    self.publish(sub, result);
                }
                Done::Run(i, Box::new(outcome))
            }
            Job::Prefix(g) => {
                let sub = todo[groups[g][0]];
                let outcome =
                    Self::attempt(|| simulate_prefix(sub.workload, &sub.opts).map(Arc::new));
                if outcome.is_ok() {
                    self.prefixes.fetch_add(1, Ordering::Relaxed);
                }
                Done::Prefix(g, outcome)
            }
        });

        let mut outcomes: Vec<Option<Result<RunResult, RunError>>> =
            todo.iter().map(|_| None).collect();
        let mut tails: Vec<(usize, Arc<SweepPrefix>)> = Vec::new();
        for done in phase_a {
            match done {
                Done::Run(i, outcome) => outcomes[i] = Some(*outcome),
                Done::Prefix(g, Ok(prefix)) => {
                    tails.extend(groups[g].iter().map(|&i| (i, Arc::clone(&prefix))));
                }
                Done::Prefix(g, Err(failure)) => {
                    for &i in &groups[g] {
                        outcomes[i] = Some(Err(failure.clone().into_run_error(todo[i])));
                    }
                }
            }
        }

        let phase_b = self.parallel_map(tails.len(), |j| {
            let (i, ref prefix) = tails[j];
            let sub = todo[i];
            let outcome = Self::attempt(|| try_resume_run(prefix, &sub.opts))
                .map_err(|failure| failure.into_run_error(sub));
            if let Ok(result) = &outcome {
                self.executed.fetch_add(1, Ordering::Relaxed);
                self.publish(sub, result);
            }
            (i, outcome)
        });
        for (i, outcome) in phase_b {
            outcomes[i] = Some(outcome);
        }

        outcomes
            .into_iter()
            .map(|o| o.expect("every todo entry resolved by phase A or B"))
            .collect()
    }

    fn spill_path(&self, key: RunKey) -> Option<PathBuf> {
        self.spill_dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.to_hex())))
    }

    fn load_spill(&self, key: RunKey) -> Option<RunResult> {
        let path = self.spill_path(key)?;
        let text = fs::read_to_string(&path).ok()?;
        match spill::decode_entry(&text) {
            Some(result) => Some(result),
            None => {
                // Truncated, bit-flipped, or version-skewed entry:
                // quarantine it for post-mortem and recompute the run.
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                let _ = fs::rename(&path, path.with_extension("json.corrupt"));
                None
            }
        }
    }

    fn store_spill(&self, key: RunKey, opts: &RunOptions, result: &RunResult) {
        // Traces are huge and figure-local; trace runs are memoized
        // in-process only. Exporting runs never spill at all — their
        // point is the side-effect file, which a spill hit in a later
        // process would silently skip.
        if opts.trace || opts.trace_export.is_some() {
            return;
        }
        let Some(path) = self.spill_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            if fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        // Atomic publish: write a private temp file, then rename it
        // into place, so a crash mid-write never leaves a truncated
        // `.json` for a later process to trip over. Best-effort: a
        // failed spill only costs a future re-run.
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if fs::write(&tmp, spill::encode_entry(result)).is_err() || fs::rename(&tmp, &path).is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }
}

/// A failed isolation attempt, not yet tied to a particular
/// submission: a prefix failure fans out into one [`RunError`] per
/// group member.
#[derive(Clone, Debug)]
enum Failure {
    Panic(String),
    /// A typed [`SimError`](crate::run::SimError) — checkpoint I/O,
    /// trace export to a dead disk, or an invariant-audit violation —
    /// rendered to a string so it stays `Clone` for prefix fan-out.
    Sim(String),
}

impl Failure {
    fn into_run_error(self, sub: &Submission<'_>) -> RunError {
        let name = sub.workload.name().to_string();
        match self {
            Failure::Panic(message) => RunError::Panicked {
                name,
                key: sub.key,
                message,
            },
            Failure::Sim(message) => RunError::Failed {
                name,
                key: sub.key,
                message,
            },
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Hand-rolled JSON encode/decode for [`RunResult`] spill entries.
///
/// The workspace builds offline (no serde); each entry is a one-line
/// `uvmspill v3 crc=<fnv128-hex>` header followed by a flat JSON
/// object with `f64` fields stored as exact IEEE-754 bit patterns so
/// round-trips are lossless. The checksum covers the JSON body;
/// entries whose header, checksum, version, or body fail to validate
/// decode to `None`.
mod spill {
    use super::*;

    /// Encodes a full spill entry: checksum header plus JSON body.
    pub(super) fn encode_entry(r: &RunResult) -> String {
        let body = encode(r);
        let crc = payload_checksum(body.as_bytes());
        format!("uvmspill v{SPILL_VERSION} crc={crc:032x}\n{body}")
    }

    /// Validates the header and checksum, then decodes the body.
    pub(super) fn decode_entry(text: &str) -> Option<RunResult> {
        let (header, body) = text.split_once('\n')?;
        let rest = header.strip_prefix("uvmspill v")?;
        let (version, crc_hex) = rest.split_once(" crc=")?;
        if version.parse::<u64>().ok()? != SPILL_VERSION {
            return None;
        }
        let crc = u128::from_str_radix(crc_hex, 16).ok()?;
        if payload_checksum(body.as_bytes()) != crc {
            return None;
        }
        decode(body)
    }

    fn encode(r: &RunResult) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        push_field(&mut s, "v", SPILL_VERSION);
        s.push_str(",\"name\":\"");
        escape_into(&mut s, &r.name);
        s.push('"');
        push_field(&mut s, ",total_time", r.total_time.cycles());
        s.push_str(",\"kernel_times\":[");
        for (i, t) in r.kernel_times.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.cycles().to_string());
        }
        s.push(']');
        push_field(&mut s, ",footprint", r.footprint.bytes());
        match r.capacity {
            None => s.push_str(",\"capacity\":null"),
            Some(c) => push_field(&mut s, ",capacity", c.bytes()),
        }
        push_field(&mut s, ",accesses", r.accesses);
        push_field(&mut s, ",far_faults", r.far_faults);
        push_field(&mut s, ",pages_migrated", r.pages_migrated);
        push_field(&mut s, ",pages_prefetched", r.pages_prefetched);
        push_field(&mut s, ",pages_evicted", r.pages_evicted);
        push_field(&mut s, ",pages_thrashed", r.pages_thrashed);
        push_field(&mut s, ",prefetched_used", r.prefetched_used);
        push_field(&mut s, ",prefetched_wasted", r.prefetched_wasted);
        push_field(
            &mut s,
            ",clean_pages_written_back",
            r.clean_pages_written_back,
        );
        push_field(
            &mut s,
            ",read_bandwidth_bits",
            r.read_bandwidth_gbps.to_bits(),
        );
        push_field(
            &mut s,
            ",write_bandwidth_bits",
            r.write_bandwidth_gbps.to_bits(),
        );
        push_field(&mut s, ",read_transfers_4k", r.read_transfers_4k);
        push_field(&mut s, ",read_transfers", r.read_transfers);
        push_field(&mut s, ",read_bytes", r.read_bytes.bytes());
        push_field(&mut s, ",write_bytes", r.write_bytes.bytes());
        push_field(&mut s, ",transfer_retries", r.transfer_retries);
        push_field(&mut s, ",transfer_giveups", r.transfer_giveups);
        push_field(&mut s, ",migration_retries", r.migration_retries);
        push_field(&mut s, ",migration_giveups", r.migration_giveups);
        push_field(&mut s, ",emergency_evictions", r.emergency_evictions);
        push_field(&mut s, ",fault_jitter_cycles", r.fault_jitter_cycles);
        push_field(&mut s, ",hp_coalesces", r.huge_pages.coalesces);
        push_field(&mut s, ",hp_splinters", r.huge_pages.splinters);
        push_field(
            &mut s,
            ",hp_forced_splinters",
            r.huge_pages.forced_splinters,
        );
        push_field(&mut s, ",hp_alloc_splits", r.huge_pages.alloc_splits);
        push_field(&mut s, ",hp_alloc_merges", r.huge_pages.alloc_merges);
        push_field(
            &mut s,
            ",hp_regions_reserved",
            r.huge_pages.regions_reserved,
        );
        push_field(&mut s, ",hp_region_steals", r.huge_pages.region_steals);
        s.push('}');
        s
    }

    fn push_field(s: &mut String, key_with_comma: &str, v: u64) {
        let (comma, key) = match key_with_comma.strip_prefix(',') {
            Some(rest) => (",", rest),
            None => ("", key_with_comma),
        };
        s.push_str(comma);
        s.push('"');
        s.push_str(key);
        s.push_str("\":");
        s.push_str(&v.to_string());
    }

    fn escape_into(s: &mut String, raw: &str) {
        for c in raw.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                c => s.push(c),
            }
        }
    }

    fn decode(text: &str) -> Option<RunResult> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let fields = p.object()?;
        let u = |k: &str| -> Option<u64> {
            fields
                .iter()
                .find(|(n, _)| n == k)
                .and_then(|(_, v)| match v {
                    Value::Num(n) => Some(*n),
                    _ => None,
                })
        };
        if u("v")? != SPILL_VERSION {
            return None;
        }
        let name = fields.iter().find_map(|(n, v)| match (n.as_str(), v) {
            ("name", Value::Str(s)) => Some(s.clone()),
            _ => None,
        })?;
        let kernel_times = fields.iter().find_map(|(n, v)| match (n.as_str(), v) {
            ("kernel_times", Value::Arr(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Num(n) => Some(Duration::from_cycles(*n)),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>(),
            _ => None,
        })?;
        let capacity = fields.iter().find_map(|(n, v)| match (n.as_str(), v) {
            ("capacity", Value::Null) => Some(None),
            ("capacity", Value::Num(c)) => Some(Some(Bytes::new(*c))),
            _ => None,
        })?;
        Some(RunResult {
            name,
            total_time: Duration::from_cycles(u("total_time")?),
            kernel_times,
            footprint: Bytes::new(u("footprint")?),
            capacity,
            accesses: u("accesses")?,
            far_faults: u("far_faults")?,
            pages_migrated: u("pages_migrated")?,
            pages_prefetched: u("pages_prefetched")?,
            pages_evicted: u("pages_evicted")?,
            pages_thrashed: u("pages_thrashed")?,
            prefetched_used: u("prefetched_used")?,
            prefetched_wasted: u("prefetched_wasted")?,
            clean_pages_written_back: u("clean_pages_written_back")?,
            read_bandwidth_gbps: f64::from_bits(u("read_bandwidth_bits")?),
            write_bandwidth_gbps: f64::from_bits(u("write_bandwidth_bits")?),
            read_transfers_4k: u("read_transfers_4k")?,
            read_transfers: u("read_transfers")?,
            read_bytes: Bytes::new(u("read_bytes")?),
            write_bytes: Bytes::new(u("write_bytes")?),
            transfer_retries: u("transfer_retries")?,
            transfer_giveups: u("transfer_giveups")?,
            migration_retries: u("migration_retries")?,
            migration_giveups: u("migration_giveups")?,
            emergency_evictions: u("emergency_evictions")?,
            fault_jitter_cycles: u("fault_jitter_cycles")?,
            huge_pages: HugePageStats {
                coalesces: u("hp_coalesces")?,
                splinters: u("hp_splinters")?,
                forced_splinters: u("hp_forced_splinters")?,
                alloc_splits: u("hp_alloc_splits")?,
                alloc_merges: u("hp_alloc_merges")?,
                regions_reserved: u("hp_regions_reserved")?,
                region_steals: u("hp_region_steals")?,
            },
            traces: Vec::new(),
        })
    }

    enum Value {
        Num(u64),
        Str(String),
        Null,
        Arr(Vec<Value>),
    }

    /// Minimal parser for the subset of JSON `encode` emits: one flat
    /// object of unsigned integers, strings, `null`, and integer
    /// arrays.
    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Option<()> {
            self.ws();
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Some(())
            } else {
                None
            }
        }

        fn object(&mut self) -> Option<Vec<(String, Value)>> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Some(fields);
            }
            loop {
                let key = self.string()?;
                self.eat(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Some(fields);
                    }
                    _ => return None,
                }
            }
        }

        fn value(&mut self) -> Option<Value> {
            self.ws();
            match self.b.get(self.i)? {
                b'"' => Some(Value::Str(self.string()?)),
                b'n' => {
                    if self.b[self.i..].starts_with(b"null") {
                        self.i += 4;
                        Some(Value::Null)
                    } else {
                        None
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Some(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Some(Value::Arr(items));
                            }
                            _ => return None,
                        }
                    }
                }
                c if c.is_ascii_digit() => {
                    let start = self.i;
                    while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.b[start..self.i])
                        .ok()?
                        .parse()
                        .ok()
                        .map(Value::Num)
                }
                _ => None,
            }
        }

        fn string(&mut self) -> Option<String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.b.get(self.i)? {
                    b'"' => {
                        self.i += 1;
                        return Some(out);
                    }
                    b'\\' => {
                        self.i += 1;
                        match self.b.get(self.i)? {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'u' => {
                                let hex = self.b.get(self.i + 1..self.i + 5)?;
                                let code =
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                                out.push(char::from_u32(code)?);
                                self.i += 4;
                            }
                            _ => return None,
                        }
                        self.i += 1;
                    }
                    _ => {
                        // Copy the full UTF-8 sequence starting here.
                        let rest = std::str::from_utf8(&self.b[self.i..]).ok()?;
                        let c = rest.chars().next()?;
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_core::{EvictPolicy, PrefetchPolicy};
    use uvm_workloads::LinearSweep;

    fn sweep() -> LinearSweep {
        LinearSweep {
            pages: 64,
            repeats: 1,
            thread_blocks: 2,
        }
    }

    fn sample_result() -> RunResult {
        RunResult {
            name: "x\"y\\z".into(),
            total_time: Duration::from_cycles(10),
            kernel_times: vec![Duration::from_cycles(10)],
            footprint: Bytes::mib(1),
            capacity: None,
            accesses: 100,
            far_faults: 1,
            pages_migrated: 2,
            pages_prefetched: 1,
            pages_evicted: 0,
            pages_thrashed: 0,
            prefetched_used: 1,
            prefetched_wasted: 0,
            clean_pages_written_back: 0,
            read_bandwidth_gbps: 3.25,
            write_bandwidth_gbps: 0.0,
            read_transfers_4k: 1,
            read_transfers: 2,
            read_bytes: Bytes::kib(8),
            write_bytes: Bytes::ZERO,
            transfer_retries: 7,
            transfer_giveups: 1,
            migration_retries: 3,
            migration_giveups: 0,
            emergency_evictions: 5,
            fault_jitter_cycles: 42,
            huge_pages: HugePageStats {
                coalesces: 4,
                splinters: 2,
                forced_splinters: 1,
                alloc_splits: 9,
                alloc_merges: 6,
                regions_reserved: 3,
                region_steals: 1,
            },
            traces: Vec::new(),
        }
    }

    #[test]
    fn jobs_zero_resolves_to_machine_parallelism_once() {
        // `--jobs 0` means auto-detect; the width is resolved in the
        // constructor and stays fixed for the executor's lifetime
        // rather than being re-queried per plan.
        let exec = Executor::new(0);
        let resolved = exec.jobs();
        assert!(resolved >= 1);
        exec.run_one(&sweep(), RunOptions::default());
        assert_eq!(exec.jobs(), resolved);
    }

    #[test]
    fn warmed_sweep_forks_one_shared_prefix() {
        use crate::run::Warmup;
        let w = LinearSweep {
            pages: 64,
            repeats: 3,
            thread_blocks: 2,
        };
        let submit_all = |exec: &Executor| {
            let mut plan = exec.plan();
            for p in PrefetchPolicy::ALL {
                plan.submit(
                    &w,
                    RunOptions::default()
                        .with_prefetch(p)
                        .with_warmup(Warmup::default()),
                );
            }
            plan.execute()
        };

        let forked_exec = Executor::new(2);
        let forked = submit_all(&forked_exec);
        assert_eq!(forked_exec.prefixes_simulated(), 1);
        assert_eq!(forked_exec.runs_executed(), PrefetchPolicy::ALL.len());

        let cold_exec = Executor::new(2).with_prefix_forking(false);
        let cold = submit_all(&cold_exec);
        assert_eq!(cold_exec.prefixes_simulated(), 0);
        for (f, c) in forked.iter().zip(&cold) {
            assert_eq!(format!("{f:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn singleton_warmed_run_needs_no_prefix() {
        use crate::run::Warmup;
        let exec = Executor::new(1);
        let w = sweep();
        exec.run_one(&w, RunOptions::default().with_warmup(Warmup::default()));
        assert_eq!(exec.prefixes_simulated(), 0);
        assert_eq!(exec.runs_executed(), 1);
    }

    #[test]
    fn failed_prefix_reports_every_group_member() {
        use crate::run::Warmup;

        #[derive(Debug)]
        struct Exploding;
        impl Workload for Exploding {
            fn name(&self) -> &'static str {
                "exploding"
            }
            fn build(
                &self,
                _malloc: &mut dyn FnMut(Bytes) -> uvm_types::VirtAddr,
            ) -> Vec<uvm_gpu::KernelSpec> {
                panic!("boom in the warm-up");
            }
        }

        let exec = Executor::new(2);
        let mut plan = exec.plan();
        for p in PrefetchPolicy::ALL {
            plan.submit(
                &Exploding,
                RunOptions::default()
                    .with_prefetch(p)
                    .with_warmup(Warmup::default()),
            );
        }
        let report = plan.try_execute();
        assert_eq!(report.failures.len(), PrefetchPolicy::ALL.len());
        let mut keys: Vec<_> = report.failures.iter().map(|f| f.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), PrefetchPolicy::ALL.len());
    }

    #[test]
    fn runkey_hex_round_trips() {
        let key = RunKey::new(&sweep(), &RunOptions::default());
        assert_eq!(RunKey::from_hex(&key.to_hex()), Some(key));
        assert_eq!(RunKey::from_hex("zzz"), None);
        assert_eq!(RunKey::from_hex(""), None);
        // Wrong width is rejected even when the digits parse.
        assert_eq!(RunKey::from_hex("abc123"), None);
    }

    #[test]
    fn checkpoint_and_audit_options_are_identity_inert() {
        // Checkpointing off must be a strict no-op: a checkpointed or
        // audited run names the same cache entry as a plain run.
        let w = sweep();
        let plain = RunKey::new(&w, &RunOptions::default());
        let durable = RunKey::new(
            &w,
            &RunOptions::default()
                .with_checkpoint(std::env::temp_dir().join("uvm-ckpt-inert"), 2)
                .with_audit(true),
        );
        assert_eq!(plain, durable);
    }

    #[test]
    fn unwritable_export_path_is_a_typed_failure_not_a_panic() {
        let dir = std::env::temp_dir().join(format!(
            "uvm-exec-badexport-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A regular file where the export's parent directory should
        // be: `create_dir_all` fails with NotADirectory even for root,
        // modelling a dead or misconfigured output disk.
        let obstacle = dir.join("not-a-dir");
        std::fs::write(&obstacle, b"occupied").unwrap();

        let exec = Executor::new(1);
        let w = sweep();
        let mut plan = exec.plan();
        plan.submit(
            &w,
            RunOptions::default().with_trace_export(obstacle.join("run.uvmt")),
        );
        let report = plan.try_execute();
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert!(
            matches!(f, RunError::Failed { .. }),
            "expected a typed I/O failure, got: {f}"
        );
        assert!(
            f.to_string().contains("trace-export"),
            "message should name the failing operation: {f}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_counts_recovered_and_resumed_members() {
        let dir = std::env::temp_dir().join(format!(
            "uvm-exec-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spill = dir.join("cache");
        let journal_path = dir.join("sweep.journal");
        let w = sweep();
        let done_opts = RunOptions::default();
        let interrupted_opts = RunOptions::default().with_prefetch(PrefetchPolicy::None);

        // Session 1 completes one run (journal S+D, spill entry) and
        // is "killed" before the second: fake the kill by journaling
        // only the submit record, exactly what a SIGKILL mid-simulate
        // leaves behind.
        let first = Executor::new(1)
            .with_spill_dir(&spill)
            .with_journal(&journal_path);
        first.run_one(&w, done_opts.clone());
        Journal::new(&journal_path)
            .record_submitted(RunKey::new(&w, &interrupted_opts), w.name())
            .unwrap();

        // Session 2 resumes the whole sweep.
        let second = Executor::new(1)
            .with_spill_dir(&spill)
            .with_journal(&journal_path);
        let mut plan = second.plan();
        plan.submit(&w, done_opts.clone());
        plan.submit(&w, interrupted_opts.clone());
        let report = plan.resume();
        assert!(report.is_complete());
        assert_eq!(report.recovered, 1, "completed run served from spill");
        assert_eq!(report.resumed, 1, "interrupted run restarted");
        assert_eq!(second.runs_executed(), 1);

        // A later, non-resume execution of the same sweep is a plain
        // warm-cache run: no recovery bookkeeping.
        let third = Executor::new(1)
            .with_spill_dir(&spill)
            .with_journal(&journal_path);
        let mut plan = third.plan();
        plan.submit(&w, done_opts);
        plan.submit(&w, interrupted_opts);
        let report = plan.try_execute();
        assert!(report.is_complete());
        assert_eq!(report.recovered, 0);
        assert_eq!(report.resumed, 0);
        assert_eq!(third.runs_executed(), 0, "both runs now spill hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_submissions_simulate_once() {
        let exec = Executor::new(2);
        let w = sweep();
        let mut plan = exec.plan();
        for _ in 0..5 {
            plan.submit(&w, RunOptions::default());
        }
        let results = plan.execute();
        assert_eq!(results.len(), 5);
        assert_eq!(exec.runs_executed(), 1);
        assert_eq!(exec.cache_hits(), 4);
        // A second plan reuses the memoized result.
        exec.run_one(&w, RunOptions::default());
        assert_eq!(exec.runs_executed(), 1);
        assert_eq!(exec.cache_hits(), 5);
    }

    #[test]
    fn results_keep_submission_order() {
        let exec = Executor::new(4);
        let w = sweep();
        let mut plan = exec.plan();
        plan.submit(
            &w,
            RunOptions::default().with_prefetch(PrefetchPolicy::None),
        );
        plan.submit(&w, RunOptions::default());
        let results = plan.execute();
        assert!(results[0].far_faults > results[1].far_faults);
    }

    #[test]
    fn spill_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "uvm-exec-spill-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let w = sweep();
        let opts = RunOptions::default().with_evict(EvictPolicy::SequentialLocal);

        let first = Executor::new(1).with_spill_dir(&dir);
        let a = first.run_one(&w, opts.clone());
        assert_eq!(first.runs_executed(), 1);

        // A fresh executor (fresh process stand-in) loads from disk.
        let second = Executor::new(1).with_spill_dir(&dir);
        let b = second.run_one(&w, opts);
        assert_eq!(second.runs_executed(), 0);
        assert_eq!(second.cache_hits(), 1);
        assert_eq!(second.quarantined_entries(), 0);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.far_faults, b.far_faults);
        assert_eq!(
            a.read_bandwidth_gbps.to_bits(),
            b.read_bandwidth_gbps.to_bits()
        );
        assert_eq!(a.kernel_times, b.kernel_times);
        assert_eq!(a.capacity, b.capacity);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runkey_canonicalizes_alias_specs() {
        use uvm_core::PolicySpec;
        let w = sweep();
        let canonical =
            RunOptions::default().with_prefetch("markov".parse::<PolicySpec>().unwrap());
        let alias = RunOptions::default().with_prefetch("MKVp".parse::<PolicySpec>().unwrap());
        assert_eq!(RunKey::new(&w, &canonical), RunKey::new(&w, &alias));

        let canonical = RunOptions::default().with_evict("LRU-4KB".parse::<PolicySpec>().unwrap());
        let alias = RunOptions::default().with_evict("lru".parse::<PolicySpec>().unwrap());
        assert_eq!(RunKey::new(&w, &canonical), RunKey::new(&w, &alias));
    }

    #[test]
    fn runkey_folds_table_bytes_for_learned_aliases() {
        use uvm_core::PolicySpec;
        let dir = std::env::temp_dir().join(format!(
            "uvm-exec-alias-table-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("t.tbl");
        std::fs::write(&table, b"v1").unwrap();

        let w = sweep();
        let spec = |name: &str| {
            format!("{name}:table={}", table.display())
                .parse::<PolicySpec>()
                .unwrap()
        };
        // Alias and canonical spellings name the same cache entry.
        let canonical = RunKey::new(&w, &RunOptions::default().with_prefetch(spec("learned")));
        let alias = RunKey::new(&w, &RunOptions::default().with_prefetch(spec("LRNp")));
        assert_eq!(canonical, alias);

        // Retraining the table re-keys the alias spelling too — a
        // stale spill entry can never serve the new table.
        std::fs::write(&table, b"v2-retrained").unwrap();
        let retrained = RunKey::new(&w, &RunOptions::default().with_prefetch(spec("LRNp")));
        assert_ne!(alias, retrained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exporting_runs_always_resimulate_and_rewrite_the_trace() {
        let dir = std::env::temp_dir().join(format!(
            "uvm-exec-export-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = dir.join("run.uvmt");
        let w = sweep();
        let opts = RunOptions::default().with_trace_export(&trace);
        let exec = Executor::new(1).with_spill_dir(dir.join("cache"));

        exec.run_one(&w, opts.clone());
        assert!(trace.exists(), "first run writes the trace");
        // The exporting run never spills: its deliverable is the file.
        let key = RunKey::new(&w, &opts);
        assert!(!dir
            .join("cache")
            .join(format!("{}.json", key.to_hex()))
            .exists());

        // Deleting the file and re-running must regenerate it — a
        // memo/spill hit here would silently produce no trace.
        std::fs::remove_file(&trace).unwrap();
        exec.run_one(&w, opts.clone());
        assert_eq!(exec.runs_executed(), 2, "exporting runs are uncacheable");
        assert!(trace.exists(), "re-run rewrites the deleted trace");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_runs_are_not_spilled() {
        let dir = std::env::temp_dir().join(format!(
            "uvm-exec-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let w = sweep();
        let opts = RunOptions::default().with_trace(true);
        let exec = Executor::new(1).with_spill_dir(&dir);
        let r = exec.run_one(&w, opts.clone());
        assert!(!r.traces.is_empty());
        let key = RunKey::new(&w, &opts);
        assert!(!dir.join(format!("{}.json", key.to_hex())).exists());
        // In-process memoization still applies (traces intact).
        let again = exec.run_one(&w, opts);
        assert_eq!(exec.runs_executed(), 1);
        assert!(!again.traces.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_entry_round_trips_and_rejects_corruption() {
        assert!(spill::decode_entry("not a spill entry").is_none());
        assert!(spill::decode_entry("uvmspill v3 crc=zzz\n{}").is_none());
        let good = spill::encode_entry(&sample_result());
        assert!(good.starts_with("uvmspill v3 crc="));
        let parsed = spill::decode_entry(&good).expect("round trip");
        assert_eq!(parsed.name, "x\"y\\z");
        assert_eq!(parsed.read_bandwidth_gbps, 3.25);
        assert_eq!(parsed.transfer_retries, 7);
        assert_eq!(parsed.emergency_evictions, 5);
        assert_eq!(parsed.fault_jitter_cycles, 42);

        // Version skew in the header.
        let skewed = good.replacen("uvmspill v3 ", "uvmspill v999 ", 1);
        assert!(spill::decode_entry(&skewed).is_none());

        // A single flipped character in the body fails the checksum.
        let flipped = good.replacen("\"far_faults\":1", "\"far_faults\":9", 1);
        assert_ne!(flipped, good);
        assert!(spill::decode_entry(&flipped).is_none());

        // Truncation (crash mid-write without the atomic rename)
        // fails the checksum too.
        let truncated = &good[..good.len() - 4];
        assert!(spill::decode_entry(truncated).is_none());
    }

    #[test]
    fn spill_checksum_covers_the_exact_body() {
        // The header commits to the body: moving the entry's bytes
        // around is detected even when both halves stay well-formed.
        let a = spill::encode_entry(&sample_result());
        let mut other = sample_result();
        other.far_faults = 99;
        let b = spill::encode_entry(&other);
        let (header_a, _) = a.split_once('\n').unwrap();
        let (_, body_b) = b.split_once('\n').unwrap();
        let franken = format!("{header_a}\n{body_b}");
        assert!(spill::decode_entry(&franken).is_none());
    }
}
