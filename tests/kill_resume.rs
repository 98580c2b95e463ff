//! SIGKILL crash-recovery: a sweep killed mid-flight resumes
//! byte-identically (DESIGN.md §12).
//!
//! The test re-invokes its own test binary as a child process running
//! the same sweep (spill cache + write-ahead journal + per-run
//! checkpoints), waits until the first member's result has been
//! durably spilled, and SIGKILLs the child — no destructors, no
//! flushing, the honest crash. The child's next member parks in its
//! workload build until the kill arrives, so the kill lands mid-sweep
//! however fast the members run. The parent then replays the sweep with
//! [`Plan::resume`] against the same directories and asserts that
//!
//! * the sweep completes, with journal-vouched members served from the
//!   spill cache (`recovered`) and interrupted members restarted
//!   (`resumed`);
//! * every result is byte-identical to a clean, never-crashed
//!   reference sweep.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use uvm_core::{EvictPolicy, PrefetchPolicy};
use uvm_gpu::KernelSpec;
use uvm_sim::{Executor, RunOptions};
use uvm_types::{Bytes, VirtAddr};
use uvm_workloads::{Hotspot, Workload};

const DIR_ENV: &str = "UVM_KILL_RESUME_DIR";

fn workload() -> Hotspot {
    Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    }
}

/// The sweep both the child and the resuming parent submit: four
/// distinct policy pairs at 110 % over-subscription.
fn members() -> Vec<(PrefetchPolicy, EvictPolicy)> {
    vec![
        (PrefetchPolicy::None, EvictPolicy::LruPage),
        (PrefetchPolicy::Random, EvictPolicy::RandomPage),
        (
            PrefetchPolicy::SequentialLocal,
            EvictPolicy::SequentialLocal,
        ),
        (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::TreeBasedNeighborhood,
        ),
    ]
}

fn options(dir: &Path, prefetch: PrefetchPolicy, evict: EvictPolicy) -> RunOptions {
    RunOptions::default()
        .with_prefetch(prefetch)
        .with_evict(evict)
        .with_memory_frac(1.10)
        .with_checkpoint(dir.join("ckpt"), 1)
}

fn sweep_executor(dir: &Path) -> Executor {
    Executor::new(1)
        .with_spill_dir(dir.join("cache"))
        .with_journal(dir.join("sweep.journal"))
}

/// The child's workload: the sweep's `Hotspot` under the same name and
/// signature, so every `RunKey` and checkpoint path is unchanged. Once
/// the spill directory holds an entry, `build` (which every member's
/// run calls) parks until the parent's SIGKILL arrives, leaving the
/// remaining members interrupted.
#[derive(Clone, Debug)]
struct ParkAfterFirstSpill {
    inner: Hotspot,
    cache: PathBuf,
}

impl Workload for ParkAfterFirstSpill {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn signature(&self) -> String {
        self.inner.signature()
    }

    fn build(&self, malloc: &mut dyn FnMut(Bytes) -> VirtAddr) -> Vec<KernelSpec> {
        if spilled_entries(&self.cache) >= 1 {
            loop {
                std::thread::sleep(Duration::from_secs(60));
            }
        }
        self.inner.build(malloc)
    }
}

/// Child role: run the whole sweep sequentially; the parent SIGKILLs
/// us while the second member parks.
fn child(dir: &Path) {
    let exec = sweep_executor(dir);
    let w = ParkAfterFirstSpill {
        inner: workload(),
        cache: dir.join("cache"),
    };
    let mut plan = exec.plan();
    for (p, e) in members() {
        plan.submit(&w, options(dir, p, e));
    }
    let _ = plan.try_execute();
}

fn spilled_entries(cache: &Path) -> usize {
    fs::read_dir(cache).map_or(0, |d| {
        d.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    })
}

#[test]
fn killed_sweep_resumes_byte_identically() {
    // The same test function serves as the child's entry point,
    // selected by the directory handed down through the environment.
    if let Some(dir) = std::env::var_os(DIR_ENV) {
        child(Path::new(&dir));
        return;
    }

    let dir = std::env::temp_dir().join(format!("uvm-kill-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // Phase 1: spawn the sweep as a child process and SIGKILL it as
    // soon as its first member has been durably spilled.
    let exe = std::env::current_exe().unwrap();
    let mut kid = Command::new(&exe)
        .arg("--exact")
        .arg("killed_sweep_resumes_byte_identically")
        .arg("--nocapture")
        .env(DIR_ENV, &dir)
        .spawn()
        .expect("spawn child sweep");
    let cache = dir.join("cache");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if spilled_entries(&cache) >= 1 {
            break;
        }
        if let Some(status) = kid.try_wait().unwrap() {
            panic!("child sweep exited before producing a spill entry: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "child sweep produced no spill entry within the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    kid.kill().expect("SIGKILL the child sweep");
    kid.wait().unwrap();
    assert!(
        dir.join("sweep.journal").exists(),
        "the write-ahead journal survived the kill"
    );

    // Phase 2: resume the identical sweep against the same
    // directories. Journal-vouched members come from the spill cache;
    // interrupted members restart (from their checkpoints when one
    // was written before the kill).
    let exec = sweep_executor(&dir);
    let w = workload();
    let mut plan = exec.plan();
    for (p, e) in members() {
        plan.submit(&w, options(&dir, p, e));
    }
    let report = plan.resume();
    assert!(
        report.is_complete(),
        "resumed sweep completes: {:?}",
        report.failures
    );
    assert!(
        report.recovered >= 1,
        "at least the member spilled before the kill is recovered"
    );
    assert!(
        report.resumed >= 1,
        "the journal attributed at least one interrupted member"
    );

    // Phase 3: byte-identity against a sweep that never crashed —
    // cold runs without checkpointing, spilling, or journaling.
    let reference = Executor::new(1);
    for ((p, e), resumed) in members().into_iter().zip(&report.results) {
        let plain = RunOptions::default()
            .with_prefetch(p)
            .with_evict(e)
            .with_memory_frac(1.10);
        let clean = reference.run_one(&w, plain);
        let resumed = resumed.as_ref().expect("complete report has every result");
        assert_eq!(
            format!("{clean:?}"),
            format!("{resumed:?}"),
            "{p}+{e}: resumed sweep drifted from the uninterrupted reference"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
