//! Crash-safety tests of the hardened executor: a panicking run
//! becomes a typed [`RunError`] while its siblings complete, and
//! corrupt spill-cache entries are quarantined and recomputed instead
//! of misread or fatal.

use uvm_gpu::KernelSpec;
use uvm_sim::{Executor, RunError, RunKey, RunOptions};
use uvm_types::{Bytes, VirtAddr};
use uvm_workloads::{LinearSweep, Workload};

/// A workload that panics while building its kernels.
#[derive(Debug)]
struct PanicWorkload;

impl Workload for PanicWorkload {
    fn name(&self) -> &'static str {
        "panics"
    }

    fn build(&self, _malloc: &mut dyn FnMut(Bytes) -> VirtAddr) -> Vec<KernelSpec> {
        panic!("induced failure for testing");
    }
}

fn sweep() -> LinearSweep {
    LinearSweep {
        pages: 64,
        repeats: 1,
        thread_blocks: 2,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uvm-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn panicking_run_reports_error_while_siblings_complete() {
    let exec = Executor::new(2);
    let good = sweep();
    let mut plan = exec.plan();
    plan.submit(&good, RunOptions::default());
    plan.submit(&PanicWorkload, RunOptions::default());
    plan.submit(&good, RunOptions::default().with_rng_seed(9));
    let report = plan.try_execute();

    assert!(!report.is_complete());
    assert!(report.results[0].is_some(), "sibling before the panic");
    assert!(report.results[1].is_none(), "the panicking run");
    assert!(report.results[2].is_some(), "sibling after the panic");
    assert_eq!(report.failures.len(), 1);
    match &report.failures[0] {
        RunError::Panicked { name, message, .. } => {
            assert_eq!(name, "panics");
            assert!(message.contains("induced failure"), "payload: {message}");
        }
        other => panic!("expected a panic error, got {other}"),
    }
    assert_eq!(exec.runs_executed(), 2, "failed runs are not counted");

    let report_text = exec.failure_report().expect("failures produce a report");
    assert!(report_text.contains("panics"));
    assert!(report_text.contains("1 failed run(s)"));
}

#[test]
#[should_panic(expected = "experiment sweep failed")]
fn legacy_execute_panics_with_an_aggregated_message() {
    let exec = Executor::new(1);
    let mut plan = exec.plan();
    plan.submit(&PanicWorkload, RunOptions::default());
    let _ = plan.execute();
}

#[test]
fn truncated_spill_entry_is_quarantined_and_recomputed() {
    let dir = temp_dir("truncate");
    let w = sweep();
    let opts = RunOptions::default();
    let key = RunKey::new(&w, &opts);
    let path = dir.join(format!("{}.json", key.to_hex()));

    let first = Executor::new(1).with_spill_dir(&dir);
    let a = first.run_one(&w, opts.clone());
    assert!(path.exists());

    // A crash mid-write (without the atomic rename) leaves a prefix.
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    let second = Executor::new(1).with_spill_dir(&dir);
    let b = second.run_one(&w, opts.clone());
    assert_eq!(second.quarantined_entries(), 1);
    assert_eq!(second.runs_executed(), 1, "the run is recomputed");
    assert_eq!(second.cache_hits(), 0);
    assert!(
        dir.join(format!("{}.json.corrupt", key.to_hex())).exists(),
        "the rotten entry is kept for post-mortem"
    );
    assert!(path.exists(), "the recomputed result is re-spilled");
    assert_eq!(a.far_faults, b.far_faults);
    assert_eq!(a.total_time, b.total_time);

    let report = second.failure_report().expect("quarantine is reported");
    assert!(report.contains("1 quarantined spill entry"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_spill_entry_fails_the_checksum() {
    let dir = temp_dir("bitflip");
    let w = sweep();
    let opts = RunOptions::default();
    let key = RunKey::new(&w, &opts);
    let path = dir.join(format!("{}.json", key.to_hex()));

    let first = Executor::new(1).with_spill_dir(&dir);
    let a = first.run_one(&w, opts.clone());

    // Flip one character of the body; the entry stays valid JSON, so
    // only the checksum can catch it.
    let full = std::fs::read_to_string(&path).unwrap();
    let flipped = full.replacen("\"far_faults\":", "\"far_faultz\":", 1);
    assert_ne!(flipped, full);
    std::fs::write(&path, flipped).unwrap();

    let second = Executor::new(1).with_spill_dir(&dir);
    let b = second.run_one(&w, opts);
    assert_eq!(second.quarantined_entries(), 1);
    assert_eq!(second.runs_executed(), 1);
    assert_eq!(a.far_faults, b.far_faults);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_and_corruption_in_one_sweep_still_report() {
    // The acceptance scenario: one sweep containing a panicking run and
    // a corrupted cache entry completes with a failure report instead
    // of aborting.
    let dir = temp_dir("acceptance");
    let good = sweep();
    let opts = RunOptions::default();
    let key = RunKey::new(&good, &opts);

    // Seed the cache, then corrupt the entry.
    Executor::new(1)
        .with_spill_dir(&dir)
        .run_one(&good, opts.clone());
    let path = dir.join(format!("{}.json", key.to_hex()));
    std::fs::write(&path, "uvmspill v2 crc=0\n{}").unwrap();

    let exec = Executor::new(2).with_spill_dir(&dir);
    let mut plan = exec.plan();
    plan.submit(&PanicWorkload, RunOptions::default());
    plan.submit(&good, opts);
    let report = plan.try_execute();

    assert_eq!(report.failures.len(), 1);
    assert!(report.results[1].is_some(), "the healthy run completes");
    assert_eq!(exec.quarantined_entries(), 1);
    let text = exec.failure_report().expect("everything is reported");
    assert!(text.contains("1 failed run(s)"));
    assert!(text.contains("1 quarantined spill entry"));
    assert!(text.contains("panics"));

    let _ = std::fs::remove_dir_all(&dir);
}
