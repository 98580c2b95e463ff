//! Integration tests for the `PolicySpec` API and the `UVMT` trace
//! subsystem (DESIGN.md §10).
//!
//! Four guarantees are pinned here, at the whole-simulator level
//! rather than per-crate:
//!
//! * every policy in the registry — bare, aliased, and parameterized —
//!   round-trips through the `name:key=val,...` string grammar and
//!   canonicalization;
//! * a trace exported by a real run decodes back to the run's
//!   metadata and a well-formed record stream, and corruption anywhere
//!   in the file is detected;
//! * turning trace export *on* does not perturb the simulation: the
//!   exporting run produces the exact statistics of the plain run
//!   (which `golden_fixtures.rs` in turn pins byte-for-byte to the
//!   committed fixtures);
//! * the history-based `markov` prefetcher is deterministic across
//!   executor worker counts — `--jobs 1` and `--jobs 8` must be
//!   bit-for-bit interchangeable;
//! * the committed `results/traces/*.uvmt` and `results/trained/*.tbl`
//!   files decode and re-encode to the same bytes, and a warmed run
//!   that exports through a forked tail writes the same file as the
//!   run that warms in place.

use std::path::PathBuf;

use uvm_core::trace::{decode_trace, encode_trace, LearnedTable, TraceKind};
use uvm_core::{EvictPolicy, PolicyRegistry, PolicySpec, PrefetchPolicy};
use uvm_sim::{
    run_workload, simulate_prefix, try_resume_run, try_run_workload, Executor, RunOptions,
    RunResult, Warmup,
};
use uvm_workloads::Hotspot;

/// The golden-fixture workload (see `golden_fixtures.rs`): small
/// enough to simulate in milliseconds, rich enough to evict and
/// prefetch under 110 % over-subscription.
fn workload() -> Hotspot {
    Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    }
}

/// A scratch directory under the target-adjacent temp dir, cleaned on
/// entry so reruns never see stale files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("uvm-trace-spec-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn every_registered_policy_spec_round_trips() {
    let reg = PolicyRegistry::builtin();

    let roundtrip = |spec: &PolicySpec| {
        let reparsed: PolicySpec = spec.to_string().parse().unwrap_or_else(|e| {
            panic!("{spec} failed to reparse: {e}");
        });
        assert_eq!(&reparsed, spec, "Display/FromStr round-trip for {spec}");
    };

    for e in reg.prefetchers() {
        // Bare canonical name.
        let bare = PolicySpec::new(e.name);
        roundtrip(&bare);
        assert_eq!(reg.canonical_prefetch_spec(&bare).unwrap(), bare);
        // Every alias canonicalizes to the same name.
        for alias in e.aliases {
            let got = reg
                .canonical_prefetch_spec(&PolicySpec::new(*alias))
                .unwrap_or_else(|err| panic!("alias {alias}: {err}"));
            assert_eq!(got.name(), e.name, "alias {alias}");
        }
        // Every declared parameter is accepted and survives the
        // string grammar (values are validated at build time, not
        // canonicalization time, so a placeholder works for all).
        for p in e.params {
            let spec = PolicySpec::new(e.name).with_param(p.key, "7");
            roundtrip(&spec);
            let got = reg
                .canonical_prefetch_spec(&spec)
                .unwrap_or_else(|err| panic!("{spec}: {err}"));
            assert_eq!(got.param(p.key), Some("7"));
        }
    }

    for e in reg.evictors() {
        let bare = PolicySpec::new(e.name);
        roundtrip(&bare);
        assert_eq!(reg.canonical_evict_spec(&bare).unwrap(), bare);
        for alias in e.aliases {
            let got = reg
                .canonical_evict_spec(&PolicySpec::new(*alias))
                .unwrap_or_else(|err| panic!("alias {alias}: {err}"));
            assert_eq!(got.name(), e.name, "alias {alias}");
        }
        for p in e.params {
            let spec = PolicySpec::new(e.name).with_param(p.key, "7");
            roundtrip(&spec);
            let got = reg
                .canonical_evict_spec(&spec)
                .unwrap_or_else(|err| panic!("{spec}: {err}"));
            assert_eq!(got.param(p.key), Some("7"));
        }
    }
}

#[test]
fn exported_trace_round_trips_and_detects_corruption() {
    let dir = scratch("roundtrip");
    let path = dir.join("hotspot.uvmt");
    let r = run_workload(
        &workload(),
        RunOptions::default()
            .with_prefetch(PrefetchPolicy::None)
            .with_memory_frac(1.10)
            .with_trace_export(&path),
    );

    let bytes = std::fs::read(&path).expect("exported trace exists");
    let (meta, records) = decode_trace(&bytes).expect("exported trace decodes");
    assert_eq!(meta.workload, "hotspot");
    assert_eq!(meta.prefetch, "none");
    assert!(
        records.len() as u64 >= r.far_faults,
        "trace carries at least one record per far-fault ({} < {})",
        records.len(),
        r.far_faults
    );
    assert!(
        records.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "record cycles are non-decreasing"
    );

    // Corruption anywhere — header, varint stream, or tail — fails
    // the checksum (or the structural decode) rather than yielding
    // silently wrong records.
    for pos in [8, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xff;
        assert!(
            decode_trace(&bad).is_err(),
            "flipped byte at {pos} must not decode"
        );
    }
    let truncated = &bytes[..bytes.len() - 7];
    assert!(
        decode_trace(truncated).is_err(),
        "truncated trace must not decode"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_export_does_not_perturb_the_simulation() {
    // The golden-fixture configuration, with and without export. The
    // plain run is pinned byte-for-byte by `golden_fixtures.rs`, so
    // equality here proves the exporting run matches the committed
    // fixtures too.
    let dir = scratch("guard");
    let opts = RunOptions::default()
        .with_prefetch(PrefetchPolicy::TreeBasedNeighborhood)
        .with_evict(EvictPolicy::LruPage)
        .with_memory_frac(1.10);
    let plain = run_workload(&workload(), opts.clone());
    let exported = run_workload(&workload(), opts.with_trace_export(dir.join("guard.uvmt")));

    let stats = |r: &RunResult| {
        (
            r.total_time.cycles(),
            r.kernel_times
                .iter()
                .map(|t| t.cycles())
                .collect::<Vec<_>>(),
            r.far_faults,
            r.pages_migrated,
            r.pages_prefetched,
            r.pages_evicted,
            r.pages_thrashed,
            r.read_bytes.bytes(),
            r.write_bytes.bytes(),
        )
    };
    assert_eq!(stats(&plain), stats(&exported));
    assert!(
        dir.join("guard.uvmt").exists(),
        "export still wrote the file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn markov_runs_are_identical_across_worker_counts() {
    let w = workload();
    let specs = [
        PolicySpec::new("markov"),
        PolicySpec::new("markov").with_param("depth", "1"),
    ];
    let fracs = [1.10, 1.25];

    let run_all = |jobs: usize| -> Vec<(u64, u64, Vec<u64>)> {
        let exec = Executor::new(jobs);
        let mut plan = exec.plan();
        for spec in &specs {
            for &frac in &fracs {
                plan.submit(
                    &w,
                    RunOptions::default()
                        .with_prefetch(spec)
                        .with_evict(EvictPolicy::LruPage)
                        .with_memory_frac(frac),
                );
            }
        }
        plan.execute()
            .iter()
            .map(|r| {
                (
                    r.far_faults,
                    r.pages_prefetched,
                    r.kernel_times.iter().map(|t| t.cycles()).collect(),
                )
            })
            .collect()
    };

    assert_eq!(run_all(1), run_all(8), "--jobs 1 and --jobs 8 diverged");
}

/// The committed files under `results/<dir>/` with extension `ext`,
/// sorted by name.
fn committed(dir: &str, ext: &str) -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("reading {}: {e}", root.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

#[test]
fn committed_traces_and_tables_re_encode_byte_identically() {
    let traces = committed("traces", "uvmt");
    assert_eq!(traces.len(), 7, "one committed trace per paper benchmark");
    for path in &traces {
        let bytes = std::fs::read(path).expect("read trace");
        let (meta, records) = decode_trace(&bytes)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        assert!(!records.is_empty(), "{} holds records", path.display());
        assert!(
            encode_trace(&meta, &records) == bytes,
            "{} re-encodes to different bytes",
            path.display()
        );
    }

    let tables = committed("trained", "tbl");
    assert_eq!(tables.len(), 7, "one trained table per paper benchmark");
    for path in &tables {
        let bytes = std::fs::read(path).expect("read table");
        let table = LearnedTable::decode(&bytes)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        assert!(
            table.encode() == bytes,
            "{} re-encodes to different bytes",
            path.display()
        );
    }
}

#[test]
fn forked_tail_exports_the_same_trace_as_the_in_place_run() {
    let dir = scratch("forked-export");
    let path = dir.join("hotspot.uvmt");
    let w = workload();
    let opts = RunOptions::default()
        .with_prefetch(PrefetchPolicy::SequentialLocal)
        .with_evict(EvictPolicy::SequentialLocal)
        .with_memory_frac(1.10)
        .with_trace(true)
        .with_warmup(Warmup::default())
        .with_trace_export(&path);

    let prefix = simulate_prefix(&w, &opts).expect("prefix simulates");
    assert_eq!(prefix.warm_launches(), 1);
    let forked = try_resume_run(&prefix, &opts).expect("forked tail runs");
    let forked_bytes = std::fs::read(&path).expect("forked run exported");
    std::fs::remove_file(&path).expect("remove the forked export");

    let in_place = try_run_workload(&w, opts).expect("in-place run");
    let in_place_bytes = std::fs::read(&path).expect("in-place run exported");

    assert_eq!(format!("{forked:?}"), format!("{in_place:?}"));
    assert!(
        forked_bytes == in_place_bytes,
        "forked and in-place exports differ"
    );
    // The export covers the warm launch as well as the tail.
    let (_, records) = decode_trace(&forked_bytes).expect("export decodes");
    let boundaries = records
        .iter()
        .filter(|r| r.kind == TraceKind::KernelEnd)
        .count();
    assert_eq!(boundaries, forked.kernel_times.len());
    std::fs::remove_dir_all(&dir).ok();
}
