//! Fork-equivalence differential suite for sweep prefix forking.
//!
//! The whole snapshot/fork optimisation rests on one invariant: a run
//! resumed from a forked warm-up snapshot is **byte-identical** to the
//! same run simulated cold (warm-up in place, no snapshot). This suite
//! asserts that invariant over the same workload and policy grid the
//! golden fixtures pin down, plus the `chaos` fault-injection profile,
//! and checks that a snapshot shares no mutable state with its forks.
//!
//! The cold path swaps policies *in place* while the forked path
//! deep-clones the engine first, so equality here genuinely exercises
//! the clone: a policy, TLB, queue, or channel field that cloned
//! shallowly (or not at all) would desynchronise the tails.

use uvm_core::{EvictPolicy, FaultPlan, PrefetchPolicy};
use uvm_sim::{resume_run, run_workload, simulate_prefix, Executor, RunOptions, RunResult, Warmup};
use uvm_workloads::Hotspot;

/// The golden-fixture workload: iterative re-touching, multi-large-page
/// footprint, eviction under 110 % over-subscription.
fn workload() -> Hotspot {
    Hotspot {
        rows: 512,
        iterations: 3,
        rows_per_block: 16,
    }
}

fn options(prefetch: PrefetchPolicy, evict: EvictPolicy) -> RunOptions {
    RunOptions::default()
        .with_prefetch(prefetch)
        .with_evict(evict)
        .with_memory_frac(1.10)
        .with_warmup(Warmup::default())
}

/// Byte-exact rendering of every `RunResult` field (floats included:
/// `Debug` prints the shortest round-trippable form, so equal strings
/// mean equal bit patterns for all practical outputs).
fn encode(r: &RunResult) -> String {
    format!("{r:#?}")
}

#[test]
fn forked_tails_match_cold_runs_for_every_paper_policy_pair() {
    let w = workload();
    // One shared prefix serves the whole 4×5 grid: the warm-up pair is
    // fixed, only the tail policies vary.
    let prefix = simulate_prefix(&w, &options(PrefetchPolicy::None, EvictPolicy::LruPage)).unwrap();
    assert_eq!(prefix.warm_launches(), 1);
    assert!(prefix.tail_launches() >= 1);

    let mut checked = 0usize;
    for prefetch in PrefetchPolicy::ALL {
        for evict in EvictPolicy::ALL {
            let opts = options(prefetch, evict);
            let cold = run_workload(&w, opts.clone());
            let forked = resume_run(&prefix, &opts);
            assert_eq!(
                encode(&cold),
                encode(&forked),
                "{prefetch}+{evict}: forked tail diverged from the cold run"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, PrefetchPolicy::ALL.len() * EvictPolicy::ALL.len());
}

#[test]
fn forked_tails_match_cold_runs_under_chaos_fault_injection() {
    let w = workload();
    let chaos = |prefetch, evict| {
        options(prefetch, evict).with_fault_plan(FaultPlan::chaos().with_seed(0xfa11))
    };
    let prefix = simulate_prefix(&w, &chaos(PrefetchPolicy::None, EvictPolicy::LruPage)).unwrap();
    for (prefetch, evict) in [
        (PrefetchPolicy::None, EvictPolicy::LruPage),
        (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::RandomPage,
        ),
        (PrefetchPolicy::Random, EvictPolicy::LruLargePage),
    ] {
        let opts = chaos(prefetch, evict);
        let cold = run_workload(&w, opts.clone());
        let forked = resume_run(&prefix, &opts);
        assert_eq!(
            encode(&cold),
            encode(&forked),
            "{prefetch}+{evict}: chaos run diverged after forking"
        );
    }
}

#[test]
fn forks_share_no_mutable_state_with_the_snapshot_or_each_other() {
    let w = workload();
    let opts_a = options(PrefetchPolicy::None, EvictPolicy::RandomPage);
    let opts_b = options(PrefetchPolicy::TreeBasedNeighborhood, EvictPolicy::LruPage);

    let prefix = simulate_prefix(&w, &opts_a).unwrap();
    let first_a = resume_run(&prefix, &opts_a);
    // A second fork with different tail policies diverges on its own…
    let first_b = resume_run(&prefix, &opts_b);
    assert_ne!(
        encode(&first_a),
        encode(&first_b),
        "different tail policies should produce different runs"
    );
    // …and neither fork wrote anything back into the prefix: replaying
    // each fork gives the exact same bytes as the first time.
    let second_a = resume_run(&prefix, &opts_a);
    let second_b = resume_run(&prefix, &opts_b);
    assert_eq!(encode(&first_a), encode(&second_a));
    assert_eq!(encode(&first_b), encode(&second_b));

    // Dropping the prefix leaves completed results fully owned.
    drop(prefix);
    assert_eq!(first_a.kernel_times.len(), second_a.kernel_times.len());
}

#[test]
fn executor_prefix_forking_matches_the_unforked_executor() {
    let w = workload();
    let run_grid = |exec: &Executor| {
        let mut plan = exec.plan();
        for prefetch in PrefetchPolicy::ALL {
            for evict in EvictPolicy::ALL {
                plan.submit(&w, options(prefetch, evict));
            }
        }
        plan.execute()
    };

    let forked_exec = Executor::new(4);
    let forked = run_grid(&forked_exec);
    assert_eq!(forked_exec.prefixes_simulated(), 1);

    let cold_exec = Executor::new(4).with_prefix_forking(false);
    let cold = run_grid(&cold_exec);
    assert_eq!(cold_exec.prefixes_simulated(), 0);

    for (f, c) in forked.iter().zip(&cold) {
        assert_eq!(encode(f), encode(c));
    }
}
