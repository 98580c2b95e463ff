//! Randomized-property tests for the execution engine: arbitrary
//! access streams run to completion with consistent accounting,
//! regardless of policies, budgets, and machine shapes. Driven by
//! seeded `SmallRng` case loops.

use uvm_core::{EvictPolicy, Gmmu, PrefetchPolicy, UvmConfig};
use uvm_gpu::{Access, Engine, GpuConfig, KernelSpec, ThreadBlockSpec};
use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{Bytes, Duration, PAGE_SIZE};

const CASES: usize = 24;

fn pick_policies(rng: &mut SmallRng) -> (PrefetchPolicy, EvictPolicy) {
    match rng.gen_range(0u32..3) {
        0 => (PrefetchPolicy::None, EvictPolicy::LruPage),
        1 => (
            PrefetchPolicy::SequentialLocal,
            EvictPolicy::SequentialLocal,
        ),
        _ => (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::TreeBasedNeighborhood,
        ),
    }
}

fn page_list(rng: &mut SmallRng, span: u64, max_len: usize) -> Vec<u64> {
    let n = rng.gen_range(1usize..max_len);
    (0..n).map(|_| rng.gen_range(0u64..span)).collect()
}

/// Far-faults never exceed total accesses (liveness), every access is
/// eventually recorded (trace length), and time flows forward across
/// kernels.
#[test]
fn engine_liveness_and_accounting() {
    let mut rng = SmallRng::seed_from_u64(0x69b1);
    for _ in 0..CASES {
        let (prefetch, evict) = pick_policies(&mut rng);
        let num_kernels = rng.gen_range(1usize..5);
        let page_lists: Vec<Vec<u64>> = (0..num_kernels)
            .map(|_| page_list(&mut rng, 256, 40))
            .collect();
        let sms = rng.gen_range(1usize..8);
        let blocks_per_sm = rng.gen_range(1usize..4);
        let capacity_blocks = rng.gen_range(6u64..20);

        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(64) * capacity_blocks)
            .with_prefetch(prefetch)
            .with_evict(evict);
        let mut gmmu = Gmmu::new(cfg);
        let base = gmmu.malloc_managed(Bytes::mib(1));
        let mut engine = Engine::new(
            gmmu,
            GpuConfig {
                num_sms: sms,
                blocks_per_sm,
                max_kernel_cycles: Some(2_000_000_000),
                ..GpuConfig::default()
            },
        );
        engine.enable_trace();

        let mut total_accesses = 0u64;
        let mut prev_end = engine.now();
        for (i, pages) in page_lists.iter().enumerate() {
            total_accesses += pages.len() as u64;
            let mut k = KernelSpec::new(format!("k{i}"));
            // Split the access list across a few thread blocks.
            for chunk in pages.chunks(8) {
                let accesses: Vec<Access> = chunk
                    .iter()
                    .map(|&p| Access::read(base.offset(PAGE_SIZE * p)))
                    .collect();
                k.push_block(ThreadBlockSpec::from_accesses(accesses));
            }
            let r = engine.run_kernel_detailed(k);
            assert!(r.end >= prev_end, "time flows forward");
            prev_end = r.end;
        }

        let trace_len: usize = {
            let t = engine.take_trace();
            t.len()
        };
        assert_eq!(trace_len as u64, total_accesses, "every access completes");
        let stats = engine.gmmu().stats();
        assert!(stats.far_faults <= total_accesses, "liveness bound");
        assert!(engine.gmmu().resident_pages() <= engine.gmmu().capacity_frames());
    }
}

/// The engine's timing is deterministic for a fixed configuration.
#[test]
fn engine_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0x69b2);
    for _ in 0..CASES {
        let pages = page_list(&mut rng, 128, 60);
        let (prefetch, evict) = pick_policies(&mut rng);
        let run = || {
            let cfg = UvmConfig::default()
                .with_capacity(Bytes::kib(256))
                .with_prefetch(prefetch)
                .with_evict(evict);
            let mut gmmu = Gmmu::new(cfg);
            let base = gmmu.malloc_managed(Bytes::kib(512));
            let mut engine = Engine::new(gmmu, GpuConfig::default());
            let accesses: Vec<Access> = pages
                .iter()
                .map(|&p| Access::read(base.offset(PAGE_SIZE * p)))
                .collect();
            let t = engine.run_kernel(
                KernelSpec::new("k").with_block(ThreadBlockSpec::from_accesses(accesses)),
            );
            (t, engine.gmmu().stats().clone())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }
}

/// Slower machines are never faster: increasing the compute delay
/// never reduces kernel time.
#[test]
fn compute_delay_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x69b3);
    for _ in 0..CASES {
        let pages = page_list(&mut rng, 64, 40);
        let delay_a = rng.gen_range(0u64..200);
        let delay_b = rng.gen_range(0u64..200);
        let run = |delay: u64| {
            let mut gmmu = Gmmu::new(UvmConfig::default());
            let base = gmmu.malloc_managed(Bytes::kib(512));
            let mut engine = Engine::new(
                gmmu,
                GpuConfig {
                    compute_delay: Duration::from_cycles(delay),
                    ..GpuConfig::default()
                },
            );
            let accesses: Vec<Access> = pages
                .iter()
                .map(|&p| Access::read(base.offset(PAGE_SIZE * p)))
                .collect();
            engine.run_kernel(
                KernelSpec::new("k").with_block(ThreadBlockSpec::from_accesses(accesses)),
            )
        };
        let (lo, hi) = (delay_a.min(delay_b), delay_a.max(delay_b));
        assert!(run(lo) <= run(hi));
    }
}
