//! Randomized-property tests for the paper's core mechanisms: the
//! full binary tree (TBNp/TBNe), the LRU structures, and the GMMU
//! driver. Driven by seeded `SmallRng` case loops.

use std::collections::HashSet;

use uvm_core::{
    AllocTree, Allocations, EvictPolicy, Gmmu, HierarchicalLru, LruQueue, PrefetchPolicy, UvmConfig,
};
use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{BasicBlockId, Bytes, Cycle, PageId, TreeExtent, PAGES_PER_BASIC_BLOCK};

const CASES: usize = 256;

fn random_tree(rng: &mut SmallRng) -> AllocTree {
    let h = rng.gen_range(0u32..6);
    AllocTree::new(TreeExtent {
        first_block: BasicBlockId::new(0),
        num_blocks: 1 << h,
    })
}

/// TBNp: prefetch plans only ever name blocks with free capacity,
/// never the fault block, and never duplicate; applying the plan
/// keeps the tree's internal sums consistent.
#[test]
fn prefetch_plan_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0xc0e1);
    for _ in 0..CASES {
        let mut tree = random_tree(&mut rng);
        let n = tree.extent().num_blocks;
        let fills = rng.gen_range(0usize..32);
        for _ in 0..fills {
            let block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
            if !tree.block_full(block) {
                tree.fill_block(block);
            }
        }
        let fault_block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
        if tree.block_full(fault_block) {
            continue; // a full block cannot fault
        }
        let before = tree.root_valid_pages();
        let plan = tree.plan_prefetch(fault_block);
        assert_eq!(tree.root_valid_pages(), before, "plan must not mutate");

        let mut seen = HashSet::new();
        for b in &plan {
            assert!(tree.extent().contains(*b), "plan inside the tree");
            assert!(*b != fault_block, "fault block not re-planned");
            assert!(seen.insert(*b), "no duplicates");
            assert!(!tree.block_full(*b), "only blocks with invalid pages");
        }
        // Applying the plan never overflows the tree.
        tree.fill_block(fault_block);
        for b in plan {
            tree.fill_block(b);
        }
        tree.check_invariants();
        assert!(tree.root_valid_pages() <= tree.capacity_pages());
    }
}

/// TBNe mirrors TBNp: eviction plans name only valid blocks, never
/// the victim, and applying them never underflows.
#[test]
fn eviction_plan_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0xc0e2);
    for _ in 0..CASES {
        let mut tree = random_tree(&mut rng);
        let n = tree.extent().num_blocks;
        let fills = rng.gen_range(1usize..32);
        for _ in 0..fills {
            let block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
            if !tree.block_full(block) {
                tree.fill_block(block);
            }
        }
        let victim_block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
        if tree.block_valid_pages(victim_block) == 0 {
            continue; // nothing to evict there
        }
        let plan = tree.plan_eviction(victim_block);
        let mut seen = HashSet::new();
        for b in &plan {
            assert!(tree.extent().contains(*b));
            assert!(*b != victim_block);
            assert!(seen.insert(*b), "no duplicates");
            assert!(tree.block_valid_pages(*b) > 0, "only valid blocks evicted");
        }
        tree.clear_block(victim_block);
        for b in plan {
            tree.clear_block(b);
        }
        tree.check_invariants();
    }
}

/// The 50% rule: after any fault is serviced with its plan applied,
/// prefetching again for the same block yields nothing new (the plan
/// is a fixpoint).
#[test]
fn prefetch_plan_is_a_fixpoint() {
    let mut rng = SmallRng::seed_from_u64(0xc0e3);
    for _ in 0..CASES {
        let mut tree = random_tree(&mut rng);
        let n = tree.extent().num_blocks;
        let fault_block = BasicBlockId::new(rng.gen_range(0u64..32) % n);
        let plan = tree.plan_prefetch(fault_block);
        tree.fill_block(fault_block);
        for b in plan {
            tree.fill_block(b);
        }
        // The serviced fault leaves no pending obligation for itself
        // (soundness is re-checked by the other property).
        assert!(tree.block_full(fault_block));
    }
}

/// LruQueue behaves exactly like a reference model. The key range
/// grows mid-run, so the dense index table grows while low keys filled
/// before the growth are removed and reinserted after it; each case
/// ends with a save→load→save round trip that must give identical
/// bytes.
#[test]
fn lru_queue_matches_reference_model() {
    use uvm_types::codec::{ByteReader, ByteWriter};
    let mut rng = SmallRng::seed_from_u64(0xc0e4);
    for _ in 0..CASES {
        let mut q: LruQueue<u64> = LruQueue::new();
        let mut model: Vec<u64> = Vec::new(); // front = LRU
        let n = rng.gen_range(0usize..200);
        let mut span = 32u64;
        for step in 0..n {
            if step % 50 == 49 {
                span *= rng.gen_range(2u64..32);
            }
            let key = if rng.gen_bool(0.5) {
                rng.gen_range(0u64..32)
            } else {
                rng.gen_range(0..span)
            };
            match rng.gen_range(0u32..3) {
                0 => {
                    q.touch(key);
                    model.retain(|&k| k != key);
                    model.push(key);
                }
                1 => {
                    q.insert_if_absent(key);
                    if !model.contains(&key) {
                        model.push(key);
                    }
                }
                _ => {
                    let was = q.remove(&key);
                    assert_eq!(was, model.contains(&key));
                    model.retain(|&k| k != key);
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.peek_lru(), model.first());
            let order: Vec<u64> = q.iter().copied().collect();
            assert_eq!(&order, &model);
        }
        let mut w = ByteWriter::new();
        q.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes).with_page_limit(span);
        let restored: LruQueue<u64> = LruQueue::load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.iter().copied().collect::<Vec<_>>(), model);
        let mut w2 = ByteWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "LruQueue state round trip");
    }
}

/// A naive model of [`HierarchicalLru`]: large pages and, per large
/// page, basic blocks in plain recency vectors (front = LRU), and page
/// counts per block in a sorted map.
#[derive(Default)]
struct ReferenceHier {
    large_pages: Vec<u64>,
    blocks: std::collections::BTreeMap<u64, Vec<u64>>,
    counts: std::collections::BTreeMap<u64, u32>,
}

impl ReferenceHier {
    fn touch(list: &mut Vec<u64>, key: u64) {
        list.retain(|&k| k != key);
        list.push(key);
    }

    fn validate(&mut self, page: PageId) {
        let (bb, lp) = (page.basic_block().index(), page.large_page().index());
        Self::touch(&mut self.large_pages, lp);
        Self::touch(self.blocks.entry(lp).or_default(), bb);
        *self.counts.entry(bb).or_default() += 1;
    }

    fn access(&mut self, page: PageId) {
        let (bb, lp) = (page.basic_block().index(), page.large_page().index());
        if self.counts.contains_key(&bb) {
            Self::touch(&mut self.large_pages, lp);
            Self::touch(self.blocks.get_mut(&lp).unwrap(), bb);
        }
    }

    fn invalidate(&mut self, page: PageId) {
        let (bb, lp) = (page.basic_block().index(), page.large_page().index());
        let count = self.counts.get_mut(&bb).unwrap();
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&bb);
            let blocks = self.blocks.get_mut(&lp).unwrap();
            blocks.retain(|&b| b != bb);
            if blocks.is_empty() {
                self.blocks.remove(&lp);
                self.large_pages.retain(|&l| l != lp);
            }
        }
    }

    /// The LRU block of the LRU large page past `reserve` pages.
    fn candidate(&self, reserve: u64) -> Option<BasicBlockId> {
        let mut skipped = 0u64;
        for lp in &self.large_pages {
            for &bb in &self.blocks[lp] {
                if skipped < reserve {
                    skipped += u64::from(self.counts[&bb]);
                    continue;
                }
                return Some(BasicBlockId::new(bb));
            }
        }
        None
    }
}

/// [`HierarchicalLru`] matches [`ReferenceHier`] — block order per
/// large page, candidate at several reservation depths, page counts —
/// while page ids jump upward mid-run (its dense tables grow) and pages
/// validated before a growth drain and return after it. Validation and
/// invalidation alternate between the per-page and group forms. Each
/// case ends with a save→load→save round trip that must give identical
/// bytes.
#[test]
fn hier_lru_matches_reference_model() {
    use uvm_types::codec::{ByteReader, ByteWriter};
    let mut rng = SmallRng::seed_from_u64(0xc0e6);
    for _ in 0..CASES / 4 {
        let mut h = HierarchicalLru::new();
        let mut model = ReferenceHier::default();
        let mut resident: Vec<u64> = Vec::new();
        let mut span = 64u64;
        for step in 0..300 {
            if step % 75 == 74 {
                span *= rng.gen_range(4u64..40);
            }
            let base = if rng.gen_bool(0.5) {
                rng.gen_range(0u64..64)
            } else {
                rng.gen_range(0..span)
            };
            match rng.gen_range(0u32..4) {
                0 => {
                    // A transfer group: a run of absent pages inside one
                    // basic block, in ascending order.
                    let first = base - base % PAGES_PER_BASIC_BLOCK;
                    let group: Vec<PageId> = (base..first + PAGES_PER_BASIC_BLOCK)
                        .take(rng.gen_range(1usize..6))
                        .filter(|p| !resident.contains(p))
                        .map(PageId::new)
                        .collect();
                    if rng.gen_bool(0.5) {
                        h.on_validate_group(&group);
                    } else {
                        group.iter().for_each(|&p| h.on_validate(p));
                    }
                    for &p in &group {
                        model.validate(p);
                        resident.push(p.index());
                    }
                }
                1 => {
                    if let Some(&p) = resident.get(base as usize % resident.len().max(1)) {
                        h.on_access(PageId::new(p));
                        model.access(PageId::new(p));
                    }
                }
                2 => {
                    // Any page: an access in an untracked basic block
                    // is ignored.
                    h.on_access(PageId::new(base));
                    model.access(PageId::new(base));
                }
                _ => {
                    // Drain a resident page's whole basic block.
                    if let Some(&p) = resident.get(base as usize % resident.len().max(1)) {
                        let bb = PageId::new(p).basic_block();
                        let mut drained: Vec<u64> = resident
                            .iter()
                            .copied()
                            .filter(|&q| PageId::new(q).basic_block() == bb)
                            .collect();
                        drained.sort_unstable();
                        resident.retain(|q| !drained.contains(q));
                        let pages: Vec<PageId> = drained.into_iter().map(PageId::new).collect();
                        if rng.gen_bool(0.5) {
                            h.on_invalidate_group(&pages);
                        } else {
                            pages.iter().for_each(|&p| h.on_invalidate_page(p));
                        }
                        pages.iter().for_each(|&p| model.invalidate(p));
                    }
                }
            }
            assert_eq!(h.total_pages(), resident.len() as u64, "step {step}");
            for (&lp, blocks) in &model.blocks {
                let got: Vec<u64> = h
                    .blocks_of(uvm_types::LargePageId::new(lp))
                    .map(|b| b.index())
                    .collect();
                assert_eq!(&got, blocks, "blocks of large page {lp} at step {step}");
                for &bb in blocks {
                    assert_eq!(h.block_pages(BasicBlockId::new(bb)), model.counts[&bb]);
                }
            }
            for reserve in [0, 1, 16, 40, h.total_pages()] {
                assert_eq!(
                    h.candidate(reserve, |_| true),
                    model.candidate(reserve),
                    "candidate at reserve {reserve}, step {step}"
                );
            }
        }
        let mut w = ByteWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes).with_page_limit(span);
        let restored = HierarchicalLru::load_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = ByteWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "HierarchicalLru state round trip");
    }
}

/// HierarchicalLru page accounting matches a reference count, and the
/// candidate (when one exists) is always a tracked block.
#[test]
fn hier_lru_accounting() {
    let mut rng = SmallRng::seed_from_u64(0xc0e5);
    for _ in 0..CASES {
        let mut h = HierarchicalLru::new();
        let mut resident: Vec<u64> = Vec::new();
        let n = rng.gen_range(0usize..300);
        for _ in 0..n {
            let page = rng.gen_range(0u64..256);
            let p = PageId::new(page);
            match rng.gen_range(0u32..3) {
                0 => {
                    h.on_validate(p);
                    resident.push(page);
                }
                1 => {
                    if resident.contains(&page) {
                        h.on_access(p);
                    }
                }
                _ => {
                    if let Some(pos) = resident.iter().position(|&x| x == page) {
                        resident.swap_remove(pos);
                        h.on_invalidate_page(p);
                    }
                }
            }
            assert_eq!(h.total_pages(), resident.len() as u64);
            match h.candidate(0, |_| true) {
                Some(bb) => {
                    assert!(h.block_pages(bb) > 0);
                    assert!(resident
                        .iter()
                        .any(|&pg| PageId::new(pg).basic_block() == bb));
                }
                None => assert!(resident.is_empty()),
            }
        }
    }
}

fn pick_policy_pair(rng: &mut SmallRng) -> (PrefetchPolicy, EvictPolicy) {
    match rng.gen_range(0u32..5) {
        0 => (PrefetchPolicy::None, EvictPolicy::LruPage),
        1 => (PrefetchPolicy::Random, EvictPolicy::RandomPage),
        2 => (
            PrefetchPolicy::SequentialLocal,
            EvictPolicy::SequentialLocal,
        ),
        3 => (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::TreeBasedNeighborhood,
        ),
        _ => (
            PrefetchPolicy::TreeBasedNeighborhood,
            EvictPolicy::LruLargePage,
        ),
    }
}

/// Driver-level conservation under random fault/access sequences:
/// residency never exceeds the budget, trees and page table agree,
/// and statistics balance.
#[test]
fn gmmu_conserves_under_random_traffic() {
    let mut rng = SmallRng::seed_from_u64(0xc0e6);
    for _ in 0..48 {
        let (prefetch, evict) = pick_policy_pair(&mut rng);
        let capacity_blocks = rng.gen_range(4u64..24);
        let num_accesses = rng.gen_range(1usize..150);
        let seed = rng.next_u64();
        let cfg = UvmConfig::default()
            .with_capacity(Bytes::kib(64) * capacity_blocks)
            .with_prefetch(prefetch)
            .with_evict(evict)
            .with_rng_seed(seed);
        let mut g = Gmmu::new(cfg);
        let base = g.malloc_managed(Bytes::mib(2));
        let mut now = Cycle::ZERO;
        for _ in 0..num_accesses {
            let page = rng.gen_range(0u64..512);
            let write = rng.gen_bool(0.5);
            let p = base.page().add(page);
            if !g.is_resident(p) {
                let res = g.handle_fault(p, now);
                now = res.fault_page_ready();
                // Every page in the resolution is now resident.
                for (rp, _) in &res.ready {
                    assert!(g.is_resident(*rp));
                }
            }
            g.record_access(p, write);
        }
        let stats = g.stats();
        assert!(g.resident_pages() <= g.capacity_frames());
        assert_eq!(
            stats.pages_migrated - stats.pages_evicted,
            g.resident_pages()
        );
        assert!(stats.pages_prefetched <= stats.pages_migrated);
        assert!(stats.far_faults <= stats.pages_migrated);
        assert!(stats.pages_thrashed <= stats.pages_evicted);
    }
}

#[test]
fn allocations_never_overlap() {
    let mut allocs = Allocations::new();
    let sizes = [100u64, 4096, 65_536, 2 << 20, (2 << 20) + 4096, 192 << 10];
    let mut claimed: HashSet<u64> = HashSet::new();
    for &s in &sizes {
        let id = allocs.allocate(Bytes::new(s));
        let a = allocs.get(id);
        for p in a.first_page().index()..a.end_page().index() {
            assert!(claimed.insert(p), "page {p} double-claimed");
        }
    }
}

#[test]
fn tree_block_page_granularity_interplay() {
    // Mixed partial/full residency: on-demand 4 KB migrations create
    // partial blocks; prefetch plans must still be applicable.
    let mut tree = AllocTree::new(TreeExtent {
        first_block: BasicBlockId::new(0),
        num_blocks: 8,
    });
    // 5 pages of block 0 resident (on-demand, prefetcher off).
    tree.add_pages(BasicBlockId::new(0), 5);
    // A fault on block 0 with the prefetcher on plans around the
    // partial block.
    let plan = tree.plan_prefetch(BasicBlockId::new(0));
    for b in plan {
        assert_ne!(b, BasicBlockId::new(0));
        tree.fill_block(b);
    }
    // Completing block 0 adds exactly the missing pages.
    tree.add_pages(BasicBlockId::new(0), PAGES_PER_BASIC_BLOCK as u32 - 5);
    assert!(tree.block_full(BasicBlockId::new(0)));
    tree.check_invariants();
}
