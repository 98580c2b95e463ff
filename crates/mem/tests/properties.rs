//! Randomized-property tests for the page table, TLB, MSHRs, and
//! frame allocator, driven by seeded `SmallRng` case loops.

use std::collections::HashSet;

use uvm_mem::{
    FrameAllocator, Mshr, PageTable, RegisterOutcome, ShootdownDirectory, Tlb, TlbLookup,
};
use uvm_types::rng::{Rng, SmallRng};
use uvm_types::PageId;

const CASES: usize = 128;

/// The previous `VecDeque`-backed TLB: O(capacity) on every operation,
/// kept as the executable specification the O(1) [`Tlb`] is
/// differential-tested against.
#[derive(Clone, Debug)]
struct ReferenceTlb {
    /// Entries in LRU order: front = least recently used.
    entries: std::collections::VecDeque<PageId>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ReferenceTlb {
    /// Creates an empty reference TLB holding at most `capacity`
    /// translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        ReferenceTlb {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `page`, updating recency on a hit.
    fn lookup(&mut self, page: PageId) -> TlbLookup {
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let hit = self.entries.remove(pos).expect("position exists");
            self.entries.push_back(hit);
            self.hits += 1;
            TlbLookup::Hit
        } else {
            self.misses += 1;
            TlbLookup::Miss
        }
    }

    /// Installs a translation for `page`, evicting the LRU entry if
    /// full; returns the evicted page, if any.
    fn fill(&mut self, page: PageId) -> Option<PageId> {
        let mut victim = None;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            victim = self.entries.pop_front();
        }
        self.entries.push_back(page);
        victim
    }

    /// Removes the translation for `page` if present, returning whether
    /// an entry was removed.
    fn invalidate(&mut self, page: PageId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Current number of cached translations.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Lifetime (hit, miss) counts.
    fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The oracle itself, on a hand-checked sequence.
#[test]
fn reference_tlb_matches_basic_flow() {
    let mut tlb = ReferenceTlb::new(2);
    assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Miss);
    assert_eq!(tlb.fill(PageId::new(1)), None);
    assert_eq!(tlb.fill(PageId::new(2)), None);
    assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
    assert_eq!(tlb.fill(PageId::new(3)), Some(PageId::new(2)));
    assert!(tlb.invalidate(PageId::new(3)));
    assert_eq!(tlb.len(), 1);
    assert_eq!(tlb.hit_miss(), (1, 1));
}

/// The page table's valid count always equals the number of distinct
/// valid pages after an arbitrary operation sequence.
#[test]
fn page_table_count_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0x3e31);
    for _ in 0..CASES {
        let mut pt = PageTable::new();
        let mut model: HashSet<u64> = HashSet::new();
        let n = rng.gen_range(0usize..200);
        for _ in 0..n {
            let page = rng.gen_range(0u64..64);
            let p = PageId::new(page);
            if rng.gen_bool(0.5) {
                pt.validate(p);
                model.insert(page);
            } else {
                pt.invalidate(p);
                model.remove(&page);
            }
        }
        assert_eq!(pt.valid_pages(), model.len() as u64);
        let mut listed: Vec<u64> = pt.iter_valid().map(|p| p.index()).collect();
        listed.sort_unstable();
        let mut expect: Vec<u64> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(listed, expect);
    }
}

/// TLB capacity is never exceeded and a fill is always observable
/// until `capacity` distinct other pages are filled.
#[test]
fn tlb_respects_capacity() {
    let mut rng = SmallRng::seed_from_u64(0x3e32);
    for _ in 0..CASES {
        let cap = rng.gen_range(1usize..32);
        let mut tlb = Tlb::new(cap);
        let n = rng.gen_range(0usize..200);
        let mut last = None;
        for _ in 0..n {
            let f = rng.gen_range(0u64..64);
            tlb.fill(PageId::new(f));
            last = Some(f);
            assert!(tlb.len() <= cap);
        }
        // The most recently filled page always hits.
        if let Some(last) = last {
            assert_eq!(tlb.lookup(PageId::new(last)), TlbLookup::Hit);
        }
    }
}

/// TLB hit/miss counters account for every lookup.
#[test]
fn tlb_counters_account_for_all_lookups() {
    let mut rng = SmallRng::seed_from_u64(0x3e33);
    for _ in 0..CASES {
        let mut tlb = Tlb::new(4);
        let n = rng.gen_range(1usize..100);
        for _ in 0..n {
            let p = rng.gen_range(0u64..16);
            if tlb.lookup(PageId::new(p)) == TlbLookup::Miss {
                tlb.fill(PageId::new(p));
            }
        }
        let (hits, misses) = tlb.hit_miss();
        assert_eq!(hits + misses, n as u64);
    }
}

/// Differential: the hash-indexed [`Tlb`] agrees with the `VecDeque`
/// [`ReferenceTlb`] — same hit/miss verdicts, same fill victims, same
/// invalidate outcomes, same counters — over arbitrary operation
/// sequences. This is the contract that makes the O(1) structure a
/// drop-in replacement inside the engine.
#[test]
fn tlb_matches_reference_implementation() {
    let mut rng = SmallRng::seed_from_u64(0x3e36);
    for _ in 0..CASES {
        let cap = rng.gen_range(1usize..48);
        let mut fast = Tlb::new(cap);
        let mut reference = ReferenceTlb::new(cap);
        let n = rng.gen_range(0usize..300);
        for step in 0..n {
            let p = PageId::new(rng.gen_range(0u64..96));
            match rng.gen_range(0u32..3) {
                0 => {
                    assert_eq!(
                        fast.lookup(p),
                        reference.lookup(p),
                        "lookup({p}) diverged at step {step} (cap {cap})"
                    );
                }
                1 => {
                    // fill_after_miss is only legal right after a miss;
                    // exercise it there, plain fill otherwise.
                    if fast.lookup(p) == TlbLookup::Miss {
                        reference.lookup(p);
                        assert_eq!(
                            fast.fill_after_miss(p, 0),
                            reference.fill(p),
                            "fill victim for {p} diverged at step {step} (cap {cap})"
                        );
                    } else {
                        reference.lookup(p);
                        fast.fill(p);
                        reference.fill(p);
                    }
                }
                _ => {
                    assert_eq!(
                        fast.invalidate(p),
                        reference.invalidate(p),
                        "invalidate({p}) diverged at step {step} (cap {cap})"
                    );
                }
            }
            assert_eq!(fast.len(), reference.len());
        }
        assert_eq!(fast.hit_miss(), reference.hit_miss());
    }
}

/// The dense page → slot table grows with the highest page held. Page
/// ids here jump upward mid-run (each phase multiplies the range), so
/// entries filled before a growth are hit, evicted, invalidated and
/// refilled after it; the TLB must still match [`ReferenceTlb`] at every
/// step, and its checkpoint must re-encode to the same bytes.
#[test]
fn tlb_matches_reference_as_page_ids_grow() {
    use uvm_types::codec::{ByteReader, ByteWriter};
    let mut rng = SmallRng::seed_from_u64(0x3e37);
    for _ in 0..CASES {
        let cap = rng.gen_range(1usize..24);
        let mut fast = Tlb::new(cap);
        let mut reference = ReferenceTlb::new(cap);
        let mut span = 8u64;
        for step in 0..240 {
            if step % 60 == 59 {
                span *= rng.gen_range(4u64..64);
            }
            // Half the ids come from the low pages filled before growth.
            let p = PageId::new(if rng.gen_bool(0.5) {
                rng.gen_range(0u64..8)
            } else {
                rng.gen_range(0..span)
            });
            match rng.gen_range(0u32..3) {
                0 => assert_eq!(fast.lookup(p), reference.lookup(p), "step {step}"),
                1 => {
                    if fast.lookup(p) == TlbLookup::Miss {
                        reference.lookup(p);
                        assert_eq!(fast.fill_after_miss(p, 0), reference.fill(p), "step {step}");
                    } else {
                        reference.lookup(p);
                        fast.fill(p);
                        reference.fill(p);
                    }
                }
                _ => assert_eq!(fast.invalidate(p), reference.invalidate(p), "step {step}"),
            }
            assert_eq!(fast.len(), reference.len());
            let order: Vec<PageId> = fast.iter_entries().map(|(p, _)| p).collect();
            assert_eq!(order, Vec::from(reference.entries.clone()), "step {step}");
        }
        assert_eq!(fast.hit_miss(), reference.hit_miss());
        let mut w = ByteWriter::new();
        fast.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes).with_page_limit(span);
        let restored = Tlb::load_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = ByteWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "TLB state round trip");
    }
}

/// The generation shootdown protocol (bump + drain holders, stamped
/// lookups/fills) is observationally identical to the reference TLB
/// under an eager invalidate broadcast: same hits, same misses, same
/// victims, across multiple TLB units.
#[test]
fn generation_shootdown_matches_eager_broadcast() {
    let mut rng = SmallRng::seed_from_u64(0x3e37);
    for _ in 0..CASES {
        let units = rng.gen_range(1usize..6);
        let cap = rng.gen_range(1usize..16);
        let mut fast: Vec<Tlb> = (0..units).map(|_| Tlb::new(cap)).collect();
        let mut reference: Vec<ReferenceTlb> = (0..units).map(|_| ReferenceTlb::new(cap)).collect();
        let mut dir = ShootdownDirectory::new(units);
        let n = rng.gen_range(0usize..300);
        for step in 0..n {
            let p = PageId::new(rng.gen_range(0u64..48));
            let u = rng.gen_range(0usize..units);
            if rng.gen_bool(0.2) {
                // Page eviction: directory bump + targeted drain vs
                // invalidate broadcast over every unit.
                dir.bump(p);
                let tlbs = &mut fast;
                dir.drain_holders(p, |unit| {
                    tlbs[unit].invalidate(p);
                });
                for r in &mut reference {
                    r.invalidate(p);
                }
            } else {
                // Engine access flow on unit `u`: stamped lookup, then
                // a no-reprobe fill on a miss.
                let generation = dir.generation(p);
                let verdict = fast[u].lookup_gen(p, generation);
                assert_eq!(
                    verdict,
                    reference[u].lookup(p),
                    "unit {u} lookup({p}) diverged at step {step}"
                );
                if verdict == TlbLookup::Miss {
                    let victim = fast[u].fill_after_miss(p, generation);
                    if let Some(v) = victim {
                        dir.note_drop(v, u);
                    }
                    dir.note_fill(p, u);
                    assert_eq!(
                        victim,
                        reference[u].fill(p),
                        "unit {u} fill victim for {p} diverged at step {step}"
                    );
                }
            }
        }
        for (f, r) in fast.iter().zip(&reference) {
            assert_eq!(f.hit_miss(), r.hit_miss());
            assert_eq!(f.len(), r.len());
        }
    }
}

/// MSHR merge semantics: every waiter is returned exactly once, on the
/// completion of the page it registered for.
#[test]
fn mshr_returns_every_waiter_once() {
    let mut rng = SmallRng::seed_from_u64(0x3e34);
    for _ in 0..CASES {
        let mut mshr: Mshr<u32> = Mshr::new();
        let mut expected: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        let n = rng.gen_range(0usize..100);
        for _ in 0..n {
            let page = rng.gen_range(0u64..16);
            let waiter = rng.gen_range(0u32..1000);
            let outcome = mshr.register(PageId::new(page), waiter);
            let entry = expected.entry(page).or_default();
            if entry.is_empty() {
                assert_eq!(outcome, RegisterOutcome::NewFault);
            } else {
                assert_eq!(outcome, RegisterOutcome::Merged);
            }
            entry.push(waiter);
        }
        let (total, merged) = mshr.fault_counts();
        assert_eq!(total - merged, expected.len() as u64);
        for (page, waiters) in expected {
            assert_eq!(mshr.complete(PageId::new(page)), waiters);
        }
        assert!(mshr.is_empty());
    }
}

/// Frame conservation: used + free == capacity at every step, and no
/// frame is handed out twice while allocated.
#[test]
fn frames_conserve() {
    let mut rng = SmallRng::seed_from_u64(0x3e35);
    for _ in 0..CASES {
        let capacity = rng.gen_range(1u64..64);
        let mut fa = FrameAllocator::with_frames(capacity);
        let mut held = Vec::new();
        let mut outstanding = HashSet::new();
        let n = rng.gen_range(0usize..200);
        for _ in 0..n {
            if rng.gen_bool(0.5) {
                if let Some(f) = fa.allocate() {
                    assert!(outstanding.insert(f), "double allocation of {f:?}");
                    held.push(f);
                } else {
                    assert!(fa.is_full());
                }
            } else if let Some(f) = held.pop() {
                outstanding.remove(&f);
                fa.free(f).unwrap();
            }
            assert_eq!(fa.used_frames() + fa.free_frames(), capacity);
            assert_eq!(fa.used_frames(), held.len() as u64);
        }
    }
}
