//! Calendar-based event queue for the engine's warp scheduler.
//!
//! The engine's event stream is near-monotone: pops advance cycle time,
//! and every push lands at or after the last popped cycle, almost
//! always within a few hundred cycles (TLB-hit latency) with a 1-in-N
//! tail at the far-fault latency (~66 k cycles). A binary heap pays
//! O(log n) per operation and compares `(Cycle, seq)` tuples all the
//! way down; this calendar (ladder) queue instead hashes each event to
//! a time bucket — push is O(1) amortised, and pop only sorts the one
//! small bucket currently being drained.
//!
//! Layout: a ring of `n` buckets each spanning `2^shift` cycles
//! (default 256-cycle buckets, 512 buckets = a 131 k-cycle horizon that
//! covers the far-fault hop), an occupancy bitmap so advancing to the
//! next non-empty bucket is a word scan, and an overflow min-heap for
//! events beyond the horizon, migrated into the ring as the calendar
//! advances. The bucket being drained is kept sorted descending in
//! `cur` and popped from the back; same-bucket pushes insert in order.
//!
//! Ordering contract (the engine's schedule depends on it): events pop
//! in ascending `(cycle, tiebreak)`. [`push`](EventQueue::push) assigns
//! an internal sequence number, so its ties break FIFO — exactly the
//! order `BinaryHeap<Reverse<(Cycle, u64, T)>>` produces, which the
//! differential test in `tests/properties.rs` pins down.
//! [`push_keyed`](EventQueue::push_keyed) takes the tiebreak from the
//! caller instead; the engine passes each warp's static dispatch rank.
//!
//! Precondition: pushes never precede the last popped cycle (the
//! engine's event causality). Events pushed earlier than that would
//! still pop — ordered among the not-yet-popped — but cannot rewind
//! already-popped history.

use std::collections::BinaryHeap;

use uvm_types::Cycle;

/// An event beyond the calendar horizon, parked in the overflow heap.
#[derive(Clone, Debug)]
struct Parked<T> {
    t: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}

impl<T> Eq for Parked<T> {}

impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the BinaryHeap (a max-heap) yields the earliest
        // (t, seq) first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A monotone priority queue over `(Cycle, FIFO order)`, bucketed by
/// cycle (calendar queue).
///
/// # Examples
///
/// ```
/// use uvm_gpu::EventQueue;
/// use uvm_types::Cycle;
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(10), "late");
/// q.push(Cycle::new(5), "early");
/// q.push(Cycle::new(5), "early-second");
/// assert_eq!(q.pop(), Some((Cycle::new(5), "early")));
/// assert_eq!(q.pop(), Some((Cycle::new(5), "early-second")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    /// Ring of future buckets; slot `b % n` holds bucket `b` for
    /// `cur_bucket < b <= cur_bucket + n`. Unsorted.
    buckets: Vec<Vec<(Cycle, u64, T)>>,
    /// One bit per ring slot: slot non-empty.
    occupied: Vec<u64>,
    /// The bucket currently being drained, sorted descending by
    /// `(t, seq)` and popped from the back.
    cur: Vec<(Cycle, u64, T)>,
    /// Bucket number `cur` drains (`t >> shift`).
    cur_bucket: u64,
    /// Events beyond the ring horizon.
    overflow: BinaryHeap<Parked<T>>,
    /// Events currently in `buckets` (not `cur`, not `overflow`).
    ring_len: usize,
    /// Next push sequence number (FIFO tiebreak).
    seq: u64,
    len: usize,
    /// log2 of the bucket span in cycles.
    shift: u32,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// A queue with the engine's default geometry: 256-cycle buckets,
    /// 512-bucket ring (131 k-cycle horizon — past the far-fault hop).
    pub fn new() -> Self {
        Self::with_geometry(8, 512)
    }

    /// A queue with `2^shift`-cycle buckets and an `n_buckets` ring.
    ///
    /// # Panics
    ///
    /// Panics unless `n_buckets` is a non-zero multiple of 64 (the
    /// occupancy bitmap's word size).
    pub fn with_geometry(shift: u32, n_buckets: usize) -> Self {
        assert!(
            n_buckets > 0 && n_buckets.is_multiple_of(64),
            "ring size must be a non-zero multiple of 64"
        );
        EventQueue {
            buckets: (0..n_buckets).map(|_| Vec::new()).collect(),
            occupied: vec![0; n_buckets / 64],
            cur: Vec::new(),
            cur_bucket: 0,
            overflow: BinaryHeap::new(),
            ring_len: 0,
            seq: 0,
            len: 0,
            shift,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `payload` at cycle `t`. Events at the same cycle pop in
    /// push order.
    pub fn push(&mut self, t: Cycle, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.push_with(t, seq, payload);
    }

    /// Queues `payload` at cycle `t` with a caller-supplied tiebreak
    /// `key` in place of the internal FIFO sequence number: same-cycle
    /// events pop in ascending key order regardless of push order.
    ///
    /// The engine keys every warp event by the warp's static SM-major
    /// dispatch rank, which makes the schedule a pure function of
    /// `(cycle, warp)`: a same-cycle tie resolves the same way no
    /// matter which code path pushed the event or when. The internal
    /// sequence number would instead tie the schedule to the exact
    /// history of pushes. Callers must not queue two live events with
    /// equal `(t, key)`; their relative order would fall back to
    /// insertion order.
    pub fn push_keyed(&mut self, t: Cycle, key: u64, payload: T) {
        self.push_with(t, key, payload);
    }

    fn push_with(&mut self, t: Cycle, seq: u64, payload: T) {
        self.len += 1;
        let bucket = t.index() >> self.shift;
        if bucket <= self.cur_bucket {
            // The bucket being drained (or, before any pop, the very
            // first): keep `cur` sorted descending. Insert after equal
            // `(t, seq)` entries so duplicates keep insertion order.
            let pos = self.cur.partition_point(|e| (e.0, e.1) > (t, seq));
            self.cur.insert(pos, (t, seq, payload));
        } else if bucket - self.cur_bucket <= self.buckets.len() as u64 {
            self.ring_insert(bucket, (t, seq, payload));
        } else {
            self.overflow.push(Parked { t, seq, payload });
        }
    }

    /// Removes and returns the earliest `(cycle, payload)`.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        if self.cur.is_empty() && !self.refill() {
            return None;
        }
        let (t, _seq, payload) = self.cur.pop().expect("refill produced an event");
        self.len -= 1;
        Some((t, payload))
    }

    /// Drops an event into its ring slot and marks it occupied.
    fn ring_insert(&mut self, bucket: u64, event: (Cycle, u64, T)) {
        let slot = (bucket % self.buckets.len() as u64) as usize;
        self.buckets[slot].push(event);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Advances the calendar to the next non-empty bucket, refilling
    /// `cur`. Returns `false` when the queue is empty.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        if self.len == 0 {
            return false;
        }
        let n = self.buckets.len() as u64;
        if self.ring_len > 0 {
            // Earliest bucket = first occupied slot in circular order
            // after the current one (slot `base` itself can only hold
            // bucket `cur_bucket + n`, the far end of the horizon).
            let base = (self.cur_bucket % n) as usize;
            let slot = self.next_occupied(base);
            let mut delta = (slot as u64 + n - base as u64) % n;
            if delta == 0 {
                delta = n;
            }
            self.cur_bucket += delta;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            std::mem::swap(&mut self.buckets[slot], &mut self.cur);
            self.ring_len -= self.cur.len();
        } else {
            // Everything lives past the horizon: jump straight to the
            // earliest parked event's bucket.
            let top = self.overflow.peek().expect("len > 0 with empty ring");
            self.cur_bucket = top.t.index() >> self.shift;
        }
        // The calendar advanced: parked events may now fit the ring —
        // or `cur` itself. (Overflow events are strictly later than
        // every ring event, so migration never lands before
        // `cur_bucket`.)
        while let Some(top) = self.overflow.peek() {
            let bucket = top.t.index() >> self.shift;
            if bucket > self.cur_bucket + n {
                break;
            }
            let Parked { t, seq, payload } = self.overflow.pop().expect("peeked");
            if bucket == self.cur_bucket {
                self.cur.push((t, seq, payload));
            } else {
                self.ring_insert(bucket, (t, seq, payload));
            }
        }
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
        debug_assert!(!self.cur.is_empty());
        true
    }

    /// First occupied ring slot strictly-circularly after `base`
    /// (wrapping around to `base` itself last). Caller guarantees the
    /// ring is non-empty.
    fn next_occupied(&self, base: usize) -> usize {
        let words = self.occupied.len();
        let start = (base + 1) % self.buckets.len();
        let mut word = start / 64;
        let mut mask = !0u64 << (start % 64);
        // `words + 1` iterations: the final pass re-checks the first
        // word without the mask, covering the wrapped-around slots.
        for _ in 0..=words {
            let bits = self.occupied[word] & mask;
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            mask = !0;
            word = (word + 1) % words;
        }
        unreachable!("ring_len > 0 but no occupied slot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(300), 'c');
        q.push(Cycle::new(100), 'a');
        q.push(Cycle::new(200), 'b');
        assert_eq!(q.pop(), Some((Cycle::new(100), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(200), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(300), 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Cycle::new(7), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((Cycle::new(7), i)));
        }
    }

    #[test]
    fn push_into_draining_bucket_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 'a');
        q.push(Cycle::new(12), 'c');
        assert_eq!(q.pop(), Some((Cycle::new(10), 'a')));
        // Same bucket as the event being drained, earlier than 'c'.
        q.push(Cycle::new(11), 'b');
        // Same cycle as 'c' but pushed later: FIFO puts it after.
        q.push(Cycle::new(12), 'd');
        assert_eq!(q.pop(), Some((Cycle::new(11), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(12), 'c')));
        assert_eq!(q.pop(), Some((Cycle::new(12), 'd')));
    }

    #[test]
    fn far_fault_hop_crosses_the_horizon() {
        // Tiny geometry: 4-cycle buckets, 64-bucket ring = 256-cycle
        // horizon, so the paper's 66k-cycle hop exercises overflow.
        let mut q = EventQueue::with_geometry(2, 64);
        q.push(Cycle::new(0), 'a');
        q.push(Cycle::new(66_645), 'z');
        q.push(Cycle::new(100), 'b');
        assert_eq!(q.pop(), Some((Cycle::new(0), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(100), 'b')));
        // Queue jumps straight to the parked event.
        assert_eq!(q.pop(), Some((Cycle::new(66_645), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slot_aliasing_at_the_horizon_edge() {
        // bucket and bucket + n share a ring slot; both orders must
        // survive. 4-cycle buckets, 64 buckets: cycles 0 and 256 alias.
        let mut q = EventQueue::with_geometry(2, 64);
        q.push(Cycle::new(4), "a");
        assert_eq!(q.pop(), Some((Cycle::new(4), "a")));
        // Now cur_bucket = 1; slot 1 is the horizon's far edge
        // (bucket 65 = cycle 260..264).
        q.push(Cycle::new(261), "far");
        q.push(Cycle::new(8), "near");
        assert_eq!(q.pop(), Some((Cycle::new(8), "near")));
        assert_eq!(q.pop(), Some((Cycle::new(261), "far")));
    }

    #[test]
    fn drain_and_restart_much_later() {
        let mut q = EventQueue::with_geometry(2, 64);
        q.push(Cycle::new(1), 'a');
        assert_eq!(q.pop(), Some((Cycle::new(1), 'a')));
        assert_eq!(q.pop(), None);
        // Restart far past the old horizon.
        q.push(Cycle::new(1_000_000), 'b');
        q.push(Cycle::new(1_000_000), 'c');
        assert_eq!(q.pop(), Some((Cycle::new(1_000_000), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(1_000_000), 'c')));
    }

    #[test]
    fn keyed_pushes_pop_in_key_order_not_push_order() {
        let mut q = EventQueue::new();
        // Same cycle, keys out of push order: pops ascend by key.
        q.push_keyed(Cycle::new(7), 5, 'e');
        q.push_keyed(Cycle::new(7), 1, 'a');
        q.push_keyed(Cycle::new(7), 3, 'c');
        assert_eq!(q.pop(), Some((Cycle::new(7), 'a')));
        assert_eq!(q.pop(), Some((Cycle::new(7), 'c')));
        assert_eq!(q.pop(), Some((Cycle::new(7), 'e')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn keyed_pushes_are_reproducible_across_draining_and_overflow() {
        // The same (t, key) set pops identically no matter the push
        // order or which structure (cur / ring / overflow) each entry
        // landed in — what makes the engine's schedule a pure function
        // of (cycle, warp) rather than of push history.
        let events: &[(u64, u64, u32)] = &[
            (10, 2, 0),
            (10, 0, 1),
            (300, 1, 2),
            (300, 0, 3),
            (66_645, 3, 4),
            (66_645, 1, 5),
        ];
        let drain = |order: &[usize]| {
            let mut q = EventQueue::with_geometry(2, 64);
            for &i in order {
                let (t, k, v) = events[i];
                q.push_keyed(Cycle::new(t), k, v);
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        let a = drain(&[0, 1, 2, 3, 4, 5]);
        let b = drain(&[5, 3, 1, 0, 2, 4]);
        assert_eq!(a, b);
        let keys: Vec<u32> = a.iter().map(|&(_, v)| v).collect();
        assert_eq!(keys, vec![1, 0, 3, 2, 5, 4]);
    }

    #[test]
    fn matches_binary_heap_on_random_churn() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Deterministic xorshift stream driving both queues through an
        // engine-like near-monotone workload.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut q = EventQueue::with_geometry(3, 64);
        let mut h: BinaryHeap<Reverse<(Cycle, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut id = 0u32;
        for _ in 0..200 {
            q.push(Cycle::new(now), id);
            h.push(Reverse((Cycle::new(now), seq, id)));
            seq += 1;
            id += 1;
        }
        for step in 0..5_000 {
            if step % 3 != 0 && !h.is_empty() {
                let Reverse((t, _, v)) = h.pop().expect("non-empty");
                assert_eq!(q.pop(), Some((t, v)), "divergence at step {step}");
                now = t.index();
            } else {
                let hop = match next() % 10 {
                    0 => 66_645,
                    1 => 0,
                    r => r * 37,
                };
                q.push(Cycle::new(now + hop), id);
                h.push(Reverse((Cycle::new(now + hop), seq, id)));
                seq += 1;
                id += 1;
            }
        }
        while let Some(Reverse((t, _, v))) = h.pop() {
            assert_eq!(q.pop(), Some((t, v)));
        }
        assert_eq!(q.pop(), None);
    }
}
