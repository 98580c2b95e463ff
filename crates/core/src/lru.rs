//! LRU bookkeeping: a generic recency queue plus the hierarchical
//! (large-page → basic-block) ordering used by the pre-eviction
//! policies (paper Sec. 5.3).

use std::collections::HashMap;
use std::hash::Hash;

use uvm_types::hash::FxBuildHasher;

/// Sentinel slot index for "no neighbour".
const NIL: u32 = u32::MAX;

/// One element of the intrusive recency list.
#[derive(Clone, Debug)]
struct Slot<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// A recency-ordered set with O(1) touch/insert/remove and ordered
/// traversal from least- to most-recently used.
///
/// Internally an intrusive doubly-linked list over a slab of slots,
/// indexed by a `key -> slot` hash map — the same layout as the
/// per-SM TLB, and like it keyed with [`FxBuildHasher`] rather than
/// std's randomly keyed SipHash, which cost more than the list work
/// itself on the per-access hooks. The index is only ever probed,
/// never iterated, so its hasher cannot reach any observable. Every simulated memory access touches an evictor
/// recency list (often two, for the hierarchical policies), so the
/// earlier `BTreeMap`-by-stamp representation's O(log n) touch with
/// its node allocations was one of the largest line items of the
/// engine hot path. Recency order is the only observable: iteration,
/// `peek_*`, and the checkpoint encoding are all defined purely by
/// list position, so the two representations are drop-in
/// schedule-identical.
///
/// # Examples
///
/// ```
/// use uvm_core::LruQueue;
///
/// let mut lru = LruQueue::new();
/// lru.touch("a");
/// lru.touch("b");
/// lru.touch("a"); // refresh
/// assert_eq!(lru.peek_lru(), Some(&"b"));
/// ```
#[derive(Clone, Debug)]
pub struct LruQueue<K> {
    /// Slab of list nodes; freed slots are recycled via `free`.
    slots: Vec<Slot<K>>,
    /// Indices of vacant slots in `slots`.
    free: Vec<u32>,
    /// key -> its slot index.
    index: HashMap<K, u32, FxBuildHasher>,
    /// LRU end of the list (`NIL` when empty).
    head: u32,
    /// MRU end of the list (`NIL` when empty).
    tail: u32,
}

impl<K: Clone + Eq + Hash> Default for LruQueue<K> {
    fn default() -> Self {
        LruQueue {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Clone + Eq + Hash> LruQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `key` at the MRU end, or refreshes it if present.
    pub fn touch(&mut self, key: K) {
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            self.link_tail(slot);
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Slot {
                    key: key.clone(),
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("LruQueue slot overflow");
                self.slots.push(Slot {
                    key: key.clone(),
                    prev: NIL,
                    next: NIL,
                });
                s
            }
        };
        self.index.insert(key, slot);
        self.link_tail(slot);
    }

    /// Inserts `key` at the MRU end only if absent (used for pages that
    /// become valid without being accessed — Sec. 5.3's design choice).
    pub fn insert_if_absent(&mut self, key: K) {
        if !self.index.contains_key(&key) {
            self.touch(key);
        }
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// `true` if `key` is in the queue.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The least-recently-used element.
    pub fn peek_lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.slots[self.head as usize].key)
    }

    /// Removes and returns the least-recently-used element.
    pub fn pop_lru(&mut self) -> Option<K> {
        if self.head == NIL {
            return None;
        }
        let slot = self.head;
        let key = self.slots[slot as usize].key.clone();
        self.unlink(slot);
        self.free.push(slot);
        self.index.remove(&key);
        Some(key)
    }

    /// Iterates from least- to most-recently used.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = &self.slots[cur as usize];
            cur = slot.next;
            Some(&slot.key)
        })
    }

    /// The `skip`-th least-recently-used element (0 = the LRU), used to
    /// implement reservation of the top of the LRU list.
    pub fn peek_nth(&self, skip: usize) -> Option<&K> {
        self.iter().nth(skip)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Serializes the queue for a checkpoint: elements in LRU→MRU
    /// order, key encoding delegated to `put`. Slot indices are *not*
    /// stored — only recency order is observable — so restore replays
    /// [`touch`](Self::touch) and gets a freshly packed slab with
    /// identical recency order.
    pub fn save_state(
        &self,
        w: &mut uvm_types::codec::ByteWriter,
        mut put: impl FnMut(&mut uvm_types::codec::ByteWriter, &K),
    ) {
        w.put_usize(self.len());
        for key in self.iter() {
            put(w, key);
        }
    }

    /// Rebuilds a queue from a [`save_state`](Self::save_state) image,
    /// key decoding delegated to `get`.
    pub fn load_state<'a>(
        r: &mut uvm_types::codec::ByteReader<'a>,
        mut get: impl FnMut(
            &mut uvm_types::codec::ByteReader<'a>,
        ) -> Result<K, uvm_types::codec::CodecError>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        let mut q = LruQueue::new();
        for _ in 0..n {
            q.touch(get(r)?);
        }
        Ok(q)
    }

    /// Detaches `slot` from the list, fixing up its neighbours.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Appends `slot` at the MRU end.
    fn link_tail(&mut self, slot: u32) {
        self.slots[slot as usize].prev = self.tail;
        self.slots[slot as usize].next = NIL;
        if self.tail != NIL {
            self.slots[self.tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_orders_by_recency() {
        let mut q = LruQueue::new();
        q.touch(1);
        q.touch(2);
        q.touch(3);
        assert_eq!(q.peek_lru(), Some(&1));
        q.touch(1);
        assert_eq!(q.peek_lru(), Some(&2));
        assert_eq!(q.pop_lru(), Some(2));
        assert_eq!(q.pop_lru(), Some(3));
        assert_eq!(q.pop_lru(), Some(1));
        assert_eq!(q.pop_lru(), None);
    }

    #[test]
    fn insert_if_absent_preserves_position() {
        let mut q = LruQueue::new();
        q.touch("x");
        q.touch("y");
        q.insert_if_absent("x"); // must NOT refresh x
        assert_eq!(q.peek_lru(), Some(&"x"));
        q.insert_if_absent("z");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_and_contains() {
        let mut q = LruQueue::new();
        q.touch(10);
        q.touch(20);
        assert!(q.contains(&10));
        assert!(q.remove(&10));
        assert!(!q.contains(&10));
        assert!(!q.remove(&10));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn iteration_order_lru_to_mru() {
        let mut q = LruQueue::new();
        for i in [5, 3, 9, 3] {
            q.touch(i);
        }
        let order: Vec<_> = q.iter().copied().collect();
        assert_eq!(order, vec![5, 9, 3]);
    }

    #[test]
    fn peek_nth_skips_reserved_prefix() {
        let mut q = LruQueue::new();
        for i in 0..10 {
            q.touch(i);
        }
        assert_eq!(q.peek_nth(0), Some(&0));
        assert_eq!(q.peek_nth(3), Some(&3));
        assert_eq!(q.peek_nth(10), None);
    }

    #[test]
    fn slot_recycling_keeps_order_through_churn() {
        // Interleaved removes and touches force slab reuse; order must
        // stay exactly recency order throughout.
        let mut q = LruQueue::new();
        for i in 0..8 {
            q.touch(i);
        }
        assert!(q.remove(&3));
        assert!(q.remove(&0));
        q.touch(9);
        q.touch(1); // refresh
        assert!(q.remove(&7));
        q.touch(10);
        let order: Vec<_> = q.iter().copied().collect();
        assert_eq!(order, vec![2, 4, 5, 6, 9, 1, 10]);
        assert_eq!(q.len(), 7);
        // Drain fully via pop_lru in the same order.
        let mut drained = Vec::new();
        while let Some(k) = q.pop_lru() {
            drained.push(k);
        }
        assert_eq!(drained, order);
        assert!(q.is_empty());
    }
}
