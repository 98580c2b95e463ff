//! LRU bookkeeping: a recency queue over dense ids, the building block
//! of the page-granular LRU evictor and of the hierarchical
//! (large-page → basic-block) ordering used by the pre-eviction
//! policies (paper Sec. 5.3). Keys index a dense table, not a hash map.

use uvm_types::codec::{ByteReader, ByteWriter, CodecError};

use crate::dense::DenseKey;

/// Sentinel slot index for "no neighbour" and "absent key".
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
/// indexed by a dense `key index -> slot` table that grows to the
/// highest [`DenseKey::dense_index`] it has held (4 bytes per index) —
/// the layout of the per-SM TLB. Every simulated memory access touches
/// an evictor recency list (often two, for the hierarchical policies),
/// so a touch is one table load and a few link writes: no hashing. Keys
/// must therefore be dense ids (pages, basic blocks or large pages of
/// the bump allocator, or offsets within one). Recency order is the
/// only observable: iteration, `peek_*`, and the checkpoint encoding
/// are all defined purely by list position, never by the index.
///
/// # Examples
///
/// ```
/// use uvm_core::LruQueue;
///
/// let mut lru: LruQueue<u64> = LruQueue::new();
/// lru.touch(1);
/// lru.touch(2);
/// lru.touch(1); // refresh
/// assert_eq!(lru.peek_lru(), Some(&2));
/// ```
#[derive(Clone, Debug)]
pub struct LruQueue<K> {
    /// Slab of list nodes; freed slots are recycled via `free`.
    slots: Vec<Slot<K>>,
    /// Indices of vacant slots in `slots`.
    free: Vec<u32>,
    /// Key index -> its slot, `NIL` when absent.
    index: Vec<u32>,
    /// LRU end of the list (`NIL` when empty).
    head: u32,
    /// MRU end of the list (`NIL` when empty).
    tail: u32,
}

impl<K: DenseKey> Default for LruQueue<K> {
    fn default() -> Self {
        LruQueue {
            slots: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: DenseKey> LruQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn slot_of(&self, key: K) -> Option<u32> {
        match self.index.get(key.dense_index()) {
            Some(&slot) if slot != NIL => Some(slot),
            _ => None,
        }
    }

    /// Inserts `key` at the MRU end, or refreshes it if present.
    pub fn touch(&mut self, key: K) {
        if let Some(slot) = self.slot_of(key) {
            self.unlink(slot);
            self.link_tail(slot);
            return;
        }
        let node = Slot {
            key,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = node;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("LruQueue slot overflow");
                self.slots.push(node);
                s
            }
        };
        let i = key.dense_index();
        if i >= self.index.len() {
            self.index.resize(i + 1, NIL);
        }
        self.index[i] = slot;
        self.link_tail(slot);
    }

    /// Inserts `key` at the MRU end only if absent (used for pages that
    /// become valid without being accessed — Sec. 5.3's design choice).
    pub fn insert_if_absent(&mut self, key: K) {
        if !self.contains(&key) {
            self.touch(key);
        }
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.slot_of(*key) {
            Some(slot) => {
                self.release(slot);
                true
            }
            None => false,
        }
    }

    /// `true` if `key` is in the queue.
    pub fn contains(&self, key: &K) -> bool {
        self.slot_of(*key).is_some()
    }

    /// The least-recently-used element.
    pub fn peek_lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.slots[self.head as usize].key)
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

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the queue for a checkpoint: the count, then each key's
    /// index in LRU→MRU order. Slot indices are *not* stored — only
    /// recency order is observable — so restore replays
    /// [`touch`](Self::touch) and gets a freshly packed slab with
    /// identical recency order.
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for key in self.iter() {
            w.put_u64(key.dense_index() as u64);
        }
    }

    /// Rebuilds a queue from a [`save_state`](Self::save_state) image.
    /// A key outside the reader's managed range is a
    /// [`CodecError::OutOfRange`] (see [`DenseKey::decode`]).
    pub fn load_state(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        let mut q = LruQueue::new();
        for _ in 0..n {
            q.touch(K::decode(r)?);
        }
        Ok(q)
    }

    /// Unlinks an occupied `slot`, clears its index entry and recycles it.
    fn release(&mut self, slot: u32) {
        let i = self.slots[slot as usize].key.dense_index();
        self.index[i] = NIL;
        self.unlink(slot);
        self.free.push(slot);
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

    /// Removes every element from the LRU end, returning them in
    /// eviction order.
    fn drain(q: &mut LruQueue<u64>) -> Vec<u64> {
        let mut drained = Vec::new();
        while let Some(&k) = q.peek_lru() {
            assert!(q.remove(&k));
            drained.push(k);
        }
        drained
    }

    #[test]
    fn touch_orders_by_recency() {
        let mut q: LruQueue<u64> = LruQueue::new();
        q.touch(1);
        q.touch(2);
        q.touch(3);
        assert_eq!(q.peek_lru(), Some(&1));
        q.touch(1);
        assert_eq!(q.peek_lru(), Some(&2));
        assert_eq!(drain(&mut q), vec![2, 3, 1]);
        assert_eq!(q.peek_lru(), None);
    }

    #[test]
    fn insert_if_absent_preserves_position() {
        let mut q: LruQueue<u64> = LruQueue::new();
        q.touch(24);
        q.touch(25);
        q.insert_if_absent(24); // must NOT refresh 24
        assert_eq!(q.peek_lru(), Some(&24));
        q.insert_if_absent(26);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_and_contains() {
        let mut q: LruQueue<u64> = LruQueue::new();
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
        let mut q: LruQueue<u64> = LruQueue::new();
        for i in [5, 3, 9, 3] {
            q.touch(i);
        }
        let order: Vec<_> = q.iter().copied().collect();
        assert_eq!(order, vec![5, 9, 3]);
    }

    #[test]
    fn slot_recycling_keeps_order_through_churn() {
        // Interleaved removes and touches force slab reuse; order must
        // stay exactly recency order throughout.
        let mut q: LruQueue<u64> = LruQueue::new();
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
        // Drain fully from the LRU end in the same order.
        assert_eq!(drain(&mut q), order);
        assert!(q.is_empty());
    }

    #[test]
    fn state_round_trips_and_bounds_keys() {
        use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
        use uvm_types::PageId;
        let mut q: LruQueue<PageId> = LruQueue::new();
        for i in [3, 900, 7, 3, 2000] {
            q.touch(PageId::new(i));
        }
        q.remove(&PageId::new(7));
        let mut w = ByteWriter::new();
        q.save_state(&mut w);
        let bytes = w.into_bytes();
        let restored: LruQueue<PageId> =
            LruQueue::load_state(&mut ByteReader::new(&bytes).with_page_limit(2001)).unwrap();
        let mut w2 = ByteWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "round trip is byte-stable");
        // The same image under a smaller managed range names a page
        // past it.
        let err =
            LruQueue::<PageId>::load_state(&mut ByteReader::new(&bytes).with_page_limit(2000))
                .unwrap_err();
        assert!(
            matches!(err, CodecError::OutOfRange { value: 2000, .. }),
            "{err}"
        );
    }
}
