//! Managed-allocation registry: the UVM analogue of
//! `cudaMallocManaged` bookkeeping.
//!
//! Allocations are assigned 2 MB-aligned virtual addresses by a bump
//! allocator, carved into full binary trees per [`split_allocation`]
//! (one 32-leaf tree per whole 2 MB plus a rounded-up remainder tree),
//! and the rounded-up extent is treated as migratable, mirroring the
//! driver's zero-fill of the rounded tail.

use uvm_types::{split_allocation, BasicBlockId, Bytes, PageId, VirtAddr, LARGE_PAGE_SIZE};

use crate::tree::AllocTree;

/// Identifier of a managed allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId(usize);

impl AllocId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One managed allocation and its prefetch/eviction trees.
#[derive(Clone, Debug)]
pub struct Allocation {
    id: AllocId,
    base: VirtAddr,
    requested: Bytes,
    trees: Vec<AllocTree>,
    /// First basic block of each tree, for O(log n) tree lookup.
    tree_starts: Vec<u64>,
    /// Total rounded extent in basic blocks.
    rounded_blocks: u64,
}

impl Allocation {
    /// The allocation id.
    pub fn id(&self) -> AllocId {
        self.id
    }

    /// Base virtual address (2 MB aligned).
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// The size the caller asked for.
    pub fn requested(&self) -> Bytes {
        self.requested
    }

    /// The rounded-up migratable extent.
    pub fn rounded(&self) -> Bytes {
        Bytes::kib(64) * self.rounded_blocks
    }

    /// First 4 KB page of the allocation.
    pub fn first_page(&self) -> PageId {
        self.base.page()
    }

    /// One-past-the-last migratable page.
    pub fn end_page(&self) -> PageId {
        self.first_page().add(self.rounded().pages_ceil())
    }

    /// `true` if `page` is inside the migratable extent.
    pub fn contains_page(&self, page: PageId) -> bool {
        page >= self.first_page() && page < self.end_page()
    }

    /// The tree covering `block`, if the block is inside this
    /// allocation.
    pub fn tree_for_block(&self, block: BasicBlockId) -> Option<&AllocTree> {
        let idx = self.tree_index(block)?;
        Some(&self.trees[idx])
    }

    /// Mutable access to the tree covering `block`.
    pub fn tree_for_block_mut(&mut self, block: BasicBlockId) -> Option<&mut AllocTree> {
        let idx = self.tree_index(block)?;
        Some(&mut self.trees[idx])
    }

    fn tree_index(&self, block: BasicBlockId) -> Option<usize> {
        let first = self.base.basic_block().index();
        if block.index() < first || block.index() >= first + self.rounded_blocks {
            return None;
        }
        let idx = match self.tree_starts.binary_search(&block.index()) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        debug_assert!(self.trees[idx].extent().contains(block));
        Some(idx)
    }

    /// The trees of this allocation.
    pub fn trees(&self) -> &[AllocTree] {
        &self.trees
    }
}

/// The registry of managed allocations, with a 2 MB-aligned bump
/// virtual-address allocator.
///
/// # Examples
///
/// ```
/// use uvm_core::Allocations;
/// use uvm_types::Bytes;
///
/// let mut allocs = Allocations::new();
/// let a = allocs.allocate(Bytes::mib(4) + Bytes::kib(192));
/// let alloc = allocs.get(a);
/// assert_eq!(alloc.trees().len(), 3); // 2MB + 2MB + 256KB (paper's example)
/// assert_eq!(alloc.rounded(), Bytes::mib(4) + Bytes::kib(256));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Allocations {
    allocs: Vec<Allocation>,
    /// Next free 2 MB-aligned virtual address.
    next_base: u64,
}

impl Allocations {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a managed allocation of `size` bytes and returns its
    /// id. No physical memory is allocated — pages migrate on demand.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn allocate(&mut self, size: Bytes) -> AllocId {
        assert!(size > Bytes::ZERO, "zero-size managed allocation");
        let id = AllocId(self.allocs.len());
        let base = VirtAddr::new(self.next_base);
        let first_block = base.basic_block();
        let extents = split_allocation(first_block, size);
        let rounded_blocks: u64 = extents.iter().map(|e| e.num_blocks).sum();
        let tree_starts = extents.iter().map(|e| e.first_block.index()).collect();
        let trees = extents.into_iter().map(AllocTree::new).collect();
        // Advance the bump pointer to the next 2 MB boundary past the
        // rounded extent so every allocation starts a fresh large page.
        let extent_bytes = rounded_blocks * Bytes::kib(64).bytes();
        self.next_base += extent_bytes.div_ceil(LARGE_PAGE_SIZE.bytes()) * LARGE_PAGE_SIZE.bytes();
        self.allocs.push(Allocation {
            id,
            base,
            requested: size,
            trees,
            tree_starts,
            rounded_blocks,
        });
        id
    }

    /// The allocation with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub fn get(&self, id: AllocId) -> &Allocation {
        &self.allocs[id.0]
    }

    /// The allocation containing `page`, if any.
    pub fn find_by_page(&self, page: PageId) -> Option<&Allocation> {
        // Allocations have ascending bases; binary search on base page.
        let idx = self
            .allocs
            .partition_point(|a| a.first_page() <= page)
            .checked_sub(1)?;
        let alloc = &self.allocs[idx];
        alloc.contains_page(page).then_some(alloc)
    }

    /// The allocation containing `block`, if any (mutable).
    pub fn find_by_block_mut(&mut self, block: BasicBlockId) -> Option<&mut Allocation> {
        let page = block.first_page();
        let idx = self
            .allocs
            .partition_point(|a| a.first_page() <= page)
            .checked_sub(1)?;
        let alloc = &mut self.allocs[idx];
        alloc.contains_page(page).then_some(alloc)
    }

    /// Iterates over all allocations.
    pub fn iter(&self) -> impl Iterator<Item = &Allocation> {
        self.allocs.iter()
    }

    /// Total requested bytes across allocations (the working-set
    /// footprint in the paper's terms).
    pub fn total_requested(&self) -> Bytes {
        self.allocs.iter().map(|a| a.requested).sum()
    }

    /// One past the highest migratable page of any allocation: every
    /// page the driver manages has a smaller index. Checkpoint decoders
    /// of page-indexed tables are bounded by it.
    pub fn page_limit(&self) -> u64 {
        self.allocs.last().map_or(0, |a| a.end_page().index())
    }

    /// Total rounded (migratable) bytes across allocations.
    pub fn total_rounded(&self) -> Bytes {
        self.allocs.iter().map(|a| a.rounded()).sum()
    }

    /// Serializes the registry for a checkpoint: each allocation's
    /// requested size (bases and tree layout are a pure function of
    /// the allocation sequence) plus every tree's valid counts.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.allocs.len());
        for a in &self.allocs {
            w.put_u64(a.requested.bytes());
            for tree in &a.trees {
                tree.save_state(w);
            }
        }
    }

    /// Rebuilds a registry from a [`save_state`](Self::save_state)
    /// image by replaying [`allocate`](Self::allocate) (reproducing the
    /// deterministic bump addresses and tree layout) and restoring each
    /// tree's valid counts.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        let mut allocs = Allocations::new();
        for _ in 0..n {
            let requested = Bytes::new(r.get_u64()?);
            if requested == Bytes::ZERO {
                return Err(uvm_types::codec::CodecError::BadTag {
                    what: "allocation size",
                    value: 0,
                });
            }
            let id = allocs.allocate(requested);
            for tree in &mut allocs.allocs[id.index()].trees {
                tree.load_state(r)?;
            }
        }
        Ok(allocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_are_2mb_aligned_and_disjoint() {
        let mut r = Allocations::new();
        let a = r.allocate(Bytes::kib(100));
        let b = r.allocate(Bytes::mib(3));
        let c = r.allocate(Bytes::kib(4));
        for id in [a, b, c] {
            assert_eq!(r.get(id).base().raw() % LARGE_PAGE_SIZE.bytes(), 0);
        }
        // 100 KB rounds to 128 KB but the next base still jumps 2 MB.
        assert_eq!(r.get(b).base().raw(), LARGE_PAGE_SIZE.bytes());
        // 3 MB rounds to two trees (2 MB + 1 MB) within 4 MB of VA.
        assert_eq!(r.get(c).base().raw(), 3 * LARGE_PAGE_SIZE.bytes());
    }

    #[test]
    fn paper_example_tree_split() {
        let mut r = Allocations::new();
        let id = r.allocate(Bytes::mib(4) + Bytes::kib(192));
        let a = r.get(id);
        let sizes: Vec<_> = a.trees().iter().map(|t| t.extent().num_blocks).collect();
        assert_eq!(sizes, vec![32, 32, 4]);
        assert_eq!(a.rounded(), Bytes::mib(4) + Bytes::kib(256));
    }

    #[test]
    fn page_lookup() {
        let mut r = Allocations::new();
        let a = r.allocate(Bytes::mib(2));
        let b = r.allocate(Bytes::kib(64));
        assert_eq!(r.find_by_page(PageId::new(0)).unwrap().id(), a);
        assert_eq!(r.find_by_page(PageId::new(511)).unwrap().id(), a);
        assert_eq!(r.find_by_page(PageId::new(512)).unwrap().id(), b);
        assert_eq!(r.find_by_page(PageId::new(512 + 15)).unwrap().id(), b);
        // Past the rounded extent of b.
        assert!(r.find_by_page(PageId::new(512 + 16)).is_none());
    }

    #[test]
    fn tree_lookup_by_block() {
        let mut r = Allocations::new();
        let id = r.allocate(Bytes::mib(4) + Bytes::kib(192));
        let a = r.get(id);
        assert_eq!(
            a.tree_for_block(BasicBlockId::new(0))
                .unwrap()
                .extent()
                .first_block,
            BasicBlockId::new(0)
        );
        assert_eq!(
            a.tree_for_block(BasicBlockId::new(33))
                .unwrap()
                .extent()
                .first_block,
            BasicBlockId::new(32)
        );
        assert_eq!(
            a.tree_for_block(BasicBlockId::new(65))
                .unwrap()
                .extent()
                .first_block,
            BasicBlockId::new(64)
        );
        // Block past the rounded extent (4 MB + 256 KB = 68 blocks).
        assert!(a.tree_for_block(BasicBlockId::new(68)).is_none());
    }

    #[test]
    fn rounded_tail_is_migratable() {
        let mut r = Allocations::new();
        let id = r.allocate(Bytes::kib(192)); // rounds to 256 KB
        let a = r.get(id);
        assert!(a.contains_page(PageId::new(63))); // last page of 256 KB
        assert!(!a.contains_page(PageId::new(64)));
    }

    #[test]
    fn totals() {
        let mut r = Allocations::new();
        r.allocate(Bytes::mib(2));
        r.allocate(Bytes::kib(100));
        assert_eq!(r.total_requested(), Bytes::mib(2) + Bytes::kib(100));
        assert_eq!(r.total_rounded(), Bytes::mib(2) + Bytes::kib(128));
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_rejected() {
        let mut r = Allocations::new();
        r.allocate(Bytes::ZERO);
    }
}
