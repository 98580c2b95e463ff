//! Allocation geometry: how a `cudaMallocManaged`-style allocation is
//! carved into full binary trees of 64 KB basic blocks (paper Sec. 3.3).
//!
//! Every allocation is first divided into 2 MB large pages, each backed
//! by a full binary tree whose 32 leaves are the 64 KB basic blocks. If
//! the allocation size is not a multiple of 2 MB, the remainder is
//! rounded **up** to the next `2^i * 64 KB` and one additional (smaller)
//! full tree is created. The paper's example: a 4 MB + 192 KB allocation
//! becomes two 2 MB trees plus one 256 KB tree.

use crate::size::{Bytes, BASIC_BLOCK_SIZE, LARGE_PAGE_SIZE};
use crate::BasicBlockId;

/// The extent of one full binary tree inside an allocation.
///
/// A tree covers `num_blocks` contiguous 64 KB basic blocks starting at
/// `first_block`; `num_blocks` is always a power of two in `1..=32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TreeExtent {
    /// First 64 KB basic block covered by the tree.
    pub first_block: BasicBlockId,
    /// Number of leaves (64 KB blocks); a power of two, at most 32.
    pub num_blocks: u64,
}

impl TreeExtent {
    /// Total virtual-address span of the tree.
    pub fn span(&self) -> Bytes {
        BASIC_BLOCK_SIZE * self.num_blocks
    }

    /// `true` if `block` falls inside this extent.
    pub fn contains(&self, block: BasicBlockId) -> bool {
        let idx = block.index();
        let first = self.first_block.index();
        idx >= first && idx < first + self.num_blocks
    }
}

/// Rounds a byte size up to the next `2^i * 64 KB`, the size class a
/// remainder tree must have to stay a *full* binary tree.
///
/// Returns the number of 64 KB basic blocks (a power of two). A zero
/// size rounds to zero blocks.
///
/// # Examples
///
/// ```
/// use uvm_types::{round_up_pow2_blocks, Bytes};
///
/// assert_eq!(round_up_pow2_blocks(Bytes::kib(192)), 4); // -> 256 KB
/// assert_eq!(round_up_pow2_blocks(Bytes::kib(64)), 1);
/// assert_eq!(round_up_pow2_blocks(Bytes::kib(65)), 2);
/// ```
pub fn round_up_pow2_blocks(size: Bytes) -> u64 {
    if size == Bytes::ZERO {
        return 0;
    }
    let blocks = size.bytes().div_ceil(BASIC_BLOCK_SIZE.bytes());
    blocks.next_power_of_two()
}

/// Splits an allocation of `size` bytes starting at basic block
/// `first_block` into the full binary trees the GMMU maintains for it.
///
/// Whole 2 MB large pages each get a 32-leaf tree; a non-zero remainder
/// gets one tree rounded up per [`round_up_pow2_blocks`].
///
/// # Examples
///
/// ```
/// use uvm_types::{split_allocation, Bytes, BasicBlockId};
///
/// // The paper's example: 4 MB + 192 KB -> two 2 MB trees + one 256 KB tree.
/// let trees = split_allocation(BasicBlockId::new(0), Bytes::mib(4) + Bytes::kib(192));
/// assert_eq!(trees.len(), 3);
/// assert_eq!(trees[0].num_blocks, 32);
/// assert_eq!(trees[1].num_blocks, 32);
/// assert_eq!(trees[2].num_blocks, 4);
/// assert_eq!(trees[2].first_block, BasicBlockId::new(64));
/// ```
pub fn split_allocation(first_block: BasicBlockId, size: Bytes) -> Vec<TreeExtent> {
    let blocks_per_large = LARGE_PAGE_SIZE / BASIC_BLOCK_SIZE;
    let full_trees = size.bytes() / LARGE_PAGE_SIZE.bytes();
    let remainder = Bytes::new(size.bytes() % LARGE_PAGE_SIZE.bytes());

    let mut trees = Vec::new();
    let mut cursor = first_block;
    for _ in 0..full_trees {
        trees.push(TreeExtent {
            first_block: cursor,
            num_blocks: blocks_per_large,
        });
        cursor = cursor.add(blocks_per_large);
    }
    let rem_blocks = round_up_pow2_blocks(remainder);
    if rem_blocks > 0 {
        trees.push(TreeExtent {
            first_block: cursor,
            num_blocks: rem_blocks,
        });
    }
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_4mb_192kb() {
        let trees = split_allocation(BasicBlockId::new(0), Bytes::mib(4) + Bytes::kib(192));
        assert_eq!(trees.len(), 3);
        assert_eq!(trees[0].num_blocks, 32);
        assert_eq!(trees[0].first_block, BasicBlockId::new(0));
        assert_eq!(trees[1].num_blocks, 32);
        assert_eq!(trees[1].first_block, BasicBlockId::new(32));
        // 192 KB remainder rounds up to 256 KB = 4 blocks.
        assert_eq!(trees[2].num_blocks, 4);
        assert_eq!(trees[2].first_block, BasicBlockId::new(64));
        assert_eq!(trees[2].span(), Bytes::kib(256));
    }

    #[test]
    fn exact_multiple_has_no_remainder_tree() {
        let trees = split_allocation(BasicBlockId::new(10), Bytes::mib(6));
        assert_eq!(trees.len(), 3);
        assert!(trees.iter().all(|t| t.num_blocks == 32));
    }

    #[test]
    fn small_allocations() {
        // 512 KB: the worked examples of Fig. 2 use a single 8-leaf tree.
        let trees = split_allocation(BasicBlockId::new(0), Bytes::kib(512));
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].num_blocks, 8);

        let trees = split_allocation(BasicBlockId::new(0), Bytes::kib(1));
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].num_blocks, 1);
    }

    #[test]
    fn zero_allocation_yields_no_trees() {
        assert!(split_allocation(BasicBlockId::new(0), Bytes::ZERO).is_empty());
    }

    #[test]
    fn rounding() {
        assert_eq!(round_up_pow2_blocks(Bytes::ZERO), 0);
        assert_eq!(round_up_pow2_blocks(Bytes::new(1)), 1);
        assert_eq!(round_up_pow2_blocks(Bytes::kib(64)), 1);
        assert_eq!(round_up_pow2_blocks(Bytes::kib(128)), 2);
        assert_eq!(round_up_pow2_blocks(Bytes::kib(129)), 4);
        assert_eq!(round_up_pow2_blocks(Bytes::kib(1024)), 16);
        assert_eq!(round_up_pow2_blocks(Bytes::kib(1025)), 32);
    }

    #[test]
    fn extent_contains() {
        let t = TreeExtent {
            first_block: BasicBlockId::new(8),
            num_blocks: 4,
        };
        assert!(!t.contains(BasicBlockId::new(7)));
        assert!(t.contains(BasicBlockId::new(8)));
        assert!(t.contains(BasicBlockId::new(11)));
        assert!(!t.contains(BasicBlockId::new(12)));
    }

    #[test]
    fn trees_tile_the_allocation_contiguously() {
        let size = Bytes::mib(7) + Bytes::kib(300);
        let trees = split_allocation(BasicBlockId::new(100), size);
        let mut cursor = BasicBlockId::new(100);
        for t in &trees {
            assert_eq!(t.first_block, cursor);
            assert!(t.num_blocks.is_power_of_two());
            cursor = cursor.add(t.num_blocks);
        }
        // Coverage is at least the requested size.
        let covered: u64 = trees.iter().map(|t| t.span().bytes()).sum();
        assert!(covered >= size.bytes());
    }
}
