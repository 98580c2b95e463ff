//! The GPU page table: per-4KB-page valid/dirty/accessed flags.

use uvm_types::PageId;

/// Flags of one page-table entry.
///
/// `valid` means the page is resident in device memory. `accessed` and
/// `dirty` are set by warp reads/writes; the pre-eviction design-choice
/// discussion in Sec. 5.3 distinguishes pages that are merely valid
/// (brought in by the prefetcher, never touched) from accessed ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PteFlags {
    /// Page is resident in device memory.
    pub valid: bool,
    /// Page has been read or written by a warp since migration.
    pub accessed: bool,
    /// Page has been written and must be written back on eviction.
    pub dirty: bool,
}

/// Packed PTE bit: page is resident.
const B_VALID: u8 = 1;
/// Packed PTE bit: page was read or written since migration.
const B_ACCESSED: u8 = 2;
/// Packed PTE bit: page was written since migration.
const B_DIRTY: u8 = 4;

/// The GPU page table.
///
/// Entries are created lazily: a page with no entry is simply invalid
/// (the first touch of a `cudaMallocManaged` allocation has no PTE at
/// all — paper Sec. 2.2). Validation and invalidation keep a running
/// count of resident pages so capacity checks are O(1).
///
/// The table is a dense byte-per-page array of packed flags, grown to
/// the highest page index validated. The simulator's 2 MB-aligned bump
/// allocator keeps page indices dense, so the array stays proportional
/// to the address-space footprint — and `is_valid`, which the engine
/// consults on every TLB miss and the prefetch planner on every
/// candidate page, becomes a single indexed load instead of a hash
/// probe.
///
/// # Examples
///
/// ```
/// use uvm_mem::PageTable;
/// use uvm_types::PageId;
///
/// let mut pt = PageTable::new();
/// let p = PageId::new(3);
/// assert!(!pt.is_valid(p));
/// pt.validate(p);
/// pt.mark_access(p, true);
/// assert!(pt.flags(p).dirty);
/// assert_eq!(pt.valid_pages(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// Packed `B_*` flag bits per page index; pages beyond the array
    /// have no PTE.
    bits: Vec<u8>,
    valid_count: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if `page` is resident (valid flag set).
    #[inline]
    pub fn is_valid(&self, page: PageId) -> bool {
        self.bits
            .get(page.index() as usize)
            .is_some_and(|&b| b & B_VALID != 0)
    }

    /// The flags of `page` (all-false if no PTE exists).
    #[inline]
    pub fn flags(&self, page: PageId) -> PteFlags {
        let b = self.bits.get(page.index() as usize).copied().unwrap_or(0);
        PteFlags {
            valid: b & B_VALID != 0,
            accessed: b & B_ACCESSED != 0,
            dirty: b & B_DIRTY != 0,
        }
    }

    /// Marks `page` resident, creating the PTE if needed. Migration
    /// clears the accessed/dirty history of any stale entry.
    ///
    /// Returns `true` if the page was previously invalid.
    pub fn validate(&mut self, page: PageId) -> bool {
        let i = page.index() as usize;
        if i >= self.bits.len() {
            self.bits.resize(i + 1, 0);
        }
        let was_invalid = self.bits[i] & B_VALID == 0;
        self.bits[i] = B_VALID;
        if was_invalid {
            self.valid_count += 1;
        }
        was_invalid
    }

    /// Marks `page` not resident, returning the flags it had.
    ///
    /// The entry is retained (invalid), mirroring a cleared valid bit.
    pub fn invalidate(&mut self, page: PageId) -> PteFlags {
        match self.bits.get_mut(page.index() as usize) {
            Some(b) if *b & B_VALID != 0 => {
                let old = PteFlags {
                    valid: true,
                    accessed: *b & B_ACCESSED != 0,
                    dirty: *b & B_DIRTY != 0,
                };
                *b = 0;
                self.valid_count -= 1;
                old
            }
            _ => PteFlags::default(),
        }
    }

    /// Records a warp access to a resident page; `write` also sets the
    /// dirty flag.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not valid — the GMMU must fault first.
    #[inline]
    pub fn mark_access(&mut self, page: PageId, write: bool) {
        let b = self
            .bits
            .get_mut(page.index() as usize)
            .filter(|b| **b & B_VALID != 0)
            .expect("access to non-resident page must fault");
        *b |= B_ACCESSED | if write { B_DIRTY } else { 0 };
    }

    /// Number of resident pages.
    pub fn valid_pages(&self) -> u64 {
        self.valid_count
    }

    /// Iterates over resident pages (ascending page order).
    pub fn iter_valid(&self) -> impl Iterator<Item = PageId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b & B_VALID != 0)
            .map(|(i, _)| PageId::new(i as u64))
    }

    /// Serializes the table for a checkpoint. Only valid entries are
    /// written (an invalid PTE is indistinguishable from a missing
    /// one — `invalidate` resets every flag), sorted by page index so
    /// the encoding is canonical regardless of table growth history.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.valid_count as usize);
        for (i, &b) in self.bits.iter().enumerate() {
            if b & B_VALID != 0 {
                w.put_u64(i as u64);
                w.put_u8(u8::from(b & B_ACCESSED != 0) | (u8::from(b & B_DIRTY != 0) << 1));
            }
        }
    }

    /// Rebuilds a table from a [`save_state`](Self::save_state) image. A
    /// page at or past the reader's page limit is a
    /// [`CodecError::OutOfRange`](uvm_types::codec::CodecError::OutOfRange).
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        let mut pt = PageTable::new();
        for _ in 0..n {
            let page = r.get_page()?;
            let bits = r.get_u8()?;
            if bits > 0b11 {
                return Err(uvm_types::codec::CodecError::BadTag {
                    what: "pte flags",
                    value: u64::from(bits),
                });
            }
            pt.validate(page);
            let i = page.index() as usize;
            pt.bits[i] |= ((bits & 1) * B_ACCESSED) | (((bits >> 1) & 1) * B_DIRTY);
        }
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_start_invalid() {
        let pt = PageTable::new();
        assert!(!pt.is_valid(PageId::new(0)));
        assert_eq!(pt.flags(PageId::new(0)), PteFlags::default());
        assert_eq!(pt.valid_pages(), 0);
    }

    #[test]
    fn validate_sets_valid_and_counts() {
        let mut pt = PageTable::new();
        assert!(pt.validate(PageId::new(1)));
        assert!(pt.is_valid(PageId::new(1)));
        assert_eq!(pt.valid_pages(), 1);
        // Re-validating a resident page is a no-op for the count.
        assert!(!pt.validate(PageId::new(1)));
        assert_eq!(pt.valid_pages(), 1);
    }

    #[test]
    fn migration_clears_history() {
        let mut pt = PageTable::new();
        pt.validate(PageId::new(1));
        pt.mark_access(PageId::new(1), true);
        pt.invalidate(PageId::new(1));
        pt.validate(PageId::new(1));
        let f = pt.flags(PageId::new(1));
        assert!(f.valid && !f.accessed && !f.dirty);
    }

    #[test]
    fn access_sets_flags() {
        let mut pt = PageTable::new();
        pt.validate(PageId::new(2));
        pt.mark_access(PageId::new(2), false);
        assert!(pt.flags(PageId::new(2)).accessed);
        assert!(!pt.flags(PageId::new(2)).dirty);
        pt.mark_access(PageId::new(2), true);
        assert!(pt.flags(PageId::new(2)).dirty);
        // A later read does not clear dirtiness.
        pt.mark_access(PageId::new(2), false);
        assert!(pt.flags(PageId::new(2)).dirty);
    }

    #[test]
    #[should_panic(expected = "must fault")]
    fn access_to_invalid_page_panics() {
        let mut pt = PageTable::new();
        pt.mark_access(PageId::new(3), false);
    }

    #[test]
    fn invalidate_returns_old_flags() {
        let mut pt = PageTable::new();
        pt.validate(PageId::new(4));
        pt.mark_access(PageId::new(4), true);
        let old = pt.invalidate(PageId::new(4));
        assert!(old.valid && old.accessed && old.dirty);
        assert!(!pt.is_valid(PageId::new(4)));
        assert_eq!(pt.valid_pages(), 0);
        // Invalidating an already-invalid page is a no-op.
        let old = pt.invalidate(PageId::new(4));
        assert_eq!(old, PteFlags::default());
        assert_eq!(pt.valid_pages(), 0);
    }

    #[test]
    fn iter_valid_lists_resident_pages() {
        let mut pt = PageTable::new();
        for i in 0..5 {
            pt.validate(PageId::new(i));
        }
        pt.invalidate(PageId::new(2));
        let mut pages: Vec<_> = pt.iter_valid().map(|p| p.index()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![0, 1, 3, 4]);
    }
}
