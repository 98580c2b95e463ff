//! Generation-stamped TLB shootdown directory.
//!
//! Evicting a page must invalidate its cached translation in every
//! SM's TLB. The naive broadcast probes all `num_units` TLBs per
//! evicted page — at paper scale (28 SMs, 64-entry TLBs) that was an
//! O(num_units x capacity) sweep on every eviction. The directory
//! replaces it with two O(1)-per-holder mechanisms:
//!
//! * a **generation counter per page**: [`bump`](ShootdownDirectory::bump)
//!   increments it on eviction, and a TLB entry only hits while its
//!   fill-time stamp matches ([`Tlb::lookup_gen`](crate::Tlb::lookup_gen)),
//!   so a stale translation can never be observed — even if its slot
//!   were still occupied; and
//! * a **holder bitmask per page**, maintained by
//!   [`note_fill`](ShootdownDirectory::note_fill) /
//!   [`note_drop`](ShootdownDirectory::note_drop), so
//!   [`drain_holders`](ShootdownDirectory::drain_holders) visits only
//!   the TLBs that actually cache the page (usually 0–2) to reclaim
//!   their slots eagerly. Eager reclamation keeps LRU occupancy
//!   identical to a broadcast — a stale entry never lingers to displace
//!   a live one — which is what makes the directory a drop-in,
//!   schedule-identical replacement.
//!
//! Tables grow lazily with the highest page index seen; the simulator's
//! 2 MB-aligned bump allocator keeps page indices dense, so the tables
//! stay proportional to the working set.

use uvm_types::PageId;

/// Per-page generation counters plus holder bitmasks for targeted TLB
/// shootdown across up to 64 units.
#[derive(Clone, Debug)]
pub struct ShootdownDirectory {
    /// Current generation of each page; pages beyond the table are at
    /// generation 0.
    generations: Vec<u32>,
    /// One bit per (page, unit): set while the unit's TLB caches the
    /// page. `words` u64 words per page.
    holders: Vec<u64>,
    /// Holder words per page.
    words: usize,
    num_units: usize,
}

impl ShootdownDirectory {
    /// A directory tracking `num_units` TLBs.
    ///
    /// # Panics
    ///
    /// Panics if `num_units` is zero.
    pub fn new(num_units: usize) -> Self {
        assert!(num_units > 0, "directory needs at least one unit");
        ShootdownDirectory {
            generations: Vec::new(),
            holders: Vec::new(),
            words: num_units.div_ceil(64),
            num_units,
        }
    }

    /// Number of TLB units tracked.
    pub fn num_units(&self) -> usize {
        self.num_units
    }

    /// The page's current generation (0 until first bumped).
    #[inline]
    pub fn generation(&self, page: PageId) -> u32 {
        let i = page.index() as usize;
        self.generations.get(i).copied().unwrap_or(0)
    }

    /// Invalidates every outstanding translation of `page` by moving it
    /// to a new generation. Pair with
    /// [`drain_holders`](Self::drain_holders) to also reclaim the
    /// holders' slots eagerly.
    pub fn bump(&mut self, page: PageId) {
        let i = page.index() as usize;
        self.grow_to(i);
        self.generations[i] += 1;
    }

    /// Records that `unit`'s TLB now caches a translation of `page`.
    #[inline]
    pub fn note_fill(&mut self, page: PageId, unit: usize) {
        debug_assert!(unit < self.num_units);
        let i = page.index() as usize;
        self.grow_to(i);
        self.holders[i * self.words + unit / 64] |= 1 << (unit % 64);
    }

    /// Records that `unit`'s TLB no longer caches `page` (its entry was
    /// evicted by the TLB's own LRU replacement or invalidated).
    #[inline]
    pub fn note_drop(&mut self, page: PageId, unit: usize) {
        debug_assert!(unit < self.num_units);
        let i = page.index() as usize;
        if let Some(word) = self.holders.get_mut(i * self.words + unit / 64) {
            *word &= !(1 << (unit % 64));
        }
    }

    /// Calls `f` for every unit currently holding `page`, clearing the
    /// holder set. O(words + holders), independent of TLB capacity and
    /// of units that never cached the page.
    pub fn drain_holders(&mut self, page: PageId, mut f: impl FnMut(usize)) {
        let i = page.index() as usize;
        let base = i * self.words;
        if base >= self.holders.len() {
            return;
        }
        // Fast path: up to 64 units fit one word (the paper-scale 28-SM
        // config), so skip the word loop's bounds checks entirely.
        if self.words == 1 {
            let mut word = std::mem::take(&mut self.holders[base]);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                f(bit);
            }
            return;
        }
        for w in 0..self.words {
            let mut word = std::mem::take(&mut self.holders[base + w]);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                f(w * 64 + bit);
            }
        }
    }

    /// Iterates every `(page, unit)` pair with a set holder bit, in
    /// page order — the auditor's full read-only view of the holder
    /// table.
    pub fn iter_holders(&self) -> impl Iterator<Item = (PageId, usize)> + '_ {
        (0..self.generations.len()).flat_map(move |i| {
            let page = PageId::new(i as u64);
            self.holders_of(page).into_iter().map(move |u| (page, u))
        })
    }

    /// The units currently recorded as holding `page`, without
    /// draining them — the auditor's read-only view.
    pub fn holders_of(&self, page: PageId) -> Vec<usize> {
        let i = page.index() as usize;
        let base = i * self.words;
        let mut units = Vec::new();
        if base >= self.holders.len() {
            return units;
        }
        for w in 0..self.words {
            let mut word = self.holders[base + w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                units.push(w * 64 + bit);
            }
        }
        units
    }

    /// Serializes the directory for a checkpoint: the dense generation
    /// and holder tables verbatim (table *length* is growth history,
    /// which `generation()` reads through, so it round-trips exactly).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.num_units);
        w.put_usize(self.generations.len());
        for &g in &self.generations {
            w.put_u32(g);
        }
        for &word in &self.holders {
            w.put_u64(word);
        }
    }

    /// Rebuilds a directory from a [`save_state`](Self::save_state)
    /// image.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let num_units = r.get_usize()?;
        if num_units == 0 {
            return Err(uvm_types::codec::CodecError::BadTag {
                what: "shootdown units",
                value: 0,
            });
        }
        let words = num_units.div_ceil(64);
        let pages = r.get_count()?;
        let mut generations = Vec::with_capacity(pages);
        for _ in 0..pages {
            generations.push(r.get_u32()?);
        }
        // Every holder word takes at least one byte, so a table larger
        // than the input left is corrupt; refuse before allocating it.
        let n_words = pages
            .checked_mul(words)
            .filter(|&n| n <= r.remaining())
            .ok_or(uvm_types::codec::CodecError::BadLength {
                len: (pages as u64).saturating_mul(words as u64),
                remaining: r.remaining(),
            })?;
        let mut holders = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            holders.push(r.get_u64()?);
        }
        Ok(ShootdownDirectory {
            generations,
            holders,
            words,
            num_units,
        })
    }

    /// Grows the tables to cover page index `i`.
    fn grow_to(&mut self, i: usize) {
        if i >= self.generations.len() {
            self.generations.resize(i + 1, 0);
            self.holders.resize((i + 1) * self.words, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_starts_at_zero_and_bumps() {
        let mut dir = ShootdownDirectory::new(4);
        let p = PageId::new(10);
        assert_eq!(dir.generation(p), 0);
        dir.bump(p);
        assert_eq!(dir.generation(p), 1);
        dir.bump(p);
        assert_eq!(dir.generation(p), 2);
        // Other pages are unaffected, including never-seen ones.
        assert_eq!(dir.generation(PageId::new(9)), 0);
        assert_eq!(dir.generation(PageId::new(1_000_000)), 0);
    }

    #[test]
    fn drain_visits_exactly_the_holders() {
        let mut dir = ShootdownDirectory::new(28);
        let p = PageId::new(3);
        dir.note_fill(p, 0);
        dir.note_fill(p, 7);
        dir.note_fill(p, 27);
        dir.note_drop(p, 7);
        let mut seen = Vec::new();
        dir.drain_holders(p, |u| seen.push(u));
        assert_eq!(seen, vec![0, 27]);
        // Drained: a second pass finds nothing.
        let mut again = Vec::new();
        dir.drain_holders(p, |u| again.push(u));
        assert!(again.is_empty());
    }

    #[test]
    fn drain_on_untracked_page_is_a_noop() {
        let mut dir = ShootdownDirectory::new(2);
        let mut seen = Vec::new();
        dir.drain_holders(PageId::new(99), |u| seen.push(u));
        assert!(seen.is_empty());
    }

    #[test]
    fn holders_work_beyond_one_word() {
        let mut dir = ShootdownDirectory::new(64);
        let p = PageId::new(0);
        dir.note_fill(p, 0);
        dir.note_fill(p, 63);
        let mut seen = Vec::new();
        dir.drain_holders(p, |u| seen.push(u));
        assert_eq!(seen, vec![0, 63]);
    }

    #[test]
    fn load_state_rejects_a_holder_table_past_the_input() {
        use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
        // 64 pages of units needing 2^58 words each: the table size
        // overflows usize.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_usize(64);
        for _ in 0..64 {
            w.put_u32(0);
        }
        w.put_u64(0);
        let bytes = w.into_bytes();
        let err = ShootdownDirectory::load_state(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadLength { .. }), "{err}");
        // A page count past the input is refused before any allocation.
        let mut w = ByteWriter::new();
        w.put_usize(28);
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let err = ShootdownDirectory::load_state(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadLength { .. }), "{err}");
    }
}
