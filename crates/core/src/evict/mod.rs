//! The pluggable eviction / pre-eviction layer (paper Secs. 4.2, 5,
//! and 7.5).
//!
//! Each policy lives in its own module and implements [`Evictor`].
//! Recency bookkeeping is *policy state*: the traditional accessed-page
//! LRU lives inside [`LruPageEvictor`], and the Sec. 5.3 hierarchical
//! valid-page list lives inside each pre-eviction policy. The `Gmmu`
//! mechanism feeds the bookkeeping through the `on_validate` /
//! `on_access` / `on_invalidate` hooks and handles everything else
//! (write-back scheduling, budget accounting, the free-page buffer,
//! PTE invalidation).

mod freq;
mod lru_large;
mod lru_page;
mod mosaic;
mod random_page;
mod sl;
mod tbn;

pub use freq::FreqEvictor;
pub use lru_large::LruLargeEvictor;
pub use lru_page::LruPageEvictor;
pub use mosaic::MosaicEvictor;
pub use random_page::RandomPageEvictor;
pub use sl::SlEvictor;
pub use tbn::TbnEvictor;

use std::fmt;

use uvm_types::rng::SmallRng;
use uvm_types::{Cycle, LargePageId, PageId};

use crate::view::ResidencyView;

/// An eviction policy: chooses victim pages when the device memory
/// budget forces room to be made.
///
/// Contract:
///
/// * [`select_victims`](Self::select_victims) returns *write-back
///   groups*: each inner `Vec` is written back as one PCI-e transfer.
///   Every returned page must be resident with pin level at most
///   `max_pin` at `t` (query `view.pin_level`); the mechanism expels
///   exactly what is returned.
/// * The mechanism calls with `max_pin = PIN_NONE` first and falls
///   back to `PIN_SOFT`; hard-pinned demand pages are never victims.
/// * The `on_*` hooks mirror the driver's page state transitions so a
///   policy can maintain recency/frequency structures; they fire for
///   every page regardless of which policy planned its migration.
/// * The mechanism admits and expels a whole transfer group at a time
///   and reports it through [`on_validate_group`](Self::on_validate_group)
///   / [`on_invalidate_group`](Self::on_invalidate_group), with the
///   pages in mechanism order (the order the per-page hooks would have
///   seen them). The defaults loop over the per-page hooks; an
///   override must leave exactly the state that loop would leave.
/// * Policies observe driver state only through `view` and must not
///   assume their hooks saw pages admitted before the policy was
///   installed.
/// * All randomness must come from the supplied `rng` (the driver's
///   single seeded stream).
/// * Implementations must be `Send + Sync` plain data: engine
///   snapshots holding a policy are shared across sweep workers, and
///   [`snapshot_box`](Self::snapshot_box) must produce an independent
///   deep copy (no shared interior mutability).
pub trait Evictor: fmt::Debug + Send + Sync {
    /// The registry's canonical (display) name for this evictor.
    fn name(&self) -> &'static str;

    /// `true` for bulk pre-eviction policies whose write-backs do not
    /// stall the demand migration (paper Sec. 5); demand-eviction
    /// policies stall the fault behind the write-back barrier.
    fn is_pre_eviction(&self) -> bool;

    /// A page became valid (migrated in).
    fn on_validate(&mut self, _page: PageId) {}

    /// A resident page was accessed by a warp.
    fn on_access(&mut self, _page: PageId) {}

    /// A page was invalidated (evicted).
    fn on_invalidate(&mut self, _page: PageId) {}

    /// A group of pages became valid, in mechanism order. Must leave
    /// the state [`on_validate`](Self::on_validate) on each page in
    /// turn would leave (the default does exactly that).
    fn on_validate_group(&mut self, pages: &[PageId]) {
        for &page in pages {
            self.on_validate(page);
        }
    }

    /// A group of pages was invalidated, in mechanism order. Must
    /// leave the state [`on_invalidate`](Self::on_invalidate) on each
    /// page in turn would leave (the default does exactly that).
    fn on_invalidate_group(&mut self, pages: &[PageId]) {
        for &page in pages {
            self.on_invalidate(page);
        }
    }

    /// Chooses the victim groups (each group = one write-back
    /// transfer), or `None` if no eligible victim exists.
    fn select_victims(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        t: Cycle,
        max_pin: u8,
    ) -> Option<Vec<Vec<PageId>>>;

    /// Huge-page splinter hook: consulted by the mechanism under
    /// memory pressure, *before* [`select_victims`](Self::select_victims),
    /// whenever huge mappings exist. Return a currently huge-mapped
    /// large page (query `view.is_huge_mapped`) to demote it back to
    /// 4 KB mappings — its pages stay resident but become individually
    /// evictable. Default: never splinter (the mechanism still
    /// force-splinters if victims land inside a coalesced large page,
    /// so this hook is about policy, not correctness).
    fn select_splinter(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        t: Cycle,
    ) -> Option<LargePageId> {
        let _ = (view, rng, t);
        None
    }

    /// Clones the evictor behind a fresh box (trait objects cannot
    /// derive `Clone`).
    fn box_clone(&self) -> Box<dyn Evictor>;

    /// The snapshot seam for engine forking: a deep copy whose recency
    /// and frequency bookkeeping round-trips — the copy must select
    /// identical victims given identical inputs, and the two must
    /// never share mutable state afterwards. Defaults to
    /// [`box_clone`]; override only when snapshotting differs from
    /// plain cloning.
    ///
    /// [`box_clone`]: Self::box_clone
    fn snapshot_box(&self) -> Box<dyn Evictor> {
        self.box_clone()
    }

    /// The durable-checkpoint seam, mirroring [`snapshot_box`]: writes
    /// the policy's *mutable* recency/frequency bookkeeping
    /// (configuration knobs come back for free when the policy is
    /// rebuilt from its spec). After [`load_state`] on a freshly built
    /// policy of the same spec, victim selection must be identical to
    /// the original's. Stateless policies keep the no-op default.
    ///
    /// [`snapshot_box`]: Self::snapshot_box
    /// [`load_state`]: Self::load_state
    fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        let _ = w;
    }

    /// Restores the state written by [`save_state`](Self::save_state)
    /// into a freshly built policy of the same spec.
    fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        let _ = r;
        Ok(())
    }
}

impl Clone for Box<dyn Evictor> {
    fn clone(&self) -> Self {
        // Cloning a driver (and thus an engine snapshot) goes through
        // the snapshot seam so third-party policies keep control over
        // how their state round-trips.
        self.snapshot_box()
    }
}
