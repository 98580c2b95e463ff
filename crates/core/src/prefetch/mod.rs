//! The pluggable hardware-prefetcher layer (paper Sec. 3).
//!
//! Each prefetcher lives in its own module and implements
//! [`Prefetcher`]; the `Gmmu` mechanism asks it for transfer groups on
//! every far-fault, shows it the budget of frames it may fill, and
//! handles everything else (budget trimming, congestion throttling,
//! the kill-switch, PCI-e scheduling, validation). Policies observe driver state only through the
//! read-only [`ResidencyView`].

mod learned;
mod markov;
mod mosaic;
mod none;
mod random;
mod sl;
mod stride256k;
mod sz512k;
mod tbn;

pub use learned::LearnedPrefetcher;
pub use markov::MarkovPrefetcher;
pub use mosaic::MosaicPrefetcher;
pub use none::NonePrefetcher;
pub use random::RandomPrefetcher;
pub use sl::SlPrefetcher;
pub use stride256k::Stride256kPrefetcher;
pub use sz512k::Sz512kPrefetcher;
pub use tbn::TbnPrefetcher;

use std::fmt;
use std::ops::RangeInclusive;

use uvm_types::rng::SmallRng;
use uvm_types::{LargePageId, PageId};

use crate::alloc::AllocId;
use crate::registry::PolicyError;
use crate::spec::PolicySpec;
use crate::view::ResidencyView;

/// Parses an optional numeric policy parameter, range-checking it.
/// Spec keys are pre-validated by the registry, so the only failures
/// here are value-level ([`PolicyError::BadParam`]).
pub(crate) fn parse_param(
    spec: &PolicySpec,
    key: &str,
    default: usize,
    range: RangeInclusive<usize>,
) -> Result<usize, PolicyError> {
    let Some(raw) = spec.param(key) else {
        return Ok(default);
    };
    let value: usize = raw
        .parse()
        .map_err(|e| PolicyError::bad_param(spec.name(), key, raw, e))?;
    if !range.contains(&value) {
        return Err(PolicyError::bad_param(
            spec.name(),
            key,
            raw,
            format!("out of range {}..={}", range.start(), range.end()),
        ));
    }
    Ok(value)
}

/// A hardware prefetcher: given a far-fault, plans which extra pages
/// to migrate along with it.
///
/// Contract:
///
/// * [`plan`](Self::plan) returns *transfer groups*: each inner `Vec`
///   is moved as one PCI-e transfer. The faulty page itself must NOT
///   appear — it travels as its own 4 KB fault-group transfer.
/// * Planned pages must be invalid (`!view.is_valid(p)`) and lie
///   inside a managed allocation.
/// * The budget: [`ResidencyView::prefetch_budget`] is how many
///   planned pages the mechanism keeps — the frames free after demand
///   eviction, minus the faulty page's. It keeps the first that many
///   pages in group order and drops the rest, so over-planning is
///   wasted work, not a correctness bug.
/// * Only a *pure* planner — one whose plan reads nothing but `view`
///   and `page`, and which draws no randomness and updates no state
///   while planning (TBNp, SLp, SZp, S256p, MOSp) — may use the budget:
///   return nothing at 0, stop emitting once it is reached, and keep
///   its groups in the order a full plan would have. Planners that draw
///   from `rng` or learn from each fault (Rp, markov, learned) must
///   plan in full at any budget, so their RNG stream and history stay
///   the same whether or not there is room to land the plan.
/// * All randomness must come from the supplied `rng` — it is the
///   driver's single seeded stream, which keeps whole simulations
///   reproducible and lets policies share it deterministically.
/// * Policies observe state only through `view`; per-policy learning
///   state (history tables, counters) belongs in the implementing
///   struct itself.
/// * Implementations must be `Send + Sync` plain data: engine
///   snapshots holding a policy are shared across sweep workers, and
///   [`snapshot_box`](Self::snapshot_box) must produce an independent
///   deep copy (no shared interior mutability).
pub trait Prefetcher: fmt::Debug + Send + Sync {
    /// The registry's canonical (display) name for this prefetcher.
    fn name(&self) -> &'static str;

    /// Plans the prefetch transfer groups for a fault on `page` inside
    /// allocation `alloc`.
    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
    ) -> Vec<Vec<PageId>>;

    /// Huge-page placement hook: `true` asks the mechanism to
    /// soft-reserve a contiguous, aligned 2 MB frame region on the
    /// first touch of each large page's range and place that large
    /// page's frames at `region_base + page_offset` — the physical
    /// contiguity a later coalesce requires. Default `false`: every
    /// pre-existing policy keeps the legacy single-frame allocation
    /// path (and its exact frame sequence) untouched.
    fn wants_contiguous_placement(&self) -> bool {
        false
    }

    /// Huge-page coalesce hook: consulted by the mechanism when `lp`
    /// has just become fully resident on physically contiguous frames.
    /// Return `true` to promote it to a single huge mapping (one TLB
    /// entry, one shootdown generation). Default: never coalesce.
    fn should_coalesce(&self, view: &ResidencyView<'_>, lp: LargePageId) -> bool {
        let _ = (view, lp);
        false
    }

    /// Clones the prefetcher behind a fresh box (trait objects cannot
    /// derive `Clone`).
    fn box_clone(&self) -> Box<dyn Prefetcher>;

    /// The snapshot seam for engine forking: a deep copy whose learning
    /// state round-trips — the copy must plan identically to the
    /// original given identical inputs, and the two must never share
    /// mutable state afterwards. Defaults to [`box_clone`]; override
    /// only when snapshotting differs from plain cloning (e.g. to drop
    /// a non-clonable side channel).
    ///
    /// [`box_clone`]: Self::box_clone
    fn snapshot_box(&self) -> Box<dyn Prefetcher> {
        self.box_clone()
    }

    /// The durable-checkpoint seam, mirroring [`snapshot_box`]: writes
    /// the policy's *mutable* learning state (configuration knobs come
    /// back for free when the policy is rebuilt from its spec). After
    /// [`load_state`] on a freshly built policy of the same spec, plans
    /// must be identical to the original's. Stateless policies keep the
    /// no-op default.
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

impl Clone for Box<dyn Prefetcher> {
    fn clone(&self) -> Self {
        // Cloning a driver (and thus an engine snapshot) goes through
        // the snapshot seam so third-party policies keep control over
        // how their state round-trips.
        self.snapshot_box()
    }
}
