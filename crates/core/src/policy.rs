//! Policy selectors: which hardware prefetcher and which eviction
//! policy the GMMU runs.
//!
//! The enums are stable *selectors* — hashable, copyable identities
//! used by configs, run keys, and CSV output. The implementations
//! behind them live in [`crate::prefetch`] and [`crate::evict`], and
//! both `Display` and `FromStr` resolve through the
//! [`PolicyRegistry`](crate::PolicyRegistry), so the registry is the
//! single source of truth for names and aliases.

use std::fmt;
use std::str::FromStr;

use crate::registry::PolicyRegistry;

/// The hardware prefetcher in force (paper Sec. 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrefetchPolicy {
    /// No prefetching: pure 4 KB on-demand migration.
    #[default]
    None,
    /// Rp: one random 4 KB page from the faulty page's 2 MB large page
    /// is migrated alongside the faulty page (Sec. 3.1).
    Random,
    /// SLp: the faulty page's whole 64 KB basic block is migrated,
    /// split into a page-fault group and a prefetch group (Sec. 3.2).
    SequentialLocal,
    /// The locality-aware prefetcher of Zheng et al. \[26\], which the
    /// paper contrasts with SLp: 128 consecutive 4 KB pages (512 KB)
    /// starting from the faulty page, crossing 64 KB block boundaries
    /// (and potentially 2 MB boundaries, requiring the cross-large-page
    /// coordination the paper's SLp avoids).
    Sequential512K,
    /// S256p: a fixed 256 KB stride window past the faulty page, the
    /// fixed-granularity baseline of Long et al. — an out-of-core
    /// policy plugged in purely through the registry.
    Stride256K,
    /// TBNp: the tree-based neighborhood prefetcher reverse-engineered
    /// from the NVIDIA driver (Sec. 3.3).
    TreeBasedNeighborhood,
    /// MOSp: Mosaic-style coalescing prefetcher — TBN neighborhood plan
    /// plus "finish the 2 MB large page" once half resident, with
    /// contiguous frame placement and huge-page promotion on full
    /// residency. Cooperates with [`EvictPolicy::MosaicSplinter`].
    MosaicCoalesce,
}

impl PrefetchPolicy {
    /// The prefetchers the paper's figures compare, in figure order
    /// (the Zheng et al. 512 KB variant and the 256 KB stride variant
    /// are ablations, not figure series).
    pub const ALL: [PrefetchPolicy; 4] = [
        PrefetchPolicy::None,
        PrefetchPolicy::Random,
        PrefetchPolicy::SequentialLocal,
        PrefetchPolicy::TreeBasedNeighborhood,
    ];

    /// Every implemented prefetcher, including ablation variants.
    pub const ALL_WITH_ABLATIONS: [PrefetchPolicy; 7] = [
        PrefetchPolicy::None,
        PrefetchPolicy::Random,
        PrefetchPolicy::SequentialLocal,
        PrefetchPolicy::Sequential512K,
        PrefetchPolicy::Stride256K,
        PrefetchPolicy::TreeBasedNeighborhood,
        PrefetchPolicy::MosaicCoalesce,
    ];
}

impl fmt::Display for PrefetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entry = PolicyRegistry::global()
            .prefetcher_for(*self)
            .expect("every PrefetchPolicy variant is registered");
        f.write_str(entry.name)
    }
}

impl FromStr for PrefetchPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyRegistry::global()
            .prefetcher(s)
            .and_then(|e| e.selector)
            .ok_or_else(|| ParsePolicyError {
                input: s.to_owned(),
                kind: PolicyKind::Prefetch,
            })
    }
}

/// The eviction / pre-eviction policy in force (paper Secs. 4.2, 5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvictPolicy {
    /// LRU 4 KB eviction — the CUDA-driver baseline (Sec. 4.2).
    #[default]
    LruPage,
    /// Re: a uniformly random resident 4 KB page (Sec. 4.2).
    RandomPage,
    /// SLe: evict the whole 64 KB basic block of the LRU candidate as a
    /// single write-back unit (Sec. 5.1).
    SequentialLocal,
    /// TBNe: tree-based neighborhood pre-eviction, the adaptive scheme
    /// whose granularity floats between 64 KB and 1 MB (Sec. 5.2).
    TreeBasedNeighborhood,
    /// Static 2 MB large-page LRU eviction, as real NVIDIA hardware
    /// does (Sec. 7.5).
    LruLargePage,
    /// AFe: evict the least-frequently-accessed resident page (LFU) —
    /// an out-of-core policy plugged in purely through the registry.
    AccessFrequency,
    /// MOSe: Mosaic-style splinter-then-evict — demote the coldest
    /// huge-mapped 2 MB page under pressure, then evict only its LRU
    /// 64 KB blocks. Cooperates with [`PrefetchPolicy::MosaicCoalesce`].
    MosaicSplinter,
}

impl EvictPolicy {
    /// `true` for the bulk pre-eviction policies whose write-backs do
    /// not stall the demand migration (Sec. 5: "the kernel execution is
    /// not stalled for writing back pages anymore").
    pub fn is_pre_eviction(self) -> bool {
        matches!(
            self,
            EvictPolicy::SequentialLocal
                | EvictPolicy::TreeBasedNeighborhood
                | EvictPolicy::LruLargePage
                | EvictPolicy::MosaicSplinter
        )
    }

    /// The eviction policies the paper's figures compare, figure order.
    pub const ALL: [EvictPolicy; 5] = [
        EvictPolicy::LruPage,
        EvictPolicy::RandomPage,
        EvictPolicy::SequentialLocal,
        EvictPolicy::TreeBasedNeighborhood,
        EvictPolicy::LruLargePage,
    ];

    /// Every implemented eviction policy, including ablation variants.
    pub const ALL_WITH_ABLATIONS: [EvictPolicy; 7] = [
        EvictPolicy::LruPage,
        EvictPolicy::RandomPage,
        EvictPolicy::SequentialLocal,
        EvictPolicy::TreeBasedNeighborhood,
        EvictPolicy::LruLargePage,
        EvictPolicy::AccessFrequency,
        EvictPolicy::MosaicSplinter,
    ];
}

impl fmt::Display for EvictPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entry = PolicyRegistry::global()
            .evictor_for(*self)
            .expect("every EvictPolicy variant is registered");
        f.write_str(entry.name)
    }
}

impl FromStr for EvictPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyRegistry::global()
            .evictor(s)
            .and_then(|e| e.selector)
            .ok_or_else(|| ParsePolicyError {
                input: s.to_owned(),
                kind: PolicyKind::Evict,
            })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PolicyKind {
    Prefetch,
    Evict,
}

/// Error parsing a policy name. Its `Display` lists the registered
/// names, so CLI layers can surface it verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePolicyError {
    input: String,
    kind: PolicyKind,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let registry = PolicyRegistry::global();
        let (kind, known) = match self.kind {
            PolicyKind::Prefetch => ("prefetch policy", registry.prefetcher_names()),
            PolicyKind::Evict => ("eviction policy", registry.evictor_names()),
        };
        write!(
            f,
            "unknown {kind}: {:?} (known: {})",
            self.input,
            known.join(", ")
        )
    }
}

impl std::error::Error for ParsePolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_from_str() {
        for p in PrefetchPolicy::ALL_WITH_ABLATIONS {
            assert_eq!(p.to_string().parse::<PrefetchPolicy>().unwrap(), p);
        }
        for e in EvictPolicy::ALL_WITH_ABLATIONS {
            assert_eq!(e.to_string().parse::<EvictPolicy>().unwrap(), e);
        }
    }

    #[test]
    fn every_registered_name_and_alias_parses_to_its_selector() {
        // The property the registry guarantees: each registered
        // spelling — canonical names *and* aliases, including the
        // easy-to-miss Sequential512K ablation — parses to the entry's
        // selector, and the selector displays back as the canonical
        // name. Name-only registrations (the history-based
        // prefetchers) have no selector: the enums must *reject* them
        // while the spec grammar still reaches them.
        let registry = PolicyRegistry::global();
        for entry in registry.prefetchers() {
            match entry.selector {
                Some(selector) => {
                    for name in entry.names() {
                        assert_eq!(
                            name.parse::<PrefetchPolicy>().unwrap(),
                            selector,
                            "prefetcher name {name:?}"
                        );
                    }
                    assert_eq!(selector.to_string(), entry.name);
                }
                None => {
                    for name in entry.names() {
                        assert!(
                            name.parse::<PrefetchPolicy>().is_err(),
                            "selector-less {name:?} must not parse to an enum"
                        );
                    }
                }
            }
        }
        for entry in registry.evictors() {
            let selector = entry.selector.expect("built-in evictors carry selectors");
            for name in entry.names() {
                assert_eq!(
                    name.parse::<EvictPolicy>().unwrap(),
                    selector,
                    "evictor name {name:?}"
                );
            }
            assert_eq!(selector.to_string(), entry.name);
        }
    }

    #[test]
    fn sequential_512k_round_trips_even_outside_all() {
        assert!(!PrefetchPolicy::ALL.contains(&PrefetchPolicy::Sequential512K));
        assert_eq!(PrefetchPolicy::Sequential512K.to_string(), "SZp");
        for spelling in ["SZp", "zheng", "sequential-512k"] {
            assert_eq!(
                spelling.parse::<PrefetchPolicy>().unwrap(),
                PrefetchPolicy::Sequential512K
            );
        }
    }

    #[test]
    fn unknown_names_error_and_list_known_policies() {
        let err = "bogus".parse::<PrefetchPolicy>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
        for name in PolicyRegistry::global().prefetcher_names() {
            assert!(err.to_string().contains(name), "error lists {name}");
        }
        let err = "bogus".parse::<EvictPolicy>().unwrap_err();
        for name in PolicyRegistry::global().evictor_names() {
            assert!(err.to_string().contains(name), "error lists {name}");
        }
    }

    #[test]
    fn pre_eviction_classification() {
        assert!(!EvictPolicy::LruPage.is_pre_eviction());
        assert!(!EvictPolicy::RandomPage.is_pre_eviction());
        assert!(!EvictPolicy::AccessFrequency.is_pre_eviction());
        assert!(EvictPolicy::SequentialLocal.is_pre_eviction());
        assert!(EvictPolicy::TreeBasedNeighborhood.is_pre_eviction());
        assert!(EvictPolicy::LruLargePage.is_pre_eviction());
        assert!(EvictPolicy::MosaicSplinter.is_pre_eviction());
    }

    #[test]
    fn legacy_display_names_are_stable() {
        // RunKey hashing and every CSV header depend on these exact
        // strings: changing one silently invalidates result caches.
        let display: Vec<String> = PrefetchPolicy::ALL_WITH_ABLATIONS
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            display,
            ["none", "Rp", "SLp", "SZp", "S256p", "TBNp", "MOSp"]
        );
        let display: Vec<String> = EvictPolicy::ALL_WITH_ABLATIONS
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            display,
            ["LRU-4KB", "Re", "SLe", "TBNe", "LRU-2MB", "AFe", "MOSe"]
        );
    }
}
