//! The policy registry: every prefetcher and evictor the driver can
//! run, resolvable by a [`PolicySpec`] — canonical name, alias, or a
//! parameterized `name:key=val,...` form.
//!
//! The registry is the single source of truth for policy names *and*
//! parameters. The [`PrefetchPolicy`]/[`EvictPolicy`] enum
//! `Display`/`FromStr` impls, the bench-binary CLIs
//! (`--prefetch`/`--evict`/`--list-policies`), and `Gmmu::new` all
//! resolve through it, so a policy registered here is selectable
//! everywhere without touching the mechanism. Each entry declares the
//! parameters it accepts ([`ParamSpec`]); a spec naming an undeclared
//! parameter is rejected with the accepted list before any factory
//! runs.
//!
//! Third-party policies extend a registry value ([`builtin`] +
//! [`register_prefetcher`]/[`register_evictor`]) and instantiate the
//! driver via `Gmmu::with_policies`; built-in selection goes through
//! the shared [`global`] table.
//!
//! [`builtin`]: PolicyRegistry::builtin
//! [`register_prefetcher`]: PolicyRegistry::register_prefetcher
//! [`register_evictor`]: PolicyRegistry::register_evictor
//! [`global`]: PolicyRegistry::global

use std::fmt;
use std::sync::OnceLock;

use crate::config::UvmConfig;
use crate::evict::{
    Evictor, FreqEvictor, LruLargeEvictor, LruPageEvictor, MosaicEvictor, RandomPageEvictor,
    SlEvictor, TbnEvictor,
};
use crate::policy::{EvictPolicy, PrefetchPolicy};
use crate::prefetch::{
    LearnedPrefetcher, MarkovPrefetcher, MosaicPrefetcher, NonePrefetcher, Prefetcher,
    RandomPrefetcher, SlPrefetcher, Stride256kPrefetcher, Sz512kPrefetcher, TbnPrefetcher,
};
use crate::spec::PolicySpec;

/// One parameter a registered policy accepts, for validation and
/// `--list-policies` documentation.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// The `key` in `name:key=val`.
    pub key: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Human-readable default (documentation only — the factory owns
    /// the actual default).
    pub default: &'static str,
}

/// Why a [`PolicySpec`] failed to resolve against the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// No prefetcher registered under the spec's name; carries the
    /// known canonical names.
    UnknownPrefetcher { name: String, known: Vec<String> },
    /// No evictor registered under the spec's name.
    UnknownEvictor { name: String, known: Vec<String> },
    /// The spec names a parameter the policy does not declare.
    UnknownParam {
        policy: String,
        param: String,
        accepted: Vec<String>,
    },
    /// A declared parameter's value failed to parse or load.
    BadParam {
        policy: String,
        param: String,
        value: String,
        reason: String,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::UnknownPrefetcher { name, known } => write!(
                f,
                "unknown prefetch policy: {name:?} (known: {})",
                known.join(", ")
            ),
            PolicyError::UnknownEvictor { name, known } => write!(
                f,
                "unknown eviction policy: {name:?} (known: {})",
                known.join(", ")
            ),
            PolicyError::UnknownParam {
                policy,
                param,
                accepted,
            } => {
                if accepted.is_empty() {
                    write!(f, "policy {policy:?} accepts no parameters (got {param:?})")
                } else {
                    write!(
                        f,
                        "policy {policy:?} does not accept parameter {param:?} \
                         (accepted: {})",
                        accepted.join(", ")
                    )
                }
            }
            PolicyError::BadParam {
                policy,
                param,
                value,
                reason,
            } => write!(
                f,
                "bad value {value:?} for parameter {param:?} of policy \
                 {policy:?}: {reason}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

impl PolicyError {
    /// Builds a [`BadParam`](Self::BadParam) for `entry_name`; the
    /// factory helper policies use for value-parse failures.
    pub fn bad_param(
        policy: &str,
        param: &str,
        value: &str,
        reason: impl fmt::Display,
    ) -> PolicyError {
        PolicyError::BadParam {
            policy: policy.to_owned(),
            param: param.to_owned(),
            value: value.to_owned(),
            reason: reason.to_string(),
        }
    }
}

/// Signature of a [`PrefetcherEntry`] factory.
pub type PrefetcherFactory =
    fn(&UvmConfig, &PolicySpec) -> Result<Box<dyn Prefetcher>, PolicyError>;

/// Signature of an [`EvictorEntry`] factory.
pub type EvictorFactory = fn(&UvmConfig, &PolicySpec) -> Result<Box<dyn Evictor>, PolicyError>;

/// A registered prefetcher: names, documentation, parameters, factory.
#[derive(Clone)]
pub struct PrefetcherEntry {
    /// Canonical name — what the policy's `Display` prints and its
    /// `name()` method returns.
    pub name: &'static str,
    /// Accepted spellings besides the canonical name.
    pub aliases: &'static [&'static str],
    /// One-line description for `--list-policies`.
    pub summary: &'static str,
    /// Parameters the policy accepts (`name:key=val,...`); empty for
    /// parameterless policies.
    pub params: &'static [ParamSpec],
    /// The enum selector, for policies reachable through
    /// [`PrefetchPolicy`]; `None` for registrations that are
    /// name-only (parameterized and third-party policies).
    pub selector: Option<PrefetchPolicy>,
    /// Builds a fresh policy instance for one driver. The spec's
    /// parameter *keys* are pre-validated against [`params`]; the
    /// factory parses the values (and loads any files) and may fail
    /// with [`PolicyError::BadParam`].
    ///
    /// [`params`]: Self::params
    pub factory: PrefetcherFactory,
}

/// A registered evictor: names, documentation, parameters, factory.
#[derive(Clone)]
pub struct EvictorEntry {
    /// Canonical name — what the policy's `Display` prints and its
    /// `name()` method returns.
    pub name: &'static str,
    /// Accepted spellings besides the canonical name.
    pub aliases: &'static [&'static str],
    /// One-line description for `--list-policies`.
    pub summary: &'static str,
    /// Parameters the policy accepts; empty for parameterless
    /// policies.
    pub params: &'static [ParamSpec],
    /// The enum selector, for policies reachable through
    /// [`EvictPolicy`]; `None` for name-only registrations.
    pub selector: Option<EvictPolicy>,
    /// Builds a fresh policy instance for one driver (see
    /// [`PrefetcherEntry::factory`]).
    pub factory: EvictorFactory,
}

/// Name → factory table for both policy kinds.
#[derive(Clone, Default)]
pub struct PolicyRegistry {
    prefetchers: Vec<PrefetcherEntry>,
    evictors: Vec<EvictorEntry>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry holding every built-in policy: the paper's ten,
    /// the S256p/AFe out-of-core pair, the Mosaic huge-page pair, and
    /// the history-based markov/learned prefetchers.
    pub fn builtin() -> Self {
        let mut r = PolicyRegistry::new();
        r.register_prefetcher(PrefetcherEntry {
            name: "none",
            aliases: &[],
            summary: "no prefetching: pure 4 KB on-demand migration",
            params: &[],
            selector: Some(PrefetchPolicy::None),
            factory: |_, _| Ok(Box::new(NonePrefetcher)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "Rp",
            aliases: &["random"],
            summary: "one random invalid page of the faulty 2 MB large page (Sec. 3.1)",
            params: &[],
            selector: Some(PrefetchPolicy::Random),
            factory: |_, _| Ok(Box::new(RandomPrefetcher)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "SLp",
            aliases: &["sequential-local"],
            summary: "rest of the faulty 64 KB basic block as one group (Sec. 3.2)",
            params: &[],
            selector: Some(PrefetchPolicy::SequentialLocal),
            factory: |_, _| Ok(Box::new(SlPrefetcher)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "SZp",
            aliases: &["zheng", "sequential-512k"],
            summary: "Zheng et al.: 128 consecutive pages (512 KB) past the fault",
            params: &[],
            selector: Some(PrefetchPolicy::Sequential512K),
            factory: |_, _| Ok(Box::new(Sz512kPrefetcher)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "S256p",
            aliases: &["stride-256k"],
            summary: "fixed 256 KB stride window past the fault (Long et al. baseline)",
            params: &[],
            selector: Some(PrefetchPolicy::Stride256K),
            factory: |_, _| Ok(Box::new(Stride256kPrefetcher)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "TBNp",
            aliases: &["tree"],
            summary: "tree-based neighborhood prefetch from the NVIDIA driver (Sec. 3.3)",
            params: &[],
            selector: Some(PrefetchPolicy::TreeBasedNeighborhood),
            factory: |_, _| Ok(Box::new(TbnPrefetcher)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "MOSp",
            aliases: &["mosaic-prefetch", "mosp"],
            summary: "Mosaic-style: TBN plan plus finish-the-2MB-page for coalescing",
            params: &[],
            selector: Some(PrefetchPolicy::MosaicCoalesce),
            factory: |_, _| Ok(Box::new(MosaicPrefetcher::new())),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "markov",
            aliases: &["MKVp", "delta-correlation"],
            summary: "online delta-correlation (Markov-table) fault-history prefetch",
            params: MarkovPrefetcher::PARAMS,
            selector: None,
            factory: |_, spec| Ok(Box::new(MarkovPrefetcher::from_spec(spec)?)),
        });
        r.register_prefetcher(PrefetcherEntry {
            name: "learned",
            aliases: &["LRNp", "table-driven"],
            summary: "offline-trained delta table (train_prefetcher) loaded from a file",
            params: LearnedPrefetcher::PARAMS,
            selector: None,
            factory: |_, spec| Ok(Box::new(LearnedPrefetcher::from_spec(spec)?)),
        });
        r.register_evictor(EvictorEntry {
            name: "LRU-4KB",
            aliases: &["lru"],
            summary: "least-recently accessed 4 KB page, the CUDA baseline (Sec. 4.2)",
            params: &[],
            selector: Some(EvictPolicy::LruPage),
            factory: |_, _| Ok(Box::new(LruPageEvictor::new())),
        });
        r.register_evictor(EvictorEntry {
            name: "Re",
            aliases: &["random"],
            summary: "uniformly random resident 4 KB page (Sec. 4.2)",
            params: &[],
            selector: Some(EvictPolicy::RandomPage),
            factory: |_, _| Ok(Box::new(RandomPageEvictor)),
        });
        r.register_evictor(EvictorEntry {
            name: "SLe",
            aliases: &["sequential-local"],
            summary: "pre-evict the whole LRU 64 KB basic block (Sec. 5.1)",
            params: &[],
            selector: Some(EvictPolicy::SequentialLocal),
            factory: |_, _| Ok(Box::new(SlEvictor::new())),
        });
        r.register_evictor(EvictorEntry {
            name: "TBNe",
            aliases: &["tree"],
            summary: "tree-based neighborhood pre-eviction, 64 KB–1 MB (Sec. 5.2)",
            params: &[],
            selector: Some(EvictPolicy::TreeBasedNeighborhood),
            factory: |_, _| Ok(Box::new(TbnEvictor::new())),
        });
        r.register_evictor(EvictorEntry {
            name: "LRU-2MB",
            aliases: &["lru-2mb"],
            summary: "static 2 MB large-page LRU eviction (Sec. 7.5)",
            params: &[],
            selector: Some(EvictPolicy::LruLargePage),
            factory: |_, _| Ok(Box::new(LruLargeEvictor::new())),
        });
        r.register_evictor(EvictorEntry {
            name: "AFe",
            aliases: &["freq", "access-frequency"],
            summary: "least-frequently accessed resident page (LFU)",
            params: &[],
            selector: Some(EvictPolicy::AccessFrequency),
            factory: |_, _| Ok(Box::new(FreqEvictor::new())),
        });
        r.register_evictor(EvictorEntry {
            name: "MOSe",
            aliases: &["mosaic-evict", "mose"],
            summary: "Mosaic-style: splinter the coldest huge page, evict its LRU blocks",
            params: &[],
            selector: Some(EvictPolicy::MosaicSplinter),
            factory: |_, _| Ok(Box::new(MosaicEvictor::new())),
        });
        r
    }

    /// The process-wide built-in registry the enums and `Gmmu::new`
    /// resolve through.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: OnceLock<PolicyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(PolicyRegistry::builtin)
    }

    /// Adds a prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the canonical name or an alias collides with an
    /// existing prefetcher entry.
    pub fn register_prefetcher(&mut self, entry: PrefetcherEntry) {
        for name in entry.names() {
            assert!(
                self.prefetcher(name).is_none(),
                "duplicate prefetcher name {name:?}"
            );
        }
        self.prefetchers.push(entry);
    }

    /// Adds an evictor.
    ///
    /// # Panics
    ///
    /// Panics if the canonical name or an alias collides with an
    /// existing evictor entry.
    pub fn register_evictor(&mut self, entry: EvictorEntry) {
        for name in entry.names() {
            assert!(
                self.evictor(name).is_none(),
                "duplicate evictor name {name:?}"
            );
        }
        self.evictors.push(entry);
    }

    /// Looks up a prefetcher by canonical name or alias.
    pub fn prefetcher(&self, name: &str) -> Option<&PrefetcherEntry> {
        self.prefetchers.iter().find(|e| e.matches(name))
    }

    /// Looks up an evictor by canonical name or alias.
    pub fn evictor(&self, name: &str) -> Option<&EvictorEntry> {
        self.evictors.iter().find(|e| e.matches(name))
    }

    /// The entry a [`PrefetchPolicy`] selector resolves to.
    pub fn prefetcher_for(&self, selector: PrefetchPolicy) -> Option<&PrefetcherEntry> {
        self.prefetchers
            .iter()
            .find(|e| e.selector == Some(selector))
    }

    /// The entry an [`EvictPolicy`] selector resolves to.
    pub fn evictor_for(&self, selector: EvictPolicy) -> Option<&EvictorEntry> {
        self.evictors.iter().find(|e| e.selector == Some(selector))
    }

    /// Resolves a prefetch spec: canonicalizes the name (alias →
    /// canonical) and validates every parameter key against the
    /// entry's declared [`ParamSpec`]s. Value parsing stays with the
    /// factory, so this is the cheap CLI-time check.
    pub fn canonical_prefetch_spec(&self, spec: &PolicySpec) -> Result<PolicySpec, PolicyError> {
        let entry = self
            .prefetcher(spec.name())
            .ok_or_else(|| PolicyError::UnknownPrefetcher {
                name: spec.name().to_owned(),
                known: self
                    .prefetcher_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            })?;
        validate_params(entry.name, entry.params, spec)?;
        Ok(spec.clone().rename(entry.name))
    }

    /// Resolves an evict spec (see [`canonical_prefetch_spec`]).
    ///
    /// [`canonical_prefetch_spec`]: Self::canonical_prefetch_spec
    pub fn canonical_evict_spec(&self, spec: &PolicySpec) -> Result<PolicySpec, PolicyError> {
        let entry = self
            .evictor(spec.name())
            .ok_or_else(|| PolicyError::UnknownEvictor {
                name: spec.name().to_owned(),
                known: self.evictor_names().iter().map(|s| s.to_string()).collect(),
            })?;
        validate_params(entry.name, entry.params, spec)?;
        Ok(spec.clone().rename(entry.name))
    }

    /// Builds the prefetcher a spec describes: name resolution,
    /// parameter-key validation, then the entry's factory (which
    /// parses values and loads any files).
    pub fn build_prefetcher_spec(
        &self,
        spec: &PolicySpec,
        cfg: &UvmConfig,
    ) -> Result<Box<dyn Prefetcher>, PolicyError> {
        let canonical = self.canonical_prefetch_spec(spec)?;
        let entry = self.prefetcher(canonical.name()).expect("just resolved");
        (entry.factory)(cfg, &canonical)
    }

    /// Builds the evictor a spec describes (see
    /// [`build_prefetcher_spec`]).
    ///
    /// [`build_prefetcher_spec`]: Self::build_prefetcher_spec
    pub fn build_evictor_spec(
        &self,
        spec: &PolicySpec,
        cfg: &UvmConfig,
    ) -> Result<Box<dyn Evictor>, PolicyError> {
        let canonical = self.canonical_evict_spec(spec)?;
        let entry = self.evictor(canonical.name()).expect("just resolved");
        (entry.factory)(cfg, &canonical)
    }

    /// All registered prefetchers, registration order.
    pub fn prefetchers(&self) -> &[PrefetcherEntry] {
        &self.prefetchers
    }

    /// All registered evictors, registration order.
    pub fn evictors(&self) -> &[EvictorEntry] {
        &self.evictors
    }

    /// Canonical prefetcher names, registration order.
    pub fn prefetcher_names(&self) -> Vec<&'static str> {
        self.prefetchers.iter().map(|e| e.name).collect()
    }

    /// Canonical evictor names, registration order.
    pub fn evictor_names(&self) -> Vec<&'static str> {
        self.evictors.iter().map(|e| e.name).collect()
    }
}

/// Rejects parameters the entry does not declare.
fn validate_params(
    entry_name: &'static str,
    accepted: &'static [ParamSpec],
    spec: &PolicySpec,
) -> Result<(), PolicyError> {
    for (key, _) in spec.params() {
        if !accepted.iter().any(|p| p.key == key) {
            return Err(PolicyError::UnknownParam {
                policy: entry_name.to_owned(),
                param: key.clone(),
                accepted: accepted.iter().map(|p| p.key.to_owned()).collect(),
            });
        }
    }
    Ok(())
}

impl PrefetcherEntry {
    /// Canonical name followed by the aliases.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        std::iter::once(self.name).chain(self.aliases.iter().copied())
    }

    fn matches(&self, name: &str) -> bool {
        self.names().any(|n| n == name)
    }
}

impl EvictorEntry {
    /// Canonical name followed by the aliases.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        std::iter::once(self.name).chain(self.aliases.iter().copied())
    }

    fn matches(&self, name: &str) -> bool {
        self.names().any(|n| n == name)
    }
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("prefetchers", &self.prefetcher_names())
            .field("evictors", &self.evictor_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_enum_selector_has_an_entry() {
        let r = PolicyRegistry::global();
        for p in PrefetchPolicy::ALL_WITH_ABLATIONS {
            let e = r
                .prefetcher_for(p)
                .unwrap_or_else(|| panic!("missing {p:?}"));
            assert_eq!(e.name, p.to_string(), "canonical name matches Display");
        }
        for ev in EvictPolicy::ALL_WITH_ABLATIONS {
            let e = r
                .evictor_for(ev)
                .unwrap_or_else(|| panic!("missing {ev:?}"));
            assert_eq!(e.name, ev.to_string(), "canonical name matches Display");
        }
    }

    #[test]
    fn built_policies_report_their_registry_name() {
        let cfg = UvmConfig::default();
        let r = PolicyRegistry::global();
        for e in r.prefetchers() {
            let built = (e.factory)(&cfg, &PolicySpec::new(e.name)).unwrap();
            assert_eq!(built.name(), e.name);
        }
        for e in r.evictors() {
            let built = (e.factory)(&cfg, &PolicySpec::new(e.name)).unwrap();
            assert_eq!(built.name(), e.name);
        }
    }

    #[test]
    fn evictor_pre_eviction_flag_matches_enum_classification() {
        let cfg = UvmConfig::default();
        for e in PolicyRegistry::global().evictors() {
            let selector = e.selector.expect("built-ins carry selectors");
            let built = (e.factory)(&cfg, &PolicySpec::new(e.name)).unwrap();
            assert_eq!(
                built.is_pre_eviction(),
                selector.is_pre_eviction(),
                "{}",
                e.name
            );
        }
    }

    #[test]
    fn lookup_by_alias_and_name() {
        let r = PolicyRegistry::global();
        assert_eq!(r.prefetcher("tree").unwrap().name, "TBNp");
        assert_eq!(r.prefetcher("TBNp").unwrap().name, "TBNp");
        assert_eq!(r.prefetcher("MKVp").unwrap().name, "markov");
        assert_eq!(r.evictor("freq").unwrap().name, "AFe");
        assert!(r.prefetcher("bogus").is_none());
    }

    #[test]
    fn canonical_spec_resolves_aliases_and_keeps_params() {
        let r = PolicyRegistry::global();
        let spec: PolicySpec = "delta-correlation:depth=2".parse().unwrap();
        let canonical = r.canonical_prefetch_spec(&spec).unwrap();
        assert_eq!(canonical.to_string(), "markov:depth=2");
        let bare = r.canonical_evict_spec(&"lru".parse().unwrap()).unwrap();
        assert_eq!(bare.to_string(), "LRU-4KB");
    }

    #[test]
    fn unknown_params_are_rejected_listing_accepted() {
        let r = PolicyRegistry::global();
        let err = r
            .canonical_prefetch_spec(&"markov:bogus=1".parse().unwrap())
            .unwrap_err();
        let PolicyError::UnknownParam {
            policy,
            param,
            accepted,
        } = &err
        else {
            panic!("expected UnknownParam, got {err:?}");
        };
        assert_eq!(policy, "markov");
        assert_eq!(param, "bogus");
        assert!(accepted.iter().any(|p| p == "depth"), "{accepted:?}");
        let msg = err.to_string();
        assert!(msg.contains("bogus") && msg.contains("depth"), "{msg}");

        // Parameterless policies reject any parameter.
        let err = r
            .canonical_prefetch_spec(&"TBNp:depth=2".parse().unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("accepts no parameters"), "{err}");
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let r = PolicyRegistry::global();
        let err = r
            .canonical_prefetch_spec(&PolicySpec::new("bogus"))
            .unwrap_err();
        let msg = err.to_string();
        for name in r.prefetcher_names() {
            assert!(msg.contains(name), "error lists {name}");
        }
    }

    #[test]
    fn build_prefetcher_spec_applies_params() {
        let r = PolicyRegistry::global();
        let cfg = UvmConfig::default();
        let p = r
            .build_prefetcher_spec(&"markov:depth=2,degree=4".parse().unwrap(), &cfg)
            .unwrap();
        assert_eq!(p.name(), "markov");
        let err = r
            .build_prefetcher_spec(&"markov:depth=zero".parse().unwrap(), &cfg)
            .unwrap_err();
        assert!(matches!(err, PolicyError::BadParam { .. }), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_registration_panics() {
        let mut r = PolicyRegistry::builtin();
        r.register_prefetcher(PrefetcherEntry {
            name: "Rp",
            aliases: &[],
            summary: "",
            params: &[],
            selector: None,
            factory: |_, _| Ok(Box::new(NonePrefetcher)),
        });
    }

    #[test]
    fn third_party_registration_is_name_reachable() {
        let mut r = PolicyRegistry::builtin();
        r.register_prefetcher(PrefetcherEntry {
            name: "mine",
            aliases: &["my-policy"],
            summary: "a third-party prefetcher",
            params: &[],
            selector: None,
            factory: |_, _| Ok(Box::new(NonePrefetcher)),
        });
        let cfg = UvmConfig::default();
        let e = r.prefetcher("my-policy").unwrap();
        assert!(e.selector.is_none());
        assert_eq!(
            (e.factory)(&cfg, &PolicySpec::new("mine")).unwrap().name(),
            "none"
        );
    }
}
