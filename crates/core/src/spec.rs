//! Parameterized policy specifications — the `name:key=val,...`
//! grammar every CLI and config surface resolves policies through.
//!
//! A [`PolicySpec`] is the *general* policy identity: a registered
//! name (canonical or alias) plus an ordered set of `key=value`
//! parameters. Bare names (`"TBNp"`, `"lru"`) remain valid — they are
//! specs with no parameters — so every pre-existing spelling keeps
//! working, while parameterized policies like `markov:depth=2` or
//! `learned:table=results/bp.tbl` become expressible from any CLI.
//!
//! Grammar (`FromStr`):
//!
//! ```text
//! spec   := name [ ':' param ( ',' param )* ]
//! param  := key '=' value
//! name   := any characters except ':'       (non-empty)
//! key    := any characters except '=' / ',' (non-empty)
//! value  := any characters except ','       (may be empty? no: non-empty)
//! ```
//!
//! Parameters are canonicalized to ascending key order on parse, so
//! `markov:table=512,depth=2` and `markov:depth=2,table=512` are the
//! *same* spec: they compare equal, display identically, and hash to
//! the same [`RunKey`](https://docs.rs/uvm-sim) cache entry. `Display`
//! emits the canonical form, and `parse(display(s)) == s` holds for
//! every spec — the round-trip property the CLI layers rely on.
//!
//! Name resolution (alias → canonical name) and parameter validation
//! live in the [`PolicyRegistry`](crate::PolicyRegistry); this module
//! is pure syntax.

use std::fmt;
use std::str::FromStr;

use crate::policy::{EvictPolicy, PrefetchPolicy};

/// A parsed policy specification: a policy name plus its parameters,
/// canonicalized to ascending key order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolicySpec {
    name: String,
    /// `key=value` pairs, sorted ascending by key, keys unique.
    params: Vec<(String, String)>,
}

impl PolicySpec {
    /// A bare spec (no parameters) for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        PolicySpec {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Adds (or replaces) one parameter, keeping the canonical key
    /// order.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        let value = value.into();
        match self.params.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.params[i].1 = value,
            Err(i) => self.params.insert(i, (key, value)),
        }
        self
    }

    /// The policy name as given (canonical name or alias — resolution
    /// is the registry's job).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the name, keeping the parameters (the registry uses
    /// this to canonicalize aliases).
    pub(crate) fn rename(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// The parameters, ascending key order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// The value of parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.params[i].1.as_str())
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            f.write_str(if i == 0 { ":" } else { "," })?;
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// Error parsing the `name:key=val,...` grammar (pure syntax — unknown
/// names and parameters are registry-level errors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseSpecError {
    /// The spec was empty, or nothing preceded the `:`.
    EmptyName,
    /// A parameter was missing its `=` (the offending fragment).
    MissingEquals(String),
    /// A parameter had an empty key or value (the offending fragment).
    EmptyParam(String),
    /// The same key appeared twice.
    DuplicateKey(String),
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::EmptyName => {
                write!(f, "empty policy name (expected name or name:key=val,...)")
            }
            ParseSpecError::MissingEquals(p) => {
                write!(
                    f,
                    "policy parameter {p:?} is missing '=' (expected key=val)"
                )
            }
            ParseSpecError::EmptyParam(p) => {
                write!(f, "policy parameter {p:?} has an empty key or value")
            }
            ParseSpecError::DuplicateKey(k) => {
                write!(f, "policy parameter key {k:?} given twice")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

impl FromStr for PolicySpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, rest) = match s.split_once(':') {
            None => (s, None),
            Some((n, r)) => (n, Some(r)),
        };
        if name.is_empty() {
            return Err(ParseSpecError::EmptyName);
        }
        let mut spec = PolicySpec::new(name);
        if let Some(rest) = rest {
            // `name:` with nothing after the colon is malformed — a
            // bare name must simply omit the colon.
            if rest.is_empty() {
                return Err(ParseSpecError::EmptyParam(String::new()));
            }
            for fragment in rest.split(',') {
                let Some((key, value)) = fragment.split_once('=') else {
                    return Err(ParseSpecError::MissingEquals(fragment.to_owned()));
                };
                if key.is_empty() || value.is_empty() {
                    return Err(ParseSpecError::EmptyParam(fragment.to_owned()));
                }
                if spec.param(key).is_some() {
                    return Err(ParseSpecError::DuplicateKey(key.to_owned()));
                }
                spec = spec.with_param(key, value);
            }
        }
        Ok(spec)
    }
}

impl From<PrefetchPolicy> for PolicySpec {
    /// The bare spec of the selector's canonical registry name.
    fn from(p: PrefetchPolicy) -> Self {
        PolicySpec::new(p.to_string())
    }
}

impl From<EvictPolicy> for PolicySpec {
    /// The bare spec of the selector's canonical registry name.
    fn from(e: EvictPolicy) -> Self {
        PolicySpec::new(e.to_string())
    }
}

impl From<&PolicySpec> for PolicySpec {
    fn from(s: &PolicySpec) -> Self {
        s.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_round_trip() {
        for name in ["TBNp", "none", "LRU-4KB", "lru", "tree"] {
            let spec: PolicySpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert!(spec.params().is_empty());
            assert_eq!(spec.to_string(), name);
            assert_eq!(spec.to_string().parse::<PolicySpec>().unwrap(), spec);
        }
    }

    #[test]
    fn parameterized_specs_canonicalize_and_round_trip() {
        let a: PolicySpec = "markov:table=512,depth=2".parse().unwrap();
        let b: PolicySpec = "markov:depth=2,table=512".parse().unwrap();
        assert_eq!(a, b, "parameter order is canonicalized away");
        assert_eq!(a.to_string(), "markov:depth=2,table=512");
        assert_eq!(a.to_string().parse::<PolicySpec>().unwrap(), a);
        assert_eq!(a.param("depth"), Some("2"));
        assert_eq!(a.param("table"), Some("512"));
        assert_eq!(a.param("bogus"), None);
    }

    #[test]
    fn values_may_contain_paths_and_equals_free_chars() {
        let s: PolicySpec = "learned:table=results/trained/bp.tbl".parse().unwrap();
        assert_eq!(s.param("table"), Some("results/trained/bp.tbl"));
        assert_eq!(s.to_string(), "learned:table=results/trained/bp.tbl");
    }

    #[test]
    fn with_param_replaces_existing_keys() {
        let s = PolicySpec::new("markov")
            .with_param("depth", "1")
            .with_param("depth", "3");
        assert_eq!(s.param("depth"), Some("3"));
        assert_eq!(s.params().len(), 1);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert_eq!(
            "".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::EmptyName
        );
        assert_eq!(
            ":depth=2".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::EmptyName
        );
        assert_eq!(
            "markov:".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::EmptyParam(String::new())
        );
        assert_eq!(
            "markov:depth".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::MissingEquals("depth".into())
        );
        assert_eq!(
            "markov:=2".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::EmptyParam("=2".into())
        );
        assert_eq!(
            "markov:depth=".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::EmptyParam("depth=".into())
        );
        assert_eq!(
            "markov:depth=1,depth=2".parse::<PolicySpec>().unwrap_err(),
            ParseSpecError::DuplicateKey("depth".into())
        );
    }

    #[test]
    fn selector_conversions_use_canonical_names() {
        assert_eq!(
            PolicySpec::from(PrefetchPolicy::TreeBasedNeighborhood).to_string(),
            "TBNp"
        );
        assert_eq!(
            PolicySpec::from(EvictPolicy::LruPage).to_string(),
            "LRU-4KB"
        );
    }
}
