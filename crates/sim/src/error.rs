//! Typed failures for the hardened experiment executor.
//!
//! A sweep of hundreds of deduplicated runs must not die because one
//! run panics or hits a rotten cache entry. The executor
//! isolates each run and reports what went wrong as a [`RunError`];
//! [`ExecutionReport`] carries the per-submission outcomes so callers
//! can keep the completed siblings.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::exec::RunKey;
use crate::run::RunResult;

/// Why one simulation run produced no result.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The run panicked inside the simulator; the panic was caught at
    /// the run boundary and the sweep continued.
    Panicked {
        /// Workload name of the failed run.
        name: String,
        /// Dedup key of the failed run.
        key: RunKey,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The simulation finished but a durability side-effect failed —
    /// trace export to a full or read-only disk, a checkpoint that
    /// could not be written or belongs to a foreign revision, or an
    /// invariant-audit violation (see
    /// [`SimError`](crate::run::SimError)).
    Failed {
        /// Workload name of the failed run.
        name: String,
        /// Dedup key of the failed run.
        key: RunKey,
        /// The rendered [`SimError`](crate::run::SimError).
        message: String,
    },
}

impl RunError {
    /// Workload name of the failed run.
    pub fn name(&self) -> &str {
        match self {
            RunError::Panicked { name, .. } | RunError::Failed { name, .. } => name,
        }
    }

    /// Dedup key of the failed run.
    pub fn key(&self) -> RunKey {
        match self {
            RunError::Panicked { key, .. } | RunError::Failed { key, .. } => *key,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { name, key, message } => {
                write!(f, "run '{name}' ({}) panicked: {message}", key.to_hex())
            }
            RunError::Failed { name, key, message } => {
                write!(f, "run '{name}' ({}) failed: {message}", key.to_hex())
            }
        }
    }
}

impl Error for RunError {}

/// The outcome of a fault-tolerant sweep: one entry per submission, in
/// submission order, plus every failure encountered.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Per-submission results; `None` where the run failed (its error
    /// is in `failures`).
    pub results: Vec<Option<Arc<RunResult>>>,
    /// Every distinct failed run of this sweep.
    pub failures: Vec<RunError>,
    /// Unique runs the sweep journal recorded as completed before a
    /// crash and that were satisfied from a verified spill-cache entry
    /// instead of re-simulating (only non-zero under
    /// [`Plan::resume`](crate::Plan::resume)).
    pub recovered: usize,
    /// Unique runs the journal recorded as submitted-but-unfinished
    /// (interrupted by the crash) that this sweep restarted — from
    /// their latest valid checkpoint when one exists.
    pub resumed: usize,
}

impl ExecutionReport {
    /// `true` if every submission produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.results.iter().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let key = RunKey::from_digest(0xABC);
        let p = RunError::Panicked {
            name: "hotspot".into(),
            key,
            message: "boom".into(),
        };
        let e = RunError::Failed {
            name: "bfs".into(),
            key,
            message: "audit violation".into(),
        };
        assert!(p.to_string().contains("hotspot"));
        assert!(p.to_string().contains("boom"));
        assert!(e.to_string().contains("bfs"));
        assert!(e.to_string().contains("audit violation"));
        assert_eq!(p.name(), "hotspot");
        assert_eq!(e.key(), key);
    }

    #[test]
    fn empty_report_is_complete() {
        assert!(ExecutionReport::default().is_complete());
        let partial = ExecutionReport {
            results: vec![None],
            ..ExecutionReport::default()
        };
        assert!(!partial.is_complete());
    }
}
