//! The `reproduce` and `resume` workloads: every experiment runner
//! `all_experiments` calls, at paper scale, through one shared
//! `Executor` with a spill cache, a sweep journal and checkpoints.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use uvm_core::FaultPlan;
use uvm_sim::experiments::{self as exp, Scale};
use uvm_sim::{Executor, Journal, Warmup};

/// Launches between durable checkpoints in the sweep.
pub const CHECKPOINT_EVERY: usize = 8;

/// One experiment runner: its `uvm_sim::experiments` name and a call
/// rendering everything it returns.
pub type Runner = (&'static str, fn(&Executor) -> String);

const P: Scale = Scale::Paper;

/// The runners `all_experiments` calls, in its order.
pub const RUNNERS: &[Runner] = &[
    ("table1", |_| exp::table1().to_string()),
    ("fig2_walkthrough", |_| exp::fig2_walkthrough()),
    ("prefetcher_sweep", |e| {
        let s = exp::prefetcher_sweep(e, P);
        format!("{}{}{}", s.time, s.bandwidth, s.faults)
    }),
    ("oversubscription_sweep", |e| {
        let s = exp::oversubscription_sweep(e, P);
        format!("{}{}", s.time, s.transfers_4k)
    }),
    ("fig8_walkthrough", |_| exp::fig8_walkthrough()),
    ("eviction_isolation", |e| {
        let s = exp::eviction_isolation(e, P);
        format!("{}{}", s.time, s.evicted)
    }),
    ("policy_combinations", |e| {
        exp::policy_combinations(e, P).to_string()
    }),
    ("nw_trace", |e| {
        exp::nw_trace(e, P, &[60, 70])
            .iter()
            .map(|(launch, t)| format!("launch {launch}\n{}", t.to_csv()))
            .collect()
    }),
    ("tbn_oversubscription_sensitivity", |e| {
        exp::tbn_oversubscription_sensitivity(e, P).to_string()
    }),
    ("lru_reservation", |e| {
        exp::lru_reservation(e, P).to_string()
    }),
    ("tbne_vs_2mb", |e| {
        let s = exp::tbne_vs_2mb(e, P);
        format!("{}{}", s.time, s.thrash)
    }),
    ("pattern_analysis", |e| {
        exp::pattern_analysis(e, P).to_string()
    }),
    ("prefetch_granularity_ablation", |e| {
        exp::prefetch_granularity_ablation(e, P).to_string()
    }),
    ("fault_lanes_ablation", |e| {
        exp::fault_lanes_ablation(e, P, &[1, 2, 4, 8, 16]).to_string()
    }),
    ("prefetch_accuracy_ablation", |e| {
        exp::prefetch_accuracy_ablation(e, P).to_string()
    }),
    ("writeback_ablation", |e| {
        exp::writeback_ablation(e, P).to_string()
    }),
    ("huge_page_ablation", |e| {
        let s = exp::huge_page_ablation(e, P, Warmup::default(), &exp::HUGE_PAGE_OVERSUB);
        format!("{}{}{}", s.faults_per_kilo, s.time, s.activity)
    }),
    ("fault_injection_ablation", |e| {
        exp::fault_injection_ablation(e, P, FaultPlan::chaos()).to_string()
    }),
];

/// Where one sweep keeps its durable files.
#[derive(Clone, Debug)]
pub struct SweepDirs {
    pub spill: PathBuf,
    pub checkpoints: PathBuf,
    pub journal: PathBuf,
}

impl SweepDirs {
    pub fn under(root: &Path) -> Self {
        SweepDirs {
            spill: root.join("cache"),
            checkpoints: root.join("ckpt"),
            journal: root.join("ckpt").join("sweep.journal"),
        }
    }

    /// Points the simulator's checkpoint switches at these dirs. Must
    /// run before any worker thread exists.
    pub fn install(&self) {
        std::env::set_var("UVM_CHECKPOINT_DIR", &self.checkpoints);
        std::env::set_var("UVM_CHECKPOINT_EVERY", CHECKPOINT_EVERY.to_string());
    }

    /// Total bytes of the spill entries and of the checkpoint files.
    pub fn sizes(&self) -> (u64, u64) {
        let journal = fs::metadata(&self.journal).map_or(0, |m| m.len());
        (
            dir_bytes(&self.spill),
            dir_bytes(&self.checkpoints) - journal,
        )
    }

    /// Simulated warp accesses summed over the spill entries (every
    /// executed run except the uncacheable trace runs).
    pub fn spilled_accesses(&self) -> u64 {
        let Ok(entries) = fs::read_dir(&self.spill) else {
            return 0;
        };
        entries
            .flatten()
            .filter_map(|e| fs::read_to_string(e.path()).ok())
            .filter_map(|text| {
                let rest = text.split_once("\"accesses\":")?.1;
                let end = rest.find(|c: char| !c.is_ascii_digit())?;
                rest[..end].parse::<u64>().ok()
            })
            .sum()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    })
}

/// Host time and executor activity of one runner call.
#[derive(Clone, Debug)]
pub struct Step {
    pub secs: f64,
    /// Submissions served: simulations executed plus cache hits.
    pub delivered: usize,
}

/// One pass over every runner.
#[derive(Clone, Debug)]
pub struct SweepPass {
    pub journal_replay_s: f64,
    pub steps: Vec<Step>,
    pub digest: u64,
    pub runs_executed: usize,
    pub cache_hits: usize,
    pub prefixes: usize,
    pub failures: usize,
}

/// Runs every runner through one executor over `dirs` with `jobs`
/// workers. With `replay_journal` the pass first replays the sweep
/// journal, as a resumed session does.
pub fn sweep_pass(dirs: &SweepDirs, jobs: usize, replay_journal: bool) -> SweepPass {
    let mut journal_replay_s = 0.0;
    if replay_journal {
        let t = Instant::now();
        let replay = Journal::new(&dirs.journal).replay();
        journal_replay_s = t.elapsed().as_secs_f64();
        assert_eq!(
            replay.interrupted_count(),
            0,
            "the sweep journal shows interrupted runs"
        );
    }
    let exec = Executor::new(jobs)
        .with_spill_dir(&dirs.spill)
        .with_journal(&dirs.journal);
    let mut digest = crate::stats::Fnv::default();
    let mut steps = Vec::with_capacity(RUNNERS.len());
    for &(name, run) in RUNNERS {
        let before = exec.runs_executed() + exec.cache_hits();
        let t = Instant::now();
        let rendered = run(&exec);
        let secs = t.elapsed().as_secs_f64();
        let delivered = exec.runs_executed() + exec.cache_hits() - before;
        digest.bytes(format!("== {name}\n").as_bytes());
        digest.bytes(rendered.as_bytes());
        steps.push(Step { secs, delivered });
    }
    SweepPass {
        journal_replay_s,
        steps,
        digest: digest.finish(),
        runs_executed: exec.runs_executed(),
        cache_hits: exec.cache_hits(),
        prefixes: exec.prefixes_simulated(),
        failures: exec.failures().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::RUNNERS;

    /// `RUNNERS` follows `run_all`, the body of `all_experiments`: the
    /// same `uvm_sim::experiments` runners, in the same order.
    #[test]
    fn runners_follow_run_all() {
        let lib = include_str!("../../crates/bench/src/lib.rs");
        let body = lib.split("pub fn run_all(").nth(1).expect("run_all");
        let body = &body[..body.find("\n}\n").expect("the end of run_all")];
        let called: Vec<&str> = body
            .match_indices("exp::")
            .filter_map(|(i, m)| {
                let rest = &body[i + m.len()..];
                let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
                rest[end..].starts_with('(').then_some(&rest[..end])
            })
            .collect();
        let ours: Vec<&str> = RUNNERS.iter().map(|&(name, _)| name).collect();
        assert_eq!(ours, called);
    }
}
