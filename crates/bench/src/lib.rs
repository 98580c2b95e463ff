//! Shared plumbing for the table/figure regenerator binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper: it runs the corresponding experiment from
//! [`uvm_sim::experiments`], prints the series to stdout, and writes a
//! CSV under `results/`. Run any of them as
//!
//! ```sh
//! cargo run --release -p uvm-bench --bin fig11            # paper scale
//! cargo run --release -p uvm-bench --bin fig11 -- --smoke # tiny smoke run
//! cargo run --release -p uvm-bench --bin all_experiments -- --jobs 4
//! ```
//!
//! Every binary shares one [`Executor`] per invocation (built by
//! [`Config::executor`]): identical runs required by several figures
//! are simulated once, `--jobs N` sets the simulation worker-pool
//! width, and completed results are spilled as JSON under
//! `results/cache/` so re-invocations resume instead of re-simulating.
//! Delete `results/cache/` to force fresh runs.
//!
//! The shared command line is described by one declarative [`FlagSpec`]
//! table: each entry names the flag, its value shape, and its help
//! line, and a single loop accepts both `--flag VALUE` and
//! `--flag=VALUE` spellings. `--help` renders the same table.

pub mod harness;

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use uvm_core::{FaultPlan, ParamSpec, PolicyRegistry, PolicySpec};
use uvm_sim::experiments::Scale;
use uvm_sim::{Executor, Table};

/// Relative directory the executor spills completed run results into.
pub const CACHE_DIR: &str = "results/cache";

/// A fallible step of a regenerator binary; rendered by [`finish`]
/// into the process exit code.
#[derive(Debug)]
pub enum BenchError {
    /// A filesystem write under `results/` failed.
    Io {
        /// The path that could not be written.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// One or more simulation runs failed after their retry budget;
    /// the executor's failure report has the details.
    Sweep(String),
    /// A trace or trained-table artifact under `results/` could not
    /// be decoded.
    Artifact(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io { path, source } => {
                write!(f, "could not write {}: {source}", path.display())
            }
            BenchError::Sweep(msg) => write!(f, "sweep incomplete: {msg}"),
            BenchError::Artifact(msg) => write!(f, "bad artifact: {msg}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            BenchError::Sweep(_) | BenchError::Artifact(_) => None,
        }
    }
}

/// Renders a binary's outcome as its exit code, printing the error to
/// stderr on failure.
pub fn finish(outcome: Result<(), BenchError>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Common binary configuration parsed from the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// Experiment scale (`--smoke` / `--paper`).
    pub scale: Scale,
    /// Worker-pool width (`--jobs N`); 0 means auto-detect.
    pub jobs: usize,
    /// Prefetcher override (`--prefetch SPEC`), canonicalized through
    /// the policy registry (aliases renamed, parameter keys checked).
    /// Binaries that sweep policies ignore it.
    pub prefetch: Option<PolicySpec>,
    /// Evictor override (`--evict SPEC`), canonicalized through the
    /// policy registry. Binaries that sweep policies ignore it.
    pub evict: Option<PolicySpec>,
    /// Trace-export directory (`--trace-out DIR`); binaries that
    /// support it write one `.uvmt` file per run under this directory.
    pub trace_out: Option<PathBuf>,
    /// Fault-injection profile (`--fault-profile NAME`); `None` means
    /// the binary's default (usually [`FaultPlan::none`]).
    pub fault_plan: Option<FaultPlan>,
    /// Fault-injection seed override (`--fault-seed N`).
    pub fault_seed: Option<u64>,
    /// Over-subscription ratio override (`--oversub RATIO`), the
    /// footprint : device-memory ratio (1.10 = 110 %). `None` means
    /// the binary's default level(s). Validated against
    /// [`OVERSUB_RANGE`] at parse time.
    pub oversub: Option<f64>,
    /// Checkpoint directory (`--checkpoint-dir DIR`): every run writes
    /// durable `.uvmc` checkpoints under this directory at kernel
    /// boundaries and resumes from them after a crash. Off by default.
    pub checkpoint_dir: Option<PathBuf>,
    /// Kernel launches between checkpoints (`--checkpoint-every N`,
    /// default 1); only meaningful with `--checkpoint-dir`.
    pub checkpoint_every: usize,
    /// Run the GMMU invariant auditor at every checkpoint boundary
    /// (`--audit`); equivalent to `UVM_AUDIT=1`.
    pub audit: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: Scale::Paper,
            jobs: 0,
            prefetch: None,
            evict: None,
            trace_out: None,
            fault_plan: None,
            fault_seed: None,
            oversub: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            audit: false,
        }
    }
}

/// The over-subscription ratios `--oversub` accepts: 1.0 (everything
/// fits) up to 4.0 (footprint four times device memory).
pub const OVERSUB_RANGE: std::ops::RangeInclusive<f64> = 1.0..=4.0;

impl Config {
    /// Builds the shared executor for this invocation, spilling to
    /// [`CACHE_DIR`]. With `--checkpoint-dir` the executor also keeps
    /// a write-ahead sweep journal next to the checkpoints, so an
    /// interrupted invocation can be diagnosed and resumed.
    pub fn executor(&self) -> Executor {
        let exec = Executor::new(self.jobs).with_spill_dir(CACHE_DIR);
        match &self.checkpoint_dir {
            Some(dir) => exec.with_journal(dir.join("sweep.journal")),
            None => exec,
        }
    }

    /// Installs the durability settings process-wide: experiments
    /// build their own `RunOptions` deep inside each sweep, so
    /// `--checkpoint-dir`, `--checkpoint-every`, and `--audit` travel
    /// as the `UVM_CHECKPOINT_DIR`/`UVM_CHECKPOINT_EVERY`/`UVM_AUDIT`
    /// environment switches the simulator honours for every run.
    /// Called once by [`config_from_args`], before any worker thread
    /// exists. Safe because none of these change simulation results.
    pub fn install_durability(&self) {
        if let Some(dir) = &self.checkpoint_dir {
            std::env::set_var("UVM_CHECKPOINT_DIR", dir);
            std::env::set_var("UVM_CHECKPOINT_EVERY", self.checkpoint_every.to_string());
        }
        if self.audit {
            std::env::set_var("UVM_AUDIT", "1");
        }
    }

    /// The fault plan this invocation asked for: `--fault-profile`
    /// if given, else `default`, with `--fault-seed` applied on top.
    pub fn resolved_fault_plan(&self, default: FaultPlan) -> FaultPlan {
        let plan = self.fault_plan.unwrap_or(default);
        match self.fault_seed {
            Some(seed) => plan.with_seed(seed),
            None => plan,
        }
    }

    /// Where a run named `run` should export its trace: the
    /// `--trace-out` directory joined with `<run>.uvmt`, or `None`
    /// when trace export is off.
    pub fn trace_path(&self, run: &str) -> Option<PathBuf> {
        self.trace_out
            .as_ref()
            .map(|dir| dir.join(format!("{run}.uvmt")))
    }
}

/// One entry of the shared flag table: the flag's name, the shape of
/// its value (`None` for bare switches), its `--help` line, and the
/// action applying a parsed occurrence to the in-progress [`Config`].
struct FlagSpec {
    /// The flag as typed, e.g. `"--jobs"`.
    name: &'static str,
    /// Metavariable for the value (`Some("N")` renders `--jobs N`);
    /// `None` means the flag takes no value.
    metavar: Option<&'static str>,
    /// One help line for `--help`.
    help: &'static str,
    /// Applies the occurrence; receives `""` for bare switches.
    apply: fn(&mut ParseCtx, &str) -> Result<(), String>,
}

/// Mutable state threaded through one [`parse_args`] pass.
struct ParseCtx {
    cfg: Config,
    request: Option<Parsed>,
}

fn parse_prefetch_spec(s: &str) -> Result<PolicySpec, String> {
    let spec: PolicySpec = s.parse().map_err(|e| format!("{e}"))?;
    PolicyRegistry::global()
        .canonical_prefetch_spec(&spec)
        .map_err(|e| format!("{e}"))
}

fn parse_evict_spec(s: &str) -> Result<PolicySpec, String> {
    let spec: PolicySpec = s.parse().map_err(|e| format!("{e}"))?;
    PolicyRegistry::global()
        .canonical_evict_spec(&spec)
        .map_err(|e| format!("{e}"))
}

fn parse_oversub(n: &str) -> Result<f64, String> {
    let out_of_range = || {
        format!(
            "bad --oversub value {n:?}: accepted range is {:.1}..={:.1} \
             (footprint : device-memory ratio, e.g. 1.25 = 125%)",
            OVERSUB_RANGE.start(),
            OVERSUB_RANGE.end()
        )
    };
    let ratio: f64 = n.parse().map_err(|_| out_of_range())?;
    if OVERSUB_RANGE.contains(&ratio) {
        Ok(ratio)
    } else {
        Err(out_of_range())
    }
}

/// The shared flag table. [`parse_args`] drives parsing off it and
/// [`render_help`] renders it, so the two can never drift apart.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--smoke",
        metavar: None,
        help: "run at tiny smoke scale",
        apply: |ctx, _| {
            ctx.cfg.scale = Scale::Smoke;
            Ok(())
        },
    },
    FlagSpec {
        name: "--paper",
        metavar: None,
        help: "run at the paper's scale (default)",
        apply: |ctx, _| {
            ctx.cfg.scale = Scale::Paper;
            Ok(())
        },
    },
    FlagSpec {
        name: "--jobs",
        metavar: Some("N"),
        help: "worker-pool width; 0 auto-detects parallelism (default)",
        apply: |ctx, v| {
            ctx.cfg.jobs = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--prefetch",
        metavar: Some("SPEC"),
        help: "prefetcher: name, alias, or name:key=val,... (e.g. markov:depth=2)",
        apply: |ctx, v| {
            ctx.cfg.prefetch = Some(parse_prefetch_spec(v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--evict",
        metavar: Some("SPEC"),
        help: "evictor, same spec grammar as --prefetch",
        apply: |ctx, v| {
            ctx.cfg.evict = Some(parse_evict_spec(v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--trace-out",
        metavar: Some("DIR"),
        help: "export per-run access/fault traces as DIR/<run>.uvmt",
        apply: |ctx, v| {
            if v.is_empty() {
                return Err("bad --trace-out value: directory must be non-empty".into());
            }
            ctx.cfg.trace_out = Some(PathBuf::from(v));
            Ok(())
        },
    },
    FlagSpec {
        name: "--oversub",
        metavar: Some("RATIO"),
        help: "over-subscription ratio, 1.0..=4.0 (1.25 = 125%)",
        apply: |ctx, v| {
            ctx.cfg.oversub = Some(parse_oversub(v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--fault-profile",
        metavar: Some("NAME"),
        help: "deterministic fault-injection profile",
        apply: |ctx, v| {
            ctx.cfg.fault_plan = Some(FaultPlan::from_name(v).map_err(|e| format!("{e}"))?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--fault-seed",
        metavar: Some("N"),
        help: "fault-injection seed override",
        apply: |ctx, v| {
            ctx.cfg.fault_seed = Some(
                v.parse()
                    .map_err(|_| format!("bad --fault-seed value {v:?}"))?,
            );
            Ok(())
        },
    },
    FlagSpec {
        name: "--checkpoint-dir",
        metavar: Some("DIR"),
        help: "write durable per-run checkpoints under DIR and resume from them",
        apply: |ctx, v| {
            if v.is_empty() {
                return Err("bad --checkpoint-dir value: directory must be non-empty".into());
            }
            ctx.cfg.checkpoint_dir = Some(PathBuf::from(v));
            Ok(())
        },
    },
    FlagSpec {
        name: "--checkpoint-every",
        metavar: Some("N"),
        help: "kernel launches between checkpoints (default 1)",
        apply: |ctx, v| {
            let every: usize = v
                .parse()
                .map_err(|_| format!("bad --checkpoint-every value {v:?}"))?;
            if every == 0 {
                return Err("bad --checkpoint-every value: must be at least 1".into());
            }
            ctx.cfg.checkpoint_every = every;
            Ok(())
        },
    },
    FlagSpec {
        name: "--audit",
        metavar: None,
        help: "run the GMMU invariant auditor at every checkpoint boundary",
        apply: |ctx, _| {
            ctx.cfg.audit = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--list-policies",
        metavar: None,
        help: "print every registered policy (and its parameters) and exit",
        apply: |ctx, _| {
            ctx.request = Some(Parsed::ListPolicies);
            Ok(())
        },
    },
    FlagSpec {
        name: "--help",
        metavar: None,
        help: "print this message and exit",
        apply: |ctx, _| {
            ctx.request = Some(Parsed::Help);
            Ok(())
        },
    },
];

/// Parses the common binary arguments off the [`FlagSpec`] table; see
/// `--help` for the catalogue. Every value-taking flag accepts both
/// `--flag VALUE` and `--flag=VALUE`. `--list-policies` prints the
/// policy registry and exits 0; `--help` prints the flag table and
/// exits 0. Unknown arguments, policy names, unknown policy
/// parameters, out-of-range ratios, and fault profiles exit with
/// status 2; the errors list the valid names, accepted parameters, or
/// the accepted range.
pub fn config_from_args() -> Config {
    match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(cfg)) => {
            cfg.install_durability();
            *cfg
        }
        Ok(Parsed::ListPolicies) => {
            print!("{}", render_policy_list());
            std::process::exit(0);
        }
        Ok(Parsed::Help) => {
            print!("{}", render_help());
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprint!("{}", render_help());
            std::process::exit(2);
        }
    }
}

/// Outcome of argument parsing: a runnable configuration, or one of
/// the print-and-exit requests.
#[derive(Clone, Debug, PartialEq)]
enum Parsed {
    // Boxed: Config dwarfs the unit variants.
    Run(Box<Config>),
    ListPolicies,
    Help,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut ctx = ParseCtx {
        cfg: Config::default(),
        request: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        // `--flag=VALUE` splits into the flag and an inline value;
        // `--flag VALUE` takes the value from the next argument.
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let Some(spec) = FLAGS.iter().find(|f| f.name == name) else {
            return Err(format!("unknown argument {arg:?}"));
        };
        let value = match (spec.metavar, inline) {
            (Some(metavar), inline) => match inline.or_else(|| args.next()) {
                Some(v) => v,
                None => return Err(format!("{} needs a value ({metavar})", spec.name)),
            },
            (None, Some(_)) => {
                return Err(format!("{} takes no value", spec.name));
            }
            (None, None) => String::new(),
        };
        (spec.apply)(&mut ctx, &value)?;
        if let Some(request) = ctx.request.take() {
            return Ok(request);
        }
    }
    Ok(Parsed::Run(Box::new(ctx.cfg)))
}

/// The `--help` text, rendered straight from the [`FlagSpec`] table.
pub fn render_help() -> String {
    let mut out = String::from("usage: [FLAGS]\n");
    for f in FLAGS {
        let lhs = match f.metavar {
            Some(metavar) => format!("{} {metavar}", f.name),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {lhs:<24}{}\n", f.help));
    }
    out
}

/// The `--list-policies` listing: every registered prefetcher and
/// evictor with its aliases, summary, and accepted parameters,
/// straight from the registry.
pub fn render_policy_list() -> String {
    let registry = PolicyRegistry::global();
    let mut out = String::from("prefetchers:\n");
    let push =
        |out: &mut String, name: &str, aliases: &[&str], summary: &str, params: &[ParamSpec]| {
            let aliases = if aliases.is_empty() {
                String::new()
            } else {
                format!(" (aka {})", aliases.join(", "))
            };
            out.push_str(&format!("  {name:<10}{aliases:<30}{summary}\n"));
            for p in params {
                out.push_str(&format!(
                    "    :{:<12} {} (default {})\n",
                    p.key, p.summary, p.default
                ));
            }
        };
    for e in registry.prefetchers() {
        push(&mut out, e.name, e.aliases, e.summary, e.params);
    }
    out.push_str("evictors:\n");
    for e in registry.evictors() {
        push(&mut out, e.name, e.aliases, e.summary, e.params);
    }
    out
}

/// Prints `table` to stdout and writes `results/<name>.csv`.
pub fn emit(name: &str, table: &Table) -> Result<(), BenchError> {
    println!("{table}");
    write_csv(name, table)
}

/// Writes `results/<name>.csv` without printing the rows (for large
/// scatter series like Fig. 12).
pub fn write_csv(name: &str, table: &Table) -> Result<(), BenchError> {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).map_err(|source| BenchError::Io {
        path: dir.clone(),
        source,
    })?;
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv()).map_err(|source| BenchError::Io {
        path: path.clone(),
        source,
    })?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The full `all_experiments` sequence: every table/figure regenerator
/// plus the ablations, sharing one deduplicating executor. Also the
/// body of the smoke integration test. Ends with the executor's
/// failure report (quarantined spill entries, failed runs) when there
/// is anything to report.
pub fn run_all(cfg: &Config) -> Result<(), BenchError> {
    use uvm_sim::experiments as exp;
    let exec = cfg.executor();
    let scale = cfg.scale;

    emit("table1", &exp::table1())?;
    print!("{}", exp::fig2_walkthrough());

    let sweep = exp::prefetcher_sweep(&exec, scale);
    emit("fig3", &sweep.time)?;
    emit("fig4", &sweep.bandwidth)?;
    emit("fig5", &sweep.faults)?;

    let os = exp::oversubscription_sweep(&exec, scale);
    emit("fig6", &os.time)?;
    emit("fig7", &os.transfers_4k)?;

    print!("{}", exp::fig8_walkthrough());

    let iso = exp::eviction_isolation(&exec, scale);
    emit("fig9", &iso.time)?;
    emit("fig10", &iso.evicted)?;

    emit("fig11", &exp::policy_combinations(&exec, scale))?;

    for (launch, table) in exp::nw_trace(&exec, scale, &[60, 70]) {
        write_csv(&format!("fig12_launch{launch}"), &table)?;
    }

    emit(
        "fig13",
        &exp::tbn_oversubscription_sensitivity(&exec, scale),
    )?;
    emit("fig14", &exp::lru_reservation(&exec, scale))?;

    let cmp = exp::tbne_vs_2mb(&exec, scale);
    emit("fig15", &cmp.time)?;
    emit("fig16", &cmp.thrash)?;

    // Sec. 7 analysis and the design-choice ablations.
    emit("pattern_report", &exp::pattern_analysis(&exec, scale))?;
    emit(
        "ablation_prefetch_granularity",
        &exp::prefetch_granularity_ablation(&exec, scale),
    )?;
    emit(
        "ablation_fault_lanes",
        &exp::fault_lanes_ablation(&exec, scale, &[1, 2, 4, 8, 16]),
    )?;
    emit(
        "ablation_prefetch_accuracy",
        &exp::prefetch_accuracy_ablation(&exec, scale),
    )?;
    emit("ablation_writeback", &exp::writeback_ablation(&exec, scale))?;
    let oversubs: Vec<f64> = match cfg.oversub {
        Some(frac) => vec![frac],
        None => exp::HUGE_PAGE_OVERSUB.to_vec(),
    };
    let hp = exp::huge_page_ablation(&exec, scale, uvm_sim::Warmup::default(), &oversubs);
    emit("ablation_huge_pages_faults_per_kilo", &hp.faults_per_kilo)?;
    emit("ablation_huge_pages_time", &hp.time)?;
    emit("ablation_huge_pages_activity", &hp.activity)?;
    emit(
        "ablation_fault_injection",
        &exp::fault_injection_ablation(
            &exec,
            scale,
            cfg.resolved_fault_plan(uvm_core::FaultPlan::chaos()),
        ),
    )?;

    eprintln!(
        "executor: {} simulations run, {} submissions served from cache ({} workers)",
        exec.runs_executed(),
        exec.cache_hits(),
        exec.jobs(),
    );
    if let Some(report) = exec.failure_report() {
        eprint!("{report}");
        let failed = exec.failures();
        if !failed.is_empty() {
            return Err(BenchError::Sweep(format!(
                "{} run(s) failed; see the failure report above",
                failed.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_csv() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1"]);
        let tmp = std::env::temp_dir().join("uvm-bench-test");
        let _ = std::fs::create_dir_all(&tmp);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();
        emit("emit_test", &t).unwrap();
        let written = std::fs::read_to_string("results/emit_test.csv").unwrap();
        std::env::set_current_dir(old).unwrap();
        assert_eq!(written, "a\n1\n");
    }

    #[test]
    fn args_parse_scale_and_jobs() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let base = Config::default();
        assert_eq!(p(&[]).unwrap(), Parsed::Run(Box::new(base.clone())));
        assert_eq!(
            p(&["--smoke", "--jobs", "4"]).unwrap(),
            Parsed::Run(Box::new(Config {
                scale: Scale::Smoke,
                jobs: 4,
                ..base.clone()
            }))
        );
        assert_eq!(
            p(&["--jobs=8", "--paper"]).unwrap(),
            Parsed::Run(Box::new(Config {
                scale: Scale::Paper,
                jobs: 8,
                ..base
            }))
        );
        assert!(p(&["--jobs"]).is_err());
        assert!(p(&["--jobs", "many"]).is_err());
        assert!(p(&["--frobnicate"]).is_err());
        assert!(p(&["--engine-threads", "4"])
            .unwrap_err()
            .contains("unknown argument"));
        // Bare switches reject inline values.
        assert!(p(&["--smoke=yes"]).is_err());
    }

    #[test]
    fn args_resolve_policies_through_the_registry() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        // Canonical names and registry aliases both resolve.
        let Parsed::Run(cfg) = p(&["--prefetch", "S256p", "--evict=freq"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.prefetch, Some(PolicySpec::new("S256p")));
        assert_eq!(cfg.evict, Some(PolicySpec::new("AFe")));
        let Parsed::Run(cfg) = p(&["--prefetch=tree", "--evict", "LRU-2MB"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.prefetch, Some(PolicySpec::new("TBNp")));
        assert_eq!(cfg.evict, Some(PolicySpec::new("LRU-2MB")));
        assert_eq!(p(&["--list-policies"]).unwrap(), Parsed::ListPolicies);
    }

    #[test]
    fn args_accept_parameterized_specs() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        // Parameterized specs pass through with their params, and
        // aliases canonicalize without losing them.
        let Parsed::Run(cfg) = p(&["--prefetch", "markov:depth=3,degree=8"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(
            cfg.prefetch,
            Some(
                PolicySpec::new("markov")
                    .with_param("depth", "3")
                    .with_param("degree", "8")
            )
        );
        let Parsed::Run(cfg) = p(&["--prefetch=delta-correlation:depth=2"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.prefetch.unwrap().to_string(), "markov:depth=2");
    }

    #[test]
    fn unknown_policy_names_error_with_the_registry_list() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let err = p(&["--prefetch", "bogus"]).unwrap_err();
        assert!(err.contains("bogus"));
        for name in PolicyRegistry::global().prefetcher_names() {
            assert!(err.contains(name), "error lists {name}");
        }
        let err = p(&["--evict=bogus"]).unwrap_err();
        for name in PolicyRegistry::global().evictor_names() {
            assert!(err.contains(name), "error lists {name}");
        }
    }

    #[test]
    fn unknown_params_error_listing_the_accepted_keys() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let err = p(&["--prefetch", "markov:bogus=1"]).unwrap_err();
        assert!(err.contains("bogus"), "error names the bad key: {err}");
        assert!(err.contains("depth"), "error lists accepted keys: {err}");
        let err = p(&["--prefetch", "TBNp:depth=2"]).unwrap_err();
        assert!(err.contains("no parameters"), "{err}");
    }

    #[test]
    fn args_parse_trace_out() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let Parsed::Run(cfg) = p(&["--trace-out", "results/traces"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.trace_out, Some(PathBuf::from("results/traces")));
        assert_eq!(
            cfg.trace_path("nw_markov"),
            Some(PathBuf::from("results/traces/nw_markov.uvmt"))
        );
        let Parsed::Run(cfg) = p(&["--trace-out=out"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.trace_out, Some(PathBuf::from("out")));
        assert_eq!(Config::default().trace_path("x"), None);
        assert!(p(&["--trace-out"]).is_err());
    }

    #[test]
    fn args_parse_fault_profile_and_seed() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let Parsed::Run(cfg) = p(&["--fault-profile", "chaos", "--fault-seed", "42"]).unwrap()
        else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.fault_plan, Some(FaultPlan::chaos()));
        assert_eq!(cfg.fault_seed, Some(42));
        assert_eq!(
            cfg.resolved_fault_plan(FaultPlan::none()),
            FaultPlan::chaos().with_seed(42)
        );

        let Parsed::Run(cfg) = p(&["--fault-profile=pcie-flaky", "--fault-seed=7"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.fault_plan, Some(FaultPlan::pcie_flaky()));
        assert_eq!(cfg.fault_seed, Some(7));

        // No flags: the binary's default plan, untouched.
        let Parsed::Run(cfg) = p(&[]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(
            cfg.resolved_fault_plan(FaultPlan::none()),
            FaultPlan::none()
        );

        let err = p(&["--fault-profile", "bogus"]).unwrap_err();
        for name in FaultPlan::PROFILE_NAMES {
            assert!(err.contains(name), "error lists {name}");
        }
        assert!(p(&["--fault-seed", "many"]).is_err());
        assert!(p(&["--fault-profile"]).is_err());
        assert!(p(&["--fault-seed"]).is_err());
    }

    #[test]
    fn args_parse_and_validate_oversub() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let Parsed::Run(cfg) = p(&["--oversub", "1.25"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.oversub, Some(1.25));
        let Parsed::Run(cfg) = p(&["--oversub=1.5"]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.oversub, Some(1.5));
        // Boundary values of the accepted range are accepted.
        assert!(p(&["--oversub", "1.0"]).is_ok());
        assert!(p(&["--oversub", "4.0"]).is_ok());

        // Out-of-range and unparseable ratios name the accepted range.
        for bad in ["0.5", "4.5", "-1.1", "110%", "lots"] {
            let err = p(&["--oversub", bad]).unwrap_err();
            assert!(err.contains(bad), "error echoes the value {bad:?}");
            assert!(err.contains("1.0..=4.0"), "error lists the range: {err}");
        }
        assert!(p(&["--oversub"]).is_err());
    }

    #[test]
    fn args_parse_checkpoint_and_audit_flags() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let Parsed::Run(cfg) = p(&[
            "--checkpoint-dir",
            "results/ckpt",
            "--checkpoint-every=3",
            "--audit",
        ])
        .unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("results/ckpt")));
        assert_eq!(cfg.checkpoint_every, 3);
        assert!(cfg.audit);

        // Defaults: checkpointing off, interval 1, no audit.
        let Parsed::Run(cfg) = p(&[]).unwrap() else {
            panic!("expected a runnable config");
        };
        assert_eq!(cfg.checkpoint_dir, None);
        assert_eq!(cfg.checkpoint_every, 1);
        assert!(!cfg.audit);

        assert!(p(&["--checkpoint-dir"]).is_err());
        assert!(p(&["--checkpoint-dir="]).is_err());
        assert!(p(&["--checkpoint-every", "0"]).is_err());
        assert!(p(&["--checkpoint-every", "some"]).is_err());
        assert!(p(&["--audit=1"]).is_err(), "bare switch takes no value");
    }

    #[test]
    fn help_renders_the_flag_table() {
        let p = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert_eq!(p(&["--help"]).unwrap(), Parsed::Help);
        let help = render_help();
        for f in FLAGS {
            assert!(help.contains(f.name), "--help mentions {}", f.name);
            assert!(
                help.contains(f.help),
                "--help carries the line for {}",
                f.name
            );
            if let Some(metavar) = f.metavar {
                let rendered = format!("{} {metavar}", f.name);
                assert!(help.contains(&rendered), "--help shows {rendered}");
            }
        }
        // Pinned shape: usage header plus one line per flag.
        assert!(help.starts_with("usage: [FLAGS]\n"));
        assert_eq!(help.lines().count(), 1 + FLAGS.len());
    }

    #[test]
    fn bench_error_display_names_the_path() {
        let e = BenchError::Io {
            path: PathBuf::from("results/x.csv"),
            source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(e.to_string().contains("results/x.csv"));
        assert!(e.source().is_some());
        let s = BenchError::Sweep("2 run(s) failed".into());
        assert!(s.to_string().contains("2 run(s) failed"));
        assert!(s.source().is_none());
    }

    #[test]
    fn policy_list_covers_every_registered_name_and_param() {
        let listing = render_policy_list();
        let registry = PolicyRegistry::global();
        for e in registry.prefetchers() {
            for name in e.names() {
                assert!(listing.contains(name), "listing mentions {name}");
            }
            for p in e.params {
                assert!(listing.contains(p.key), "listing mentions param {}", p.key);
            }
        }
        for e in registry.evictors() {
            for name in e.names() {
                assert!(listing.contains(name), "listing mentions {name}");
            }
        }
    }
}
