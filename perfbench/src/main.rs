//! End-to-end and per-layer host-time benchmark of the UVM-interplay
//! simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (all start from empty device memory):
//!
//! * `fit` — the Figs. 3-5 prefetcher grid, unlimited memory;
//! * `oversub` — the eviction grid at 110 % / 150 % over-subscription;
//! * `reproduce` — every experiment runner at paper scale through one
//!   cold executor (spill cache, journal, checkpoints every 8 launches);
//! * `resume` — the same runners over the files a cold pass left.
//!
//! The run repeats passes over its workload for `--seconds` and reports
//! medians over passes. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates plain and traced passes and prints the
//! per-layer ledger, timed from outside around each layer's public
//! calls. The last stdout line is one JSON object; the lines before it
//! are a readable report of every metric measured. See `README.md`.

mod grid;
mod stats;
mod sweep;
mod traced;

use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use uvm_sim::measure_footprint;
use uvm_types::Duration;
use uvm_workloads::{standard_suite, Workload};

use grid::{Cell, Outcome};
use stats::{cpu_seconds, median, peak_rss_mb, reset_peak_rss, tail_quantile};
use sweep::{SweepDirs, SweepPass};
use traced::Ledger;

/// Environment switches that change what the simulator does or
/// writes; cleared so an inherited setting cannot change what is
/// measured.
const PINNED_ENV: [&str; 7] = [
    "UVM_ENGINE_THREADS",
    "UVM_ENGINE_OS_THREADS",
    "UVM_AUDIT",
    "UVM_CHECKPOINT_DIR",
    "UVM_CHECKPOINT_EVERY",
    "UVM_DEBUG_FAULTS",
    "UVM_BENCH_JSON",
];

/// Work directory, relative to the checkout root; removed on exit.
const WORK_DIR: &str = ".bench_work";

/// Timed repetitions of the set-up step; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Digests of each workload's simulated outputs, recorded with
/// `--record` at the commit that added the benchmark.
const RECORDED: &str = include_str!("../digests.txt");

/// Grid seeds `--record` digests: `0..RECORDED_SEEDS`.
const RECORDED_SEEDS: u64 = 100;

const WORKLOADS: [&str; 4] = ["fit", "oversub", "reproduce", "resume"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>\n       \
         perfbench --record    (print digests.txt: output digests, grid seeds 0..{RECORDED_SEEDS})\n       \
         perfbench --fixture   (one cold sweep pass; print its digest)",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace value {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Every per-layer row but the per-runner ones, with its unit. Rows a
/// workload never reaches read 0.
const LAYERS: &[(&str, &str)] = &[
    ("traced_wall_s", "s"),
    ("trace_overhead_s", "s"),
    ("trace_decorator_s", "s"),
    ("other_s", "s"),
    ("failed_frac", "frac"),
    ("workloads.build_s", "s"),
    ("gpu-sim.run_kernel_s", "s"),
    ("gpu-sim.run_kernel_calls", "count"),
    ("gpu-sim.self_s", "s"),
    ("gpu-sim.ns_per_access", "ns"),
    ("gpu-sim.accesses", "count"),
    ("gpu-sim.kernels", "count"),
    ("gpu-sim.sim_ms", "ms"),
    ("core.prefetch_plan_s", "s"),
    ("core.prefetch_plan_calls", "count"),
    ("core.prefetch_useful_frac", "frac"),
    ("core.evict_select_s", "s"),
    ("core.evict_select_calls", "count"),
    ("core.evict_hook_s", "s"),
    ("core.evict_hook_calls", "count"),
    ("core.far_faults", "count"),
    ("core.pages_migrated", "count"),
    ("core.pages_evicted", "count"),
    ("core.thrash_frac", "frac"),
    ("core.clean_writebacks", "count"),
    ("interconnect.read_bytes", "B"),
    ("interconnect.write_bytes", "B"),
    ("interconnect.read_transfers", "count"),
    ("interconnect.read_4k_frac", "frac"),
    ("sim.runs_executed", "count"),
    ("sim.cache_hits", "count"),
    ("sim.prefixes_simulated", "count"),
    ("sim.spill_bytes", "B"),
    ("sim.checkpoint_bytes", "B"),
    ("sim.journal_replay_s", "s"),
    ("sim.checkpoint_write_s", "s"),
    ("sim.checkpoint_read_s", "s"),
];

/// Every per-layer row, the per-runner times included.
fn layer_rows() -> Vec<(String, &'static str)> {
    let fixed = LAYERS.iter().map(|&(name, unit)| (name.to_string(), unit));
    let runners = sweep::RUNNERS
        .iter()
        .map(|&(name, _)| (format!("sim.runner.{name}_s"), "s"));
    fixed.chain(runners).collect()
}

/// Everything one run measured.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(metric(name, value, unit));
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.push((name.to_string(), value));
    }

    /// The ledger, one metric per row of [`layer_rows`].
    fn layer_metrics(&self) -> Vec<Metric> {
        for (name, _) in &self.per_layer {
            assert!(
                layer_rows().iter().any(|(row, _)| row == name),
                "{name} is not a ledger row"
            );
        }
        layer_rows()
            .into_iter()
            .map(|(name, unit)| {
                let value = self
                    .per_layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                metric(&name, value, unit)
            })
            .collect()
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host cost of one pass: wall and CPU seconds, peak resident set.
#[derive(Clone, Copy)]
struct PassCost {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, PassCost) {
    reset_peak_rss();
    let cpu = cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let time = PassCost {
        wall_s,
        cpu_s: cpu_seconds() - cpu,
        peak_rss_mb: peak_rss_mb(),
    };
    (out, time)
}

/// Passes of one run: plain passes give the end-to-end figures,
/// traced ones (with `--trace 1`) the ledger.
#[derive(Default)]
struct Passes {
    plain: Vec<PassCost>,
    traced: Vec<PassCost>,
    /// Host ms per delivered simulation result, one sample per result.
    sim_ms: Vec<f64>,
    /// Simulated warp accesses per host second, one value per plain pass.
    accesses_per_s: Vec<f64>,
}

impl Passes {
    /// Whether the run should start another pass, and whether it
    /// should be traced: at least `min_plain` plain passes, then
    /// passes until `seconds` are spent; with tracing, plain and
    /// traced passes alternate (plain first) and end balanced.
    fn next(&self, start: Instant, seconds: f64, min_plain: usize, trace: bool) -> Option<bool> {
        let (p, t) = (self.plain.len(), self.traced.len());
        if trace && p > t {
            return Some(true);
        }
        if p < min_plain || start.elapsed().as_secs_f64() < seconds {
            return Some(false);
        }
        None
    }

    fn end_to_end(&self, report: &mut Report, setup_s: f64) {
        if self.plain.is_empty() {
            report.notes.push("no plain pass completed".into());
            return;
        }
        let walls: Vec<f64> = self.plain.iter().map(|p| p.wall_s).collect();
        let cpus: Vec<f64> = self.plain.iter().map(|p| p.cpu_s).collect();
        report.e2e("wall_s", median(&walls), "s");
        report.e2e("cpu_s", median(&cpus), "s");
        if !self.sim_ms.is_empty() {
            report.e2e("sim_p50_ms", median(&self.sim_ms), "ms");
        }
        match tail_quantile(&self.sim_ms, 0.9) {
            Some(p90) => report.e2e("sim_p90_ms", p90, "ms"),
            None => report.notes.push(format!(
                "sim_p90_ms not reported: {} samples, fewer than 10 beyond p90",
                self.sim_ms.len()
            )),
        }
        if !self.accesses_per_s.is_empty() {
            report.e2e("accesses_per_s", median(&self.accesses_per_s), "1/s");
        }
        // Later passes start from a heap earlier ones left fragmented;
        // the first shows what one pass needs in a fresh process.
        report.e2e("peak_rss_mb", self.plain[0].peak_rss_mb, "MiB");
        report.e2e("setup_s", setup_s, "s");
        let (lo, hi) = walls
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        report.notes.push(format!(
            "passes: {} plain (wall {lo:.4}..{hi:.4} s), {} traced; {} simulation samples",
            self.plain.len(),
            self.traced.len(),
            self.sim_ms.len()
        ));
    }

    /// Reports the mean traced-pass wall (the ledger's total) and the
    /// tracing overhead: the median traced pass, less the work
    /// `extra_s[i]` only traced pass `i` does, minus the median plain
    /// pass. Returns the former.
    fn overhead(&self, extra_s: &[f64], report: &mut Report) -> f64 {
        let walls = self.traced.iter().map(|p| p.wall_s);
        let traced_wall = walls.clone().sum::<f64>() / self.traced.len() as f64;
        let traced: Vec<f64> = walls.zip(extra_s).map(|(w, x)| w - x).collect();
        let plain: Vec<f64> = self.plain.iter().map(|p| p.wall_s).collect();
        report.layer("traced_wall_s", traced_wall);
        report.layer("trace_overhead_s", median(&traced) - median(&plain));
        traced_wall
    }
}

/// The set-up step every workload shares: build the paper-scale suite
/// and measure each footprint, in a freshly emptied work directory.
/// Timed `SETUP_REPS` times; returns the suite and the median.
fn setup(work: &Path) -> (Vec<Box<dyn Workload>>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut suite = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        reset_dir(work);
        suite = standard_suite();
        for w in &suite {
            std::hint::black_box(measure_footprint(w.as_ref()));
        }
        times.push(t.elapsed().as_secs_f64());
    }
    (suite, median(&times))
}

fn reset_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
}

/// The recorded digest of `workload` at `seed`, if one was recorded:
/// its line for that seed, or its `-` line when the workload's outputs
/// do not depend on the seed.
fn recorded_digest(workload: &str, seed: Option<u64>) -> Option<u64> {
    let seed = seed.map(|s| s.to_string());
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| {
            f.len() == 3 && f[0] == workload && (f[1] == "-" || Some(f[1]) == seed.as_deref())
        })
        .and_then(|f| u64::from_str_radix(f[2], 16).ok())
}

// ---------------------------------------------------------------------
// fit / oversub
// ---------------------------------------------------------------------

fn cells_for(workload: &str, suite_len: usize, seed: u64) -> Vec<Cell> {
    match workload {
        "fit" => grid::fit_cells(suite_len, seed),
        _ => grid::oversub_cells(suite_len, seed),
    }
}

/// Digest of a grid pass: every cell's outcome digest, in order.
fn grid_digest(outcomes: &[Option<Outcome>]) -> u64 {
    let mut h = stats::Fnv::default();
    for o in outcomes {
        h.u64(o.as_ref().map_or(0, Outcome::digest));
    }
    h.finish()
}

/// One plain grid pass through `run_workload`: per-cell host times
/// and outcomes (`None` for a failed cell).
fn grid_pass(
    suite: &[Box<dyn Workload>],
    cells: &[Cell],
    report: &mut Report,
) -> (Vec<Option<Outcome>>, Vec<f64>) {
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut ms = Vec::with_capacity(cells.len());
    for cell in cells {
        let w = suite[cell.workload].as_ref();
        let t = Instant::now();
        let result = grid::run_cell(w, &cell.opts);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcomes.push(match result {
            Ok(r) => Some(Outcome::from_result(&r)),
            Err(e) => {
                report.notes.push(format!("{} failed: {e}", w.name()));
                None
            }
        });
    }
    (outcomes, ms)
}

/// Counts a plain pass's failed cells: errors, disagreement with the
/// run's first pass, and — when the pass digest differs from the
/// recorded one — every cell of the pass.
fn check_grid_pass(
    outcomes: &[Option<Outcome>],
    reference: &[Option<Outcome>],
    recorded: Option<u64>,
    report: &mut Report,
) {
    report.attempted += outcomes.len() as u64;
    let digest = grid_digest(outcomes);
    if recorded.is_some_and(|d| d != digest) {
        report.fail(
            outcomes.len() as u64,
            format!("pass digest {digest:016x} differs from the recorded one"),
        );
        return;
    }
    for (i, (o, r)) in outcomes.iter().zip(reference).enumerate() {
        if o.is_none() || o != r {
            report.fail(1, format!("cell {i} disagrees with the first pass"));
        }
    }
}

/// One traced grid pass: its ledger and the outcomes that matched.
#[derive(Default)]
struct TracedPass {
    ledger: Ledger,
    outcomes: Vec<Outcome>,
}

/// One traced grid pass; every traced outcome must equal the plain
/// pass's (`reference`).
fn traced_grid_pass(
    suite: &[Box<dyn Workload>],
    cells: &[Cell],
    reference: &[Option<Outcome>],
    checkpoint_dir: Option<&Path>,
    report: &mut Report,
) -> TracedPass {
    let mut pass = TracedPass::default();
    traced::take_ledger();
    for (i, cell) in cells.iter().enumerate() {
        let w = suite[cell.workload].as_ref();
        let path = checkpoint_dir.map(|d| d.join(format!("{i}.uvmc")));
        let ckpt = path.as_deref().map(|p| (p, sweep::CHECKPOINT_EVERY));
        let outcome = catch_unwind(AssertUnwindSafe(|| traced::traced_run(w, &cell.opts, ckpt)))
            .unwrap_or_else(|p| Err(grid::panic_message(p)));
        report.attempted += 1;
        match outcome {
            Ok(o) if Some(&o) == reference[i].as_ref() => pass.outcomes.push(o),
            Ok(_) => report.fail(
                1,
                format!("cell {i}: traced result differs from run_workload"),
            ),
            Err(e) => report.fail(1, format!("cell {i}: traced run failed: {e}")),
        }
    }
    pass.ledger = traced::take_ledger();
    pass
}

fn grid_workload(args: &Args, work: &Path) -> Report {
    let mut report = Report::default();
    let (suite, setup_s) = setup(work);
    let cells = cells_for(&args.workload, suite.len(), args.seed);
    let recorded = recorded_digest(&args.workload, Some(args.seed));
    if recorded.is_none() {
        report.notes.push(format!(
            "no digest recorded for seed {}: passes are checked against each other",
            args.seed
        ));
    }
    // Enough plain passes for ten simulation samples beyond p90.
    let min_plain = 100usize.div_ceil(cells.len());
    let checkpoint_dir = (args.workload == "oversub").then(|| work.join("ckpt"));
    let cost = if args.trace {
        let cost = traced::calibrate();
        report.notes.push(format!(
            "decorator cost per timed call: {:.1} ns, {:.1} ns of it inside the timed interval",
            cost.total_ns, cost.inside_ns
        ));
        cost
    } else {
        traced::DecoratorCost::default()
    };

    let mut passes = Passes::default();
    let mut reference: Option<Vec<Option<Outcome>>> = None;
    let mut traced_passes: Vec<TracedPass> = Vec::new();
    let start = Instant::now();
    while let Some(traced) = passes.next(start, args.seconds, min_plain, args.trace) {
        if traced {
            let reference = reference.as_deref().expect("a plain pass ran first");
            let (pass, time) = timed(|| {
                traced_grid_pass(
                    &suite,
                    &cells,
                    reference,
                    checkpoint_dir.as_deref(),
                    &mut report,
                )
            });
            passes.traced.push(time);
            traced_passes.push(pass);
            continue;
        }
        let ((outcomes, ms), time) = timed(|| grid_pass(&suite, &cells, &mut report));
        let reference = reference.get_or_insert_with(|| outcomes.clone());
        check_grid_pass(&outcomes, reference, recorded, &mut report);
        let accesses: u64 = outcomes.iter().flatten().map(|o| o.accesses).sum();
        passes.plain.push(time);
        passes.sim_ms.extend(ms);
        passes.accesses_per_s.push(accesses as f64 / time.wall_s);
    }
    if recorded.is_none() {
        report.notes.push(format!(
            "pass digest {:016x}",
            grid_digest(reference.as_deref().unwrap_or(&[]))
        ));
    }
    passes.end_to_end(&mut report, setup_s);
    if args.trace {
        grid_ledger(&passes, &traced_passes, cost, &mut report);
    }
    report
}

/// The per-layer ledger of a grid workload: means over traced passes.
///
/// Each decorated policy call costs `cost.inside_ns` inside its timed
/// interval and `cost.total_ns` in all. That cost is taken out of the
/// policy rows and the engine's self time and reported as
/// `trace_decorator_s`, so the rows come closer to the proportions of
/// an untraced run. The cost is taken on a warm, empty call and errs
/// low; what it misses stays in the rows.
fn grid_ledger(
    passes: &Passes,
    traced: &[TracedPass],
    cost: traced::DecoratorCost,
    report: &mut Report,
) {
    let n = traced.len() as f64;
    let ledger =
        |f: &dyn Fn(&Ledger) -> u64| traced.iter().map(|t| f(&t.ledger)).sum::<u64>() as f64 / n;
    let secs = |f: &dyn Fn(&Ledger) -> u64| ledger(f) * 1e-9;
    // Simulated totals per pass.
    let mean = |f: &dyn Fn(&Outcome) -> u64| {
        traced.iter().flat_map(|t| &t.outcomes).map(f).sum::<u64>() as f64 / n
    };
    let checkpoints: Vec<f64> = traced
        .iter()
        .map(|t| t.ledger.checkpoint_ns() as f64 * 1e-9)
        .collect();
    let wall = passes.overhead(&checkpoints, report);
    // A policy row without the clock reads its own timed interval holds.
    let policy = |ns: &dyn Fn(&Ledger) -> u64, calls: &dyn Fn(&Ledger) -> u64| {
        secs(ns) - ledger(calls) * cost.inside_ns * 1e-9
    };
    let build = secs(&|l| l.build_ns);
    let run_kernel = secs(&|l| l.run_kernel_ns);
    let prefetch = policy(&|l| l.prefetch_ns, &|l| l.prefetch_calls);
    let select = policy(&|l| l.select_ns, &|l| l.select_calls);
    let hook = policy(&|l| l.hook_ns, &|l| l.hook_calls);
    let decorators = ledger(&Ledger::timed_calls) * cost.total_ns * 1e-9;
    let ckpt_write = secs(&|l| l.ckpt_write_ns);
    let ckpt_read = secs(&|l| l.ckpt_read_ns);
    let engine_self = run_kernel - prefetch - select - hook - decorators;
    let accesses = mean(&|o| o.accesses);
    let migrated = mean(&|o| o.pages_migrated);

    report.layer("workloads.build_s", build);
    report.layer("gpu-sim.run_kernel_s", run_kernel);
    report.layer("gpu-sim.run_kernel_calls", ledger(&|l| l.run_kernel_calls));
    report.layer("gpu-sim.self_s", engine_self);
    report.layer("gpu-sim.ns_per_access", ratio(engine_self * 1e9, accesses));
    report.layer("gpu-sim.accesses", accesses);
    report.layer("gpu-sim.kernels", mean(&|o| o.kernel_times.len() as u64));
    report.layer(
        "gpu-sim.sim_ms",
        Duration::from_cycles(mean(&Outcome::total_cycles) as u64).as_secs() * 1e3,
    );
    report.layer("core.prefetch_plan_s", prefetch);
    report.layer("core.prefetch_plan_calls", ledger(&|l| l.prefetch_calls));
    report.layer(
        "core.prefetch_useful_frac",
        ratio(mean(&|o| o.prefetched_used), mean(&|o| o.pages_prefetched)),
    );
    report.layer("core.evict_select_s", select);
    report.layer("core.evict_select_calls", ledger(&|l| l.select_calls));
    report.layer("core.evict_hook_s", hook);
    report.layer("core.evict_hook_calls", ledger(&|l| l.hook_calls));
    report.layer("core.far_faults", mean(&|o| o.far_faults));
    report.layer("core.pages_migrated", migrated);
    report.layer("core.pages_evicted", mean(&|o| o.pages_evicted));
    report.layer(
        "core.thrash_frac",
        ratio(mean(&|o| o.pages_thrashed), migrated),
    );
    report.layer("core.clean_writebacks", mean(&|o| o.clean_writebacks));
    report.layer("interconnect.read_bytes", mean(&|o| o.read_bytes));
    report.layer("interconnect.write_bytes", mean(&|o| o.write_bytes));
    report.layer("interconnect.read_transfers", mean(&|o| o.read_transfers));
    report.layer(
        "interconnect.read_4k_frac",
        ratio(mean(&|o| o.read_transfers_4k), mean(&|o| o.read_transfers)),
    );
    report.layer("sim.checkpoint_write_s", ckpt_write);
    report.layer("sim.checkpoint_read_s", ckpt_read);
    report.layer("sim.checkpoint_bytes", ledger(&|l| l.ckpt_bytes));
    report.layer("trace_decorator_s", decorators);
    let layers =
        build + engine_self + prefetch + select + hook + decorators + ckpt_write + ckpt_read;
    report.layer("other_s", wall - layers);
}

// ---------------------------------------------------------------------
// reproduce / resume
// ---------------------------------------------------------------------

/// The sweep's files under `work`, with the simulator's checkpoint
/// switches pointed at them. Call before any worker thread exists.
fn sweep_dirs(work: &Path) -> SweepDirs {
    let dirs = SweepDirs::under(&work.join("sweep"));
    dirs.install();
    dirs
}

/// Runs one cold sweep pass in a child process (`--fixture`) and
/// returns the digest it printed.
fn cold_fixture() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg("--fixture")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    u64::from_str_radix(text.trim(), 16).map_err(|_| format!("bad child output {text:?}"))
}

/// Runs one sweep pass, turning a panic (a failed run aborts its
/// runner) into `None`.
fn guarded_sweep_pass(dirs: &SweepDirs, jobs: usize, replay: bool) -> Option<SweepPass> {
    catch_unwind(AssertUnwindSafe(|| sweep::sweep_pass(dirs, jobs, replay))).ok()
}

fn sweep_workload(args: &Args, work: &Path) -> Report {
    let mut report = Report::default();
    let (_, setup_s) = setup(work);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dirs = sweep_dirs(work);
    let recorded = recorded_digest("reproduce", None);
    let resume = args.workload == "resume";

    // `resume` reads the files one cold pass leaves behind. That pass
    // runs in a child process, so this one starts with the fresh heap
    // of a session that resumes after another has ended.
    let mut fixture_journal = Vec::new();
    let mut expected = recorded;
    let mut accesses = 0;
    if resume {
        match cold_fixture() {
            Ok(digest) => {
                if recorded.is_some_and(|d| d != digest) {
                    report.fail(
                        1,
                        format!("cold pass digest {digest:016x} is not the recorded one"),
                    );
                }
                expected = recorded.or(Some(digest));
                fixture_journal = fs::read(&dirs.journal).unwrap_or_default();
                accesses = dirs.spilled_accesses();
            }
            Err(e) => report.fail(1, format!("the cold pass failed: {e}")),
        }
    }

    // A cold pass takes seconds and the host's speed drifts over tens
    // of seconds: the median needs several passes to be steady.
    let min_plain = if resume { 1 } else { 4 };
    let mut passes = Passes::default();
    let mut traced_passes: Vec<SweepPass> = Vec::new();
    let start = Instant::now();
    while let Some(traced) = passes.next(start, args.seconds, min_plain, args.trace) {
        if resume {
            fs::write(&dirs.journal, &fixture_journal).expect("restoring the sweep journal");
        } else {
            reset_dir(&work.join("sweep"));
        }
        let (pass, time) = timed(|| guarded_sweep_pass(&dirs, jobs, resume));
        let Some(pass) = pass else {
            report.attempted += 1;
            report.fail(1, "a sweep pass panicked".into());
            break;
        };
        let delivered = (pass.runs_executed + pass.cache_hits) as u64;
        report.attempted += delivered;
        if pass.failures > 0 {
            report.fail(
                pass.failures as u64,
                format!("{} runs failed", pass.failures),
            );
        }
        match expected {
            Some(d) if d != pass.digest => report.fail(
                delivered,
                format!("pass digest {:016x} differs from {d:016x}", pass.digest),
            ),
            Some(_) => {}
            None => expected = Some(pass.digest),
        }
        if traced {
            passes.traced.push(time);
            traced_passes.push(pass);
            continue;
        }
        if accesses == 0 {
            accesses = dirs.spilled_accesses();
        }
        for step in pass.steps.iter().filter(|s| s.delivered > 0) {
            let per_result = step.secs * 1e3 / step.delivered as f64;
            passes
                .sim_ms
                .extend(std::iter::repeat_n(per_result, step.delivered));
        }
        passes.plain.push(time);
        passes.accesses_per_s.push(accesses as f64 / time.wall_s);
    }
    if recorded.is_none() {
        report
            .notes
            .push(format!("pass digest {:016x}", expected.unwrap_or(0)));
    }
    passes.end_to_end(&mut report, setup_s);
    if args.trace && !traced_passes.is_empty() {
        sweep_ledger(&passes, &traced_passes, &dirs, &mut report);
    }
    report
}

/// The per-layer ledger of a sweep workload: runner times and executor
/// counters, means over traced passes. The engine and policy rows run
/// inside the executor's workers, out of reach from outside.
fn sweep_ledger(passes: &Passes, traced: &[SweepPass], dirs: &SweepDirs, report: &mut Report) {
    let n = traced.len() as f64;
    let mean = |f: &dyn Fn(&SweepPass) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let wall = passes.overhead(&vec![0.0; traced.len()], report);
    let mut layers = 0.0;
    for (i, &(name, _)) in sweep::RUNNERS.iter().enumerate() {
        let s = mean(&|p| p.steps[i].secs);
        layers += s;
        report.layer(&format!("sim.runner.{name}_s"), s);
    }
    let replay = mean(&|p| p.journal_replay_s);
    layers += replay;
    report.layer("sim.runs_executed", mean(&|p| p.runs_executed as f64));
    report.layer("sim.cache_hits", mean(&|p| p.cache_hits as f64));
    report.layer("sim.prefixes_simulated", mean(&|p| p.prefixes as f64));
    let (spill, ckpt) = dirs.sizes();
    report.layer("sim.spill_bytes", spill as f64);
    report.layer("sim.checkpoint_bytes", ckpt as f64);
    report.layer("sim.journal_replay_s", replay);
    report.layer("other_s", wall - layers);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// The checkout's commit, when the run starts at the root of a git
/// work tree (never a repository further up).
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# env nproc={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        commit()
    );
    for note in &report.notes {
        println!("# note: {note}");
    }
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    println!(
        "# attempted={} failed={} failed_frac={failed_frac}",
        report.attempted, report.failed
    );
    let layers = report.layer_metrics();
    for (kind, metrics) in [("e2e", &report.end_to_end), ("layer", &layers)] {
        for m in metrics.iter() {
            println!("# {kind} {:<42} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

fn main() -> ExitCode {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(flag @ ("--record" | "--fixture")) if argv.len() > 1 => {
            return usage_error(&format!("{flag} takes no argument"));
        }
        Some("--record") => {
            record();
            return ExitCode::SUCCESS;
        }
        Some("--fixture") => {
            println!("{:016x}", cold_sweep_digest(Path::new(WORK_DIR)));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let work = PathBuf::from(WORK_DIR);
    let mut report = match args.workload.as_str() {
        "fit" | "oversub" => grid_workload(&args, &work),
        _ => sweep_workload(&args, &work),
    };
    let _ = fs::remove_dir_all(&work);
    if report.attempted == 0 {
        eprintln!("error: nothing was attempted");
        return ExitCode::FAILURE;
    }
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    report.layer("failed_frac", failed_frac);
    print_report(&args, &report);
    let metrics = if args.trace {
        json_metrics(&report.layer_metrics())
    } else {
        json_metrics(&report.end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
    );
    ExitCode::SUCCESS
}

/// Prints the digest table `digests.txt` holds: one plain pass of each
/// grid for seeds `0..RECORDED_SEEDS`, and one cold sweep pass. A grid
/// whose digest is the same at every seed gets one `-` line.
fn record() {
    let work = PathBuf::from(WORK_DIR);
    reset_dir(&work);
    let suite = standard_suite();
    println!("# workload seed digest (FNV-1a 64 of the simulated outputs)");
    for workload in ["fit", "oversub"] {
        let digests: Vec<u64> = (0..RECORDED_SEEDS)
            .map(|seed| {
                let cells = cells_for(workload, suite.len(), seed);
                let mut report = Report::default();
                let (outcomes, _) = grid_pass(&suite, &cells, &mut report);
                assert!(
                    outcomes.iter().all(Option::is_some),
                    "{workload} seed {seed} failed: {:?}",
                    report.notes
                );
                grid_digest(&outcomes)
            })
            .collect();
        if digests.iter().all(|&d| d == digests[0]) {
            println!("{workload} - {:016x}", digests[0]);
            continue;
        }
        for (seed, d) in digests.iter().enumerate() {
            println!("{workload} {seed} {d:016x}");
        }
    }
    println!("reproduce - {:016x}", cold_sweep_digest(&work));
    let _ = fs::remove_dir_all(&work);
}

/// One cold sweep pass over the sweep dirs under `work`; its digest.
fn cold_sweep_digest(work: &Path) -> u64 {
    let dirs = sweep_dirs(work);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pass = sweep::sweep_pass(&dirs, jobs, false);
    assert_eq!(pass.failures, 0, "the cold sweep pass failed");
    pass.digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::RunOptions;
    use uvm_workloads::LinearSweep;

    fn small_pass() -> Vec<Option<Outcome>> {
        let w = LinearSweep {
            pages: 64,
            repeats: 2,
            thread_blocks: 4,
        };
        [
            RunOptions::default(),
            RunOptions::default().with_memory_frac(1.5),
        ]
        .iter()
        .map(|opts| Some(Outcome::from_result(&grid::run_cell(&w, opts).unwrap())))
        .collect()
    }

    #[test]
    fn a_perturbed_result_is_flagged() {
        let reference = small_pass();
        let mut report = Report::default();
        check_grid_pass(
            &small_pass(),
            &reference,
            Some(grid_digest(&reference)),
            &mut report,
        );
        assert_eq!((report.attempted, report.failed), (2, 0));

        let mut perturbed = reference.clone();
        perturbed[1].as_mut().unwrap().pages_evicted += 1;
        let mut report = Report::default();
        check_grid_pass(&perturbed, &reference, None, &mut report);
        assert_eq!((report.attempted, report.failed), (2, 1));

        // Against a recorded digest the whole pass fails.
        let mut report = Report::default();
        check_grid_pass(
            &perturbed,
            &perturbed,
            Some(grid_digest(&reference)),
            &mut report,
        );
        assert_eq!(report.failed, 2);

        let mut lost = reference.clone();
        lost[0] = None;
        let mut report = Report::default();
        check_grid_pass(&lost, &reference, None, &mut report);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn every_timed_kernel_shows_in_the_digest() {
        let reference = small_pass();
        let mut slower = reference.clone();
        slower[0].as_mut().unwrap().kernel_times[1] += 1;
        assert_ne!(grid_digest(&slower), grid_digest(&reference));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload oversub --seed 3 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("oversub", 3, 2.5, true)
        );
        for bad in [
            "--workload nope",
            "--workload fit --trace 2",
            "--workload fit --seconds 0",
            "--workload fit --seed",
            "--workload fit --frobnicate 1",
            "",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    /// The metrics this program prints are the ones `BENCHMARK.json`
    /// lists, under the same names and units.
    #[test]
    fn ledger_rows_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = spec.split(&format!("\"{section}\"")).nth(1).unwrap();
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).unwrap();
                        rest[..rest.find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let rows: Vec<(String, String)> = layer_rows()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        let mut want = listed("per_layer");
        let mut got = rows.clone();
        want.sort();
        got.sort();
        assert_eq!(got, want);

        let mut passes = Passes::default();
        let time = PassCost {
            wall_s: 1.0,
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
        };
        passes.plain = vec![time; 2];
        passes.sim_ms = vec![1.0; 100];
        passes.accesses_per_s = vec![1.0; 2];
        let mut report = Report::default();
        passes.end_to_end(&mut report, 1.0);
        let mut got: Vec<(String, String)> = report
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        let mut want = listed("end_to_end");
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn recorded_digests_parse() {
        assert!(recorded_digest("reproduce", None).is_some());
        assert!(recorded_digest("fit", Some(RECORDED_SEEDS - 1)).is_some());
        assert!(recorded_digest("fit", Some(RECORDED_SEEDS)).is_none());
        // No oversub policy draws from the RNG: one digest for every seed.
        assert!(recorded_digest("oversub", Some(u64::MAX)).is_some());
        assert_eq!(
            recorded_digest("oversub", Some(0)),
            recorded_digest("oversub", Some(u64::MAX))
        );
    }
}
