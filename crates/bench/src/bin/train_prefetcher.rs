//! Offline trainer for the `learned` prefetcher: turns an exported
//! `UVMT` trace into a `UVML` prediction table (DESIGN.md §10).
//!
//! ```sh
//! cargo run --release -p uvm-bench --bin ablation_history_prefetch -- \
//!     --smoke --trace-out results/traces
//! cargo run --release -p uvm-bench --bin train_prefetcher -- \
//!     results/traces/nw.uvmt --out results/trained/nw.tbl --depth 2
//! cargo run --release -p uvm-bench --bin ablation_policy_pair -- \
//!     --prefetch learned:table=results/trained/nw.tbl --evict SLe
//! ```
//!
//! Training keys on the trace's far-fault records only: the table maps
//! a window of the last `--depth` fault-page deltas to the most
//! frequent next deltas (up to `--degree` of them), ranked by count.

use std::path::PathBuf;
use std::process::exit;

use uvm_core::trace::decode_trace;
use uvm_core::train_table;

const USAGE: &str = "usage: train_prefetcher TRACE.uvmt --out TABLE.tbl \
                     [--depth N] [--degree N]\n\
                     Trains a `learned` prefetcher table (UVML) from an \
                     exported UVMT trace;\nevaluate it with \
                     --prefetch learned:table=TABLE.tbl";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

/// Accepts `--flag VALUE` and `--flag=VALUE`; advances `i` past the
/// consumed value.
fn take(args: &[String], i: &mut usize, flag: &str) -> Option<String> {
    if let Some(v) = args[*i].strip_prefix(&format!("{flag}=")) {
        return Some(v.to_string());
    }
    if args[*i] == flag {
        *i += 1;
        return Some(args.get(*i).cloned().unwrap_or_else(|| usage()));
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut depth = 2usize;
    let mut degree = 16usize;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = take(&args, &mut i, "--out") {
            out = Some(PathBuf::from(v));
        } else if let Some(v) = take(&args, &mut i, "--depth") {
            depth = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = take(&args, &mut i, "--degree") {
            degree = v.parse().unwrap_or_else(|_| usage());
        } else if args[i] == "--help" {
            println!("{USAGE}");
            exit(0);
        } else if args[i].starts_with('-') || trace.is_some() {
            usage();
        } else {
            trace = Some(PathBuf::from(&args[i]));
        }
        i += 1;
    }
    let (Some(trace), Some(out)) = (trace, out) else {
        usage();
    };
    if depth == 0 || degree == 0 {
        usage();
    }

    let bytes = std::fs::read(&trace).unwrap_or_else(|e| {
        eprintln!("error: reading {}: {e}", trace.display());
        exit(1);
    });
    let (meta, records) = decode_trace(&bytes).unwrap_or_else(|e| {
        eprintln!("error: decoding {}: {e}", trace.display());
        exit(1);
    });
    let table = train_table(&records, depth, degree);
    table.save(&out).unwrap_or_else(|e| {
        eprintln!("error: writing {}: {e}", out.display());
        exit(1);
    });
    println!(
        "trained {} from {} ({} records; workload {}, {} + {}, seed {}): \
         {} contexts at depth {depth}, degree {degree}",
        out.display(),
        trace.display(),
        records.len(),
        meta.workload,
        meta.prefetch,
        meta.evict,
        meta.seed,
        table.len(),
    );
    println!("evaluate with: --prefetch learned:table={}", out.display());
}
