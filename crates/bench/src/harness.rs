//! Minimal benchmark harness for the `benches/` targets.
//!
//! The workspace builds fully offline, so there is no criterion; this
//! harness covers what the bench targets need: warmup, auto-calibrated
//! batch sizes, three timed samples reported as best ns/iter plus their
//! min/median/max spread, and substring filtering
//! (`cargo bench -- <filter>`). Unlike criterion's
//! `iter_batched`, per-iteration setup is timed along with the body —
//! the bench closures here keep setup either hoisted or cheap.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Target wall-clock time per timed batch.
const BATCH_TARGET: Duration = Duration::from_millis(100);
/// Functions slower than this are timed one call at a time.
const HEAVY: Duration = Duration::from_millis(200);
const SAMPLES: u32 = 3;

/// One report row: a case's best ns/iter (or a recorded value) and,
/// for timed cases, the spread of its samples.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    name: String,
    ns_per_iter: f64,
    /// `[min, median, max]` ns/iter over the timed samples. `None` for
    /// [`Bench::record`] values and for rows of reports written before
    /// the harness kept its samples.
    spread: Option<[f64; 3]>,
}

/// A benchmark runner: construct once per bench target, call
/// [`bench`](Self::bench) per case.
pub struct Bench {
    filter: Option<String>,
    /// Every row measured so far, for JSON export.
    results: RefCell<Vec<Row>>,
}

impl Bench {
    /// Reads the name filter from the command line. Flags (anything
    /// starting with `-`, e.g. the `--bench` cargo passes) are
    /// ignored; the first bare argument filters cases by substring.
    pub fn from_args() -> Self {
        Bench {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
            results: RefCell::new(Vec::new()),
        }
    }

    /// Times `f`, printing `<name>  <ns>/iter` and the min/median/max
    /// of the samples. Returns the best per-iteration time in
    /// nanoseconds (`None` if filtered out).
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) -> Option<f64> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }

        let t0 = Instant::now();
        f();
        let first = t0.elapsed();

        let mut samples: Vec<f64> = if first >= HEAVY {
            // Heavy case: single calls, warmup call included.
            let mut samples = vec![first.as_nanos() as f64];
            for _ in 0..SAMPLES - 1 {
                let t = Instant::now();
                f();
                samples.push(t.elapsed().as_nanos() as f64);
            }
            samples
        } else {
            // Refine the per-iteration estimate, then time batches.
            let mut iters = 1u64;
            let warm = Instant::now();
            while warm.elapsed() < Duration::from_millis(20) {
                f();
                iters += 1;
            }
            let per = (first + warm.elapsed()).as_nanos() as f64 / iters as f64;
            let n = ((BATCH_TARGET.as_nanos() as f64 / per.max(1.0)) as u64).clamp(1, 10_000_000);
            (0..SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..n {
                        f();
                    }
                    t.elapsed().as_nanos() as f64 / n as f64
                })
                .collect()
        };
        samples.sort_by(f64::total_cmp);
        let spread = [
            samples[0],
            samples[samples.len() / 2],
            samples[samples.len() - 1],
        ];
        let ns = spread[0];

        let [min, median, max] = spread.map(|v| group_digits(v.round() as u64));
        println!(
            "{name:<48} {:>15} ns/iter  (min {min}, median {median}, max {max})",
            group_digits(ns.round() as u64)
        );
        self.results.borrow_mut().push(Row {
            name: name.to_string(),
            ns_per_iter: ns,
            spread: Some(spread),
        });
        Some(ns)
    }

    /// Records a pre-computed value under `name`, printed and exported
    /// like a measured case. Bench targets use this for derived
    /// metrics — e.g. the sweep bench's cold/forked speedup ratio —
    /// so the JSON artifact carries them alongside raw timings.
    pub fn record(&self, name: &str, value: f64) {
        println!("{name:<48} {value:>15.2}");
        self.results.borrow_mut().push(Row {
            name: name.to_string(),
            ns_per_iter: value,
            spread: None,
        });
    }

    /// Writes every result measured so far as a JSON report (the CI
    /// `perf-smoke` trend artifact). If the `UVM_BENCH_JSON` environment
    /// variable is set, [`write_json_from_env`](Self::write_json_from_env)
    /// routes the report there.
    ///
    /// If `path` already holds a report, the new results are *merged*
    /// into it: entries re-measured this run are updated in place,
    /// entries from earlier runs (including other suites) are kept, and
    /// the `suite` field accumulates every contributing suite joined
    /// with `+`. This is how several bench targets fold into one
    /// artifact — e.g. `microbench`'s allocator cases ride along in
    /// `BENCH_engine.json` next to `engine_hotpath`'s without either
    /// target rewriting the other's numbers.
    pub fn write_json(&self, suite: &str, path: &Path) -> std::io::Result<()> {
        let mut suites: Vec<String> = Vec::new();
        let mut merged: Vec<Row> = Vec::new();
        if let Ok(existing) = std::fs::read_to_string(path) {
            if let Some((old_suites, entries)) = parse_report(&existing) {
                suites = old_suites;
                merged = entries;
            }
        }
        for s in suite.split('+') {
            if !suites.iter().any(|x| x == s) {
                suites.push(s.to_string());
            }
        }
        for row in self.results.borrow().iter() {
            match merged.iter_mut().find(|r| r.name == row.name) {
                Some(slot) => *slot = row.clone(),
                None => merged.push(row.clone()),
            }
        }

        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{{")?;
        writeln!(f, "  \"suite\": \"{}\",", suites.join("+"))?;
        writeln!(f, "  \"results\": [")?;
        for (i, row) in merged.iter().enumerate() {
            let comma = if i + 1 < merged.len() { "," } else { "" };
            let spread = row.spread.map_or(String::new(), |[min, median, max]| {
                format!(", \"min\": {min:.1}, \"median\": {median:.1}, \"max\": {max:.1}")
            });
            writeln!(
                f,
                "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}{spread}}}{comma}",
                row.name, row.ns_per_iter
            )?;
        }
        writeln!(f, "  ]")?;
        writeln!(f, "}}")
    }

    /// Writes the JSON report to `$UVM_BENCH_JSON` when that variable
    /// is set; a silent no-op otherwise (plain `cargo bench` runs).
    pub fn write_json_from_env(&self, suite: &str) -> std::io::Result<()> {
        match std::env::var_os("UVM_BENCH_JSON") {
            Some(path) => self.write_json(suite, Path::new(&path)),
            None => Ok(()),
        }
    }
}

/// Suite names (`+`-separated in the file) plus the rows of an
/// existing report.
type ParsedReport = (Vec<String>, Vec<Row>);

/// Parses a report this harness previously wrote, with or without the
/// min/median/max fields. Returns `None` for anything that is not a
/// harness report (the caller then starts fresh rather than merging).
fn parse_report(text: &str) -> Option<ParsedReport> {
    let suite = text.split("\"suite\": \"").nth(1)?.split('"').next()?;
    let suites = suite.split('+').map(str::to_string).collect();
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let (name, rest) = rest.split_once('"')?;
        let field = |key: &str| -> Option<f64> {
            let value = rest.split(&format!("\"{key}\":")).nth(1)?;
            value.split([',', '}']).next()?.trim().parse().ok()
        };
        let spread = match (field("min"), field("median"), field("max")) {
            (Some(min), Some(median), Some(max)) => Some([min, median, max]),
            _ => None,
        };
        rows.push(Row {
            name: name.to_string(),
            ns_per_iter: field("ns_per_iter")?,
            spread,
        });
    }
    Some((suites, rows))
}

fn group_digits(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_are_grouped() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(1234567), "1,234,567");
    }

    fn bench_with_filter(filter: Option<String>) -> Bench {
        Bench {
            filter,
            results: RefCell::new(Vec::new()),
        }
    }

    #[test]
    fn bench_runs_and_reports() {
        let b = bench_with_filter(None);
        let mut count = 0u64;
        let ns = b.bench("harness_selftest", || count += 1);
        assert!(ns.is_some_and(|ns| ns >= 0.0));
        assert!(count > 0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let b = bench_with_filter(Some("nomatch".into()));
        let mut ran = false;
        assert!(b.bench("something_else", || ran = true).is_none());
        assert!(!ran);
    }

    #[test]
    fn json_reports_merge_across_suites() {
        let path =
            std::env::temp_dir().join(format!("uvm_bench_merge_{}.json", std::process::id()));
        // A report in the format written before rows carried their
        // spread: its rows must be read, kept and merged like any other.
        std::fs::write(
            &path,
            "{\n  \"suite\": \"old_suite\",\n  \"results\": [\n    \
             {\"name\": \"only_old\", \"ns_per_iter\": 3.0},\n    \
             {\"name\": \"timed_case\", \"ns_per_iter\": 4.0}\n  ]\n}\n",
        )
        .expect("write old-format report");

        let a = bench_with_filter(None);
        a.record("shared_case", 10.0);
        a.record("only_a", 1.0);
        a.bench("timed_case", || {
            std::hint::black_box(1 + 1);
        });
        a.write_json("suite_a", &path).expect("merge first report");

        let b = bench_with_filter(None);
        b.record("shared_case", 20.0);
        b.record("only_b", 2.0);
        b.write_json("suite_b", &path).expect("merge second report");

        let report = std::fs::read_to_string(&path).expect("read report");
        let _ = std::fs::remove_file(&path);
        assert!(report.contains("\"suite\": \"old_suite+suite_a+suite_b\""));
        // Kept, updated in place, and appended respectively.
        assert!(report.contains("\"name\": \"only_old\", \"ns_per_iter\": 3.0}"));
        assert!(report.contains("\"name\": \"only_a\", \"ns_per_iter\": 1.0}"));
        assert!(report.contains("\"name\": \"shared_case\", \"ns_per_iter\": 20.0"));
        assert!(report.contains("\"name\": \"only_b\", \"ns_per_iter\": 2.0"));
        // The shared case was not duplicated.
        assert_eq!(report.matches("shared_case").count(), 1);
        let (suites, rows) = parse_report(&report).expect("round-trips");
        assert_eq!(suites, vec!["old_suite", "suite_a", "suite_b"]);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["only_old", "timed_case", "shared_case", "only_a", "only_b"]
        );
        // The re-measured old row now carries its spread; recorded and
        // untouched old rows carry none.
        let spread_of = |name: &str| rows.iter().find(|r| r.name == name).unwrap().spread;
        assert!(spread_of("timed_case").is_some());
        assert_eq!(spread_of("only_old"), None);
        assert_eq!(spread_of("shared_case"), None);
    }

    #[test]
    fn json_report_round_trips() {
        let b = bench_with_filter(None);
        b.bench("case_a", || {
            std::hint::black_box(1 + 1);
        });
        let path = std::env::temp_dir().join("uvm_bench_selftest.json");
        b.write_json("selftest", &path).expect("write report");
        let report = std::fs::read_to_string(&path).expect("read report");
        let _ = std::fs::remove_file(&path);
        assert!(report.contains("\"suite\": \"selftest\""));
        assert!(report.contains("\"name\": \"case_a\""));
        assert!(report.contains("ns_per_iter"));
        for key in ["\"min\":", "\"median\":", "\"max\":"] {
            assert!(report.contains(key), "{key} missing from {report}");
        }
        // What was written parses back to the measured rows (to the
        // one decimal the report keeps), and the best sample is both
        // `ns_per_iter` and `min`.
        let (suites, rows) = parse_report(&report).expect("parses back");
        assert_eq!(suites, vec!["selftest"]);
        let measured = &b.results.borrow()[0];
        let [min, median, max] = rows[0].spread.expect("timed rows carry a spread");
        assert_eq!(rows[0].name, measured.name);
        assert_eq!(min, rows[0].ns_per_iter);
        assert!(min <= median && median <= max);
        let written = measured.spread.unwrap().map(|v| format!("{v:.1}"));
        assert_eq!([min, median, max].map(|v| format!("{v:.1}")), written);
    }
}
