//! The harness behind every `BENCH_*.json` file: timing, allocation
//! counting, the shared report schema and the `--check` regression gate.
//!
//! Every file has one header — `schema_version`, `bench`,
//! `available_parallelism`, `iters` and an optional `params` object for
//! the bench's fixed inputs — and one row shape, `{op, threads, mean_ms,
//! …}`. `mean_ms` is wall time per completed operation; any further
//! field of a row is a measured number (`allocs_per_op`, `p50_ms`, …).
//!
//! A bench run without arguments rewrites its committed file at the
//! repository root. `--check` leaves that file alone: it writes the fresh
//! report under `target/bench/` and fails unless every gated row is
//! present and finite on both sides and its fresh `mean_ms` is at most
//! [`CHECK_FACTOR`] × the committed one, and unless both sides hold the
//! same set of `(op, threads)` rows, so a row the bench stops producing
//! cannot linger in the committed file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use deco_telemetry::json::Json;

/// Version of the shared report schema.
const SCHEMA_VERSION: u64 = 3;

/// A gated row fails `--check` when its fresh `mean_ms` exceeds this
/// multiple of the committed value: generous enough for shared CI
/// runners, tight enough for order-of-magnitude regressions.
pub const CHECK_FACTOR: f64 = 2.5;

/// A gated row: an op at a pool width.
pub type Gate = (&'static str, usize);

/// `mean_ms` per `(op, threads)`: all the gate reads of a report.
type Means = BTreeMap<(String, usize), f64>;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with an allocation counter, read by [`time_op`].
/// A bench that reports `allocs_per_op` installs it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

// SAFETY: every call delegates to `System` with the caller's arguments;
// the only addition is a relaxed atomic increment, which neither
// allocates nor touches the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One measured row.
#[derive(Debug)]
pub struct Row {
    /// Op name, unique per `threads` within a report.
    pub op: String,
    /// Pool width the op ran under.
    pub threads: usize,
    /// Wall time per completed operation, in milliseconds.
    pub mean_ms: f64,
    /// Further measured fields, in write order.
    pub fields: Vec<(String, f64)>,
}

impl Row {
    /// A row with no further fields.
    pub fn new(op: impl Into<String>, threads: usize, mean_ms: f64) -> Row {
        Row {
            op: op.into(),
            threads,
            mean_ms,
            fields: Vec::new(),
        }
    }

    /// Appends a measured field.
    pub fn with(mut self, name: &str, value: f64) -> Row {
        self.fields.push((name.to_string(), value));
        self
    }
}

/// One bench's report.
#[derive(Debug)]
pub struct Report {
    /// Bench name.
    pub bench: String,
    /// `std::thread::available_parallelism` of the measuring host.
    pub available_parallelism: usize,
    /// The bench's iteration count (`DECO_BENCH_ITERS` or its default).
    pub iters: usize,
    /// The bench's fixed inputs.
    pub params: Vec<(String, f64)>,
    /// Measured rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// An empty report for this host.
    pub fn new(bench: &str, iters: usize) -> Report {
        Report {
            bench: bench.to_string(),
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            iters,
            params: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Records a fixed input.
    pub fn param(mut self, name: &str, value: f64) -> Report {
        self.params.push((name.to_string(), value));
        self
    }

    /// The gate's view of this report.
    fn means(&self) -> Means {
        self.rows
            .iter()
            .map(|r| ((r.op.clone(), r.threads), r.mean_ms))
            .collect()
    }

    /// The report as JSON; non-finite numbers become `null`.
    fn to_json(&self) -> Json {
        let pairs = |fields: &[(String, f64)]| -> Vec<(String, Json)> {
            fields
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect()
        };
        let mut header = vec![
            (
                "schema_version".to_string(),
                Json::Num(SCHEMA_VERSION as f64),
            ),
            ("bench".to_string(), Json::Str(self.bench.clone())),
            (
                "available_parallelism".to_string(),
                Json::Num(self.available_parallelism as f64),
            ),
            ("iters".to_string(), Json::Num(self.iters as f64)),
        ];
        if !self.params.is_empty() {
            header.push(("params".to_string(), Json::Obj(pairs(&self.params))));
        }
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![
                    ("op".to_string(), Json::Str(r.op.clone())),
                    ("threads".to_string(), Json::Num(r.threads as f64)),
                    ("mean_ms".to_string(), Json::Num(r.mean_ms)),
                ];
                row.extend(pairs(&r.fields));
                Json::Obj(row)
            })
            .collect();
        header.push(("ops".to_string(), Json::Arr(rows)));
        Json::Obj(header)
    }

    /// Writes the report as pretty JSON, creating parent directories.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Prints the rows as a markdown table, one column per field.
    fn print_table(&self) {
        let mut names: Vec<&str> = Vec::new();
        for (name, _) in self.rows.iter().flat_map(|r| &r.fields) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        println!(
            "\n## {} — {} iters, host parallelism {}{}{}\n",
            self.bench,
            self.iters,
            self.available_parallelism,
            if params.is_empty() { "" } else { "; " },
            params.join(", ")
        );
        println!("| op | threads | mean (ms) | {} |", names.join(" | "));
        println!("|---|---|---|{}", "---|".repeat(names.len()));
        for r in &self.rows {
            let cells: Vec<String> = names
                .iter()
                .map(|n| {
                    r.fields
                        .iter()
                        .find(|(k, _)| k == n)
                        .map_or(String::new(), |&(_, v)| fmt_num(v))
                })
                .collect();
            println!(
                "| {} | {} | {} | {} |",
                r.op,
                r.threads,
                fmt_num(r.mean_ms),
                cells.join(" | ")
            );
        }
    }
}

/// Reads the `mean_ms` of every row of a report written by
/// [`Report::write`]. A `null` or missing value reads as NaN and a row
/// without `op` or integer `threads` is skipped, both of which [`check`]
/// rejects for a gated row.
fn read_means(path: &Path) -> Result<Means, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = json.get("schema_version").and_then(Json::as_u64);
    if schema != Some(SCHEMA_VERSION) {
        return Err(format!(
            "{}: report schema {schema:?}, expected {SCHEMA_VERSION}",
            path.display()
        ));
    }
    let rows = json.get("ops").and_then(Json::as_array).unwrap_or(&[]);
    Ok(rows
        .iter()
        .filter_map(|r| {
            let op = r.get("op")?.as_str()?.to_string();
            let threads = r.get("threads")?.as_u64()? as usize;
            let mean = r.get("mean_ms").and_then(Json::as_f64);
            Some(((op, threads), mean.unwrap_or(f64::NAN)))
        })
        .collect())
}

/// Integers print whole, other values to four decimals.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Times `f` under a `threads`-wide pool: one warm-up call, then `iters`
/// timed calls issued from this thread, with the [`CountingAlloc`]
/// counter read around the timed region.
pub fn time_op(op: &str, threads: usize, iters: usize, mut f: impl FnMut()) -> Row {
    deco_runtime::with_thread_count(threads, move || {
        f();
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        Row::new(op, threads, secs * 1e3).with("allocs_per_op", allocs as f64 / iters as f64)
    })
}

/// A row for `latencies_ms.len()` jobs that took `wall_s` in all:
/// `mean_ms` is wall time per job, plus the p50 and p99 job latency.
pub fn job_row(op: &str, threads: usize, wall_s: f64, mut latencies_ms: Vec<f64>) -> Row {
    latencies_ms.sort_by(f64::total_cmp);
    Row::new(op, threads, wall_s * 1e3 / latencies_ms.len() as f64)
        .with("p50_ms", percentile(&latencies_ms, 0.50))
        .with("p99_ms", percentile(&latencies_ms, 0.99))
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted` by nearest rank;
/// 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Parses a `DECO_BENCH_ITERS` value: unset gives `default`; anything but
/// a positive integer is an error.
fn parse_iters(value: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "DECO_BENCH_ITERS must be a positive integer, got {v:?}"
        )),
    }
}

/// The bench's iteration count: `DECO_BENCH_ITERS`, or `default` when
/// unset.
///
/// # Panics
/// Panics with a message when `DECO_BENCH_ITERS` is not a positive
/// integer.
pub fn iters(default: usize) -> usize {
    let value = std::env::var_os("DECO_BENCH_ITERS").map(|v| v.to_string_lossy().into_owned());
    parse_iters(value.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

/// Gates `fresh` against `committed`: one line per gate, `Err` when the
/// row is missing or not finite on either side or its fresh `mean_ms`
/// exceeds [`CHECK_FACTOR`] × the committed one.
fn check(committed: &Means, fresh: &Means, gates: &[Gate]) -> Vec<Result<String, String>> {
    let mean = |means: &Means, side: &str, op: &str, threads: usize| {
        let &mean = means
            .get(&(op.to_string(), threads))
            .ok_or_else(|| format!("{op} @{threads}T: no {side} row"))?;
        if mean.is_finite() {
            Ok(mean)
        } else {
            Err(format!("{op} @{threads}T: {side} mean_ms is not finite"))
        }
    };
    gates
        .iter()
        .map(|&(op, threads)| {
            let base = mean(committed, "committed", op, threads)?;
            let now = mean(fresh, "fresh", op, threads)?;
            let line = format!(
                "{op} @{threads}T: {now:.4} ms vs committed {base:.4} ms (limit {CHECK_FACTOR}x)"
            );
            if now <= base * CHECK_FACTOR {
                Ok(line)
            } else {
                Err(line)
            }
        })
        .collect()
}

/// Compares the `(op, threads)` row sets of `committed` and `fresh`:
/// one `Err` per row only one side has, or one `Ok` when they match.
fn check_row_set(committed: &Means, fresh: &Means) -> Vec<Result<String, String>> {
    let only_in = |side: &Means, other: &Means, what: &str| {
        side.keys()
            .filter(|key| !other.contains_key(*key))
            .map(|(op, threads)| Err(format!("{op} @{threads}T: {what}")))
            .collect::<Vec<_>>()
    };
    let mut results = only_in(committed, fresh, "stale committed row, not produced");
    results.extend(only_in(fresh, committed, "fresh row, not committed"));
    if results.is_empty() {
        results.push(Ok(format!("row set matches ({} rows)", fresh.len())));
    }
    results
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("deco-bench lives at crates/bench")
}

/// Ends a bench: prints `report`, then either rewrites the committed
/// `file` at the repository root or, under `--check`, writes the report
/// to `target/bench/<file>` and gates it against the committed `file`.
pub fn finish(report: &Report, file: &str, gates: &[Gate]) -> ExitCode {
    report.print_table();
    let committed = repo_root().join(file);
    let checking = std::env::args().any(|a| a == "--check");
    let out = if checking {
        repo_root().join("target/bench").join(file)
    } else {
        committed.clone()
    };
    report
        .write(&out)
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("[{}] wrote {}", report.bench, out.display());
    if !checking {
        return ExitCode::SUCCESS;
    }
    let fresh = report.means();
    let results = match read_means(&committed) {
        Ok(base) => {
            let mut results = check(&base, &fresh, gates);
            results.extend(check_row_set(&base, &fresh));
            results
        }
        Err(e) => vec![Err(e)],
    };
    for r in &results {
        match r {
            Ok(line) => eprintln!("[{}] check ok: {line}", report.bench),
            Err(line) => eprintln!("[{}] CHECK FAILED: {line}", report.bench),
        }
    }
    if results.iter().all(Result::is_ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: [Gate; 1] = [("op", 1)];

    fn report(rows: Vec<Row>) -> Report {
        Report {
            rows,
            ..Report::new("test", 3)
        }
    }

    fn passes(committed: f64, fresh: f64) -> bool {
        let results = check(
            &report(vec![Row::new("op", 1, committed)]).means(),
            &report(vec![Row::new("op", 1, fresh)]).means(),
            &GATE,
        );
        results.iter().all(Result::is_ok)
    }

    #[test]
    fn gate_passes_at_exactly_the_factor_and_fails_just_above() {
        assert!(passes(2.0, 5.0));
        assert!(!passes(2.0, 5.0 + 1e-9));
        assert!(passes(2.0, 0.1));
    }

    #[test]
    fn non_finite_values_fail_on_either_side() {
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(!passes(2.0, bad), "fresh {bad}");
            assert!(!passes(bad, 2.0), "committed {bad}");
        }
    }

    #[test]
    fn missing_rows_fail_on_either_side() {
        let present = report(vec![Row::new("op", 1, 1.0)]).means();
        let other_width = report(vec![Row::new("op", 2, 1.0)]).means();
        let empty = Means::new();
        for (committed, fresh) in [
            (&present, &empty),
            (&empty, &present),
            (&other_width, &present),
        ] {
            let results = check(committed, fresh, &GATE);
            assert_eq!(results.len(), 1);
            assert!(results[0].is_err());
        }
    }

    #[test]
    fn a_stale_committed_row_fails_the_row_set() {
        // The committed file keeps a row the bench no longer produces.
        let committed = report(vec![Row::new("op", 1, 1.0), Row::new("gone", 1, 1.0)]).means();
        let fresh = report(vec![Row::new("op", 1, 1.0)]).means();
        assert!(check_row_set(&fresh, &fresh).iter().all(Result::is_ok));
        let errs: Vec<_> = check_row_set(&committed, &fresh)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("gone @1T"), "{}", errs[0]);
    }

    #[test]
    fn a_row_missing_from_the_committed_file_fails_the_row_set() {
        // The fresh report has a row (here: a new pool width) the
        // committed file lacks.
        let committed = report(vec![Row::new("op", 1, 1.0)]).means();
        let fresh = report(vec![Row::new("op", 1, 1.0), Row::new("op", 2, 1.0)]).means();
        let errs: Vec<_> = check_row_set(&committed, &fresh)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("op @2T"), "{}", errs[0]);
    }

    #[test]
    fn write_read_round_trip_finds_every_row() {
        let path = std::env::temp_dir().join(format!(
            "deco-bench-report-roundtrip-{}.json",
            std::process::id()
        ));
        let written = report(vec![
            Row::new("a", 1, 0.25).with("allocs_per_op", 3.0),
            Row::new("a", 4, 0.125)
                .with("p50_ms", 0.1)
                .with("p99_ms", 0.5),
            Row::new("b", 1, 7.0),
        ])
        .param("tenants", 12.0);
        written.write(&path).expect("write report");
        let read = read_means(&path).expect("read report");
        std::fs::remove_file(&path).expect("remove report");
        assert_eq!(read.len(), written.rows.len());
        for row in &written.rows {
            let mean = read.get(&(row.op.clone(), row.threads));
            assert_eq!(mean.map(|m| m.to_bits()), Some(row.mean_ms.to_bits()));
        }
    }

    #[test]
    fn a_non_finite_mean_written_to_disk_fails_the_gate() {
        // The writer turns NaN into `null`; reading it back must not
        // turn the gate into a skip.
        let path = std::env::temp_dir().join(format!(
            "deco-bench-report-null-{}.json",
            std::process::id()
        ));
        report(vec![Row::new("op", 1, f64::NAN)])
            .write(&path)
            .expect("write report");
        let committed = read_means(&path).expect("read report");
        std::fs::remove_file(&path).expect("remove report");
        let fresh = report(vec![Row::new("op", 1, 1.0)]).means();
        assert!(check(&committed, &fresh, &GATE)[0].is_err());
    }

    #[test]
    fn iteration_counts_must_be_positive_integers() {
        assert_eq!(parse_iters(None, 30), Ok(30));
        assert_eq!(parse_iters(Some("5"), 30), Ok(5));
        assert_eq!(parse_iters(Some(" 7\n"), 30), Ok(7));
        for bad in ["0", "5x", "", "-1", "2.5"] {
            let err = parse_iters(Some(bad), 30).expect_err(bad);
            assert!(err.contains("DECO_BENCH_ITERS"), "{err}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
