//! Minimal micro-benchmark harness.
//!
//! The workspace builds fully offline, so the Criterion dev-dependency was
//! replaced with this self-contained runner: warm up once, run a fixed
//! number of measured iterations, report min / mean wall time (min is the
//! low-noise statistic; mean shows jitter). Interface conventions follow
//! the binaries in `src/bin/`: a `--filter=<substring>` argument selects
//! benchmarks by name and `BESTK_BENCH_ITERS` scales the iteration count.
//!
//! Besides the human-readable table on stdout, every run is recorded; if
//! `BESTK_BENCH_JSON` names a file, [`Bench::finish`] writes the records as
//! machine-readable JSON (`{"available_parallelism": N, "benchmarks":
//! [{name, threads, iters, min_ns, mean_ns}, ...]}`), the format downstream
//! tooling diffs across commits. `available_parallelism` is the host's
//! hardware thread count (0 if the query fails), so every report states
//! the machine its thread counts ran on.

use std::cell::RefCell;
use std::time::Duration;

use crate::timer::fmt_duration;

/// One recorded benchmark result, in nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Benchmark name as printed in the table.
    pub name: String,
    /// Worker-thread count the kernel ran with (1 for sequential runs).
    pub threads: usize,
    /// Number of measured iterations.
    pub iters: u32,
    /// Minimum iteration time in nanoseconds (the low-noise statistic).
    pub min_ns: u128,
    /// Mean iteration time in nanoseconds.
    pub mean_ns: u128,
}

/// A benchmark session: name filtering plus iteration control, shared by
/// every registered benchmark.
#[derive(Debug)]
pub struct Bench {
    filter: Option<String>,
    iters: u32,
    json_path: Option<String>,
    records: RefCell<Vec<Record>>,
}

impl Bench {
    /// Builds a session from the process arguments (`--filter=<substring>`)
    /// and environment (`BESTK_BENCH_ITERS`, default 5; `BESTK_BENCH_JSON`,
    /// a path for the machine-readable report).
    ///
    /// # Errors
    ///
    /// A set-but-malformed `BESTK_BENCH_ITERS` (non-numeric or zero) is an
    /// error, not a silent fallback: a typo'd `BESTK_BENCH_ITERS=1O0` must
    /// not quietly benchmark 5 iterations.
    pub fn from_env() -> Result<Bench, String> {
        let filter = std::env::args()
            .skip(1)
            .find_map(|a| a.strip_prefix("--filter=").map(str::to_string));
        let iters = match std::env::var("BESTK_BENCH_ITERS") {
            Err(std::env::VarError::NotPresent) => 5,
            Err(std::env::VarError::NotUnicode(raw)) => {
                return Err(format!(
                    "BESTK_BENCH_ITERS must be a positive integer, got non-unicode {raw:?}"
                ));
            }
            Ok(raw) => match raw.parse::<u32>() {
                Ok(n) if n > 0 => n,
                _ => {
                    return Err(format!(
                        "BESTK_BENCH_ITERS must be a positive integer, got {raw:?}"
                    ));
                }
            },
        };
        let json_path = std::env::var("BESTK_BENCH_JSON").ok();
        Ok(Bench {
            filter,
            iters,
            json_path,
            records: RefCell::new(Vec::new()),
        })
    }

    /// [`from_env`](Self::from_env), exiting with status 2 on a malformed
    /// environment — the right behavior for `benches/*` entry points.
    pub fn from_env_or_exit() -> Bench {
        Bench::from_env().unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// A session with explicit settings (used by tests).
    pub fn with_settings(filter: Option<String>, iters: u32) -> Bench {
        Bench {
            filter,
            iters: iters.max(1),
            json_path: None,
            records: RefCell::new(Vec::new()),
        }
    }

    /// Whether `name` passes the `--filter` selection.
    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Runs one benchmark: a warm-up call, then the measured iterations.
    /// Returns the per-iteration timings (empty if filtered out).
    pub fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Vec<Duration> {
        self.run_inner(name, 1, None, &mut f)
    }

    /// Like [`run`](Self::run), additionally reporting `elements / second`
    /// computed from the minimum iteration time.
    pub fn run_elements<T>(
        &self,
        name: &str,
        elements: u64,
        mut f: impl FnMut() -> T,
    ) -> Vec<Duration> {
        self.run_inner(name, 1, Some(elements), &mut f)
    }

    /// Like [`run`](Self::run) for a kernel executing on `threads` worker
    /// threads; the count is carried into the recorded result so the JSON
    /// report can express 1-vs-N speedup tables.
    pub fn run_threads<T>(
        &self,
        name: &str,
        threads: usize,
        mut f: impl FnMut() -> T,
    ) -> Vec<Duration> {
        self.run_inner(name, threads, None, &mut f)
    }

    /// Records a dimensionless measurement (a scaling permille, a speedup
    /// permille, a byte count) into the JSON report alongside the
    /// timing records: `iters` is 0 to mark the record as a gauge, and the
    /// value is carried in both `min_ns` and `mean_ns`.
    pub fn gauge(&self, name: &str, value: u128) {
        if !self.selected(name) {
            return;
        }
        println!("{name:<48} value {value}");
        self.records.borrow_mut().push(Record {
            name: name.to_string(),
            threads: 1,
            iters: 0,
            min_ns: value,
            mean_ns: value,
        });
    }

    fn run_inner<T>(
        &self,
        name: &str,
        threads: usize,
        elements: Option<u64>,
        f: &mut impl FnMut() -> T,
    ) -> Vec<Duration> {
        if !self.selected(name) {
            return Vec::new();
        }
        std::hint::black_box(f()); // warm-up: page in data, train branches
        let mut timings = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let ((), elapsed) = crate::timer::time(|| {
                std::hint::black_box(f());
            });
            timings.push(elapsed);
        }
        let min = timings.iter().min().copied().unwrap_or_default();
        let mean = timings.iter().sum::<Duration>() / self.iters;
        let rate = match elements {
            Some(e) if min > Duration::ZERO => {
                format!("  {:.1} Melem/s", e as f64 / min.as_secs_f64() / 1e6)
            }
            _ => String::new(),
        };
        println!(
            "{name:<48} min {:>10}  mean {:>10}  ({} iters){rate}",
            fmt_duration(min),
            fmt_duration(mean),
            self.iters
        );
        self.records.borrow_mut().push(Record {
            name: name.to_string(),
            threads,
            iters: self.iters,
            min_ns: min.as_nanos(),
            mean_ns: mean.as_nanos(),
        });
        timings
    }

    /// The results recorded so far (cloned; order of execution).
    pub fn records(&self) -> Vec<Record> {
        self.records.borrow().clone()
    }

    /// Serializes the recorded results as JSON, headed by the host's
    /// `available_parallelism`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"available_parallelism\": {},\n  \"benchmarks\": [",
            available_parallelism()
        );
        let records = self.records.borrow();
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"threads\": {}, \"iters\": {}, \
                 \"min_ns\": {}, \"mean_ns\": {}}}",
                json_string(&r.name),
                r.threads,
                r.iters,
                r.min_ns,
                r.mean_ns
            ));
        }
        if !records.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report to the `BESTK_BENCH_JSON` path, if one was
    /// set. Call at the end of every `benches/*` entry point.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error with the target path attached.
    pub fn finish(&self) -> Result<(), String> {
        let Some(path) = &self.json_path else {
            return Ok(());
        };
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("failed to write bench JSON to {path}: {e}"))?;
        eprintln!(
            "wrote {} benchmark records to {path}",
            self.records.borrow().len()
        );
        Ok(())
    }

    /// [`finish`](Self::finish), exiting with status 2 on failure.
    pub fn finish_or_exit(&self) {
        self.finish().unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
    }
}

/// The host's hardware thread count, 0 when the query fails.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Escapes `s` as a JSON string literal (quotes, backslashes, control
/// characters — benchmark names are ASCII, but stay correct regardless).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_skips_non_matching() {
        let b = Bench::with_settings(Some("match".into()), 2);
        assert!(b.run("no_hit", || 1).is_empty());
        assert_eq!(b.run("does_match", || 1).len(), 2);
        // Skipped runs leave no record.
        assert_eq!(b.records().len(), 1);
    }

    #[test]
    fn no_filter_runs_everything() {
        let b = Bench::with_settings(None, 3);
        let mut calls = 0;
        let timings = b.run("anything", || calls += 1);
        assert_eq!(timings.len(), 3);
        assert_eq!(calls, 4, "warm-up plus three measured iterations");
    }

    #[test]
    fn gauge_records_value_with_zero_iters() {
        let b = Bench::with_settings(Some("ratio".into()), 2);
        b.gauge("scaling_ratio_permille", 2340);
        b.gauge("filtered_out", 1);
        let records = b.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].iters, 0);
        assert_eq!(records[0].min_ns, 2340);
        assert_eq!(records[0].mean_ns, 2340);
    }

    #[test]
    fn records_carry_threads_and_timings() {
        let b = Bench::with_settings(None, 2);
        b.run("seq", || 1);
        b.run_threads("par", 4, || 1);
        let records = b.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].threads, 1);
        assert_eq!(records[1].threads, 4);
        assert_eq!(records[1].name, "par");
        assert!(records.iter().all(|r| r.iters == 2));
        assert!(records.iter().all(|r| r.mean_ns >= r.min_ns));
    }

    #[test]
    fn json_report_shape() {
        let b = Bench::with_settings(None, 1);
        b.run_threads("kernel/x", 2, || 1);
        let json = b.to_json();
        let host = format!("\"available_parallelism\": {},", available_parallelism());
        assert!(json.starts_with(&format!("{{\n  {host}\n")), "{json}");
        assert!(json.contains("\"benchmarks\": ["), "{json}");
        assert!(json.contains("\"name\": \"kernel/x\""), "{json}");
        assert!(json.contains("\"threads\": 2"), "{json}");
        assert!(json.contains("\"min_ns\": "), "{json}");
        assert!(json.contains("\"mean_ns\": "), "{json}");
        // Empty sessions still produce a well-formed document.
        let empty = Bench::with_settings(None, 1);
        assert_eq!(
            empty.to_json(),
            format!("{{\n  {host}\n  \"benchmarks\": [  ]\n}}\n")
        );
    }

    #[test]
    fn from_env_rejects_malformed_iters() {
        // One test owns this variable end to end (tests in this binary run
        // in parallel threads, and the environment is process-global).
        for bad in ["abc", "0", "-3", "1O0", ""] {
            std::env::set_var("BESTK_BENCH_ITERS", bad);
            let err = Bench::from_env().unwrap_err();
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
            assert!(err.contains(bad), "{bad:?}: {err}");
        }
        std::env::set_var("BESTK_BENCH_ITERS", "7");
        assert_eq!(Bench::from_env().unwrap().iters, 7);
        std::env::remove_var("BESTK_BENCH_ITERS");
        assert_eq!(Bench::from_env().unwrap().iters, 5, "default");
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }
}
