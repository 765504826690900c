//! `bestk-perfbench`: the end-to-end benchmark of the bestk system.
//!
//! One invocation runs one workload — `ingest`, `serve_read` or
//! `serve_mixed` — through the public API of `bestk-graph`, `bestk-core`,
//! `bestk-engine` and `bestk-delta`, checks every reply, and prints each
//! metric by name with its unit. An untraced run (`--trace 0`) reports the
//! end-to-end metrics, then the latencies of the request classes it
//! served; a traced run (`--trace 1`) of the same workload and
//! seed reports the per-layer metrics and writes its spans and the
//! program's `bestk_obs` registry under `perfbench/out/`. The last line of
//! standard output is the result object. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 7 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]

mod report;
mod run;
mod session;
mod stats;
mod trace;
mod traffic;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::Run;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Run length used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str = "usage: bestk-perfbench --workload ingest|serve_read|serve_mixed \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// The workloads, by name.
const WORKLOADS: [(&str, fn(&mut Run) -> Result<(), String>); 3] = [
    ("ingest", workloads::ingest),
    ("serve_read", workloads::serve_read),
    ("serve_mixed", workloads::serve_mixed),
];

struct Args {
    workload: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: usize::MAX,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = WORKLOADS
                    .iter()
                    .position(|(name, _)| *name == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" if number()? > 0 => parsed.seconds = number()?,
            "--trace" if value == "0" || value == "1" => parsed.trace = value == "1",
            _ => return Err(format!("bad argument {flag} {value:?}")),
        }
    }
    if parsed.workload == usize::MAX {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the workload and returns the lines to print and whether every
/// check passed.
fn bench(args: &Args) -> Result<(Vec<String>, bool), String> {
    let (name, workload) = WORKLOADS[args.workload];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch = Scratch(
        root.join("work")
            .join(format!("{name}-{}", std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;
    let out = root.join("out").join(format!(
        "{name}-seed{}-trace{}",
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;

    let before = bestk_obs::snapshot();
    let mut run = Run::new(args.seed, args.seconds, args.trace, scratch.0.clone())?;
    let start = bestk_obs::now_nanos();
    workload(&mut run)?;
    let run_s = bestk_obs::now_nanos().saturating_sub(start) as f64 / 1e9;
    let after = bestk_obs::snapshot();

    let (metrics, details) = if args.trace {
        run.tracer
            .write(&out.join("spans.tsv"))
            .map_err(|e| format!("writing spans: {e}"))?;
        write_file(&out.join("obs.txt"), &after.render())?;
        (report::per_layer(&mut run, &before, &after), Vec::new())
    } else {
        (report::end_to_end(&mut run)?, report::details(&mut run))
    };
    let metrics_json = report::metrics_json(&metrics)?;
    let details_json = report::metrics_json(&details)?;
    let facts = report::facts(&run, name, run_s);
    write_file(
        &out.join("result.json"),
        &format!(
            "{{\"facts\": {facts}, \"metrics\": {metrics_json}, \"details\": {details_json}}}\n"
        ),
    )?;

    let correct = run.failed == 0 && run.attempted > 0;
    let mut lines: Vec<String> = metrics
        .iter()
        .chain(&details)
        .map(|m| format!("{:<28} {:>16.4} {}", m.name, m.value, m.unit))
        .collect();
    lines.push(format!(
        "{:<28} {:>16.4} ratio",
        "error_rate",
        run.failed as f64 / run.attempted.max(1) as f64
    ));
    lines.push(format!("facts {facts}"));
    lines.push(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        run.attempted, run.failed
    ));
    Ok((lines, correct))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bestk-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok((lines, correct)) => {
            for line in lines {
                println!("{line}");
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bestk-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse(&["--workload", "serve_mixed", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (2, 7, DEFAULT_SECONDS, true)
        );
        assert_eq!(parse(&["--workload", "ingest"]).unwrap().seed, DEFAULT_SEED);
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "ingest", "--trace", "2"],
            &["--workload", "ingest", "--seconds", "0"],
            &["--workload", "ingest", "--seed"],
            &["--workload", "ingest", "--port", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
