//! # bestk-cli
//!
//! Library backing the `bestk` command-line tool. The binary is a thin shim
//! over [`run`], which parses a subcommand and writes its report to the
//! given writer (fully unit-testable, no process spawning needed).
//!
//! ```text
//! bestk stats    <graph>                       dataset statistics
//! bestk analyze  <graph> [--metric M] [--extended]
//!                                              best k-core set + best single core
//! bestk profile  <graph> --metric M [--single] per-k score series as CSV
//! bestk densest  <graph> [--method opt-d|core-app|peel|exact]
//! bestk clique   <graph>                       exact maximum clique
//! bestk sck      <graph> --k K --h H --query V size-constrained k-core
//! bestk truss    <graph> [--metric M]          best k-truss set
//! bestk generate <family> --n N [...] --out F  synthetic graphs
//! bestk convert  <in> <out>                    text <-> binary by extension
//! bestk snapshot <graph> <out.bestk>           persist the full best-k index
//! bestk query    <snapshot> <query>...         one-shot snapshot queries
//! bestk mutate   <snapshot> <ops|--stream F>   stage + commit edge mutations
//! bestk serve    [--port P | --stdin]          serving loop (stdio or TCP)
//! bestk replay   <recording>                   re-drive a recorded session
//! bestk fuzz     <surface>|all [--seeds N]     structured fuzzing sweep
//! bestk metrics  <graph>                       pipeline run + metrics exposition
//! ```
//!
//! Graphs are read from SNAP-style text edge lists or the workspace binary
//! format, auto-detected by content.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod commands;
mod load;

use std::fmt;
use std::io::Write;

pub use args::ParsedArgs;
pub use load::load_graph;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, missing argument, malformed value.
    Usage(String),
    /// The graph file could not be read or parsed.
    Graph(bestk_graph::GraphError),
    /// Output could not be written.
    Io(std::io::Error),
    /// A snapshot or serving-engine failure (corrupt snapshot, protocol
    /// error, unknown dataset).
    Engine(bestk_engine::EngineError),
    /// The request was well-formed but unsatisfiable (e.g. infeasible
    /// query).
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Graph(e) => write!(f, "graph error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Engine(e) => write!(f, "engine error: {e}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<bestk_graph::GraphError> for CliError {
    fn from(e: bestk_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<bestk_engine::EngineError> for CliError {
    fn from(e: bestk_engine::EngineError) -> Self {
        CliError::Engine(e)
    }
}

const USAGE: &str = "usage: bestk <command> [args]
commands:
  stats    <graph>                                   dataset statistics
  analyze  <graph> [--metric M] [--extended]         best k per metric
  profile  <graph> --metric M [--single]             per-k scores (CSV)
  densest  <graph> [--method opt-d|core-app|peel|exact]
  clique   <graph>                                   exact maximum clique
  sck      <graph> --k K --h H --query V             size-constrained k-core
  community <graph> --query V [--metric M]           community search around V
  truss    <graph> [--metric M] [--single]           best k-truss (set)
  generate <family> --n N [--m M|--avg-deg D|...] --seed S --out FILE
  convert  <in> <out>                                text <-> binary
  snapshot <graph> <out.bestk> [--threads N]         persist the full index
                                                     (opens zero-copy)
  query    <snapshot> <query>... [--threads N] [--budget-mb N]
                                                     one-shot snapshot queries
                                                     (replays <snapshot>.wal)
  mutate   <snapshot> [add:u:v|del:u:v ...] [--stream mixed|delete-heavy|focused
           --count N --seed S] [--commit-every N] [--threads N]
                                                     stage + commit edge mutations
                                                     (durable in <snapshot>.wal)
  serve    [--port P | --stdin] [--budget-mb N] [--threads N] [--timeout-ms T]
           [--max-inflight N] [--max-line-bytes N] [--metrics-dump]
           [--record FILE]                           serving loop (stdio or TCP;
                                                     --record captures stdio
                                                     sessions to a .bestkrec;
                                                     one request at a time, so
                                                     --max-inflight 0 sheds
                                                     every request and any
                                                     other value admits all)
  replay   <recording> [--threads N]                 re-drive a .bestkrec and
                                                     diff replies byte-for-byte
  fuzz     <surface>|all [--seeds N] [--budget-bytes B] [--seed-start S]
                                                     structured fuzzing over
                                                     graph-io snapshot wal serve
  metrics  <graph> [--threads N]                     full best-k pipeline run,
                                                     then the metrics exposition
metrics M: ad den cr con mod cc sep td (default: all six paper metrics)
stats/analyze/truss accept --verify: re-check every reported answer against
the executable-specification oracles (slower; exits non-zero on mismatch)
analyze/truss accept --threads N: run the parallel kernels on N worker threads
(default: auto-detect; output is identical at every thread count)
families: er-gnm er-gnp chung-lu rmat ba ws cliques";

/// Parses `argv` and executes the chosen subcommand, writing the report to
/// `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(argv)?;
    match parsed.command.as_str() {
        "" | "help" | "-h" | "--help" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        "stats" => commands::stats(&parsed, out),
        "analyze" => commands::analyze(&parsed, out),
        "profile" => commands::profile(&parsed, out),
        "densest" => commands::densest(&parsed, out),
        "clique" => commands::clique(&parsed, out),
        "sck" => commands::sck(&parsed, out),
        "community" => commands::community(&parsed, out),
        "truss" => commands::truss(&parsed, out),
        "generate" => commands::generate(&parsed, out),
        "convert" => commands::convert(&parsed, out),
        "snapshot" => commands::snapshot(&parsed, out),
        "query" => commands::query(&parsed, out),
        "mutate" => commands::mutate(&parsed, out),
        "serve" => commands::serve(&parsed, out),
        "replay" => commands::replay(&parsed, out),
        "fuzz" => commands::fuzz(&parsed, out),
        "metrics" => commands::metrics(&parsed, out),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("usage: bestk"));
        assert!(run_str(&[]).unwrap().contains("usage"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run_str(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("frobnicate"));
    }
}
