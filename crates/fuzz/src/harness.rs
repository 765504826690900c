//! The fuzzing harness: surfaces, verdicts, and the seed-sweep driver.
//!
//! Every parse surface gets the same contract, checked on every input:
//!
//! * **typed error or valid result** — the parser returns `Ok` or its
//!   crate's error type;
//! * **never panic** — a caught unwind is a finding, reported as
//!   [`Check::Panic`], never process death;
//! * **never OOM beyond a byte budget** — inputs are capped at the budget
//!   and a successful parse must be size-proportional to its input (the
//!   pre-allocation caps inside the readers make a hostile header a cheap
//!   typed error, and the proportionality assertion here keeps them
//!   honest).
//!
//! [`run_surface`] drives a deterministic seed sweep: per seed, the
//! grammar generator emits an almost-valid input and the byte mutator
//! derives children from known-valid exemplars; every input goes through
//! [`check_bytes`]. The same entry point checks the committed corpus in
//! `tests/fuzz_regression.rs`, so a development finding becomes a pinned
//! regression by dropping its bytes into `tests/corpus/<surface>/`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bestk_engine::mmap::Mmap;
use bestk_engine::{serve_lines_with, Dataset, ServeLimits, SharedEngine};
use bestk_exec::ExecPolicy;
use bestk_graph::cast;
use bestk_graph::generators;
use bestk_graph::io;

use crate::grammar;
use crate::mutate::ByteMutator;

/// The default per-input byte budget (also the CLI default).
pub const DEFAULT_BUDGET_BYTES: usize = 1 << 16;

/// A fuzzable parse surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// The textual and binary graph readers (`read_edge_list`,
    /// `read_metis`, `read_binary`).
    GraphIo,
    /// The `.bestk` snapshot opener (`open_mmap` over `BESTKSS2`) and the
    /// deferred graph-section check (`GraphStore::check`).
    Snapshot,
    /// The `BESTKWAL1` write-ahead-log replayer (`replay_bytes`).
    Wal,
    /// The line-oriented serve loop (`serve_lines_with`).
    Serve,
}

/// Every surface, in CLI/report order.
pub const ALL_SURFACES: [Surface; 4] = [
    Surface::GraphIo,
    Surface::Snapshot,
    Surface::Wal,
    Surface::Serve,
];

impl Surface {
    /// The CLI name of this surface.
    pub fn name(self) -> &'static str {
        match self {
            Surface::GraphIo => "graph-io",
            Surface::Snapshot => "snapshot",
            Surface::Wal => "wal",
            Surface::Serve => "serve",
        }
    }

    /// Parses a CLI surface name.
    pub fn parse(name: &str) -> Option<Surface> {
        ALL_SURFACES.into_iter().find(|s| s.name() == name)
    }
}

/// The verdict on one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// At least one parser accepted the input (within budget).
    Valid,
    /// Every parser rejected the input with its typed error.
    TypedError,
    /// A parser panicked — always a finding.
    Panic(String),
    /// The contract was violated without a panic (output
    /// disproportionate to the input, or the serve loop failed).
    Violation(String),
}

/// Aggregated verdicts over a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurfaceReport {
    /// Inputs checked.
    pub inputs: u64,
    /// Inputs at least one parser accepted.
    pub valid: u64,
    /// Inputs every parser rejected with a typed error.
    pub typed_errors: u64,
    /// Panics caught — must be zero.
    pub panics: u64,
    /// Non-panic contract violations — must be zero.
    pub violations: u64,
}

impl SurfaceReport {
    /// True when the sweep found nothing: no panics, no violations.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.violations == 0
    }

    fn absorb(&mut self, check: &Check) {
        self.inputs += 1;
        match check {
            Check::Valid => self.valid += 1,
            Check::TypedError => self.typed_errors += 1,
            Check::Panic(_) => self.panics += 1,
            Check::Violation(_) => self.violations += 1,
        }
    }
}

/// Runs `fun` under `catch_unwind`, mapping a panic payload to
/// [`Check::Panic`].
fn contained(fun: impl FnOnce() -> Check) -> Check {
    match catch_unwind(AssertUnwindSafe(fun)) {
        Ok(check) => check,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Check::Panic(msg)
        }
    }
}

/// Checks one input against one surface's contract.
pub fn check_bytes(surface: Surface, bytes: &[u8], budget: usize) -> Check {
    match surface {
        Surface::GraphIo => check_graph_io(bytes, budget),
        Surface::Snapshot => check_snapshot(bytes, budget),
        Surface::Wal => check_wal(bytes),
        Surface::Serve => check_serve(bytes),
    }
}

/// A successful graph parse must be size-proportional to its input: every
/// vertex and edge costs input bytes in all three formats, so a parse
/// that manufactures a graph orders of magnitude larger than its input
/// means a header was trusted somewhere.
fn graph_within_budget(n: usize, m: usize, input_len: usize) -> bool {
    n + m <= 8 * input_len + 64
}

fn check_graph_io(bytes: &[u8], _budget: usize) -> Check {
    let mut any_valid = false;
    for parse in [
        |b: &[u8]| io::read_edge_list(b).map(|(g, _)| (g.num_vertices(), g.num_edges())),
        |b: &[u8]| io::read_binary(b).map(|g| (g.num_vertices(), g.num_edges())),
        |b: &[u8]| io::read_metis(b).map(|g| (g.num_vertices(), g.num_edges())),
    ] {
        match contained(|| match parse(bytes) {
            Ok((n, m)) => {
                if graph_within_budget(n, m, bytes.len()) {
                    Check::Valid
                } else {
                    Check::Violation(format!(
                        "parsed {n} vertices / {m} edges from {} input bytes",
                        bytes.len()
                    ))
                }
            }
            Err(_) => Check::TypedError,
        }) {
            Check::Valid => any_valid = true,
            Check::TypedError => {}
            finding => return finding,
        }
    }
    if any_valid {
        Check::Valid
    } else {
        Check::TypedError
    }
}

fn check_snapshot(bytes: &[u8], _budget: usize) -> Check {
    let map = Arc::new(Mmap::from_vec(bytes.to_vec()));
    contained(|| match bestk_engine::snapv2::open_mmap(map) {
        // The strict loads follow the open with the deferred graph check,
        // so hostile graph bytes must meet a typed error there too.
        Ok(ds) => match ds.graph().check() {
            Ok(()) => snapshot_verdict(&ds, bytes.len()),
            Err(_) => Check::TypedError,
        },
        Err(_) => Check::TypedError,
    })
}

fn snapshot_verdict(ds: &Dataset, input_len: usize) -> Check {
    if ds.resident_bytes() <= 64 * input_len + (1 << 16) {
        Check::Valid
    } else {
        Check::Violation(format!(
            "snapshot resident bytes {} from {input_len} input bytes",
            ds.resident_bytes()
        ))
    }
}

fn check_wal(bytes: &[u8]) -> Check {
    contained(|| match bestk_delta::replay_bytes(bytes) {
        Ok(replay) => {
            // Every decoded op costs a 13-byte frame minimum.
            if replay.ops.len() <= bytes.len() {
                Check::Valid
            } else {
                Check::Violation(format!(
                    "{} ops decoded from {} bytes",
                    replay.ops.len(),
                    bytes.len()
                ))
            }
        }
        Err(_) => Check::TypedError,
    })
}

fn check_serve(bytes: &[u8]) -> Check {
    contained(|| {
        let engine = SharedEngine::with_budget(None);
        engine.insert_graph("fig2", generators::paper_figure2());
        let limits = ServeLimits {
            max_line_bytes: 256,
            max_inflight: 4,
        };
        let mut out: Vec<u8> = Vec::new();
        match serve_lines_with(&engine, &ExecPolicy::Sequential, bytes, &mut out, &limits) {
            // Replies into a Vec cannot fail; bound the output so a reply
            // loop cannot amplify a small script without being noticed.
            Ok(_) if out.len() <= (1 << 22) => Check::Valid,
            Ok(_) => Check::Violation(format!(
                "{} reply bytes from {} request bytes",
                out.len(),
                bytes.len()
            )),
            Err(e) => Check::Violation(format!("serve loop returned an error: {e}")),
        }
    })
}

/// Known-valid exemplars per surface; the mutator's starting points.
pub fn base_inputs(surface: Surface) -> Vec<Vec<u8>> {
    match surface {
        Surface::GraphIo => {
            let g = generators::paper_figure2();
            let mut edge_list = Vec::new();
            io::write_edge_list(&g, &mut edge_list).expect("write edge list"); // bestk-analyze: allow(no-unwrap) — base exemplar encode cannot fail
            let mut metis = Vec::new();
            io::write_metis(&g, &mut metis).expect("write metis"); // bestk-analyze: allow(no-unwrap) — base exemplar encode cannot fail
            let mut binary = Vec::new();
            io::write_binary(&g, &mut binary).expect("write binary"); // bestk-analyze: allow(no-unwrap) — base exemplar encode cannot fail
            vec![edge_list, metis, binary]
        }
        Surface::Snapshot => vec![snapshot_bytes(&built_figure2())],
        Surface::Wal => {
            // A fully valid stream: magic + insert/delete/commit frames.
            let mut rng_free = Vec::new();
            rng_free.extend_from_slice(b"BESTKWAL1");
            for (tag, u, v) in [(0x01u8, 0u32, 11u32), (0x02, 0, 1), (0x03, 0, 0)] {
                let mut payload = vec![tag];
                if tag != 0x03 {
                    payload.extend_from_slice(&u.to_le_bytes());
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                rng_free.extend_from_slice(&cast::u32_of(payload.len()).to_le_bytes());
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in &payload {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                rng_free.extend_from_slice(&payload);
                rng_free.extend_from_slice(&h.to_le_bytes());
            }
            vec![rng_free]
        }
        Surface::Serve => {
            vec![b"query fig2 stats\nadd-edge fig2 0 11\ncommit fig2\nquery fig2 bestkset ad\nquit\n".to_vec()]
        }
    }
}

fn built_figure2() -> Dataset {
    let mut ds = Dataset::from_graph(generators::paper_figure2());
    ds.ensure_built(&ExecPolicy::Sequential);
    ds
}

fn snapshot_bytes(ds: &Dataset) -> Vec<u8> {
    bestk_engine::snapv2::to_bytes(ds).expect("encode snapshot") // bestk-analyze: allow(no-unwrap) — exemplar fixture setup, broken build if it fails
}

/// Per-seed inputs: the grammar generator's almost-valid input(s) plus
/// one mutated child of each base exemplar.
fn seed_inputs(surface: Surface, seed: u64, bases: &[Vec<u8>], budget: usize) -> Vec<Vec<u8>> {
    let mut m = ByteMutator::new(seed);
    let mut inputs: Vec<Vec<u8>> = match surface {
        Surface::GraphIo => vec![
            grammar::edge_list(seed),
            grammar::metis(seed),
            grammar::binary_graph(&bases[2], seed),
        ],
        Surface::Snapshot => bases.iter().map(|b| grammar::snapshot(b, seed)).collect(),
        Surface::Wal => vec![grammar::wal(seed)],
        Surface::Serve => vec![grammar::serve_script(seed)],
    };
    for base in bases {
        inputs.push(m.mutate(base, budget));
    }
    for input in &mut inputs {
        input.truncate(budget);
    }
    inputs
}

/// Sweeps `seeds` consecutive seeds starting at `seed_start` over one
/// surface, returning the aggregated report. Deterministic: the same
/// `(surface, seed_start, seeds, budget)` always checks the same inputs.
pub fn run_surface(
    surface: Surface,
    seed_start: u64,
    seeds: u64,
    budget_bytes: usize,
) -> SurfaceReport {
    let bases = base_inputs(surface);
    let mut report = SurfaceReport::default();
    for seed in seed_start..seed_start.saturating_add(seeds) {
        for input in seed_inputs(surface, seed, &bases, budget_bytes) {
            let check = check_bytes(surface, &input, budget_bytes);
            if let Check::Panic(msg) | Check::Violation(msg) = &check {
                bestk_obs::counter("fuzz.findings").inc();
                eprintln!(
                    "fuzz finding: surface={} seed={seed} len={}: {msg}",
                    surface.name(),
                    input.len()
                );
            }
            report.absorb(&check);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_names_round_trip() {
        for s in ALL_SURFACES {
            assert_eq!(Surface::parse(s.name()), Some(s));
        }
        assert_eq!(Surface::parse("nope"), None);
    }

    #[test]
    fn base_inputs_are_all_valid() {
        for surface in ALL_SURFACES {
            for (i, base) in base_inputs(surface).iter().enumerate() {
                // The graph-io bases each satisfy a *different* parser, so
                // per-base validity is exactly what check_bytes reports.
                assert_eq!(
                    check_bytes(surface, base, DEFAULT_BUDGET_BYTES),
                    Check::Valid,
                    "{} base {i}",
                    surface.name()
                );
            }
        }
    }

    #[test]
    fn short_sweeps_are_clean_and_deterministic() {
        for surface in [Surface::GraphIo, Surface::Wal] {
            let a = run_surface(surface, 0, 64, DEFAULT_BUDGET_BYTES);
            let b = run_surface(surface, 0, 64, DEFAULT_BUDGET_BYTES);
            assert_eq!(a, b, "{}", surface.name());
            assert!(a.clean(), "{}: {a:?}", surface.name());
            assert!(a.inputs > 0);
            assert!(a.typed_errors > 0, "{}: {a:?}", surface.name());
        }
    }

    #[test]
    fn snapshot_sweep_is_clean() {
        let r = run_surface(Surface::Snapshot, 0, 32, DEFAULT_BUDGET_BYTES);
        assert!(r.clean(), "{r:?}");
        assert!(r.typed_errors > 0, "{r:?}");
    }

    #[test]
    fn serve_sweep_is_clean() {
        let r = run_surface(Surface::Serve, 0, 16, DEFAULT_BUDGET_BYTES);
        assert!(r.clean(), "{r:?}");
        assert!(r.valid > 0, "{r:?}");
    }

    #[test]
    fn hostile_metis_header_is_not_a_finding() {
        // As METIS this header claims ~1e12 edges (typed error after the
        // pre-allocation cap); as an edge list the two lines are honest
        // 64-bit ids (valid, relabeled). Either way: no panic, no OOM.
        let check = check_bytes(
            Surface::GraphIo,
            b"4000000000 999999999999\n1 2\n",
            DEFAULT_BUDGET_BYTES,
        );
        assert_eq!(check, Check::Valid);
    }
}
