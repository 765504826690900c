//! `bestk-fuzz`: structured fuzzing for the workspace's parse surfaces.
//!
//! The workspace accepts untrusted bytes in four places: the graph
//! readers (edge list / METIS / `BESTKGR1`), the zero-copy `BESTKSS2`
//! `.bestk` snapshot opener, the `BESTKWAL1` write-ahead log, and the
//! line-oriented serve protocol. This crate
//! attacks each of them with the contract *typed error or valid result,
//! never panic, never OOM beyond a byte budget*, using only the in-repo
//! [`bestk_graph::rng`] streams — no external fuzzing dependency, and
//! every input is reproducible from a `(surface, seed)` pair.
//!
//! Three layers compose:
//!
//! * [`mutate::ByteMutator`] — structure-blind byte mutations
//!   (truncation, bit flips, splices, length-field corruption) of
//!   known-valid exemplars;
//! * [`grammar`] — grammar-aware generators emitting *almost-valid*
//!   inputs that pass the early validation layers and exercise the error
//!   paths behind them;
//! * [`harness`] — the per-surface contract checks and the deterministic
//!   seed-sweep driver behind `bestk fuzz`.
//!
//! Findings graduate into `tests/corpus/<surface>/` at the workspace
//! root, swept by `tests/fuzz_regression.rs` on every build. See
//! DESIGN.md §16 for the fuzzing model and corpus policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grammar;
pub mod harness;
pub mod mutate;

pub use harness::{
    base_inputs, check_bytes, run_surface, Check, Surface, SurfaceReport, ALL_SURFACES,
    DEFAULT_BUDGET_BYTES,
};
pub use mutate::ByteMutator;
