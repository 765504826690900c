//! Persistent best-k index snapshots and a multi-dataset query engine.
//!
//! This crate turns the paper's one-shot pipeline (read graph → peel →
//! order → profile → answer) into a serving system:
//!
//! - [`snapv2`] — the versioned, checksummed on-disk `.bestk` format:
//!   the CSR graph, the coreness array, and the per-k and per-core
//!   primary-value profiles, laid out so a snapshot opens zero-copy from a
//!   memory map and answers best-k queries without the `O(m^1.5)`
//!   preprocessing. [`open_snapshot_v2`] and [`save_snapshot_v2_path`]
//!   read and write it; [`RetryPolicy`] and [`load_or_rebuild`] are the
//!   retry and quarantine-and-rebuild load ladder around it.
//! - [`Engine`] — a registry of named datasets under a configurable memory
//!   budget with LRU artifact eviction, lazy first-touch builds, and
//!   build/cache-hit/eviction counters.
//! - [`SharedEngine`] — the engine behind a mutex with a strict lock
//!   discipline: snapshot I/O, artifact builds, and batch answering all
//!   run outside the registry lock (enforced by `bestk-analyze`'s
//!   `lock-held-io` / `lock-held-dispatch` passes).
//! - [`serve`] — a line-oriented request/response loop over stdio or a
//!   loopback TCP listener (the one `std::net` user the workspace's
//!   `no-raw-net` lint permits), running against the shared registry.
//! - [`record`] — deterministic serve record/replay: a `.bestkrec` file
//!   captures a session's requests, replies, clock readings, and fault
//!   spec, and replays byte-for-byte against a fresh engine at any thread
//!   count.
//! - [`mutate`] — edge mutations under a stage → commit → compact
//!   protocol: ops are validated against a `bestk-delta` overlay,
//!   write-ahead-logged beside the snapshot, folded into the mutated graph
//!   at commit, which builds its artifacts once, and compacted back into a
//!   v2 snapshot once enough commits accumulate.
//!
//! Query answers are rendered to stable tab-separated lines and batches
//! run through [`bestk_exec::ExecPolicy`] with an ordered chunk merge, so
//! output is bit-identical at every `--threads` setting.

// Deny rather than forbid: the `mmap` module carries the workspace's one
// scoped `#[allow(unsafe_code)]` for its two FFI calls; everything else in
// the crate still refuses unsafe at compile time.
// bestk-analyze: allow-file(forbid-unsafe) — deny + the mmap module's
// audited scoped allowance replaces the blanket forbid.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod engine;
pub mod error;
pub mod mmap;
pub mod mutate;
pub mod query;
pub mod record;
pub mod registry;
pub mod serve;
mod snapshot;
pub mod snapv2;
pub mod store;

use std::path::Path;

pub use dataset::{Artifacts, Dataset};
pub use engine::{Counters, DatasetRow, Engine, LoadOutcome};
pub use error::EngineError;
pub use mutate::{CommitSummary, DeltaSlot, COMPACT_OPS};
pub use query::{metric_by_abbrev, Answer, Query};
pub use record::{
    replay_path as replay_recording_path, Mismatch, ReplayReport, ServeRecorder, RECORD_MAGIC,
};
pub use registry::SharedEngine;
pub use serve::{
    handle_request, serve_lines, serve_lines_with, serve_on_listener, serve_tcp, Control,
    ServeLimits, Session,
};
pub use snapshot::{fnv1a, load_or_rebuild, RetryPolicy};
pub use store::GraphStore;

/// Opens a `.bestk` snapshot zero-copy, in one attempt (see
/// [`snapv2::open_with_retry`]).
pub fn open_snapshot_v2<P: AsRef<Path>>(path: P) -> Result<Dataset, EngineError> {
    snapv2::open_with_retry(path, &RetryPolicy::none())
}

/// Writes a built dataset as a `.bestk` snapshot, in one attempt (see
/// [`snapv2::save_path_with_retry`]).
pub fn save_snapshot_v2_path<P: AsRef<Path>>(
    dataset: &Dataset,
    path: P,
) -> Result<(), EngineError> {
    snapv2::save_path_with_retry(dataset, path, &RetryPolicy::none())
}
