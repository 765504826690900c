//! Incremental best-k maintenance under edge streams.
//!
//! The paper's pipeline (peel → order/tags → sweep) answers best-k queries
//! over an *immutable* graph. This crate makes the index live under
//! single-edge inserts and deletes, in three layers:
//!
//! * [`overlay`] — [`DeltaOverlay`], a slot's staged ops: validated edge
//!   ops over any immutable [`GraphView`] backend, kept as the op list plus
//!   the set of edges whose presence they flip, and materialized back into
//!   canonical CSR when the load replays a log.
//! * [`index`] — [`DeltaIndex`], the maintained pipeline state: coreness,
//!   shell order, Alg. 1 tags, and Alg. 2 primaries, repaired per op in
//!   time proportional to the affected region and bit-identical to a
//!   from-scratch rebuild.
//! * [`wal`] — [`DeltaLog`], the durable write-ahead delta log: staged ops
//!   are checksummed and length-framed on disk, committed with an fsync'd
//!   marker, replayed on load, and compacted into the next snapshot.
//!
//! [`GraphView`]: bestk_graph::GraphView

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use bestk_graph::generators::EdgeOp;
use bestk_graph::VertexId;

pub mod index;
pub mod overlay;
pub mod wal;

pub use index::{ApplyStats, DeltaIndex};
pub use overlay::DeltaOverlay;
pub use wal::{first_bad_record, replay_bytes, replay_path, DeltaLog, Replay, WAL_MAGIC};

/// Failures from staging, applying, or replaying edge mutations.
#[derive(Debug)]
pub enum DeltaError {
    /// An I/O failure against the write-ahead log.
    Io(std::io::Error),
    /// A semantically invalid op (self-loop, out-of-range endpoint,
    /// duplicate insert, delete of an absent edge). The index is untouched.
    BadOp(String),
    /// The on-disk log is not a delta log at all (bad magic) — as opposed
    /// to a torn tail, which replay trims silently.
    BadLog(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Io(e) => write!(f, "delta log i/o failure: {e}"),
            DeltaError::BadOp(msg) => write!(f, "invalid edge op: {msg}"),
            DeltaError::BadLog(msg) => write!(f, "unreadable delta log: {msg}"),
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DeltaError {
    fn from(e: std::io::Error) -> DeltaError {
        DeltaError::Io(e)
    }
}

/// Validates `op` against a graph of `n` vertices in which `present`
/// reports whether an edge exists. `present` runs only once both endpoints
/// are in range, so it may index per-vertex state. The overlay and the
/// index share this check, so every rejection reads the same.
pub(crate) fn validate_op(
    op: &EdgeOp,
    n: usize,
    present: impl FnOnce(VertexId, VertexId) -> bool,
) -> Result<(), DeltaError> {
    let (u, v) = op.endpoints();
    if u == v {
        return Err(DeltaError::BadOp(format!("self-loop on vertex {u}")));
    }
    if (u as usize) >= n || (v as usize) >= n {
        return Err(DeltaError::BadOp(format!(
            "edge ({u}, {v}) out of range for {n} vertices"
        )));
    }
    match (op.is_insert(), present(u, v)) {
        (true, true) => Err(DeltaError::BadOp(format!(
            "edge ({u}, {v}) already present"
        ))),
        (false, false) => Err(DeltaError::BadOp(format!("edge ({u}, {v}) not present"))),
        _ => Ok(()),
    }
}
