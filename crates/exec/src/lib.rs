//! # bestk-exec
//!
//! The workspace's shared execution-policy runtime. The kernels whose
//! second worker measurably pays — the Alg. 1 position-tag scan, the index
//! build's stage overlap, h-index rounds and truss support counting — and
//! the engine's query batches route their loop structure through an
//! [`ExecPolicy`] instead of hand-rolling `std::thread` plumbing. The peel
//! and CSR construction run on the calling thread: fanned out, they ran
//! slower at two workers than at one, so their fan-outs were deleted
//! (DESIGN.md §9). The runtime buys four things:
//!
//! 1. **One scheduling strategy.** Work is split into contiguous chunks
//!    (evenly, or edge-balanced via [`ChunkPlan::weighted`] for skewed
//!    per-item costs) and claimed dynamically off one claim loop by scoped
//!    workers, each with its own scratch allocation.
//! 2. **A thread budget.** A policy of `N` threads never runs more than `N`
//!    threads at once. [`ExecPolicy::map_chunks`] spawns `N` workers while
//!    the caller waits; [`ExecPolicy::map_disjoint_beside`] spawns `N - 1`
//!    while the caller runs a task of its own (the index build's core
//!    forest, or one of its two profile sweeps), after which the caller
//!    claims the chunks still left.
//! 3. **A determinism contract.** Chunk results are merged in chunk order
//!    regardless of which worker finished first, so a kernel whose per-chunk
//!    computation is deterministic produces bit-identical output at every
//!    thread count — enforced workspace-wide by the parallel-equals-
//!    sequential property tests.
//! 4. **A policed seam.** The `bestk-analyze` `no-raw-thread` lint forbids
//!    `std::thread::spawn` / `std::thread::scope` outside this crate, so
//!    future parallelism (sharding, async backends) grows here, not ad hoc.
//!
//! The crate is dependency-free and uses only scoped threads; no worker
//! outlives the call that spawned it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chunk;
mod policy;
mod runtime;

pub use chunk::{prefix_sum, ChunkPlan};
pub use policy::{ExecError, ExecPolicy};
