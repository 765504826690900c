//! # bestk-graph
//!
//! Compact undirected-graph substrate for the `bestk` workspace.
//!
//! The crate provides everything the best-k core-decomposition algorithms
//! (crate `bestk-core`) need from a graph library, built from scratch with
//! flat-array storage:
//!
//! * [`CsrGraph`] — an immutable, compressed-sparse-row simple graph with
//!   `u32` vertex ids and cache-friendly adjacency slices.
//! * [`GraphBuilder`] — deduplicating, self-loop-stripping builder that turns
//!   arbitrary edge streams into a [`CsrGraph`] in linear time.
//! * [`io`] — plain-text edge-list and compact binary readers/writers.
//! * [`generators`] — seeded synthetic workloads (Erdős–Rényi, Chung–Lu
//!   power-law, Barabási–Albert, R-MAT, planted partitions, and the paper's
//!   worked example), used as stand-ins for the SNAP datasets of the paper's
//!   evaluation.
//! * [`connectivity`] — connected components, BFS, and reachability helpers.
//! * [`subgraph`] — induced-subgraph extraction (used by the baselines).
//! * [`stats`] — degree statistics reported in the paper's Table III.
//!
//! ## Example
//!
//! ```
//! use bestk_graph::{CsrGraph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g: CsrGraph = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(0), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
pub mod bytecsr;
pub mod cast;
pub mod connectivity;
mod csr;
mod error;
pub mod generators;
pub mod io;
pub mod rng;
pub mod stats;
pub mod subgraph;
pub mod testkit;
pub mod transform;
pub mod verify;
mod view;
pub mod weighted;

pub use builder::GraphBuilder;
pub use bytecsr::ByteCsr;
pub use csr::{CsrGraph, EdgeIter, VertexId};
pub use error::GraphError;
pub use view::{GraphView, Neighbors};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
