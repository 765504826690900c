//! # bestk-core
//!
//! A from-scratch Rust implementation of *"Finding the Best k in Core
//! Decomposition: A Time and Space Optimal Solution"* (Chu, Zhang, Lin,
//! Zhang, Zhang, Xia, Zhang — ICDE 2020).
//!
//! Given a graph and a community scoring metric, the crate finds
//!
//! 1. the **best k-core set**: the `k` whose k-core set `C_k` scores highest
//!    over all `0 ≤ k ≤ kmax` (paper §III), and
//! 2. the **best single k-core**: the individual connected k-core with the
//!    highest score over all `k` (paper §IV),
//!
//! in worst-case optimal time and space: `O(m)` for metrics over vertex /
//! edge / boundary counts, `O(m^1.5)` for triangle-based metrics, both with
//! `O(m)` space. The peel adds an `O(n log n)` worst-case term: it sorts
//! each level's opening frontier by id so the peel order is canonical
//! (see [`decomposition`]).
//!
//! ## Pipeline
//!
//! | stage | paper | module |
//! |-------|-------|--------|
//! | core decomposition (`O(n log n + m)`) | §II-A | [`decomposition`] |
//! | vertex ordering + position tags | Alg. 1, §III-B | [`ordering`] |
//! | best k-core set sweep | Alg. 2–3, §III-C/D | [`bestkset`] |
//! | LCPS core forest | Alg. 4, §IV-A | [`forest`] |
//! | best single k-core | Alg. 5, §IV-C | [`bestcore`] |
//! | primary values & metrics | §II-C | [`metrics`] |
//! | baselines (comparators / oracles) | §III-A, §IV-B | [`baseline`] |
//! | triangle counting primitives | ref. \[35\] | [`triangles`] |
//!
//! ## Quick start
//!
//! ```
//! use bestk_core::{analyze, Metric};
//! use bestk_graph::generators;
//!
//! let g = generators::paper_figure2();
//! let analysis = analyze(&g);
//!
//! // Example 4 of the paper: with the average-degree metric the best
//! // k-core set is at k = 2. Under internal density, the best single
//! // k-core is one of the two 4-cliques.
//! let set = analysis.best_core_set(&Metric::AverageDegree).unwrap();
//! assert_eq!(set.k, 2);
//! let core = analysis.best_single_core(&Metric::InternalDensity).unwrap();
//! assert_eq!(core.k, 3);
//! assert_eq!(core.score, 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod baseline;
pub mod bestcore;
pub mod bestkset;
pub mod corestats;
pub mod decomposition;
pub mod forest;
pub mod hindex;
pub mod metrics;
pub mod ordering;
pub mod triangles;
pub mod verify;
pub mod weighted;

pub use analysis::{analyze, analyze_basic, analyze_basic_with, analyze_with, BestKAnalysis};
pub use bestcore::{best_single_core, single_core_profile, BestCore, SingleCoreProfile};
pub use bestkset::{best_k_core_set, core_set_profile, BestKSet, CoreSetProfile};
pub use decomposition::{core_decomposition, core_decomposition_with, par_peel, CoreDecomposition};
pub use forest::{CoreForest, CoreForestNode};
pub use metrics::{best_k, CommunityMetric, GraphContext, Metric, MetricError, PrimaryValues};
pub use ordering::OrderedGraph;
pub use weighted::{
    weighted_core_decomposition, weighted_core_set_profile, WeightedCoreDecomposition,
    WeightedCoreSetProfile,
};
