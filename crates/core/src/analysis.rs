//! One-call facade over the whole pipeline.
//!
//! [`analyze`] runs decomposition → ordering → sweeps → forest once and
//! stores the *profiles* (per-k and per-core primary values), after which
//! every metric — including user-defined [`CommunityMetric`]s — is scored in
//! `O(kmax)` / `O(#cores)` with no further graph traversal. This mirrors the
//! paper's point that the primaries, not the scores, are the expensive part.
//!
//! [`build_stages`] is the build's stage schedule past the peel, shared with
//! the engine's artifact build: which stage runs beside which.

use bestk_exec::{ChunkPlan, ExecPolicy};
use bestk_graph::{GraphView, VertexId};

use crate::bestcore::{single_core_profile, BestCore, SingleCoreProfile};
use crate::bestkset::{core_set_profile, BestKSet, CoreSetProfile};
use crate::decomposition::{core_decomposition, CoreDecomposition};
use crate::forest::CoreForest;
use crate::metrics::{CommunityMetric, MetricError};
use crate::ordering::OrderedGraph;

/// Precomputed best-k state for one graph: the decomposition, the core
/// forest, and both primary-value profiles.
#[derive(Debug, Clone)]
pub struct BestKAnalysis {
    decomp: CoreDecomposition,
    forest: CoreForest,
    set_profile: CoreSetProfile,
    core_profile: SingleCoreProfile,
}

/// Runs the full pipeline with triangle counting (`O(m^1.5)`), enabling all
/// six paper metrics plus any custom one.
pub fn analyze<G: GraphView + Sync>(g: &G) -> BestKAnalysis {
    analyze_inner(g, true)
}

/// Runs the pipeline without triangle counting (`O(n log n + m)`, the
/// peel's bound); clustering coefficient (and any [`CommunityMetric`] with
/// [`needs_triangles`](CommunityMetric::needs_triangles)) is unavailable.
pub fn analyze_basic<G: GraphView + Sync>(g: &G) -> BestKAnalysis {
    analyze_inner(g, false)
}

/// [`analyze`] under an execution policy, scheduled by [`build_stages`]:
/// the peel and the forest run on the calling thread, while the Alg. 1 tag
/// scan, the triangle listing and Alg. 3's sweep run on the policy's
/// workers. The analysis is identical to the sequential one at every
/// thread count.
pub fn analyze_with<G: GraphView + Sync>(g: &G, policy: &ExecPolicy) -> BestKAnalysis {
    analyze_inner_with(g, true, policy)
}

/// [`analyze_basic`] under an execution policy; see [`analyze_with`].
pub fn analyze_basic_with<G: GraphView + Sync>(g: &G, policy: &ExecPolicy) -> BestKAnalysis {
    analyze_inner_with(g, false, policy)
}

fn analyze_inner<G: GraphView + Sync>(g: &G, with_triangles: bool) -> BestKAnalysis {
    analyze_inner_with(g, with_triangles, &ExecPolicy::Sequential)
}

fn analyze_inner_with<G: GraphView + Sync>(
    g: &G,
    with_triangles: bool,
    policy: &ExecPolicy,
) -> BestKAnalysis {
    let decomp = core_decomposition(g);
    let Stages {
        forest,
        set_profile,
        core_profile,
        ..
    } = build_stages(g, &decomp, with_triangles, policy);
    BestKAnalysis {
        decomp,
        forest,
        set_profile,
        core_profile,
    }
}

/// Below this many edges [`build_stages`] runs every stage on the calling
/// thread. Each overlap spawns a scoped worker, and on a 2-vCPU host a
/// scoped spawn and join takes ~25 µs at p50, more than a profile sweep
/// over ~3,500 edges (~20 µs). Timed there with no minimum, a whole build
/// at two threads ran slower than at one below ~4,000 edges; near this
/// size it breaks even, and above it the second thread pays.
/// `BENCH_exec.json`'s `exec/artifacts_small` rows time a build of 6,592
/// edges at one and two threads.
const MIN_OVERLAP_EDGES: usize = 6_000;

/// What one build computes past the peel.
#[derive(Debug)]
pub struct Stages<'a> {
    /// The Alg. 1 ordering; it holds the min-rank triangle counts when the
    /// build listed them.
    pub ordered: OrderedGraph<'a>,
    /// The core forest (Alg. 4).
    pub forest: CoreForest,
    /// Per-k primaries of every k-core set (Alg. 2, or Alg. 3 with
    /// triangles).
    pub set_profile: CoreSetProfile,
    /// Per-core primaries of every forest node (Alg. 5).
    pub core_profile: SingleCoreProfile,
}

/// The build's stage schedule past the peel, which both [`analyze_with`]
/// and the engine's artifact build run:
///
/// 1. Alg. 1's ordering, its tag scan on the policy's workers;
/// 2. the core forest on the calling thread, while the policy's other
///    workers list the min-rank triangles over degree-weighted chunks (only
///    `with_triangles`); the caller lists the chunks left once the forest
///    is done ([`OrderedGraph::list_triangles_beside`]);
/// 3. Alg. 5's sweep on the calling thread, while Alg. 3's (or Alg. 2's)
///    sweep runs on another worker. Both read the triangle counts the
///    ordering cached in step 2.
///
/// A policy of `N` threads never runs more than `N` threads. A graph with
/// fewer than `MIN_OVERLAP_EDGES` edges builds entirely on the calling
/// thread, where a spawned worker would cost more than it saves. Every
/// product is identical at every thread count.
pub fn build_stages<'a, G: GraphView + Sync>(
    g: &G,
    decomp: &'a CoreDecomposition,
    with_triangles: bool,
    policy: &ExecPolicy,
) -> Stages<'a> {
    let policy = if g.num_edges() < MIN_OVERLAP_EDGES {
        ExecPolicy::Sequential
    } else {
        *policy
    };
    let ordered = OrderedGraph::build_with(g, decomp, &policy);
    let build_forest = || CoreForest::build(g, decomp);
    let forest = if with_triangles {
        ordered.list_triangles_beside(&policy, build_forest)
    } else {
        build_forest()
    };
    // One chunk, so one worker: Alg. 3's sweep beside Alg. 5's.
    let sweep = ChunkPlan::even(1, 1);
    let (core_profile, mut set_profiles) = policy.map_disjoint_beside(
        &sweep,
        &mut [()],
        sweep.bounds(),
        || (),
        |(), _, _, _| core_set_profile(&ordered, with_triangles),
        || single_core_profile(&ordered, &forest, with_triangles),
    );
    // bestk-analyze: allow(no-unwrap) — a one-chunk plan returns exactly one chunk result
    let set_profile = set_profiles.pop().expect("one chunk, one result");
    Stages {
        ordered,
        forest,
        set_profile,
        core_profile,
    }
}

impl BestKAnalysis {
    /// The core decomposition.
    pub fn decomposition(&self) -> &CoreDecomposition {
        &self.decomp
    }

    /// The core forest.
    pub fn forest(&self) -> &CoreForest {
        &self.forest
    }

    /// The per-k profile of the k-core sets.
    pub fn set_profile(&self) -> &CoreSetProfile {
        &self.set_profile
    }

    /// The per-core profile over the forest nodes.
    pub fn core_profile(&self) -> &SingleCoreProfile {
        &self.core_profile
    }

    /// Largest coreness in the graph.
    pub fn kmax(&self) -> u32 {
        self.decomp.kmax()
    }

    /// Problem 1 (§II-B): the best k-core set under `metric`; a typed
    /// [`MetricError`] when the metric cannot be scored on this analysis.
    pub fn try_best_core_set<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Option<BestKSet>, MetricError> {
        self.set_profile.try_best(metric)
    }

    /// [`try_best_core_set`](Self::try_best_core_set) as a panicking
    /// convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the analysis was built
    /// without them.
    pub fn best_core_set<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Option<BestKSet> {
        self.set_profile.best(metric)
    }

    /// Problem 2 (§II-B): the best single k-core under `metric`; a typed
    /// [`MetricError`] when the metric cannot be scored on this analysis.
    pub fn try_best_single_core<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Option<BestCore>, MetricError> {
        self.core_profile.try_best(metric)
    }

    /// [`try_best_single_core`](Self::try_best_single_core) as a panicking
    /// convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the analysis was built
    /// without them.
    pub fn best_single_core<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Option<BestCore> {
        self.core_profile.best(metric)
    }

    /// Score of every k-core set (`result[k]` = score of `C_k`); the data
    /// series of the paper's Figure 5. A typed [`MetricError`] when the
    /// metric cannot be scored on this analysis.
    pub fn try_core_set_scores<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Vec<f64>, MetricError> {
        self.set_profile.try_scores(metric)
    }

    /// [`try_core_set_scores`](Self::try_core_set_scores) as a panicking
    /// convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the analysis was built
    /// without them.
    pub fn core_set_scores<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Vec<f64> {
        self.set_profile.scores(metric)
    }

    /// Score of every single k-core as Figure 6's `(k, score)` sequence; a
    /// typed [`MetricError`] when the metric cannot be scored.
    pub fn try_single_core_scores<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Vec<(u32, f64)>, MetricError> {
        self.core_profile.try_sequence(metric)
    }

    /// [`try_single_core_scores`](Self::try_single_core_scores) as a
    /// panicking convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the analysis was built
    /// without them.
    pub fn single_core_scores<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Vec<(u32, f64)> {
        self.core_profile.sequence(metric)
    }

    /// Materializes the vertex set of the best single k-core under `metric`
    /// (`None` if every score is non-finite).
    pub fn best_single_core_vertices<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Option<Vec<VertexId>> {
        self.best_single_core(metric)
            .map(|b| self.forest.core_vertices(b.node))
    }

    /// Materializes the vertex set of the best k-core set under `metric`.
    pub fn best_core_set_vertices<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Option<Vec<VertexId>> {
        self.best_core_set(metric)
            .map(|b| self.decomp.core_set_vertices(b.k).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use bestk_graph::generators;

    #[test]
    fn facade_runs_all_metrics_on_figure2() {
        // Example 4: with average degree, the best set is at k = 2; the best
        // single core is the whole graph (avg degree 19/6 beats the K4s).
        // Under internal density the best single core is a K4.
        let g = generators::paper_figure2();
        let a = analyze(&g);
        assert_eq!(a.kmax(), 3);
        assert_eq!(a.best_core_set(&Metric::AverageDegree).unwrap().k, 2);
        let best = a.best_single_core(&Metric::AverageDegree).unwrap();
        assert_eq!(best.k, 2);
        let verts = a
            .best_single_core_vertices(&Metric::InternalDensity)
            .unwrap();
        assert_eq!(verts.len(), 4);
        // Clustering coefficient prefers the 3-core set (Example 5).
        assert_eq!(
            a.best_core_set(&Metric::ClusteringCoefficient).unwrap().k,
            3
        );
    }

    #[test]
    fn basic_analysis_rejects_cc() {
        let g = generators::paper_figure2();
        let a = analyze_basic(&g);
        assert!(a.best_core_set(&Metric::AverageDegree).is_some());
        assert!(matches!(
            a.try_best_core_set(&Metric::ClusteringCoefficient),
            Err(MetricError::MissingTriangles { .. })
        ));
        assert!(matches!(
            a.try_best_single_core(&Metric::ClusteringCoefficient),
            Err(MetricError::MissingTriangles { .. })
        ));
        assert!(matches!(
            a.try_core_set_scores(&Metric::ClusteringCoefficient),
            Err(MetricError::MissingTriangles { .. })
        ));
        assert!(matches!(
            a.try_single_core_scores(&Metric::ClusteringCoefficient),
            Err(MetricError::MissingTriangles { .. })
        ));
    }

    #[test]
    fn facade_consistent_with_direct_calls() {
        let g = generators::chung_lu_power_law(600, 7.0, 2.5, 99);
        let a = analyze(&g);
        let d = crate::core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        for m in Metric::ALL {
            assert_eq!(
                a.best_core_set(&m),
                crate::bestkset::best_k_core_set(&o, &m),
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn policy_analysis_matches_sequential() {
        let g = generators::chung_lu_power_law(300, 6.0, 2.4, 17);
        let reference = analyze(&g);
        for threads in [1, 2, 4, 7] {
            let policy = bestk_exec::ExecPolicy::with_threads(threads).unwrap();
            let a = analyze_with(&g, &policy);
            for m in Metric::ALL {
                assert_eq!(
                    a.best_core_set(&m),
                    reference.best_core_set(&m),
                    "{}",
                    m.name()
                );
                assert_eq!(
                    a.core_set_scores(&m),
                    reference.core_set_scores(&m),
                    "{}",
                    m.name()
                );
                assert_eq!(a.single_core_scores(&m), reference.single_core_scores(&m));
            }
        }
    }

    #[test]
    fn score_series_shapes() {
        let g = generators::erdos_renyi_gnm(300, 1000, 4);
        let a = analyze(&g);
        let series = a.core_set_scores(&Metric::AverageDegree);
        assert_eq!(series.len(), a.kmax() as usize + 1);
        let seq = a.single_core_scores(&Metric::Conductance);
        assert_eq!(seq.len(), a.forest().node_count());
        let set_verts = a.best_core_set_vertices(&Metric::AverageDegree).unwrap();
        assert!(!set_verts.is_empty());
    }
}
