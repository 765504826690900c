//! Finding the best single k-core (paper §IV, Algorithm 5).
//!
//! Processes the compressed core forest children-first (the nodes come
//! sorted by descending coreness), aggregating each core's primary values
//! from its child cores plus the contribution of its own shell vertices —
//! the very shell step Algorithms 2/3 run per shell, here run per node. The
//! whole profile costs `O(n)` after decomposition, ordering, and forest
//! construction; with triangles it costs `O(m)` once the ordering holds its
//! min-rank triangle counts, which cost `O(m^1.5)` once per ordering.

use crate::bestkset::ShellStep;
use crate::forest::CoreForest;
use crate::metrics::{CommunityMetric, GraphContext, MetricError, PrimaryValues};
use crate::ordering::OrderedGraph;
use bestk_graph::cast;

/// Per-core primary values for every node of the core forest.
#[derive(Debug, Clone)]
pub struct SingleCoreProfile {
    /// `primaries[i]` describes the k-core of forest node `i` (shell plus
    /// all descendants).
    pub primaries: Vec<PrimaryValues>,
    /// Corenesses aligned with `primaries` (copied from the forest nodes).
    pub coreness: Vec<u32>,
    /// Whether `Δ` and `t` were computed.
    pub has_triangles: bool,
    /// Whole-graph context used for scoring.
    pub context: GraphContext,
}

/// The answer to the best-single-k-core problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestCore {
    /// Forest node index of the winning core.
    pub node: u32,
    /// Its `k`.
    pub k: u32,
    /// Its score.
    pub score: f64,
}

impl SingleCoreProfile {
    /// Scores every k-core under `metric`, aligned with the forest nodes;
    /// a typed [`MetricError`] when the metric needs triangles the profile
    /// was built without.
    pub fn try_scores<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Vec<f64>, MetricError> {
        if metric.needs_triangles() && !self.has_triangles {
            return Err(MetricError::MissingTriangles {
                metric: metric.name().to_owned(),
            });
        }
        Ok(self
            .primaries
            .iter()
            .map(|pv| metric.score(pv, &self.context))
            .collect())
    }

    /// [`try_scores`](Self::try_scores) as a panicking convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the profile lacks them.
    pub fn scores<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Vec<f64> {
        // bestk-analyze: allow(no-panic) — documented panicking facade over try_scores
        self.try_scores(metric).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The best single k-core under `metric`; ties prefer the largest `k`
    /// (the forest's descending-coreness order makes this the first
    /// maximum). `NaN` scores are skipped; `Ok(None)` when every score is
    /// `NaN`, a typed [`MetricError`] when the metric cannot be scored.
    pub fn try_best<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Option<BestCore>, MetricError> {
        let _span = bestk_obs::span!("phase.select");
        let scores = self.try_scores(metric)?;
        let mut best: Option<BestCore> = None;
        for (i, &s) in scores.iter().enumerate() {
            if !s.is_nan() && best.is_none_or(|b| s > b.score) {
                best = Some(BestCore {
                    node: cast::u32_of(i),
                    k: self.coreness[i],
                    score: s,
                });
            }
        }
        Ok(best)
    }

    /// [`try_best`](Self::try_best) as a panicking convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the profile lacks them.
    pub fn best<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Option<BestCore> {
        // bestk-analyze: allow(no-panic) — documented panicking facade over try_best
        self.try_best(metric).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's Figure 6 series: every k-core's `(k, score)`, sorted by
    /// ascending `k` with ties broken by ascending score. Non-finite scores
    /// are dropped. A typed [`MetricError`] when the metric cannot be
    /// scored.
    pub fn try_sequence<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Vec<(u32, f64)>, MetricError> {
        let mut seq: Vec<(u32, f64)> = self
            .try_scores(metric)?
            .into_iter()
            .zip(self.coreness.iter().copied())
            .filter(|(s, _)| s.is_finite())
            .map(|(s, k)| (k, s))
            .collect();
        seq.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        Ok(seq)
    }

    /// [`try_sequence`](Self::try_sequence) as a panicking convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the profile lacks them.
    pub fn sequence<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Vec<(u32, f64)> {
        // bestk-analyze: allow(no-panic) — documented panicking facade over try_sequence
        self.try_sequence(metric).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Computes per-core primary values over the forest (Algorithm 5): each
/// node sums its children's primaries, then adds its own vertices through
/// the shell step Algorithms 2/3 use. The forest's descending-coreness
/// order is the top-down sweep that step needs. With `with_triangles` this
/// reads the ordering's [`OrderedGraph::min_rank_triangles`], listing them
/// first if nothing has yet.
pub fn single_core_primaries(
    o: &OrderedGraph<'_>,
    forest: &CoreForest,
    with_triangles: bool,
) -> Vec<PrimaryValues> {
    let mut primaries = vec![PrimaryValues::default(); forest.node_count()];
    let mut step = ShellStep::new(o, with_triangles);
    for (i, node) in forest.nodes().iter().enumerate() {
        // Children first (they precede i in the array): aggregate.
        let mut pv = PrimaryValues::default();
        for &c in &node.children {
            pv.add_assign(&primaries[c as usize]);
        }
        step.add(&node.vertices, &mut pv);
        primaries[i] = pv;
    }
    primaries
}

/// Builds the full [`SingleCoreProfile`].
pub fn single_core_profile(
    o: &OrderedGraph<'_>,
    forest: &CoreForest,
    with_triangles: bool,
) -> SingleCoreProfile {
    let _span = bestk_obs::span!("phase.sweep");
    SingleCoreProfile {
        primaries: single_core_primaries(o, forest, with_triangles),
        coreness: forest.nodes().iter().map(|n| n.coreness).collect(),
        has_triangles: with_triangles,
        context: GraphContext {
            total_vertices: o.num_vertices() as u64,
            total_edges: o.num_edges() as u64,
        },
    }
}

/// One-call convenience: the best single k-core under `metric`.
pub fn best_single_core<M: CommunityMetric + ?Sized>(
    o: &OrderedGraph<'_>,
    forest: &CoreForest,
    metric: &M,
) -> Option<BestCore> {
    single_core_profile(o, forest, metric.needs_triangles()).best(metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use crate::metrics::Metric;
    use crate::ordering::OrderedGraph;
    use bestk_graph::generators::{self, regular};

    struct Fixture {
        g: bestk_graph::CsrGraph,
    }

    impl Fixture {
        fn profile(&self, with_triangles: bool) -> (SingleCoreProfile, CoreForest) {
            let d = core_decomposition(&self.g);
            let o = OrderedGraph::build(&self.g, &d);
            let f = CoreForest::build(&self.g, &d);
            (single_core_profile(&o, &f, with_triangles), f)
        }
    }

    #[test]
    fn figure2_per_core_primaries() {
        // Figure 4 / Example 6: three cores.
        //   S2, S3: the two K4s — 4 vertices, 6 edges, 3 boundary edges each
        //   split 2/1 (v3 has two shell neighbors, v9 one);
        //   S1: the whole graph — 12 vertices, 19 edges, 0 boundary.
        let fx = Fixture {
            g: generators::paper_figure2(),
        };
        let (p, f) = fx.profile(true);
        assert_eq!(p.primaries.len(), 3);
        // Root is last (lowest coreness).
        let root_idx = f.roots()[0] as usize;
        assert_eq!(root_idx, 2);
        let root = &p.primaries[root_idx];
        assert_eq!(root.num_vertices, 12);
        assert_eq!(root.internal_edges, 19);
        assert_eq!(root.boundary_edges, 0);
        // The two 3-cores (K4s).
        for i in 0..2 {
            assert_eq!(p.coreness[i], 3);
            assert_eq!(p.primaries[i].num_vertices, 4);
            assert_eq!(p.primaries[i].internal_edges, 6);
            assert_eq!(p.primaries[i].triangles, 4);
            assert_eq!(p.primaries[i].triplets, 12);
        }
        // Boundary edges of the K4s: v3 has 2 (to v5, v6), v9 has 1 (to v8).
        let mut boundaries: Vec<u64> = (0..2).map(|i| p.primaries[i].boundary_edges).collect();
        boundaries.sort_unstable();
        assert_eq!(boundaries, vec![1, 2]);
        // Whole graph: 10 triangles, 45 triplets (Example 5 at k=2).
        assert_eq!(root.triangles, 10);
        assert_eq!(root.triplets, 45);
    }

    #[test]
    fn best_single_core_per_metric_on_figure2() {
        // On Figure 2's graph the whole 2-core has average degree
        // 2·19/12 ≈ 3.17, beating both K4s (3.0) — so the best single core
        // under average degree is the root. Under internal density the K4s
        // win (density 1).
        let fx = Fixture {
            g: generators::paper_figure2(),
        };
        let (p, f) = fx.profile(false);
        let best = p.best(&Metric::AverageDegree).unwrap();
        assert_eq!(best.k, 2);
        assert!((best.score - 2.0 * 19.0 / 12.0).abs() < 1e-12);
        assert_eq!(f.core_vertices(best.node).len(), 12);
        let dense = p.best(&Metric::InternalDensity).unwrap();
        assert_eq!(dense.k, 3);
        assert!((dense.score - 1.0).abs() < 1e-12);
        assert_eq!(f.core_vertices(dense.node).len(), 4);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn per_core_matches_direct_computation_on_random_graphs() {
        use bestk_graph::subgraph::{boundary_edge_count, induced_edge_count};
        for seed in 0..4 {
            let g = generators::erdos_renyi_gnm(120, 420, seed + 7);
            let d = core_decomposition(&g);
            let o = OrderedGraph::build(&g, &d);
            let f = CoreForest::build(&g, &d);
            let primaries = single_core_primaries(&o, &f, false);
            for i in 0..f.node_count() {
                let verts = f.core_vertices(i as u32);
                let pv = &primaries[i];
                assert_eq!(
                    pv.num_vertices as usize,
                    verts.len(),
                    "n node={i} seed={seed}"
                );
                assert_eq!(
                    pv.internal_edges as usize,
                    induced_edge_count(&g, &verts),
                    "m node={i} seed={seed}"
                );
                assert_eq!(
                    pv.boundary_edges as usize,
                    boundary_edge_count(&g, &verts),
                    "b node={i} seed={seed}"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn per_core_triangles_match_naive() {
        for (label, g) in [
            ("er", generators::erdos_renyi_gnm(90, 380, 31)),
            (
                "cliques",
                generators::overlapping_cliques(120, 18, (4, 9), 13),
            ),
            (
                "planted",
                generators::planted_partition(&[25, 25, 25], 0.35, 0.03, 2).graph,
            ),
        ] {
            let d = core_decomposition(&g);
            let o = OrderedGraph::build(&g, &d);
            let f = CoreForest::build(&g, &d);
            let primaries = single_core_primaries(&o, &f, true);
            for i in 0..f.node_count() {
                let verts = f.core_vertices(i as u32);
                let sub = bestk_graph::subgraph::induced_subgraph(&g, &verts);
                let sg = &sub.graph;
                let mut tri = 0u64;
                for v in sg.vertices() {
                    for &u in sg.neighbors(v) {
                        if u <= v {
                            continue;
                        }
                        for &w in sg.neighbors(u) {
                            if w > u && sg.has_edge(v, w) {
                                tri += 1;
                            }
                        }
                    }
                }
                let trip = crate::triangles::count_triplets(sg);
                assert_eq!(primaries[i].triangles, tri, "{label} node {i}");
                assert_eq!(primaries[i].triplets, trip, "{label} node {i}");
            }
        }
    }

    #[test]
    fn best_core_on_two_unequal_cliques() {
        // K5 and K3, disjoint: the K5 wins under average degree.
        let mut b = bestk_graph::GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        b.extend_edges([(5, 6), (6, 7), (5, 7)]);
        let fx = Fixture { g: b.build() };
        let (p, f) = fx.profile(false);
        let best = p.best(&Metric::AverageDegree).unwrap();
        assert_eq!(best.k, 4);
        assert_eq!(f.core_vertices(best.node).len(), 5);
        // Under cut ratio both are perfectly separated (score 1);
        // the tie goes to the larger k.
        let best_cr = p.best(&Metric::CutRatio).unwrap();
        assert_eq!(best_cr.k, 4);
        assert!((best_cr.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_is_sorted_like_figure6() {
        let fx = Fixture {
            g: generators::chung_lu_power_law(500, 7.0, 2.4, 5),
        };
        let (p, _) = fx.profile(false);
        let seq = p.sequence(&Metric::AverageDegree);
        assert!(!seq.is_empty());
        for w in seq.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn clique_chain_cores() {
        // Three K5s bridged in a chain: all one 4-core? No — bridges have
        // both endpoints with coreness 4, so the whole chain is a single
        // connected 4-core (cf. forest tests); the profile has one node.
        let fx = Fixture {
            g: regular::clique_chain(3, 5),
        };
        let (p, _) = fx.profile(false);
        assert_eq!(p.primaries.len(), 1);
        assert_eq!(p.primaries[0].num_vertices, 15);
        assert_eq!(p.primaries[0].internal_edges, 32);
    }

    #[test]
    fn empty_graph() {
        let fx = Fixture {
            g: bestk_graph::CsrGraph::empty(0),
        };
        let (p, _) = fx.profile(true);
        assert!(p.primaries.is_empty());
        assert!(p.best(&Metric::AverageDegree).is_none());
        assert!(p.sequence(&Metric::AverageDegree).is_empty());
    }

    #[test]
    fn best_single_core_convenience() {
        let g = generators::erdos_renyi_gnm(200, 800, 17);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let f = CoreForest::build(&g, &d);
        for m in Metric::ALL {
            let a = best_single_core(&o, &f, &m);
            let b = single_core_profile(&o, &f, true).best(&m);
            assert_eq!(a, b, "{}", m.name());
        }
    }
}
