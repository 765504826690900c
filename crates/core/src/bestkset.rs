//! Finding the best k-core set (paper §III, Algorithms 2 and 3).
//!
//! Both algorithms sweep the shells *top-down* (`k = kmax … 0`), maintaining
//! the primary values of the k-core set incrementally from those of the
//! (k+1)-core set using only `O(1)` neighbor-count queries per visited
//! vertex:
//!
//! * [`core_set_primaries`] — Algorithm 2: `n(S)`, `m(S)`, `b(S)` for every
//!   k-core set in `O(n)` after the ordering is built.
//! * [`core_set_primaries_with_triangles`] — Algorithm 3: additionally
//!   `Δ(S)` and `t(S)`, in `O(m)` once the ordering holds its
//!   [`OrderedGraph::min_rank_triangles`]. Listing those costs `O(m^1.5)`,
//!   once per ordering, and Algorithm 5 reads the same counts.
//!
//! Both add one shell at a time through `ShellStep`, the per-shell body
//! Algorithm 5 (`bestcore`) runs once per forest node.
//!
//! A [`CoreSetProfile`] holds the per-k primaries; scoring any metric over it
//! costs `O(kmax)`, so one profile answers every metric (and the paper's
//! Figure 5 series) without retraversal.

use bestk_graph::VertexId;

use crate::metrics::{best_k, CommunityMetric, GraphContext, MetricError, PrimaryValues};
use crate::ordering::OrderedGraph;

/// Per-k primary values of every k-core set, `k = 0 ..= kmax`.
#[derive(Debug, Clone)]
pub struct CoreSetProfile {
    /// Largest coreness in the graph.
    pub kmax: u32,
    /// `primaries[k]` describes the k-core set `C_k`. Length `kmax + 1`.
    pub primaries: Vec<PrimaryValues>,
    /// Whether `Δ` and `t` were computed (Algorithm 3 ran).
    pub has_triangles: bool,
    /// Whole-graph context used for scoring.
    pub context: GraphContext,
}

impl CoreSetProfile {
    fn require_triangles<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<(), MetricError> {
        if metric.needs_triangles() && !self.has_triangles {
            return Err(MetricError::MissingTriangles {
                metric: metric.name().to_owned(),
            });
        }
        Ok(())
    }

    /// Scores every k-core set under `metric` (`scores[k]` is the score of
    /// `C_k`); `O(kmax)`. A typed [`MetricError`] when the metric needs
    /// triangles the profile was built without.
    pub fn try_scores<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Vec<f64>, MetricError> {
        self.require_triangles(metric)?;
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
    /// Panics if the metric needs triangles but the profile was built without
    /// them.
    pub fn scores<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Vec<f64> {
        // bestk-analyze: allow(no-panic) — documented panicking facade over try_scores
        self.try_scores(metric).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The best k under `metric` (ties to the largest k), with its score;
    /// a typed [`MetricError`] when the metric cannot be scored on this
    /// profile.
    pub fn try_best<M: CommunityMetric + ?Sized>(
        &self,
        metric: &M,
    ) -> Result<Option<BestKSet>, MetricError> {
        let _span = bestk_obs::span!("phase.select");
        Ok(best_k(&self.try_scores(metric)?).map(|(k, score)| BestKSet { k, score }))
    }

    /// [`try_best`](Self::try_best) as a panicking convenience.
    ///
    /// # Panics
    ///
    /// Panics if the metric needs triangles but the profile was built without
    /// them.
    pub fn best<M: CommunityMetric + ?Sized>(&self, metric: &M) -> Option<BestKSet> {
        // bestk-analyze: allow(no-panic) — documented panicking facade over try_best
        self.try_best(metric).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The answer to the best-k-core-set problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestKSet {
    /// The best value of `k`.
    pub k: u32,
    /// The score of the k-core set at that `k`.
    pub score: f64,
}

/// Algorithm 2: primary values `n`, `m`, `b` of every k-core set in `O(n)`.
///
/// Top-down over shells: the k-core set `C_k` is `H_k` plus `C_{k+1}`, so
/// each shell is added to a running sum by the `ShellStep` below.
pub fn core_set_primaries(o: &OrderedGraph<'_>) -> Vec<PrimaryValues> {
    sweep_shells(o, false)
}

/// Algorithm 3: like [`core_set_primaries`] but additionally maintains
/// triangle and triplet counts, in `O(m)` time and `O(n)` extra space once
/// the ordering holds its [`OrderedGraph::min_rank_triangles`] (listing
/// them costs `O(m^1.5)`, once per ordering).
pub fn core_set_primaries_with_triangles(o: &OrderedGraph<'_>) -> Vec<PrimaryValues> {
    sweep_shells(o, true)
}

/// Feeds the shells `k = kmax … 0` to one [`ShellStep`], recording the
/// running sum after each.
fn sweep_shells(o: &OrderedGraph<'_>, with_triangles: bool) -> Vec<PrimaryValues> {
    let d = o.decomposition();
    let kmax = d.kmax();
    let mut primaries = vec![PrimaryValues::default(); kmax as usize + 1];
    let mut step = ShellStep::new(o, with_triangles);
    let mut pv = PrimaryValues::default();
    for k in (0..=kmax).rev() {
        step.add(d.shell(k), &mut pv);
        primaries[k as usize] = pv;
    }
    primaries
}

/// The shell step Algorithms 2/3 and 5 share. [`add`](Self::add) takes a
/// group of coreness-`k` vertices and adds them to `pv`, the primaries of
/// what was swept above them (the (k+1)-core set, or a forest node's child
/// cores):
///
/// * `n`, `m`, `b` from the position tags: each `v` brings
///   `|N(v,>)| + ½ |N(v,=)|` internal edges (higher-coreness edges become
///   internal; same-shell edges are split between their two endpoints) and
///   `|N(v,<)| − |N(v,>)|` boundary edges (lower-coreness edges join the
///   boundary; the higher-coreness ones leave it);
/// * `Δ` as `Σ t[v]` over [`OrderedGraph::min_rank_triangles`];
/// * `t` by Algorithm 3's triplet recurrence (lines 13-22).
///
/// Groups arrive in descending coreness, and each is a whole shell `H_k` or
/// the part of `H_k` inside one k-core (a forest node). The latter is sound
/// because distinct k-cores share no edge, triangle or wedge.
pub(crate) struct ShellStep<'o, 'a> {
    o: &'o OrderedGraph<'a>,
    /// `None` for Algorithm 2, which never lists triangles.
    triangles: Option<TriangleState<'o>>,
}

/// The triangle and triplet state a [`ShellStep`] carries across groups.
struct TriangleState<'o> {
    /// `t[v]`, the min-rank triangle counts.
    min_rank: &'o [u64],
    /// `f_ge[w]` / `f_gt[w]`: neighbors of `w` fed so far / fed before the
    /// current group (valid for `w` above the current group).
    f_ge: Vec<u32>,
    f_gt: Vec<u32>,
    /// `seen[w] == group`: `w` is already in `above`.
    seen: Vec<u32>,
    /// Groups fed so far; stamps `seen`.
    group: u32,
    /// The current group's distinct higher-coreness neighbors.
    above: Vec<VertexId>,
}

impl<'o, 'a> ShellStep<'o, 'a> {
    /// A step over `o`; with `with_triangles` it lists the ordering's
    /// min-rank triangle counts if nothing has yet.
    pub(crate) fn new(o: &'o OrderedGraph<'a>, with_triangles: bool) -> Self {
        let n = o.num_vertices();
        let triangles = with_triangles.then(|| TriangleState {
            min_rank: o.min_rank_triangles(),
            f_ge: vec![0; n],
            f_gt: vec![0; n],
            seen: vec![0; n],
            group: 0,
            above: Vec::new(),
        });
        ShellStep { o, triangles }
    }

    /// Adds `group`'s contribution to `pv`.
    pub(crate) fn add(&mut self, group: &[VertexId], pv: &mut PrimaryValues) {
        let o = self.o;
        let mut in_twice: u64 = 0; // 2 * new internal edges
        let mut out = pv.boundary_edges as i64;
        for &v in group {
            let gt = o.count_gt(v) as u64;
            let eq = o.count_eq(v) as u64;
            let lt = o.count_lt(v) as u64;
            in_twice += 2 * gt + eq;
            out += lt as i64 - gt as i64;
        }
        debug_assert!(
            in_twice.is_multiple_of(2),
            "same-shell half-edges must pair up within a group"
        );
        debug_assert!(out >= 0, "boundary count cannot go negative");
        pv.num_vertices += group.len() as u64;
        pv.internal_edges += in_twice / 2;
        pv.boundary_edges = out as u64;
        if let Some(t) = &mut self.triangles {
            t.add(o, group, pv);
        }
    }
}

impl TriangleState<'_> {
    fn add(&mut self, o: &OrderedGraph<'_>, group: &[VertexId], pv: &mut PrimaryValues) {
        self.group += 1;
        // Triangles with their minimum-rank vertex in the group (lines 7-12)
        // and triplets centered in it (line 13).
        let mut triplets = 0u64;
        for &v in group {
            pv.triangles += self.min_rank[v as usize];
            triplets += choose2(o.count_ge(v) as u64);
        }
        // Triplets centered above the group (lines 14-22).
        self.above.clear();
        for &v in group {
            for &u in o.neighbors_gt(v) {
                if self.seen[u as usize] != self.group {
                    self.seen[u as usize] = self.group;
                    self.above.push(u);
                }
            }
        }
        for &w in &self.above {
            self.f_gt[w as usize] = self.f_ge[w as usize];
        }
        for &v in group {
            for &u in o.neighbors(v) {
                self.f_ge[u as usize] += 1;
            }
        }
        for &w in &self.above {
            let gt_k = self.f_gt[w as usize] as u64;
            let eq_k = (self.f_ge[w as usize] - self.f_gt[w as usize]) as u64;
            triplets += choose2(eq_k) + gt_k * eq_k;
        }
        pv.triplets += triplets;
    }
}

/// Ablation variant (DESIGN.md §6.2): the same incremental primaries
/// computed **bottom-up** (`k = 0 … kmax`), *subtracting* each shell on the
/// way up instead of adding it on the way down.
///
/// For the basic primaries the two directions are symmetric and equally
/// cheap — this function exists to demonstrate that, and to contrast with
/// the triangle/triplet primaries, where bottom-up would need to *recount*
/// destroyed triangles (deletion is not incremental) and degenerates to the
/// baseline's cost. That asymmetry is exactly why the paper sweeps
/// top-down (§III-C: "it is costly to count some primary values in a
/// bottom-up manner").
pub fn core_set_primaries_bottom_up(o: &OrderedGraph<'_>) -> Vec<PrimaryValues> {
    let d = o.decomposition();
    let kmax = d.kmax();
    let mut primaries = vec![PrimaryValues::default(); kmax as usize + 1];
    let mut in_twice: u64 = 2 * o.num_edges() as u64;
    let mut out: i64 = 0;
    let mut num: u64 = o.num_vertices() as u64;
    primaries[0] = PrimaryValues {
        num_vertices: num,
        internal_edges: in_twice / 2,
        boundary_edges: 0,
        ..Default::default()
    };
    for k in 1..=kmax {
        // Remove the (k-1)-shell: intra-shell and shell-to-higher edges
        // stop being internal; shell-to-higher edges become boundary, and
        // the shell's old boundary edges (to lower coreness) vanish.
        for &v in d.shell(k - 1) {
            let gt = o.count_gt(v) as u64;
            let eq = o.count_eq(v) as u64;
            let lt = o.count_lt(v) as u64;
            in_twice -= 2 * gt + eq;
            out += gt as i64 - lt as i64;
            num -= 1;
        }
        debug_assert!(in_twice.is_multiple_of(2));
        debug_assert!(out >= 0);
        primaries[k as usize] = PrimaryValues {
            num_vertices: num,
            internal_edges: in_twice / 2,
            boundary_edges: out as u64,
            ..Default::default()
        };
    }
    primaries
}

#[inline]
fn choose2(x: u64) -> u64 {
    x * x.saturating_sub(1) / 2
}

/// Builds the full [`CoreSetProfile`]; runs Algorithm 3 when
/// `with_triangles`, otherwise Algorithm 2.
pub fn core_set_profile(o: &OrderedGraph<'_>, with_triangles: bool) -> CoreSetProfile {
    let _span = bestk_obs::span!("phase.sweep");
    let primaries = sweep_shells(o, with_triangles);
    CoreSetProfile {
        kmax: o.decomposition().kmax(),
        primaries,
        has_triangles: with_triangles,
        context: GraphContext {
            total_vertices: o.num_vertices() as u64,
            total_edges: o.num_edges() as u64,
        },
    }
}

/// One-call convenience: the best k-core set under `metric` (Algorithm 2 or
/// 3, chosen by [`CommunityMetric::needs_triangles`]).
pub fn best_k_core_set<M: CommunityMetric + ?Sized>(
    o: &OrderedGraph<'_>,
    metric: &M,
) -> Option<BestKSet> {
    core_set_profile(o, metric.needs_triangles()).best(metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use crate::metrics::Metric;
    use bestk_graph::generators::{self, regular};

    fn profile(g: &bestk_graph::CsrGraph, triangles: bool) -> CoreSetProfile {
        let d = core_decomposition(g);
        let o = OrderedGraph::build(g, &d);
        core_set_profile(&o, triangles)
    }

    #[test]
    fn example4_average_degree_sweep() {
        // Paper Example 4 on the Figure 2 graph:
        // 3-core set: 12 internal edges over 8 vertices (avg degree 3);
        // 2-core set: 19 internal edges over 12 vertices (avg degree ~3.17);
        // best k for average degree is 2.
        let g = generators::paper_figure2();
        let p = profile(&g, false);
        assert_eq!(p.kmax, 3);
        assert_eq!(p.primaries[3].internal_edges, 12);
        assert_eq!(p.primaries[3].num_vertices, 8);
        assert_eq!(p.primaries[2].internal_edges, 19);
        assert_eq!(p.primaries[2].num_vertices, 12);
        let scores = p.scores(&Metric::AverageDegree);
        assert!((scores[3] - 3.0).abs() < 1e-12);
        assert!((scores[2] - 2.0 * 19.0 / 12.0).abs() < 1e-12);
        let best = p.best(&Metric::AverageDegree).unwrap();
        assert_eq!(best.k, 2);
    }

    #[test]
    fn example5_clustering_coefficient_sweep() {
        // Paper Example 5: 3-core set has 8 triangles / 24 triplets (cc = 1);
        // 2-core set has 10 triangles / 45 triplets (cc ≈ 0.67); best k = 3.
        let g = generators::paper_figure2();
        let p = profile(&g, true);
        assert_eq!(p.primaries[3].triangles, 8);
        assert_eq!(p.primaries[3].triplets, 24);
        assert_eq!(p.primaries[2].triangles, 10);
        assert_eq!(p.primaries[2].triplets, 45);
        let scores = p.scores(&Metric::ClusteringCoefficient);
        assert!((scores[3] - 1.0).abs() < 1e-12);
        assert!((scores[2] - 30.0 / 45.0).abs() < 1e-12);
        assert_eq!(p.best(&Metric::ClusteringCoefficient).unwrap().k, 3);
    }

    #[test]
    fn boundary_edges_of_figure2() {
        // Example 6: the 3-core set has 3 boundary edges (v3-v5, v3-v6, v8-v9).
        let g = generators::paper_figure2();
        let p = profile(&g, false);
        assert_eq!(p.primaries[3].boundary_edges, 3);
        // The whole graph (k <= 2) has no boundary.
        assert_eq!(p.primaries[2].boundary_edges, 0);
        assert_eq!(p.primaries[0].boundary_edges, 0);
    }

    #[test]
    fn complete_graph_profile() {
        let g = regular::complete(6);
        let p = profile(&g, true);
        assert_eq!(p.kmax, 5);
        for k in 0..=5usize {
            // Every core set is the whole K6.
            assert_eq!(p.primaries[k].num_vertices, 6);
            assert_eq!(p.primaries[k].internal_edges, 15);
            assert_eq!(p.primaries[k].boundary_edges, 0);
            assert_eq!(p.primaries[k].triangles, 20);
            assert_eq!(p.primaries[k].triplets, 6 * choose2(5));
        }
        let scores = p.scores(&Metric::ClusteringCoefficient);
        assert!((scores[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn primaries_match_baseline_on_random_graphs() {
        use bestk_graph::subgraph::{boundary_edge_count, induced_edge_count};
        for seed in 0..4 {
            let g = generators::erdos_renyi_gnm(120, 420, seed);
            let d = core_decomposition(&g);
            let o = OrderedGraph::build(&g, &d);
            let primaries = core_set_primaries(&o);
            for k in 0..=d.kmax() {
                let verts = d.core_set_vertices(k);
                let pv = &primaries[k as usize];
                assert_eq!(
                    pv.num_vertices as usize,
                    verts.len(),
                    "n at k={k} seed={seed}"
                );
                assert_eq!(
                    pv.internal_edges as usize,
                    induced_edge_count(&g, verts),
                    "m at k={k} seed={seed}"
                );
                assert_eq!(
                    pv.boundary_edges as usize,
                    boundary_edge_count(&g, verts),
                    "b at k={k} seed={seed}"
                );
            }
        }
    }

    /// Naive per-subgraph triangle/triplet counts for cross-checking.
    fn naive_triangles_triplets(g: &bestk_graph::CsrGraph, verts: &[VertexId]) -> (u64, u64) {
        let sub = bestk_graph::subgraph::induced_subgraph(g, verts);
        let sg = &sub.graph;
        let mut triangles = 0u64;
        for v in sg.vertices() {
            for &u in sg.neighbors(v) {
                if u <= v {
                    continue;
                }
                for &w in sg.neighbors(u) {
                    if w > u && sg.has_edge(v, w) {
                        triangles += 1;
                    }
                }
            }
        }
        let triplets = sg.vertices().map(|v| choose2(sg.degree(v) as u64)).sum();
        (triangles, triplets)
    }

    #[test]
    fn triangles_match_naive_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::erdos_renyi_gnm(80, 400, seed + 100);
            let d = core_decomposition(&g);
            let o = OrderedGraph::build(&g, &d);
            let primaries = core_set_primaries_with_triangles(&o);
            for k in 0..=d.kmax() {
                let (tri, trip) = naive_triangles_triplets(&g, d.core_set_vertices(k));
                let pv = &primaries[k as usize];
                assert_eq!(pv.triangles, tri, "triangles at k={k} seed={seed}");
                assert_eq!(pv.triplets, trip, "triplets at k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn triangles_match_naive_on_dense_overlaps() {
        let g = generators::overlapping_cliques(120, 20, (4, 9), 5);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let primaries = core_set_primaries_with_triangles(&o);
        for k in (0..=d.kmax()).step_by(2) {
            let (tri, trip) = naive_triangles_triplets(&g, d.core_set_vertices(k));
            assert_eq!(primaries[k as usize].triangles, tri, "k={k}");
            assert_eq!(primaries[k as usize].triplets, trip, "k={k}");
        }
    }

    #[test]
    fn bottom_up_matches_top_down() {
        for (name, g) in [
            ("fig2", generators::paper_figure2()),
            ("er", generators::erdos_renyi_gnm(200, 800, 4)),
            ("cl", generators::chung_lu_power_law(300, 7.0, 2.4, 5)),
            (
                "cliques",
                generators::overlapping_cliques(150, 25, (3, 9), 6),
            ),
        ] {
            let d = core_decomposition(&g);
            let o = OrderedGraph::build(&g, &d);
            let top_down = core_set_primaries(&o);
            let bottom_up = core_set_primaries_bottom_up(&o);
            assert_eq!(top_down, bottom_up, "{name}");
        }
    }

    #[test]
    fn best_k_convenience_matches_profile() {
        let g = generators::chung_lu_power_law(400, 7.0, 2.4, 12);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        for m in Metric::ALL {
            let via_profile = core_set_profile(&o, true).best(&m);
            let via_fn = best_k_core_set(&o, &m);
            assert_eq!(via_profile, via_fn, "{}", m.name());
        }
    }

    #[test]
    fn scoring_cc_without_triangles_is_a_typed_error() {
        let g = regular::complete(4);
        let p = profile(&g, false);
        assert!(matches!(
            p.try_scores(&Metric::ClusteringCoefficient),
            Err(MetricError::MissingTriangles { .. })
        ));
        assert!(matches!(
            p.try_best(&Metric::ClusteringCoefficient),
            Err(MetricError::MissingTriangles { .. })
        ));
        // With triangles the same calls succeed.
        let with = profile(&g, true);
        assert!(with.try_scores(&Metric::ClusteringCoefficient).is_ok());
    }

    #[test]
    fn empty_graph_profile() {
        let g = bestk_graph::CsrGraph::empty(0);
        let p = profile(&g, true);
        assert_eq!(p.kmax, 0);
        assert_eq!(p.primaries.len(), 1);
        assert_eq!(p.primaries[0], PrimaryValues::default());
        assert!(p.best(&Metric::AverageDegree).is_none());
    }

    #[test]
    fn isolated_vertices_only_affect_k0() {
        let mut b = bestk_graph::GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        b.reserve_vertices(5);
        let g = b.build();
        let p = profile(&g, false);
        assert_eq!(p.primaries[0].num_vertices, 5);
        assert_eq!(p.primaries[1].num_vertices, 3);
        assert_eq!(p.primaries[2].num_vertices, 3);
        // Average degree of C_0 is diluted by the isolated vertices.
        let scores = p.scores(&Metric::AverageDegree);
        assert!(scores[0] < scores[1]);
        assert_eq!(p.best(&Metric::AverageDegree).unwrap().k, 2);
    }
}
