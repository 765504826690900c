//! Vertex ordering for optimal neighbor queries (paper §III-B, Algorithm 1).
//!
//! Every adjacency list is rewritten in ascending *vertex rank* (Def. 5:
//! coreness first, id as tie-break), and three position tags are recorded per
//! vertex (paper Table II):
//!
//! | tag    | meaning                                                    |
//! |--------|------------------------------------------------------------|
//! | `same` | first neighbor `u` with `c(u) ≥ c(v)`                      |
//! | `plus` | first neighbor `u` with `c(u) > c(v)`                      |
//! | `high` | first neighbor `u` with `rank(u) > rank(v)`                |
//!
//! After the `O(m)` construction, `|N(v, ·)|` queries answer in `O(1)` and
//! `N(v, ·)` slices in `O(|N(v, ·)|)` — the primitive every sweep in this
//! crate is built on. The one triangle listing both triangle sweeps
//! (Algorithms 3 and 5) share also lives here:
//! [`OrderedGraph::min_rank_triangles`] lists every triangle once per
//! ordering, on first use, and [`OrderedGraph::list_triangles_beside`]
//! lists them on a policy's workers beside a task of the caller's.

use std::sync::OnceLock;

use bestk_exec::ExecPolicy;
use bestk_graph::cast;
use bestk_graph::{GraphView, VertexId};

use crate::decomposition::CoreDecomposition;

/// A graph whose adjacency lists are re-ordered by vertex rank, with the
/// paper's position tags. Owns its offset and adjacency arrays (so any
/// [`GraphView`] backend can build it and be dropped afterwards) and
/// borrows only the decomposition.
#[derive(Debug)]
pub struct OrderedGraph<'a> {
    decomp: &'a CoreDecomposition,
    /// Degree prefix sums, length `n + 1`: `offsets[v]..offsets[v + 1]`
    /// is the adjacency range of `v` inside `adj`.
    offsets: Vec<usize>,
    /// Rank-ordered adjacency, aligned with `offsets`.
    adj: Vec<VertexId>,
    /// Position tags, relative to each list start.
    same: Vec<u32>,
    plus: Vec<u32>,
    high: Vec<u32>,
    /// Per-vertex min-rank triangle counts, listed on first use.
    min_rank_triangles: OnceLock<Vec<u64>>,
}

impl<'a> OrderedGraph<'a> {
    /// Builds the ordering in `O(n + m)` time and `O(m)` space (Algorithm 1).
    ///
    /// The edge set is sorted by flattening `kmax + 1` coreness bins: walking
    /// vertices in rank order and scattering each edge to its opposite
    /// endpoint's list yields every `N'(u)` in ascending rank without any
    /// comparison sort.
    pub fn build<G: GraphView>(graph: &G, decomp: &'a CoreDecomposition) -> Self {
        Self::build_with(graph, decomp, &ExecPolicy::Sequential)
    }

    /// [`build`](Self::build) under an execution policy: the rank-order
    /// scatter stays sequential (its write order *is* the sort), while the
    /// per-list tag scan — an independent `O(d(v))` pass per vertex — runs
    /// as edge-balanced chunks on the shared runtime. Tags are merged in
    /// chunk order, so the result is bit-identical at every thread count.
    pub fn build_with<G: GraphView>(
        graph: &G,
        decomp: &'a CoreDecomposition,
        policy: &ExecPolicy,
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(
            n,
            decomp.num_vertices(),
            "decomposition does not match graph"
        );
        let offsets = graph.degree_offsets();
        let mut adj: Vec<VertexId> = vec![0; offsets[n]];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        // Vertices in rank order = the decomposition's (coreness, id) order;
        // pushing v into every neighbor's new list in this order leaves each
        // list sorted by rank (lines 5-11 of Algorithm 1, with the explicit
        // bins replaced by the precomputed rank order).
        for &v in decomp.vertices_by_coreness() {
            for u in graph.neighbors(v) {
                adj[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
            }
        }

        // One scan per list records the tags (line 13).
        let mut same = vec![0u32; n];
        let mut plus = vec![0u32; n];
        let mut high = vec![0u32; n];
        let plan = policy.plan_weighted(&offsets);
        let adj_ref = &adj;
        let parts = policy.map_chunks(
            &plan,
            || (),
            |(), _, vertices| {
                let mut part = (
                    Vec::with_capacity(vertices.len()),
                    Vec::with_capacity(vertices.len()),
                    Vec::with_capacity(vertices.len()),
                );
                for v in vertices {
                    let cv = decomp.coreness(cast::vertex_id(v));
                    let list = &adj_ref[offsets[v]..offsets[v + 1]];
                    let deg = cast::u32_of(list.len());
                    let mut s = deg;
                    let mut p = deg;
                    let mut h = deg;
                    for (i, &u) in list.iter().enumerate() {
                        let cu = decomp.coreness(u);
                        if s == deg && cu >= cv {
                            s = cast::u32_of(i);
                        }
                        if p == deg && cu > cv {
                            p = cast::u32_of(i);
                        }
                        if h == deg && (cu > cv || (cu == cv && u > cast::vertex_id(v))) {
                            h = cast::u32_of(i);
                        }
                    }
                    part.0.push(s);
                    part.1.push(p);
                    part.2.push(h);
                }
                part
            },
        );
        let (mut s_at, mut p_at, mut h_at) = (0usize, 0usize, 0usize);
        for (ps, pp, ph) in parts {
            same[s_at..s_at + ps.len()].copy_from_slice(&ps);
            s_at += ps.len();
            plus[p_at..p_at + pp.len()].copy_from_slice(&pp);
            p_at += pp.len();
            high[h_at..h_at + ph.len()].copy_from_slice(&ph);
            h_at += ph.len();
        }
        OrderedGraph {
            decomp,
            offsets,
            adj,
            same,
            plus,
            high,
            min_rank_triangles: OnceLock::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Iterator over all vertices `0..n`.
    #[inline]
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..cast::vertex_id(self.num_vertices())
    }

    /// The raw rank-ordered adjacency array, aligned with the graph's
    /// offsets.
    #[inline]
    pub fn raw_adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// The raw per-vertex `(same, plus, high)` tag arrays.
    #[inline]
    pub fn raw_tags(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.same, &self.plus, &self.high)
    }

    /// The underlying decomposition.
    #[inline]
    pub fn decomposition(&self) -> &CoreDecomposition {
        self.decomp
    }

    /// Dissolves the ordering into its owned `(adj, same, plus, high)`
    /// arrays, releasing the graph/decomposition borrows — how the engine
    /// keeps the arrays resident without holding a self-referential struct.
    /// The triangle counts, if listed, are dropped.
    #[inline]
    pub fn into_parts(self) -> (Vec<VertexId>, Vec<u32>, Vec<u32>, Vec<u32>) {
        (self.adj, self.same, self.plus, self.high)
    }

    /// Whether `rank(u) > rank(v)` (Def. 5).
    #[inline]
    pub fn rank_gt(&self, u: VertexId, v: VertexId) -> bool {
        let (cu, cv) = (self.decomp.coreness(u), self.decomp.coreness(v));
        cu > cv || (cu == cv && u > v)
    }

    #[inline]
    fn range(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        (self.offsets[v], self.offsets[v + 1])
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (s, e) = self.range(v);
        // bestk-analyze: allow(unchecked-arith) — offsets are monotone prefix sums by construction
        e - s
    }

    /// The full rank-ordered neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.range(v);
        &self.adj[s..e]
    }

    /// `N(v, <)`: neighbors with strictly smaller coreness.
    #[inline]
    pub fn neighbors_lt(&self, v: VertexId) -> &[VertexId] {
        let (s, _) = self.range(v);
        &self.adj[s..s + self.same[v as usize] as usize]
    }

    /// `N(v, =)`: neighbors with equal coreness.
    #[inline]
    pub fn neighbors_eq(&self, v: VertexId) -> &[VertexId] {
        let (s, _) = self.range(v);
        &self.adj[s + self.same[v as usize] as usize..s + self.plus[v as usize] as usize]
    }

    /// `N(v, >)`: neighbors with strictly larger coreness.
    #[inline]
    pub fn neighbors_gt(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.range(v);
        &self.adj[s + self.plus[v as usize] as usize..e]
    }

    /// `N(v, ≥)`: neighbors with coreness at least `c(v)`.
    #[inline]
    pub fn neighbors_ge(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.range(v);
        &self.adj[s + self.same[v as usize] as usize..e]
    }

    /// `N(v, >r)`: neighbors with strictly larger rank.
    #[inline]
    pub fn neighbors_gt_rank(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.range(v);
        &self.adj[s + self.high[v as usize] as usize..e]
    }

    /// `t[v]`: the number of triangles whose minimum-rank vertex is `v`
    /// (Algorithm 3 lines 7-12), in `O(m^1.5)` time and `O(n)` extra space.
    /// Returns the cached counts if the ordering holds them; otherwise lists
    /// them on the calling thread and caches them. The staged build lists
    /// them first through [`list_triangles_beside`](Self::list_triangles_beside).
    pub fn min_rank_triangles(&self) -> &[u64] {
        self.min_rank_triangles.get_or_init(|| {
            let mut marked = vec![VertexId::MAX; self.num_vertices()];
            self.vertices()
                .map(|v| self.count_min_rank_triangles(v, &mut marked))
                .collect()
        })
    }

    /// Lists the [`min_rank_triangles`](Self::min_rank_triangles) counts on
    /// `policy`'s other workers over degree-weighted chunks, each chunk
    /// writing its own region of one count array, while the calling thread
    /// runs `task`; once `task` returns, the caller lists the chunks still
    /// unclaimed. The counts are cached in the ordering (unless it holds
    /// them already), so both triangle sweeps read them. Returns `task`'s
    /// value. Under [`ExecPolicy::Sequential`] the listing runs inline after
    /// `task`. The counts are the same at every thread count: each vertex's
    /// count depends only on the ordering.
    pub fn list_triangles_beside<T>(&self, policy: &ExecPolicy, task: impl FnOnce() -> T) -> T {
        let n = self.num_vertices();
        let mut counts = vec![0u64; n];
        let plan = policy.plan_weighted(&self.offsets);
        let (value, _) = policy.map_disjoint_beside(
            &plan,
            &mut counts,
            plan.bounds(),
            || vec![VertexId::MAX; n],
            |marked, _, vertices, region| {
                for (v, count) in vertices.zip(region) {
                    *count = self.count_min_rank_triangles(cast::vertex_id(v), marked);
                }
            },
            task,
        );
        self.min_rank_triangles.get_or_init(|| counts);
        value
    }

    /// The triangles whose minimum-rank vertex is `v`: mark `N(v, >r)`,
    /// then scan every marked neighbor's `N(u, >r)` for marks, so a
    /// triangle is found once, at its unique rank ordering
    /// `rank(v) < rank(u) < rank(w)`. `marked` is `n` slots of scratch;
    /// `marked[w] == v` means `w ∈ N(v, >r)`, so no reset is needed
    /// between vertices.
    fn count_min_rank_triangles(&self, v: VertexId, marked: &mut [VertexId]) -> u64 {
        let above = self.neighbors_gt_rank(v);
        for &u in above {
            marked[u as usize] = v;
        }
        let mut count = 0u64;
        for &u in above {
            for &w in self.neighbors_gt_rank(u) {
                if marked[w as usize] == v {
                    count += 1;
                }
            }
        }
        count
    }

    /// `|N(v, <)|` in `O(1)`.
    #[inline]
    pub fn count_lt(&self, v: VertexId) -> usize {
        self.same[v as usize] as usize
    }

    /// `|N(v, =)|` in `O(1)`.
    #[inline]
    pub fn count_eq(&self, v: VertexId) -> usize {
        (self.plus[v as usize] - self.same[v as usize]) as usize
    }

    /// `|N(v, >)|` in `O(1)`.
    #[inline]
    pub fn count_gt(&self, v: VertexId) -> usize {
        self.degree(v) - self.plus[v as usize] as usize
    }

    /// `|N(v, ≥)|` in `O(1)`.
    #[inline]
    pub fn count_ge(&self, v: VertexId) -> usize {
        self.degree(v) - self.same[v as usize] as usize
    }

    /// `|N(v, >r)|` in `O(1)`.
    #[inline]
    pub fn count_gt_rank(&self, v: VertexId) -> usize {
        self.degree(v) - self.high[v as usize] as usize
    }

    /// The raw `(same, plus, high)` tags of `v` (paper Fig. 3 values).
    #[inline]
    pub fn tags(&self, v: VertexId) -> (u32, u32, u32) {
        let v = v as usize;
        (self.same[v], self.plus[v], self.high[v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use bestk_graph::generators;

    fn fig2() -> (bestk_graph::CsrGraph, CoreDecomposition) {
        let g = generators::paper_figure2();
        let d = core_decomposition(&g);
        (g, d)
    }

    #[test]
    fn figure3_tags() {
        // Figure 3 lists (same, plus, high) for v1, v6, v8, v9.
        let (g, d) = fig2();
        let o = OrderedGraph::build(&g, &d);
        assert_eq!(o.tags(0), (0, 3, 0)); // v1
        assert_eq!(o.tags(5), (0, 3, 1)); // v6
        assert_eq!(o.tags(7), (0, 2, 2)); // v8
        assert_eq!(o.tags(8), (1, 4, 1)); // v9
    }

    #[test]
    fn figure3_ordered_neighbor_lists() {
        let (g, d) = fig2();
        let o = OrderedGraph::build(&g, &d);
        // v6 ~ v5, v7, v8 (coreness 2, ascending id), then v3 (coreness 3).
        assert_eq!(o.neighbors(5), &[4, 6, 7, 2]);
        // v8 ~ v6, v7 (coreness 2), then v9 (coreness 3).
        assert_eq!(o.neighbors(7), &[5, 6, 8]);
        // v9 ~ v8 (coreness 2), then v10, v11, v12.
        assert_eq!(o.neighbors(8), &[7, 9, 10, 11]);
    }

    #[test]
    fn example3_count_queries() {
        // Example 3: |N(v6, >)| = |N(v6)| - plus = 1.
        let (g, d) = fig2();
        let o = OrderedGraph::build(&g, &d);
        assert_eq!(o.count_gt(5), 1);
        assert_eq!(o.count_eq(5), 3);
        assert_eq!(o.count_lt(5), 0);
        assert_eq!(o.count_ge(5), 4);
        assert_eq!(o.count_gt_rank(5), 3);
        // v9: one lower-coreness neighbor (v8), three same, none higher.
        assert_eq!(o.count_lt(8), 1);
        assert_eq!(o.count_eq(8), 3);
        assert_eq!(o.count_gt(8), 0);
    }

    #[test]
    fn slices_agree_with_counts_and_definition() {
        let g = generators::erdos_renyi_gnm(200, 900, 5);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        for v in g.vertices() {
            let cv = d.coreness(v);
            assert_eq!(o.neighbors_lt(v).len(), o.count_lt(v));
            assert_eq!(o.neighbors_eq(v).len(), o.count_eq(v));
            assert_eq!(o.neighbors_gt(v).len(), o.count_gt(v));
            assert_eq!(o.neighbors_ge(v).len(), o.count_ge(v));
            assert_eq!(o.neighbors_gt_rank(v).len(), o.count_gt_rank(v));
            assert!(o.neighbors_lt(v).iter().all(|&u| d.coreness(u) < cv));
            assert!(o.neighbors_eq(v).iter().all(|&u| d.coreness(u) == cv));
            assert!(o.neighbors_gt(v).iter().all(|&u| d.coreness(u) > cv));
            assert!(o.neighbors_gt_rank(v).iter().all(|&u| o.rank_gt(u, v)));
            // The reordered list is a permutation of the original.
            let mut a: Vec<_> = o.neighbors(v).to_vec();
            let mut b: Vec<_> = g.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lists_are_sorted_by_rank() {
        let g = generators::chung_lu_power_law(300, 6.0, 2.5, 8);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        for v in g.vertices() {
            let list = o.neighbors(v);
            for w in list.windows(2) {
                assert!(
                    o.rank_gt(w[1], w[0]),
                    "neighbors of {v} not rank-sorted: {:?} before {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn build_with_matches_sequential_build() {
        bestk_graph::testkit::check("ordering_policy_equals_sequential", 24, |gen| {
            let g = gen.graph(50, 250);
            let d = core_decomposition(&g);
            let reference = OrderedGraph::build(&g, &d);
            for threads in [1, 2, 4, 7] {
                let policy = ExecPolicy::with_threads(threads).unwrap();
                let o = OrderedGraph::build_with(&g, &d, &policy);
                assert_eq!(o.adj, reference.adj, "{threads} threads");
                assert_eq!(o.same, reference.same, "{threads} threads");
                assert_eq!(o.plus, reference.plus, "{threads} threads");
                assert_eq!(o.high, reference.high, "{threads} threads");
            }
        });
    }

    #[test]
    fn triangles_are_listed_only_for_triangle_profiles() {
        let (g, d) = fig2();
        let o = OrderedGraph::build(&g, &d);
        let f = crate::forest::CoreForest::build(&g, &d);
        // Algorithms 2 and 5 without triangles stay O(n) after the ordering.
        crate::bestkset::core_set_profile(&o, false);
        crate::bestcore::single_core_profile(&o, &f, false);
        assert!(o.min_rank_triangles.get().is_none());
        crate::bestkset::core_set_profile(&o, true);
        assert!(o.min_rank_triangles.get().is_some());
        // Example 5: the whole Figure 2 graph has 10 triangles.
        assert_eq!(o.min_rank_triangles().iter().sum::<u64>(), 10);
    }

    #[test]
    fn listing_beside_a_task_matches_the_lazy_listing() {
        bestk_graph::testkit::check("triangle_listing_beside_equals_lazy", 24, |gen| {
            let g = gen.graph(60, 400);
            let d = core_decomposition(&g);
            let reference = OrderedGraph::build(&g, &d);
            for threads in [1, 2, 4, 7] {
                let policy = ExecPolicy::with_threads(threads).unwrap();
                let o = OrderedGraph::build(&g, &d);
                assert_eq!(o.list_triangles_beside(&policy, || threads), threads);
                assert_eq!(
                    o.min_rank_triangles.get().map(Vec::as_slice),
                    Some(reference.min_rank_triangles()),
                    "{threads} threads"
                );
            }
        });
    }

    #[test]
    fn empty_and_isolated() {
        let g = bestk_graph::CsrGraph::empty(3);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        assert_eq!(o.count_ge(0), 0);
        assert!(o.neighbors(2).is_empty());
        assert_eq!(o.tags(1), (0, 0, 0));
    }
}
