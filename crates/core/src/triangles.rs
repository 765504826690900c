//! Whole-graph triangle and triplet counters.
//!
//! The optimal sweeps (Algorithms 3 and 5) read the ordering's per-vertex
//! [`OrderedGraph::min_rank_triangles`](crate::OrderedGraph::min_rank_triangles),
//! listed once per ordering in `O(m^1.5)`. The forward counter here needs
//! no core decomposition and shares no code with that listing, which makes
//! it the independent oracle for the baselines, truss, the case study and
//! the tests. It is `O(m^1.5)` too \[Latapy 2008, paper reference 35\].

use bestk_graph::cast;
use bestk_graph::{GraphView, VertexId};

/// Counts the triangles of `g` with the forward algorithm over a
/// degree-descending total order: each triangle is found exactly once at its
/// lowest-ordered vertex. `O(m^1.5)` time, `O(n)` space.
///
/// Needs no core decomposition, which is what makes it the right primitive
/// for the baseline's per-k-core-set recounts.
pub fn count_triangles<G: GraphView>(g: &G) -> u64 {
    let n = g.num_vertices();
    // Order: degree descending, ties by id; position in this order.
    let mut order: Vec<VertexId> = (0..cast::vertex_id(n)).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut pos = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = cast::u32_of(i);
    }
    // forward[v]: neighbors of v that come *later* in the order.
    let mut marked = vec![0u32; n];
    let mut stamp = 0u32;
    let mut triangles = 0u64;
    for &v in &order {
        stamp += 1;
        let pv = pos[v as usize];
        for u in g.neighbors(v) {
            if pos[u as usize] > pv {
                marked[u as usize] = stamp;
            }
        }
        for u in g.neighbors(v) {
            if pos[u as usize] > pv {
                for w in g.neighbors(u) {
                    if pos[w as usize] > pos[u as usize] && marked[w as usize] == stamp {
                        triangles += 1;
                    }
                }
            }
        }
    }
    triangles
}

/// Counts the triplets of `g`: `Σ_v C(d(v), 2)`. `O(n)`.
pub fn count_triplets<G: GraphView>(g: &G) -> u64 {
    g.vertices()
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use crate::ordering::OrderedGraph;
    use bestk_graph::generators::{self, regular};
    use bestk_graph::CsrGraph;

    fn brute_force(g: &CsrGraph) -> u64 {
        let mut t = 0u64;
        for (u, v) in g.edges() {
            for &w in g.neighbors(v) {
                if w > v && g.has_edge(u, w) {
                    t += 1;
                }
            }
        }
        t
    }

    #[test]
    fn known_counts() {
        assert_eq!(count_triangles(&regular::complete(4)), 4);
        assert_eq!(count_triangles(&regular::complete(6)), 20);
        assert_eq!(count_triangles(&regular::cycle(10)), 0);
        assert_eq!(count_triangles(&regular::star(8)), 0);
        assert_eq!(count_triangles(&generators::paper_figure2()), 10);
        assert_eq!(count_triangles(&CsrGraph::empty(5)), 0);
    }

    #[test]
    fn triplet_counts() {
        assert_eq!(count_triplets(&regular::complete(4)), 4 * 3);
        assert_eq!(count_triplets(&regular::star(5)), 10);
        assert_eq!(count_triplets(&regular::cycle(6)), 6);
        // Example 5: the whole Figure 2 graph has 45 triplets.
        assert_eq!(count_triplets(&generators::paper_figure2()), 45);
    }

    /// `Σ t[v]` over the ordering's min-rank triangle counts.
    fn min_rank_total(g: &CsrGraph) -> u64 {
        let d = core_decomposition(g);
        OrderedGraph::build(g, &d).min_rank_triangles().iter().sum()
    }

    #[test]
    fn forward_and_min_rank_counts_agree_with_brute_force() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnm(70, 320, seed);
            let expected = brute_force(&g);
            assert_eq!(count_triangles(&g), expected, "forward, seed {seed}");
            assert_eq!(min_rank_total(&g), expected, "min-rank, seed {seed}");
        }
    }

    #[test]
    fn counters_agree_on_dense_graphs() {
        let g = generators::overlapping_cliques(150, 25, (4, 10), 3);
        let expected = brute_force(&g);
        assert_eq!(count_triangles(&g), expected);
        assert_eq!(min_rank_total(&g), expected);
    }

    #[test]
    fn counters_agree_on_generated_graphs() {
        // The name seeds the cases; keep it to keep the graphs.
        bestk_graph::testkit::check("triangles_policy_equals_sequential", 24, |gen| {
            let g = gen.graph(60, 300);
            let expected = brute_force(&g);
            assert_eq!(count_triangles(&g), expected);
            assert_eq!(min_rank_total(&g), expected);
        });
    }

    #[test]
    fn counters_agree_on_larger_and_degenerate_graphs() {
        for (g, label) in [
            (generators::chung_lu_power_law(3000, 10.0, 2.4, 7), "cl"),
            (
                generators::overlapping_cliques(800, 120, (4, 12), 9),
                "cliques",
            ),
            (regular::complete(40), "k40"),
            (CsrGraph::empty(10), "empty"),
            (CsrGraph::empty(0), "null"),
        ] {
            let expected = brute_force(&g);
            assert_eq!(count_triangles(&g), expected, "forward, {label}");
            assert_eq!(min_rank_total(&g), expected, "min-rank, {label}");
        }
    }
}
