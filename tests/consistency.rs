//! Structured cross-crate consistency suite: the optimal algorithms agree
//! with the baselines, metric by metric, on every generator family the
//! harness uses.

use bestk::core::baseline::{baseline_core_set_primaries, baseline_single_core_primaries};
use bestk::core::{
    analyze, core_decomposition, CommunityMetric, CoreForest, GraphContext, Metric, OrderedGraph,
    PrimaryValues,
};
use bestk::graph::{generators, CsrGraph};

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("erdos_renyi", generators::erdos_renyi_gnm(400, 1600, 1)),
        (
            "erdos_renyi_sparse",
            generators::erdos_renyi_gnp(500, 0.004, 2),
        ),
        ("chung_lu", generators::chung_lu_power_law(600, 8.0, 2.4, 3)),
        ("barabasi_albert", generators::barabasi_albert(500, 4, 4)),
        ("rmat", generators::rmat(9, 10, 0.57, 0.19, 0.19, 5)),
        (
            "cliques",
            generators::overlapping_cliques(300, 60, (3, 10), 6),
        ),
        (
            "planted",
            generators::planted_partition(&[60, 50, 40, 80], 0.3, 0.01, 7).graph,
        ),
        ("paper_fig2", generators::paper_figure2()),
        ("grid", generators::regular::grid(15, 15)),
        ("clique_chain", generators::regular::clique_chain(6, 7)),
        ("complete", generators::regular::complete(25)),
        ("star", generators::regular::star(50)),
    ]
}

#[test]
fn best_set_scores_agree_with_baseline_for_every_metric() {
    for (name, g) in families() {
        let d = core_decomposition(&g);
        let base = baseline_core_set_primaries(&g, &d, true);
        let a = analyze(&g);
        let ctx = GraphContext {
            total_vertices: g.num_vertices() as u64,
            total_edges: g.num_edges() as u64,
        };
        for m in Metric::ALL {
            let optimal_scores = a.core_set_scores(&m);
            for (k, pv) in base.iter().enumerate() {
                let expect = m.score(pv, &ctx);
                let got = optimal_scores[k];
                let same = (expect.is_nan() && got.is_nan()) || (expect - got).abs() < 1e-9;
                assert!(same, "{name}/{}: k={k} expect {expect} got {got}", m.name());
            }
        }
    }
}

#[test]
fn best_single_core_agrees_with_baseline_argmax() {
    for (name, g) in families() {
        let d = core_decomposition(&g);
        let base = baseline_single_core_primaries(&g, &d, true);
        let a = analyze(&g);
        let ctx = GraphContext {
            total_vertices: g.num_vertices() as u64,
            total_edges: g.num_edges() as u64,
        };
        for m in Metric::ALL {
            let best_baseline = base
                .iter()
                .map(|(_, pv)| m.score(pv, &ctx))
                .filter(|s| s.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            match a.best_single_core(&m) {
                Some(best) => {
                    assert!(
                        (best.score - best_baseline).abs() < 1e-9,
                        "{name}/{}: optimal {} vs baseline max {}",
                        m.name(),
                        best.score,
                        best_baseline
                    );
                }
                None => assert!(
                    best_baseline == f64::NEG_INFINITY,
                    "{name}/{}: optimal found nothing but baseline has {best_baseline}",
                    m.name()
                ),
            }
        }
    }
}

#[test]
fn triangle_counters_agree_across_modules() {
    for (name, g) in families() {
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let forward = bestk::core::triangles::count_triangles(&g);
        let min_rank: u64 = o.min_rank_triangles().iter().sum();
        assert_eq!(forward, min_rank, "{name}");
        assert_eq!(forward, brute_force_triangles(&g), "{name}");
        // k=0 entry of the set profile is the whole graph.
        let a = analyze(&g);
        assert_eq!(a.set_profile().primaries[0].triangles, forward, "{name}");
        assert_eq!(
            a.set_profile().primaries[0].triplets,
            bestk::core::triangles::count_triplets(&g),
            "{name}"
        );
    }
}

/// Each triangle once, at its smallest-id edge `(u, v)`, `u < v < w`.
fn brute_force_triangles(g: &CsrGraph) -> u64 {
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
fn forest_cores_tile_the_core_sets() {
    // Σ over the entry nodes at each level == the k-core set primaries:
    // the identity that lets Algorithms 3 and 5 share one shell step.
    for (name, g) in families() {
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let f = CoreForest::build(&g, &d);
        let per_core = bestk::core::bestcore::single_core_primaries(&o, &f, true);
        let per_set = bestk::core::bestkset::core_set_primaries_with_triangles(&o);
        for k in 0..=d.kmax() {
            // Entry nodes at level k: coreness >= k, parent below k. A core
            // with no coreness-k shell enters at a level ABOVE k, and the
            // union of the entry nodes' vertex sets is still exactly V(C_k).
            let mut sum = PrimaryValues::default();
            for (i, node) in f.nodes().iter().enumerate() {
                let parent_below = node.parent.map(|p| f.node(p).coreness < k).unwrap_or(true);
                if node.coreness >= k && parent_below {
                    sum.add_assign(&per_core[i]);
                }
            }
            // C_k is the disjoint union of its k-cores, and distinct k-cores
            // share no edge, triangle or wedge, so every primary sums
            // exactly: n, m, b (a boundary edge leaves for coreness < k),
            // Δ and t.
            assert_eq!(sum, per_set[k as usize], "{name} k={k}");
        }
    }
}
