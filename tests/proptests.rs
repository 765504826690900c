//! Property-based tests over the whole workspace: random graphs in, paper
//! invariants out.
//!
//! Driven by the in-repo [`bestk::graph::testkit`] harness (the build
//! environment is offline, so no external property-testing crate). Each
//! property also leans on the `verify` modules — the executable
//! specification — so a structural regression in any pipeline stage is
//! reported with the invariant it broke, not just a mismatched value.

use bestk::core::{
    analyze, baseline::baseline_core_set_primaries, baseline::baseline_single_core_primaries,
    core_decomposition, CommunityMetric, CoreForest, Metric, OrderedGraph,
};
use bestk::graph::testkit::check;
use bestk::graph::VertexId;

/// Coreness is exactly the largest k whose k-core set contains v, and
/// k-core sets are nested (the containment property the sweeps rely on).
#[test]
fn coreness_definition_and_containment() {
    check("coreness_definition_and_containment", 64, |gen| {
        let g = gen.graph(40, 160);
        let d = core_decomposition(&g);
        // Every vertex in C_k has degree >= k within C_k.
        for k in 0..=d.kmax() {
            let verts = d.core_set_vertices(k);
            let inside: std::collections::HashSet<VertexId> = verts.iter().copied().collect();
            for &v in verts {
                let deg = g.neighbors(v).iter().filter(|u| inside.contains(u)).count();
                assert!(deg >= k as usize, "v={v} deg={deg} k={k}");
            }
        }
        // Containment: C_{k+1} subset of C_k (suffix property makes this
        // automatic, but check via coreness directly).
        for v in g.vertices() {
            let c = d.coreness(v);
            assert!(d.core_set_vertices(c).contains(&v));
            if c < d.kmax() {
                assert!(!d.core_set_vertices(c + 1).contains(&v));
            }
        }
    });
}

/// The full decomposition verifier accepts every honestly computed
/// decomposition — including the h-index fixpoint cross-check.
#[test]
fn verify_accepts_honest_decompositions() {
    check("verify_accepts_honest_decompositions", 64, |gen| {
        let g = gen.graph(40, 160);
        let d = core_decomposition(&g);
        bestk::core::verify::verify_decomposition(&g, &d).expect("honest decomposition rejected");
    });
}

/// Batagelj–Zaveršnik peeling and h-index iteration are independent
/// algorithms for the same coreness function; they must agree everywhere.
#[test]
fn peeling_matches_hindex_iteration() {
    check("peeling_matches_hindex_iteration", 64, |gen| {
        let g = gen.graph(48, 200);
        let peel = core_decomposition(&g);
        let h = bestk::core::hindex::hindex_core_decomposition(&g);
        assert_eq!(peel.coreness_slice(), &h.coreness[..], "h-index disagrees");
    });
}

/// The ordering tags always agree with their definitions.
#[test]
fn ordering_tags_match_definition() {
    check("ordering_tags_match_definition", 64, |gen| {
        let g = gen.graph(40, 160);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        for v in g.vertices() {
            let cv = d.coreness(v);
            assert_eq!(
                o.count_lt(v),
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| d.coreness(u) < cv)
                    .count()
            );
            assert_eq!(
                o.count_eq(v),
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| d.coreness(u) == cv)
                    .count()
            );
            assert_eq!(
                o.count_gt(v),
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| d.coreness(u) > cv)
                    .count()
            );
            assert_eq!(
                o.count_gt_rank(v),
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| (d.coreness(u), u) > (cv, v))
                    .count()
            );
        }
    });
}

/// Optimal set-sweep == baseline on every primary value, triangles
/// included.
#[test]
fn optimal_equals_baseline_for_sets() {
    check("optimal_equals_baseline_for_sets", 48, |gen| {
        let g = gen.graph(36, 140);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let optimal = bestk::core::bestkset::core_set_primaries_with_triangles(&o);
        let baseline = baseline_core_set_primaries(&g, &d, true);
        assert_eq!(optimal, baseline);
    });
}

/// Optimal forest aggregation == baseline per-core rescoring, as
/// multisets of (k, primaries).
#[test]
fn optimal_equals_baseline_for_single_cores() {
    check("optimal_equals_baseline_for_single_cores", 48, |gen| {
        let g = gen.graph(36, 140);
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let f = CoreForest::build(&g, &d);
        let optimal = bestk::core::bestcore::single_core_primaries(&o, &f, true);
        let mut from_forest: Vec<_> = f
            .nodes()
            .iter()
            .zip(optimal)
            .map(|(n, pv)| (n.coreness, pv))
            .collect();
        let mut baseline = baseline_single_core_primaries(&g, &d, true);
        let key = |t: &(u32, bestk::core::PrimaryValues)| {
            (
                t.0,
                t.1.num_vertices,
                t.1.internal_edges,
                t.1.boundary_edges,
                t.1.triangles,
                t.1.triplets,
            )
        };
        from_forest.sort_by_key(key);
        baseline.sort_by_key(key);
        assert_eq!(from_forest, baseline);
    });
}

/// Set primaries are monotone in k: vertices, edges, triangles, and
/// triplets can only shrink as k grows.
#[test]
fn set_primaries_are_monotone() {
    check("set_primaries_are_monotone", 64, |gen| {
        let g = gen.graph(40, 160);
        let a = analyze(&g);
        let prims = &a.set_profile().primaries;
        for w in prims.windows(2) {
            assert!(w[1].num_vertices <= w[0].num_vertices);
            assert!(w[1].internal_edges <= w[0].internal_edges);
            assert!(w[1].triangles <= w[0].triangles);
            assert!(w[1].triplets <= w[0].triplets);
        }
        // k = 0 covers the whole graph with no boundary.
        assert_eq!(prims[0].num_vertices as usize, g.num_vertices());
        assert_eq!(prims[0].internal_edges as usize, g.num_edges());
        assert_eq!(prims[0].boundary_edges, 0);
    });
}

/// The forest partitions the vertex set, parents have strictly lower
/// coreness, and reconstructed cores contain their shell.
#[test]
fn forest_structure_invariants() {
    check("forest_structure_invariants", 64, |gen| {
        let g = gen.graph(40, 160);
        let d = core_decomposition(&g);
        let f = CoreForest::build(&g, &d);
        let mut seen = vec![false; g.num_vertices()];
        for (i, node) in f.nodes().iter().enumerate() {
            assert!(!node.vertices.is_empty(), "empty node survived compression");
            for &v in &node.vertices {
                assert!(!seen[v as usize], "vertex {v} in two nodes");
                seen[v as usize] = true;
                assert_eq!(d.coreness(v), node.coreness);
            }
            if let Some(p) = node.parent {
                assert!(f.node(p).coreness < node.coreness);
                assert!(f.node(p).children.contains(&(i as u32)));
            }
        }
        assert!(seen.iter().all(|&s| s));
    });
}

/// Every reported best k is within range, its score matches a direct
/// recomputation from the profile, and the best-k verifier (which replays
/// the whole sweep against the naive baseline) accepts it.
#[test]
fn best_k_is_consistent() {
    check("best_k_is_consistent", 64, |gen| {
        let g = gen.graph(40, 160);
        let a = analyze(&g);
        for m in Metric::ALL {
            if let Some(best) = a.best_core_set(&m) {
                assert!(best.k <= a.kmax());
                let series = a.core_set_scores(&m);
                assert!(
                    series
                        .iter()
                        .filter(|s| s.is_finite())
                        .all(|&s| s <= best.score + 1e-12),
                    "{}: something beats the best",
                    m.name()
                );
                bestk::core::verify::verify_best_core_set(&g, &m, &best)
                    .expect("best-k verifier rejected an honest answer");
            }
        }
    });
}

/// Densest-subgraph approximations respect their guarantees against the
/// exact flow oracle.
#[test]
fn densest_subgraph_half_approx() {
    check("densest_subgraph_half_approx", 48, |gen| {
        let g = gen.graph(24, 80);
        if g.num_edges() < 1 {
            return;
        }
        let exact = bestk::apps::goldberg_exact(&g);
        let a = bestk::core::analyze_basic(&g);
        let d = bestk::apps::opt_d(&g, &a);
        assert!(d.average_degree >= exact.average_degree / 2.0 - 1e-9);
        assert!(d.average_degree <= exact.average_degree + 1e-9);
        let peel = bestk::apps::charikar_peeling(&g);
        assert!(peel.average_degree >= exact.average_degree / 2.0 - 1e-9);
    });
}

/// A maximum clique of size s always sits inside the (s-1)-core set.
#[test]
fn clique_inside_its_core() {
    check("clique_inside_its_core", 48, |gen| {
        let g = gen.graph(24, 100);
        let d = core_decomposition(&g);
        let clique = bestk::apps::maximum_clique(&g, &d);
        if clique.len() < 2 {
            return;
        }
        let k = clique.len() as u32 - 1;
        for &v in &clique {
            assert!(d.coreness(v) >= k);
        }
    });
}

/// Truss profile == per-k baseline, the truss verifier accepts the
/// decomposition, and every edge of the k-truss lies in the (k-1)-core —
/// the containment §VI-B builds on.
#[test]
fn truss_profile_and_core_containment() {
    check("truss_profile_and_core_containment", 48, |gen| {
        use bestk::truss::{baseline::baseline_truss_set_primaries, truss_set_profile, EdgeIndex};
        let g = gen.graph(36, 140);
        let idx = EdgeIndex::build(&g);
        let t = bestk::truss::decomposition::truss_decomposition_with_index(&g, &idx);
        bestk::truss::verify::verify_truss_decomposition(&g, &idx, &t)
            .expect("honest truss decomposition rejected");
        let fast = truss_set_profile(&g, &idx, &t).primaries;
        let slow = baseline_truss_set_primaries(&g, &idx, &t);
        assert_eq!(fast, slow);
        let d = core_decomposition(&g);
        for e in 0..idx.num_edges() as u32 {
            let (u, v) = idx.endpoints(e);
            let te = t.truss(e);
            assert!(
                d.coreness(u) + 1 >= te,
                "t({u},{v})={te} c={}",
                d.coreness(u)
            );
            assert!(d.coreness(v) + 1 >= te);
        }
    });
}

/// A maximum clique of size s is an s-truss: truss numbers bound clique
/// size from above.
#[test]
fn clique_size_bounded_by_tmax() {
    check("clique_size_bounded_by_tmax", 48, |gen| {
        let g = gen.graph(24, 100);
        let d = core_decomposition(&g);
        let clique = bestk::apps::maximum_clique(&g, &d);
        if clique.len() < 3 {
            return;
        }
        let t = bestk::truss::truss_decomposition(&g);
        assert!(t.tmax() as usize >= clique.len());
    });
}

/// Weighted decomposition invariants: unit weights reduce to coreness,
/// and with arbitrary weights every s-core set retains weighted degree
/// >= its level.
#[test]
fn weighted_core_invariants() {
    check("weighted_core_invariants", 48, |gen| {
        use bestk::core::weighted::weighted_core_decomposition;
        use bestk::graph::weighted::WeightedGraphBuilder;
        let g = gen.graph(30, 120);
        let mut b = WeightedGraphBuilder::new();
        b.reserve_vertices(g.num_vertices());
        for (u, v) in g.edges() {
            b.add_edge(u, v, 1 + gen.u32_in(0, 7));
        }
        let wg = b.build();
        let wd = weighted_core_decomposition(&wg);
        for (i, &level) in wd.levels().iter().enumerate() {
            let members: std::collections::HashSet<VertexId> =
                wd.core_set_at(i).iter().copied().collect();
            for &v in wd.core_set_at(i) {
                let deg: u64 = wg
                    .neighbors_with_weights(v)
                    .filter(|(u, _)| members.contains(u))
                    .map(|(_, w)| w as u64)
                    .sum();
                assert!(deg >= level, "v={v} deg={deg} level={level}");
            }
        }
        // Weighted profile internal weight at the lowest populated level
        // equals the total weight of non-isolated structure.
        let profile = bestk::core::weighted::weighted_core_set_profile(&wg, &wd);
        if let (Some(&first), Some(pv)) = (wd.levels().first(), profile.primaries.first()) {
            if first == 0 {
                assert_eq!(pv.internal_edges, wg.total_weight());
                assert_eq!(pv.boundary_edges, 0);
            }
        }
    });
}

/// Shared invariant body for [`opt_sc_invariants`] and its pinned
/// regression: every Opt-SC result contains the query vertex, sits inside
/// a source core of at least `k`, and non-query survivors keep internal
/// degree `>= k`.
fn assert_opt_sc_invariants(g: &bestk::graph::CsrGraph, k: u32, h: usize) {
    let a = bestk::core::analyze_basic(g);
    let d = a.decomposition();
    for q in g.vertices().take(10) {
        if let Some(res) = bestk::apps::opt_sc(g, &a, k, h, q) {
            assert!(res.vertices.contains(&q));
            assert!(res.source_core_k >= k);
            assert!(d.coreness(q) >= k);
            let inside: std::collections::HashSet<VertexId> =
                res.vertices.iter().copied().collect();
            for &v in &res.vertices {
                if v != q {
                    let deg = g.neighbors(v).iter().filter(|u| inside.contains(u)).count();
                    assert!(deg >= k as usize, "v={v} deg={deg} k={k}");
                }
            }
        }
    }
}

/// Named, always-run conversion of the one entry that used to live in
/// `tests/proptests.proptest-regressions` (a leftover from an earlier
/// external-crate harness whose `cc` seed hashes the in-repo testkit
/// cannot replay): `opt_sc_invariants` once shrank to a 35-vertex,
/// 41-edge graph with `k = 4, h = 4`. The exact shrunken graph is
/// unrecoverable from the hash, so this pins the same sparse
/// shape-at-parameters across a spread of deterministic seeds — the
/// regime (m barely above n, k above most corenesses) that triggered the
/// original failure.
#[test]
fn regression_opt_sc_sparse_n35_m41_k4_h4() {
    for seed in [0u64, 1, 2, 0x006f_5437, 0x6f54_373d] {
        let g = bestk::graph::generators::erdos_renyi_gnm(35, 41, seed);
        assert_opt_sc_invariants(&g, 4, 4);
    }
}

/// Opt-SC results contain the query vertex and respect the degree
/// invariant for non-query survivors.
#[test]
fn opt_sc_invariants() {
    check("opt_sc_invariants", 48, |gen| {
        let g = gen.graph(40, 200);
        let k = gen.u32_in(1, 5);
        let h = gen.usize_in(4, 20);
        assert_opt_sc_invariants(&g, k, h);
    });
}
