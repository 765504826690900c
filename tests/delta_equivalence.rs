//! The delta subsystem's correctness contract, end to end: an incrementally
//! maintained [`bestk::delta::DeltaIndex`] must stay **bit-identical** to a
//! from-scratch rebuild of the same graph — coreness, Alg. 1 order and
//! position tags, shell boundaries, per-k primary values, and every best-k
//! answer — after arbitrary valid edge-op sequences, including delete-heavy
//! drains and churn focused on the max-`k` shell. And because the rebuild
//! pipeline is itself deterministic across thread counts, the incremental
//! state must match `OrderedGraph::build_with` at 1, 2, and 4 threads too.
//! The engine's commits fold through `DeltaOverlay::materialize`, which
//! must equal a `GraphBuilder` fold of the same ops on a heap or a mapped
//! base.
//!
//! Driven by the seeded in-repo property harness (`BESTK_PROP_SEED` /
//! `BESTK_PROP_CASES`), like the other equivalence suites.

use std::collections::BTreeSet;
use std::sync::Arc;

use bestk::core::{core_decomposition, core_set_profile, Metric, OrderedGraph};
use bestk::delta::{DeltaIndex, DeltaOverlay};
use bestk::exec::ExecPolicy;
use bestk::graph::generators::{
    self, edge_stream_delete_heavy, edge_stream_focused, edge_stream_mixed, EdgeOp,
};
use bestk::graph::testkit::{check, Gen};
use bestk::graph::{bytecsr, ByteCsr, CsrGraph, GraphBuilder};
use bestk_engine::mmap::Mmap;
use bestk_engine::store::{GraphStore, SnapshotSlice};

/// Thread counts the rebuild side is exercised at.
const THREADS: [usize; 3] = [1, 2, 4];

/// Rebuilds a canonical [`CsrGraph`] from an explicit edge set.
fn csr_of(n: usize, edges: &BTreeSet<(u32, u32)>) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(edges.len());
    b.reserve_vertices(n);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// The oracle: assert the incrementally maintained `index` equals a
/// from-scratch build over `current`, field for field, and that every
/// non-triangle metric's best-k answer matches the full pipeline at each
/// thread count.
fn assert_matches_rebuild(index: &DeltaIndex, current: &CsrGraph, context: &str) {
    let rebuilt = DeltaIndex::build(current);
    assert_eq!(index, &rebuilt, "{context}: incremental state diverged");
    assert_eq!(&index.to_csr(), current, "{context}: materialized graph");
    let d = core_decomposition(current);
    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).unwrap();
        let ordered = OrderedGraph::build_with(current, &d, &policy);
        let profile = core_set_profile(&ordered, false);
        for metric in [
            Metric::AverageDegree,
            Metric::InternalDensity,
            Metric::CutRatio,
            Metric::Conductance,
        ] {
            assert_eq!(
                index.best(metric).unwrap(),
                profile.try_best(&metric).unwrap(),
                "{context}: best({metric:?}) at {threads} threads"
            );
        }
    }
}

/// Runs `ops` through the index, checking against the rebuild oracle every
/// `stride` ops and at the end.
fn drive(g: &CsrGraph, ops: &[EdgeOp], stride: usize, label: &str) {
    let mut index = DeltaIndex::build(g);
    let mut edges: BTreeSet<(u32, u32)> = g.edges().collect();
    for (i, op) in ops.iter().enumerate() {
        let (u, v) = op.endpoints();
        match op {
            EdgeOp::Insert(..) => edges.insert((u, v)),
            EdgeOp::Delete(..) => edges.remove(&(u, v)),
        };
        index.apply(op).unwrap();
        if (i + 1) % stride == 0 {
            let current = csr_of(g.num_vertices(), &edges);
            assert_matches_rebuild(&index, &current, &format!("{label}, op {i}"));
        }
    }
    let current = csr_of(g.num_vertices(), &edges);
    assert_matches_rebuild(&index, &current, &format!("{label}, final"));
}

#[test]
fn random_streams_match_rebuild_over_random_graphs() {
    check("delta random sweep", 24, |gen: &mut Gen| {
        let g = gen.graph(40, 120);
        let seed = gen.u64();
        let ops = edge_stream_mixed(&g, 60, seed);
        drive(&g, &ops, 15, "mixed");
    });
}

#[test]
fn delete_heavy_drains_match_rebuild() {
    check("delta delete-heavy sweep", 8, |gen: &mut Gen| {
        let g = gen.graph(30, 100);
        let ops = edge_stream_delete_heavy(&g, 80, gen.u64());
        drive(&g, &ops, 20, "delete-heavy");
    });
}

#[test]
fn churn_on_the_max_k_shell_matches_rebuild() {
    check("delta max-k churn sweep", 8, |gen: &mut Gen| {
        let g = gen.graph(30, 120);
        let d = core_decomposition(&g);
        let focus = d.shell(d.kmax()).to_vec();
        let ops = edge_stream_focused(&g, &focus, 60, gen.u64());
        if ops.is_empty() {
            return; // max-k shell too small to churn — nothing to assert
        }
        drive(&g, &ops, 15, "focused");
    });
}

#[test]
fn a_long_mixed_sequence_stays_exact() {
    // One deep deterministic run: 1000 ops over a structured graph with
    // sparse checkpoints (the per-checkpoint oracle is a full rebuild).
    let g = generators::overlapping_cliques(60, 6, (4, 8), 17);
    let ops = edge_stream_mixed(&g, 1000, 23);
    assert_eq!(ops.len(), 1000);
    drive(&g, &ops, 200, "long mixed");
}

#[test]
fn adversarial_workloads_match_rebuild() {
    // The worst-case shell structures from `generators::adversarial`:
    // maximum shell depth (k_chain), wide shells on a deep core
    // (shell_ladder), and cross-component coreness/metric ties
    // (tie_storm). Deterministic streams, rebuild oracle at 1/2/4
    // threads via assert_matches_rebuild.
    let chain = generators::k_chain(7);
    drive(&chain, &edge_stream_mixed(&chain, 80, 61), 20, "k-chain");

    let ladder = generators::shell_ladder(6, 5);
    drive(
        &ladder,
        &edge_stream_mixed(&ladder, 100, 67),
        25,
        "shell-ladder",
    );

    let storm = generators::tie_storm(6, 5, 71);
    drive(&storm, &edge_stream_mixed(&storm, 100, 73), 25, "tie-storm");

    // Focused churn on the deepest shell of the ladder: every op dirties
    // the full sweep range.
    let d = core_decomposition(&ladder);
    let focus = d.shell(d.kmax()).to_vec();
    let ops = edge_stream_focused(&ladder, &focus, 60, 79);
    assert!(!ops.is_empty(), "ladder core too small to churn");
    drive(&ladder, &ops, 15, "ladder focused");
}

#[test]
fn triangle_metrics_rebuild_lazily_after_focused_mutation() {
    // A commit folds the staged ops and builds the mutated graph's
    // artifacts, triangles included, so the first triangle-metric query
    // after it answers from that build — whose primaries must be
    // bit-identical to building the mutated graph directly, at every
    // thread count.
    let g = generators::overlapping_cliques(40, 5, (4, 7), 31);
    let d = core_decomposition(&g);
    let focus = d.shell(d.kmax()).to_vec();
    let ops = edge_stream_focused(&g, &focus, 40, 83);
    assert!(!ops.is_empty(), "max-k shell too small to churn");

    // Oracle: the mutated graph, materialized independently of the engine.
    let mut edges: BTreeSet<(u32, u32)> = g.edges().collect();
    for op in &ops {
        let (u, v) = op.endpoints();
        match op {
            EdgeOp::Insert(..) => edges.insert((u, v)),
            EdgeOp::Delete(..) => edges.remove(&(u, v)),
        };
    }
    let mutated = csr_of(g.num_vertices(), &edges);

    // Engine path: warm the artifacts pre-mutation (so the commit really
    // invalidates a built dataset), then stage + commit the stream.
    let engine = bestk_engine::SharedEngine::with_budget(None);
    engine.insert_graph("g", g.clone());
    let warm = ExecPolicy::with_threads(1).unwrap();
    engine
        .query("g", &bestk_engine::Query::Stats, &warm)
        .unwrap();
    for op in &ops {
        engine.stage_edge("g", *op).unwrap();
    }
    engine.commit_edges("g", &warm).unwrap();

    let mutated_d = core_decomposition(&mutated);
    let warm_ordered = OrderedGraph::build_with(&mutated, &mutated_d, &warm);
    let baseline = core_set_profile(&warm_ordered, true);
    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).unwrap();
        // Rebuilt primaries (Δ and t included) are bit-identical to the
        // single-threaded from-scratch build.
        let ordered = OrderedGraph::build_with(&mutated, &mutated_d, &policy);
        let profile = core_set_profile(&ordered, true);
        assert!(profile.has_triangles);
        assert_eq!(
            profile.primaries, baseline.primaries,
            "primaries diverged at {threads} threads"
        );
        // And the commit's build serves the same triangle answers.
        for metric in [Metric::ClusteringCoefficient, Metric::TriangleDensity] {
            let line = engine
                .query("g", &bestk_engine::Query::BestKSet { metric }, &policy)
                .unwrap()
                .to_line();
            let best = baseline.try_best(&metric).unwrap().expect("feasible");
            assert_eq!(
                line,
                format!(
                    "bestkset\t{}\tk={}\tscore={}",
                    metric.abbrev(),
                    best.k,
                    best.score
                ),
                "engine answer diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn triangle_rebuild_after_parallel_commit_matches_cold_sequential() {
    // The parallel-peel variant of the drill above: the whole engine path
    // — warm-up build, the focused commit's fold and build, and the
    // triangle answers — runs under a *parallel* policy, and every
    // triangle-metric answer must still match a cold sequential rebuild of
    // the mutated graph. This is the `mutate --stream focused` CLI path in
    // miniature.
    let g = generators::overlapping_cliques(40, 5, (4, 7), 31);
    let d = core_decomposition(&g);
    let focus = d.shell(d.kmax()).to_vec();
    let ops = edge_stream_focused(&g, &focus, 40, 83);
    assert!(!ops.is_empty(), "max-k shell too small to churn");

    // Cold oracle: materialize the mutated graph outside the engine and
    // rebuild it sequentially, triangles included.
    let mut edges: BTreeSet<(u32, u32)> = g.edges().collect();
    for op in &ops {
        let (u, v) = op.endpoints();
        match op {
            EdgeOp::Insert(..) => edges.insert((u, v)),
            EdgeOp::Delete(..) => edges.remove(&(u, v)),
        };
    }
    let mutated = csr_of(g.num_vertices(), &edges);
    let cold_d = core_decomposition(&mutated);
    let cold = core_set_profile(&OrderedGraph::build(&mutated, &cold_d), true);

    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).unwrap();
        let engine = bestk_engine::SharedEngine::with_budget(None);
        engine.insert_graph("g", g.clone());
        engine
            .query("g", &bestk_engine::Query::Stats, &policy)
            .unwrap();
        for op in &ops {
            engine.stage_edge("g", *op).unwrap();
        }
        engine.commit_edges("g", &policy).unwrap();
        for metric in [Metric::ClusteringCoefficient, Metric::TriangleDensity] {
            let line = engine
                .query("g", &bestk_engine::Query::BestKSet { metric }, &policy)
                .unwrap()
                .to_line();
            let best = cold.try_best(&metric).unwrap().expect("feasible");
            assert_eq!(
                line,
                format!(
                    "bestkset\t{}\tk={}\tscore={}",
                    metric.abbrev(),
                    best.k,
                    best.score
                ),
                "parallel commit diverged from cold rebuild at {threads} threads"
            );
        }
    }
}

/// `g` behind the engine's mapped store, as a loaded snapshot holds it.
fn mapped(g: &CsrGraph) -> GraphStore {
    let map = Arc::new(Mmap::from_vec(bytecsr::encode_view(g)));
    let len = map.len();
    let slice = SnapshotSlice::new(map, 0, len).expect("slice");
    GraphStore::Mapped(ByteCsr::new(slice).expect("framing"))
}

/// The op that flips `{u, v}` in `edges`, which it updates.
fn flip(edges: &mut BTreeSet<(u32, u32)>, u: u32, v: u32) -> EdgeOp {
    if edges.remove(&(u, v)) {
        EdgeOp::Delete(u, v)
    } else {
        edges.insert((u, v));
        EdgeOp::Insert(u, v)
    }
}

#[test]
fn overlay_round_trips_arbitrary_valid_sequences() {
    check("delta overlay replay", 16, |gen: &mut Gen| {
        let g = gen.graph(30, 80);
        let mut ops = edge_stream_mixed(&g, 40, gen.u64());
        let mut edges: BTreeSet<(u32, u32)> = g.edges().collect();
        for op in &ops {
            let (u, v) = op.endpoints();
            match op {
                EdgeOp::Insert(..) => edges.insert((u, v)),
                EdgeOp::Delete(..) => edges.remove(&(u, v)),
            };
        }
        // An edge at the highest vertex id flipped twice, so it leaves the
        // flip set, then one flipped once more.
        let top = g.num_vertices() as u32 - 1;
        ops.push(flip(&mut edges, 0, top));
        ops.push(flip(&mut edges, 0, top));
        ops.push(flip(&mut edges, top - 1, top));
        let want = csr_of(g.num_vertices(), &edges);
        // The fold equals the `GraphBuilder` fold on a CSR and on a mapped
        // base alike.
        let mut overlay = DeltaOverlay::new(&g);
        let mut over_mapped = DeltaOverlay::new(mapped(&g));
        for op in &ops {
            overlay.apply(*op).unwrap();
            over_mapped.apply(*op).unwrap();
        }
        assert_eq!(overlay.materialize(), want);
        assert_eq!(over_mapped.materialize(), want);
        // The overlay agrees with the materialized graph pair by pair
        // while the base is still the original graph underneath.
        for u in want.vertices() {
            for v in want.vertices() {
                assert_eq!(overlay.has_edge(u, v), want.has_edge(u, v), "({u}, {v})");
            }
        }
    });
}
