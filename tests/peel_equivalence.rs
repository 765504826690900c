//! The differential test layer for the peel.
//!
//! One bucket-frontier peel ([`par_peel`]) backs [`core_decomposition`]
//! and [`core_decomposition_with`]. This suite proves its output is
//! **bit-identical** at every thread count — coreness, rank order, shell
//! boundaries, the peel order itself, the Alg. 1 position tags, the Alg. 2
//! per-k primaries, and the serialized `.bestk` snapshot bytes — by
//! forcing every sub-round through the parallel dispatch at threads
//! {1, 2, 4, 7} and comparing against the one-thread run, over random
//! graphs and the adversarial shapes (`k_chain`, `shell_ladder`,
//! `tie_storm`, max-degeneracy cliques).
//!
//! The test oracle is an independent, deliberately naive reference
//! implementation of the canonical peel in this file. It fixes the
//! coreness and the peel order, and it exposes what the production API
//! hides (sub-round ids and the decrement count), pinning the
//! frontier/bucket invariants: monotone non-decreasing peel level,
//! disjoint frontiers covering every vertex exactly once, and conservation
//! of decrements (every edge decrements exactly once unless both endpoints
//! leave in the same simultaneous sub-round).
//!
//! Random cases run on the seeded in-repo property harness
//! (`BESTK_PROP_SEED` / `BESTK_PROP_CASES`), like the other equivalence
//! suites.

mod common;

use bestk::core::{
    core_decomposition, core_decomposition_with, core_set_profile, par_peel, CoreDecomposition,
    OrderedGraph,
};
use bestk::exec::ExecPolicy;
use bestk::graph::generators::{self, regular};
use bestk::graph::testkit::{check, Gen};
use bestk::graph::{CsrGraph, VertexId};
use bestk_engine::Dataset;

/// Thread counts the forced dispatch is exercised at. 7 is deliberately
/// prime and larger than the chunk-per-worker alignment assumptions.
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Forces every sub-round through `for_each_disjoint`, however small.
const FORCE_PARALLEL: usize = 0;

/// Serializes the tests within this binary: `bestk::obs::with_fresh` swaps
/// the process-global metrics registry, so a sibling test peeling while
/// the observed-rounds test runs would write into its fresh registry.
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Asserts the one-thread run has the reference coreness and peel order,
/// and that forced dispatch reproduces it bit-for-bit at every thread
/// count, including the downstream artifacts the sweep consumes (tags and
/// per-k primaries).
fn assert_thread_invariant(g: &CsrGraph, context: &str) {
    let want = core_decomposition(g);
    let r = reference_peel(g);
    assert_eq!(
        want.coreness_slice(),
        &r.coreness[..],
        "{context}: coreness"
    );
    assert_eq!(
        want.peel_ordering(),
        &r.peel_order[..],
        "{context}: peel order"
    );
    let want_ordered = OrderedGraph::build(g, &want);
    let want_profile = core_set_profile(&want_ordered, true);
    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).unwrap();
        let got = par_peel(g, &policy, FORCE_PARALLEL);
        assert_eq!(got, want, "{context}: decomposition at {threads} threads");
        let ordered = OrderedGraph::build_with(g, &got, &policy);
        assert_eq!(
            ordered.raw_tags(),
            want_ordered.raw_tags(),
            "{context}: Alg. 1 tags at {threads} threads"
        );
        let profile = core_set_profile(&ordered, true);
        assert_eq!(
            profile.primaries, want_profile.primaries,
            "{context}: Alg. 2 primaries at {threads} threads"
        );
        // The policy-dispatched entry point (production min-work gate)
        // must agree too, not just the forced-dispatch path.
        assert_eq!(
            core_decomposition_with(g, &policy),
            want,
            "{context}: core_decomposition_with at {threads} threads"
        );
    }
}

#[test]
fn random_graphs_are_bit_identical() {
    let _g = gate();
    check("peel equivalence random sweep", 24, |gen: &mut Gen| {
        let g = gen.graph(60, 220);
        assert_thread_invariant(&g, "random");
    });
}

#[test]
fn sparse_and_degenerate_shapes_are_bit_identical() {
    let _g = gate();
    for (name, g) in [
        ("empty", CsrGraph::empty(0)),
        ("isolated", CsrGraph::empty(5)),
        ("single-edge", {
            let mut b = bestk::graph::GraphBuilder::new();
            b.add_edge(0, 1);
            b.reserve_vertices(4);
            b.build()
        }),
        ("path", regular::path(31)),
        ("star", regular::star(17)),
        ("figure2", generators::paper_figure2()),
    ] {
        assert_thread_invariant(&g, name);
    }
}

#[test]
fn adversarial_shapes_are_bit_identical() {
    let _g = gate();
    // Maximum shell depth, wide shells over a deep core, cross-component
    // ties, and max-degeneracy constructions (a clique peels in one
    // simultaneous frontier; a clique chain cascades through bridges).
    for (name, g) in [
        ("k-chain", generators::k_chain(10)),
        ("shell-ladder", generators::shell_ladder(8, 7)),
        ("tie-storm", generators::tie_storm(6, 5, 71)),
        ("complete", regular::complete(40)),
        ("clique-chain", regular::clique_chain(4, 12)),
        (
            "overlapping",
            generators::overlapping_cliques(80, 8, (4, 9), 17),
        ),
    ] {
        assert_thread_invariant(&g, name);
    }
}

#[test]
fn snapshot_bytes_are_identical_under_both_strategies() {
    let _g = gate();
    // The end-to-end determinism contract: a dataset built under a
    // parallel policy serializes to the *same bytes* as one built under
    // `ExecPolicy::Sequential`, and holds the same peel order, Alg. 1
    // tags, and forest, which the snapshot does not persist.
    for (name, g) in [
        ("random", generators::erdos_renyi_gnm(300, 1200, 41)),
        ("ladder", generators::shell_ladder(7, 9)),
    ] {
        let mut reference = Dataset::from_graph(g.clone());
        reference.ensure_built(&ExecPolicy::Sequential);
        for threads in [2, 4, 7] {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let mut ds = Dataset::from_graph(g.clone());
            ds.ensure_built(&policy);
            common::assert_same_index(&ds, &reference, &format!("{name} at {threads} threads"));
        }
    }
}

/// What the reference peel exposes beyond the production API.
struct ReferencePeel {
    peel_order: Vec<VertexId>,
    coreness: Vec<u32>,
    /// Global sub-round index (across levels) each vertex was removed in.
    round: Vec<usize>,
    /// Number of degree decrements applied over the whole run.
    decrements: usize,
    /// Total number of sub-rounds.
    rounds: usize,
}

/// The test oracle: an independent transcription of the canonical peel
/// (kept deliberately naive, `O(n·kmax + m)`): per level, collect every live vertex of minimum
/// degree ascending by id; peel whole frontiers simultaneously; decrement
/// live neighbors in frontier-scan order; vertices crossing the level form
/// the next frontier in first-crossing order.
fn reference_peel(g: &CsrGraph) -> ReferencePeel {
    let n = g.num_vertices();
    let mut cur: Vec<usize> = (0..n).map(|v| g.degree(v as VertexId)).collect();
    let mut queued = vec![false; n];
    let mut peeled = vec![false; n];
    let mut coreness = vec![0u32; n];
    let mut round = vec![0usize; n];
    let mut peel_order = Vec::with_capacity(n);
    let mut decrements = 0usize;
    let mut rounds = 0usize;
    let mut remaining = n;
    while remaining > 0 {
        let k = (0..n)
            .filter(|&v| !queued[v])
            .map(|v| cur[v])
            .min()
            .expect("remaining > 0");
        let mut frontier: Vec<VertexId> = (0..n)
            .filter(|&v| !queued[v] && cur[v] == k)
            .map(|v| v as VertexId)
            .collect();
        for &v in &frontier {
            queued[v as usize] = true;
        }
        while !frontier.is_empty() {
            remaining -= frontier.len();
            for &v in &frontier {
                peeled[v as usize] = true;
                coreness[v as usize] = k as u32;
                round[v as usize] = rounds;
                peel_order.push(v);
            }
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in g.neighbors(v) {
                    let uu = u as usize;
                    if peeled[uu] {
                        continue;
                    }
                    cur[uu] -= 1;
                    decrements += 1;
                    if !queued[uu] && cur[uu] <= k {
                        queued[uu] = true;
                        next.push(u);
                    }
                }
            }
            rounds += 1;
            frontier = next;
        }
    }
    ReferencePeel {
        peel_order,
        coreness,
        round,
        decrements,
        rounds,
    }
}

/// Checks the frontier/bucket invariants of one decomposition against the
/// reference peel's exposed internals.
fn assert_frontier_invariants(g: &CsrGraph, d: &CoreDecomposition, context: &str) {
    let n = g.num_vertices();
    let r = reference_peel(g);
    assert_eq!(d.peel_ordering(), &r.peel_order[..], "{context}: order");
    assert_eq!(d.coreness_slice(), &r.coreness[..], "{context}: coreness");

    // Disjoint frontiers covering every vertex exactly once: the peel
    // order is a permutation (checked via positions) and round ids are
    // monotone non-decreasing along it, as are the levels.
    let mut position = vec![usize::MAX; n];
    for (i, &v) in d.peel_ordering().iter().enumerate() {
        assert_eq!(position[v as usize], usize::MAX, "{context}: duplicate");
        position[v as usize] = i;
    }
    assert!(
        position.iter().all(|&p| p != usize::MAX),
        "{context}: cover"
    );
    for w in d.peel_ordering().windows(2) {
        let (a, b) = (w[0] as usize, w[1] as usize);
        assert!(
            r.round[a] <= r.round[b],
            "{context}: rounds must be contiguous runs of the peel order"
        );
        assert!(
            d.coreness_slice()[a] <= d.coreness_slice()[b],
            "{context}: peel level must be monotone non-decreasing"
        );
    }

    // Conservation of decrements: each edge decrements exactly once —
    // when its first endpoint leaves — unless both endpoints leave in the
    // same simultaneous sub-round, in which case it never does.
    let intra: usize = g
        .edges()
        .filter(|&(u, v)| r.round[u as usize] == r.round[v as usize])
        .count();
    assert_eq!(
        r.decrements + intra,
        g.num_edges(),
        "{context}: every edge decrements exactly once or is intra-frontier"
    );

    // Frozen-degree invariant: at removal, a vertex's live degree is at
    // most its level — so at most c(v) of its neighbors appear at or
    // after its own sub-round (strictly later rounds or same-round).
    for v in 0..n {
        let later = g
            .neighbors(v as VertexId)
            .iter()
            .filter(|&&u| r.round[u as usize] >= r.round[v])
            .count();
        assert!(
            later <= d.coreness_slice()[v] as usize,
            "{context}: vertex {v} kept {later} live neighbors past level {}",
            d.coreness_slice()[v]
        );
    }
}

#[test]
fn frontier_and_bucket_invariants_hold_inline_and_fanned_out() {
    let _g = gate();
    check("peel frontier invariants", 16, |gen: &mut Gen| {
        let g = gen.graph(40, 140);
        assert_frontier_invariants(&g, &core_decomposition(&g), "one thread");
        let policy = ExecPolicy::with_threads(4).unwrap();
        assert_frontier_invariants(&g, &par_peel(&g, &policy, FORCE_PARALLEL), "4 threads");
    });
}

#[test]
fn observed_rounds_and_frontier_sizes_are_thread_count_invariant() {
    use std::sync::Arc;
    let _g = gate();
    // The inline and the fanned-out runs must report the identical
    // canonical round structure to bestk-obs — that is what keeps the
    // metrics golden stable across thread counts — and the histogram must
    // account for every vertex exactly once (frontier disjointness,
    // observed externally).
    let clock = || Arc::new(bestk::obs::ManualClock::with_step(1)) as Arc<dyn bestk::obs::Clock>;
    for g in [
        generators::shell_ladder(6, 8),
        generators::erdos_renyi_gnm(100, 300, 5),
    ] {
        let reference = reference_peel(&g);
        let ((), seq) = bestk::obs::with_fresh(clock(), || {
            core_decomposition(&g);
        });
        let rounds = seq.counter("phase.peel.rounds").expect("rounds recorded");
        let hist = seq.histogram("core.frontier_size").expect("sizes recorded");
        assert_eq!(rounds as usize, reference.rounds);
        assert_eq!(hist.count as usize, reference.rounds);
        assert_eq!(hist.sum as usize, g.num_vertices(), "frontiers cover n");
        for threads in THREADS {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let ((), par) = bestk::obs::with_fresh(clock(), || {
                par_peel(&g, &policy, FORCE_PARALLEL);
            });
            assert_eq!(par.counter("phase.peel.rounds"), Some(rounds), "{threads}");
            assert_eq!(
                par.histogram("core.frontier_size"),
                Some(hist),
                "{threads} threads"
            );
        }
    }
}
