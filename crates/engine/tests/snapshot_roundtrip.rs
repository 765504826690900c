//! Property test: a `save → open` round trip answers every query
//! byte-identically to the fresh in-memory dataset, and the opened graph
//! section passes the deferred graph check.
//!
//! Three generator families (Erdős–Rényi G(n,m), Chung–Lu power-law,
//! planted overlapping cliques) plus fully random testkit graphs are swept
//! with seeded cases; failures replay via `BESTK_PROP_SEED`.

use std::sync::Arc;

use bestk_core::Metric;
use bestk_engine::{mmap::Mmap, snapv2, Dataset, Query};
use bestk_exec::ExecPolicy;
use bestk_graph::{generators, testkit, CsrGraph, GraphView};

fn built(g: CsrGraph) -> Dataset {
    let mut ds = Dataset::from_graph(g);
    ds.ensure_built(&ExecPolicy::Sequential);
    ds
}

/// `BestKSet` + `BestCore` for all six base metrics, plus profiles, stats,
/// and a few vertex lookups.
fn query_set(n: usize) -> Vec<Query> {
    let mut qs = vec![Query::Stats];
    for m in Metric::ALL {
        qs.push(Query::BestKSet { metric: m });
        qs.push(Query::BestCore { metric: m });
        qs.push(Query::ScoreProfile { metric: m });
    }
    for v in [0usize, n / 2, n.saturating_sub(1)] {
        if v < n {
            qs.push(Query::CoreOfVertex { vertex: v as u32 });
        }
    }
    qs
}

fn answer_lines(ds: &Dataset, policy: &ExecPolicy) -> Vec<String> {
    ds.answer_batch(&query_set(ds.graph().num_vertices()), policy)
        .into_iter()
        .map(|r| match r {
            Ok(a) => a.to_line(),
            Err(e) => format!("err\t{e}"),
        })
        .collect()
}

fn assert_roundtrip(g: CsrGraph, label: &str) {
    let original = built(g);
    let bytes = snapv2::to_bytes(&original).expect("save");
    let loaded = snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes))).expect("open");
    assert!(loaded.is_built(), "{label}: snapshot must arrive built");
    assert!(
        loaded.mapped_index().is_some(),
        "{label}: opened snapshots are mapped"
    );
    loaded.graph().check().expect("graph section checks out");
    assert_eq!(loaded.graph(), original.graph(), "{label}: graph mismatch");
    let seq = ExecPolicy::Sequential;
    let fresh = answer_lines(&original, &seq);
    assert_eq!(
        answer_lines(&loaded, &seq),
        fresh,
        "{label}: answers diverge"
    );
    // And the loaded dataset stays thread-invariant.
    for threads in [2usize, 4] {
        let par = ExecPolicy::with_threads(threads).expect("policy");
        assert_eq!(
            answer_lines(&loaded, &par),
            fresh,
            "{label}: answers diverge at {threads} threads"
        );
    }
}

#[test]
fn prop_roundtrip_erdos_renyi() {
    testkit::check("engine_roundtrip_er", 12, |gen| {
        let n = gen.usize_in(2, 120);
        let m = gen.usize_in(0, 3 * n);
        let seed = gen.u64();
        assert_roundtrip(
            generators::erdos_renyi_gnm(n, m, seed),
            &format!("er n={n} m={m} seed={seed}"),
        );
    });
}

#[test]
fn prop_roundtrip_chung_lu_power_law() {
    testkit::check("engine_roundtrip_cl", 10, |gen| {
        let n = gen.usize_in(4, 150);
        let avg = 1.0 + 5.0 * gen.f64_unit();
        let gamma = 2.1 + gen.f64_unit();
        let seed = gen.u64();
        assert_roundtrip(
            generators::chung_lu_power_law(n, avg, gamma, seed),
            &format!("cl n={n} seed={seed}"),
        );
    });
}

#[test]
fn prop_roundtrip_overlapping_cliques() {
    testkit::check("engine_roundtrip_cliques", 10, |gen| {
        let n = gen.usize_in(10, 120);
        let cliques = gen.usize_in(1, 12);
        let lo = gen.usize_in(2, 5);
        let hi = lo + gen.usize_in(0, 4);
        let seed = gen.u64();
        assert_roundtrip(
            generators::overlapping_cliques(n, cliques, (lo, hi), seed),
            &format!("cliques n={n} c={cliques} seed={seed}"),
        );
    });
}

#[test]
fn prop_roundtrip_testkit_random_graphs() {
    testkit::check("engine_roundtrip_random", 12, |gen| {
        let g = gen.graph(100, 400);
        assert_roundtrip(g, "testkit random graph");
    });
}

#[test]
fn roundtrip_empty_and_edgeless_graphs() {
    for n in [0, 5] {
        assert_roundtrip(CsrGraph::empty(n), &format!("edgeless n={n}"));
    }
}
