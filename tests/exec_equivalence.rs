//! The execution runtime's determinism contract, end to end: every kernel
//! routed through `bestk::exec::ExecPolicy` must produce output
//! *bit-identical* to its sequential twin at every thread count.
//!
//! Each refactored crate carries its own per-kernel equivalence test next
//! to the kernel; this suite checks the composed pipelines — the whole
//! `analyze` facade and the truss pipeline — across thread counts on
//! randomized graphs, driven by the seeded in-repo property harness
//! (`BESTK_PROP_SEED` / `BESTK_PROP_CASES`).

use bestk::core::{analyze, analyze_with, core_decomposition, CommunityMetric, Metric};
use bestk::exec::ExecPolicy;
use bestk::graph::testkit::check;
use bestk::graph::{generators, CsrGraph};
use bestk::truss::decomposition::{truss_decomposition_exec, truss_decomposition_with_index};
use bestk::truss::EdgeIndex;

/// Thread counts exercised everywhere: sequential-as-parallel (1), even
/// (2, 4), and a prime that never divides the chunk count evenly (7).
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// `analyze_with` at every thread count against the sequential `analyze`.
fn assert_analysis_invariant(g: &CsrGraph) {
    let reference = analyze(g);
    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).unwrap();
        let a = analyze_with(g, &policy);
        assert_eq!(
            a.decomposition().coreness_slice(),
            reference.decomposition().coreness_slice(),
            "{threads} threads"
        );
        assert_eq!(
            a.forest().nodes(),
            reference.forest().nodes(),
            "forest, {threads} threads"
        );
        for m in Metric::ALL {
            assert_eq!(
                a.best_core_set(&m),
                reference.best_core_set(&m),
                "{} set, {threads} threads",
                m.name()
            );
            assert_eq!(
                a.best_single_core(&m),
                reference.best_single_core(&m),
                "{} single, {threads} threads",
                m.name()
            );
            // Score series compare on raw bits: the contract is
            // determinism, not approximate agreement.
            let s = a.core_set_scores(&m);
            let r = reference.core_set_scores(&m);
            assert_eq!(
                s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{} series, {threads} threads",
                m.name()
            );
        }
    }
}

#[test]
fn analyze_pipeline_is_thread_count_invariant() {
    check("exec_analyze_pipeline_equivalence", 16, |gen| {
        assert_analysis_invariant(&gen.graph(80, 360));
    });
    // Above the build's overlap minimum, so the forest runs beside the
    // fanned-out triangle listing and the two sweeps run side by side.
    let g = generators::chung_lu_power_law(4_000, 10.0, 2.4, 5);
    assert!(g.num_edges() > 15_000, "m = {}", g.num_edges());
    assert_analysis_invariant(&g);
}

#[test]
fn truss_pipeline_is_thread_count_invariant() {
    check("exec_truss_pipeline_equivalence", 12, |gen| {
        let g = gen.graph(50, 240);
        let idx = EdgeIndex::build(&g);
        let reference = truss_decomposition_with_index(&g, &idx);
        for threads in THREADS {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let t = truss_decomposition_exec(&g, &idx, &policy);
            assert_eq!(
                t.truss_slice(),
                reference.truss_slice(),
                "{threads} threads"
            );
            assert_eq!(t.tmax(), reference.tmax(), "{threads} threads");
            for v in g.vertices() {
                assert_eq!(t.vertex_truss(v), reference.vertex_truss(v));
            }
        }
    });
}

#[test]
fn hindex_rounds_and_coreness_are_thread_count_invariant() {
    check("exec_hindex_equivalence", 16, |gen| {
        let g = gen.graph(60, 260);
        let d = core_decomposition(&g);
        let reference = bestk::core::hindex::hindex_core_decomposition(&g);
        assert_eq!(reference.coreness, d.coreness_slice());
        for threads in THREADS {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let h = bestk::core::hindex::hindex_core_decomposition_with(&g, &policy);
            assert_eq!(h.coreness, reference.coreness, "{threads} threads");
            assert_eq!(h.rounds, reference.rounds, "{threads} threads");
        }
    });
}
