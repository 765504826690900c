//! Micro-bench: Figure 8 in micro form — optimal (Algorithm 5) versus
//! baseline (§IV-B) for the best single k-core, plus the LCPS forest
//! construction itself (part of the optimal side's index building).
//!
//! An ordering caches its min-rank triangle counts after the first
//! Algorithm 5 run, so `bestcore_clustering/optimal/*` builds a fresh
//! ordering inside every timed iteration: each one pays the `O(m^1.5)`
//! listing, plus the `O(m)` ordering build.

use bestk_bench::Bench;
use bestk_core::baseline::baseline_single_core_primaries;
use bestk_core::bestcore::single_core_primaries;
use bestk_core::{core_decomposition, CoreForest, OrderedGraph};
use bestk_graph::generators;

fn inputs() -> Vec<(&'static str, bestk_graph::CsrGraph)> {
    vec![
        (
            "chung_lu_50k",
            generators::chung_lu_power_law(50_000, 10.0, 2.4, 1),
        ),
        (
            "cliques_10k",
            generators::overlapping_cliques(10_000, 1_500, (5, 25), 3),
        ),
    ]
}

fn bench_forest_build(b: &Bench) {
    for (name, g) in inputs() {
        let d = core_decomposition(&g);
        b.run(&format!("lcps_forest_build/{name}"), || {
            CoreForest::build(&g, &d)
        });
    }
}

fn bench_single_core(b: &Bench) {
    for (name, g) in inputs() {
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        let f = CoreForest::build(&g, &d);
        b.run(&format!("bestcore_avg_degree/optimal/{name}"), || {
            single_core_primaries(&o, &f, false)
        });
        b.run(&format!("bestcore_avg_degree/baseline/{name}"), || {
            baseline_single_core_primaries(&g, &d, false)
        });
    }
}

fn bench_single_core_triangles(b: &Bench) {
    for (name, g) in inputs() {
        let d = core_decomposition(&g);
        let f = CoreForest::build(&g, &d);
        b.run(&format!("bestcore_clustering/optimal/{name}"), || {
            single_core_primaries(&OrderedGraph::build(&g, &d), &f, true)
        });
        b.run(&format!("bestcore_clustering/baseline/{name}"), || {
            baseline_single_core_primaries(&g, &d, true)
        });
    }
}

fn main() {
    let b = Bench::from_env_or_exit();
    bench_forest_build(&b);
    bench_single_core(&b);
    bench_single_core_triangles(&b);
    b.finish_or_exit();
}
