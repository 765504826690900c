//! Micro-bench: Figure 7 in micro form — optimal (Algorithms 2/3) versus
//! baseline (§III-A) score computation for the best k-core set, for a
//! basic metric (average degree) and a triangle metric (clustering
//! coefficient).
//!
//! An ordering caches its min-rank triangle counts after the first
//! Algorithm 3 run, so `bestkset_clustering/optimal/*` builds a fresh
//! ordering inside every timed iteration: each one pays the `O(m^1.5)`
//! listing, plus the `O(m)` ordering build.

use bestk_bench::Bench;
use bestk_core::baseline::baseline_core_set_primaries;
use bestk_core::bestkset::{
    core_set_primaries, core_set_primaries_bottom_up, core_set_primaries_with_triangles,
};
use bestk_core::{core_decomposition, OrderedGraph};
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

fn bench_basic_metrics(b: &Bench) {
    for (name, g) in inputs() {
        let d = core_decomposition(&g);
        let o = OrderedGraph::build(&g, &d);
        b.run(&format!("bestkset_avg_degree/optimal/{name}"), || {
            core_set_primaries(&o)
        });
        b.run(&format!("bestkset_avg_degree/baseline/{name}"), || {
            baseline_core_set_primaries(&g, &d, false)
        });
    }
}

fn bench_triangle_metrics(b: &Bench) {
    for (name, g) in inputs() {
        let d = core_decomposition(&g);
        b.run(&format!("bestkset_clustering/optimal/{name}"), || {
            core_set_primaries_with_triangles(&OrderedGraph::build(&g, &d))
        });
        b.run(&format!("bestkset_clustering/baseline/{name}"), || {
            baseline_core_set_primaries(&g, &d, true)
        });
    }
}

/// Ablation (DESIGN.md §6.2): sweep direction for the basic primaries.
/// Both directions are O(n); the point is that neither needs re-counting —
/// unlike a bottom-up *triangle* sweep, which would degenerate to the
/// baseline (benchmarked above as `baseline`).
fn bench_sweep_direction(b: &Bench) {
    let g = generators::chung_lu_power_law(50_000, 10.0, 2.4, 1);
    let d = core_decomposition(&g);
    let o = OrderedGraph::build(&g, &d);
    b.run("sweep_direction_ablation/top_down", || {
        core_set_primaries(&o)
    });
    b.run("sweep_direction_ablation/bottom_up", || {
        core_set_primaries_bottom_up(&o)
    });
}

fn main() {
    let b = Bench::from_env_or_exit();
    bench_basic_metrics(&b);
    bench_triangle_metrics(&b);
    bench_sweep_direction(&b);
    b.finish_or_exit();
}
