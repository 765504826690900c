//! Micro-bench: triangle listing (DESIGN.md §6.4) — the degree-ordered
//! forward counter (the independent oracle) against the rank-ordered
//! min-rank listing Algorithms 3 and 5 read.
//!
//! `triangles/rank_marking/*` builds a fresh ordering inside every timed
//! iteration, so each one pays `OrderedGraph::min_rank_triangles`' listing
//! rather than reading the counts an earlier iteration cached; the `O(m)`
//! ordering build rides along in its time.

use bestk_bench::Bench;
use bestk_core::triangles::count_triangles;
use bestk_core::{core_decomposition, OrderedGraph};
use bestk_graph::generators;

fn bench_triangle_counting(b: &Bench) {
    for (name, g) in [
        (
            "chung_lu_50k",
            generators::chung_lu_power_law(50_000, 10.0, 2.4, 1),
        ),
        (
            "cliques_10k",
            generators::overlapping_cliques(10_000, 1_500, (5, 25), 3),
        ),
        ("rmat_s15", generators::rmat(15, 12, 0.57, 0.19, 0.19, 2)),
    ] {
        let d = core_decomposition(&g);
        let m = g.num_edges() as u64;
        b.run_elements(&format!("triangles/forward_degree/{name}"), m, || {
            count_triangles(&g)
        });
        b.run_elements(&format!("triangles/rank_marking/{name}"), m, || {
            let o = OrderedGraph::build(&g, &d);
            o.min_rank_triangles().iter().sum::<u64>()
        });
    }
}

fn main() {
    let b = Bench::from_env_or_exit();
    bench_triangle_counting(&b);
    b.finish_or_exit();
}
