//! Micro-bench: core decomposition (the shared `O(n log n + m)`
//! preprocessing of every algorithm in the paper; the "core decomposition"
//! slice of the Figure 7/8 stacked bars).

use bestk_bench::Bench;
use bestk_core::core_decomposition;
use bestk_core::hindex::hindex_core_decomposition;
use bestk_graph::generators;

fn bench_decomposition(b: &Bench) {
    for (name, g) in [
        (
            "chung_lu_100k",
            generators::chung_lu_power_law(100_000, 10.0, 2.4, 1),
        ),
        ("rmat_s16", generators::rmat(16, 12, 0.57, 0.19, 0.19, 2)),
        (
            "cliques_20k",
            generators::overlapping_cliques(20_000, 3_000, (5, 25), 3),
        ),
    ] {
        let m = g.num_edges() as u64;
        b.run_elements(&format!("core_decomposition/{name}"), m, || {
            core_decomposition(&g)
        });
    }
}

/// Peeling versus h-index iteration (the distributed-style alternative):
/// peeling wins sequentially; the gap is the price a distributed/streaming
/// deployment pays per round.
fn bench_decomposition_strategies(b: &Bench) {
    let g = generators::chung_lu_power_law(100_000, 10.0, 2.4, 1);
    let m = g.num_edges() as u64;
    b.run_elements("decomposition_strategy/bz_peeling", m, || {
        core_decomposition(&g)
    });
    b.run_elements("decomposition_strategy/hindex_sync", m, || {
        hindex_core_decomposition(&g)
    });
}

fn main() {
    let b = Bench::from_env_or_exit();
    bench_decomposition(&b);
    bench_decomposition_strategies(&b);
    b.finish_or_exit();
}
