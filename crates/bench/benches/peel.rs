//! Micro-bench: the peel on the 20k-vertex deep-shell stand-in
//! (`k_chain(197)`: n = 19,700, `kmax` = 197 — the regime the paper's
//! Table III datasets occupy once their shell structure matters).
//!
//! `peel/decompose/t1` times one `core_decomposition` call: a lazy bucket
//! queue advances the level in `O(n + m)` and opening frontiers are sorted
//! by id (`O(n log n)` worst case). The peel runs on the calling thread at
//! every thread count, so the bench has no tN rows to compare. With
//! `BESTK_BENCH_JSON` set, the record lands in the JSON report, with the
//! host's `available_parallelism`.

use bestk_bench::Bench;
use bestk_core::core_decomposition;
use bestk_graph::generators;

fn main() {
    let b = Bench::from_env_or_exit();
    assert!(
        !bestk_faults::is_enabled(),
        "fault injection must be disabled for benchmarks"
    );
    let g = generators::k_chain(197);
    println!(
        "# graph: k_chain_197 (n = {}, m = {})",
        g.num_vertices(),
        g.num_edges()
    );
    b.run("peel/decompose/t1", || core_decomposition(&g));
    b.finish_or_exit();
}
