//! Micro-bench: the shared execution runtime (`bestk-exec`) — every kernel
//! that keeps a fan-out, at 1, 2, and 4 worker threads, printing the
//! observed speedup over the single-thread run:
//!
//! * `exec/order_tags/tN` — `OrderedGraph::build_with` (the Alg. 1
//!   rank-order scatter plus the fanned-out position-tag scan);
//! * `exec/hindex/tN` — the h-index rounds;
//! * `exec/truss_supports/tN` — the truss support counts;
//! * `exec/artifacts/tN` — `Artifacts::build`, the whole index build: the
//!   forest beside the fanned-out triangle listing, then Alg. 3's sweep
//!   beside Alg. 5's (`bestk_core::build_stages`);
//! * `exec/artifacts_small/tN` — the same build on a graph just above the
//!   size below which it runs entirely on the calling thread, at 1 and 2
//!   threads.
//!
//! With `BESTK_BENCH_JSON` set, the per-thread-count records (name,
//! threads, min/mean ns) land in the JSON report, with the host's
//! `available_parallelism`; EXPERIMENTS.md cites the committed
//! `BENCH_exec.json`.

use std::time::Duration;

use bestk_bench::Bench;
use bestk_core::hindex::hindex_core_decomposition_with;
use bestk_core::{core_decomposition, OrderedGraph};
use bestk_engine::Artifacts;
use bestk_exec::ExecPolicy;
use bestk_graph::generators;
use bestk_truss::decomposition::edge_supports_with;
use bestk_truss::EdgeIndex;

const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `f` under each thread count, printing the speedup of every parallel
/// run relative to the single-thread minimum.
fn sweep(b: &Bench, name: &str, f: impl FnMut(&ExecPolicy)) {
    sweep_at(b, name, &THREADS, f);
}

/// [`sweep`] over the given thread counts (the first must be 1).
fn sweep_at(b: &Bench, name: &str, thread_counts: &[usize], mut f: impl FnMut(&ExecPolicy)) {
    let mut base: Option<Duration> = None;
    for &threads in thread_counts {
        let policy = match ExecPolicy::with_threads(threads) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("skipping {name} at {threads} threads: {e}");
                continue;
            }
        };
        let timings = b.run_threads(&format!("{name}/t{threads}"), threads, || f(&policy));
        let min = timings.iter().min().copied();
        match (threads, base, min) {
            (1, _, m) => base = m,
            (_, Some(b1), Some(m)) if m > Duration::ZERO => {
                println!(
                    "{:<48} speedup {:.2}x vs 1 thread",
                    format!("{name}/t{threads}"),
                    b1.as_secs_f64() / m.as_secs_f64()
                );
            }
            _ => {}
        }
    }
}

fn bench_exec_kernels(b: &Bench) {
    let g = generators::chung_lu_power_law(50_000, 10.0, 2.4, 1);
    let m = g.num_edges();
    println!("# graph: chung_lu_50k (n = {}, m = {m})", g.num_vertices());

    let d = core_decomposition(&g);
    sweep(b, "exec/order_tags", |policy| {
        OrderedGraph::build_with(&g, &d, policy);
    });

    sweep(b, "exec/hindex", |policy| {
        hindex_core_decomposition_with(&g, policy);
    });

    let idx = EdgeIndex::build(&g);
    sweep(b, "exec/truss_supports", |policy| {
        edge_supports_with(&g, &idx, policy);
    });

    sweep(b, "exec/artifacts", |policy| {
        Artifacts::build(&g, policy);
    });

    let small = generators::chung_lu_power_law(2_000, 7.0, 2.4, 1);
    println!(
        "# graph: chung_lu_2k (n = {}, m = {})",
        small.num_vertices(),
        small.num_edges()
    );
    sweep_at(b, "exec/artifacts_small", &[1, 2], |policy| {
        Artifacts::build(&small, policy);
    });
}

fn main() {
    let b = Bench::from_env_or_exit();
    bench_exec_kernels(&b);
    b.finish_or_exit();
}
