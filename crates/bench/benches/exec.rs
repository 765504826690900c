//! Micro-bench: the shared execution runtime (`bestk-exec`) — every
//! refactored kernel at 1, 2, and 4 worker threads, printing the observed
//! speedup over the single-thread run. With `BESTK_BENCH_JSON` set, the
//! per-thread-count records (name, threads, min/mean ns) land in the JSON
//! report, which is how EXPERIMENTS.md reproduces the 1-vs-N speedup table.

use std::time::Duration;

use bestk_bench::Bench;
use bestk_core::hindex::hindex_core_decomposition_with;
use bestk_exec::ExecPolicy;
use bestk_graph::{generators, GraphBuilder};
use bestk_truss::decomposition::edge_supports_with;
use bestk_truss::EdgeIndex;

const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `f` under each thread count, printing the speedup of every parallel
/// run relative to the single-thread minimum.
fn sweep(b: &Bench, name: &str, mut f: impl FnMut(&ExecPolicy)) {
    let mut base: Option<Duration> = None;
    for threads in THREADS {
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

    let edges: Vec<(u32, u32)> = g.edges().collect();
    sweep(b, "exec/csr_build", |policy| {
        let mut builder = GraphBuilder::new();
        builder.extend_edges(edges.iter().copied());
        builder.build_with(policy);
    });

    sweep(b, "exec/hindex", |policy| {
        hindex_core_decomposition_with(&g, policy);
    });

    let idx = EdgeIndex::build(&g);
    sweep(b, "exec/truss_supports", |policy| {
        edge_supports_with(&g, &idx, policy);
    });
}

fn main() {
    let b = Bench::from_env_or_exit();
    bench_exec_kernels(&b);
    b.finish_or_exit();
}
