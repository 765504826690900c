//! Micro-bench: thread scaling of the peel on the 20k-vertex deep-shell
//! stand-in (`k_chain(197)`: n = 19,700, `kmax` = 197 — the regime the
//! paper's Table III datasets occupy once their shell structure matters).
//!
//! `core_decomposition_with` runs one bucket-frontier peel at every thread
//! count: a lazy bucket queue advances the level in `O(n + m)`, opening
//! frontiers are sorted by id (`O(n log n)` worst case), and at N > 1
//! threads each large sub-round's decrement events fan out over the shared
//! runtime. The benchmark compares that same code at 1 and N threads:
//!
//! * `peel/decompose/tN` — full decomposition at N threads;
//! * `peel/scaling_tN_permille` — t1 min time over tN min time, ×1000
//!   (2000 = N threads run 2× faster than one).
//!
//! The JSON's `available_parallelism` names the host: more threads than
//! hardware threads cannot scale. With `BESTK_BENCH_JSON` set, all records
//! land in the JSON report.

use std::time::Duration;

use bestk_bench::Bench;
use bestk_core::core_decomposition_with;
use bestk_exec::ExecPolicy;
use bestk_graph::generators;

const THREADS: [usize; 3] = [1, 2, 4];

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

    let mut base: Option<Duration> = None;
    for threads in THREADS {
        let policy = ExecPolicy::with_threads(threads).expect("thread count");
        let timings = b.run_threads(&format!("peel/decompose/t{threads}"), threads, || {
            core_decomposition_with(&g, &policy)
        });
        let min = timings.iter().min().copied();
        match (threads, base, min) {
            (1, _, m) => base = m,
            (_, Some(t1), Some(m)) if m > Duration::ZERO => {
                let permille = t1.as_nanos().saturating_mul(1000) / m.as_nanos();
                b.gauge(&format!("peel/scaling_t{threads}_permille"), permille);
                println!(
                    "{:<48} scaling {:.2}x vs 1 thread",
                    format!("peel/decompose/t{threads}"),
                    t1.as_secs_f64() / m.as_secs_f64()
                );
            }
            _ => {}
        }
    }
    b.finish_or_exit();
}
