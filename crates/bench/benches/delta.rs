//! Micro-bench: incremental best-k maintenance vs full rebuild.
//!
//! Measurements on the workload the delta subsystem exists for — a large
//! graph absorbing single-edge commits (see DESIGN.md §15 "Edge streams"):
//!
//! * `delta/rebuild_and_select`         — `DeltaIndex::build` from scratch
//!   plus one best-k selection: a peel, Alg. 1 and Alg. 2, without the
//!   triangles, forest and core profile of the engine's per-commit build;
//! * `delta/edge_commit_pair_and_select` — toggle one edge in and back out
//!   through the maintained index, selecting best-k after each op: two
//!   ops' worth of subcore repair;
//! * `delta/stream_mixed_2k`            — sustained throughput over a
//!   mixed insert/delete stream applied forward and then undone in
//!   reverse (so every iteration starts from the same state);
//! * `delta/wal_append_commit_durable`  — one write-ahead-logged op plus
//!   the commit marker and fsync, the durability floor of a commit.
//!
//! Gauges recorded into the JSON report alongside the timings:
//!
//! * `delta/commit_speedup_permille` — rebuild min time over per-commit
//!   min time, ×1000 (10000 = a single-edge commit is 10× cheaper than
//!   rebuilding).
//!
//! With `BESTK_BENCH_JSON` set, all records land in the JSON report.

use bestk_bench::Bench;
use bestk_core::Metric;
use bestk_delta::{DeltaIndex, DeltaLog};
use bestk_graph::generators::{self, EdgeOp};

fn main() {
    let b = Bench::from_env_or_exit();
    assert!(
        !bestk_faults::is_enabled(),
        "fault injection must be disabled for benchmarks"
    );
    let g = generators::erdos_renyi_gnm(20_000, 100_000, 11);
    println!(
        "# graph: er_gnm_20k (n = {}, m = {})",
        g.num_vertices(),
        g.num_edges()
    );

    // A non-edge touching vertex 0, toggled in and back out each
    // iteration so the maintained index always returns to its base state.
    let nbrs = g.neighbors(0);
    let v = (1..bestk_graph::cast::u32_of(g.num_vertices()))
        .find(|v| !nbrs.contains(v))
        .expect("a non-edge from vertex 0");

    let rebuild = b.run("delta/rebuild_and_select", || {
        let index = DeltaIndex::build(&g);
        index.best(Metric::AverageDegree).expect("metric")
    });

    let mut index = DeltaIndex::build(&g);
    let pair = b.run("delta/edge_commit_pair_and_select", || {
        index.apply(&EdgeOp::Insert(0, v)).expect("insert");
        let first = index.best(Metric::AverageDegree).expect("metric");
        index.apply(&EdgeOp::Delete(0, v)).expect("delete");
        let second = index.best(Metric::AverageDegree).expect("metric");
        (first, second)
    });
    if let (Some(slow), Some(fast)) = (rebuild.iter().min(), pair.iter().min()) {
        // Two commits per iteration, so per-commit time is half the pair.
        if let Some(permille) = slow
            .as_nanos()
            .saturating_mul(1000)
            .checked_div(fast.as_nanos() / 2)
        {
            b.gauge("delta/commit_speedup_permille", permille);
        }
    }

    // Sustained stream throughput: a mixed stream applied forward, then
    // undone in reverse order (the inverse of a valid sequence is valid),
    // so the index state round-trips every iteration.
    let ops = generators::edge_stream_mixed(&g, 1000, 7);
    let undo: Vec<EdgeOp> = ops
        .iter()
        .rev()
        .map(|op| {
            let (u, w) = op.endpoints();
            if op.is_insert() {
                EdgeOp::Delete(u, w)
            } else {
                EdgeOp::Insert(u, w)
            }
        })
        .collect();
    let elements = 2 * ops.len() as u64;
    b.run_elements("delta/stream_mixed_2k", elements, || {
        for op in ops.iter().chain(&undo) {
            index.apply(op).expect("stream op");
        }
    });

    // The durability floor: one logged op plus marker + fsync.
    let dir = std::env::temp_dir().join(format!("bestk-bench-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let (mut log, _) = DeltaLog::open(dir.join("bench.wal")).expect("open wal");
    b.run("delta/wal_append_commit_durable", || {
        log.append(&EdgeOp::Insert(0, v)).expect("append");
        log.commit().expect("commit");
    });
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    b.finish_or_exit();
}
