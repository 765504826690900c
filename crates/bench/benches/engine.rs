//! Micro-bench: the snapshot engine's cold-vs-warm query latencies.
//!
//! Three measurements on an Erdős–Rényi stand-in (see EXPERIMENTS.md
//! "Cold vs. warm queries"):
//!
//! * `engine/build`      — in-memory artifact build from a bare CSR graph
//!   (what a cold engine pays on first touch, and what an eviction re-pays);
//! * `engine/cold_query` — strict `.bestk` load from disk (mmap open plus
//!   the graph-section checksum `bestk query` pays) and one `bestkset`
//!   answer;
//! * `engine/warm_query` — one answer against resident artifacts (the
//!   steady-state serving cost);
//! * `engine/failpoints_off_1k` — 1000 disabled failpoint probes, the
//!   guard that fault injection stays free when no plan is installed.
//!
//! Every query path above crosses the `bestk_faults` failpoints (snapshot
//! reads, budget enforcement, batch workers) with injection disabled, so
//! `cold_query`/`warm_query` regressing would itself flag failpoint
//! overhead.
//!
//! With `BESTK_BENCH_JSON` set, the records land in the JSON report.

use bestk_bench::Bench;
use bestk_core::Metric;
use bestk_engine::{save_snapshot_v2_path, Dataset, Engine, Query};
use bestk_exec::ExecPolicy;
use bestk_graph::generators;

fn main() {
    let b = Bench::from_env_or_exit();
    assert!(
        !bestk_faults::is_enabled(),
        "fault injection must be disabled for benchmarks"
    );
    let policy = ExecPolicy::Sequential;
    let g = generators::erdos_renyi_gnm(20_000, 100_000, 11);
    println!(
        "# graph: er_gnm_20k (n = {}, m = {})",
        g.num_vertices(),
        g.num_edges()
    );

    b.run("engine/build", || {
        let mut ds = Dataset::from_graph(g.clone());
        ds.ensure_built(&policy);
        ds
    });

    let dir = std::env::temp_dir().join(format!("bestk-bench-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let path = dir.join("er.bestk");
    let mut built = Dataset::from_graph(g.clone());
    built.ensure_built(&policy);
    save_snapshot_v2_path(&built, &path).expect("save snapshot");
    let path_str = path.to_str().expect("utf8 path").to_string();
    let query = Query::BestKSet {
        metric: Metric::AverageDegree,
    };

    b.run("engine/cold_query", || {
        let mut engine = Engine::new(None);
        engine
            .load_snapshot("er", &path_str)
            .expect("load snapshot");
        engine.query("er", &query, &policy).expect("cold answer")
    });

    let mut warm = Engine::new(None);
    warm.load_snapshot("er", &path_str).expect("load snapshot");
    warm.query("er", &query, &policy).expect("prime cache");
    b.run("engine/warm_query", || {
        warm.query("er", &query, &policy).expect("warm answer")
    });
    let c = warm.counters();
    println!(
        "# warm engine counters: builds={} cache_hits={} evictions={}",
        c.builds, c.cache_hits, c.evictions
    );

    // Guard record: the disabled-failpoint fast path (one relaxed atomic
    // load per probe) must stay in the noise — this is what every serving
    // request pays with chaos off.
    b.run("engine/failpoints_off_1k", || {
        let mut armed = 0u32;
        for _ in 0..1000 {
            if bestk_faults::pressure(bestk_faults::sites::ENGINE_PRESSURE) {
                armed += 1;
            }
        }
        assert_eq!(armed, 0, "no plan is installed");
        armed
    });

    let _ = std::fs::remove_dir_all(&dir);
    b.finish_or_exit();
}
