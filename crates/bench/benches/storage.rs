//! Micro-bench: the two graph stores and snapshot cold starts.
//!
//! Measurements on an Erdős–Rényi stand-in (see DESIGN.md §14 "Storage
//! backends"):
//!
//! * `storage/cold_open_v2`   — zero-copy mmap open of a `.bestk` snapshot
//!   (header + profile checksums only) plus one answer, the near-instant
//!   cold-start path;
//! * `storage/scan_<store>`   — full neighbor-scan throughput per store
//!   (csr / mapped), the price of each representation's reads;
//! * `storage/parse_edge_list` — `read_auto_path` on the same graph written
//!   as a SNAP text edge list, the parse every text ingest pays.
//!
//! With `BESTK_BENCH_JSON` set, all records land in the JSON report.

use bestk_bench::Bench;
use bestk_core::Metric;
use bestk_engine::{open_snapshot_v2, save_snapshot_v2_path, Dataset, GraphStore, Query};
use bestk_exec::ExecPolicy;
use bestk_graph::{generators, io, GraphView};

/// Sums every adjacency entry through the `GraphView` seam — the
/// representative read pattern (the peel and the metric sweeps are all
/// sequential neighbor scans).
fn scan<G: GraphView>(g: &G) -> u64 {
    let mut acc = 0u64;
    for v in g.vertices() {
        for u in g.neighbors(v) {
            acc = acc.wrapping_add(u64::from(u));
        }
    }
    acc
}

fn main() {
    let b = Bench::from_env_or_exit();
    assert!(
        !bestk_faults::is_enabled(),
        "fault injection must be disabled for benchmarks"
    );
    let policy = ExecPolicy::Sequential;
    let g = generators::erdos_renyi_gnm(20_000, 100_000, 11);
    let entries = 2 * g.num_edges() as u64;
    println!(
        "# graph: er_gnm_20k (n = {}, m = {})",
        g.num_vertices(),
        g.num_edges()
    );

    let dir = std::env::temp_dir().join(format!("bestk-bench-storage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let v2_path = dir.join("er-v2.bestk");
    let mut built = Dataset::from_graph(g.clone());
    built.ensure_built(&policy);
    save_snapshot_v2_path(&built, &v2_path).expect("save v2");
    let query = Query::BestKSet {
        metric: Metric::AverageDegree,
    };

    let text_path = dir.join("er.txt");
    io::write_edge_list_path(&g, &text_path).expect("write edge list");
    let text_bytes = std::fs::metadata(&text_path).expect("edge list size").len();
    assert_eq!(
        io::read_auto_path(&text_path)
            .expect("parse edge list")
            .num_edges(),
        g.num_edges(),
        "text round trip diverged"
    );
    b.run_elements("storage/parse_edge_list", text_bytes, || {
        io::read_auto_path(&text_path).expect("parse edge list")
    });

    b.run("storage/cold_open_v2", || {
        let ds = open_snapshot_v2(&v2_path).expect("v2 open");
        ds.answer(&query).expect("v2 answer")
    });

    // Neighbor-scan throughput per store, both through GraphView.
    let csr = GraphStore::from(g);
    let mapped_ds = open_snapshot_v2(&v2_path).expect("v2 open");
    let mapped = mapped_ds.graph();
    assert_eq!(scan(mapped), scan(&csr), "mapped scan diverged");
    b.run_elements("storage/scan_csr", entries, || scan(&csr));
    b.run_elements("storage/scan_mapped", entries, || scan(mapped));
    println!(
        "# resident heap bytes: csr={} mapped={}",
        csr.resident_heap_bytes(),
        mapped.resident_heap_bytes()
    );
    drop(mapped_ds);

    let _ = std::fs::remove_dir_all(&dir);
    b.finish_or_exit();
}
