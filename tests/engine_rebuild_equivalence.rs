//! Engine-level determinism contract for the peel: every path that
//! *rebuilds* artifacts inside the serving stack — a clean rebuild from a
//! source edge list, quarantine recovery from a corrupt snapshot, and the
//! write-ahead-log compaction that rewrites the snapshot in place — must
//! produce **byte-identical** snapshots, and identical peel order, Alg. 1
//! ordering, core forest, and profiles, whether the build ran under
//! `ExecPolicy::Sequential` or a parallel policy at any thread count.
//!
//! This is what lets the CLI and server default to a parallel policy:
//! operators can mix `--threads` values across restarts, replicas, and
//! recovery events and still get bit-reproducible `.bestk` files.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bestk_engine::{save_snapshot_v2_path, serve_lines, Dataset, RetryPolicy, SharedEngine};
use bestk_exec::ExecPolicy;
use bestk_graph::generators::{self, edge_stream_mixed};
use bestk_graph::CsrGraph;

/// The parallel thread counts every scenario is replayed at; sequential is
/// always the reference side.
const THREADS: [usize; 3] = [2, 4, 7];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bestk-rebuild-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The deterministic base graph: deep shells over a dense core, the shape
/// where the sequential and parallel schedules diverge the most.
fn base_graph() -> CsrGraph {
    generators::shell_ladder(7, 9)
}

/// Takes the named dataset out of the engine, forcing the lazy artifact
/// build first (under `policy`) so the snapshot has something to persist.
fn built_dataset(eng: &SharedEngine, name: &str, policy: &ExecPolicy) -> Arc<Dataset> {
    eng.query(name, &bestk_engine::Query::Stats, policy)
        .expect("stats query forces the lazy build");
    let ds = eng.guard().checkout(name).expect("checkout");
    assert!(ds.is_built(), "query must have built the artifacts");
    ds
}

/// Writes a freshly built snapshot of `g` at `path` and flips one byte
/// past the magic, so the loader sees a checksum failure (corruption, not
/// a transient I/O error) and takes the quarantine-and-rebuild rung. The
/// flips of seeds 3 and 5 land in the graph section, whose checksum the
/// load checks because it has a rebuild source.
fn write_corrupt_snapshot(g: &CsrGraph, path: &Path, seed: usize) {
    let mut ds = Dataset::from_graph(g.clone());
    ds.ensure_built(&ExecPolicy::Sequential);
    save_snapshot_v2_path(&ds, path).expect("write snapshot");
    let mut bytes = std::fs::read(path).expect("read snapshot");
    let at = 16 + (seed * 131) % (bytes.len() - 16);
    bytes[at] ^= 0xff;
    std::fs::write(path, &bytes).expect("corrupt snapshot");
}

#[test]
fn quarantine_rebuild_is_byte_identical_across_strategies() {
    let dir = scratch_dir("quarantine");
    let g = base_graph();
    let source = dir.join("g.txt");
    bestk_graph::io::write_edge_list_path(&g, &source).expect("write source");

    let mut reference: Option<Arc<Dataset>> = None;
    for (label, policy) in std::iter::once(("seq".to_string(), ExecPolicy::Sequential))
        .chain(THREADS.map(|t| (format!("par{t}"), ExecPolicy::with_threads(t).unwrap())))
    {
        let snap = dir.join(format!("{label}.bestk"));
        write_corrupt_snapshot(&g, &snap, 3);

        let eng = SharedEngine::with_budget(None);
        let outcome = eng
            .load_snapshot_with_fallback(
                "g",
                snap.to_str().unwrap(),
                Some(source.to_str().unwrap()),
                &RetryPolicy::none(),
                &policy,
            )
            .expect("resilient load");
        assert_eq!(outcome, bestk_engine::LoadOutcome::Rebuilt, "{label}");
        assert!(
            snap.with_extension("bestk.quarantine").exists(),
            "{label}: corrupt file must be quarantined"
        );

        let ds = built_dataset(&eng, "g", &policy);
        match &reference {
            None => reference = Some(ds),
            Some(want) => common::assert_same_index(&ds, want, &label),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_stack_rebuild_from_source_is_byte_identical() {
    // Same recovery, one layer up: the line protocol's `load <name>
    // <snap> <source>` against a corrupt snapshot must answer
    // `ok\trebuilt\t…` and leave byte-identical state behind at every
    // thread count.
    let dir = scratch_dir("serve");
    let g = base_graph();
    let source = dir.join("g.txt");
    bestk_graph::io::write_edge_list_path(&g, &source).expect("write source");

    let mut reference: Option<Arc<Dataset>> = None;
    for (label, policy) in std::iter::once(("seq".to_string(), ExecPolicy::Sequential))
        .chain(THREADS.map(|t| (format!("par{t}"), ExecPolicy::with_threads(t).unwrap())))
    {
        let snap = dir.join(format!("{label}.bestk"));
        write_corrupt_snapshot(&g, &snap, 5);

        let eng = SharedEngine::with_budget(None);
        let script = format!(
            "load g {} {}\nquery g stats\nquit\n",
            snap.display(),
            source.display()
        );
        let mut out = Vec::new();
        serve_lines(&eng, &policy, script.as_bytes(), &mut out).expect("server survives");
        let text = String::from_utf8_lossy(&out);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("ok\trebuilt\tg"), "{label}");
        assert!(
            lines.next().unwrap_or_default().starts_with("ok\tstats\t"),
            "{label}"
        );

        let ds = built_dataset(&eng, "g", &policy);
        match &reference {
            None => reference = Some(ds),
            Some(want) => common::assert_same_index(&ds, want, &label),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn wal_compaction_is_byte_identical_across_strategies() {
    // Stage COMPACT_OPS valid mutations and commit once: the commit folds
    // the log and rewrites the snapshot file in place. That on-disk
    // compacted snapshot — produced entirely inside the engine, under
    // whatever policy the operator ran with — must be byte-identical
    // across policies, and so must the dataset the engine keeps serving.
    let dir = scratch_dir("compact");
    let g = generators::erdos_renyi_gnm(120, 420, 9);
    let ops = edge_stream_mixed(&g, bestk_engine::COMPACT_OPS as usize, 41);
    assert_eq!(ops.len(), bestk_engine::COMPACT_OPS as usize);

    let mut reference: Option<(Vec<u8>, Arc<Dataset>)> = None;
    for (label, policy) in std::iter::once(("seq".to_string(), ExecPolicy::Sequential))
        .chain(THREADS.map(|t| (format!("par{t}"), ExecPolicy::with_threads(t).unwrap())))
    {
        let snap = dir.join(format!("{label}.bestk"));
        let mut ds = Dataset::from_graph(g.clone());
        ds.ensure_built(&ExecPolicy::Sequential);
        save_snapshot_v2_path(&ds, &snap).expect("write snapshot");

        let eng = SharedEngine::with_budget(None);
        eng.load_snapshot_with_fallback(
            "g",
            snap.to_str().unwrap(),
            None,
            &RetryPolicy::none(),
            &policy,
        )
        .expect("load");
        for op in &ops {
            eng.stage_edge("g", *op).expect("stage");
        }
        let summary = eng.commit_edges("g", &policy).expect("commit");
        assert!(summary.compacted, "{label}: threshold commit must compact");

        let compacted = std::fs::read(&snap).expect("read compacted snapshot");
        let ds = built_dataset(&eng, "g", &policy);
        match &reference {
            None => reference = Some((compacted, ds)),
            Some((want_disk, want)) => {
                assert_eq!(&compacted, want_disk, "{label}: compacted file bytes");
                common::assert_same_index(&ds, want, &label);
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
