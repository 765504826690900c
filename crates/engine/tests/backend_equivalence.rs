//! Backend-equivalence property suite: the engine's two graph stores —
//! canonical CSR and zero-copy mapped snapshot — must be
//! *observation-identical*. Degrees, neighbor sequences, edge membership,
//! adjacency slots and every best-k answer are compared bit-for-bit across
//! the stores on randomized testkit graphs, and the mmap path is
//! additionally probed with truncated and corrupted files (rejection) plus
//! a corrupt-graph-body file (the proof that `open` does not read the full
//! graph section before the first query).

use std::sync::Arc;

use bestk_core::Metric;
use bestk_engine::store::SnapshotSlice;
use bestk_engine::{fnv1a, mmap::Mmap, snapv2, Dataset, EngineError, GraphStore, Query};
use bestk_exec::ExecPolicy;
use bestk_graph::{bytecsr, testkit, ByteCsr, CsrGraph, GraphView};

/// Renders an answer result to a stable line, errors included, so parity
/// holds even on degenerate graphs where some queries legitimately fail.
fn answer_line(ds: &Dataset, q: &Query) -> String {
    match ds.answer(q) {
        Ok(a) => format!("ok\t{}", a.to_line()),
        Err(e) => format!("err\t{e}"),
    }
}

/// The query battery: every answer shape, plus boundary vertices.
fn queries(n: usize) -> Vec<Query> {
    let mut qs = vec![
        Query::Stats,
        Query::BestKSet {
            metric: Metric::AverageDegree,
        },
        Query::BestCore {
            metric: Metric::InternalDensity,
        },
        Query::ScoreProfile {
            metric: Metric::AverageDegree,
        },
    ];
    for v in [0, n / 2, n.saturating_sub(1)] {
        if v < n {
            qs.push(Query::CoreOfVertex { vertex: v as u32 });
        }
    }
    qs
}

#[test]
fn backends_observe_identically_on_random_graphs() {
    let mut gen = testkit::Gen::new(0xBACC);
    for case in 0..24 {
        let g = gen.graph(48, 160);
        // Through the enum the engine dispatches on: the delta overlay
        // validates every staged op on a loaded snapshot with the mapped
        // arm's `has_edge`, and builds address adjacency slots and chunk
        // weights through `adjacency_start` and `degree_offsets`.
        let map = Arc::new(Mmap::from_vec(bytecsr::encode_view(&g)));
        let (len, sum) = (map.len(), fnv1a(map.as_slice()));
        let slice = SnapshotSlice::new(map, 0, len, sum).expect("slice");
        let mapped = GraphStore::Mapped(ByteCsr::new(slice).expect("framing"));
        assert_eq!(mapped.num_vertices(), g.num_vertices(), "case {case}");
        assert_eq!(mapped.num_edges(), g.num_edges(), "case {case}");
        for u in g.vertices() {
            let want = g.neighbors(u).to_vec();
            assert_eq!(mapped.degree(u), want.len(), "case {case}");
            let m: Vec<u32> = mapped.neighbors(u).collect();
            assert_eq!(m, want, "case {case} vertex {u}");
            assert_eq!(
                mapped.adjacency_start(u),
                GraphView::adjacency_start(&g, u),
                "case {case} vertex {u}"
            );
            for v in g.vertices() {
                assert_eq!(
                    mapped.has_edge(u, v),
                    g.has_edge(u, v),
                    "case {case} pair ({u}, {v})"
                );
            }
        }
        assert_eq!(
            mapped.degree_offsets(),
            GraphView::degree_offsets(&g),
            "case {case}"
        );
    }
}

#[test]
fn best_k_answers_are_bit_identical_across_backends() {
    let policy = ExecPolicy::with_threads(2).expect("policy");
    let mut gen = testkit::Gen::new(0xBE57);
    let mut graphs = vec![CsrGraph::empty(0), CsrGraph::empty(5)];
    for _ in 0..10 {
        graphs.push(gen.graph(40, 120));
    }
    for (case, g) in graphs.into_iter().enumerate() {
        let qs = queries(g.num_vertices());

        let mut csr = Dataset::from_graph(g.clone());
        csr.ensure_built(&policy);
        let want: Vec<String> = qs.iter().map(|q| answer_line(&csr, q)).collect();

        // Mapped backend: answers come straight off the v2 snapshot bytes.
        let bytes = snapv2::to_bytes(&csr).expect("serialize");
        let mapped = snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes))).expect("open");
        let got: Vec<String> = qs.iter().map(|q| answer_line(&mapped, q)).collect();
        assert_eq!(got, want, "case {case}: mapped diverged");
        assert!(mapped.is_built(), "mapped datasets never need a build");

        // LRU eviction keeps the mapped store and drops the artifacts; the
        // next query rebuilds them over the mapped graph, not a CSR.
        let mut rebuilt = mapped.without_artifacts();
        assert!(rebuilt.ensure_built(&policy), "case {case}");
        assert!(
            matches!(rebuilt.graph(), GraphStore::Mapped(_)),
            "case {case}"
        );
        let got: Vec<String> = qs.iter().map(|q| answer_line(&rebuilt, q)).collect();
        assert_eq!(
            got, want,
            "case {case}: rebuild over the mapped store diverged"
        );
    }
}

#[test]
fn truncated_snapshots_are_rejected_at_every_length() {
    let policy = ExecPolicy::with_threads(1).expect("policy");
    let mut ds = Dataset::from_graph(bestk_graph::generators::paper_figure2());
    ds.ensure_built(&policy);
    let bytes = snapv2::to_bytes(&ds).expect("serialize");
    // Every proper prefix must be rejected — never a panic, never a
    // silently-shorter dataset.
    for len in 0..bytes.len() {
        let err = snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes[..len].to_vec())))
            .err()
            .unwrap_or_else(|| panic!("prefix of {len} bytes was accepted"));
        match err {
            EngineError::Truncated { .. }
            | EngineError::BadMagic
            | EngineError::ChecksumMismatch { .. }
            | EngineError::BadSnapshot { .. } => {}
            other => panic!("prefix of {len} bytes: unexpected error {other}"),
        }
    }
    // Trailing garbage is rejected too.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0u8; 5]);
    assert!(snapv2::open_mmap(Arc::new(Mmap::from_vec(long))).is_err());
}

#[test]
fn open_defers_the_graph_checksum_until_asked() {
    let policy = ExecPolicy::with_threads(1).expect("policy");
    let mut ds = Dataset::from_graph(bestk_graph::generators::paper_figure2());
    ds.ensure_built(&policy);
    let reference: Vec<String> = queries(12).iter().map(|q| answer_line(&ds, q)).collect();
    let bytes = snapv2::to_bytes(&ds).expect("serialize");

    // The graph section is the first table entry: offset at bytes 72..80,
    // length at 80..88 (64-byte header + id/reserved of entry 0).
    let off = u64::from_le_bytes(bytes[72..80].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[80..88].try_into().unwrap()) as usize;
    assert!(len > 0 && off + len <= bytes.len());

    // Flip every 7th byte of the graph body: were `open` hashing or
    // copying the section, each flip would fail the open. It must not —
    // the profile sections alone answer best-k queries, so the open stays
    // O(header + profiles) and the graph checksum is paid only by
    // `GraphStore::check`. The section's own 16-byte framing header is the
    // one part `open` *does* read (its O(1) n/nnz cross-check), so the
    // sweep starts past it.
    assert!(len > 16, "graph section has a body to corrupt");
    for delta in (16..len).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[off + delta] ^= 0x01;
        match snapv2::open_mmap(Arc::new(Mmap::from_vec(corrupt))) {
            Err(e) => panic!("open read the graph body (byte {delta}): {e}"),
            Ok(mapped) => {
                assert!(
                    mapped.graph().check().is_err(),
                    "byte {delta}: deferred validation missed the corruption"
                );
                // Profile-backed answers are untouched by graph-body damage.
                let got: Vec<String> = queries(12)
                    .iter()
                    .map(|q| answer_line(&mapped, q))
                    .collect();
                assert_eq!(got, reference, "byte {delta}");
            }
        }
    }

    // And on the pristine bytes the deferred validation passes.
    let clean = snapv2::open_mmap(Arc::new(Mmap::from_vec(bytes))).expect("open");
    clean
        .graph()
        .check()
        .expect("pristine graph section validates");
}
