//! Robustness property tests for the graph readers: arbitrary byte soup
//! must produce errors, never panics or bogus graphs, and round trips must
//! be lossless for every generator family.

use bestk_graph::testkit::check;
use bestk_graph::{io, verify, CsrGraph, GraphBuilder};

/// Random bytes into the binary reader: error or a valid graph, never a
/// panic, and any accepted graph passes full structural verification.
#[test]
fn binary_reader_survives_garbage() {
    check("binary_reader_survives_garbage", 128, |gen| {
        let bytes = gen.bytes(512);
        if let Ok(g) = io::read_binary(&bytes[..]) {
            verify::verify_graph(&g).expect("reader accepted an invalid graph");
        }
    });
}

/// Garbage prefixed with the real magic: still no panic.
#[test]
fn binary_reader_survives_magic_plus_garbage() {
    check("binary_reader_survives_magic_plus_garbage", 128, |gen| {
        let mut buf = b"BESTKGR1".to_vec();
        buf.extend_from_slice(&gen.bytes(256));
        if let Ok(g) = io::read_binary(&buf[..]) {
            verify::verify_graph(&g).expect("reader accepted an invalid graph");
        }
    });
}

/// Random text into the edge-list reader: error or valid graph.
#[test]
fn text_reader_survives_garbage() {
    check("text_reader_survives_garbage", 128, |gen| {
        let text = gen.ascii_text(300);
        if let Ok((g, orig)) = io::read_edge_list(text.as_bytes()) {
            verify::verify_graph(&g).expect("reader accepted an invalid graph");
            assert_eq!(orig.len(), g.num_vertices());
        }
    });
}

/// Truncating a valid binary at any point errors cleanly.
#[test]
fn truncated_binary_errors() {
    check("truncated_binary_errors", 128, |gen| {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let g = b.build();
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).expect("in-memory write cannot fail");
        let cut = gen.usize_in(0, 200).min(buf.len());
        if cut < buf.len() {
            buf.truncate(cut);
            assert!(io::read_binary(&buf[..]).is_err());
        }
    });
}

/// Binary round trip is identity for arbitrary built graphs.
#[test]
fn binary_roundtrip_arbitrary() {
    check("binary_roundtrip_arbitrary", 128, |gen| {
        let edges = gen.edges(60, 200);
        let mut b = GraphBuilder::new();
        b.extend_edges(edges);
        let g = b.build();
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).expect("in-memory write cannot fail");
        let g2 = io::read_binary(&buf[..]).expect("round trip must parse");
        assert_eq!(g, g2);
    });
}

/// Text round trip preserves the edge multiset (modulo relabeling).
#[test]
fn text_roundtrip_arbitrary() {
    check("text_roundtrip_arbitrary", 128, |gen| {
        let edges = gen.edges(40, 150);
        let mut b = GraphBuilder::new();
        b.extend_edges(edges);
        let g = b.build();
        if g.num_edges() == 0 {
            return;
        }
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).expect("in-memory write cannot fail");
        let (g2, orig) = io::read_edge_list(&buf[..]).expect("round trip must parse");
        assert_eq!(g2.num_edges(), g.num_edges());
        let mut original: Vec<(u32, u32)> = g.edges().collect();
        let mut mapped: Vec<(u32, u32)> = g2
            .edges()
            .map(|(u, v)| {
                let (a, b) = (orig[u as usize] as u32, orig[v as usize] as u32);
                (a.min(b), a.max(b))
            })
            .collect();
        original.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(original, mapped);
    });
}

/// An id seen only in a self loop is still a vertex, whichever line
/// comes first: the graph has one vertex per mapping entry.
#[test]
fn ids_seen_only_in_self_loops_are_vertices() {
    for text in ["3 3\n1 2\n", "1 2\n3 3\n"] {
        let (g, orig) = io::read_edge_list(text.as_bytes()).unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (3, 1), "{text:?}");
        assert_eq!(orig.len(), 3, "{text:?}");
        let loop_vertex = orig.iter().position(|&id| id == 3).unwrap() as u32;
        assert_eq!(g.degree(loop_vertex), 0, "{text:?}");
    }
}

#[test]
fn empty_input_behaviors() {
    assert!(io::read_binary(&b""[..]).is_err());
    let (g, orig) = io::read_edge_list(&b""[..]).unwrap();
    assert_eq!(g.num_vertices(), 0);
    assert!(orig.is_empty());
    let _ = CsrGraph::empty(0);
}
