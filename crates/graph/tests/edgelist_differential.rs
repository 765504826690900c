//! Differential tests for the streaming edge-list reader: on every input
//! it must return what the line-at-a-time reader it replaced returns — the
//! same graph and mapping, or the same typed error with the same line and
//! message — whatever sizes the underlying `read` calls return.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};

use bestk_graph::testkit::{check, Gen};
use bestk_graph::{cast, generators, io as gio, CsrGraph, GraphBuilder, GraphError};

type Parsed = Result<(CsrGraph, Vec<u64>), GraphError>;

/// The line-at-a-time reader: `BufRead::lines`, `trim`, `split_whitespace`
/// and `u64::from_str` per line, then a first-seen `HashMap` relabel into
/// a `GraphBuilder` holding one vertex per relabeled id.
fn oracle<R: Read>(reader: R) -> Parsed {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64, GraphError> {
            let tok = tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                message: "expected two vertex ids".into(),
            })?;
            tok.parse::<u64>().map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: format!("invalid vertex id {tok:?}: {e}"),
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        edges.push((u, v));
    }
    let mut map: HashMap<u64, u32> = HashMap::new();
    let mut original: Vec<u64> = Vec::new();
    let mut b = GraphBuilder::new();
    for (u, v) in edges {
        let mut id_of = |x: u64| -> Result<u32, GraphError> {
            if let Some(&id) = map.get(&x) {
                return Ok(id);
            }
            let next = original.len();
            if next > u32::MAX as usize {
                return Err(GraphError::TooManyVertices(next as u64 + 1));
            }
            let id = cast::vertex_id(next);
            map.insert(x, id);
            original.push(x);
            Ok(id)
        };
        let du = id_of(u)?;
        let dv = id_of(v)?;
        b.add_edge(du, dv);
    }
    b.reserve_vertices(original.len());
    Ok((b.build(), original))
}

/// A reader that hands out one byte per `read`, so the reader under test
/// meets a chunk boundary at every byte.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Which outcome a parse had, for the coverage counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Graph,
    Parse,
    Io,
}

/// Asserts that `got` equals the oracle's `want`: equal graphs and
/// mappings, or the same error variant with the same line and message
/// (`Parse`), kind (`Io`) or count (`TooManyVertices`).
fn assert_same(input: &[u8], got: &Parsed, want: &Parsed) -> Outcome {
    match (got, want) {
        (Ok((g, map)), Ok((g_want, map_want))) => {
            assert!(g == g_want && map == map_want, "graphs differ on {input:?}");
            Outcome::Graph
        }
        (
            Err(GraphError::Parse { line, message }),
            Err(GraphError::Parse {
                line: line_want,
                message: message_want,
            }),
        ) => {
            assert_eq!((line, message), (line_want, message_want), "on {input:?}");
            Outcome::Parse
        }
        (Err(GraphError::Io(e)), Err(GraphError::Io(e_want))) => {
            assert_eq!(e.kind(), e_want.kind(), "on {input:?}");
            Outcome::Io
        }
        (Err(GraphError::TooManyVertices(n)), Err(GraphError::TooManyVertices(n_want))) => {
            assert_eq!(n, n_want, "on {input:?}");
            Outcome::Parse
        }
        _ => panic!(
            "outcomes differ on {input:?}: got {:?}, want {:?}",
            got.as_ref().err(),
            want.as_ref().err()
        ),
    }
}

/// Checks `input` whole and one byte per `read` against the oracle.
fn differential(input: &[u8]) -> Outcome {
    let want = oracle(input);
    let outcome = assert_same(input, &gio::read_edge_list(input), &want);
    assert_same(input, &gio::read_edge_list(OneByte(input)), &want);
    outcome
}

const IDS: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"7",
    b"42",
    b"007",
    b"+3",
    b"18446744073709551615",
    b"18446744073709551616",
    b"4000000000",
];

const SPACES: &[&[u8]] = &[
    b" ",
    b"\t",
    b"\x0B",
    b"\x0C",
    b"\r",
    "\u{A0}".as_bytes(),
    "\u{3000}".as_bytes(),
];

const PIECES: &[&[u8]] = &[
    b"0",
    b"1",
    b"9",
    b"+",
    b"-",
    b" ",
    b"\t",
    b"\n",
    b"\x0B",
    b"\x0C",
    b"\r",
    b"#",
    b"%",
    b"\x1C",
    "\u{A0}".as_bytes(),
    "\u{3000}".as_bytes(),
    "é".as_bytes(),
    b"\xFF",
    b"18446744073709551615",
    b"18446744073709551616",
    b"4000000000",
];

fn pick(gen: &mut Gen, from: &[&'static [u8]]) -> &'static [u8] {
    from[gen.usize_in(0, from.len())]
}

/// Up to a dozen lines: edge lines (some with trailing columns), comment
/// lines and lines of arbitrary pieces, ended by `\n` or `\r\n`, with the
/// last line's end sometimes cut.
fn input(gen: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..gen.usize_in(0, 13) {
        match gen.usize_in(0, 10) {
            0..=5 => {
                if gen.bool_with(0.3) {
                    out.extend_from_slice(pick(gen, SPACES));
                }
                out.extend_from_slice(pick(gen, IDS));
                out.extend_from_slice(pick(gen, SPACES));
                out.extend_from_slice(pick(gen, IDS));
                for _ in 0..gen.usize_in(0, 3) {
                    out.extend_from_slice(pick(gen, SPACES));
                    out.extend_from_slice(pick(gen, PIECES));
                }
            }
            6 => {
                if gen.bool_with(0.5) {
                    out.extend_from_slice(pick(gen, SPACES));
                }
                out.push(if gen.bool_with(0.5) { b'#' } else { b'%' });
                out.extend_from_slice(pick(gen, PIECES));
            }
            _ => {
                for _ in 0..gen.usize_in(1, 8) {
                    out.extend_from_slice(pick(gen, PIECES));
                }
            }
        }
        out.extend_from_slice(if gen.bool_with(0.2) { b"\r\n" } else { b"\n" });
    }
    if gen.bool_with(0.3) {
        out.pop();
    }
    out
}

/// 100,000 seeded inputs: the reader agrees with the oracle on every one,
/// and the inputs reach graphs, parse errors and UTF-8 errors alike.
#[test]
fn streaming_reader_matches_the_line_reader() {
    let counts = [Cell::new(0u32), Cell::new(0), Cell::new(0)];
    check("streaming_reader_matches_the_line_reader", 100_000, |gen| {
        let outcome = differential(&input(gen));
        let slot = &counts[outcome as usize];
        slot.set(slot.get() + 1);
    });
    let [graphs, parse, io] = counts.map(Cell::into_inner);
    assert!(
        graphs > 0 && parse > 0 && io > 0,
        "graphs={graphs} parse={parse} io={io}"
    );
}

/// Inputs the random ones reach rarely: a line longer than any chunk, a
/// missing final newline, CRLF, comment-only and empty files, ids past the
/// direct table's bound, and the graph-io corpus file.
#[test]
fn fixed_cases_match_the_line_reader() {
    let long_line = {
        let mut line = b"5 6".to_vec();
        line.extend(std::iter::repeat_n(b' ', 200_000));
        line.extend_from_slice(b"trailing\n6 7\n");
        line
    };
    let long_bad = {
        let mut line = vec![b'1'; 150_000];
        line.extend_from_slice(b" 2\n");
        line
    };
    let corpus = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/graph-io/figure2-edges.txt"
    ))
    .expect("corpus file");
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("long line", long_line),
        ("long bad token", long_bad),
        ("no final newline", b"0 1\n1 2".to_vec()),
        ("crlf", b"0 1\r\n1 2\r\n\r\n2 0\r\n".to_vec()),
        ("comments only", b"# one\n  % two\n#\n".to_vec()),
        ("empty", Vec::new()),
        (
            "huge ids",
            b"0 4000000000\n4000000000 18446744073709551615\n".to_vec(),
        ),
        ("figure2 corpus", corpus),
    ];
    for (name, bytes) in &cases {
        let outcome = differential(bytes);
        assert_eq!(
            outcome == Outcome::Graph,
            *name != "long bad token",
            "{name}: {outcome:?}"
        );
    }
}

/// The DBLP and Gowalla stand-ins of the benchmark suite, written by
/// `write_edge_list`, read back identically, also one byte per `read`.
#[test]
fn stand_ins_round_trip_like_the_line_reader() {
    let gowalla = generators::chung_lu_power_law(60_000, 9.70, 2.60, 0x0904_A11A);
    for g in [dblp_stand_in(), gowalla] {
        let mut text = Vec::new();
        gio::write_edge_list(&g, &mut text).expect("in-memory write");
        assert_eq!(differential(&text), Outcome::Graph);
        let (read, _) = gio::read_edge_list(&text[..]).expect("stand-in parses");
        assert_eq!(read.num_edges(), g.num_edges());
    }
}

/// `bestk_bench::datasets`' DBLP stand-in: overlapping cliques plus a
/// ladder of planted cliques.
fn dblp_stand_in() -> CsrGraph {
    let (n, seed) = (100_000, 0xDB1B);
    let base = generators::overlapping_cliques(n, 36_000, (3, 9), seed);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    b.extend_edges(base.edges());
    let mut rng = bestk_graph::rng::Xoshiro256::seed_from_u64(seed ^ 0x9E37);
    for size in [70, 80, 90, 100, 114] {
        let members = rng.sample_distinct(n, size);
        for (i, &a) in members.iter().enumerate() {
            for &c in &members[i + 1..] {
                b.add_edge(cast::u32_of(a), cast::u32_of(c));
            }
        }
    }
    b.build()
}
