//! SNAP-style text edge lists.
//!
//! # Grammar
//!
//! One edge per line: two vertex ids, then any trailing columns (weights,
//! timestamps), which are ignored. Lines end at `\n`, and the last one may
//! lack it. Whitespace is what `char::is_whitespace` accepts; its ASCII
//! members are `\t`, `\n`, `\x0B`, `\x0C`, `\r` and space, so a CRLF line
//! ends in whitespace. A line that is blank, or whose first non-whitespace
//! character is `#` or `%`, is skipped. An id is what `u64::from_str`
//! accepts: decimal digits after an optional `+`, leading zeros allowed,
//! overflow an error. Ids may be sparse: they are relabeled densely in
//! first-seen order, `u` before `v` within a line. Every id read is a
//! vertex, so the graph has one vertex per mapping entry; a self loop adds
//! its id but no edge.
//!
//! A line holding any byte at or above `0x80` is read as UTF-8 text
//! instead, with `str::trim` and `str::split_whitespace`: non-ASCII
//! whitespace such as NBSP or U+3000 separates ids, and invalid UTF-8 is a
//! [`GraphError::Io`] of kind `InvalidData`.
//!
//! # Cost
//!
//! [`read_edge_list`] makes one pass over the input bytes. It reads
//! fixed-size chunks into one buffer, splits the complete lines at `\n`
//! and parses the ids straight from the bytes. A raw id first seen below a
//! bound relabels through a direct table indexed by the id; the bound is
//! the bytes read so far plus 2^16, never the largest id, so the table
//! holds at most one 4-byte entry per input byte plus 2^16. An id first
//! seen past the bound relabels through a hash map. Each dense pair goes
//! straight to [`GraphBuilder`]. One chunk of input is resident at a time
//! (a longer line grows the buffer), so the memory is the builder's edge
//! buffer, the mapping and the table.

use std::collections::HashMap;
use std::io::{self, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::cast;
use crate::csr::{CsrGraph, VertexId};
use crate::error::GraphError;
use crate::Result;

/// Bytes asked of the reader per `read`: the size of the input buffer.
const CHUNK: usize = 64 * 1024;

/// Direct-table entries allowed beyond one per input byte read, so that a
/// small file with ids in the tens of thousands still relabels directly.
const TABLE_SLACK: usize = 1 << 16;

/// Reads a text edge list from any reader, relabeling sparse ids densely.
///
/// Returns the graph and the `dense -> original id` mapping. See the
/// module docs for the accepted grammar.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<(CsrGraph, Vec<u64>)> {
    let mut buf = vec![0u8; CHUNK];
    // `buf[..end]` is the partial line carried over from the last read.
    let mut end = 0;
    let mut ingest = Ingest::default();
    loop {
        if end == buf.len() {
            // A line longer than the buffer.
            buf.resize(2 * buf.len(), 0);
        }
        let got = match reader.read(&mut buf[end..]) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        ingest.bytes_read += got;
        let filled = end + got;
        // The carried-over bytes hold no newline, so only the new ones can.
        if let Some(last) = buf[end..filled].iter().rposition(|&b| b == b'\n') {
            let lines_end = end + last + 1;
            ingest.lines(&buf[..lines_end])?;
            buf.copy_within(lines_end..filled, 0);
            end = filled - lines_end;
        } else {
            end = filled;
        }
    }
    if end > 0 {
        // The last line lacks its `\n`.
        buf.truncate(end);
        buf.push(b'\n');
        ingest.lines(&buf)?;
    }
    // Every id read gets a vertex, including one seen only in self loops,
    // which the builder drops.
    ingest
        .builder
        .reserve_vertices(ingest.relabel.original.len());
    Ok((ingest.builder.build(), ingest.relabel.original))
}

/// The state of one [`read_edge_list`] pass.
#[derive(Default)]
struct Ingest {
    builder: GraphBuilder,
    relabel: Relabel,
    /// 1-based number of the last line seen.
    line: usize,
    bytes_read: usize,
}

impl Ingest {
    /// Parses whole lines, each ending in `\n`, and adds their edges.
    fn lines(&mut self, lines: &[u8]) -> Result<()> {
        let ascii = lines.is_ascii();
        let mut at = 0;
        while at < lines.len() {
            self.line += 1;
            let (ids, next) = if ascii {
                parse_ascii(lines, at, self.line)?
            } else {
                let next = line_end(lines, at);
                let line = &lines[at..next - 1];
                if line.is_ascii() {
                    parse_ascii(lines, at, self.line)?
                } else {
                    (parse_text(line, self.line)?, next)
                }
            };
            if let Some((u, v)) = ids {
                let u = self.relabel.id_of(u, self.bytes_read)?;
                let v = self.relabel.id_of(v, self.bytes_read)?;
                self.builder.add_edge(u, v);
            }
            at = next;
        }
        Ok(())
    }
}

/// First-seen dense relabeling of raw ids.
#[derive(Default)]
struct Relabel {
    /// `dense + 1` per raw id below the table's length, `0` if unseen.
    table: Vec<u32>,
    /// The raw ids first seen past the table's bound, plus the raw id of
    /// dense id `u32::MAX`, which the table cannot hold.
    sparse: HashMap<u64, VertexId>,
    /// `dense -> raw`.
    original: Vec<u64>,
}

impl Relabel {
    #[inline]
    fn id_of(&mut self, raw: u64, bytes_read: usize) -> Result<VertexId> {
        match usize::try_from(raw).ok().and_then(|r| self.table.get(r)) {
            Some(&entry) if entry != 0 => Ok(entry - 1),
            _ => self.sparse_or_new(raw, bytes_read),
        }
    }

    fn sparse_or_new(&mut self, raw: u64, bytes_read: usize) -> Result<VertexId> {
        if let Some(&id) = self.sparse.get(&raw) {
            return Ok(id);
        }
        let next = self.original.len();
        if next > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(next as u64 + 1));
        }
        let id = cast::vertex_id(next);
        self.original.push(raw);
        let bound = bytes_read.saturating_add(TABLE_SLACK);
        match usize::try_from(raw) {
            Ok(r) if r < bound && id < u32::MAX => {
                if r >= self.table.len() {
                    let len = (r + 1).max(2 * self.table.len()).min(bound);
                    self.table.resize(len, 0);
                }
                self.table[r] = id + 1;
            }
            _ => {
                self.sparse.insert(raw, id);
            }
        }
        Ok(id)
    }
}

/// Parses the ASCII line that starts at `s[at]` and ends at a `\n` in
/// `s`. Returns its ids (`None` for a blank or comment line) and the index
/// after its `\n`.
fn parse_ascii(s: &[u8], at: usize, no: usize) -> Result<(Option<(u64, u64)>, usize)> {
    let at = skip_blanks(s, at);
    match s[at] {
        b'\n' => return Ok((None, at + 1)),
        b'#' | b'%' => return Ok((None, line_end(s, at))),
        _ => {}
    }
    let (u, at) = take_id(s, at, no)?;
    let at = skip_blanks(s, at);
    if s[at] == b'\n' {
        return Err(missing_id(no));
    }
    let (v, at) = take_id(s, at, no)?;
    Ok((Some((u, v)), line_end(s, at)))
}

/// The ids of one line holding a non-ASCII byte, read as UTF-8 text.
fn parse_text(line: &[u8], no: usize) -> Result<Option<(u64, u64)>> {
    let text = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut tokens = trimmed.split_whitespace();
    let mut next_id = || match tokens.next() {
        Some(token) => parse_token(token, no),
        None => Err(missing_id(no)),
    };
    let u = next_id()?;
    let v = next_id()?;
    Ok(Some((u, v)))
}

/// The ASCII members of `char::is_whitespace`.
#[inline]
fn is_space(b: u8) -> bool {
    b == b'\n' || is_blank(b)
}

/// The ASCII members of `char::is_whitespace` other than `\n`.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// The index of the first non-blank byte at or after `at`; the line's
/// `\n` stops the scan.
#[inline]
fn skip_blanks(s: &[u8], mut at: usize) -> usize {
    while is_blank(s[at]) {
        at += 1;
    }
    at
}

/// The index after the first `\n` at or after `at`.
fn line_end(s: &[u8], at: usize) -> usize {
    s[at..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(s.len(), |p| at + p + 1)
}

/// Parses the token that starts at `s[at]` (not whitespace) as an id and
/// returns it with the index after the token. A token of 1 to 19 decimal
/// digits, too few to overflow a `u64`, is read here; any other token,
/// valid (`+7`, 20 digits with leading zeros) or not, takes
/// `u64::from_str`, which also gives the error message.
#[inline]
fn take_id(s: &[u8], at: usize, no: usize) -> Result<(u64, usize)> {
    let mut end = at;
    let mut id = 0u64;
    while let Some(digit) = s.get(end).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        id = id.wrapping_mul(10).wrapping_add(u64::from(digit));
        end += 1;
    }
    if end > at && end - at <= 19 && s.get(end).is_none_or(|&b| is_space(b)) {
        return Ok((id, end));
    }
    let len = s[at..]
        .iter()
        .position(|&b| is_space(b))
        .unwrap_or(s.len() - at);
    let token = String::from_utf8_lossy(&s[at..at + len]);
    Ok((parse_token(&token, no)?, at + len))
}

fn parse_token(token: &str, no: usize) -> Result<u64> {
    token.parse::<u64>().map_err(|e| GraphError::Parse {
        line: no,
        message: format!("invalid vertex id {token:?}: {e}"),
    })
}

fn missing_id(no: usize) -> GraphError {
    GraphError::Parse {
        line: no,
        message: "expected two vertex ids".into(),
    }
}

/// Reads a text edge list from a file path.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<(CsrGraph, Vec<u64>)> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a text edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# bestk edge list: n={} m={}",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the graph as a text edge list to a file path.
pub fn write_edge_list_path<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_list() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 0\n";
        let (g, orig) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(orig, vec![0, 1, 2]);
    }

    #[test]
    fn relabel_maps_sparse_ids_in_first_seen_order() {
        let (g, orig) = read_edge_list(&b"100 7\n7 55\n55 100\n"[..]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(orig, vec![100, 7, 55]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn parse_sparse_ids_and_tabs() {
        let text = "1000\t42\n42\t7\n";
        let (g, orig) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(orig, vec![1000, 42, 7]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_tolerates_extra_columns() {
        let text = "0 1 3.5 extra\n1 2 0.1\n";
        let (g, _) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_error_reports_line_number() {
        let text = "0 1\nnot-a-number 2\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn parse_error_on_missing_column() {
        let text = "0\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn roundtrip_through_text() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, orig) = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_vertices(), g.num_vertices());
        // Ids are relabeled in first-seen order; map the reread edges back
        // and compare as sets.
        let mut original_edges: Vec<_> = g.edges().collect();
        let mut mapped: Vec<_> = g2
            .edges()
            .map(|(u, v)| {
                let (a, b) = (orig[u as usize] as u32, orig[v as usize] as u32);
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        original_edges.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(original_edges, mapped);
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("bestk-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut b = GraphBuilder::new();
        b.extend_edges([(5, 6), (6, 7)]);
        let g = b.build();
        write_edge_list_path(&g, &path).unwrap();
        let (g2, orig) = read_edge_list_path(&path).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(orig, vec![5, 6, 7]);
        std::fs::remove_file(path).ok();
    }
}
