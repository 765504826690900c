//! Zero-copy CSR view over raw little-endian bytes.
//!
//! [`ByteCsr`] interprets a flat byte buffer — typically a slice borrowed
//! from a memory-mapped snapshot — as a CSR graph without deserializing
//! it. Construction is `O(1)`: only the 16-byte header is read and the
//! total length cross-checked. Every accessor afterwards is
//! bounds-clamped, so even *corrupt* bytes can never panic the process;
//! they can only yield wrong answers, which the snapshot layer's
//! checksums and [`ByteCsr::validate_structure`] exist to catch.
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! offset   size        field
//! 0        8           n    — vertex count
//! 8        8           nnz  — adjacency entries (2 m)
//! 16       8 (n + 1)   offsets, monotone, offsets[n] == nnz
//! 16+8(n+1) 4 nnz      neighbors, u32 ids
//! ```
//!
//! The same layout is produced by [`encode_view`] and embedded verbatim
//! as the graph section of version-2 `.bestk` snapshots.

use crate::view::{GraphView, Neighbors};
use crate::{CsrGraph, GraphError, VertexId};

/// Header bytes before the offsets array: `n` and `nnz`.
const HEADER: usize = 16;

/// A read-only CSR graph borrowed from (or owning) raw bytes.
///
/// Generic over the byte holder so the same view works over a `Vec<u8>`,
/// a borrowed slice, or a memory-mapped region.
#[derive(Clone)]
pub struct ByteCsr<B: AsRef<[u8]>> {
    bytes: B,
    n: usize,
    nnz: usize,
}

impl<B: AsRef<[u8]>> ByteCsr<B> {
    /// Wraps `bytes` as a CSR view after `O(1)` framing checks: the
    /// header must parse and the buffer length must match it exactly.
    /// No per-element validation happens here — see
    /// [`validate_structure`](Self::validate_structure).
    pub fn new(bytes: B) -> Result<Self, GraphError> {
        let bad = |msg: String| GraphError::BadBinaryFormat(msg);
        let buf = bytes.as_ref();
        if buf.len() < HEADER {
            return Err(bad(format!("byte-csr: {} bytes, need >= 16", buf.len())));
        }
        let n64 = read_u64(buf, 0);
        let nnz64 = read_u64(buf, 8);
        if n64 > u64::from(u32::MAX) {
            return Err(bad(format!("byte-csr: vertex count {n64} overflows u32")));
        }
        let n = n64 as usize;
        let nnz = usize::try_from(nnz64).map_err(|_| bad("byte-csr: nnz overflows".into()))?;
        let need = (n + 1)
            .checked_mul(8)
            .and_then(|o| nnz.checked_mul(4).map(|a| (o, a)))
            .and_then(|(o, a)| o.checked_add(a))
            .and_then(|body| body.checked_add(HEADER))
            .ok_or_else(|| bad("byte-csr: header sizes overflow".into()))?;
        if buf.len() != need {
            return Err(bad(format!(
                "byte-csr: {} bytes but header implies {need} (n = {n}, nnz = {nnz})",
                buf.len()
            )));
        }
        Ok(ByteCsr { bytes, n, nnz })
    }

    /// The backing byte holder.
    #[inline]
    pub fn bytes(&self) -> &B {
        &self.bytes
    }

    /// Clamped offset of vertex slot `i` (`0..=n`): corrupt offset bytes
    /// degrade to an empty range instead of an out-of-bounds panic.
    #[inline]
    fn offset(&self, i: usize) -> usize {
        let raw = read_u64(self.bytes.as_ref(), HEADER + 8 * i);
        usize::try_from(raw).unwrap_or(usize::MAX).min(self.nnz)
    }

    /// Full structural validation of the underlying bytes: monotone
    /// offsets ending at `nnz` and every neighbor id `< n`. `O(n + m)` —
    /// the price deferred by the zero-copy open path.
    pub fn validate_structure(&self) -> Result<(), GraphError> {
        let bad = |msg: String| GraphError::BadBinaryFormat(msg);
        let buf = self.bytes.as_ref();
        let mut prev = 0u64;
        for i in 0..=self.n {
            let cur = read_u64(buf, HEADER + 8 * i);
            if cur < prev {
                return Err(bad(format!("byte-csr: offsets decrease at slot {i}")));
            }
            prev = cur;
        }
        if prev != self.nnz as u64 {
            return Err(bad(format!(
                "byte-csr: offsets end at {prev}, expected {}",
                self.nnz
            )));
        }
        let base = HEADER + 8 * (self.n + 1);
        for j in 0..self.nnz {
            let w = read_u32(buf, base + 4 * j);
            if w as usize >= self.n {
                return Err(bad(format!(
                    "byte-csr: neighbor id {w} out of range (n = {})",
                    self.n
                )));
            }
        }
        Ok(())
    }

    /// Materializes a [`CsrGraph`], re-checking every invariant on the
    /// way in.
    pub fn to_csr(&self) -> Result<CsrGraph, GraphError> {
        let buf = self.bytes.as_ref();
        let mut offsets = Vec::with_capacity(self.n + 1);
        for i in 0..=self.n {
            let raw = read_u64(buf, HEADER + 8 * i);
            offsets.push(
                usize::try_from(raw).map_err(|_| {
                    GraphError::BadBinaryFormat("byte-csr: offset overflows".into())
                })?,
            );
        }
        let base = HEADER + 8 * (self.n + 1);
        let neighbors = (0..self.nnz).map(|j| read_u32(buf, base + 4 * j)).collect();
        CsrGraph::try_from_parts(offsets, neighbors)
    }
}

impl<B: AsRef<[u8]>> GraphView for ByteCsr<B> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.nnz / 2
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offset(v + 1).saturating_sub(self.offset(v))
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        let v = v as usize;
        let lo = self.offset(v);
        let hi = self.offset(v + 1).max(lo);
        let base = HEADER + 8 * (self.n + 1);
        Neighbors::from_le_bytes(&self.bytes.as_ref()[base + 4 * lo..base + 4 * hi])
    }

    #[inline]
    fn adjacency_start(&self, v: VertexId) -> usize {
        self.offset(v as usize)
    }
}

impl<B: AsRef<[u8]>> std::fmt::Debug for ByteCsr<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ByteCsr {{ n: {}, nnz: {} }}", self.n, self.nnz)
    }
}

/// Serializes any backend into the [`ByteCsr`] layout.
pub fn encode_view<G: GraphView>(g: &G) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(g));
    encode_view_into(g, &mut out);
    out
}

/// Bytes [`encode_view`] produces for `g`.
pub fn encoded_len<G: GraphView>(g: &G) -> usize {
    HEADER + 8 * (g.num_vertices() + 1) + 4 * adjacency_entries(g)
}

/// Appends the [`ByteCsr`] layout of `g` to `out`, so a caller embedding
/// it (the snapshot writer) encodes straight into its own buffer.
pub fn encode_view_into<G: GraphView>(g: &G, out: &mut Vec<u8>) {
    out.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(adjacency_entries(g) as u64).to_le_bytes());
    let mut acc = 0u64;
    out.extend_from_slice(&acc.to_le_bytes());
    for v in g.vertices() {
        acc = acc.saturating_add(g.degree(v) as u64);
        out.extend_from_slice(&acc.to_le_bytes());
    }
    for v in g.vertices() {
        for w in g.neighbors(v) {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// `nnz`: the sum of the degrees.
fn adjacency_entries<G: GraphView>(g: &G) -> usize {
    g.vertices()
        .map(|v| g.degree(v))
        .fold(0, usize::saturating_add)
}

/// Little-endian `u64` at `pos`; callers guarantee `pos + 8 <= buf.len()`
/// via the constructor's exact-length check.
#[inline]
fn read_u64(buf: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[pos..pos + 8]);
    u64::from_le_bytes(b)
}

/// Little-endian `u32` at `pos`.
#[inline]
fn read_u32(buf: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[pos..pos + 4]);
    u32::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn encode_then_view_matches_source() {
        let g = sample();
        let bytes = encode_view(&g);
        let view = ByteCsr::new(bytes.as_slice()).expect("fresh encoding must parse");
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(GraphView::degree(&view, v), g.degree(v));
            assert_eq!(
                GraphView::adjacency_start(&view, v),
                g.offsets()[v as usize]
            );
            let got: Vec<_> = GraphView::neighbors(&view, v).collect();
            assert_eq!(got, g.neighbors(v).to_vec());
        }
        assert!(view.validate_structure().is_ok());
        assert_eq!(view.to_csr().expect("validated bytes materialize"), g);
    }

    #[test]
    fn truncated_bytes_are_rejected_at_open() {
        let g = sample();
        let bytes = encode_view(&g);
        for cut in [0, 7, 15, bytes.len() - 1] {
            assert!(ByteCsr::new(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(ByteCsr::new([bytes.clone(), vec![0u8; 3]].concat().as_slice()).is_err());
    }

    #[test]
    fn corrupt_offsets_degrade_without_panicking() {
        let g = sample();
        let mut bytes = encode_view(&g);
        // Smash the offset of vertex 1 to a huge value: degree clamps to
        // zero-range instead of slicing out of bounds.
        bytes[HEADER + 8..HEADER + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let view = ByteCsr::new(bytes.as_slice()).expect("framing is still intact");
        for v in view.vertices() {
            let d = GraphView::degree(&view, v);
            assert_eq!(GraphView::neighbors(&view, v).count(), d);
        }
        assert!(view.validate_structure().is_err());
        assert!(view.to_csr().is_err());
    }

    #[test]
    fn corrupt_neighbor_ids_fail_structural_validation() {
        let g = sample();
        let mut bytes = encode_view(&g);
        let base = HEADER + 8 * (g.num_vertices() + 1);
        bytes[base..base + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let view = ByteCsr::new(bytes.as_slice()).expect("framing is still intact");
        assert!(view.validate_structure().is_err());
    }

    #[test]
    fn random_graphs_round_trip_through_bytes() {
        testkit::check("bytecsr_round_trip", 40, |gen| {
            let g = gen.graph(150, 500);
            let bytes = encode_view(&g);
            let view = ByteCsr::new(bytes.as_slice()).expect("fresh encoding must parse");
            assert_eq!(
                view.to_csr().expect("fresh encoding is structurally valid"),
                g
            );
        });
    }
}
