//! Backend-neutral read-only graph access.
//!
//! [`GraphView`] is the observation contract every storage backend
//! implements: vertex/edge counts, degrees, and per-vertex neighbor
//! iteration in a *defined order* (the backend's stored adjacency order).
//! Algorithms written against `&impl GraphView` run unchanged — and
//! produce bit-identical answers — over the materialized [`CsrGraph`]
//! or a zero-copy byte view borrowed from a mapped snapshot
//! ([`ByteCsr`](crate::ByteCsr)).
//!
//! [`Neighbors`] is a concrete enum iterator rather than an associated
//! type so backends living in other crates can construct one from their
//! own storage (vertex-id slices or little-endian byte ranges) without
//! the trait growing generics at every call site.

use crate::cast;
use crate::csr::CsrGraph;
use crate::VertexId;

/// Read-only access to an undirected simple graph, independent of the
/// storage backend.
///
/// The contract mirrors what the best-k algorithms consume: counts,
/// degrees, and neighbor streams in a *stable stored order*. Two backends
/// built from the same graph must yield identical neighbor sequences for
/// every vertex — that is what makes best-k answers bit-identical across
/// backends (property-tested in `tests/backend_equivalence.rs`).
pub trait GraphView {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Iterator over the neighbors of `v` in the backend's stored
    /// adjacency order (sorted by id for builder-produced graphs).
    fn neighbors(&self, v: VertexId) -> Neighbors<'_>;

    /// Global position of the first adjacency slot of `v`: the exclusive
    /// prefix sum of degrees, so slot `adjacency_start(v) + i` addresses
    /// the `i`-th stored neighbor of `v`. Equals `offsets[v]` on CSR
    /// layouts.
    fn adjacency_start(&self, v: VertexId) -> usize;

    /// Iterator over all vertices `0..n`.
    fn vertices(&self) -> std::ops::Range<VertexId> {
        0..cast::vertex_id(self.num_vertices())
    }

    /// Whether the undirected edge `{u, v}` exists.
    ///
    /// Default is a linear scan of the lower-degree endpoint's adjacency;
    /// backends with sorted random-access slices override with binary
    /// search.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).any(|w| w == b)
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2 m / n` (0.0 for a vertex-free graph).
    fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            (2 * self.num_edges()) as f64 / self.num_vertices() as f64
        }
    }

    /// Materialized degree prefix sums (length `n + 1`): the weight array
    /// handed to `ExecPolicy::plan_weighted` so chunk plans stay identical
    /// across backends.
    fn degree_offsets(&self) -> Vec<usize> {
        let n = self.num_vertices();
        let mut out = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        out.push(0);
        for v in 0..n {
            acc = acc.saturating_add(self.degree(cast::vertex_id(v)));
            out.push(acc);
        }
        out
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        Neighbors::from_slice(CsrGraph::neighbors(self, v))
    }

    #[inline]
    fn adjacency_start(&self, v: VertexId) -> usize {
        self.offsets()[v as usize]
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    #[inline]
    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }

    #[inline]
    fn average_degree(&self) -> f64 {
        CsrGraph::average_degree(self)
    }

    fn degree_offsets(&self) -> Vec<usize> {
        self.offsets().to_vec()
    }
}

/// Full delegation (not just the required subset) so backend overrides
/// like CSR binary-search `has_edge` survive the indirection.
impl<T: GraphView + ?Sized> GraphView for &T {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        (**self).neighbors(v)
    }

    #[inline]
    fn adjacency_start(&self, v: VertexId) -> usize {
        (**self).adjacency_start(v)
    }

    #[inline]
    fn vertices(&self) -> std::ops::Range<VertexId> {
        (**self).vertices()
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline]
    fn max_degree(&self) -> usize {
        (**self).max_degree()
    }

    #[inline]
    fn average_degree(&self) -> f64 {
        (**self).average_degree()
    }

    fn degree_offsets(&self) -> Vec<usize> {
        (**self).degree_offsets()
    }
}

/// Neighbor iterator shared by every backend.
///
/// A concrete enum rather than `impl Iterator` so [`GraphView`] stays a
/// plain trait; the variants cover the two physical layouts in the
/// workspace. A truncated byte payload terminates the stream
/// early instead of panicking — corrupt mapped bytes must never abort the
/// process (structural validation is the snapshot layer's job).
#[derive(Clone)]
pub struct Neighbors<'a> {
    inner: Inner<'a>,
    remaining: usize,
}

#[derive(Clone)]
enum Inner<'a> {
    /// Borrowed `&[VertexId]` adjacency (CSR).
    Slice(std::slice::Iter<'a, VertexId>),
    /// Little-endian `u32` groups borrowed from raw bytes (mapped views).
    Bytes(&'a [u8]),
}

impl<'a> Neighbors<'a> {
    /// Neighbors from a vertex-id slice.
    #[inline]
    pub fn from_slice(adj: &'a [VertexId]) -> Self {
        Neighbors {
            remaining: adj.len(),
            inner: Inner::Slice(adj.iter()),
        }
    }

    /// Neighbors from little-endian `u32` bytes; a trailing partial group
    /// is ignored.
    #[inline]
    pub fn from_le_bytes(bytes: &'a [u8]) -> Self {
        Neighbors {
            remaining: bytes.len() / 4,
            inner: Inner::Bytes(bytes),
        }
    }

    /// The borrowed slice, when this iterator is slice-backed. Fast path
    /// for concrete CSR consumers; `None` for byte-backed streams.
    #[inline]
    pub fn as_slice(&self) -> Option<&'a [VertexId]> {
        match &self.inner {
            Inner::Slice(it) => Some(it.as_slice()),
            Inner::Bytes(_) => None,
        }
    }
}

impl Iterator for Neighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        let out = match &mut self.inner {
            Inner::Slice(it) => it.next().copied(),
            Inner::Bytes(bytes) => {
                if bytes.len() < 4 {
                    None
                } else {
                    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                    *bytes = &bytes[4..];
                    Some(v)
                }
            }
        };
        match out {
            Some(v) => {
                self.remaining -= 1;
                Some(v)
            }
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        // Upper bound is exact for well-formed streams; truncated byte
        // payloads may end early, so the lower bound from the byte budget.
        let lower = match &self.inner {
            Inner::Slice(_) => self.remaining,
            Inner::Bytes(bytes) => self.remaining.min(bytes.len() / 4),
        };
        (lower, Some(self.remaining))
    }
}

impl ExactSizeIterator for Neighbors<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.remaining
    }
}

impl std::fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Neighbors {{ remaining: {} }}", self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        b.add_edge(0, 2);
        b.build()
    }

    fn via_view<G: GraphView>(g: &G, v: VertexId) -> Vec<VertexId> {
        g.neighbors(v).collect()
    }

    #[test]
    fn csr_view_matches_inherent_api() {
        let g = diamond();
        assert_eq!(GraphView::num_vertices(&g), 4);
        assert_eq!(GraphView::num_edges(&g), 5);
        for v in 0..4u32 {
            assert_eq!(GraphView::degree(&g, v), g.degree(v));
            assert_eq!(via_view(&g, v), g.neighbors(v).to_vec());
            assert_eq!(GraphView::adjacency_start(&g, v), g.offsets()[v as usize]);
        }
        assert!(GraphView::has_edge(&g, 0, 2));
        assert!(!GraphView::has_edge(&g, 1, 3));
        assert_eq!(GraphView::max_degree(&g), 3);
        assert_eq!(g.degree_offsets(), g.offsets().to_vec());
    }

    #[test]
    fn reference_delegation_preserves_overrides() {
        let g = diamond();
        let r = &g;
        assert!(GraphView::has_edge(&r, 2, 0));
        assert_eq!(GraphView::degree_offsets(&r), g.offsets().to_vec());
    }

    #[test]
    fn slice_iterator_is_exact_size() {
        let g = diamond();
        let it = GraphView::neighbors(&g, 0);
        assert_eq!(it.len(), 3);
        assert_eq!(it.as_slice(), Some(g.neighbors(0)));
    }

    #[test]
    fn le_bytes_iterator_decodes_and_tolerates_truncation() {
        let bytes: Vec<u8> = [7u32, 9, 1 << 20]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let got: Vec<_> = Neighbors::from_le_bytes(&bytes).collect();
        assert_eq!(got, vec![7, 9, 1 << 20]);
        // A ragged tail is dropped, not panicked on.
        let got: Vec<_> = Neighbors::from_le_bytes(&bytes[..10]).collect();
        assert_eq!(got, vec![7, 9]);
    }

    #[test]
    fn default_degree_offsets_prefix_sums() {
        struct Star;
        impl GraphView for Star {
            fn num_vertices(&self) -> usize {
                4
            }
            fn num_edges(&self) -> usize {
                3
            }
            fn degree(&self, v: VertexId) -> usize {
                if v == 0 {
                    3
                } else {
                    1
                }
            }
            fn neighbors(&self, _v: VertexId) -> Neighbors<'_> {
                Neighbors::from_slice(&[])
            }
            fn adjacency_start(&self, _v: VertexId) -> usize {
                0
            }
        }
        assert_eq!(Star.degree_offsets(), vec![0, 3, 4, 5, 6]);
        assert_eq!(Star.max_degree(), 3);
        assert!((Star.average_degree() - 1.5).abs() < 1e-12);
    }
}
