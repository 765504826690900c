//! Linear-time construction of [`CsrGraph`] from edge streams.

use crate::csr::{CsrGraph, VertexId};

/// Deduplicating builder that turns an arbitrary stream of undirected edges
/// into a [`CsrGraph`].
///
/// The builder accepts edges in any order, silently drops self loops, and
/// collapses parallel edges. Vertex ids are dense `u32`s; the vertex count of
/// the result is `max id + 1` unless raised with [`reserve_vertices`].
///
/// Construction is `O(n + m)` using two counting-sort passes (no comparison
/// sort), which is what keeps graph loading off the critical path for the
/// paper's `O(m)` algorithms.
///
/// [`reserve_vertices`]: GraphBuilder::reserve_vertices
///
/// # Example
///
/// ```
/// use bestk_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 2);
/// b.add_edge(2, 0); // duplicate, collapsed
/// b.add_edge(1, 1); // self loop, dropped
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// A builder with no edges.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder expecting roughly `m` edges (pre-sizes the edge buffer).
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            min_vertices: 0,
        }
    }

    /// Ensures the built graph has at least `n` vertices even if some of them
    /// end up isolated.
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds the undirected edge `{u, v}`. Self loops are ignored.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
        self
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(
        &mut self,
        iter: I,
    ) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Number of (not yet deduplicated) edges added so far.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the graph, consuming the builder.
    pub fn build(self) -> CsrGraph {
        let n = self
            .edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        build_csr(n, self.edges)
    }
}

/// Counting-sort construction of a deduplicated CSR from canonicalized edges
/// (`u < v`, no self loops): two stable counting passes (radix over the two
/// endpoints) sort the edges lexicographically, then one scatter writes
/// both directions of each edge.
///
/// The scatter needs no sort afterwards. Every edge `(u, w)` with `u < w`
/// comes before every edge `(w, v)` with `w < v`, so `w`'s list receives
/// its smaller neighbors `u` first, in ascending order (the sort's major
/// key), and then its larger neighbors `v`, in ascending order (its minor
/// key within `w`'s run): each list is written strictly ascending.
fn build_csr(n: usize, mut edges: Vec<(VertexId, VertexId)>) -> CsrGraph {
    if !edges.is_empty() {
        edges = counting_sort_by(edges, n, |&(_, v)| v as usize);
        edges = counting_sort_by(edges, n, |&(u, _)| u as usize);
        edges.dedup();
    }
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in &edges {
        // bestk-analyze: allow(unchecked-arith) — counts bounded by the in-memory edge count
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1; // bestk-analyze: allow(unchecked-arith) — same bound as above
    }
    let mut acc = 0usize;
    for slot in &mut offsets {
        acc += *slot;
        *slot = acc;
    }
    let mut cursor = offsets.clone();
    let mut neighbors: Vec<VertexId> = vec![0; offsets[n]];
    for &(u, v) in &edges {
        neighbors[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    CsrGraph::from_parts(offsets, neighbors)
}

fn counting_sort_by<T: Copy>(items: Vec<T>, buckets: usize, key: impl Fn(&T) -> usize) -> Vec<T> {
    if items.is_empty() {
        return items;
    }
    let mut count = vec![0usize; buckets + 1];
    for it in &items {
        count[key(it) + 1] += 1;
    }
    for i in 0..buckets {
        count[i + 1] += count[i];
    }
    let mut out = Vec::with_capacity(items.len());
    // Safety-free scatter: fill with first element then overwrite.
    out.resize(items.len(), items[0]);
    for it in &items {
        let k = key(it);
        out[count[k]] = *it;
        count[k] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn reserve_vertices_creates_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.reserve_vertices(10);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 1);
        b.add_edge(1, 3);
        b.add_edge(3, 1);
        b.add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[1]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_insertion_order() {
        let mut b = GraphBuilder::new();
        for &v in &[7, 2, 9, 1, 5] {
            b.add_edge(4, v);
        }
        let g = b.build();
        assert_eq!(g.neighbors(4), &[1, 2, 5, 7, 9]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn extend_edges_matches_add_edge() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let mut b1 = GraphBuilder::new();
        b1.extend_edges(edges.iter().copied());
        let mut b2 = GraphBuilder::new();
        for &(u, v) in &edges {
            b2.add_edge(u, v);
        }
        assert_eq!(b1.build(), b2.build());
    }

    #[test]
    fn with_capacity_and_pending() {
        let mut b = GraphBuilder::with_capacity(8);
        assert_eq!(b.pending_edges(), 0);
        b.add_edge(0, 1);
        b.add_edge(1, 1); // dropped
        assert_eq!(b.pending_edges(), 1);
    }

    #[test]
    fn large_star_builds_linearly() {
        let mut b = GraphBuilder::with_capacity(10_000);
        for v in 1..=10_000u32 {
            b.add_edge(0, v);
        }
        let g = b.build();
        assert_eq!(g.degree(0), 10_000);
        assert_eq!(g.num_edges(), 10_000);
    }
}
