//! Compressed-sparse-row storage for undirected simple graphs.

use crate::cast;

/// Vertex identifier.
///
/// The whole workspace uses dense `u32` ids: the paper's algorithms index
/// per-vertex arrays directly, and 32-bit ids halve the memory traffic of the
/// adjacency scans that dominate runtime.
pub type VertexId = u32;

/// An immutable undirected simple graph in compressed-sparse-row form.
///
/// Each undirected edge `{u, v}` is stored twice (once in each endpoint's
/// adjacency slice). The structure is intentionally minimal: two flat arrays
/// plus the vertex/edge counts, exactly the `O(m)` space budget the paper's
/// optimality argument assumes.
///
/// Invariants (enforced by [`GraphBuilder`](crate::GraphBuilder)):
/// * no self loops, no parallel edges;
/// * every adjacency slice is sorted by vertex id (builders produce this;
///   re-ordered graphs from `bestk-core` relax it deliberately).
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` is the adjacency range of `v`. Length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists. Length `2 m`.
    neighbors: Vec<VertexId>,
}

impl CsrGraph {
    /// Assembles a graph directly from CSR arrays.
    ///
    /// `offsets` must be monotone with `offsets[0] == 0` and
    /// `offsets[n] == neighbors.len()`, and every neighbor id must be `< n`.
    ///
    /// # Panics
    ///
    /// Panics (in debug and release builds) if the arrays are inconsistent;
    /// this constructor is the trusted entry point for the whole workspace.
    pub fn from_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1 >= 1");
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(
            offsets.last().copied().unwrap_or(0),
            neighbors.len(),
            "offsets must end at neighbors.len()"
        );
        let n = offsets.len() - 1;
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert!(
            neighbors.iter().all(|&u| (u as usize) < n),
            "neighbor id out of range"
        );
        CsrGraph { offsets, neighbors }
    }

    /// Non-panicking twin of [`from_parts`](Self::from_parts) for
    /// deserializers handling untrusted bytes: the same invariants are
    /// checked, but a violation comes back as a descriptive error instead
    /// of aborting the process.
    pub fn try_from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
    ) -> Result<Self, crate::GraphError> {
        let bad = |msg: String| crate::GraphError::BadBinaryFormat(msg);
        if offsets.is_empty() {
            return Err(bad("offsets must have length n + 1 >= 1".into()));
        }
        if offsets[0] != 0 {
            return Err(bad("offsets[0] must be 0".into()));
        }
        if offsets.last().copied().unwrap_or(0) != neighbors.len() {
            return Err(bad(format!(
                "offsets end at {} but there are {} neighbors",
                offsets.last().copied().unwrap_or(0),
                neighbors.len()
            )));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(bad("offsets must be non-decreasing".into()));
        }
        let n = offsets.len() - 1;
        if let Some(&u) = neighbors.iter().find(|&&u| (u as usize) >= n) {
            return Err(bad(format!("neighbor id {u} out of range (n = {n})")));
        }
        Ok(CsrGraph { offsets, neighbors })
    }

    /// Assembles a graph from per-vertex neighbor lists, in any order
    /// within a list, that are symmetric (`x` is in `lists[w]` exactly when
    /// `w` is in `lists[x]`) and hold no duplicate or self loop.
    ///
    /// One transpose pass in `O(n + m)`: the offsets come from the list
    /// lengths, then each `w` in ascending order is appended to the list of
    /// every `x` in `lists[w]`, so every list comes out sorted by id with no
    /// sort.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor id is out of range or the lists are not
    /// symmetric (the transpose then overruns or underfills a list).
    pub fn from_symmetric_lists(lists: &[Vec<VertexId>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for list in lists {
            acc += list.len();
            offsets.push(acc);
        }
        let mut cursor = offsets[..lists.len()].to_vec();
        let mut neighbors: Vec<VertexId> = vec![0; acc];
        for (w, list) in lists.iter().enumerate() {
            let w = cast::vertex_id(w);
            for &x in list {
                let slot = &mut cursor[x as usize];
                neighbors[*slot] = w;
                *slot += 1;
            }
        }
        assert!(cursor == offsets[1..], "neighbor lists are not symmetric");
        let g = CsrGraph { offsets, neighbors };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v` in the graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        // bestk-analyze: allow(unchecked-arith) — offsets are validated monotone at construction
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted adjacency slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists.
    ///
    /// Binary search on the sorted adjacency of the lower-degree endpoint:
    /// `O(log min(d(u), d(v)))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..cast::vertex_id(self.num_vertices())
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            vertex: 0,
            pos: 0,
        }
    }

    /// The raw offset array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array (length `2 m`).
    #[inline]
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Heap bytes held by the offset and adjacency arrays — the resident
    /// cost accounting seam, so consumers never reach for the raw arrays
    /// just to size them.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            .saturating_add(std::mem::size_of_val(self.neighbors.as_slice()))
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            // bestk-analyze: allow(unchecked-arith) — offsets are validated monotone at construction
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2 m / n` (0.0 for a vertex-free graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Checks the simple-graph invariants: sorted adjacency, no self loops,
    /// no duplicates, and symmetric edges. Intended for tests and debugging;
    /// costs `O(m log m)`.
    pub fn validate(&self) -> Result<(), String> {
        for v in self.vertices() {
            let adj = self.neighbors(v);
            for w in adj.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {v} is not strictly sorted"));
                }
            }
            for &u in adj {
                if u == v {
                    return Err(format!("self loop at {v}"));
                }
                if self.neighbors(u).binary_search(&v).is_err() {
                    return Err(format!("edge ({v},{u}) is not symmetric"));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrGraph {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Iterator over undirected edges produced by [`CsrGraph::edges`].
pub struct EdgeIter<'a> {
    graph: &'a CsrGraph,
    vertex: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<(VertexId, VertexId)> {
        let g = self.graph;
        let n = g.num_vertices();
        while self.vertex < n {
            let end = g.offsets[self.vertex + 1];
            while self.pos < end {
                let u = cast::vertex_id(self.vertex);
                let v = g.neighbors[self.pos];
                self.pos += 1;
                if u < v {
                    return Some((u, v));
                }
            }
            self.vertex += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.average_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edge_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn from_parts_roundtrip() {
        let g = triangle();
        let g2 = CsrGraph::from_parts(g.offsets().to_vec(), g.raw_neighbors().to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn from_parts_rejects_bad_offsets() {
        CsrGraph::from_parts(vec![0, 3], vec![1]);
    }

    #[test]
    #[should_panic(expected = "neighbor id out of range")]
    fn from_parts_rejects_out_of_range_neighbor() {
        CsrGraph::from_parts(vec![0, 1], vec![5]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_parts_rejects_decreasing_offsets() {
        CsrGraph::from_parts(vec![0, 2, 1, 3], vec![1, 2, 0]);
    }

    #[test]
    fn from_symmetric_lists_matches_the_builder() {
        let lists = vec![vec![2, 1], vec![0], vec![3, 0], vec![2], vec![]];
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (0, 2), (2, 3)]);
        b.reserve_vertices(5);
        assert_eq!(CsrGraph::from_symmetric_lists(&lists), b.build());
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn from_symmetric_lists_rejects_asymmetric_lists() {
        CsrGraph::from_symmetric_lists(&[vec![1u32, 2], vec![], vec![0]]);
    }

    #[test]
    fn validate_detects_asymmetry() {
        // Hand-built broken CSR: 0 -> 1 but not 1 -> 0.
        let g = CsrGraph {
            offsets: vec![0, 1, 1],
            neighbors: vec![1],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn debug_format_is_compact() {
        let g = triangle();
        assert_eq!(format!("{g:?}"), "CsrGraph { n: 3, m: 3 }");
    }
}
