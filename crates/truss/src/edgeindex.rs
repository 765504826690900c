//! Dense edge ids over a graph's adjacency structure.
//!
//! Truss algorithms are edge-centric: supports, truss numbers, and deletion
//! flags are all per-undirected-edge arrays. This index assigns each
//! undirected edge a dense id `0..m` (both adjacency directions map to the
//! same id) and supports `O(log d)` id lookup by endpoint pair.
//!
//! The index *owns* a materialized copy of the adjacency (offsets plus
//! sorted neighbor array), so it can be built from any [`GraphView`]
//! backend — canonical CSR or memory-mapped — and the truss
//! kernels address adjacency exclusively through it rather than through
//! backend-specific raw arrays.

use bestk_graph::{GraphView, VertexId};

/// Edge-id annotation plus a slot-aligned adjacency copy.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// Adjacency offsets: vertex `v`'s slots are `offsets[v]..offsets[v+1]`.
    offsets: Vec<usize>,
    /// Slot-aligned neighbor ids (each undirected edge appears twice).
    adj: Vec<VertexId>,
    /// `ids[p]` = edge id of adjacency slot `p` (aligned with `adj`).
    ids: Vec<u32>,
    /// `endpoints[e]` = the edge's `(u, v)` with `u < v`.
    endpoints: Vec<(VertexId, VertexId)>,
}

impl EdgeIndex {
    /// Builds the index in `O(n + m)` from any storage backend (edges are
    /// numbered in ascending `(u, v)` order with `u < v`, matching
    /// `CsrGraph::edges`).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` edges.
    pub fn build<G: GraphView>(g: &G) -> Self {
        assert!(g.num_edges() <= u32::MAX as usize, "edge ids are u32");
        let offsets = g.degree_offsets();
        let mut adj: Vec<VertexId> = Vec::with_capacity(offsets[g.num_vertices()]);
        for v in g.vertices() {
            adj.extend(g.neighbors(v));
        }
        let mut ids = vec![0u32; adj.len()];
        let mut endpoints = Vec::with_capacity(g.num_edges());
        // Walk each vertex's sorted adjacency; assign ids to the (u, v)
        // direction with u < v first, then mirror to (v, u) via a per-vertex
        // cursor into the reverse slot.
        let mut next = 0u32;
        // cursor[v]: how many back-edges of v (to smaller ids) we've mirrored.
        let mut cursor: Vec<usize> = offsets[..g.num_vertices()].to_vec();
        for u in g.vertices() {
            let (start, end) = (offsets[u as usize], offsets[u as usize + 1]);
            for p in start..end {
                let v = adj[p];
                if v > u {
                    ids[p] = next;
                    endpoints.push((u, v));
                    // Mirror on v's side: v's adjacency is sorted, and its
                    // sub-`v` neighbors appear in ascending order — which is
                    // exactly the order we visit (u ascending). So the next
                    // unmirrored slot of v is cursor[v].
                    let q = cursor[v as usize];
                    debug_assert_eq!(adj[q], u, "mirror slot mismatch");
                    ids[q] = next;
                    cursor[v as usize] = q + 1;
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next as usize, g.num_edges());
        EdgeIndex {
            offsets,
            adj,
            ids,
            endpoints,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of vertex `v` (the width of its slot range).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The endpoints `(u, v)` (with `u < v`) of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: u32) -> (VertexId, VertexId) {
        self.endpoints[e as usize]
    }

    /// Edge ids aligned with the adjacency slot array.
    #[inline]
    pub fn slot_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The edge id at an adjacency slot.
    #[inline]
    pub fn id_at_slot(&self, slot: usize) -> u32 {
        self.ids[slot]
    }

    /// The neighbor id at an adjacency slot.
    #[inline]
    pub fn neighbor_at(&self, slot: usize) -> VertexId {
        self.adj[slot]
    }

    /// Looks up the id of edge `{u, v}` by binary search on the sorted
    /// adjacency of the lower-degree endpoint; `None` if absent.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<u32> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let range = self.slots_of(a);
        let start = range.start;
        self.adj[range]
            .binary_search(&b)
            .ok()
            .map(|i| self.ids[start + i])
    }

    /// The adjacency slot range of vertex `v`, for slot-aligned scans.
    #[inline]
    pub fn slots_of(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators::{self, regular};
    use bestk_graph::{bytecsr, ByteCsr, CsrGraph, GraphBuilder};

    #[test]
    fn ids_are_dense_and_symmetric() {
        let g = generators::erdos_renyi_gnm(100, 400, 7);
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.num_edges(), 400);
        // Every id appears exactly twice in the slot array.
        let mut count = vec![0usize; 400];
        for &id in idx.slot_ids() {
            count[id as usize] += 1;
        }
        assert!(count.iter().all(|&c| c == 2));
        // Endpoint lookup round trips.
        for e in 0..400u32 {
            let (u, v) = idx.endpoints(e);
            assert!(u < v);
            assert_eq!(idx.edge_id(u, v), Some(e));
            assert_eq!(idx.edge_id(v, u), Some(e));
        }
    }

    #[test]
    fn missing_edges_and_self_loops() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.edge_id(0, 2), None);
        assert_eq!(idx.edge_id(1, 1), None);
        assert!(idx.edge_id(0, 1).is_some());
    }

    #[test]
    fn slot_alignment() {
        let g = regular::complete(5);
        let idx = EdgeIndex::build(&g);
        for v in g.vertices() {
            let range = idx.slots_of(v);
            for (i, slot) in range.enumerate() {
                let u = g.neighbors(v)[i];
                assert_eq!(idx.neighbor_at(slot), u);
                let e = idx.id_at_slot(slot);
                let (a, b) = idx.endpoints(e);
                assert!((a, b) == (u.min(v), u.max(v)));
            }
        }
    }

    #[test]
    fn backends_build_identical_indexes() {
        let g = generators::erdos_renyi_gnm(120, 500, 3);
        let from_csr = EdgeIndex::build(&g);
        let from_mapped = EdgeIndex::build(&ByteCsr::new(bytecsr::encode_view(&g)).unwrap());
        assert_eq!(from_csr.slot_ids(), from_mapped.slot_ids());
        for e in 0..500u32 {
            assert_eq!(from_csr.endpoints(e), from_mapped.endpoints(e));
        }
        for v in g.vertices() {
            assert_eq!(from_csr.slots_of(v), from_mapped.slots_of(v));
            assert_eq!(from_csr.degree(v), g.degree(v));
        }
    }

    #[test]
    fn empty_graph() {
        let idx = EdgeIndex::build(&CsrGraph::empty(4));
        assert_eq!(idx.num_edges(), 0);
        assert_eq!(idx.num_vertices(), 4);
    }
}
