//! [`DeltaOverlay`]: pending edge mutations layered over an immutable base.
//!
//! Every storage backend in the workspace is immutable by design; the
//! overlay is the *only* mutable graph form. It validates and buffers
//! [`EdgeOp`]s on top of any [`GraphView`] (canonical CSR or a mapped
//! snapshot view), observes as a [`GraphView`] itself with the
//! same sorted-by-id neighbor order, and materializes back into a
//! canonical [`CsrGraph`] at commit time.
//!
//! Only vertices that were actually touched carry a patched adjacency
//! list; untouched vertices read straight through to the base, so an
//! overlay with a handful of pending ops costs `O(touched degree)` heap on
//! top of the base.

use std::collections::BTreeMap;

use bestk_graph::generators::EdgeOp;
use bestk_graph::{cast, CsrGraph, GraphBuilder, GraphView, Neighbors, VertexId};

use crate::DeltaError;

/// Pending edge inserts/deletes over an immutable base graph.
#[derive(Debug, Clone)]
pub struct DeltaOverlay<G: GraphView> {
    base: G,
    /// Applied ops in order (replayed into the WAL / the delta index).
    ops: Vec<EdgeOp>,
    /// Sorted-by-id adjacency for every touched vertex.
    patched: BTreeMap<VertexId, Vec<VertexId>>,
    /// Degree prefix sums over the overlaid graph, length `n + 1`;
    /// rebuilt eagerly on apply so reads stay `O(1)`.
    offsets: Vec<usize>,
    m: usize,
}

impl<G: GraphView> DeltaOverlay<G> {
    /// An overlay with no pending ops.
    pub fn new(base: G) -> DeltaOverlay<G> {
        let offsets = base.degree_offsets();
        let m = base.num_edges();
        DeltaOverlay {
            base,
            ops: Vec::new(),
            patched: BTreeMap::new(),
            offsets,
            m,
        }
    }

    /// The base this overlay patches.
    pub fn base(&self) -> &G {
        &self.base
    }

    /// Applied-but-uncommitted ops, in application order.
    pub fn pending(&self) -> &[EdgeOp] {
        &self.ops
    }

    /// Validates and applies one mutation. Rejected ops (self-loops,
    /// out-of-range ids, duplicate inserts, deletes of absent edges) leave
    /// the overlay untouched.
    pub fn apply(&mut self, op: EdgeOp) -> Result<(), DeltaError> {
        let (u, v) = op.endpoints();
        let n = self.num_vertices();
        if u == v {
            return Err(DeltaError::BadOp(format!("self-loop on vertex {u}")));
        }
        if (u as usize) >= n || (v as usize) >= n {
            return Err(DeltaError::BadOp(format!(
                "edge ({u}, {v}) out of range for {n} vertices"
            )));
        }
        let present = self.has_edge(u, v);
        match op {
            EdgeOp::Insert(..) if present => {
                return Err(DeltaError::BadOp(format!(
                    "edge ({u}, {v}) already present"
                )))
            }
            EdgeOp::Delete(..) if !present => {
                return Err(DeltaError::BadOp(format!("edge ({u}, {v}) not present")))
            }
            _ => {}
        }
        for (a, b) in [(u, v), (v, u)] {
            // First touch snapshots the base adjacency (disjoint field
            // borrow: `base` is read while `patched` is written).
            let base = &self.base;
            let list = self
                .patched
                .entry(a)
                .or_insert_with(|| base.neighbors(a).collect());
            match list.binary_search(&b) {
                Ok(i) if !op.is_insert() => {
                    list.remove(i);
                }
                Err(i) if op.is_insert() => list.insert(i, b),
                // Membership was validated above; the patched lists agree
                // with `has_edge` by construction.
                _ => unreachable!("overlay membership drifted from has_edge"),
            }
        }
        if op.is_insert() {
            self.m += 1;
        } else {
            self.m -= 1;
        }
        self.rebuild_offsets();
        self.ops.push(op);
        Ok(())
    }

    /// Materializes the overlaid graph as a canonical [`CsrGraph`].
    pub fn materialize(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.m);
        b.reserve_vertices(self.num_vertices());
        for u in self.vertices() {
            for v in self.neighbors(u) {
                if u < v {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    fn rebuild_offsets(&mut self) {
        let n = self.offsets.len() - 1;
        let mut acc = 0usize;
        for v in 0..n {
            self.offsets[v] = acc;
            acc += self.degree(cast::vertex_id(v));
        }
        self.offsets[n] = acc;
    }
}

impl<G: GraphView> GraphView for DeltaOverlay<G> {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn degree(&self, v: VertexId) -> usize {
        match self.patched.get(&v) {
            Some(list) => list.len(),
            None => self.base.degree(v),
        }
    }

    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        match self.patched.get(&v) {
            Some(list) => Neighbors::from_slice(list),
            None => self.base.neighbors(v),
        }
    }

    fn adjacency_start(&self, v: VertexId) -> usize {
        self.offsets[v as usize]
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.patched.get(&u) {
            Some(list) => list.binary_search(&v).is_ok(),
            None => self.base.has_edge(u, v),
        }
    }

    fn degree_offsets(&self) -> Vec<usize> {
        self.offsets.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators;

    fn observations<G: GraphView>(g: &G) -> (usize, usize, Vec<Vec<VertexId>>, Vec<usize>) {
        (
            g.num_vertices(),
            g.num_edges(),
            g.vertices().map(|v| g.neighbors(v).collect()).collect(),
            g.degree_offsets(),
        )
    }

    #[test]
    fn overlay_observes_like_its_materialization() {
        let g = generators::erdos_renyi_gnm(40, 100, 5);
        let mut overlay = DeltaOverlay::new(&g);
        for op in generators::edge_stream_mixed(&g, 60, 9) {
            overlay.apply(op).unwrap();
        }
        let materialized = overlay.materialize();
        assert_eq!(observations(&overlay), observations(&materialized));
        for u in overlay.vertices() {
            for v in overlay.vertices() {
                assert_eq!(overlay.has_edge(u, v), materialized.has_edge(u, v));
            }
        }
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let g = generators::paper_figure2();
        let overlay = DeltaOverlay::new(&g);
        assert_eq!(observations(&overlay), observations(&g));
        assert!(overlay.pending().is_empty());
    }

    #[test]
    fn invalid_ops_are_rejected_and_leave_no_trace() {
        let g = generators::paper_figure2();
        let mut overlay = DeltaOverlay::new(&g);
        let before = observations(&overlay);
        assert!(matches!(
            overlay.apply(EdgeOp::Insert(3, 3)),
            Err(DeltaError::BadOp(_))
        ));
        assert!(matches!(
            overlay.apply(EdgeOp::Insert(0, 99)),
            Err(DeltaError::BadOp(_))
        ));
        let (u, v) = g.edges().next().unwrap();
        assert!(matches!(
            overlay.apply(EdgeOp::Insert(u, v)),
            Err(DeltaError::BadOp(_))
        ));
        overlay.apply(EdgeOp::Delete(u, v)).unwrap();
        assert!(matches!(
            overlay.apply(EdgeOp::Delete(u, v)),
            Err(DeltaError::BadOp(_))
        ));
        overlay.apply(EdgeOp::Insert(u, v)).unwrap();
        assert_eq!(observations(&overlay), before);
        assert_eq!(overlay.pending().len(), 2);
    }

    #[test]
    fn insert_then_delete_round_trips_to_the_base() {
        let g = generators::regular::cycle(8);
        let mut overlay = DeltaOverlay::new(&g);
        overlay.apply(EdgeOp::Insert(0, 4)).unwrap();
        assert!(overlay.has_edge(0, 4));
        assert_eq!(overlay.num_edges(), g.num_edges() + 1);
        overlay.apply(EdgeOp::Delete(0, 4)).unwrap();
        assert_eq!(overlay.materialize(), g);
    }
}
