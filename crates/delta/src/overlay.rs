//! [`DeltaOverlay`]: staged edge mutations over an immutable base graph.
//!
//! Every storage backend in the workspace is immutable by design. The
//! overlay validates and records [`EdgeOp`]s on top of any [`GraphView`]
//! (canonical CSR or a mapped snapshot view) and materializes the result
//! back into a canonical [`CsrGraph`].
//!
//! It keeps the applied ops and the set of edges whose presence differs
//! from the base, nothing per vertex. So each `check` or `apply` of one op
//! costs a base `has_edge` plus `O(log p)` set work for `p` ops applied so
//! far, and the overlay holds `O(p)` heap however large the base is.

use std::collections::BTreeSet;

use bestk_graph::generators::EdgeOp;
use bestk_graph::{CsrGraph, GraphBuilder, GraphView, VertexId};

use crate::DeltaError;

/// Pending edge inserts/deletes over an immutable base graph.
#[derive(Debug, Clone)]
pub struct DeltaOverlay<G: GraphView> {
    base: G,
    /// Applied ops in order (replayed into the WAL / the delta index).
    ops: Vec<EdgeOp>,
    /// Edges, as `(min, max)`, whose presence differs from the base.
    flipped: BTreeSet<(VertexId, VertexId)>,
}

/// The flip-set key of the undirected edge `{u, v}`.
fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

impl<G: GraphView> DeltaOverlay<G> {
    /// An overlay with no pending ops.
    pub fn new(base: G) -> DeltaOverlay<G> {
        DeltaOverlay {
            base,
            ops: Vec::new(),
            flipped: BTreeSet::new(),
        }
    }

    /// Applied-but-uncommitted ops, in application order.
    pub fn pending(&self) -> &[EdgeOp] {
        &self.ops
    }

    /// Whether the edge `{u, v}` is present once the pending ops apply.
    /// Both ids must be vertices of the base.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.base.has_edge(u, v) != self.flipped.contains(&key(u, v))
    }

    /// Validates one mutation against the overlaid graph without applying
    /// it: self-loops, out-of-range ids, duplicate inserts and deletes of
    /// absent edges are rejected.
    pub fn check(&self, op: EdgeOp) -> Result<(), DeltaError> {
        crate::validate_op(&op, self.base.num_vertices(), |u, v| self.has_edge(u, v))
    }

    /// Validates and applies one mutation. A rejected op (see
    /// [`check`](Self::check)) leaves the overlay untouched.
    pub fn apply(&mut self, op: EdgeOp) -> Result<(), DeltaError> {
        self.check(op)?;
        let (u, v) = op.endpoints();
        let edge = key(u, v);
        // A valid op flips its edge's presence; a second flip restores the
        // base.
        if !self.flipped.remove(&edge) {
            self.flipped.insert(edge);
        }
        self.ops.push(op);
        Ok(())
    }

    /// Materializes the overlaid graph as a canonical [`CsrGraph`]: the
    /// base's edges minus the flipped ones it holds, plus the flipped ones
    /// it lacks.
    pub fn materialize(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.base.num_edges() + self.flipped.len());
        b.reserve_vertices(self.base.num_vertices());
        for u in self.base.vertices() {
            for v in self.base.neighbors(u) {
                if u < v && !self.flipped.contains(&(u, v)) {
                    b.add_edge(u, v);
                }
            }
        }
        for &(u, v) in &self.flipped {
            if !self.base.has_edge(u, v) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators;

    #[test]
    fn overlay_observes_like_its_materialization() {
        let g = generators::erdos_renyi_gnm(40, 100, 5);
        let mut overlay = DeltaOverlay::new(&g);
        for op in generators::edge_stream_mixed(&g, 60, 9) {
            overlay.apply(op).unwrap();
        }
        let materialized = overlay.materialize();
        for u in materialized.vertices() {
            for v in materialized.vertices() {
                assert_eq!(overlay.has_edge(u, v), materialized.has_edge(u, v));
            }
        }
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let g = generators::paper_figure2();
        let overlay = DeltaOverlay::new(&g);
        assert_eq!(overlay.materialize(), g);
        assert!(overlay.pending().is_empty());
    }

    #[test]
    fn invalid_ops_are_rejected_and_leave_no_trace() {
        let g = generators::paper_figure2();
        let mut overlay = DeltaOverlay::new(&g);
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
        // A check validates without applying.
        overlay.check(EdgeOp::Delete(u, v)).unwrap();
        assert!(overlay.pending().is_empty());
        overlay.apply(EdgeOp::Delete(u, v)).unwrap();
        // Endpoints are unordered: the flipped edge is found either way.
        for op in [EdgeOp::Delete(u, v), EdgeOp::Delete(v, u)] {
            assert!(matches!(overlay.apply(op), Err(DeltaError::BadOp(_))));
        }
        overlay.apply(EdgeOp::Insert(u, v)).unwrap();
        assert_eq!(overlay.materialize(), g);
        assert_eq!(overlay.pending().len(), 2);
    }

    #[test]
    fn insert_then_delete_round_trips_to_the_base() {
        let g = generators::regular::cycle(8);
        let mut overlay = DeltaOverlay::new(&g);
        overlay.apply(EdgeOp::Insert(0, 4)).unwrap();
        assert!(overlay.has_edge(0, 4));
        assert_eq!(overlay.materialize().num_edges(), g.num_edges() + 1);
        overlay.apply(EdgeOp::Delete(0, 4)).unwrap();
        assert_eq!(overlay.materialize(), g);
    }
}
