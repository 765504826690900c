//! The engine's graph storage: one [`GraphStore`] variant per role.
//!
//! * [`GraphStore::Csr`] — the canonical materialized [`CsrGraph`] that
//!   every build runs on, every commit produces and every compaction
//!   writes out: fastest scans, the graph's full heap footprint.
//! * [`GraphStore::Mapped`] — a zero-copy [`ByteCsr`] borrowing its bytes
//!   from a memory-mapped v2 snapshot, the form every `.bestk` opens as:
//!   near-zero heap cost and near-instant open, backed by the page cache.
//!
//! Both implement [`GraphView`] with identical observations, so every
//! algorithm and every query answer is bit-identical across them
//! (property-tested in `tests/backend_equivalence.rs`).

use std::sync::{Arc, OnceLock};

use bestk_graph::{ByteCsr, CsrGraph, GraphView, Neighbors, VertexId};

use crate::error::EngineError;
use crate::mmap::Mmap;

/// A window into a shared memory-mapped snapshot: the byte holder behind
/// [`GraphStore::Mapped`]. Cloning is `O(1)` — it bumps the `Arc` on the
/// mapping, never copies file bytes.
#[derive(Clone, Debug)]
pub struct SnapshotSlice {
    map: Arc<Mmap>,
    off: usize,
    len: usize,
    /// The section table's checksum of these bytes.
    checksum: u64,
    /// Set once `check` has passed; shared by clones, which view the same
    /// bytes.
    checked: Arc<OnceLock<()>>,
}

impl SnapshotSlice {
    /// Slices `map[off .. off + len]`, whose bytes the snapshot's section
    /// table records under `checksum` ([`fnv1a`](crate::fnv1a)); `None`
    /// when the range falls outside the mapping (a corrupt section table,
    /// typically).
    pub fn new(map: Arc<Mmap>, off: usize, len: usize, checksum: u64) -> Option<SnapshotSlice> {
        let end = off.checked_add(len)?;
        if end > map.len() {
            return None;
        }
        Some(SnapshotSlice {
            map,
            off,
            len,
            checksum,
            checked: Arc::default(),
        })
    }

    /// The shared mapping this slice borrows from.
    pub fn mapping(&self) -> &Arc<Mmap> {
        &self.map
    }

    /// Pays the check that opening a snapshot defers: hashes the bytes
    /// against their recorded checksum and validates the CSR layout they
    /// hold. This faults every byte in; a passed check is remembered, so
    /// later calls are free.
    pub(crate) fn check(&self) -> Result<(), EngineError> {
        if self.checked.get().is_some() {
            return Ok(());
        }
        if crate::snapshot::fnv1a(self.as_ref()) != self.checksum {
            return Err(EngineError::ChecksumMismatch { section: "graph" });
        }
        let view = ByteCsr::new(self.as_ref()).map_err(EngineError::Graph)?;
        view.validate_structure().map_err(EngineError::Graph)?;
        let _ = self.checked.set(());
        Ok(())
    }
}

impl AsRef<[u8]> for SnapshotSlice {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.map.as_slice()[self.off..self.off + self.len]
    }
}

/// A graph held in one of the engine's two stores. See the module docs
/// for the roles; [`GraphStore::as_csr`] is the escape hatch for the few
/// operations (snapshot *writes*, artifact builds that want raw slices)
/// that need the canonical form.
#[derive(Clone, Debug)]
pub enum GraphStore {
    /// Canonical materialized CSR.
    Csr(Arc<CsrGraph>),
    /// Zero-copy view into a mapped v2 snapshot.
    Mapped(ByteCsr<SnapshotSlice>),
}

impl GraphStore {
    /// Heap bytes resident for the graph itself. Mapped graphs report 0 —
    /// their bytes live in the page cache, not the process heap.
    pub fn resident_heap_bytes(&self) -> usize {
        match self {
            GraphStore::Csr(g) => g.heap_bytes(),
            GraphStore::Mapped(_) => 0,
        }
    }

    /// Checks a mapped graph's bytes against the checksum its snapshot's
    /// section table records and validates their CSR layout: the check
    /// opening defers. The paths that act on a possibly bad graph pay it:
    /// strict loads, loads with a rebuild source, log replay and every
    /// commit. A CSR store was built in memory and always passes.
    pub fn check(&self) -> Result<(), EngineError> {
        match self {
            GraphStore::Csr(_) => Ok(()),
            GraphStore::Mapped(b) => b.bytes().check(),
        }
    }

    /// The canonical CSR: borrowed when this *is* the CSR store,
    /// materialized (with full validation) from the mapped bytes otherwise.
    pub fn as_csr(&self) -> Result<Arc<CsrGraph>, bestk_graph::GraphError> {
        match self {
            GraphStore::Csr(g) => Ok(Arc::clone(g)),
            GraphStore::Mapped(b) => b.to_csr().map(Arc::new),
        }
    }
}

/// Observation equality: two stores are equal when every [`GraphView`]
/// observation agrees, regardless of store. This is the equality that
/// matters for round-trip tests — a mapped snapshot of a CSR *is* that
/// graph.
impl PartialEq for GraphStore {
    fn eq(&self, other: &GraphStore) -> bool {
        self.num_vertices() == other.num_vertices()
            && self.num_edges() == other.num_edges()
            && self
                .vertices()
                .all(|v| self.neighbors(v).eq(other.neighbors(v)))
    }
}

impl Eq for GraphStore {}

impl From<CsrGraph> for GraphStore {
    fn from(g: CsrGraph) -> GraphStore {
        GraphStore::Csr(Arc::new(g))
    }
}

impl From<Arc<CsrGraph>> for GraphStore {
    fn from(g: Arc<CsrGraph>) -> GraphStore {
        GraphStore::Csr(g)
    }
}

impl GraphView for GraphStore {
    #[inline]
    fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::num_vertices(&**g),
            GraphStore::Mapped(g) => g.num_vertices(),
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::num_edges(&**g),
            GraphStore::Mapped(g) => g.num_edges(),
        }
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::degree(&**g, v),
            GraphStore::Mapped(g) => g.degree(v),
        }
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        match self {
            GraphStore::Csr(g) => GraphView::neighbors(&**g, v),
            GraphStore::Mapped(g) => g.neighbors(v),
        }
    }

    #[inline]
    fn adjacency_start(&self, v: VertexId) -> usize {
        match self {
            GraphStore::Csr(g) => GraphView::adjacency_start(&**g, v),
            GraphStore::Mapped(g) => g.adjacency_start(v),
        }
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            // Keep the CSR's binary-search override through the enum.
            GraphStore::Csr(g) => g.has_edge(u, v),
            GraphStore::Mapped(g) => GraphView::has_edge(g, u, v),
        }
    }

    fn degree_offsets(&self) -> Vec<usize> {
        match self {
            // bestk-analyze: allow(no-raw-graph) — CSR fast path for the trait's own accessor
            GraphStore::Csr(g) => g.offsets().to_vec(),
            GraphStore::Mapped(g) => GraphView::degree_offsets(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators;

    fn observations<G: GraphView>(g: &G) -> (usize, usize, Vec<Vec<VertexId>>) {
        (
            g.num_vertices(),
            g.num_edges(),
            g.vertices().map(|v| g.neighbors(v).collect()).collect(),
        )
    }

    #[test]
    fn backends_observe_identically() {
        let g = generators::paper_figure2();
        let base = observations(&g);
        let csr = GraphStore::from(g.clone());
        let bytes = bestk_graph::bytecsr::encode_view(&g);
        let map = Arc::new(Mmap::from_vec(bytes));
        let (len, sum) = (map.len(), crate::snapshot::fnv1a(map.as_slice()));
        let slice = SnapshotSlice::new(map, 0, len, sum).unwrap();
        let mapped = GraphStore::Mapped(ByteCsr::new(slice).unwrap());
        for store in [&csr, &mapped] {
            assert_eq!(observations(store), base, "{store:?}");
            assert_eq!(store.degree_offsets(), g.offsets().to_vec());
        }
        assert_eq!(mapped.resident_heap_bytes(), 0);
        assert!(csr.resident_heap_bytes() > 0);
    }

    #[test]
    fn as_csr_round_trips_every_backend() {
        let g = generators::erdos_renyi_gnm(60, 180, 3);
        let csr = GraphStore::from(g.clone());
        let bytes = bestk_graph::bytecsr::encode_view(&g);
        let map = Arc::new(Mmap::from_vec(bytes));
        let (len, sum) = (map.len(), crate::snapshot::fnv1a(map.as_slice()));
        let mapped = GraphStore::Mapped(
            ByteCsr::new(SnapshotSlice::new(map, 0, len, sum).unwrap()).unwrap(),
        );
        for store in [&csr, &mapped] {
            assert_eq!(*store.as_csr().unwrap(), g, "{store:?}");
        }
    }

    #[test]
    fn snapshot_slice_rejects_out_of_range() {
        let map = Arc::new(Mmap::from_vec(vec![0u8; 10]));
        assert!(SnapshotSlice::new(Arc::clone(&map), 4, 6, 0).is_some());
        assert!(SnapshotSlice::new(Arc::clone(&map), 4, 7, 0).is_none());
        assert!(SnapshotSlice::new(map, usize::MAX, 2, 0).is_none());
    }
}
