//! Core decomposition (paper §II-A) under a canonical frontier peel.
//!
//! Peeling repeatedly removes every vertex of minimum current degree; the
//! level `k` being peeled when a vertex is removed is its *coreness*. The
//! peel follows one **canonical peel order**, so its output — coreness,
//! rank order, shell boundaries, *and the peel order itself* — is
//! bit-identical at every thread count:
//!
//! * a level `k` opens with every live vertex of current degree `k`,
//!   ascending by id (the *opening frontier*);
//! * the whole frontier is removed **simultaneously**, then each removed
//!   vertex's live neighbors are decremented in frontier-scan order; the
//!   vertices that cross the level (current degree ≤ `k`) form the next
//!   *cascade frontier*, ordered by first crossing;
//! * when the cascade dries up, the next level opens at the new minimum.
//!
//! There is one peel, [`core_decomposition`], and it runs on the calling
//! thread. A lazy bucket queue finds level openings in `O(n + m)` total,
//! and sorting the opening frontiers by id costs `O(n log n)` in the worst
//! case (each vertex is sorted once): `O(n log n + m)` time, `O(n + m)`
//! space. [`core_decomposition_with`] is the same call under the signature
//! the end-to-end benchmark names. Alg. 1, the Alg. 2/3 sweep, the core
//! forest, the delta index and the snapshot serializer read only coreness
//! and the `(coreness, id)` rank order; the peel order's readers are the
//! maximum-clique and coloring applications in `bestk-apps` and
//! [`crate::verify`]. See `tests/peel_equivalence.rs` for the differential
//! layer and DESIGN.md §17 for the contract.

use bestk_exec::ExecPolicy;
use bestk_graph::cast;
use bestk_graph::{GraphView, VertexId};

/// The result of a core decomposition: every vertex's coreness plus the
/// vertex ordering the paper's algorithms build on.
///
/// Vertices are stored bin-sorted by coreness (ascending, ties by id), so the
/// vertex set of any k-core set `C_k` is a contiguous *suffix* of
/// [`vertices_by_coreness`](Self::vertices_by_coreness) — retrieving it is
/// `O(|V(C_k)|)`, exactly the baseline's §III-A retrieval step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    coreness: Vec<u32>,
    kmax: u32,
    /// Vertices sorted by (coreness, id) ascending.
    order: Vec<VertexId>,
    /// Vertices in the canonical peel order (a degeneracy ordering).
    peel_order: Vec<VertexId>,
    /// `shell_start[k]..shell_start[k + 1]` indexes the k-shell `H_k` inside
    /// `order`. Length `kmax + 2`.
    shell_start: Vec<usize>,
}

impl CoreDecomposition {
    /// Coreness `c(v)` (paper Def. 3).
    #[inline]
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.coreness[v as usize]
    }

    /// The full coreness array, indexed by vertex id.
    #[inline]
    pub fn coreness_slice(&self) -> &[u32] {
        &self.coreness
    }

    /// The degeneracy `kmax`: largest `k` with a non-empty k-core.
    #[inline]
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// All vertices sorted by `(coreness, id)` ascending — the paper's vertex
    /// rank order (Def. 5).
    #[inline]
    pub fn vertices_by_coreness(&self) -> &[VertexId] {
        &self.order
    }

    /// The k-shell `H_k = {v | c(v) = k}` as a sorted-by-id slice.
    #[inline]
    pub fn shell(&self, k: u32) -> &[VertexId] {
        if k > self.kmax {
            return &[];
        }
        let k = k as usize;
        &self.order[self.shell_start[k]..self.shell_start[k + 1]]
    }

    /// The vertex set of the k-core set `C_k` (all vertices with coreness
    /// ≥ k), as the suffix of the rank order; `O(1)` to obtain.
    #[inline]
    pub fn core_set_vertices(&self, k: u32) -> &[VertexId] {
        if k > self.kmax {
            return &[];
        }
        &self.order[self.shell_start[k as usize]..]
    }

    /// Number of vertices in the k-core set.
    #[inline]
    pub fn core_set_size(&self, k: u32) -> usize {
        self.core_set_vertices(k).len()
    }

    /// Number of vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coreness.len()
    }

    /// The peeling order — a true *degeneracy ordering*: when vertex `v` is
    /// peeled, at most `c(v) ≤ kmax` of its neighbors are still unpeeled
    /// (i.e. appear later in this order). Useful for branch-and-bound
    /// algorithms such as maximum clique (paper §V-D).
    ///
    /// The order is *canonical* — defined by the graph alone, not by the
    /// thread count or the dispatch schedule — so every run reproduces it
    /// bit-identically.
    #[inline]
    pub fn peel_ordering(&self) -> &[VertexId] {
        &self.peel_order
    }

    /// The shell boundary array: `shell_starts()[k]..shell_starts()[k + 1]`
    /// indexes the k-shell inside
    /// [`vertices_by_coreness`](Self::vertices_by_coreness). Length
    /// `kmax + 2`. Exposed for the delta index's shell bookkeeping.
    #[inline]
    pub fn shell_starts(&self) -> &[usize] {
        &self.shell_start
    }
}

/// Histogram bounds for `core.frontier_size` (sub-round frontier sizes).
const FRONTIER_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];

/// Per-sub-round observability: every run records the same canonical
/// round structure, so `phase.peel.rounds` and `core.frontier_size` are
/// thread-count-invariant (golden-covered in `tests/obs_golden.rs`).
struct PeelObs {
    rounds: bestk_obs::Counter,
    frontier_size: bestk_obs::Histogram,
}

impl PeelObs {
    fn new() -> PeelObs {
        let registry = bestk_obs::registry();
        PeelObs {
            rounds: registry.counter("phase.peel.rounds"),
            frontier_size: registry.histogram("core.frontier_size", FRONTIER_BOUNDS),
        }
    }

    #[inline]
    fn round(&self, frontier_len: usize) {
        self.rounds.inc();
        self.frontier_size.observe(frontier_len as u64);
    }
}

/// The `n == 0` decomposition the peel short-circuits to.
fn empty_decomposition() -> CoreDecomposition {
    CoreDecomposition {
        coreness: Vec::new(),
        kmax: 0,
        order: Vec::new(),
        peel_order: Vec::new(),
        shell_start: vec![0, 0],
    }
}

/// Bin-sorts `coreness` into the (coreness, id) rank order with shell
/// boundaries (stable in id because vertices are scanned ascending) — the
/// §III-A ordering — and assembles the final decomposition.
fn assemble(coreness: Vec<u32>, kmax: u32, peel_order: Vec<VertexId>) -> CoreDecomposition {
    let n = coreness.len();
    let mut shell_start = vec![0usize; kmax as usize + 2];
    for &c in &coreness {
        shell_start[c as usize + 1] += 1;
    }
    for k in 0..=kmax as usize {
        shell_start[k + 1] += shell_start[k];
    }
    let mut order: Vec<VertexId> = vec![0; n];
    let mut cursor = shell_start.clone();
    for (v, &c) in coreness.iter().enumerate() {
        let c = c as usize;
        order[cursor[c]] = cast::vertex_id(v);
        cursor[c] += 1;
    }
    CoreDecomposition {
        coreness,
        kmax,
        order,
        peel_order,
        shell_start,
    }
}

/// Core decomposition of `g`: the canonical bucket-frontier peel.
/// `O(n log n + m)` time, `O(n + m)` extra space.
///
/// Level openings come from a *lazy bucket queue* — every vertex always has
/// an entry filed under its current degree (stale higher entries are
/// skipped on drain), so advancing the level pointer is `O(n + m)` over the
/// whole run. Opening frontiers are sorted ascending by id to match the
/// canonical order, `O(n log n)` in the worst case since each vertex is
/// sorted once; cascade frontiers need no sort because each removed
/// vertex's live neighbors are decremented in frontier-scan order.
pub fn core_decomposition<G: GraphView>(g: &G) -> CoreDecomposition {
    let _span = bestk_obs::span!("phase.peel");
    let n = g.num_vertices();
    if n == 0 {
        return empty_decomposition();
    }
    let obs = PeelObs::new();
    let mut cur: Vec<usize> = (0..n).map(|v| g.degree(cast::vertex_id(v))).collect();
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); g.max_degree() + 1];
    for v in 0..n {
        buckets[cur[v]].push(cast::vertex_id(v));
    }
    // `queued`: scheduled for peeling (frontier membership is permanent);
    // `peeled`: actually removed from the graph — the two differ only for
    // vertices sitting in the not-yet-processed cascade frontier.
    let mut queued = vec![false; n];
    let mut peeled = vec![false; n];
    let mut coreness = vec![0u32; n];
    let mut peel_order: Vec<VertexId> = Vec::with_capacity(n);
    let mut kmax = 0u32;
    let mut remaining = n;
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut next: Vec<VertexId> = Vec::new();
    let mut k = 0usize;
    while remaining > 0 {
        // Advance the level pointer over the lazy bucket queue. An entry
        // is live iff its vertex still has exactly this degree and was
        // never scheduled; every live vertex has a live entry, so the
        // first non-empty drain is exactly the canonical opening frontier.
        frontier.clear();
        while frontier.is_empty() {
            let bucket = std::mem::take(&mut buckets[k]);
            for v in bucket {
                let vu = v as usize;
                if !queued[vu] && cur[vu] == k {
                    frontier.push(v);
                }
            }
            if frontier.is_empty() {
                k += 1;
            }
        }
        frontier.sort_unstable(); // canonical: openings ascend by id
        for &v in &frontier {
            queued[v as usize] = true;
        }
        let level = cast::u32_of(k);
        kmax = level; // levels open in strictly increasing order
        while !frontier.is_empty() {
            obs.round(frontier.len());
            remaining -= frontier.len();
            // Simultaneous removal: the whole frontier leaves the graph
            // before any decrement is applied, so edges internal to the
            // frontier never decrement anybody.
            for &v in &frontier {
                peeled[v as usize] = true;
                coreness[v as usize] = level;
                peel_order.push(v);
            }
            // A decrement that crosses the level queues `u` for the next
            // cascade frontier exactly once; one that stays above it
            // re-files `u` in the lazy bucket queue.
            next.clear();
            for &v in &frontier {
                for u in g.neighbors(v) {
                    let uu = u as usize;
                    if peeled[uu] {
                        continue;
                    }
                    cur[uu] -= 1;
                    if queued[uu] {
                        continue;
                    }
                    if cur[uu] <= k {
                        queued[uu] = true;
                        next.push(u);
                    } else {
                        buckets[cur[uu]].push(u);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    assemble(coreness, kmax, peel_order)
}

/// [`core_decomposition`] under the signature the end-to-end benchmark
/// calls by name. The peel runs on the calling thread whatever `policy`
/// says: the decrement fan-out it once had ran slower at two workers than
/// at one (DESIGN.md §17).
pub fn core_decomposition_with<G: GraphView>(g: &G, _policy: &ExecPolicy) -> CoreDecomposition {
    core_decomposition(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators::{self, regular};
    use bestk_graph::GraphBuilder;

    #[test]
    fn paper_figure2_coreness() {
        // Example 2: v5, v6, v7, v8 have coreness 2; the rest coreness 3.
        let g = generators::paper_figure2();
        let d = core_decomposition(&g);
        assert_eq!(d.kmax(), 3);
        for v in [4u32, 5, 6, 7] {
            assert_eq!(d.coreness(v), 2, "v{}", v + 1);
        }
        for v in [0u32, 1, 2, 3, 8, 9, 10, 11] {
            assert_eq!(d.coreness(v), 3, "v{}", v + 1);
        }
    }

    #[test]
    fn paper_figure2_shells_and_core_sets() {
        let g = generators::paper_figure2();
        let d = core_decomposition(&g);
        assert_eq!(d.shell(2), &[4, 5, 6, 7]);
        assert_eq!(d.shell(3), &[0, 1, 2, 3, 8, 9, 10, 11]);
        assert!(d.shell(0).is_empty());
        assert!(d.shell(1).is_empty());
        assert!(d.shell(4).is_empty());
        assert_eq!(d.core_set_size(3), 8);
        assert_eq!(d.core_set_size(2), 12);
        assert_eq!(d.core_set_size(0), 12);
        assert!(d.core_set_vertices(4).is_empty());
        assert!(d.core_set_vertices(99).is_empty());
    }

    #[test]
    fn complete_graph_coreness() {
        let g = regular::complete(7);
        let d = core_decomposition(&g);
        assert_eq!(d.kmax(), 6);
        assert!(g.vertices().all(|v| d.coreness(v) == 6));
    }

    #[test]
    fn cycle_and_path_and_star() {
        let d = core_decomposition(&regular::cycle(10));
        assert_eq!(d.kmax(), 2);
        assert!((0..10).all(|v| d.coreness(v) == 2));

        let d = core_decomposition(&regular::path(10));
        assert_eq!(d.kmax(), 1);

        let d = core_decomposition(&regular::star(9));
        assert_eq!(d.kmax(), 1);
        assert!((0..10).all(|v| d.coreness(v) == 1));
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.reserve_vertices(4);
        let d = core_decomposition(&b.build());
        assert_eq!(d.coreness(0), 1);
        assert_eq!(d.coreness(2), 0);
        assert_eq!(d.coreness(3), 0);
        assert_eq!(d.shell(0), &[2, 3]);
        assert_eq!(d.kmax(), 1);
    }

    #[test]
    fn empty_graph() {
        let d = core_decomposition(&bestk_graph::CsrGraph::empty(0));
        assert_eq!(d.kmax(), 0);
        assert_eq!(d.num_vertices(), 0);
        assert!(d.core_set_vertices(0).is_empty());
    }

    #[test]
    fn clique_chain_coreness() {
        let g = regular::clique_chain(3, 5);
        let d = core_decomposition(&g);
        assert_eq!(d.kmax(), 4);
        assert!(g.vertices().all(|v| d.coreness(v) == 4));
    }

    #[test]
    fn order_is_sorted_by_coreness_then_id() {
        let g = generators::erdos_renyi_gnm(300, 1200, 3);
        let d = core_decomposition(&g);
        let order = d.vertices_by_coreness();
        assert_eq!(order.len(), 300);
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let key = |v: u32| (d.coreness(v), v);
            assert!(
                key(a) < key(b),
                "order not strictly sorted by (coreness, id)"
            );
        }
    }

    #[test]
    fn canonical_peel_order_on_fixed_shapes() {
        // A cycle is one simultaneous level-2 frontier: ascending by id.
        let d = core_decomposition(&regular::cycle(6));
        assert_eq!(d.peel_ordering(), &[0, 1, 2, 3, 4, 5]);

        // A star peels all leaves in one level-1 opening, then the hub
        // cascades (its degree collapses past the level).
        let d = core_decomposition(&regular::star(4));
        assert_eq!(d.peel_ordering(), &[1, 2, 3, 4, 0]);

        // A path peels both endpoints, then cascades inward pairwise from
        // the ends, in decrement (= frontier-scan) order.
        let d = core_decomposition(&regular::path(6));
        assert_eq!(d.peel_ordering(), &[0, 5, 1, 4, 2, 3]);
    }

    /// Definitional check: c(v) ≥ k iff v survives peeling to min degree k.
    fn naive_coreness(g: &bestk_graph::CsrGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut coreness = vec![0u32; n];
        let mut alive = vec![true; n];
        for k in 1..=n as u32 {
            // Peel vertices with degree < k among alive ones.
            loop {
                let mut removed = false;
                for v in 0..n {
                    if alive[v] {
                        let deg = g
                            .neighbors(v as VertexId)
                            .iter()
                            .filter(|&&u| alive[u as usize])
                            .count();
                        if (deg as u32) < k {
                            alive[v] = false;
                            removed = true;
                        }
                    }
                }
                if !removed {
                    break;
                }
            }
            for v in 0..n {
                if alive[v] {
                    coreness[v] = k;
                }
            }
            if alive.iter().all(|&a| !a) {
                break;
            }
        }
        coreness
    }

    #[test]
    fn matches_naive_peeling_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_gnm(60, 150, seed);
            let d = core_decomposition(&g);
            assert_eq!(d.coreness_slice(), &naive_coreness(&g)[..], "seed {seed}");
        }
    }

    #[test]
    fn peel_ordering_is_a_degeneracy_ordering() {
        for (name, g) in [
            ("cl", generators::chung_lu_power_law(400, 8.0, 2.4, 10)),
            ("er", generators::erdos_renyi_gnm(300, 1500, 4)),
        ] {
            let d = core_decomposition(&g);
            let peel = d.peel_ordering();
            assert_eq!(peel.len(), g.num_vertices());
            let mut position = vec![0usize; g.num_vertices()];
            for (i, &v) in peel.iter().enumerate() {
                position[v as usize] = i;
            }
            for v in g.vertices() {
                let later = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| position[u as usize] > position[v as usize])
                    .count();
                assert!(
                    later <= d.kmax() as usize,
                    "{name}: vertex {v} has {later} later neighbors > kmax {}",
                    d.kmax()
                );
            }
        }
    }

    #[test]
    fn later_rank_neighbors_have_geq_coreness() {
        // In the (coreness, id) rank order, every neighbor appearing later
        // than v has coreness >= c(v) — the property Algorithm 3's triangle
        // attribution relies on.
        let g = generators::chung_lu_power_law(500, 8.0, 2.4, 10);
        let d = core_decomposition(&g);
        let mut position = vec![0usize; g.num_vertices()];
        for (i, &v) in d.vertices_by_coreness().iter().enumerate() {
            position[v as usize] = i;
        }
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if position[u as usize] > position[v as usize] {
                    assert!(d.coreness(u) >= d.coreness(v));
                }
            }
        }
    }
}
