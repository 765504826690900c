//! [`DeltaIndex`]: the paper's best-k index, maintained per edge op.
//!
//! A from-scratch pipeline run (peel → Alg. 1 order/tags → Alg. 2 sweep)
//! costs `O(m)` per query graph. This module keeps every piece of that
//! state — coreness, the `(coreness, id)` shell order, the per-vertex
//! `(same, plus, high)` position tags, and the per-`k` primary values —
//! valid across single-edge inserts and deletes without a rebuild:
//!
//! 1. **Coreness** (Montresor et al., `PAPERS.md`): an edge touching
//!    levels `r = min(c(u), c(v))` changes coreness only for vertices of
//!    coreness exactly `r`, each by at most 1, and only inside the
//!    *subcore* — the `c == r` connected region around the endpoints. The
//!    candidate search walks that whole region, however few vertices
//!    move, so an op costs the subcore's volume, not the changed set's; a
//!    local peel (`cd(w) = |{x ∈ N(w): c(x) ≥ r}|`, cascading) decides who
//!    moves.
//! 2. **Order and tags**: the changed set `C` moves between two *adjacent*
//!    shells, so the `(coreness, id)` order is repaired with one span
//!    rewrite between two shell boundaries. Adjacency lists (kept in rank
//!    order, exactly the Alg. 1 scatter layout) and `(s, p, h)` tags are
//!    recomputed only for `{u, v} ∪ C ∪ N(C)`.
//! 3. **Primaries** (Alg. 2): the top-down sweep aggregates are seeded
//!    from the first clean level above `hi = max` of the endpoints' old
//!    and new coreness and re-run over `k = hi..0` only — the dirty range.
//!
//! Every structure is bit-identical to a from-scratch rebuild after every
//! op (`DeltaIndex` is `PartialEq` and the equivalence suite compares
//! whole values); the full pipeline stays in the tree as the oracle.
//!
//! The engine does not use this index: a commit folds its staged ops with
//! [`DeltaOverlay::materialize`](crate::DeltaOverlay::materialize) and
//! builds the mutated graph's artifacts once. The index stays a library,
//! driven by the `delta` bench, the equivalence suite and perfbench's
//! traced side index.

use bestk_core::bestkset::core_set_primaries;
use bestk_core::{
    core_decomposition, core_decomposition_with, BestKSet, CoreSetProfile, GraphContext, Metric,
    MetricError, OrderedGraph, PrimaryValues,
};
use bestk_exec::ExecPolicy;
use bestk_graph::generators::EdgeOp;
use bestk_graph::{cast, CsrGraph, GraphView, VertexId};

use crate::DeltaError;

/// What one applied op touched (observability + test assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyStats {
    /// `|C|`: vertices whose coreness changed (by exactly 1).
    pub changed_vertices: usize,
    /// Number of `k`-levels the dirty-range sweep recomputed.
    pub recomputed_levels: u32,
}

/// The incrementally maintained best-k index. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaIndex {
    n: usize,
    m: usize,
    /// Per-vertex adjacency in ascending `(coreness, id)` order — the
    /// Alg. 1 scatter layout, kept sorted across mutations.
    adj: Vec<Vec<VertexId>>,
    coreness: Vec<u32>,
    kmax: u32,
    /// All vertices in ascending `(coreness, id)` order.
    order: Vec<VertexId>,
    /// `order` positions of shell `k`: `shell_start[k]..shell_start[k+1]`,
    /// length `kmax + 2`.
    shell_start: Vec<usize>,
    /// Alg. 1 position tags, relative to each vertex's list start, with
    /// the vertex degree as the "no qualifying neighbor" sentinel.
    same: Vec<u32>,
    plus: Vec<u32>,
    high: Vec<u32>,
    /// Alg. 2 primary values per `k`, length `kmax + 1`.
    primaries: Vec<PrimaryValues>,
}

impl DeltaIndex {
    /// Builds the index from scratch through the paper's pipeline (this is
    /// also the equivalence oracle: applying ops must reproduce `build` of
    /// the mutated graph exactly).
    pub fn build<G: GraphView + Sync>(g: &G) -> DeltaIndex {
        let decomp = core_decomposition(g);
        Self::assemble_from(g, decomp)
    }

    /// [`build`](Self::build) under an execution policy: the peel fans out
    /// over the policy's workers (bit-identical output at every thread
    /// count). perfbench seeds its traced side index through it.
    pub fn build_with<G: GraphView + Sync>(g: &G, policy: &ExecPolicy) -> DeltaIndex {
        let decomp = core_decomposition_with(g, policy);
        Self::assemble_from(g, decomp)
    }

    fn assemble_from<G: GraphView>(g: &G, decomp: bestk_core::CoreDecomposition) -> DeltaIndex {
        let ordered = OrderedGraph::build(g, &decomp);
        let primaries = core_set_primaries(&ordered);
        let n = g.num_vertices();
        let offsets = g.degree_offsets();
        let raw = ordered.raw_adjacency();
        let adj: Vec<Vec<VertexId>> = (0..n)
            .map(|v| raw[offsets[v]..offsets[v + 1]].to_vec())
            .collect();
        let (same, plus, high) = ordered.raw_tags();
        DeltaIndex {
            n,
            m: g.num_edges(),
            adj,
            coreness: decomp.coreness_slice().to_vec(),
            kmax: decomp.kmax(),
            order: decomp.vertices_by_coreness().to_vec(),
            shell_start: decomp.shell_starts().to_vec(),
            same: same.to_vec(),
            plus: plus.to_vec(),
            high: high.to_vec(),
            primaries,
        }
    }

    /// Largest coreness.
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// Coreness of `v`.
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.coreness[v as usize]
    }

    /// The vertices of shell `k` (coreness exactly `k`), sorted by id.
    pub fn shell(&self, k: u32) -> &[VertexId] {
        let k = k as usize;
        if k + 1 >= self.shell_start.len() {
            return &[];
        }
        &self.order[self.shell_start[k]..self.shell_start[k + 1]]
    }

    /// Applies one op, returning what it touched.
    pub fn apply(&mut self, op: &EdgeOp) -> Result<ApplyStats, DeltaError> {
        let (u, v) = op.endpoints();
        if op.is_insert() {
            self.apply_insert(u, v)
        } else {
            self.apply_delete(u, v)
        }
    }

    /// Inserts the edge `{u, v}` and repairs every index layer.
    pub fn apply_insert(&mut self, u: VertexId, v: VertexId) -> Result<ApplyStats, DeltaError> {
        let _span = bestk_obs::span!("phase.delta.apply");
        self.validate(&EdgeOp::Insert(u, v))?;
        let (old_cu, old_cv) = (self.coreness[u as usize], self.coreness[v as usize]);
        let r = old_cu.min(old_cv);
        self.adj_insert(u, v);
        self.adj_insert(v, u);
        self.m += 1;
        let sub = self.collect_subcore(u, v, r);
        let changed = self.settle(&sub, r, true);
        for &w in &changed {
            self.coreness[w as usize] = r + 1;
        }
        self.move_between_adjacent_shells(&changed, r, r + 1);
        self.repair_tags_around(u, v, &changed);
        let hi = old_cu
            .max(old_cv)
            .max(self.coreness[u as usize])
            .max(self.coreness[v as usize]);
        let levels = self.sweep_dirty(hi);
        bestk_obs::counter("delta.inserts").inc();
        bestk_obs::counter("delta.recomputed_levels").add(u64::from(levels));
        Ok(ApplyStats {
            changed_vertices: changed.len(),
            recomputed_levels: levels,
        })
    }

    /// Deletes the edge `{u, v}` and repairs every index layer.
    pub fn apply_delete(&mut self, u: VertexId, v: VertexId) -> Result<ApplyStats, DeltaError> {
        let _span = bestk_obs::span!("phase.delta.apply");
        self.validate(&EdgeOp::Delete(u, v))?;
        let (old_cu, old_cv) = (self.coreness[u as usize], self.coreness[v as usize]);
        // Both endpoints carry an edge, so both have coreness >= 1.
        let r = old_cu.min(old_cv);
        self.adj_remove(u, v);
        self.adj_remove(v, u);
        self.m -= 1;
        let sub = self.collect_subcore(u, v, r);
        let changed = self.settle(&sub, r, false);
        for &w in &changed {
            self.coreness[w as usize] = r - 1;
        }
        self.move_between_adjacent_shells(&changed, r, r - 1);
        self.repair_tags_around(u, v, &changed);
        let hi = old_cu.max(old_cv);
        let levels = self.sweep_dirty(hi);
        bestk_obs::counter("delta.deletes").inc();
        bestk_obs::counter("delta.recomputed_levels").add(u64::from(levels));
        Ok(ApplyStats {
            changed_vertices: changed.len(),
            recomputed_levels: levels,
        })
    }

    /// The maintained Alg. 2 profile (no triangle metrics: those fall back
    /// to the full pipeline — see DESIGN.md §15).
    pub fn profile(&self) -> CoreSetProfile {
        CoreSetProfile {
            kmax: self.kmax,
            primaries: self.primaries.clone(),
            has_triangles: false,
            context: GraphContext {
                total_vertices: self.n as u64,
                total_edges: self.m as u64,
            },
        }
    }

    /// The best `k` under `metric` from the maintained profile.
    pub fn best(&self, metric: Metric) -> Result<Option<BestKSet>, MetricError> {
        self.profile().try_best(&metric)
    }

    /// Materializes the maintained graph as a canonical [`CsrGraph`]. The
    /// rank-ordered lists are symmetric and duplicate-free, so one
    /// transpose pass sorts them by id.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_symmetric_lists(&self.adj)
    }

    fn validate(&self, op: &EdgeOp) -> Result<(), DeltaError> {
        crate::validate_op(op, self.n, |u, v| self.adj[u as usize].contains(&v))
    }

    /// Inserts `x` into `u`'s rank-ordered list at its `(coreness, id)`
    /// position.
    fn adj_insert(&mut self, u: VertexId, x: VertexId) {
        let DeltaIndex { adj, coreness, .. } = self;
        let key = (coreness[x as usize], x);
        let list = &mut adj[u as usize];
        let i = list.partition_point(|&y| (coreness[y as usize], y) < key);
        list.insert(i, x);
    }

    fn adj_remove(&mut self, u: VertexId, x: VertexId) {
        let list = &mut self.adj[u as usize];
        if let Some(i) = list.iter().position(|&y| y == x) {
            list.remove(i);
        }
    }

    /// The subcore around the mutated edge: every vertex of coreness
    /// exactly `r` reachable from an endpoint through coreness-`r`
    /// vertices. Only these candidates can change (by exactly 1).
    fn collect_subcore(&self, u: VertexId, v: VertexId, r: u32) -> Vec<VertexId> {
        let mut visited = vec![false; self.n];
        let mut stack: Vec<VertexId> = Vec::new();
        for w in [u, v] {
            if self.coreness[w as usize] == r && !visited[w as usize] {
                visited[w as usize] = true;
                stack.push(w);
            }
        }
        let mut out = Vec::new();
        while let Some(w) = stack.pop() {
            out.push(w);
            for &x in &self.adj[w as usize] {
                if self.coreness[x as usize] == r && !visited[x as usize] {
                    visited[x as usize] = true;
                    stack.push(x);
                }
            }
        }
        out
    }

    /// The local peel over the subcore: `cd(w)` counts neighbors of
    /// coreness `>= r` (every coreness-`r` neighbor of a subcore member is
    /// itself in the subcore, so the count is exact), then vertices below
    /// the threshold fall and cascade. Returns the changed set `C`, sorted
    /// by id: the survivors for an insert (they gain a level), the fallen
    /// for a delete (they lose one).
    fn settle(&self, sub: &[VertexId], r: u32, insert: bool) -> Vec<VertexId> {
        let mut pos = vec![usize::MAX; self.n];
        for (i, &w) in sub.iter().enumerate() {
            pos[w as usize] = i;
        }
        let mut cd: Vec<u32> = sub
            .iter()
            .map(|&w| {
                cast::u32_of(
                    self.adj[w as usize]
                        .iter()
                        .filter(|&&x| self.coreness[x as usize] >= r)
                        .count(),
                )
            })
            .collect();
        // Insert: survivors need cd > r to reach coreness r + 1.
        // Delete: survivors need cd >= r to keep coreness r.
        let falls = |cd: u32| if insert { cd <= r } else { cd < r };
        let mut fallen = vec![false; sub.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, &c) in cd.iter().enumerate() {
            if falls(c) {
                fallen[i] = true;
                queue.push(i);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let w = sub[queue[qi]];
            qi += 1;
            for &x in &self.adj[w as usize] {
                let j = pos[x as usize];
                if j != usize::MAX && !fallen[j] {
                    cd[j] -= 1;
                    if falls(cd[j]) {
                        fallen[j] = true;
                        queue.push(j);
                    }
                }
            }
        }
        let mut changed: Vec<VertexId> = sub
            .iter()
            .zip(&fallen)
            .filter(|&(_, &fell)| fell != insert)
            .map(|(&w, _)| w)
            .collect();
        changed.sort_unstable();
        changed
    }

    /// Moves the changed set `C` (sorted by id, all previously in shell
    /// `from`) into the adjacent shell `to`, rewriting only the
    /// `order` span covering the two shells and growing/shrinking `kmax`
    /// when the top shell appears or empties.
    fn move_between_adjacent_shells(&mut self, c: &[VertexId], from: u32, to: u32) {
        if c.is_empty() {
            return;
        }
        if to > self.kmax {
            self.kmax = to;
            self.shell_start.push(self.n);
            self.primaries.push(PrimaryValues::default());
        }
        let lo_shell = from.min(to) as usize;
        let hi_shell = from.max(to) as usize;
        let lo = self.shell_start[lo_shell];
        let hi = self.shell_start[hi_shell + 1];
        let split = self.shell_start[hi_shell];
        let (lower_new, upper_new) = if to as usize == hi_shell {
            (
                without(&self.order[lo..split], c),
                merged(&self.order[split..hi], c),
            )
        } else {
            (
                merged(&self.order[lo..split], c),
                without(&self.order[split..hi], c),
            )
        };
        let new_split = lo + lower_new.len();
        self.order[lo..new_split].copy_from_slice(&lower_new);
        self.order[new_split..hi].copy_from_slice(&upper_new);
        self.shell_start[hi_shell] = new_split;
        if to < from
            && from == self.kmax
            && self.shell_start[self.kmax as usize] == self.shell_start[self.kmax as usize + 1]
        {
            self.kmax -= 1;
            self.shell_start.pop();
            self.primaries.pop();
        }
    }

    /// Re-sorts the adjacency lists and recounts the `(s, p, h)` tags of
    /// every vertex whose list content or neighbor keys changed:
    /// `{u, v} ∪ C ∪ N(C)`. The relative `(coreness, id)` order of all
    /// other vertices is untouched, so their lists and tags stay valid.
    fn repair_tags_around(&mut self, u: VertexId, v: VertexId, c: &[VertexId]) {
        let mut affected: Vec<VertexId> = vec![u, v];
        for &w in c {
            affected.push(w);
            affected.extend_from_slice(&self.adj[w as usize]);
        }
        affected.sort_unstable();
        affected.dedup();
        let DeltaIndex {
            adj,
            coreness,
            same,
            plus,
            high,
            ..
        } = self;
        for &w in &affected {
            let list = &mut adj[w as usize];
            list.sort_unstable_by_key(|&x| (coreness[x as usize], x));
            let cw = coreness[w as usize];
            let deg = cast::u32_of(list.len());
            let (mut s, mut p, mut h) = (deg, deg, deg);
            for (i, &x) in list.iter().enumerate() {
                let cx = coreness[x as usize];
                if s == deg && cx >= cw {
                    s = cast::u32_of(i);
                }
                if p == deg && cx > cw {
                    p = cast::u32_of(i);
                }
                if h == deg && (cx > cw || (cx == cw && x > w)) {
                    h = cast::u32_of(i);
                }
            }
            same[w as usize] = s;
            plus[w as usize] = p;
            high[w as usize] = h;
        }
    }

    /// Re-runs the Alg. 2 top-down sweep over the dirty levels
    /// `min(hi, kmax)..0` only, seeding the running aggregates from the
    /// first clean level above. Returns the number of levels recomputed.
    fn sweep_dirty(&mut self, hi: u32) -> u32 {
        let _span = bestk_obs::span!("phase.delta.sweep");
        let start = hi.min(self.kmax);
        let (mut num, mut in_twice, mut out): (u64, u64, i64) =
            if (start as usize) < self.kmax as usize {
                let seed = &self.primaries[start as usize + 1];
                (
                    seed.num_vertices,
                    2 * seed.internal_edges,
                    seed.boundary_edges as i64,
                )
            } else {
                (0, 0, 0)
            };
        for k in (0..=start).rev() {
            let lo = self.shell_start[k as usize];
            let hi2 = self.shell_start[k as usize + 1];
            for &w in &self.order[lo..hi2] {
                let deg = self.adj[w as usize].len() as u64;
                let s = u64::from(self.same[w as usize]);
                let p = u64::from(self.plus[w as usize]);
                let (gt, eq, lt) = (deg - p, p - s, s);
                in_twice += 2 * gt + eq;
                out += lt as i64 - gt as i64;
                num += 1;
            }
            self.primaries[k as usize] = PrimaryValues {
                num_vertices: num,
                internal_edges: in_twice / 2,
                boundary_edges: out as u64,
                triangles: 0,
                triplets: 0,
            };
        }
        start + 1
    }
}

/// `base` minus the members of `drop` (both id-sorted).
fn without(base: &[VertexId], drop: &[VertexId]) -> Vec<VertexId> {
    base.iter()
        .copied()
        .filter(|x| drop.binary_search(x).is_err())
        .collect()
}

/// Two id-sorted disjoint slices merged into one id-sorted vec.
fn merged(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::{generators, GraphBuilder};

    /// Applies each op, asserting full structural equality against a
    /// from-scratch rebuild of the mutated graph after every step.
    fn drive(g: &CsrGraph, ops: &[EdgeOp]) {
        let mut index = DeltaIndex::build(g);
        let mut edges: std::collections::BTreeSet<(VertexId, VertexId)> = g.edges().collect();
        for (step, op) in ops.iter().enumerate() {
            index
                .apply(op)
                .unwrap_or_else(|e| panic!("step {step} {op:?}: {e}"));
            let (u, v) = op.endpoints();
            if op.is_insert() {
                edges.insert((u, v));
            } else {
                edges.remove(&(u, v));
            }
            let mut b = GraphBuilder::with_capacity(edges.len());
            b.reserve_vertices(g.num_vertices());
            for &(a, c) in &edges {
                b.add_edge(a, c);
            }
            let now = b.build();
            let oracle = DeltaIndex::build(&now);
            assert_eq!(index, oracle, "diverged at step {step} ({op:?})");
            assert_eq!(index.to_csr(), now, "graph diverged at step {step}");
        }
    }

    #[test]
    fn figure2_insert_delete_round_trip() {
        let g = generators::paper_figure2();
        drive(
            &g,
            &[
                EdgeOp::Insert(0, 11),
                EdgeOp::Insert(3, 9),
                EdgeOp::Delete(0, 11),
                EdgeOp::Delete(3, 9),
            ],
        );
    }

    #[test]
    fn first_edge_in_an_empty_graph_grows_kmax() {
        let g = CsrGraph::empty(4);
        let mut index = DeltaIndex::build(&g);
        assert_eq!(index.kmax(), 0);
        index.apply_insert(0, 1).unwrap();
        assert_eq!(index.kmax(), 1);
        assert_eq!((index.coreness(0), index.coreness(1)), (1, 1));
        assert_eq!(index.coreness(2), 0);
        index.apply_delete(0, 1).unwrap();
        assert_eq!(index, DeltaIndex::build(&g));
    }

    #[test]
    fn completing_a_triangle_promotes_the_whole_cycle() {
        let g = generators::regular::path(3);
        let mut index = DeltaIndex::build(&g);
        let stats = index.apply_insert(0, 2).unwrap();
        assert_eq!(stats.changed_vertices, 3);
        assert_eq!(index, DeltaIndex::build(&generators::regular::cycle(3)));
    }

    #[test]
    fn mixed_stream_tracks_the_oracle() {
        let g = generators::erdos_renyi_gnm(30, 70, 13);
        let ops = generators::edge_stream_mixed(&g, 120, 17);
        drive(&g, &ops);
    }

    #[test]
    fn delete_heavy_stream_tracks_the_oracle() {
        let g = generators::erdos_renyi_gnm(25, 60, 5);
        let ops = generators::edge_stream_delete_heavy(&g, 150, 23);
        drive(&g, &ops);
    }

    #[test]
    fn max_k_churn_tracks_the_oracle() {
        let g = generators::overlapping_cliques(24, 4, (4, 7), 31);
        let index = DeltaIndex::build(&g);
        let top: Vec<VertexId> = index.shell(index.kmax()).to_vec();
        let ops = generators::edge_stream_focused(&g, &top, 80, 37);
        assert!(!ops.is_empty());
        drive(&g, &ops);
    }

    #[test]
    fn adversarial_k_chain_churn_tracks_the_oracle() {
        // Maximum shell depth per vertex: every op near the top of the
        // chain dirties a deep sweep range.
        let g = generators::k_chain(6);
        let ops = generators::edge_stream_mixed(&g, 60, 41);
        drive(&g, &ops);
    }

    #[test]
    fn adversarial_shell_ladder_churn_tracks_the_oracle() {
        // Wide shells pinned to a deep core: boundary moves have many
        // same-coreness candidates at every level.
        let g = generators::shell_ladder(5, 4);
        let ops = generators::edge_stream_mixed(&g, 80, 43);
        drive(&g, &ops);
    }

    #[test]
    fn adversarial_tie_storm_churn_tracks_the_oracle() {
        // Shuffled identical cliques: one giant run of (coreness, id)
        // ties whose repair order must match the rebuild exactly.
        let g = generators::tie_storm(5, 4, 47);
        let ops = generators::edge_stream_mixed(&g, 80, 53);
        drive(&g, &ops);
    }

    #[test]
    fn invalid_ops_are_typed_errors() {
        let g = generators::paper_figure2();
        let mut index = DeltaIndex::build(&g);
        let pristine = index.clone();
        assert!(index.apply_insert(2, 2).is_err());
        assert!(index.apply_insert(0, 99).is_err());
        assert!(index.apply_delete(0, 11).is_err());
        let (u, v) = g.edges().next().unwrap();
        assert!(index.apply_insert(u, v).is_err());
        assert_eq!(index, pristine);
    }

    #[test]
    fn best_k_matches_the_full_pipeline() {
        let g = generators::erdos_renyi_gnm(40, 120, 7);
        let mut index = DeltaIndex::build(&g);
        for op in generators::edge_stream_mixed(&g, 50, 3) {
            index.apply(&op).unwrap();
        }
        let now = index.to_csr();
        let decomp = core_decomposition(&now);
        let ordered = OrderedGraph::build(&now, &decomp);
        let profile = bestk_core::core_set_profile(&ordered, false);
        for metric in [
            Metric::AverageDegree,
            Metric::InternalDensity,
            Metric::CutRatio,
        ] {
            assert_eq!(
                index.best(metric).unwrap(),
                profile.try_best(&metric).unwrap(),
                "{metric:?}"
            );
        }
    }
}
