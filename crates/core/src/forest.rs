//! The core forest and its LCPS construction (paper §IV-A, Algorithm 4).
//!
//! Every k-core of the graph maps to one tree node holding exactly the
//! core's *k-shell* vertices (`S ∩ H_k`, paper Def. 6); deeper vertices live
//! in descendant nodes. The forest encodes the disjointness/containment
//! hierarchy of all k-cores in `O(n)` space and is built in `O(n + m)` time
//! by a Level Component Priority Search: a best-first traversal that always
//! expands the highest-priority frontier vertex, where the priority of a
//! frontier edge `(w → v)` is `min(c(w), c(v))` — the deepest core level the
//! edge certifies connectivity for.

use bestk_graph::cast;
use std::collections::VecDeque;

use bestk_graph::{GraphView, VertexId};

use crate::decomposition::CoreDecomposition;

/// One node of the core forest: a k-core's shell vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreForestNode {
    /// The `k` of the associated k-core.
    pub coreness: u32,
    /// The vertices of the core with coreness exactly `k` (the node's
    /// "delta"; not necessarily connected among themselves).
    pub vertices: Vec<VertexId>,
    /// Parent node index, `None` for roots.
    pub parent: Option<u32>,
    /// Child node indices (each a deeper core contained in this one).
    pub children: Vec<u32>,
}

/// The compressed core forest, nodes sorted by **descending** coreness so
/// that every child precedes its parent — the processing order Algorithm 5
/// requires.
#[derive(Debug, Clone)]
pub struct CoreForest {
    nodes: Vec<CoreForestNode>,
    /// `vertex_node[v]` = index of the node containing `v`.
    vertex_node: Vec<u32>,
}

impl CoreForest {
    /// Builds the forest with LCPS (Algorithm 4), then compresses empty
    /// nodes and sorts by descending coreness.
    pub fn build<G: GraphView>(g: &G, d: &CoreDecomposition) -> Self {
        Builder::<G, true>::new(g, d).run()
    }

    /// Number of nodes (= number of distinct k-cores over all k that own at
    /// least one shell vertex).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The per-vertex node index array.
    #[inline]
    pub fn vertex_nodes(&self) -> &[u32] {
        &self.vertex_node
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, i: u32) -> &CoreForestNode {
        &self.nodes[i as usize]
    }

    /// All nodes, children before parents.
    #[inline]
    pub fn nodes(&self) -> &[CoreForestNode] {
        &self.nodes
    }

    /// Index of the node whose shell contains `v`.
    #[inline]
    pub fn node_of(&self, v: VertexId) -> u32 {
        self.vertex_node[v as usize]
    }

    /// Root node indices (one per connected component of the graph).
    pub fn roots(&self) -> Vec<u32> {
        (0..cast::u32_of(self.nodes.len()))
            .filter(|&i| self.nodes[i as usize].parent.is_none())
            .collect()
    }

    /// Reconstructs the full vertex set of the k-core associated with node
    /// `i` (the node's shell plus all descendant shells), in
    /// `O(|V(core)|)` — the paper's §IV-B retrieval primitive.
    pub fn core_vertices(&self, i: u32) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![i];
        while let Some(j) = stack.pop() {
            let node = &self.nodes[j as usize];
            out.extend_from_slice(&node.vertices);
            stack.extend_from_slice(&node.children);
        }
        out
    }

    /// The chain of node indices from node `i` up to its root (inclusive).
    pub fn ancestors(&self, i: u32) -> Vec<u32> {
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = self.nodes[cur as usize].parent {
            chain.push(p);
            cur = p;
        }
        chain
    }
}

/// `state[v]` of a visited vertex. `0` marks a vertex never queued, and
/// `p + 1` one queued at priority `p` at the highest.
const VISITED: u32 = u32::MAX;

/// LCPS traversal state (one instance per [`CoreForest::build`]).
///
/// With `DEDUP` the frontier skips queueing a vertex at a priority no
/// higher than one it is already queued at. Bins pop highest first and each
/// bin in FIFO order, so that entry would only be popped after the earlier
/// one had visited the vertex, and then skipped: the visit order, and so
/// the forest, are those of the frontier that queues every unvisited
/// neighbor (`DEDUP = false`, kept as the tests' reference).
struct Builder<'a, G, const DEDUP: bool> {
    g: &'a G,
    d: &'a CoreDecomposition,
    nodes: Vec<CoreForestNode>,
    vertex_node: Vec<u32>,
    /// Per-vertex frontier state; see [`VISITED`].
    state: Vec<u32>,
    /// `bins[p]`: frontier vertices enqueued with priority `p`.
    bins: Vec<VecDeque<VertexId>>,
    pending: usize,
    cur_max: usize,
}

impl<'a, G: GraphView, const DEDUP: bool> Builder<'a, G, DEDUP> {
    fn new(g: &'a G, d: &'a CoreDecomposition) -> Self {
        let n = g.num_vertices();
        Builder {
            g,
            d,
            nodes: Vec::new(),
            vertex_node: vec![u32::MAX; n],
            state: vec![0; n],
            bins: vec![VecDeque::new(); d.kmax() as usize + 1],
            pending: 0,
            cur_max: 0,
        }
    }

    fn new_node(&mut self, coreness: u32, parent: Option<u32>) -> u32 {
        let id = cast::u32_of(self.nodes.len());
        self.nodes.push(CoreForestNode {
            coreness,
            vertices: Vec::new(),
            parent,
            children: Vec::new(),
        });
        id
    }

    /// Queues the unvisited `v` at priority `p`.
    fn push(&mut self, v: VertexId, p: u32) {
        let state = &mut self.state[v as usize];
        if DEDUP && *state > p {
            // Already queued at a priority of at least `p`.
            return;
        }
        *state = p + 1;
        self.bins[p as usize].push_back(v);
        self.pending += 1;
        self.cur_max = self.cur_max.max(p as usize);
    }

    fn pop_max(&mut self) -> (VertexId, usize) {
        loop {
            if let Some(v) = self.bins[self.cur_max].pop_front() {
                self.pending -= 1;
                return (v, self.cur_max);
            }
            self.cur_max -= 1;
        }
    }

    fn run(mut self) -> CoreForest {
        let n = self.g.num_vertices();
        for s in 0..cast::vertex_id(n) {
            if self.state[s as usize] == VISITED {
                continue;
            }
            self.traverse_tree(s);
        }
        self.compress_and_sort()
    }

    /// One LCPS tree: the connected component of `s`.
    fn traverse_tree(&mut self, s: VertexId) {
        // `path` is the current root-to-node chain; levels strictly increase.
        let root = self.new_node(0, None);
        let mut path: Vec<u32> = vec![root];
        self.push(s, 0);
        while self.pending > 0 {
            let (v, r) = self.pop_max();
            if self.state[v as usize] == VISITED {
                continue;
            }
            self.state[v as usize] = VISITED;

            // Adjust the path: the invariant `r <= level(top)` holds because
            // every enqueued priority is bounded by the level current when it
            // was enqueued, and we always pop the maximum.
            let top_level = |nodes: &Vec<CoreForestNode>, path: &Vec<u32>| {
                // bestk-analyze: allow(no-unwrap) — the root never leaves the path
                nodes[*path.last().expect("path never empties") as usize].coreness
            };
            if top_level(&self.nodes, &path) > cast::u32_of(r) {
                // Line 10: k > r — climb until the enclosing core of level
                // <= r, keeping the detached sub-chain correctly parented.
                let mut detached: Option<u32> = None;
                while top_level(&self.nodes, &path) > cast::u32_of(r) {
                    detached = path.pop();
                }
                if top_level(&self.nodes, &path) < cast::u32_of(r) {
                    // No node at level r exists on the path yet: splice one
                    // in between the remaining path and the detached chain.
                    // bestk-analyze: allow(no-unwrap) — the root never leaves the path
                    let parent = *path.last().expect("path never empties");
                    let nid = self.new_node(cast::u32_of(r), Some(parent));
                    if let Some(dchild) = detached {
                        self.nodes[dchild as usize].parent = Some(nid);
                    }
                    path.push(nid);
                }
            }
            let cv = self.d.coreness(v);
            if cv > top_level(&self.nodes, &path) {
                // Line 11: c(v) > r — enter a deeper core.
                // bestk-analyze: allow(no-unwrap) — the root never leaves the path
                let parent = *path.last().expect("path never empties");
                let nid = self.new_node(cv, Some(parent));
                path.push(nid);
            }

            // Line 12: insert v into the node pointed to by the path.
            // bestk-analyze: allow(no-unwrap) — the root never leaves the path
            let cur = *path.last().expect("path never empties");
            debug_assert_eq!(
                self.nodes[cur as usize].coreness, cv,
                "vertex lands at its own level"
            );
            self.nodes[cur as usize].vertices.push(v);
            self.vertex_node[v as usize] = cur;

            // Lines 14-16: enqueue unvisited neighbors at the connectivity
            // priority min(c(w), c(v)).
            for w in self.g.neighbors(v) {
                if self.state[w as usize] != VISITED {
                    self.push(w, self.d.coreness(w).min(cv));
                }
            }
        }
    }

    /// Adaptation steps (ii) and (iii): drop empty nodes (splicing children
    /// to the parent) and sort the survivors by descending coreness,
    /// remapping all indices.
    fn compress_and_sort(mut self) -> CoreForest {
        let total = self.nodes.len();
        // Resolve each node's compressed parent: nearest non-empty ancestor.
        let mut kept: Vec<u32> = (0..cast::u32_of(total))
            .filter(|&i| !self.nodes[i as usize].vertices.is_empty())
            .collect();
        // Sort by descending coreness (stable, so construction order breaks
        // ties deterministically).
        kept.sort_by_key(|&i| std::cmp::Reverse(self.nodes[i as usize].coreness));
        let mut remap = vec![u32::MAX; total];
        for (new_idx, &old) in kept.iter().enumerate() {
            remap[old as usize] = cast::u32_of(new_idx);
        }
        let find_parent = |nodes: &Vec<CoreForestNode>, mut i: u32| -> Option<u32> {
            loop {
                match nodes[i as usize].parent {
                    None => return None,
                    Some(p) => {
                        if nodes[p as usize].vertices.is_empty() {
                            i = p;
                        } else {
                            return Some(p);
                        }
                    }
                }
            }
        };
        let mut new_nodes: Vec<CoreForestNode> = Vec::with_capacity(kept.len());
        for &old in &kept {
            let parent = find_parent(&self.nodes, old).map(|p| remap[p as usize]);
            let node = &mut self.nodes[old as usize];
            new_nodes.push(CoreForestNode {
                coreness: node.coreness,
                vertices: std::mem::take(&mut node.vertices),
                parent,
                children: Vec::new(),
            });
        }
        for i in 0..new_nodes.len() {
            if let Some(p) = new_nodes[i].parent {
                new_nodes[p as usize].children.push(cast::u32_of(i));
            }
        }
        let mut vertex_node = self.vertex_node;
        for slot in vertex_node.iter_mut() {
            debug_assert_ne!(*slot, u32::MAX, "every vertex must be placed");
            *slot = remap[*slot as usize];
        }
        CoreForest {
            nodes: new_nodes,
            vertex_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use bestk_graph::generators::{self, regular};
    use bestk_graph::CsrGraph;
    use bestk_graph::GraphBuilder;

    fn forest(g: &CsrGraph) -> CoreForest {
        let d = core_decomposition(g);
        CoreForest::build(g, &d)
    }

    #[test]
    fn figure4_core_forest() {
        // Paper Figure 4: one tree; NS1 (k=2, {v5..v8}) is the root with two
        // children NS2 = {v1..v4} and NS3 = {v9..v12}, both k=3.
        let g = generators::paper_figure2();
        let f = forest(&g);
        assert_eq!(f.node_count(), 3);
        let roots = f.roots();
        assert_eq!(roots.len(), 1);
        let root = f.node(roots[0]);
        assert_eq!(root.coreness, 2);
        let mut shell = root.vertices.clone();
        shell.sort_unstable();
        assert_eq!(shell, vec![4, 5, 6, 7]);
        assert_eq!(root.children.len(), 2);
        let mut child_sets: Vec<Vec<u32>> = root
            .children
            .iter()
            .map(|&c| {
                let mut v = f.node(c).vertices.clone();
                v.sort_unstable();
                assert_eq!(f.node(c).coreness, 3);
                v
            })
            .collect();
        child_sets.sort();
        assert_eq!(child_sets, vec![vec![0, 1, 2, 3], vec![8, 9, 10, 11]]);
    }

    #[test]
    fn figure4_reconstruction_counts() {
        // Example 6: |S1| = |NS1| + |S2| + |S3| = 12.
        let g = generators::paper_figure2();
        let f = forest(&g);
        let root = f.roots()[0];
        let mut s1 = f.core_vertices(root);
        s1.sort_unstable();
        assert_eq!(s1, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn nodes_sorted_children_before_parents() {
        let g = generators::chung_lu_power_law(400, 6.0, 2.4, 3);
        let f = forest(&g);
        for (i, node) in f.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                assert!((p as usize) > i, "parent must come after child");
                assert!(
                    f.node(p).coreness < node.coreness,
                    "parent coreness must be strictly smaller"
                );
            }
            for &c in &node.children {
                assert!((c as usize) < i);
            }
        }
        // Descending coreness order.
        for w in f.nodes().windows(2) {
            assert!(w[0].coreness >= w[1].coreness);
        }
    }

    #[test]
    fn every_vertex_in_exactly_one_node() {
        let g = generators::erdos_renyi_gnm(300, 900, 2);
        let f = forest(&g);
        let mut count = vec![0usize; g.num_vertices()];
        for node in f.nodes() {
            for &v in &node.vertices {
                count[v as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
        // vertex_node agrees with the node contents.
        for (i, node) in f.nodes().iter().enumerate() {
            for &v in &node.vertices {
                assert_eq!(f.node_of(v), i as u32);
            }
        }
    }

    #[test]
    fn node_vertices_have_node_coreness() {
        let g = generators::overlapping_cliques(200, 25, (4, 10), 9);
        let d = core_decomposition(&g);
        let f = CoreForest::build(&g, &d);
        for node in f.nodes() {
            for &v in &node.vertices {
                assert_eq!(d.coreness(v), node.coreness);
            }
        }
    }

    /// Oracle: the k-cores of G for a given k are the connected components
    /// of the subgraph induced by coreness >= k.
    fn naive_k_cores(g: &CsrGraph, d: &CoreDecomposition, k: u32) -> Vec<Vec<VertexId>> {
        let verts: Vec<VertexId> = g.vertices().filter(|&v| d.coreness(v) >= k).collect();
        let sub = bestk_graph::subgraph::induced_subgraph(g, &verts);
        let cc = bestk_graph::connectivity::connected_components(&sub.graph);
        let mut groups = vec![Vec::new(); cc.count];
        for (dense, &comp) in cc.component.iter().enumerate() {
            groups[comp as usize].push(sub.vertices[dense]);
        }
        groups.iter_mut().for_each(|g| g.sort_unstable());
        groups.sort();
        groups
    }

    /// Forest answer: for level k, the k-cores are the reconstructed vertex
    /// sets of the "k-level entry nodes": nodes with coreness >= k whose
    /// parent has coreness < k (or no parent).
    fn forest_k_cores(f: &CoreForest, k: u32) -> Vec<Vec<VertexId>> {
        let mut out = Vec::new();
        for (i, node) in f.nodes().iter().enumerate() {
            if node.coreness >= k {
                let parent_below = match node.parent {
                    None => true,
                    Some(p) => f.node(p).coreness < k,
                };
                if parent_below {
                    let mut verts = f.core_vertices(i as u32);
                    verts.sort_unstable();
                    out.push(verts);
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn forest_reproduces_k_cores_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::erdos_renyi_gnm(150, 450, seed + 50);
            let d = core_decomposition(&g);
            let f = CoreForest::build(&g, &d);
            for k in 1..=d.kmax() {
                assert_eq!(
                    forest_k_cores(&f, k),
                    naive_k_cores(&g, &d, k),
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn forest_reproduces_k_cores_on_structured_graphs() {
        for g in [
            generators::paper_figure2(),
            regular::clique_chain(4, 5),
            generators::planted_partition(&[30, 25, 20], 0.4, 0.02, 7).graph,
            generators::overlapping_cliques(150, 30, (3, 8), 1),
        ] {
            let d = core_decomposition(&g);
            let f = CoreForest::build(&g, &d);
            for k in 1..=d.kmax() {
                assert_eq!(forest_k_cores(&f, k), naive_k_cores(&g, &d, k), "k={k}");
            }
        }
    }

    #[test]
    fn disconnected_components_make_separate_trees() {
        let mut b = GraphBuilder::new();
        // Two disjoint triangles and an isolated vertex.
        b.extend_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        b.reserve_vertices(7);
        let f = forest(&b.build());
        assert_eq!(f.roots().len(), 3);
        // The isolated vertex forms a coreness-0 node.
        let zero = f.node(f.node_of(6));
        assert_eq!(zero.coreness, 0);
        assert_eq!(zero.vertices, vec![6]);
    }

    #[test]
    fn bridged_cliques_are_one_core() {
        // Two K4s plus a bridge: every vertex has coreness 3 and the whole
        // graph is a single (connected) 3-core -> exactly one forest node.
        let g = regular::clique_chain(2, 4);
        let f = forest(&g);
        assert_eq!(f.node_count(), 1);
        assert_eq!(f.node(0).coreness, 3);
        assert_eq!(f.node(0).vertices.len(), 8);
    }

    #[test]
    fn ancestors_chain() {
        let g = generators::paper_figure2();
        let f = forest(&g);
        let deep = f.node_of(0); // v1, in a 3-core node
        let chain = f.ancestors(deep);
        assert_eq!(chain.len(), 2);
        assert_eq!(f.node(chain[1]).coreness, 2);
        assert!(f.node(chain[1]).parent.is_none());
    }

    /// The reference frontier: queues every unvisited neighbor.
    fn reference_forest(g: &CsrGraph, d: &CoreDecomposition) -> CoreForest {
        Builder::<_, false>::new(g, d).run()
    }

    /// The deduplicated frontier must build the reference forest exactly:
    /// node indices reach answer lines, so node order, coreness, per-node
    /// vertex order, parents, children and `vertex_nodes` all match.
    fn assert_same_as_reference(g: &CsrGraph, context: &str) {
        let d = core_decomposition(g);
        let got = CoreForest::build(g, &d);
        let want = reference_forest(g, &d);
        assert_eq!(got.node_count(), want.node_count(), "{context}: nodes");
        for (i, (a, b)) in got.nodes().iter().zip(want.nodes()).enumerate() {
            assert_eq!(a, b, "{context}: node {i}");
        }
        assert_eq!(got.vertex_nodes(), want.vertex_nodes(), "{context}");
    }

    /// `a` and `b` side by side, plus `isolated` vertices after both.
    fn disjoint_union(a: &CsrGraph, b: &CsrGraph, isolated: usize) -> CsrGraph {
        let shift = cast::vertex_id(a.num_vertices());
        let mut builder = GraphBuilder::new();
        builder.extend_edges(a.edges());
        builder.extend_edges(b.edges().map(|(u, v)| (u + shift, v + shift)));
        builder.reserve_vertices(a.num_vertices() + b.num_vertices() + isolated);
        builder.build()
    }

    #[test]
    fn dedup_frontier_builds_the_reference_forest_on_every_family() {
        let er = generators::erdos_renyi_gnm(400, 1600, 5);
        let chung_lu = generators::chung_lu_power_law(600, 8.0, 2.3, 12);
        let families = [
            ("figure 2", generators::paper_figure2()),
            ("erdos-renyi", er.clone()),
            ("chung-lu", chung_lu.clone()),
            (
                "overlapping cliques",
                generators::overlapping_cliques(300, 40, (3, 12), 4),
            ),
            (
                "planted partition",
                generators::planted_partition(&[40, 30, 25], 0.4, 0.02, 9).graph,
            ),
            ("clique chain", regular::clique_chain(6, 5)),
            ("k-chain", generators::k_chain(14)),
            ("shell ladder", generators::shell_ladder(7, 9)),
            ("tie storm", generators::tie_storm(12, 6, 3)),
            ("disconnected", disjoint_union(&er, &chung_lu, 0)),
            (
                "isolated vertices",
                disjoint_union(&generators::k_chain(5), &regular::clique_chain(3, 4), 7),
            ),
            ("edgeless", CsrGraph::empty(5)),
        ];
        for (name, g) in &families {
            assert_same_as_reference(g, name);
        }
        bestk_graph::testkit::check("forest_dedup_equals_reference", 64, |gen| {
            assert_same_as_reference(&gen.graph(120, 600), "random");
        });
    }

    #[test]
    fn empty_graph_forest() {
        let f = forest(&CsrGraph::empty(0));
        assert_eq!(f.node_count(), 0);
        assert!(f.roots().is_empty());
    }
}
