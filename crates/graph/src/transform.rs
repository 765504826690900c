//! Whole-graph transformations: component extraction, filtering, merging,
//! edge flips.
//!
//! The preprocessing steps a real pipeline runs before decomposition —
//! SNAP graphs are usually reduced to their largest connected component,
//! degree-filtered, or composed from several sources — plus
//! [`flip_edges`], the fold of a batch of edge inserts and deletes.

use crate::builder::GraphBuilder;
use crate::cast;
use crate::connectivity::connected_components;
use crate::csr::{CsrGraph, VertexId};
use crate::subgraph::{induced_subgraph, InducedSubgraph};
use crate::view::GraphView;

/// Extracts the largest connected component (densely relabeled). Returns
/// the subgraph with its original-id mapping; an empty graph maps to an
/// empty subgraph.
pub fn largest_connected_component(g: &CsrGraph) -> InducedSubgraph {
    let cc = connected_components(g);
    match cc.largest() {
        None => induced_subgraph(g, &[]),
        Some(target) => {
            let members: Vec<VertexId> = g
                .vertices()
                .filter(|&v| cc.component[v as usize] == cast::u32_of(target))
                .collect();
            induced_subgraph(g, &members)
        }
    }
}

/// Keeps only vertices with degree in `[min_degree, max_degree]` (degrees
/// measured in the input graph, applied once — not iterated like a core
/// decomposition). Returns the relabeled subgraph.
pub fn filter_by_degree(g: &CsrGraph, min_degree: usize, max_degree: usize) -> InducedSubgraph {
    let members: Vec<VertexId> = g
        .vertices()
        .filter(|&v| {
            let d = g.degree(v);
            d >= min_degree && d <= max_degree
        })
        .collect();
    induced_subgraph(g, &members)
}

/// Disjoint union: the vertices of `b` are shifted by `a.num_vertices()`.
pub fn disjoint_union(a: &CsrGraph, b: &CsrGraph) -> CsrGraph {
    let shift = cast::vertex_id(a.num_vertices());
    let mut builder = GraphBuilder::with_capacity(a.num_edges() + b.num_edges());
    builder.reserve_vertices(a.num_vertices() + b.num_vertices());
    builder.extend_edges(a.edges());
    builder.extend_edges(b.edges().map(|(u, v)| (u + shift, v + shift)));
    builder.build()
}

/// Edge-union of two graphs over the same vertex universe (the larger
/// vertex count wins; duplicate edges collapse).
pub fn overlay(a: &CsrGraph, b: &CsrGraph) -> CsrGraph {
    let mut builder = GraphBuilder::with_capacity(a.num_edges() + b.num_edges());
    builder.reserve_vertices(a.num_vertices().max(b.num_vertices()));
    builder.extend_edges(a.edges());
    builder.extend_edges(b.edges());
    builder.build()
}

/// Drops isolated vertices and relabels densely.
pub fn drop_isolated(g: &CsrGraph) -> InducedSubgraph {
    let members: Vec<VertexId> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
    induced_subgraph(g, &members)
}

/// `base` with the presence of every edge in `flipped` toggled: an edge
/// `base` holds is deleted, any other inserted. Each undirected edge may
/// appear once, as `(u, v)` or `(v, u)`, with `u != v` and both ids
/// vertices of `base`. One pass in `O(n + m + p log p)` for `p` flips:
/// every base list is copied in order, and only the at most `2p` lists a
/// flip touches are patched and re-sorted. Relies on ascending base lists,
/// as [`GraphView::has_edge`] does.
pub fn flip_edges<G: GraphView>(
    base: &G,
    flipped: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> CsrGraph {
    let mut flips: Vec<_> = flipped
        .into_iter()
        .flat_map(|(u, v)| [(u, v), (v, u)])
        .collect();
    flips.sort_unstable();
    let mut offsets = Vec::with_capacity(base.num_vertices() + 1);
    offsets.push(0);
    let mut neighbors = Vec::with_capacity(2 * base.num_edges() + flips.len());
    let mut rest = flips.as_slice();
    for u in base.vertices() {
        let (here, later) = rest.split_at(rest.partition_point(|f| f.0 == u));
        rest = later;
        let start = neighbors.len();
        // A base neighbor with a flip is a deleted one.
        let kept = |v: &VertexId| here.binary_search_by_key(v, |f| f.1).is_err();
        neighbors.extend(base.neighbors(u).filter(kept));
        if !here.is_empty() {
            neighbors.extend(here.iter().map(|f| f.1).filter(|&v| !base.has_edge(u, v)));
            neighbors[start..].sort_unstable();
        }
        offsets.push(neighbors.len());
    }
    CsrGraph::from_parts(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, regular};

    #[test]
    fn flips_insert_absent_edges_and_delete_present_ones() {
        let g = regular::cycle(5);
        let flipped = flip_edges(&g, [(1, 0), (0, 2), (4, 3)]);
        let mut b = GraphBuilder::new();
        b.extend_edges([(1, 2), (2, 3), (4, 0), (0, 2)]);
        assert_eq!(flipped, b.build());
        assert_eq!(flip_edges(&g, []), g);
    }

    #[test]
    fn lcc_extraction() {
        let g = disjoint_union(&regular::complete(5), &regular::path(3));
        let lcc = largest_connected_component(&g);
        assert_eq!(lcc.graph.num_vertices(), 5);
        assert_eq!(lcc.graph.num_edges(), 10);
        assert_eq!(lcc.vertices, vec![0, 1, 2, 3, 4]);
        // Empty graph.
        let empty = largest_connected_component(&CsrGraph::empty(0));
        assert_eq!(empty.graph.num_vertices(), 0);
    }

    #[test]
    fn degree_filter() {
        let g = regular::star(5); // center degree 5, leaves degree 1
        let hubs = filter_by_degree(&g, 2, usize::MAX);
        assert_eq!(hubs.graph.num_vertices(), 1);
        assert_eq!(hubs.vertices, vec![0]);
        let leaves = filter_by_degree(&g, 0, 1);
        assert_eq!(leaves.graph.num_vertices(), 5);
        assert_eq!(leaves.graph.num_edges(), 0, "leaves lose the center");
    }

    #[test]
    fn union_and_overlay() {
        let a = regular::cycle(4);
        let b = regular::cycle(3);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_vertices(), 7);
        assert_eq!(u.num_edges(), 7);
        assert!(u.validate().is_ok());

        let o = overlay(&regular::cycle(5), &regular::star(4));
        assert_eq!(o.num_vertices(), 5);
        // Cycle 0-1-2-3-4-0 plus star edges 0-1, 0-2, 0-3, 0-4; 0-1 and
        // 0-4 already exist.
        assert_eq!(o.num_edges(), 5 + 2);
    }

    #[test]
    fn drop_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge(2, 5);
        b.reserve_vertices(8);
        let g = b.build();
        let trimmed = drop_isolated(&g);
        assert_eq!(trimmed.graph.num_vertices(), 2);
        assert_eq!(trimmed.vertices, vec![2, 5]);
    }

    #[test]
    fn lcc_on_generated_graph_is_connected() {
        let g = generators::erdos_renyi_gnp(300, 0.004, 5);
        let lcc = largest_connected_component(&g);
        assert!(crate::connectivity::is_connected(&lcc.graph));
        assert!(lcc.graph.num_vertices() <= g.num_vertices());
    }
}
