//! Degree statistics, as reported in the paper's Table III.

use crate::view::GraphView;

/// Summary statistics for a graph (the columns of the paper's Table III,
/// minus `kmax`, which needs a core decomposition from `bestk-core`).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `n`.
    pub num_vertices: usize,
    /// Number of undirected edges `m`.
    pub num_edges: usize,
    /// Average degree `2 m / n`.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Minimum degree (0 if there are isolated vertices).
    pub min_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated_vertices: usize,
}

/// Computes [`GraphStats`] in `O(n)` over any storage backend.
pub fn graph_stats(g: &impl GraphView) -> GraphStats {
    let n = g.num_vertices();
    let mut max_degree = 0usize;
    let mut min_degree = usize::MAX;
    let mut isolated = 0usize;
    for v in g.vertices() {
        let d = g.degree(v);
        max_degree = max_degree.max(d);
        min_degree = min_degree.min(d);
        if d == 0 {
            isolated += 1;
        }
    }
    if n == 0 {
        min_degree = 0;
    }
    GraphStats {
        num_vertices: n,
        num_edges: g.num_edges(),
        average_degree: g.average_degree(),
        max_degree,
        min_degree,
        isolated_vertices: isolated,
    }
}

/// Histogram of vertex degrees: `hist[d]` = number of vertices of degree `d`.
///
/// Length is `max_degree + 1` (a single empty bucket for the empty graph).
pub fn degree_histogram(g: &impl GraphView) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Fits the exponent of a power-law degree distribution by the standard
/// maximum-likelihood estimator `1 + n / Σ ln(d_i / (d_min - 1/2))` over
/// vertices with degree ≥ `d_min`.
///
/// Returns `None` when fewer than two vertices qualify. Used by the bench
/// harness to check that synthetic stand-ins are heavy-tailed like the
/// paper's datasets.
pub fn power_law_exponent_mle(g: &impl GraphView, d_min: usize) -> Option<f64> {
    assert!(d_min >= 1, "d_min must be at least 1");
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    let shift = d_min as f64 - 0.5;
    for v in g.vertices() {
        let d = g.degree(v);
        if d >= d_min {
            count += 1;
            log_sum += (d as f64 / shift).ln();
        }
    }
    if count < 2 || log_sum <= 0.0 {
        None
    } else {
        Some(1.0 + count as f64 / log_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn stats_on_star() {
        let mut b = GraphBuilder::new();
        for v in 1..=4 {
            b.add_edge(0, v);
        }
        b.reserve_vertices(6);
        let g = b.build();
        let s = graph_stats(&g);
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.isolated_vertices, 1);
        assert!((s.average_degree - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty() {
        let g = crate::CsrGraph::empty(0);
        let s = graph_stats(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = generators::erdos_renyi_gnm(100, 300, 7);
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), 100);
        // Sum of d * hist[d] = 2m.
        let total: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn power_law_fit_detects_heavy_tail() {
        let g = generators::chung_lu_power_law(20_000, 8.0, 2.5, 42);
        let gamma = power_law_exponent_mle(&g, 5).unwrap();
        // MLE on a finite Chung-Lu sample is noisy; just check the ballpark.
        assert!(gamma > 1.8 && gamma < 3.5, "gamma = {gamma}");
    }

    #[test]
    fn stats_agree_across_backends() {
        let g = generators::erdos_renyi_gnm(200, 600, 9);
        let s = crate::ByteCsr::new(crate::bytecsr::encode_view(&g)).unwrap();
        assert_eq!(graph_stats(&s), graph_stats(&g));
        assert_eq!(degree_histogram(&s), degree_histogram(&g));
        assert_eq!(power_law_exponent_mle(&s, 2), power_law_exponent_mle(&g, 2));
    }

    #[test]
    fn power_law_fit_degenerate_cases() {
        let g = crate::CsrGraph::empty(10);
        assert!(power_law_exponent_mle(&g, 1).is_none());
    }
}
