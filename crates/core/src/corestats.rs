//! Statistics over a core decomposition.
//!
//! The paper characterizes datasets by their coreness spectra (Table III's
//! `kmax`, the shell structure behind Figures 5–6). This module computes
//! those distributions from a [`CoreDecomposition`]'s shell boundaries in
//! `O(kmax)`.

use crate::decomposition::CoreDecomposition;
use bestk_graph::cast;

/// Summary of a graph's coreness structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreStats {
    /// The degeneracy `kmax`.
    pub kmax: u32,
    /// `shell_sizes[k]` = `|H_k|`. Length `kmax + 1`.
    pub shell_sizes: Vec<usize>,
    /// `core_set_sizes[k]` = `|V(C_k)|`. Length `kmax + 1`.
    pub core_set_sizes: Vec<usize>,
    /// Number of non-empty shells.
    pub populated_shells: usize,
    /// Mean coreness over all vertices.
    pub mean_coreness: f64,
    /// Median coreness.
    pub median_coreness: u32,
    /// Size of the innermost (kmax) core set.
    pub top_core_size: usize,
}

/// Computes [`CoreStats`] in `O(kmax)` from the decomposition's shell
/// boundaries ([`CoreDecomposition::shell_starts`]).
pub fn core_stats(d: &CoreDecomposition) -> CoreStats {
    let kmax = d.kmax();
    let n = d.num_vertices();
    let starts = d.shell_starts();
    let shell_sizes: Vec<usize> = starts.windows(2).map(|w| w[1] - w[0]).collect();
    let core_set_sizes: Vec<usize> = starts[..=kmax as usize].iter().map(|&s| n - s).collect();
    let total: u64 = (0u64..).zip(&shell_sizes).map(|(k, &s)| k * s as u64).sum();
    let populated_shells = shell_sizes.iter().filter(|&&s| s > 0).count();
    let mean_coreness = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    // Median via the shell histogram.
    let mut median_coreness = 0u32;
    if n > 0 {
        let target = n.div_ceil(2);
        let mut seen = 0usize;
        for (k, &s) in shell_sizes.iter().enumerate() {
            seen += s;
            if seen >= target {
                median_coreness = cast::u32_of(k);
                break;
            }
        }
    }
    CoreStats {
        kmax,
        top_core_size: *core_set_sizes.last().unwrap_or(&0),
        shell_sizes,
        core_set_sizes,
        populated_shells,
        mean_coreness,
        median_coreness,
    }
}

/// The "coreness Gini-like" concentration: fraction of vertices in the top
/// decile of coreness levels — a quick heavy-tail indicator used by the
/// bench harness to sanity-check dataset stand-ins.
pub fn top_decile_concentration(d: &CoreDecomposition) -> f64 {
    let n = d.num_vertices();
    if n == 0 || d.kmax() == 0 {
        return 0.0;
    }
    let threshold = (d.kmax() * 9).div_ceil(10);
    let deep = d
        .coreness_slice()
        .iter()
        .filter(|&&c| c >= threshold)
        .count();
    deep as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::core_decomposition;
    use bestk_graph::generators::{self, regular};

    #[test]
    fn figure2_stats() {
        let d = core_decomposition(&generators::paper_figure2());
        let s = core_stats(&d);
        assert_eq!(s.kmax, 3);
        assert_eq!(s.shell_sizes, vec![0, 0, 4, 8]);
        assert_eq!(s.core_set_sizes, vec![12, 12, 12, 8]);
        assert_eq!(s.populated_shells, 2);
        assert_eq!(s.top_core_size, 8);
        assert!((s.mean_coreness - (4.0 * 2.0 + 8.0 * 3.0) / 12.0).abs() < 1e-12);
        assert_eq!(s.median_coreness, 3);
    }

    #[test]
    fn complete_graph_stats() {
        let d = core_decomposition(&regular::complete(6));
        let s = core_stats(&d);
        assert_eq!(s.kmax, 5);
        assert_eq!(s.shell_sizes[5], 6);
        assert_eq!(s.populated_shells, 1);
        assert_eq!(s.median_coreness, 5);
        assert_eq!(top_decile_concentration(&d), 1.0);
    }

    #[test]
    fn stats_match_a_direct_histogram_over_coreness() {
        bestk_graph::testkit::check("corestats_equal_direct_histogram", 24, |gen| {
            let g = gen.graph(60, 240);
            let d = core_decomposition(&g);
            let s = core_stats(&d);
            let mut hist = vec![0usize; d.kmax() as usize + 1];
            let mut sum = 0u64;
            for &c in d.coreness_slice() {
                hist[c as usize] += 1;
                sum += u64::from(c);
            }
            let n = g.num_vertices();
            assert_eq!(s.shell_sizes, hist);
            let suffix: Vec<usize> = (0..hist.len()).map(|k| hist[k..].iter().sum()).collect();
            assert_eq!(s.core_set_sizes, suffix);
            assert_eq!(s.populated_shells, hist.iter().filter(|&&h| h > 0).count());
            assert_eq!(s.top_core_size, hist[d.kmax() as usize]);
            let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
            assert_eq!(s.mean_coreness.to_bits(), mean.to_bits());
            let mut sorted = d.coreness_slice().to_vec();
            sorted.sort_unstable();
            let median = if n == 0 { 0 } else { sorted[n.div_ceil(2) - 1] };
            assert_eq!(s.median_coreness, median);
        });
    }

    #[test]
    fn empty_graph_stats() {
        let d = core_decomposition(&bestk_graph::CsrGraph::empty(0));
        let s = core_stats(&d);
        assert_eq!(s.kmax, 0);
        assert_eq!(s.core_set_sizes, vec![0]);
        assert_eq!(s.mean_coreness, 0.0);
        assert_eq!(top_decile_concentration(&d), 0.0);
    }

    #[test]
    fn core_set_sizes_match_decomposition() {
        let g = generators::chung_lu_power_law(500, 8.0, 2.4, 3);
        let d = core_decomposition(&g);
        let s = core_stats(&d);
        for k in 0..=d.kmax() {
            assert_eq!(s.core_set_sizes[k as usize], d.core_set_size(k));
        }
        assert_eq!(s.shell_sizes.iter().sum::<usize>(), g.num_vertices());
    }

    #[test]
    fn concentration_detects_planted_core() {
        // Mostly sparse graph with one planted deep clique: concentration
        // is small but positive.
        let mut b = bestk_graph::GraphBuilder::new();
        b.extend_edges(generators::erdos_renyi_gnm(400, 800, 1).edges());
        for u in 400..430u32 {
            for v in (u + 1)..430 {
                b.add_edge(u, v);
            }
        }
        let d = core_decomposition(&b.build());
        let c = top_decile_concentration(&d);
        assert!(c > 0.0 && c < 0.2, "c = {c}");
    }
}
