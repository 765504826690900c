//! Figure 8 reproduction: runtime of finding the best single k-core —
//! `Baseline` (per-core rescoring, §IV-B) versus `Optimal` (Algorithm 5).
//!
//! The optimal side's index-building now includes the LCPS forest
//! construction on top of the vertex ordering, matching the paper's
//! description of Figure 8.

use std::time::Duration;

use bestk_bench::{selected_specs, time, timer::fmt_duration, TableWriter};
use bestk_core::baseline::baseline_single_core_primaries;
use bestk_core::bestcore::single_core_primaries;
use bestk_core::{core_decomposition, CommunityMetric, CoreForest, Metric, OrderedGraph};

/// Same DNF rule as `fig7`.
const BASELINE_CC_EDGE_CAP: usize = 3_000_000;

fn main() {
    let metrics = [
        Metric::AverageDegree,
        Metric::Conductance,
        Metric::Modularity,
        Metric::ClusteringCoefficient,
    ];
    let mut table = TableWriter::new([
        "dataset",
        "metric",
        "core-decomp",
        "index-build",
        "opt-score",
        "base-score",
        "Optimal total",
        "Baseline total",
        "speedup",
    ]);
    for spec in selected_specs() {
        eprintln!("running {} ...", spec.key);
        let g = bestk_bench::load(&spec);
        let (d, t_decomp) = time(|| core_decomposition(&g));
        let ((o, forest), t_index) =
            time(|| (OrderedGraph::build(&g, &d), CoreForest::build(&g, &d)));
        for metric in metrics {
            let needs_tri = metric.needs_triangles();
            // Clustering coefficient is the only triangle metric, so its run
            // is the ordering's first triangle use and pays the listing.
            let (_, t_opt) = time(|| single_core_primaries(&o, &forest, needs_tri));
            let skip_baseline = needs_tri && g.num_edges() > BASELINE_CC_EDGE_CAP;
            let t_base = if skip_baseline {
                None
            } else {
                Some(time(|| baseline_single_core_primaries(&g, &d, needs_tri)).1)
            };
            let optimal_total = t_decomp + t_index + t_opt;
            let (base_cell, base_total_cell, speedup_cell) = match t_base {
                Some(tb) => {
                    let baseline_total = t_decomp + tb;
                    (
                        fmt_duration(tb),
                        fmt_duration(baseline_total),
                        format!(
                            "{:.0}x (score-only {:.0}x)",
                            baseline_total.as_secs_f64() / optimal_total.as_secs_f64(),
                            tb.as_secs_f64() / t_opt.max(Duration::from_micros(1)).as_secs_f64()
                        ),
                    )
                }
                None => ("DNF".into(), "DNF".into(), "-".into()),
            };
            table.row([
                spec.key.to_string(),
                metric.abbrev().to_string(),
                fmt_duration(t_decomp),
                fmt_duration(t_index),
                fmt_duration(t_opt),
                base_cell,
                fmt_duration(optimal_total),
                base_total_cell,
                speedup_cell,
            ]);
        }
    }
    println!("Figure 8 (stand-ins): runtime of finding the best single k-core\n");
    table.print();
}
