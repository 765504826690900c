//! Figure 7 reproduction: runtime of finding the best k-core set —
//! `Baseline` (per-k rescoring, §III-A) versus `Optimal` (Algorithms 2/3)
//! — for four metrics across all datasets, with the paper's cost breakdown:
//!
//! * baseline  = core decomposition + baseline score computation
//! * optimal   = core decomposition + index building (vertex ordering) +
//!   optimal score computation
//!
//! Following the paper, the baseline's clustering-coefficient runs are
//! skipped on the largest datasets (they "cannot finish within 10⁵ s"
//! there; here we cap per-dataset baseline work instead of burning hours).

use std::time::Duration;

use bestk_bench::{selected_specs, time, timer::fmt_duration, TableWriter};
use bestk_core::baseline::baseline_core_set_primaries;
use bestk_core::bestkset::{core_set_primaries, core_set_primaries_with_triangles};
use bestk_core::{core_decomposition, CommunityMetric, Metric, OrderedGraph};

/// Baseline triangle recounting is skipped above this edge count (mirrors
/// the paper's DNF entries on Hollywood / Human-Jung / FriendSter).
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
        let (o, t_index) = time(|| OrderedGraph::build(&g, &d));
        for metric in metrics {
            let needs_tri = metric.needs_triangles();
            // Clustering coefficient is the only triangle metric, so its run
            // is the ordering's first triangle use and pays the listing.
            let (_, t_opt) = if needs_tri {
                time(|| core_set_primaries_with_triangles(&o))
            } else {
                time(|| core_set_primaries(&o))
            };
            let skip_baseline = needs_tri && g.num_edges() > BASELINE_CC_EDGE_CAP;
            let t_base = if skip_baseline {
                None
            } else {
                Some(time(|| baseline_core_set_primaries(&g, &d, needs_tri)).1)
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
    println!("Figure 7 (stand-ins): runtime of finding the best k-core set\n");
    table.print();
}
