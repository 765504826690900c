//! Turns a run's measurements into named metrics, run facts and the
//! result line.

use std::fmt::Write as _;

use bestk_obs::Snapshot;

use crate::run::{peak_rss_mib, Run, THREADS};
use crate::stats::{median, tail, tail_rank};

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Tail percentile of the `*_p99_*` metrics, in per mille.
const P99: usize = 990;

fn need(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

/// The nearest-rank median of `values`, which this reorders.
fn p50<T: Copy + PartialOrd + Into<f64>>(values: &mut [T], what: &str) -> Result<f64, String> {
    need(median(values).map(|s| s.value), what)
}

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("snapshot_bytes_per_edge", "B"),
    ("restart_ms", "ms"),
    ("op_p50_ms", "ms"),
];

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order:
/// medians of all set-ups, of all restarts and of every timed unit of the
/// workload's work.
pub fn end_to_end(run: &mut Run) -> Result<Vec<Metric>, String> {
    let peak_rss = peak_rss_mib()?;
    let bytes: u64 = run.inputs.iter().map(|i| i.snapshot_bytes).sum();
    let edges: usize = run.inputs.iter().map(|i| i.m).sum();
    let values = [
        p50(&mut run.setup, "setup")? / 1e9,
        peak_rss,
        bytes as f64 / edges.max(1) as f64,
        p50(&mut run.restart, "restarts")? / 1e6,
        p50(run.op.kept(), "ops")? / 1e6,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect())
}

/// The latencies and throughputs of the request classes an untraced run
/// served, printed beside the end-to-end metrics; a class the workload
/// does not serve is left out.
pub fn details(run: &mut Run) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut add = |name, value: Option<f64>, scale: f64, unit| {
        if let Some(value) = value {
            out.push(Metric {
                name,
                value: value / scale,
                unit,
            });
        }
    };
    let mid = |values: &mut [u32]| median(values).map(|s| s.value);
    add(
        "op_p99_ms",
        tail(run.op.kept(), P99).map(|s| s.value),
        1e6,
        "ms",
    );
    add("build_s", median(&mut run.build).map(|s| s.value), 1e9, "s");
    let [query, stage, commit, after, _] = &mut run.series;
    add("queries_per_s", run.reads.per_second(), 1.0, "req/s");
    add("query_p50_us", mid(query.kept()), 1e3, "us");
    add(
        "query_p99_us",
        tail(query.kept(), P99).map(|s| s.value),
        1e3,
        "us",
    );
    add("stage_p50_us", mid(stage.kept()), 1e3, "us");
    add("commit_p50_ms", mid(commit.kept()), 1e6, "ms");
    add("read_after_write_p50_ms", mid(after.kept()), 1e6, "ms");
    add("mixed_ops_per_s", run.writes.per_second(), 1.0, "req/s");
    out
}

/// The per-layer metrics of a traced run: span medians, differences of
/// adjacent serve entry points, and `bestk_obs` counters over the run.
pub fn per_layer(run: &mut Run, before: &Snapshot, after: &Snapshot) -> Vec<Metric> {
    let overhead = match (median(&mut run.overhead.on), median(&mut run.overhead.off)) {
        (Some(on), Some(off)) if off.value > 0.0 => (on.value / off.value - 1.0) * 100.0,
        _ => 0.0,
    };
    let t = &run.tracer;
    let mid = |mut values: Vec<f64>| median(&mut values).map_or(0.0, |s| s.value);
    let ms = |name: &str| mid(t.durations(name)) / 1e6;
    let us = |name: &str| mid(t.durations(name)) / 1e3;
    let count = |name: &str| mid(t.counts(name));
    let per_op = |name: &str| {
        let values = t.counts(name);
        let total: u64 = values.iter().map(|&v| v as u64).sum();
        total as f64 / values.len().max(1) as f64
    };
    let obs = |name: &str| {
        let (b, a) = (before.counter(name), after.counter(name));
        a.unwrap_or(0).saturating_sub(b.unwrap_or(0)) as f64
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("graph.io.parse_ms", ms("graph.io.parse"), "ms"),
        metric("graph.io.edges_read", count("graph.io.edges_read"), "count"),
        metric("core.peel_ms", ms("core.peel"), "ms"),
        metric("core.peel_rounds", count("core.peel_rounds"), "count"),
        metric("core.order_ms", ms("core.order"), "ms"),
        metric("core.set_profile_ms", ms("core.set_profile"), "ms"),
        metric("core.triangles", count("core.triangles"), "count"),
        metric("core.forest_ms", ms("core.forest"), "ms"),
        metric("core.forest_nodes", count("core.forest_nodes"), "count"),
        metric("core.core_profile_ms", ms("core.core_profile"), "ms"),
        metric("core.peel_ms.t1", ms("core.peel.t1"), "ms"),
        metric("core.order_ms.t1", ms("core.order.t1"), "ms"),
        metric("core.set_profile_ms.t1", ms("core.set_profile.t1"), "ms"),
        metric("core.forest_ms.t1", ms("core.forest.t1"), "ms"),
        metric("core.core_profile_ms.t1", ms("core.core_profile.t1"), "ms"),
        metric("engine.artifacts_ms", ms("engine.artifacts"), "ms"),
        metric("engine.answer_us", us("engine.answer"), "us"),
        metric("engine.snapshot.save_ms", ms("engine.snapshot.save"), "ms"),
        metric("engine.snapshot.bytes", count("engine.snapshot.bytes"), "B"),
        metric("engine.snapshot.open_ms", ms("engine.snapshot.open"), "ms"),
        metric("engine.load_ms", ms("engine.load"), "ms"),
        metric(
            "engine.registry_us",
            us("engine.query") - us("engine.answer"),
            "us",
        ),
        metric(
            "engine.registry_wait_us",
            us("serve.request.x2") - us("serve.request"),
            "us",
        ),
        metric("engine.builds", obs("engine.builds"), "count"),
        metric("engine.cache_hits", obs("engine.cache_hits"), "count"),
        metric(
            "engine.serve.dispatch_us",
            us("engine.handle_request") - us("engine.query"),
            "us",
        ),
        metric(
            "engine.serve.transport_us",
            us("serve.request") - us("engine.handle_request"),
            "us",
        ),
        metric("serve.requests", obs("serve.requests"), "count"),
        metric("serve.errors", obs("serve.errors"), "count"),
        metric("serve.shed", obs("serve.shed"), "count"),
        metric("engine.mutate.stage_us", us("engine.mutate.stage"), "us"),
        metric("engine.mutate.commit_ms", ms("engine.mutate.commit"), "ms"),
        metric("delta.compactions", obs("delta.compactions"), "count"),
        metric("delta.apply_p50_us", us("delta.apply"), "us"),
        metric(
            "delta.apply_p99_us",
            tail(&mut t.durations("delta.apply"), P99).map_or(0.0, |s| s.value) / 1e3,
            "us",
        ),
        metric(
            "delta.changed_vertices",
            per_op("delta.changed_vertices"),
            "count/op",
        ),
        metric(
            "delta.recomputed_levels",
            per_op("delta.recomputed_levels"),
            "count/op",
        ),
        metric("delta.to_csr_ms", ms("delta.to_csr"), "ms"),
        metric("delta.build_ms", ms("delta.build"), "ms"),
        metric("exec.dispatches", obs("exec.dispatches"), "count"),
        metric(
            "exec.sequential_fallbacks",
            obs("exec.sequential_fallbacks"),
            "count",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders metrics as a JSON object `{name: {value, unit}}`; every value
/// must be finite.
pub fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        );
    }
    out.push('}');
    Ok(out)
}

fn sample_facts(run: &Run) -> String {
    let mut parts = vec![
        format!("\"setup\": {}", run.setup.len()),
        format!("\"build\": {}", run.build.len()),
        format!("\"restart\": {}", run.restart.len()),
    ];
    let [query, stage, commit, after, _] = &run.series;
    for (name, series) in [
        ("op", &run.op),
        ("query", query),
        ("stage", stage),
        ("commit", commit),
        ("read_after_write", after),
    ] {
        let kept = series.kept_len();
        parts.push(format!(
            "{}: {{\"samples\": {}, \"kept\": {kept}, \"tail_percentile\": {}}}",
            json_str(name),
            series.len(),
            100.0 * tail_rank(kept, P99) as f64 / kept.max(1) as f64
        ));
    }
    parts.push(format!(
        "\"delta_apply\": {{\"samples\": {}}}",
        run.tracer.durations("delta.apply").len()
    ));
    format!("{{{}}}", parts.join(", "))
}

/// The run facts recorded with every result: host parallelism, threads,
/// seed, run length, each input's size, and the sample count behind each
/// statistic.
pub fn facts(run: &Run, workload: &str, run_s: f64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let inputs = {
        let items: Vec<String> = run
            .inputs
            .iter()
            .map(|i| {
                format!(
                    "{{\"key\": {}, \"n\": {}, \"m\": {}, \"kmax\": {}, \"triangles\": {}, \"snapshot_bytes\": {}}}",
                    json_str(i.key),
                    i.n,
                    i.m,
                    i.kmax,
                    i.triangles,
                    i.snapshot_bytes
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    };
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}, \"threads\": {THREADS}, \"run_s\": {run_s}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {error_rate}, \"first_failure\": {}, \"inputs\": {}, \"samples\": {}}}",
        json_str(workload),
        run.seed,
        run.seconds,
        u8::from(run.traced),
        run.attempted,
        run.failed,
        run.first_failure.as_deref().map_or("null".into(), json_str),
        inputs,
        sample_facts(run)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_json_and_reject_non_finite_values() {
        let ok = [Metric {
            name: "latency_ms",
            value: 1.25,
            unit: "ms",
        }];
        assert_eq!(
            metrics_json(&ok).unwrap(),
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}"
        );
        let bad = [Metric {
            name: "x",
            value: f64::NAN,
            unit: "ms",
        }];
        assert!(metrics_json(&bad).is_err());
        assert_eq!(json_str("a\"b\\\t"), "\"a\\\"b\\\\\\u0009\"");
    }

    /// `BENCHMARK.json` names every metric the benchmark reports, with the
    /// same unit, and nothing else.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let mut run = Run::new(1, 1, true, std::env::temp_dir()).unwrap();
        let empty = bestk_obs::MetricsRegistry::new().snapshot();
        let layers = per_layer(&mut run, &empty, &empty);
        let names: Vec<(&str, &str)> = END_TO_END
            .iter()
            .copied()
            .chain(layers.iter().map(|m| (m.name, m.unit)))
            .collect();
        for (name, unit) in &names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\":").count(), names.len());
    }
}
