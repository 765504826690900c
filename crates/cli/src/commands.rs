//! Subcommand implementations.

use std::io::Write;

use bestk_apps as apps;
use bestk_core::{
    analyze as analyze_graph, analyze_basic, analyze_basic_with, analyze_with, CommunityMetric,
    Metric,
};
use bestk_graph::{generators, io, stats};

use crate::args::ParsedArgs;
use crate::{load_graph, CliError};

/// Resolves a `--metric` abbreviation; an unknown one is a usage error.
fn metric_arg(abbrev: &str) -> Result<Metric, CliError> {
    bestk_engine::metric_by_abbrev(abbrev).map_err(|e| match e {
        bestk_engine::EngineError::BadQuery(msg) => CliError::Usage(msg),
        other => other.into(),
    })
}

/// Which metrics a command should report on.
fn metric_selection(args: &ParsedArgs) -> Result<Vec<Metric>, CliError> {
    match args.opt("metric") {
        Some(abbrev) => Ok(vec![metric_arg(abbrev)?]),
        None if args.flag("extended") => Ok(Metric::EXTENDED.to_vec()),
        None => Ok(Metric::ALL.to_vec()),
    }
}

/// Maps a failed invariant check onto the CLI error space.
fn verify_failed(e: bestk_graph::verify::VerifyError) -> CliError {
    CliError::Failed(format!("verification FAILED: {e}"))
}

/// `bestk stats <graph> [--verify]`.
pub fn stats(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["verify"])?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let s = stats::graph_stats(&g);
    let d = bestk_core::core_decomposition(&g);
    if args.flag("verify") {
        bestk_graph::verify::verify_graph(&g).map_err(verify_failed)?;
        bestk_core::verify::verify_decomposition(&g, &d).map_err(verify_failed)?;
    }
    writeln!(out, "vertices        {}", s.num_vertices)?;
    writeln!(out, "edges           {}", s.num_edges)?;
    writeln!(out, "average degree  {:.2}", s.average_degree)?;
    writeln!(out, "max degree      {}", s.max_degree)?;
    writeln!(out, "min degree      {}", s.min_degree)?;
    writeln!(out, "isolated        {}", s.isolated_vertices)?;
    writeln!(out, "kmax            {}", d.kmax())?;
    let cs = bestk_core::corestats::core_stats(&d);
    writeln!(out, "mean coreness   {:.2}", cs.mean_coreness)?;
    writeln!(out, "median coreness {}", cs.median_coreness)?;
    writeln!(out, "shells          {} populated", cs.populated_shells)?;
    writeln!(out, "top core size   {}", cs.top_core_size)?;
    let cc = bestk_graph::connectivity::connected_components(&g);
    writeln!(out, "components      {}", cc.count)?;
    if args.flag("verify") {
        writeln!(
            out,
            "verify          csr + core-decomposition invariants hold"
        )?;
    }
    Ok(())
}

/// `bestk analyze <graph> [--metric M] [--extended] [--verify] [--threads N]`.
pub fn analyze(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["metric", "extended", "verify", "threads"])?;
    let policy = args.exec_policy()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let metrics = metric_selection(args)?;
    let needs_triangles = metrics.iter().any(|m| m.needs_triangles());
    let a = if needs_triangles {
        analyze_with(&g, &policy)
    } else {
        analyze_basic_with(&g, &policy)
    };
    if args.flag("verify") {
        bestk_graph::verify::verify_graph(&g).map_err(verify_failed)?;
        bestk_core::verify::verify_decomposition(&g, a.decomposition()).map_err(verify_failed)?;
        for m in &metrics {
            if let Some(best) = a.best_core_set(m) {
                bestk_core::verify::verify_best_core_set(&g, m, &best).map_err(verify_failed)?;
            }
            if let Some(best) = a.best_single_core(m) {
                bestk_core::verify::verify_best_single_core(&g, m, &best).map_err(verify_failed)?;
            }
        }
        writeln!(
            out,
            "verify: decomposition + best-k answers re-checked against baselines"
        )?;
    }
    writeln!(
        out,
        "kmax = {}, distinct cores = {}",
        a.kmax(),
        a.forest().node_count()
    )?;
    writeln!(
        out,
        "{:<24} {:>10} {:>14} {:>11} {:>14} {:>9}",
        "metric", "best-set k", "set score", "best-core k", "core score", "core |S|"
    )?;
    for m in metrics {
        let set = a.best_core_set(&m);
        let core = a.best_single_core(&m);
        let size = core
            .map(|b| a.forest().core_vertices(b.node).len().to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{:<24} {:>10} {:>14} {:>11} {:>14} {:>9}",
            m.name(),
            set.map(|b| b.k.to_string()).unwrap_or_else(|| "-".into()),
            set.map(|b| format!("{:.6}", b.score))
                .unwrap_or_else(|| "-".into()),
            core.map(|b| b.k.to_string()).unwrap_or_else(|| "-".into()),
            core.map(|b| format!("{:.6}", b.score))
                .unwrap_or_else(|| "-".into()),
            size,
        )?;
    }
    Ok(())
}

/// `bestk profile <graph> --metric M [--single]`.
pub fn profile(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["metric", "single"])?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let metric = metric_arg(
        args.opt("metric")
            .ok_or_else(|| CliError::Usage("profile requires --metric".into()))?,
    )?;
    let a = if metric.needs_triangles() {
        analyze_graph(&g)
    } else {
        analyze_basic(&g)
    };
    if args.flag("single") {
        writeln!(out, "k,score")?;
        for (k, s) in a.single_core_scores(&metric) {
            writeln!(out, "{k},{s}")?;
        }
    } else {
        writeln!(out, "k,score")?;
        for (k, s) in a.core_set_scores(&metric).iter().enumerate() {
            if !s.is_nan() {
                writeln!(out, "{k},{s}")?;
            }
        }
    }
    Ok(())
}

/// `bestk densest <graph> [--method ...]`.
pub fn densest(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["method"])?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let method = args.opt("method").unwrap_or("opt-d");
    let res = match method {
        "opt-d" => {
            let a = analyze_basic(&g);
            apps::opt_d(&g, &a)
        }
        "core-app" => {
            let a = analyze_basic(&g);
            apps::core_app(&g, &a)
        }
        "peel" => apps::charikar_peeling(&g),
        "exact" => {
            if g.num_edges() > 100_000 {
                return Err(CliError::Failed(
                    "exact method is flow-based; refusing graphs over 100k edges".into(),
                ));
            }
            apps::goldberg_exact(&g)
        }
        other => return Err(CliError::Usage(format!("unknown method {other:?}"))),
    };
    writeln!(out, "method          {method}")?;
    writeln!(out, "average degree  {:.4}", res.average_degree)?;
    writeln!(out, "vertices        {}", res.vertices.len())?;
    writeln!(out, "members         {:?}", preview(&res.vertices, 20))?;
    Ok(())
}

/// `bestk clique <graph>`.
pub fn clique(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[])?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let d = bestk_core::core_decomposition(&g);
    let clique = apps::maximum_clique(&g, &d);
    writeln!(out, "maximum clique size {}", clique.len())?;
    writeln!(out, "members             {:?}", preview(&clique, 50))?;
    Ok(())
}

/// `bestk sck <graph> --k K --h H --query V`.
pub fn sck(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["k", "h", "query"])?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let k: u32 = args.require_num("k")?;
    let h: usize = args.require_num("h")?;
    let q: u32 = args.require_num("query")?;
    if (q as usize) >= g.num_vertices() {
        return Err(CliError::Usage(format!(
            "query vertex {q} out of range (n = {})",
            g.num_vertices()
        )));
    }
    let a = analyze_basic(&g);
    match apps::opt_sc(&g, &a, k, h, q) {
        None => Err(CliError::Failed(format!(
            "infeasible: no core with level >= {k} and >= {h} vertices contains {q}"
        ))),
        Some(res) => {
            writeln!(out, "source core k'  {}", res.source_core_k)?;
            writeln!(out, "result size     {} (target {h})", res.vertices.len())?;
            writeln!(out, "hit (<=5% dev)  {}", res.hits(h, 0.05))?;
            writeln!(out, "query component {}", res.query_component(&g).len())?;
            writeln!(out, "members         {:?}", preview(&res.vertices, 20))?;
            Ok(())
        }
    }
}

/// `bestk community <graph> --query V [--metric M] [--min-k K] [--max-size S]`.
pub fn community(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["query", "metric", "min-k", "max-size"])?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let q: u32 = args.require_num("query")?;
    if (q as usize) >= g.num_vertices() {
        return Err(CliError::Usage(format!(
            "query vertex {q} out of range (n = {})",
            g.num_vertices()
        )));
    }
    let a = analyze_basic(&g);
    // Always report the max-min-degree community (Sozio-Gionis).
    let mmd = apps::max_min_degree_community(&a, q);
    writeln!(
        out,
        "max-min-degree community: k = {}, |S| = {}",
        mmd.k,
        mmd.vertices.len()
    )?;
    if let Some(abbrev) = args.opt("metric") {
        let metric = metric_arg(abbrev)?;
        if metric.needs_triangles() {
            return Err(CliError::Usage(
                "triangle-based metrics are not supported for community search".into(),
            ));
        }
        let min_k: u32 = args.opt_num("min-k", 0)?;
        let max_size: Option<usize> = match args.opt("max-size") {
            None => None,
            Some(_) => Some(args.require_num("max-size")?),
        };
        match apps::best_scored_community(&a, q, &metric, min_k, max_size) {
            Some(c) => {
                writeln!(
                    out,
                    "best {} community: k = {}, score = {:.6}, |S| = {}",
                    metric.name(),
                    c.k,
                    c.score,
                    c.vertices.len()
                )?;
                writeln!(out, "members         {:?}", preview(&c.vertices, 20))?;
            }
            None => writeln!(out, "no community satisfies the constraints")?,
        }
    }
    Ok(())
}

/// `bestk truss <graph> [--metric M] [--single] [--verify] [--threads N]`.
pub fn truss(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["metric", "single", "verify", "threads"])?;
    let policy = args.exec_policy()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let metrics = metric_selection(args)?;
    let idx = bestk_truss::EdgeIndex::build(&g);
    let t = bestk_truss::decomposition::truss_decomposition_exec(&g, &idx, &policy);
    if args.flag("verify") {
        bestk_graph::verify::verify_graph(&g).map_err(verify_failed)?;
        bestk_truss::verify::verify_truss_decomposition(&g, &idx, &t).map_err(verify_failed)?;
        writeln!(out, "verify: truss decomposition invariants hold")?;
    }
    writeln!(out, "tmax = {}", t.tmax())?;
    if args.flag("single") {
        writeln!(
            out,
            "{:<24} {:>9} {:>14} {:>8}",
            "metric", "best k", "score", "|S|"
        )?;
        for m in metrics {
            match bestk_truss::best_single_k_truss(&g, &idx, &t, &m) {
                Some(best) => writeln!(
                    out,
                    "{:<24} {:>9} {:>14.6} {:>8}",
                    m.name(),
                    best.truss.k,
                    best.score,
                    best.truss.vertices.len()
                )?,
                None => writeln!(out, "{:<24} {:>9} {:>14} {:>8}", m.name(), "-", "-", "-")?,
            }
        }
        return Ok(());
    }
    let profile = bestk_truss::truss_set_profile(&g, &idx, &t);
    writeln!(out, "{:<24} {:>9} {:>14}", "metric", "best k", "score")?;
    for m in metrics {
        match profile.best(&m) {
            Some(best) => writeln!(out, "{:<24} {:>9} {:>14.6}", m.name(), best.k, best.score)?,
            None => writeln!(out, "{:<24} {:>9} {:>14}", m.name(), "-", "-")?,
        }
    }
    Ok(())
}

/// `bestk generate <family> --n N [...] --seed S --out FILE`.
pub fn generate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "seed",
        "n",
        "m",
        "p",
        "avg-deg",
        "gamma",
        "scale",
        "edge-factor",
        "attach",
        "k",
        "beta",
        "cliques",
        "min-size",
        "max-size",
        "out",
    ])?;
    let family = args.positional(0, "family")?;
    let seed: u64 = args.opt_num("seed", 42)?;
    let g = match family {
        "er-gnm" => {
            let n: usize = args.require_num("n")?;
            let m: usize = args.require_num("m")?;
            generators::erdos_renyi_gnm(n, m, seed)
        }
        "er-gnp" => {
            let n: usize = args.require_num("n")?;
            let p: f64 = args.require_num("p")?;
            generators::erdos_renyi_gnp(n, p, seed)
        }
        "chung-lu" => {
            let n: usize = args.require_num("n")?;
            let avg: f64 = args.opt_num("avg-deg", 10.0)?;
            let gamma: f64 = args.opt_num("gamma", 2.5)?;
            generators::chung_lu_power_law(n, avg, gamma, seed)
        }
        "rmat" => {
            let scale: u32 = args.require_num("scale")?;
            let ef: usize = args.opt_num("edge-factor", 16)?;
            generators::rmat(scale, ef, 0.57, 0.19, 0.19, seed)
        }
        "ba" => {
            let n: usize = args.require_num("n")?;
            let attach: usize = args.opt_num("attach", 3)?;
            generators::barabasi_albert(n, attach, seed)
        }
        "ws" => {
            let n: usize = args.require_num("n")?;
            let k: usize = args.opt_num("k", 6)?;
            let beta: f64 = args.opt_num("beta", 0.1)?;
            generators::watts_strogatz(n, k, beta, seed)
        }
        "cliques" => {
            let n: usize = args.require_num("n")?;
            let cliques: usize = args.require_num("cliques")?;
            let lo: usize = args.opt_num("min-size", 3)?;
            let hi: usize = args.opt_num("max-size", 10)?;
            generators::overlapping_cliques(n, cliques, (lo, hi), seed)
        }
        other => return Err(CliError::Usage(format!("unknown family {other:?}"))),
    };
    let path = args
        .opt("out")
        .ok_or_else(|| CliError::Usage("generate requires --out FILE".into()))?;
    write_by_extension(&g, path)?;
    writeln!(
        out,
        "wrote {}: n={}, m={}",
        path,
        g.num_vertices(),
        g.num_edges()
    )?;
    Ok(())
}

/// `bestk convert <in> <out>`.
pub fn convert(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[])?;
    let src = args.positional(0, "in")?;
    let dst = args.positional(1, "out")?;
    let g = load_graph(src)?;
    write_by_extension(&g, dst)?;
    writeln!(
        out,
        "wrote {dst}: n={}, m={}",
        g.num_vertices(),
        g.num_edges()
    )?;
    Ok(())
}

/// Parses `--budget-mb` into a byte budget: a strictly positive integer
/// (0, negatives, and non-numeric values are usage errors).
fn budget_bytes(args: &ParsedArgs) -> Result<Option<usize>, CliError> {
    let Some(raw) = args.opt("budget-mb") else {
        return Ok(None);
    };
    let bad = || {
        CliError::Usage(format!(
            "--budget-mb expects a positive integer (megabytes), got {raw:?}"
        ))
    };
    let mb: usize = raw.parse().map_err(|_| bad())?;
    if mb == 0 {
        return Err(bad());
    }
    Ok(Some(mb.saturating_mul(1024 * 1024)))
}

/// Parses `--timeout-ms` into a read timeout: strictly positive.
fn timeout_opt(args: &ParsedArgs) -> Result<Option<std::time::Duration>, CliError> {
    let Some(raw) = args.opt("timeout-ms") else {
        return Ok(None);
    };
    let bad = || {
        CliError::Usage(format!(
            "--timeout-ms expects a positive integer (milliseconds), got {raw:?}"
        ))
    };
    let ms: u64 = raw.parse().map_err(|_| bad())?;
    if ms == 0 {
        return Err(bad());
    }
    Ok(Some(std::time::Duration::from_millis(ms)))
}

/// `bestk snapshot <graph> <out.bestk> [--threads N]`: build the full
/// index and persist it in the `.bestk` format, which `bestk query`, the
/// serving loop, and `load_or_rebuild` open zero-copy.
pub fn snapshot(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["threads"])?;
    let policy = args.exec_policy()?;
    let src = args.positional(0, "graph")?;
    let dst = args.positional(1, "out.bestk")?;
    let g = load_graph(src)?;
    let mut ds = bestk_engine::Dataset::from_graph(g);
    ds.ensure_built(&policy);
    bestk_engine::save_snapshot_v2_path(&ds, dst)?;
    match ds.answer(&bestk_engine::Query::Stats) {
        Ok(stats) => writeln!(out, "wrote {dst}\t{}", stats.to_line())?,
        Err(e) => return Err(CliError::Engine(e)),
    }
    Ok(())
}

/// `bestk query <snapshot> <query>... [--threads N] [--budget-mb N]`: load
/// a snapshot, replaying its write-ahead log (`<snapshot>.wal`) read-only
/// if one exists, and answer each query (one shell argument per query, e.g.
/// `"bestkset ad"`), printing one `ok`/`err` reply line per query — the
/// same lines the serving loop would emit.
pub fn query(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["threads", "budget-mb"])?;
    let policy = args.exec_policy()?;
    let budget = budget_bytes(args)?;
    let snap = args.positional(0, "snapshot")?;
    if args.positional.len() < 2 {
        return Err(CliError::Usage(
            "query requires at least one <query> argument (e.g. \"bestkset ad\")".into(),
        ));
    }
    let mut engine = bestk_engine::Engine::new(budget);
    engine.load_snapshot("snapshot", snap)?;
    let parsed: Vec<Result<bestk_engine::Query, bestk_engine::EngineError>> = args.positional[1..]
        .iter()
        .map(|text| bestk_engine::Query::parse(text))
        .collect();
    let valid: Vec<bestk_engine::Query> = parsed
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .collect();
    let mut answers = engine.query_batch("snapshot", &valid, &policy)?.into_iter();
    for result in parsed {
        match result {
            Ok(_) => match answers.next() {
                Some(Ok(answer)) => writeln!(out, "ok\t{}", answer.to_line())?,
                Some(Err(e)) => writeln!(out, "err\t{e}")?,
                None => {}
            },
            Err(e) => writeln!(out, "err\t{e}")?,
        }
    }
    Ok(())
}

/// Parses one explicit mutation token: `add:u:v` or `del:u:v`.
fn parse_edge_op(token: &str) -> Result<generators::EdgeOp, CliError> {
    let bad = || {
        CliError::Usage(format!(
            "bad op {token:?} (expected add:<u>:<v> or del:<u>:<v>)"
        ))
    };
    let mut parts = token.split(':');
    let kind = parts.next().ok_or_else(bad)?;
    let u: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let v: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    match kind {
        "add" => Ok(generators::EdgeOp::Insert(u, v)),
        "del" => Ok(generators::EdgeOp::Delete(u, v)),
        _ => Err(bad()),
    }
}

/// `bestk mutate <snapshot> [add:u:v|del:u:v ...] [--stream F --count N
/// --seed S] [--commit-every N] [--threads N]`: stage edge mutations
/// against a snapshot through the serving engine and commit them. Every
/// committed op lands in the write-ahead log beside the snapshot
/// (`<snapshot>.wal`), so the mutations survive restarts and are replayed
/// by any later `load`/`query`/`serve` against the same path.
pub fn mutate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["stream", "count", "seed", "commit-every", "threads"])?;
    let policy = args.exec_policy()?;
    let snap = args.positional(0, "snapshot")?;
    let commit_every: usize = args.opt_num("commit-every", 0)?;
    let engine = bestk_engine::SharedEngine::with_budget(None);
    engine.load_snapshot_with_fallback(
        "g",
        snap,
        None,
        &bestk_engine::RetryPolicy::default(),
        &policy,
    )?;
    let ops: Vec<generators::EdgeOp> = match args.opt("stream") {
        None => {
            if args.positional.len() < 2 {
                return Err(CliError::Usage(
                    "mutate requires ops (add:<u>:<v> / del:<u>:<v>) or --stream".into(),
                ));
            }
            args.positional[1..]
                .iter()
                .map(|t| parse_edge_op(t))
                .collect::<Result<_, _>>()?
        }
        Some(family) => {
            if args.positional.len() > 1 {
                return Err(CliError::Usage(
                    "explicit ops and --stream are mutually exclusive".into(),
                ));
            }
            let count: usize = args.opt_num("count", 100)?;
            let seed: u64 = args.opt_num("seed", 1)?;
            let dataset = engine.guard().checkout("g")?;
            let csr = dataset.graph().as_csr()?;
            match family {
                "mixed" => generators::edge_stream_mixed(&csr, count, seed),
                "delete-heavy" => generators::edge_stream_delete_heavy(&csr, count, seed),
                "focused" => {
                    // Hammer the max-k shell: the adversarial pattern where
                    // every op dirties the deepest sweep levels.
                    let d = bestk_core::core_decomposition(&*csr);
                    let focus = d.shell(d.kmax()).to_vec();
                    generators::edge_stream_focused(&csr, &focus, count, seed)
                }
                other => {
                    return Err(CliError::Usage(format!(
                        "--stream expects mixed, delete-heavy, or focused, got {other:?}"
                    )))
                }
            }
        }
    };
    let total = ops.len();
    let mut staged = 0usize;
    for op in ops {
        engine.stage_edge("g", op)?;
        staged += 1;
        if commit_every > 0 && staged.is_multiple_of(commit_every) {
            write_commit_line(&engine, &policy, out)?;
        }
    }
    if engine.pending_ops("g")? > 0 {
        write_commit_line(&engine, &policy, out)?;
    }
    writeln!(out, "mutated\t{snap}\tops={total}\twal={snap}.wal")?;
    Ok(())
}

/// Commits the staged ops and prints the one-line summary.
fn write_commit_line(
    engine: &bestk_engine::SharedEngine,
    policy: &bestk_exec::ExecPolicy,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let s = engine.commit_edges("g", policy)?;
    let best = match &s.best {
        Some(b) => format!("bestk={}\tscore={}", b.k, b.score),
        None => "bestk=-\tscore=-".into(),
    };
    writeln!(
        out,
        "committed\tops={}\tn={}\tm={}\tkmax={}\t{}{}",
        s.ops,
        s.vertices,
        s.edges,
        s.kmax,
        best,
        if s.compacted { "\tcompacted" } else { "" }
    )?;
    Ok(())
}

/// Parses `--max-inflight` / `--max-line-bytes` into serving limits,
/// starting from [`bestk_engine::ServeLimits::default`]. `--max-inflight 0`
/// is allowed (a drain configuration that sheds every request; the loop
/// answers one request at a time, so any other value admits every
/// request); `--max-line-bytes` must be positive.
fn serve_limits(args: &ParsedArgs) -> Result<bestk_engine::ServeLimits, CliError> {
    let mut limits = bestk_engine::ServeLimits::default();
    if let Some(raw) = args.opt("max-inflight") {
        limits.max_inflight = raw.parse().map_err(|_| {
            CliError::Usage(format!(
                "--max-inflight expects a non-negative integer, got {raw:?}"
            ))
        })?;
    }
    if let Some(raw) = args.opt("max-line-bytes") {
        let bad = || {
            CliError::Usage(format!(
                "--max-line-bytes expects a positive integer, got {raw:?}"
            ))
        };
        let n: usize = raw.parse().map_err(|_| bad())?;
        if n == 0 {
            return Err(bad());
        }
        limits.max_line_bytes = n;
    }
    Ok(limits)
}

/// `bestk serve [--port P | --stdin] [--budget-mb N] [--threads N]
/// [--timeout-ms T] [--max-inflight N] [--max-line-bytes N]
/// [--metrics-dump] [--record FILE]`: run the line-oriented serving loop
/// over stdin/stdout (the default; `--stdin` names it explicitly), or over
/// a loopback TCP listener when `--port` is given. With `--metrics-dump`
/// the metrics exposition is printed after the loop exits. With `--record`
/// the session (requests, replies, clock readings, and the `BESTK_FAULTS`
/// spec) is captured to a checksummed `.bestkrec` file for `bestk replay`;
/// recording is stdio-only because the TCP accept loop owns its streams.
pub fn serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "port",
        "stdin",
        "budget-mb",
        "threads",
        "timeout-ms",
        "max-inflight",
        "max-line-bytes",
        "metrics-dump",
        "record",
    ])?;
    if !args.positional.is_empty() {
        return Err(CliError::Usage(
            "serve takes no positional arguments (datasets are loaded via the protocol)".into(),
        ));
    }
    let policy = args.exec_policy()?;
    let budget = budget_bytes(args)?;
    let timeout = timeout_opt(args)?;
    let limits = serve_limits(args)?;
    let port: Option<u16> = match args.opt("port") {
        None => None,
        Some(raw) => {
            let bad = || {
                CliError::Usage(format!(
                    "--port expects a positive integer below 65536, got {raw:?}"
                ))
            };
            let p: u16 = raw.parse().map_err(|_| bad())?;
            if p == 0 {
                return Err(bad());
            }
            Some(p)
        }
    };
    if args.flag("stdin") && port.is_some() {
        return Err(CliError::Usage(
            "--stdin and --port are mutually exclusive".into(),
        ));
    }
    let record = args.opt("record");
    if record.is_some() && port.is_some() {
        return Err(CliError::Usage(
            "--record requires the stdio transport (drop --port)".into(),
        ));
    }
    let engine = bestk_engine::SharedEngine::with_budget(budget);
    match port {
        None => {
            let mut recording = record.map(|path| {
                let spec = std::env::var("BESTK_FAULTS").unwrap_or_default();
                (path, bestk_engine::ServeRecorder::new(&limits, &spec))
            });
            let recorder = recording.as_mut().map(|(_, recorder)| recorder);
            bestk_engine::Session::new(&engine, &policy, &limits, recorder)
                .serve(std::io::stdin().lock(), &mut *out)?;
            if let Some((path, recorder)) = recording {
                recorder.save(path)?;
                writeln!(out, "recorded\t{path}")?;
            }
        }
        Some(port) => {
            bestk_engine::serve_tcp(&engine, &policy, port, timeout, &limits, |addr| {
                // Best-effort bind notice; the accept loop is the product.
                let _ = writeln!(out, "serving on {addr}");
            })?;
        }
    }
    if args.flag("metrics-dump") {
        write!(out, "{}", bestk_obs::snapshot().render())?;
    }
    Ok(())
}

/// `bestk replay <recording> [--threads N]`: re-drive a `.bestkrec` session
/// recorded by `serve --record` through a fresh engine and diff every reply
/// byte-for-byte against what was recorded. A divergence is a `Failed`
/// error naming the first differing request, so CI can gate on it.
pub fn replay(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["threads"])?;
    let policy = args.exec_policy()?;
    let path = args.positional(0, "recording")?;
    let engine = bestk_engine::SharedEngine::with_budget(None);
    let report = bestk_engine::replay_recording_path(path, &engine, &policy)?;
    writeln!(
        out,
        "replay\t{path}\trequests={}\tmatched={}\tmismatches={}",
        report.requests,
        report.matched,
        report.mismatches.len()
    )?;
    for m in &report.mismatches {
        writeln!(out, "mismatch\t#{}\t{}", m.index, m.line)?;
        writeln!(out, "  recorded: {}", m.recorded)?;
        writeln!(out, "  replayed: {}", m.replayed)?;
    }
    if !report.clean() {
        return Err(CliError::Failed(format!(
            "replay diverged on {} of {} requests",
            report.mismatches.len(),
            report.requests
        )));
    }
    Ok(())
}

/// `bestk fuzz <surface>|all [--seeds N] [--budget-bytes B]
/// [--seed-start S]`: run the structured fuzzers from `bestk-fuzz` over a
/// deterministic seed range. Each input must parse to a valid result or a
/// typed error — a panic or a budget violation fails the command, and the
/// per-surface tallies are printed either way. Surfaces: `graph-io`,
/// `snapshot`, `wal`, `serve`.
pub fn fuzz(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["seeds", "budget-bytes", "seed-start"])?;
    let name = args.positional(0, "surface")?;
    let surfaces: Vec<bestk_fuzz::Surface> = if name == "all" {
        bestk_fuzz::ALL_SURFACES.to_vec()
    } else {
        vec![bestk_fuzz::Surface::parse(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown surface {name:?} (expected graph-io, snapshot, wal, serve, or all)"
            ))
        })?]
    };
    let seeds: u64 = args.opt_num("seeds", 256)?;
    if seeds == 0 {
        return Err(CliError::Usage(
            "--seeds must be at least 1 (a zero-seed sweep proves nothing)".into(),
        ));
    }
    let budget: usize = args.opt_num("budget-bytes", bestk_fuzz::DEFAULT_BUDGET_BYTES)?;
    if budget == 0 {
        return Err(CliError::Usage("--budget-bytes must be at least 1".into()));
    }
    let seed_start: u64 = args.opt_num("seed-start", 0)?;
    let mut dirty = Vec::new();
    for surface in surfaces {
        let report = bestk_fuzz::run_surface(surface, seed_start, seeds, budget);
        writeln!(
            out,
            "fuzz\t{}\tinputs={}\tvalid={}\ttyped_errors={}\tpanics={}\tviolations={}",
            surface.name(),
            report.inputs,
            report.valid,
            report.typed_errors,
            report.panics,
            report.violations
        )?;
        if !report.clean() {
            dirty.push(surface.name());
        }
    }
    if !dirty.is_empty() {
        return Err(CliError::Failed(format!(
            "fuzzing found failures on: {}",
            dirty.join(", ")
        )));
    }
    Ok(())
}

/// `bestk metrics <graph> [--threads N]`: run the full best-k pipeline
/// (decomposition peel, metric sweeps, best-k selection) once on `graph`
/// and print the metrics exposition — the quickest way to see the phase
/// timing counters the paper's cost model is stated in.
pub fn metrics(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["threads"])?;
    let policy = args.exec_policy()?;
    let g = load_graph(args.positional(0, "graph")?)?;
    let mut dataset = bestk_engine::Dataset::from_graph(g);
    dataset.ensure_built(&policy);
    // Exercise the selection phase for both answer shapes.
    for query in [
        bestk_engine::Query::BestKSet {
            metric: Metric::AverageDegree,
        },
        bestk_engine::Query::BestCore {
            metric: Metric::AverageDegree,
        },
    ] {
        dataset.answer(&query).map_err(CliError::Engine)?;
    }
    write!(out, "{}", bestk_obs::snapshot().render())?;
    Ok(())
}

fn write_by_extension(g: &bestk_graph::CsrGraph, path: &str) -> Result<(), CliError> {
    if path.ends_with(".bin") {
        io::write_binary_path(g, path)?;
    } else if path.ends_with(".metis") || path.ends_with(".graph") {
        io::write_metis_path(g, path)?;
    } else if path.ends_with(".dot") {
        io::write_dot_path(g, path, None)?;
    } else {
        io::write_edge_list_path(g, path)?;
    }
    Ok(())
}

fn preview(v: &[u32], limit: usize) -> Vec<u32> {
    v.iter().copied().take(limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::GraphBuilder;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        crate::run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn fixture_path(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("bestk-cli-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    fn write_figure2() -> String {
        let path = fixture_path("fig2.txt");
        let g = bestk_graph::generators::paper_figure2();
        // Tests run in parallel and share this file: write a private copy
        // and rename it into place, so no reader sees a half-written graph.
        let tmp = fixture_path(&format!("fig2.txt.{:?}", std::thread::current().id()));
        io::write_edge_list_path(&g, &tmp).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        path
    }

    #[test]
    fn stats_reports_kmax() {
        let path = write_figure2();
        let out = run(&["stats", &path]).unwrap();
        assert!(out.contains("vertices        12"));
        assert!(out.contains("edges           19"));
        assert!(out.contains("kmax            3"));
        assert!(out.contains("components      1"));
    }

    #[test]
    fn analyze_reports_all_metrics() {
        let path = write_figure2();
        let out = run(&["analyze", &path]).unwrap();
        assert!(out.contains("average degree"));
        assert!(out.contains("clustering coefficient"));
        // Example 4: best set k for average degree is 2.
        let ad_line = out
            .lines()
            .find(|l| l.starts_with("average degree"))
            .unwrap();
        assert!(ad_line.split_whitespace().any(|t| t == "2"), "{ad_line}");
    }

    #[test]
    fn analyze_single_metric_and_extended() {
        let path = write_figure2();
        let out = run(&["analyze", &path, "--metric", "cc"]).unwrap();
        assert!(out.contains("clustering coefficient"));
        assert!(!out.contains("modularity"));
        let out = run(&["analyze", &path, "--extended"]).unwrap();
        assert!(out.contains("separability"));
    }

    #[test]
    fn profile_emits_csv() {
        let path = write_figure2();
        let out = run(&["profile", &path, "--metric", "ad"]).unwrap();
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("k,score"));
        assert!(out.lines().count() >= 4);
        let out = run(&["profile", &path, "--metric", "ad", "--single"]).unwrap();
        assert!(out.starts_with("k,score"));
        assert!(run(&["profile", &path]).is_err(), "missing --metric");
        assert!(matches!(
            run(&["profile", &path, "--metric", "xyz"]),
            Err(CliError::Usage(msg)) if msg.starts_with("unknown metric \"xyz\"")
        ));
    }

    #[test]
    fn densest_methods_agree_on_figure2() {
        let path = write_figure2();
        for method in ["opt-d", "core-app", "peel", "exact"] {
            let out = run(&["densest", &path, "--method", method]).unwrap();
            assert!(out.contains("average degree"), "{method}");
        }
        assert!(run(&["densest", &path, "--method", "bogus"]).is_err());
    }

    #[test]
    fn clique_on_figure2_is_k4() {
        let path = write_figure2();
        let out = run(&["clique", &path]).unwrap();
        assert!(out.contains("maximum clique size 4"));
    }

    #[test]
    fn sck_roundtrip_and_errors() {
        let path = fixture_path("k20.txt");
        let mut b = GraphBuilder::new();
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                b.add_edge(u, v);
            }
        }
        io::write_edge_list_path(&b.build(), &path).unwrap();
        let out = run(&["sck", &path, "--k", "5", "--h", "10", "--query", "0"]).unwrap();
        assert!(out.contains("hit (<=5% dev)  true"), "{out}");
        assert!(run(&["sck", &path, "--k", "5", "--h", "10", "--query", "99"]).is_err());
        assert!(run(&["sck", &path, "--k", "25", "--h", "10", "--query", "0"]).is_err());
        assert!(
            run(&["sck", &path, "--h", "10", "--query", "0"]).is_err(),
            "missing --k"
        );
    }

    #[test]
    fn mutate_commits_explicit_ops_durably() {
        let graph = write_figure2();
        let snap = fixture_path("mutate.bestk");
        for stale in ["mutate.bestk.wal", "mutate.bestk.wal.quarantine"] {
            let _ = std::fs::remove_file(fixture_path(stale));
        }
        run(&["snapshot", &graph, &snap]).unwrap();
        let out = run(&["mutate", &snap, "add:0:11", "del:0:1"]).unwrap();
        assert!(out.contains("committed\tops=2\tn=12\tm=19\tkmax="), "{out}");
        assert!(out.contains(&format!("wal={snap}.wal")), "{out}");
        // The WAL sits beside the snapshot and replays on the next load:
        // deleting the edge added above only works if it was replayed.
        let out = run(&["mutate", &snap, "del:0:11"]).unwrap();
        assert!(out.contains("committed\tops=1\tn=12\tm=18\t"), "{out}");
        // Invalid ops are typed rejections, not panics.
        assert!(run(&["mutate", &snap, "add:0:0"]).is_err());
        assert!(run(&["mutate", &snap, "bogus"]).is_err());
        assert!(run(&["mutate", &snap]).is_err(), "no ops given");
    }

    #[test]
    fn mutate_streams_are_deterministic() {
        let graph = write_figure2();
        let snap = fixture_path("mutate-stream.bestk");
        let _ = std::fs::remove_file(fixture_path("mutate-stream.bestk.wal"));
        run(&["snapshot", &graph, &snap]).unwrap();
        let args = [
            "mutate",
            &snap,
            "--stream",
            "mixed",
            "--count",
            "20",
            "--seed",
            "7",
            "--commit-every",
            "8",
        ];
        let out = run(&args).unwrap();
        assert_eq!(
            out.lines().filter(|l| l.starts_with("committed\t")).count(),
            3,
            "{out}"
        );
        assert!(out.contains("ops=20"), "{out}");
        assert!(run(&["mutate", &snap, "--stream", "bogus"]).is_err());
        assert!(
            run(&["mutate", &snap, "add:0:11", "--stream", "mixed"]).is_err(),
            "ops and --stream are exclusive"
        );
    }

    #[test]
    fn community_command_on_figure2() {
        let path = write_figure2();
        // v1 sits in a K4 — the max-min-degree community is that 3-core.
        let out = run(&["community", &path, "--query", "0"]).unwrap();
        assert!(out.contains("k = 3, |S| = 4"), "{out}");
        let out = run(&["community", &path, "--query", "0", "--metric", "den"]).unwrap();
        assert!(out.contains("best internal density community"), "{out}");
        assert!(out.contains("score = 1.000000"), "{out}");
        assert!(run(&["community", &path, "--query", "99"]).is_err());
        assert!(run(&["community", &path, "--query", "0", "--metric", "cc"]).is_err());
        // Constraints: impossible min-k falls through gracefully.
        let out = run(&[
            "community",
            &path,
            "--query",
            "0",
            "--metric",
            "ad",
            "--min-k",
            "50",
        ])
        .unwrap();
        assert!(out.contains("no community satisfies"), "{out}");
    }

    #[test]
    fn truss_on_figure2() {
        let path = write_figure2();
        let out = run(&["truss", &path, "--metric", "den"]).unwrap();
        assert!(out.contains("tmax = 4"));
        assert!(out
            .lines()
            .any(|l| l.starts_with("internal density") && l.contains('4')));
    }

    #[test]
    fn truss_single_on_figure2() {
        let path = write_figure2();
        let out = run(&["truss", &path, "--metric", "den", "--single"]).unwrap();
        assert!(out.contains("tmax = 4"));
        // Best single 4-truss is a K4: density 1 over 4 vertices.
        let line = out
            .lines()
            .find(|l| l.starts_with("internal density"))
            .unwrap();
        assert!(line.contains("1.000000"), "{line}");
        assert!(line.trim_end().ends_with('4'), "{line}");
    }

    #[test]
    fn convert_to_metis_and_back() {
        let txt = fixture_path("m.txt");
        let metis = fixture_path("m.metis");
        let back = fixture_path("m2.txt");
        let g = bestk_graph::generators::paper_figure2();
        io::write_edge_list_path(&g, &txt).unwrap();
        run(&["convert", &txt, &metis]).unwrap();
        let out = run(&["stats", &metis]).unwrap();
        assert!(out.contains("edges           19"), "{out}");
        run(&["convert", &metis, &back]).unwrap();
        let g2 = crate::load_graph(&back).unwrap();
        assert_eq!(g2.num_edges(), 19);
    }

    #[test]
    fn convert_to_dot() {
        let txt = fixture_path("d.txt");
        let dot = fixture_path("d.dot");
        io::write_edge_list_path(&bestk_graph::generators::regular::complete(4), &txt).unwrap();
        run(&["convert", &txt, &dot]).unwrap();
        let content = std::fs::read_to_string(&dot).unwrap();
        assert!(content.starts_with("graph bestk {"));
        assert_eq!(content.matches(" -- ").count(), 6);
    }

    #[test]
    fn verify_flag_passes_on_honest_outputs() {
        let path = write_figure2();
        let out = run(&["stats", &path, "--verify"]).unwrap();
        assert!(out.contains("invariants hold"), "{out}");
        let out = run(&["analyze", &path, "--verify"]).unwrap();
        assert!(out.contains("re-checked against baselines"), "{out}");
        let out = run(&["truss", &path, "--verify"]).unwrap();
        assert!(out.contains("truss decomposition invariants hold"), "{out}");
    }

    #[test]
    fn threads_flag_output_is_identical_across_counts() {
        // The determinism contract, end to end: every command that takes
        // --threads must print byte-identical reports at 1 and 4 threads
        // (and with the flag absent).
        let path = write_figure2();
        for cmd in ["analyze", "truss"] {
            let default = run(&[cmd, &path]).unwrap();
            let one = run(&[cmd, &path, "--threads", "1"]).unwrap();
            let four = run(&[cmd, &path, "--threads=4"]).unwrap();
            assert_eq!(one, default, "{cmd}: --threads=1 vs default");
            assert_eq!(four, default, "{cmd}: --threads=4 vs default");
        }
    }

    #[test]
    fn threads_flag_rejects_zero_and_non_numeric() {
        let path = write_figure2();
        for bad in ["0", "abc", "-2", "1.5", ""] {
            let err = run(&["analyze", &path, &format!("--threads={bad}")])
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("positive integer") && err.contains("--threads=4"),
                "{bad:?}: {err}"
            );
        }
        // Commands without parallel kernels do not accept the flag.
        for cmd in ["clique", "stats"] {
            let err = run(&[cmd, &path, "--threads", "2"]).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd}: {err}");
            assert!(err.to_string().contains("--threads"), "{cmd}: {err}");
        }
    }

    #[test]
    fn typoed_flag_is_rejected_not_ignored() {
        let path = write_figure2();
        let err = run(&["stats", &path, "--verfy"]).unwrap_err().to_string();
        assert!(err.contains("--verfy"), "{err}");
        assert!(err.contains("--verify"), "{err}");
        let err = run(&["clique", &path, "--verify"]).unwrap_err().to_string();
        assert!(err.contains("takes no options"), "{err}");
        // `stats` reads the one loaded graph; there is no storage option.
        let err = run(&["stats", &path, "--backend", "csr"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn generate_and_convert_roundtrip() {
        let txt = fixture_path("gen.txt");
        let bin = fixture_path("gen.bin");
        let out = run(&[
            "generate", "er-gnm", "--n", "50", "--m", "120", "--seed", "7", "--out", &txt,
        ])
        .unwrap();
        assert!(out.contains("m=120"));
        let out = run(&["convert", &txt, &bin]).unwrap();
        assert!(out.contains("m=120"));
        let g = crate::load_graph(&bin).unwrap();
        assert_eq!(g.num_edges(), 120);
        assert!(run(&["generate", "bogus", "--out", &txt]).is_err());
        assert!(
            run(&["generate", "er-gnm", "--n", "50", "--m", "120"]).is_err(),
            "missing --out"
        );
    }

    #[test]
    fn generate_all_families() {
        for (family, extra) in [
            ("er-gnp", vec!["--n", "40", "--p", "0.1"]),
            ("ws", vec!["--n", "60", "--k", "4"]),
            ("chung-lu", vec!["--n", "100"]),
            ("rmat", vec!["--scale", "6"]),
            ("ba", vec!["--n", "50"]),
            ("cliques", vec!["--n", "60", "--cliques", "10"]),
        ] {
            let path = fixture_path(&format!("{family}.txt"));
            let mut args = vec!["generate", family];
            args.extend(extra.iter());
            args.extend(["--out", &path]);
            let out = run(&args).unwrap();
            assert!(out.contains("wrote"), "{family}");
        }
    }

    #[test]
    fn snapshot_then_query_round_trip() {
        let graph = write_figure2();
        let snap = fixture_path("fig2.bestk");
        let out = run(&["snapshot", &graph, &snap]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("stats\tn=12\tm=19\tkmax=3"), "{out}");
        let out = run(&[
            "query",
            &snap,
            "stats",
            "bestkset ad",
            "bestcore cc",
            "coreof 5",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
        assert_eq!(lines[1], "ok\tbestkset\tad\tk=2\tscore=3.1666666666666665");
        assert!(lines[2].starts_with("ok\tbestcore\tcc\t"), "{}", lines[2]);
        assert_eq!(lines[3], "ok\tcoreof\t5\tcoreness=2");
    }

    #[test]
    fn query_output_is_identical_at_every_thread_count() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-threads.bestk");
        run(&["snapshot", &graph, &snap, "--threads", "2"]).unwrap();
        let queries = [
            "stats",
            "profile ad",
            "profile mod",
            "bestkset den",
            "bestcore sep",
            "coreof 0",
            "coreof 11",
        ];
        let mut base = None;
        for threads in ["1", "2", "4"] {
            let mut args = vec!["query", &snap];
            args.extend(queries.iter());
            args.extend(["--threads", threads]);
            let out = run(&args).unwrap();
            match &base {
                None => base = Some(out),
                Some(expected) => assert_eq!(&out, expected, "threads={threads}"),
            }
        }
    }

    #[test]
    fn query_emits_err_lines_for_bad_queries_without_failing() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-err.bestk");
        run(&["snapshot", &graph, &snap]).unwrap();
        let out = run(&["query", &snap, "bestkset zz", "coreof 999", "stats"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err\tbad query"), "{}", lines[0]);
        assert!(lines[1].starts_with("err\tbad query"), "{}", lines[1]);
        assert_eq!(lines[2], "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
    }

    #[test]
    fn query_rejects_corrupt_snapshots_structurally() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-corrupt.bestk");
        run(&["snapshot", &graph, &snap]).unwrap();
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        let err = run(&["query", &snap, "stats"]).unwrap_err();
        assert!(matches!(err, CliError::Engine(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn engine_commands_strictly_parse_options() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-strict.bestk");
        run(&["snapshot", &graph, &snap]).unwrap();
        for bad in [
            vec!["snapshot", &graph, &snap, "--threads", "0"],
            vec!["snapshot", &graph, &snap, "--budget-mb", "4"],
            vec!["query", &snap, "stats", "--threads", "nope"],
            vec!["query", &snap, "stats", "--budget-mb", "0"],
            vec!["query", &snap, "stats", "--budget-mb", "-3"],
            vec!["query", &snap, "stats", "--port", "9"],
            vec!["query", &snap],
            vec!["serve", "--port", "0"],
            vec!["serve", "--port", "70000"],
            vec!["serve", "--port", "abc"],
            vec!["serve", "--timeout-ms", "0"],
            vec!["serve", "--timeout-ms", "soon"],
            vec!["serve", "--budget-mb", "0"],
            vec!["serve", "--listen", "1234"],
            vec!["serve", "stray-positional"],
            vec!["serve", "--stdin", "--port", "7878"],
            vec!["metrics", &graph, "--threads", "0"],
            vec!["metrics", &graph, "--verbose"],
            vec!["metrics"],
        ] {
            let err = run(&bad).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn metrics_command_prints_the_exposition() {
        let graph = write_figure2();
        let out = run(&["metrics", &graph]).unwrap();
        for needle in [
            "phase.peel.calls ",
            "phase.sweep.calls ",
            "phase.select.calls ",
            "exec.dispatches ",
        ] {
            assert!(
                out.lines().any(|l| l.starts_with(needle)),
                "missing {needle:?} in:\n{out}"
            );
        }
        // Exposition lines are `name value`.
        for line in out.lines() {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<i64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn snapshot_round_trips_through_query() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-roundtrip.bestk");
        let out = run(&["snapshot", &graph, &snap]).unwrap();
        assert!(out.contains("stats\tn=12\tm=19\tkmax=3"), "{out}");
        let out = run(&["query", &snap, "stats", "bestkset ad", "coreof 5"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
        assert_eq!(lines[1], "ok\tbestkset\tad\tk=2\tscore=3.1666666666666665");
        assert_eq!(lines[2], "ok\tcoreof\t5\tcoreness=2");
        // One format: the retired --format option is a usage error.
        let err = run(&["snapshot", &graph, &snap, "--format", "v2"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn query_rejects_a_corrupt_graph_section() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-graphflip.bestk");
        run(&["snapshot", &graph, &snap]).unwrap();
        // Byte 300 sits in Figure 2's graph section (bytes 192..464), whose
        // checksum opening defers; the strict query load checks it.
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[300] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let err = run(&["query", &snap, "stats"]).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch in graph"),
            "{err}"
        );
    }

    #[test]
    fn query_replays_the_write_ahead_log() {
        let graph = write_figure2();
        let snap = fixture_path("query-wal.bestk");
        let wal = format!("{snap}.wal");
        let _ = std::fs::remove_file(&wal);
        run(&["snapshot", &graph, &snap]).unwrap();
        // The read-only query creates no log of its own.
        let out = run(&["query", &snap, "stats"]).unwrap();
        assert!(out.starts_with("ok\tstats\tn=12\tm=19\t"), "{out}");
        assert!(!std::path::Path::new(&wal).exists());
        // One absent edge committed to the log, then replayed by the query.
        run(&["mutate", &snap, "add:0:11"]).unwrap();
        let out = run(&["query", &snap, "stats"]).unwrap();
        assert!(out.starts_with("ok\tstats\tn=12\tm=20\t"), "{out}");
        // A live server stages a second edge. The query replays only the
        // committed prefix and writes no byte of the log, so the server's
        // later commit lands where it belongs and replays.
        let seq = bestk_exec::ExecPolicy::Sequential;
        let server = bestk_engine::SharedEngine::with_budget(None);
        let retry = bestk_engine::RetryPolicy::none();
        server
            .load_snapshot_with_fallback("g", &snap, None, &retry, &seq)
            .unwrap();
        server
            .stage_edge("g", generators::EdgeOp::Insert(1, 11))
            .unwrap();
        let staged = std::fs::read(&wal).unwrap();
        let out = run(&["query", &snap, "stats"]).unwrap();
        assert!(out.starts_with("ok\tstats\tn=12\tm=20\t"), "{out}");
        assert_eq!(std::fs::read(&wal).unwrap(), staged);
        assert!(!std::path::Path::new(&format!("{wal}.quarantine")).exists());
        server.commit_edges("g", &seq).unwrap();
        drop(server);
        let out = run(&["query", &snap, "stats"]).unwrap();
        assert!(out.starts_with("ok\tstats\tn=12\tm=21\t"), "{out}");
    }

    #[test]
    fn query_respects_budget_option() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-budget.bestk");
        run(&["snapshot", &graph, &snap]).unwrap();
        let out = run(&["query", &snap, "stats", "--budget-mb", "64"]).unwrap();
        assert!(out.starts_with("ok\tstats"), "{out}");
    }

    #[test]
    fn fuzz_sweeps_a_surface_and_tallies() {
        let out = run(&["fuzz", "wal", "--seeds", "4"]).unwrap();
        let line = out.lines().next().unwrap();
        assert!(line.starts_with("fuzz\twal\tinputs="), "{out}");
        assert!(line.contains("panics=0"), "{out}");
        assert!(line.contains("violations=0"), "{out}");
        // `all` sweeps every surface.
        let out = run(&["fuzz", "all", "--seeds", "2"]).unwrap();
        for surface in ["graph-io", "snapshot", "wal", "serve"] {
            assert!(out.contains(&format!("fuzz\t{surface}\t")), "{out}");
        }
        assert!(matches!(
            run(&["fuzz", "nope"]).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run(&["fuzz", "wal", "--budget", "1"]).unwrap_err(),
            CliError::Usage(_)
        ));
        // Zero-valued knobs are strict usage errors, not silent no-ops.
        assert!(matches!(
            run(&["fuzz", "wal", "--seeds", "0"]).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run(&["fuzz", "wal", "--budget-bytes", "0"]).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn replay_round_trips_a_recorded_session() {
        let graph = write_figure2();
        let snap = fixture_path("fig2-replay.bestk");
        run(&["snapshot", &graph, &snap]).unwrap();
        // Record a session by hand — the serve command reads the process
        // stdin, so tests drive the library entry point directly.
        let limits = bestk_engine::ServeLimits::default();
        let mut recorder = bestk_engine::ServeRecorder::new(&limits, "");
        let engine = bestk_engine::SharedEngine::with_budget(None);
        let policy = bestk_exec::ExecPolicy::auto();
        let session = format!("load g {snap}\nquery g stats\nquit\n");
        let mut replies = Vec::new();
        bestk_engine::Session::new(&engine, &policy, &limits, Some(&mut recorder))
            .serve(session.as_bytes(), &mut replies)
            .unwrap();
        let rec = fixture_path("session.bestkrec");
        recorder.save(&rec).unwrap();

        let out = run(&["replay", &rec]).unwrap();
        assert!(out.contains("requests=3"), "{out}");
        assert!(out.contains("mismatches=0"), "{out}");
        // Thread count must not change a single reply byte.
        for threads in ["1", "2", "4"] {
            let out = run(&["replay", &rec, "--threads", threads]).unwrap();
            assert!(out.contains("mismatches=0"), "{out}");
        }
        // A corrupt recording is a typed engine error, not a panic.
        let bad = fixture_path("bad.bestkrec");
        std::fs::write(&bad, b"BESTKREC1 but then garbage").unwrap();
        assert!(matches!(
            run(&["replay", &bad]).unwrap_err(),
            CliError::Engine(_)
        ));
    }

    #[test]
    fn serve_record_rejects_the_tcp_transport() {
        let err = run(&["serve", "--port", "1234", "--record", "x.bestkrec"]).unwrap_err();
        assert!(err.to_string().contains("stdio"), "{err}");
    }
}
