//! Request traffic: the read-request universe with its expected replies,
//! closed-loop sessions, write cycles, the serve-layer ladder, and the
//! checks against a cold rebuild.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bestk_core::Metric;
use bestk_delta::DeltaIndex;
use bestk_engine::{
    handle_request, Answer, Dataset, EngineError, Query, SharedEngine, COMPACT_OPS,
};
use bestk_exec::{ChunkPlan, ExecPolicy};
use bestk_graph::generators::{edge_stream_mixed, EdgeOp};
use bestk_graph::rng::Xoshiro256;
use bestk_graph::{cast, CsrGraph, GraphBuilder};
use bestk_obs::now_nanos;

use crate::run::{render, Overhead, Run};
use crate::session::{self, Expect, Kind, Outcome, Request};

/// Vertices per dataset that `coreof` requests draw from.
const POOL: usize = 32;
/// Universe index of `stats`; the entries before it are `bestkset` and
/// `bestcore` on each of the 8 metrics — the ingest check.
pub const STATS: usize = 16;
/// Edge ops staged per write cycle.
pub const CYCLE_OPS: usize = 16;
/// Write cycles per compaction (256 committed ops). Write phases run whole
/// blocks of this many cycles, so every run has the same mix of first,
/// ordinary and compacting commits.
pub const BLOCK_CYCLES: usize = COMPACT_OPS as usize / CYCLE_OPS;
/// Queries after each commit; the first pays the lazy rebuild.
const CYCLE_QUERIES: usize = 4;

/// One distinct read request and the reply it must get.
pub struct Entry {
    pub key: &'static str,
    pub query: Query,
    pub line: Arc<str>,
    pub reply: Arc<str>,
}

impl Entry {
    /// The request as a `kind` request, checked byte for byte.
    pub fn exact(&self, kind: Kind) -> Request {
        Request {
            line: Arc::clone(&self.line),
            kind,
            expect: Expect::Exact(Arc::clone(&self.reply)),
        }
    }
}

/// Every distinct read request against one dataset: `bestkset` and
/// `bestcore` on each metric, `stats`, `profile` on each metric, and
/// `coreof` over a seeded vertex pool.
pub struct Universe {
    pub key: &'static str,
    pub entries: Vec<Entry>,
}

impl Universe {
    /// Builds the universe over `n` vertices, taking each expected reply
    /// from `answer`.
    pub fn build(
        key: &'static str,
        n: usize,
        seed: u64,
        mut answer: impl FnMut(&Query) -> Result<Answer, EngineError>,
    ) -> Result<Universe, String> {
        let mut queries: Vec<(Query, String)> = Vec::new();
        for metric in Metric::EXTENDED {
            queries.push((
                Query::BestKSet { metric },
                format!("bestkset {}", metric.abbrev()),
            ));
        }
        for metric in Metric::EXTENDED {
            queries.push((
                Query::BestCore { metric },
                format!("bestcore {}", metric.abbrev()),
            ));
        }
        queries.push((Query::Stats, "stats".into()));
        for metric in Metric::EXTENDED {
            queries.push((
                Query::ScoreProfile { metric },
                format!("profile {}", metric.abbrev()),
            ));
        }
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC0_4E0F);
        for v in rng.sample_distinct(n, POOL.min(n)) {
            queries.push((
                Query::CoreOfVertex {
                    vertex: cast::u32_of(v),
                },
                format!("coreof {v}"),
            ));
        }
        let entries = queries
            .into_iter()
            .map(|(query, text)| {
                let answer = answer(&query).map_err(|e| format!("{key}: {text}: {e}"))?;
                Ok(Entry {
                    key,
                    query,
                    line: Arc::from(format!("query {key} {text}")),
                    reply: Arc::from(format!("ok\t{}", answer.to_line())),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Universe { key, entries })
    }

    /// The universe answered by a built dataset.
    pub fn of_dataset(key: &'static str, dataset: &Dataset, seed: u64) -> Result<Universe, String> {
        let n = bestk_graph::GraphView::num_vertices(dataset.graph());
        Universe::build(key, n, seed, |q| dataset.answer(q))
    }

    /// A request from the `serve_read` mix: 40% `bestkset`, 40%
    /// `bestcore`, 10% `profile`, 5% `coreof`, 5% `stats`; metric uniform.
    pub fn pick(&self, rng: &mut Xoshiro256) -> &Entry {
        let metric = rng.next_index(Metric::EXTENDED.len());
        let coreof = STATS + 1 + Metric::EXTENDED.len();
        let i = match rng.next_below(100) {
            0..=39 => metric,
            40..=79 => Metric::EXTENDED.len() + metric,
            80..=89 => STATS + 1 + metric,
            90..=94 => coreof + rng.next_index(self.entries.len() - coreof),
            _ => STATS,
        };
        &self.entries[i]
    }
}

/// Runs `sessions` closed-loop sessions at once, one per worker of
/// `policy`.
pub fn concurrent(
    policy: &ExecPolicy,
    sessions: usize,
    session: impl Fn(usize) -> Outcome + Sync,
) -> Vec<Outcome> {
    policy.map_chunks(
        &ChunkPlan::even(sessions, sessions),
        || (),
        |(), c, _| session(c),
    )
}

/// `graph` with `ops` applied, rebuilt from its edge set.
fn apply_ops(graph: &CsrGraph, ops: &[EdgeOp]) -> Result<CsrGraph, String> {
    let mut edges: BTreeSet<(u32, u32)> = graph.edges().collect();
    for op in ops {
        let (u, v) = op.endpoints();
        let e = (u.min(v), u.max(v));
        let valid = match op {
            EdgeOp::Insert(..) => edges.insert(e),
            EdgeOp::Delete(..) => edges.remove(&e),
        };
        if !valid {
            return Err(format!("edge stream op {op:?} does not apply"));
        }
    }
    let mut builder = GraphBuilder::with_capacity(edges.len());
    builder.reserve_vertices(graph.num_vertices());
    builder.extend_edges(edges);
    Ok(builder.build())
}

impl Run {
    /// `cycles` write cycles against `universe.key`: [`CYCLE_OPS`] staged
    /// edge ops from `edge_stream_mixed`, a commit, then [`CYCLE_QUERIES`]
    /// queries, the first being `bestkset cc`. Untraced runs serve each
    /// cycle as one session and time it whole as the workload's unit;
    /// traced runs call `stage_edge`, `commit_edges` and `query` directly,
    /// tracing every other cycle, and return the cycle times. Returns the
    /// ops applied.
    pub fn write_cycles(
        &mut self,
        engine: &SharedEngine,
        universe: &Universe,
        graph: &CsrGraph,
        cycles: usize,
    ) -> (Vec<EdgeOp>, Overhead) {
        let ops = edge_stream_mixed(graph, cycles * CYCLE_OPS, self.seed ^ 0x5EED);
        let (n, m) = (graph.num_vertices(), graph.num_edges());
        let overhead = if self.traced {
            self.cycles_direct(engine, universe, &ops, (n, m))
        } else {
            self.cycles_served(engine, universe, &ops, (n, m));
            Overhead::default()
        };
        (ops, overhead)
    }

    fn cycles_served(
        &mut self,
        engine: &SharedEngine,
        universe: &Universe,
        ops: &[EdgeOp],
        (n, mut m): (usize, usize),
    ) {
        let key = universe.key;
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0xC7C1E);
        for batch in ops.chunks_exact(CYCLE_OPS) {
            let mut requests = Vec::with_capacity(CYCLE_OPS + 1 + CYCLE_QUERIES);
            for (pos, op) in batch.iter().enumerate() {
                let (u, v) = op.endpoints();
                let (verb, word) = if op.is_insert() {
                    m += 1;
                    ("add-edge", "add")
                } else {
                    m -= 1;
                    ("del-edge", "del")
                };
                requests.push(Request {
                    line: Arc::from(format!("{verb} {key} {u} {v}")),
                    kind: Kind::Stage,
                    expect: Expect::Exact(Arc::from(format!(
                        "ok\tstaged\t{key}\t{word}\t{u}\t{v}\tpending={}",
                        pos + 1
                    ))),
                });
            }
            requests.push(Request {
                line: Arc::from(format!("commit {key}")),
                kind: Kind::Commit,
                expect: Expect::Prefix(format!(
                    "ok\tcommitted\t{key}\tops={CYCLE_OPS}\tn={n}\tm={m}\t"
                )),
            });
            requests.push(Request {
                line: Arc::from(format!("query {key} bestkset cc")),
                kind: Kind::AfterWrite,
                expect: Expect::Prefix("ok\tbestkset\tcc\t".into()),
            });
            for _ in 1..CYCLE_QUERIES {
                requests.push(Request {
                    line: Arc::clone(&universe.pick(&mut rng).line),
                    kind: Kind::Other,
                    expect: Expect::Prefix("ok\t".into()),
                });
            }
            let outcome = session::run(engine, &self.policy, session::from_list(requests), false);
            let wall = outcome.wall_nanos();
            self.op.push(wall);
            self.absorb(vec![outcome], wall);
        }
    }

    fn cycles_direct(
        &mut self,
        engine: &SharedEngine,
        universe: &Universe,
        ops: &[EdgeOp],
        (n, mut m): (usize, usize),
    ) -> Overhead {
        let (key, policy) = (universe.key, self.policy);
        let cc = Query::BestKSet {
            metric: Metric::ClusteringCoefficient,
        };
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0xC7C1E);
        let mut overhead = Overhead::default();
        for (cycle, batch) in ops.chunks_exact(CYCLE_OPS).enumerate() {
            let traced = cycle % 2 == 1;
            self.tracer.set_on(traced);
            let req = cycle as u64;
            let start = now_nanos();
            for (pos, op) in batch.iter().enumerate() {
                m = if op.is_insert() { m + 1 } else { m - 1 };
                let stage = req * CYCLE_OPS as u64 + pos as u64;
                let staged = self
                    .tracer
                    .time("engine.mutate.stage", stage, || engine.stage_edge(key, *op));
                self.check(matches!(staged, Ok(p) if p == pos + 1), || {
                    format!("stage {op:?} on {key}: {staged:?}")
                });
            }
            let committed = self.tracer.time("engine.mutate.commit", req, || {
                engine.commit_edges(key, &policy)
            });
            let expected = (CYCLE_OPS, n as u64, m as u64);
            self.check(
                matches!(&committed, Ok(s) if (s.ops, s.vertices, s.edges) == expected),
                || format!("commit on {key}: {committed:?}, expected (ops, n, m) = {expected:?}"),
            );
            let after = self.tracer.time("engine.query.after_write", req, || {
                engine.query(key, &cc, &policy)
            });
            self.check(after.is_ok(), || {
                format!("bestkset cc after commit: {after:?}")
            });
            for _ in 1..CYCLE_QUERIES {
                let entry = universe.pick(&mut rng);
                let answer = self.tracer.time("engine.query.mixed", req, || {
                    engine.query(key, &entry.query, &policy)
                });
                self.check(answer.is_ok(), || format!("{}: {answer:?}", entry.line));
            }
            overhead.record(traced, start);
        }
        self.tracer.set_on(true);
        overhead
    }

    /// Checks the incrementally maintained state against a cold rebuild:
    /// every universe request on `engine` must get the reply a fresh engine
    /// built from `graph` plus `ops` gives. Returns that final graph.
    pub fn check_against_rebuild(
        &mut self,
        engine: &SharedEngine,
        key: &'static str,
        graph: &CsrGraph,
        ops: &[EdgeOp],
    ) -> Result<(CsrGraph, Universe), String> {
        let final_graph = apply_ops(graph, ops)?;
        let fresh = SharedEngine::with_budget(None);
        fresh.insert_graph(key, final_graph.clone());
        let policy = self.policy;
        let universe = Universe::build(key, final_graph.num_vertices(), self.seed, |q| {
            fresh.query(key, q, &policy)
        })?;
        let requests = universe
            .entries
            .iter()
            .map(|e| e.exact(Kind::Other))
            .collect();
        let outcome = session::run(engine, &policy, session::from_list(requests), false);
        let wall = outcome.wall_nanos();
        self.absorb(vec![outcome], wall);
        Ok((final_graph, universe))
    }

    /// `sessions` closed-loop sessions with zero think time reading the
    /// `serve_read` mix over `universes` until `deadline`, every reply
    /// checked byte for byte.
    pub fn read_phase(
        &mut self,
        engine: &SharedEngine,
        universes: &[Universe],
        (sessions, deadline): (usize, u64),
    ) {
        let (seed, policy) = (self.seed, self.policy);
        let start = now_nanos();
        let outcomes = concurrent(&policy, sessions, |c| {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ (c as u64 + 1));
            let script = move |now| {
                if now >= deadline {
                    return None;
                }
                let universe = &universes[rng.next_index(universes.len())];
                Some(universe.pick(&mut rng).exact(Kind::Query))
            };
            session::run(engine, &policy, script, false)
        });
        self.absorb(outcomes, now_nanos().saturating_sub(start));
    }

    /// Write cycles (see [`Run::write_cycles`]) followed by the cold-rebuild
    /// check and, when traced, a side `DeltaIndex` fed the same ops.
    /// Returns the final universe and the traced run's cycle times.
    pub fn write_phase(
        &mut self,
        engine: &SharedEngine,
        universe: &Universe,
        graph: &CsrGraph,
        cycles: usize,
    ) -> Result<(Universe, Overhead), String> {
        let (ops, overhead) = self.write_cycles(engine, universe, graph, cycles);
        let (final_graph, final_universe) =
            self.check_against_rebuild(engine, universe.key, graph, &ops)?;
        if self.traced {
            self.delta_side(graph, &ops, &final_graph)?;
        }
        Ok((final_universe, overhead))
    }

    /// Feeds `ops` to a side `DeltaIndex` built from `graph`, timing each
    /// apply with its `ApplyStats` and one `to_csr` per commit-sized batch;
    /// the result must equal the cold rebuild `expected`.
    fn delta_side(
        &mut self,
        graph: &CsrGraph,
        ops: &[EdgeOp],
        expected: &CsrGraph,
    ) -> Result<(), String> {
        let policy = self.policy;
        let mut index = self
            .tracer
            .time("delta.build", 0, || DeltaIndex::build_with(graph, &policy));
        for (i, op) in ops.iter().enumerate() {
            let req = i as u64;
            let stats = self
                .tracer
                .time("delta.apply", req, || index.apply(op))
                .map_err(|e| format!("side delta index rejected {op:?}: {e}"))?;
            self.tracer
                .count("delta.changed_vertices", req, stats.changed_vertices as u64);
            self.tracer.count(
                "delta.recomputed_levels",
                req,
                u64::from(stats.recomputed_levels),
            );
            if (i + 1) % CYCLE_OPS == 0 {
                let csr = self.tracer.time("delta.to_csr", req, || index.to_csr());
                std::hint::black_box(csr);
            }
        }
        let same = index.to_csr() == *expected;
        self.check(same, || {
            "side delta index diverged from the cold rebuild".into()
        });
        Ok(())
    }

    /// Replays `script` once at each serve entry point, outside in: a
    /// `serve_lines_with` session (then two at once), `handle_request`,
    /// `SharedEngine::query`, and `Dataset::answer` on checked-out
    /// datasets. The `handle_request` level alternates untraced and traced
    /// passes; their times are returned, for the tracing overhead.
    pub fn ladder(&mut self, engine: &SharedEngine, script: &[&Entry]) -> Result<Overhead, String> {
        let policy = self.policy;
        let len = script.len() as u64;
        let requests = || {
            script
                .iter()
                .map(|e| e.exact(Kind::Query))
                .collect::<Vec<_>>()
        };

        let one = session::run(engine, &policy, session::from_list(requests()), true);
        for (i, s) in one.samples.iter().enumerate() {
            self.tracer
                .record("serve.request", i as u64, s.start, s.end);
        }
        let wall = one.wall_nanos();
        self.absorb(vec![one], wall);

        let start = now_nanos();
        let two = concurrent(&policy, 2, |_| {
            session::run(engine, &policy, session::from_list(requests()), true)
        });
        let wall = now_nanos().saturating_sub(start);
        for (c, outcome) in two.iter().enumerate() {
            for (i, s) in outcome.samples.iter().enumerate() {
                let req = c as u64 * len + i as u64;
                self.tracer.record("serve.request.x2", req, s.start, s.end);
            }
        }
        self.absorb(two, wall);

        let mut overhead = Overhead::default();
        for (pass, traced) in [false, true, false, true, false, true]
            .into_iter()
            .enumerate()
        {
            self.tracer.set_on(traced);
            let start = now_nanos();
            for (i, e) in script.iter().enumerate() {
                let req = pass as u64 * len + i as u64;
                let (reply, _) = self.tracer.time("engine.handle_request", req, || {
                    handle_request(engine, &policy, &e.line)
                });
                self.check(*reply == *e.reply, || format!("{}: got {reply:?}", e.line));
            }
            overhead.record(traced, start);
        }
        self.tracer.set_on(true);

        for (i, e) in script.iter().enumerate() {
            let reply = self.tracer.time("engine.query", i as u64, || {
                render(engine.query(e.key, &e.query, &policy).map(|a| a.to_line()))
            });
            self.check(*reply == *e.reply, || format!("{}: got {reply:?}", e.line));
        }

        let mut datasets: BTreeMap<&str, Arc<Dataset>> = BTreeMap::new();
        for e in script {
            if !datasets.contains_key(e.key) {
                let checked = engine
                    .guard()
                    .checkout(e.key)
                    .map_err(|err| err.to_string())?;
                datasets.insert(e.key, checked);
            }
        }
        for (i, e) in script.iter().enumerate() {
            let dataset = datasets
                .get(e.key)
                .ok_or_else(|| format!("{} was not checked out", e.key))?;
            let reply = self.tracer.time("engine.answer", i as u64, || {
                render(dataset.answer(&e.query).map(|a| a.to_line()))
            });
            self.check(*reply == *e.reply, || format!("{}: got {reply:?}", e.line));
        }
        Ok(overhead)
    }
}
