//! The run context every workload shares: settings, tracer, reply checks,
//! the cold path (edge list → v2 snapshot → restarted engine), and the raw
//! measurements the report turns into metrics.

use std::fs;
use std::path::{Path, PathBuf};

use bestk_bench::datasets::{self, DatasetSpec};
use bestk_core::{
    core_decomposition_with, core_set_profile, single_core_profile, CoreForest, OrderedGraph,
};
use bestk_engine::{
    open_snapshot_v2, save_snapshot_v2_path, Artifacts, Dataset, LoadOutcome, Query, RetryPolicy,
    SharedEngine,
};
use bestk_exec::ExecPolicy;
use bestk_graph::rng::SplitMix64;
use bestk_graph::{io, GraphView};
use bestk_obs::now_nanos;

use crate::session::{Kind, Outcome};
use crate::stats::Series;
use crate::trace::Tracer;

/// Worker threads for every execution policy: what `ExecPolicy::auto()`
/// picks on the 2-CPU host the benchmark is sized for.
pub const THREADS: usize = 2;

/// Fewest full set-ups per run; `setup_s` is the median of all of them.
pub const SETUP_MIN_REPS: u64 = 5;
/// Restarts after each set-up; `restart_ms` is the median of all restarts.
const SETUP_RESTARTS: u64 = 10;
/// Share of `--seconds`, in per mille, that set-ups go on for; the main
/// loop gets the rest. Builds spread over seconds rather than one burst, so
/// a host that is slow for a moment moves `setup_s` less.
const SETUP_PER_MILLE: u64 = 200;

/// Span names of one staged artifact build: the enclosing
/// `Artifacts`-level span, then the five core stages in call order.
pub type StageNames = [&'static str; 6];

/// The core stages at the run's thread count.
pub const STAGES: StageNames = [
    "engine.artifacts",
    "core.peel",
    "core.order",
    "core.set_profile",
    "core.forest",
    "core.core_profile",
];

/// The same stages at one thread.
pub const STAGES_T1: StageNames = [
    "engine.artifacts.t1",
    "core.peel.t1",
    "core.order.t1",
    "core.set_profile.t1",
    "core.forest.t1",
    "core.core_profile.t1",
];

/// One generated input: a dataset stand-in as a SNAP text edge list, and
/// where its v2 snapshot goes.
pub struct Input {
    /// Dataset key (`ap`, `g`, `d`), also its engine name.
    pub key: &'static str,
    /// The SNAP text edge list.
    pub edges: PathBuf,
    /// The v2 snapshot path; its write-ahead log sits beside it.
    pub snapshot: PathBuf,
}

impl Input {
    fn snapshot_str(&self) -> Result<&str, String> {
        self.snapshot
            .to_str()
            .ok_or_else(|| format!("snapshot path {} is not UTF-8", self.snapshot.display()))
    }

    fn wal(&self) -> PathBuf {
        let mut wal = self.snapshot.clone().into_os_string();
        wal.push(".wal");
        PathBuf::from(wal)
    }
}

/// Per-input facts recorded with every result.
pub struct InputFacts {
    pub key: &'static str,
    pub n: usize,
    pub m: usize,
    pub kmax: u32,
    pub triangles: u64,
    pub snapshot_bytes: u64,
}

impl InputFacts {
    fn of(input: &Input, dataset: &Dataset) -> Result<InputFacts, String> {
        let artifacts = dataset
            .artifacts()
            .ok_or_else(|| format!("{} has no artifacts after its build", input.key))?;
        Ok(InputFacts {
            key: input.key,
            n: dataset.graph().num_vertices(),
            m: dataset.graph().num_edges(),
            kmax: artifacts.decomp.kmax(),
            triangles: artifacts
                .set_profile
                .primaries
                .first()
                .map_or(0, |p| p.triangles),
            snapshot_bytes: file_len(&input.snapshot)?,
        })
    }
}

/// Requests answered by a class of sessions and the wall time they took.
#[derive(Debug, Default)]
pub struct Throughput {
    pub requests: u64,
    pub wall: u64,
}

impl Throughput {
    /// Requests per second; `None` before any session ran.
    pub fn per_second(&self) -> Option<f64> {
        (self.wall > 0).then(|| self.requests as f64 / (self.wall as f64 / 1e9))
    }
}

/// Times of one unit of work with tracing on and off, in nanoseconds; the
/// tracing overhead is the ratio of their medians.
#[derive(Debug, Default)]
pub struct Overhead {
    pub on: Vec<f64>,
    pub off: Vec<f64>,
}

impl Overhead {
    /// Records one unit that started at `start`, traced or not.
    pub fn record(&mut self, traced: bool, start: u64) {
        let nanos = now_nanos().saturating_sub(start) as f64;
        if traced {
            self.on.push(nanos);
        } else {
            self.off.push(nanos);
        }
    }
}

/// Everything one run measures, plus its settings.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    /// Whether this is a traced run (per-layer metrics).
    pub traced: bool,
    pub policy: ExecPolicy,
    pub tracer: Tracer,
    pub work: PathBuf,
    /// Requests sent and replies checked.
    pub attempted: u64,
    /// Non-`ok` or mismatching replies.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Nanoseconds per full set-up (edge lists → first answer).
    pub setup: Vec<f64>,
    /// Nanoseconds per edge-list → v2-snapshot pass over all inputs.
    pub build: Vec<f64>,
    /// Latencies of the workload's unit of work (`op_p50_ms`).
    pub op: Series,
    /// Nanoseconds per restart from existing snapshot + WAL pairs.
    pub restart: Vec<f64>,
    /// Serve-session latencies per request class, by [`Kind::index`].
    pub series: [Series; 5],
    /// Read-only sessions and write-cycle sessions.
    pub reads: Throughput,
    pub writes: Throughput,
    pub inputs: Vec<InputFacts>,
    /// The tracing overhead the workload reports: an ingest repetition,
    /// a ladder pass, or a write cycle.
    pub overhead: Overhead,
}

impl Run {
    /// A run writing its files under `work`.
    pub fn new(seed: u64, seconds: u64, traced: bool, work: PathBuf) -> Result<Run, String> {
        let policy = ExecPolicy::with_threads(THREADS).map_err(|e| e.to_string())?;
        Ok(Run {
            seed,
            seconds,
            traced,
            policy,
            tracer: Tracer::new(traced),
            work,
            attempted: 0,
            failed: 0,
            first_failure: None,
            setup: Vec::new(),
            build: Vec::new(),
            op: Series::default(),
            restart: Vec::new(),
            series: Default::default(),
            reads: Throughput::default(),
            writes: Throughput::default(),
            inputs: Vec::new(),
            overhead: Overhead::default(),
        })
    }

    /// Seconds of main loop: what `--seconds` leaves after the set-up.
    pub fn main_seconds(&self) -> u64 {
        self.seconds * (1000 - SETUP_PER_MILLE) / 1000
    }

    /// The main loop's deadline, counted from now.
    pub fn deadline(&self) -> u64 {
        let nanos = self.seconds * (1000 - SETUP_PER_MILLE) * 1_000_000;
        now_nanos().saturating_add(nanos)
    }

    /// Counts one checked request.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    /// Takes in finished serve sessions that together took `wall`
    /// nanoseconds. Sessions that staged edges count towards write
    /// throughput, sessions of [`Kind::Query`] reads towards read
    /// throughput, and check sessions towards neither.
    pub fn absorb(&mut self, outcomes: Vec<Outcome>, wall: u64) {
        let has = |kind: Kind| outcomes.iter().any(|o| o.series[kind.index()].len() > 0);
        let mut ignored = Throughput::default();
        let throughput = if has(Kind::Stage) {
            &mut self.writes
        } else if has(Kind::Query) {
            &mut self.reads
        } else {
            &mut ignored
        };
        throughput.wall += wall;
        for outcome in outcomes {
            throughput.requests += outcome.replies;
            self.attempted += outcome.sent;
            self.failed += outcome.failed;
            if let Some(message) = outcome.first_failure {
                self.first_failure.get_or_insert(message);
            }
            for (all, one) in self.series.iter_mut().zip(outcome.series) {
                all.merge(one);
            }
        }
    }

    /// Generates the named dataset stand-ins from the run seed and writes
    /// them as SNAP text edge lists, before any timing.
    pub fn write_inputs(&self, keys: &[&'static str]) -> Result<Vec<Input>, String> {
        let mix = SplitMix64 { state: self.seed }.next_u64();
        keys.iter()
            .map(|&key| {
                let base = datasets::spec_by_key(key)
                    .ok_or_else(|| format!("no dataset stand-in {key:?}"))?;
                let spec = DatasetSpec {
                    seed: base.seed ^ mix,
                    ..base
                };
                let edges = self.work.join(format!("{key}.txt"));
                io::write_edge_list_path(&datasets::generate(&spec), &edges)
                    .map_err(|e| format!("writing {}: {e}", edges.display()))?;
                Ok(Input {
                    key,
                    edges,
                    snapshot: self.work.join(format!("{key}.bestk")),
                })
            })
            .collect()
    }

    /// Builds every artifact stage by stage, each stage in its own span,
    /// and assembles them the way `Artifacts::build` does.
    pub fn build_by_stages<G: GraphView + Sync>(
        &mut self,
        graph: &G,
        req: u64,
        names: &StageNames,
        policy: ExecPolicy,
    ) -> Artifacts {
        let rounds = bestk_obs::counter("phase.peel.rounds");
        let parent = self.tracer.open(names[0], req);
        let before = rounds.get();
        let decomp = self
            .tracer
            .time(names[1], req, || core_decomposition_with(graph, &policy));
        let peel_rounds = rounds.get().saturating_sub(before);
        let ordered = self.tracer.time(names[2], req, || {
            OrderedGraph::build_with(graph, &decomp, &policy)
        });
        let set_profile = self
            .tracer
            .time(names[3], req, || core_set_profile(&ordered, true));
        let forest = self
            .tracer
            .time(names[4], req, || CoreForest::build(graph, &decomp));
        let core_profile = self.tracer.time(names[5], req, || {
            single_core_profile(&ordered, &forest, true)
        });
        self.tracer.close(parent);
        if names == &STAGES {
            self.tracer.count("core.peel_rounds", req, peel_rounds);
            let triangles = set_profile.primaries.first().map_or(0, |p| p.triangles);
            self.tracer.count("core.triangles", req, triangles);
            self.tracer
                .count("core.forest_nodes", req, forest.node_count() as u64);
        }
        let (adj, same, plus, high) = ordered.into_parts();
        Artifacts {
            decomp,
            adj,
            same,
            plus,
            high,
            forest,
            set_profile,
            core_profile,
        }
    }

    /// Edge list → every artifact → v2 snapshot on disk. With tracing on,
    /// the artifacts are built stage by stage.
    pub fn build_snapshot(&mut self, input: &Input, req: u64) -> Result<Dataset, String> {
        let graph = self
            .tracer
            .time("graph.io.parse", req, || io::read_auto_path(&input.edges))
            .map_err(|e| format!("parsing {}: {e}", input.edges.display()))?;
        self.tracer
            .count("graph.io.edges_read", req, graph.num_edges() as u64);
        let dataset = if self.tracer.is_on() {
            let artifacts = self.build_by_stages(&graph, req, &STAGES, self.policy);
            Dataset::from_built(graph, artifacts)
        } else {
            let mut dataset = Dataset::from_graph(graph);
            dataset.ensure_built(&self.policy);
            dataset
        };
        self.tracer
            .time("engine.snapshot.save", req, || {
                save_snapshot_v2_path(&dataset, &input.snapshot)
            })
            .map_err(|e| format!("saving {}: {e}", input.snapshot.display()))?;
        self.tracer
            .count("engine.snapshot.bytes", req, file_len(&input.snapshot)?);
        Ok(dataset)
    }

    /// A fresh engine loads every snapshot and its write-ahead log, then
    /// answers `stats` on the first input, which must read `first`. Returns
    /// the engine and the nanoseconds until that answer.
    pub fn restart(
        &mut self,
        inputs: &[Input],
        req: u64,
        first: &str,
    ) -> Result<(SharedEngine, u64), String> {
        let policy = self.policy;
        let start = now_nanos();
        let engine = SharedEngine::with_budget(None);
        for input in inputs {
            let path = input.snapshot_str()?;
            let loaded = self.tracer.time("engine.load", req, || {
                engine.load_snapshot_with_fallback(
                    input.key,
                    path,
                    None,
                    &RetryPolicy::default(),
                    &policy,
                )
            });
            match loaded {
                Ok(LoadOutcome::Loaded) => {}
                other => return Err(format!("loading {path}: {other:?}")),
            }
        }
        let key = inputs.first().map_or("", |i| i.key);
        let answer = self.tracer.time("engine.first_query", req, || {
            engine.query(key, &Query::Stats, &policy)
        });
        let end = now_nanos();
        let reply = render(answer.map(|a| a.to_line()));
        self.check(reply == first, || {
            format!("first answer after restart {reply:?}, expected {first:?}")
        });
        if self.tracer.is_on() {
            for input in inputs {
                self.tracer
                    .time("engine.snapshot.open", req, || {
                        open_snapshot_v2(&input.snapshot)
                    })
                    .map_err(|e| format!("opening {}: {e}", input.snapshot.display()))?;
            }
        }
        Ok((engine, end.saturating_sub(start)))
    }

    /// The timed set-up, from nothing on disk but the edge lists: parse,
    /// build, v2 save, then a first load (which creates the write-ahead
    /// log) and a first answer. After each, [`SETUP_RESTARTS`] timed
    /// restarts from the snapshot + WAL pairs it left. Repeats for a fifth
    /// of `--seconds` and at least [`SETUP_MIN_REPS`] times. Returns the
    /// last set-up's built datasets and last restarted engine, and records
    /// the input facts.
    pub fn setup(&mut self, inputs: &[Input]) -> Result<(Vec<Dataset>, SharedEngine), String> {
        let until = now_nanos().saturating_add(self.seconds * SETUP_PER_MILLE * 1_000_000);
        let mut built = Vec::new();
        let mut engine = None;
        let mut rep = 0;
        while rep < SETUP_MIN_REPS || now_nanos() < until {
            for input in inputs {
                remove_if_present(&input.snapshot)?;
                remove_if_present(&input.wal())?;
            }
            let start = now_nanos();
            built.clear();
            for input in inputs {
                built.push(self.build_snapshot(input, rep)?);
            }
            let built_at = now_nanos();
            let first = render(match built.first() {
                Some(d) => d.answer(&Query::Stats).map(|a| a.to_line()),
                None => return Err("no inputs".into()),
            });
            self.restart(inputs, rep, &first)?;
            let end = now_nanos();
            self.setup.push(end.saturating_sub(start) as f64);
            self.build.push(built_at.saturating_sub(start) as f64);
            for i in 0..SETUP_RESTARTS {
                let (restarted, nanos) = self.restart(inputs, 1_000_000 + rep * 100 + i, &first)?;
                self.restart.push(nanos as f64);
                engine = Some(restarted);
            }
            rep += 1;
        }
        for (input, dataset) in inputs.iter().zip(&built) {
            self.inputs.push(InputFacts::of(input, dataset)?);
            if self.traced {
                self.build_by_stages(dataset.graph(), 0, &STAGES_T1, ExecPolicy::Sequential);
            }
        }
        Ok((built, engine.ok_or("no set-up ran")?))
    }

    /// Builds the `key` stand-in and loads it into an engine of its own,
    /// untimed and untraced, as the input of a traced write block. Returns
    /// the engine and the built dataset.
    pub fn side_engine(&mut self, key: &'static str) -> Result<(SharedEngine, Dataset), String> {
        let inputs = self.write_inputs(&[key])?;
        let traced = self.tracer.is_on();
        self.tracer.set_on(false);
        let built = self.build_snapshot(&inputs[0], 0).and_then(|dataset| {
            let first = render(dataset.answer(&Query::Stats).map(|a| a.to_line()));
            let (engine, _) = self.restart(&inputs, 0, &first)?;
            Ok((engine, dataset))
        });
        self.tracer.set_on(traced);
        let (engine, dataset) = built?;
        self.inputs.push(InputFacts::of(&inputs[0], &dataset)?);
        Ok((engine, dataset))
    }
}

/// A reply line the way the serve loop renders an answer or an error.
pub fn render<E: std::fmt::Display>(answer: Result<String, E>) -> String {
    match answer {
        Ok(line) => format!("ok\t{line}"),
        Err(e) => format!("err\t{e}"),
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("reading size of {}: {e}", path.display()))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
