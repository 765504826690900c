//! The multi-dataset query engine: a registry of named datasets under a
//! configurable memory budget.
//!
//! The engine owns every loaded [`Dataset`] keyed by name. Artifacts (the
//! decomposition, ordering, forest, and profiles) are built lazily on first
//! touch, or by the commit that produced the graph, and counted, so a
//! workload's build-vs-cache-hit ratio is observable. When the resident
//! artifact bytes exceed the budget, the
//! least-recently-used dataset's artifacts are dropped — the graph itself
//! stays resident, so an evicted dataset transparently rebuilds on its next
//! touch (which counts as a fresh build, not a cache hit). The dataset
//! being served is never its own eviction victim, so a single dataset
//! larger than the budget still works; the budget then acts as a
//! high-water mark rather than a hard cap.
//!
//! Batched queries run through [`bestk_exec::ExecPolicy`], chunked with
//! [`bestk_exec::ExecPolicy::plan_even`] and merged in chunk order, so a
//! batch's answers are bit-identical at every `--threads` setting.

use std::collections::BTreeMap;
use std::sync::Arc;

use bestk_exec::ExecPolicy;
use bestk_faults::sites;
use bestk_graph::{CsrGraph, GraphView};

use crate::dataset::{Artifacts, Dataset};
use crate::error::EngineError;
use crate::mutate::DeltaSlot;
use crate::query::{Answer, Query};

/// How [`SharedEngine::load_snapshot_with_fallback`](crate::SharedEngine::load_snapshot_with_fallback)
/// obtained the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The snapshot loaded cleanly (transient-I/O retries included).
    Loaded,
    /// The snapshot was corrupt: the file was quarantined and the index
    /// was rebuilt from the source graph.
    Rebuilt,
}

/// Monotonic counters describing the engine's lifetime workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Datasets registered (graphs inserted or snapshots loaded).
    pub loads: u64,
    /// Artifact builds: lazy first-touch builds, post-eviction rebuilds,
    /// one per commit, and a load that rebuilt from source.
    pub builds: u64,
    /// Queries answered against already-built artifacts.
    pub cache_hits: u64,
    /// Artifact evictions forced by the memory budget.
    pub evictions: u64,
    /// Individual queries answered (errors included).
    pub queries: u64,
}

struct Slot {
    dataset: Arc<Dataset>,
    last_used: u64,
    /// Mutation state (staged ops, write-ahead log, compaction counters).
    /// `Some` when idle; taken out (`None`) while a mutation is in flight
    /// so its I/O runs with no registry lock held — a second mutation
    /// arriving meanwhile gets a typed busy error instead of blocking.
    delta: Option<DeltaSlot>,
}

impl Slot {
    fn resident_bytes(&self) -> usize {
        self.dataset.resident_bytes() + self.delta.as_ref().map_or(0, DeltaSlot::heap_bytes)
    }
}

/// A registry of named datasets answering typed best-k queries.
pub struct Engine {
    slots: BTreeMap<String, Slot>,
    /// Artifact-byte budget; `None` means unbounded.
    budget: Option<usize>,
    clock: u64,
    counters: Counters,
}

/// One row of [`Engine::dataset_rows`]: name, vertex count, edge count,
/// whether artifacts are resident, and approximate resident bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetRow {
    /// Registry name.
    pub name: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Whether the artifacts are currently resident.
    pub built: bool,
    /// Approximate resident bytes (graph + artifacts).
    pub resident_bytes: usize,
}

impl Engine {
    /// Creates an engine with an optional artifact memory budget in bytes.
    pub fn new(budget_bytes: Option<usize>) -> Engine {
        Engine {
            slots: BTreeMap::new(),
            budget: budget_bytes,
            clock: 0,
            counters: Counters::default(),
        }
    }

    /// The configured budget in bytes, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// Lifetime workload counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total resident bytes across every dataset (graphs + artifacts),
    /// plus each slot's staged ops.
    pub fn resident_bytes(&self) -> usize {
        self.slots.values().map(Slot::resident_bytes).sum()
    }

    /// Registers a bare graph under `name` (artifacts build lazily on first
    /// query). Replaces any dataset previously registered under the name.
    pub fn insert_graph(&mut self, name: &str, graph: CsrGraph) {
        self.register(name, Dataset::from_graph(graph));
    }

    /// Loads a `.bestk` snapshot from `path` and registers it under `name`.
    /// The strict load: with no source to rebuild from, the graph section
    /// is checked too, so a corrupt snapshot is a typed error rather than
    /// wrong answers. Like every load, it replays the committed ops of the
    /// sibling write-ahead log (`<path>.wal`) on top of the snapshot, but
    /// read-only (see `crate::mutate`): the log is never cut, quarantined
    /// or created, and a log that is unreadable or no longer applies is a
    /// typed error. A replayed dataset builds on its first query; with
    /// nothing to replay the snapshot arrives fully built, so no build is
    /// charged.
    pub fn load_snapshot(&mut self, name: &str, path: &str) -> Result<(), EngineError> {
        let dataset = crate::open_snapshot_v2(path)?;
        dataset.graph().check()?;
        let dataset = crate::mutate::replay_wal(dataset, &format!("{path}.wal"))?;
        self.register(name, dataset);
        Ok(())
    }

    fn register(&mut self, name: &str, dataset: Dataset) {
        self.clock += 1;
        self.counters.loads += 1;
        bestk_obs::counter("engine.loads").inc();
        self.slots.insert(
            name.to_owned(),
            Slot {
                dataset: Arc::new(dataset),
                last_used: self.clock,
                delta: Some(DeltaSlot::default()),
            },
        );
        self.enforce_budget(name);
        self.record_dataset_gauge();
        self.record_slot_gauges(name);
    }

    /// Registers a dataset produced by [`load_or_rebuild`](crate::load_or_rebuild)
    /// together with its adopted delta state (write-ahead log handle,
    /// replay bookkeeping), charging a build when the snapshot had to be
    /// rebuilt from source. Pure bookkeeping — no I/O, safe to call with
    /// the registry locked.
    pub fn install_loaded_with_delta(
        &mut self,
        name: &str,
        dataset: Dataset,
        outcome: LoadOutcome,
        delta: DeltaSlot,
    ) {
        if outcome == LoadOutcome::Rebuilt {
            self.counters.builds += 1;
            bestk_obs::counter("engine.builds").inc();
            bestk_obs::counter("engine.rebuilds").inc();
        }
        self.register(name, dataset);
        if let Some(slot) = self.slots.get_mut(name) {
            slot.delta = Some(delta);
        }
    }

    /// Takes the named slot's mutation state out, together with a handle on
    /// the committed dataset, so the caller can stage or commit with no
    /// registry lock held. While the state is out, a second mutation gets a
    /// typed busy error. Pure bookkeeping.
    pub fn delta_checkout(&mut self, name: &str) -> Result<(Arc<Dataset>, DeltaSlot), EngineError> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self
            .slots
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))?;
        slot.last_used = clock;
        let delta = slot.delta.take().ok_or_else(|| {
            EngineError::Mutation(format!("another mutation on {name:?} is in flight"))
        })?;
        Ok((Arc::clone(&slot.dataset), delta))
    }

    /// Puts a checked-out mutation state back without changing the dataset
    /// (the stage path, and the commit path's error leg). A slot removed
    /// meanwhile simply drops the state. Pure bookkeeping.
    pub fn delta_restore(&mut self, name: &str, delta: DeltaSlot) {
        if let Some(slot) = self.slots.get_mut(name) {
            slot.delta = Some(delta);
        }
    }

    /// Installs the committed (mutated) dataset, built by the commit, and
    /// returns the mutation state to the slot. Charged as a build, not a
    /// load: the slot keeps its identity, only its graph advanced. Pure
    /// bookkeeping.
    pub fn install_mutated(&mut self, name: &str, dataset: Dataset, delta: DeltaSlot) {
        self.clock += 1;
        let clock = self.clock;
        self.counters.builds += 1;
        bestk_obs::counter("engine.builds").inc();
        if let Some(slot) = self.slots.get_mut(name) {
            slot.dataset = Arc::new(dataset);
            slot.delta = Some(delta);
            slot.last_used = clock;
        }
        self.enforce_budget(name);
        self.record_slot_gauges(name);
    }

    /// Number of staged (uncommitted) ops on the named dataset. Errors when
    /// the dataset is unknown or its mutation state is checked out.
    pub fn pending_ops(&self, name: &str) -> Result<usize, EngineError> {
        let slot = self
            .slots
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))?;
        match &slot.delta {
            Some(delta) => Ok(delta.pending().len()),
            None => Err(EngineError::Mutation(format!(
                "another mutation on {name:?} is in flight"
            ))),
        }
    }

    /// Removes a dataset; returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let existed = self.slots.remove(name).is_some();
        self.record_dataset_gauge();
        existed
    }

    fn record_dataset_gauge(&self) {
        bestk_obs::gauge("engine.datasets").set(self.slots.len() as i64);
    }

    /// Per-dataset storage gauge: the dataset's resident footprint (graph
    /// plus artifacts).
    fn record_slot_gauges(&self, name: &str) {
        let Some(slot) = self.slots.get(name) else {
            return;
        };
        bestk_obs::gauge(&format!(
            "engine.dataset.resident_bytes{{dataset=\"{name}\"}}"
        ))
        .set(slot.dataset.resident_bytes() as i64);
    }

    /// Answers one query against the named dataset.
    pub fn query(
        &mut self,
        name: &str,
        query: &Query,
        policy: &ExecPolicy,
    ) -> Result<Answer, EngineError> {
        let mut answers = self.query_batch(name, std::slice::from_ref(query), policy)?;
        match answers.pop() {
            Some(result) => result,
            None => Err(EngineError::BadQuery("empty query batch".into())),
        }
    }

    /// Answers a batch of queries against the named dataset, splitting the
    /// batch across `policy`'s threads. Answers come back in request order
    /// and are bit-identical at every thread count; per-query failures are
    /// individual `Err` entries, not a batch failure.
    pub fn query_batch(
        &mut self,
        name: &str,
        queries: &[Query],
        policy: &ExecPolicy,
    ) -> Result<Vec<Result<Answer, EngineError>>, EngineError> {
        let checked = self.checkout(name)?;
        let (dataset, built_now) = if checked.is_built() {
            (checked, false)
        } else {
            let artifacts = Artifacts::build(checked.graph(), policy);
            let built = Arc::new(checked.with_artifacts(artifacts));
            self.install_artifacts(name, &checked, &built);
            (built, true)
        };
        // Panic isolation: a panic anywhere in answering (including one
        // re-raised from an exec worker thread) is contained here and
        // converted to a typed error — the engine, and any serving loop
        // above it, survive.
        let answers = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dataset.answer_batch(queries, policy)
        }))
        .map_err(|payload| EngineError::Internal(panic_message(payload.as_ref())))?;
        self.finish_batch(name, built_now, queries.len());
        Ok(answers)
    }

    /// Checks out the named dataset: bumps the LRU clock and returns a
    /// shared handle. The slot keeps its own handle — the caller's copy
    /// stays valid even if the slot is evicted or replaced meanwhile.
    /// Pure bookkeeping — no I/O, no dispatch, safe under the registry
    /// lock.
    pub fn checkout(&mut self, name: &str) -> Result<Arc<Dataset>, EngineError> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self
            .slots
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))?;
        slot.last_used = clock;
        Ok(Arc::clone(&slot.dataset))
    }

    /// Publishes artifacts built outside the registry (copy-on-write): the
    /// slot's dataset is replaced with `built` only while the slot still
    /// holds `checked`, the handle the build started from. Otherwise the
    /// late build is dropped: a racing builder won (its artifacts are
    /// equivalent), a commit installed a newer graph, or the slot is gone.
    /// Pure bookkeeping.
    pub fn install_artifacts(&mut self, name: &str, checked: &Arc<Dataset>, built: &Arc<Dataset>) {
        if let Some(slot) = self.slots.get_mut(name) {
            if Arc::ptr_eq(&slot.dataset, checked) {
                slot.dataset = Arc::clone(built);
            }
        }
    }

    /// Closes out one answered batch: charges the build-vs-cache-hit and
    /// query counters and runs the eviction pass. Pure bookkeeping.
    pub fn finish_batch(&mut self, name: &str, built_now: bool, queries: usize) {
        if built_now {
            self.counters.builds += 1;
            bestk_obs::counter("engine.builds").inc();
        } else {
            self.counters.cache_hits += 1;
            bestk_obs::counter("engine.cache_hits").inc();
        }
        self.counters.queries += queries as u64;
        bestk_obs::counter("engine.queries").add(queries as u64);
        self.enforce_budget(name);
        self.record_slot_gauges(name);
    }

    /// One summary row per dataset, in name order.
    pub fn dataset_rows(&self) -> Vec<DatasetRow> {
        self.slots
            .iter()
            .map(|(name, slot)| DatasetRow {
                name: name.clone(),
                vertices: slot.dataset.graph().num_vertices(),
                edges: slot.dataset.graph().num_edges(),
                built: slot.dataset.is_built(),
                resident_bytes: slot.dataset.resident_bytes(),
            })
            .collect()
    }

    /// Drops least-recently-used artifacts until the resident total fits
    /// the budget. `protect` (the dataset just touched) is never a victim,
    /// so the active dataset cannot evict itself mid-query.
    fn enforce_budget(&mut self, protect: &str) {
        // The `engine.pressure` failpoint simulates a memory-pressure spike
        // by collapsing the budget to zero for this pass: everything except
        // the protected dataset is evicted, and later touches rebuild.
        let budget = if bestk_faults::pressure(sites::ENGINE_PRESSURE) {
            0
        } else {
            match self.budget {
                Some(b) => b,
                None => return,
            }
        };
        while self.resident_bytes() > budget {
            let victim = self
                .slots
                .iter()
                .filter(|(name, slot)| name.as_str() != protect && slot.dataset.is_built())
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    if let Some(slot) = self.slots.get_mut(&name) {
                        // Copy-on-write eviction: checked-out readers keep
                        // their built handle; the slot forgets the artifacts.
                        slot.dataset = Arc::new(slot.dataset.without_artifacts());
                        self.counters.evictions += 1;
                        bestk_obs::counter("engine.evictions").inc();
                    }
                }
                None => return, // nothing evictable; budget becomes a high-water mark
            }
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_core::Metric;
    use bestk_graph::generators;

    fn policy() -> ExecPolicy {
        ExecPolicy::Sequential
    }

    #[test]
    fn lazy_build_counts_builds_then_cache_hits() {
        let mut eng = Engine::new(None);
        eng.insert_graph("fig2", generators::paper_figure2());
        assert_eq!(eng.counters().loads, 1);
        assert_eq!(eng.counters().builds, 0);
        let q = Query::BestKSet {
            metric: Metric::AverageDegree,
        };
        let a = eng.query("fig2", &q, &policy()).unwrap();
        assert_eq!(a.to_line(), "bestkset\tad\tk=2\tscore=3.1666666666666665");
        assert_eq!(eng.counters().builds, 1);
        assert_eq!(eng.counters().cache_hits, 0);
        eng.query("fig2", &q, &policy()).unwrap();
        assert_eq!(eng.counters().builds, 1);
        assert_eq!(eng.counters().cache_hits, 1);
        assert_eq!(eng.counters().queries, 2);
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let mut eng = Engine::new(None);
        let err = eng.query("nope", &Query::Stats, &policy()).unwrap_err();
        assert!(matches!(err, EngineError::UnknownDataset(_)), "{err}");
    }

    #[test]
    fn batch_failures_are_per_query() {
        let mut eng = Engine::new(None);
        eng.insert_graph("fig2", generators::paper_figure2());
        let queries = [Query::Stats, Query::CoreOfVertex { vertex: 999 }];
        let answers = eng.query_batch("fig2", &queries, &policy()).unwrap();
        assert!(answers[0].is_ok());
        assert!(answers[1].is_err());
        assert_eq!(eng.counters().queries, 2);
    }

    #[test]
    fn lru_eviction_drops_oldest_artifacts_only() {
        let mut eng = Engine::new(Some(1)); // tiny budget: every build overflows
        eng.insert_graph("a", generators::erdos_renyi_gnm(60, 200, 1));
        eng.insert_graph("b", generators::erdos_renyi_gnm(60, 200, 2));
        eng.query("a", &Query::Stats, &policy()).unwrap();
        // Building `b` must evict `a`'s artifacts (LRU), never `b`'s own.
        eng.query("b", &Query::Stats, &policy()).unwrap();
        let rows = eng.dataset_rows();
        let built: Vec<(&str, bool)> = rows.iter().map(|r| (r.name.as_str(), r.built)).collect();
        assert_eq!(built, vec![("a", false), ("b", true)]);
        assert!(eng.counters().evictions >= 1);
        // Touching `a` again rebuilds (a build, not a cache hit) and evicts `b`.
        let builds_before = eng.counters().builds;
        eng.query("a", &Query::Stats, &policy()).unwrap();
        assert_eq!(eng.counters().builds, builds_before + 1);
        let rows = eng.dataset_rows();
        let built: Vec<(&str, bool)> = rows.iter().map(|r| (r.name.as_str(), r.built)).collect();
        assert_eq!(built, vec![("a", true), ("b", false)]);
    }

    #[test]
    fn unbounded_engine_never_evicts() {
        let mut eng = Engine::new(None);
        for (i, seed) in [1u64, 2, 3].iter().enumerate() {
            eng.insert_graph(
                &format!("g{i}"),
                generators::erdos_renyi_gnm(40, 120, *seed),
            );
            eng.query(&format!("g{i}"), &Query::Stats, &policy())
                .unwrap();
        }
        assert_eq!(eng.counters().evictions, 0);
        assert!(eng.dataset_rows().iter().all(|r| r.built));
    }

    #[test]
    fn snapshot_load_arrives_built() {
        let dir = std::env::temp_dir().join("bestk-engine-load-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.bestk");
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &path).unwrap();

        let mut eng = Engine::new(None);
        eng.load_snapshot("fig2", path.to_str().unwrap()).unwrap();
        assert!(eng.dataset_rows()[0].built);
        let a = eng
            .query(
                "fig2",
                &Query::BestCore {
                    metric: Metric::InternalDensity,
                },
                &policy(),
            )
            .unwrap();
        // Loading a pre-built snapshot then querying is a cache hit.
        assert_eq!(eng.counters().builds, 0);
        assert_eq!(eng.counters().cache_hits, 1);
        assert!(a.to_line().starts_with("bestcore\tden"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_under_pressure_with_queries_in_flight_stays_consistent() {
        // Satellite regression: a budget squeeze between queries must leave
        // the registry answering correctly — the evicted dataset rebuilds
        // on its next touch and every counter stays consistent.
        let mut eng = Engine::new(Some(1));
        eng.insert_graph("a", generators::erdos_renyi_gnm(60, 200, 1));
        eng.insert_graph("b", generators::erdos_renyi_gnm(60, 200, 2));
        let q = Query::BestKSet {
            metric: Metric::AverageDegree,
        };
        let a1 = eng.query("a", &q, &policy()).unwrap().to_line();
        // Touching `b` evicts `a` mid-workload...
        eng.query("b", &q, &policy()).unwrap();
        assert!(!eng.dataset_rows()[0].built, "a should have been evicted");
        // ...and re-querying `a` rebuilds and returns the identical answer.
        let a2 = eng.query("a", &q, &policy()).unwrap().to_line();
        assert_eq!(a1, a2);
        let c = eng.counters();
        assert_eq!(c.loads, 2);
        assert_eq!(c.builds, 3, "a, b, then a's rebuild");
        assert_eq!(c.cache_hits, 0);
        assert!(c.evictions >= 2);
        assert_eq!(c.queries, 3);
    }

    #[test]
    fn injected_pressure_evicts_and_recovers() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        // Unbounded budget, but the failpoint simulates a pressure spike on
        // one enforce pass: everything except the active dataset evicts,
        // later queries rebuild, answers stay identical.
        let mut eng = Engine::new(None);
        eng.insert_graph("a", generators::paper_figure2());
        eng.insert_graph("b", generators::erdos_renyi_gnm(40, 120, 3));
        let q = Query::Stats;
        let before_a = eng.query("a", &q, &policy()).unwrap().to_line();
        eng.query("b", &q, &policy()).unwrap();
        let plan = FaultPlan::new(5).site(
            sites::ENGINE_PRESSURE,
            SiteSpec::always(Fault::Pressure).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            // This query's budget pass hits the pressure spike: `a` (LRU,
            // unprotected) is evicted.
            eng.query("b", &q, &policy()).unwrap();
        });
        assert!(eng.counters().evictions >= 1);
        let after_a = eng.query("a", &q, &policy()).unwrap().to_line();
        assert_eq!(before_a, after_a);
    }

    #[test]
    fn worker_panic_is_contained_as_a_typed_error() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let mut eng = Engine::new(None);
        eng.insert_graph("fig2", generators::paper_figure2());
        let q = Query::Stats;
        let plan = FaultPlan::new(9).site(
            sites::EXEC_WORKER,
            SiteSpec::always(Fault::Panic).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let threads = ExecPolicy::with_threads(2).unwrap();
            let err = eng.query("fig2", &q, &threads).unwrap_err();
            assert!(matches!(err, EngineError::Internal(_)), "{err}");
            assert!(err.to_string().contains("injected"), "{err}");
            // The engine survives and the very next query succeeds.
            let a = eng.query("fig2", &q, &threads).unwrap();
            assert_eq!(a.to_line(), "stats\tn=12\tm=19\tkmax=3\tcores=3");
        });
    }

    #[test]
    fn replacing_a_dataset_keeps_the_registry_consistent() {
        let mut eng = Engine::new(None);
        eng.insert_graph("g", generators::paper_figure2());
        eng.insert_graph("g", generators::erdos_renyi_gnm(10, 20, 3));
        assert_eq!(eng.len(), 1);
        assert_eq!(eng.dataset_rows()[0].vertices, 10);
        assert!(eng.remove("g"));
        assert!(!eng.remove("g"));
        assert!(eng.is_empty());
    }
}
