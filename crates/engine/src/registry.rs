//! The shared, lock-disciplined registry: an [`Engine`] behind a mutex.
//!
//! `SharedEngine` is the concurrency seam the serving loop runs on. The
//! design rule — enforced by `bestk-analyze`'s `lock-held-io` and
//! `lock-held-dispatch` passes — is that the registry lock is only ever
//! held for bookkeeping:
//!
//! * **loads**: [`load_or_rebuild`](crate::load_or_rebuild) does every
//!   byte of disk I/O (and any `O(m^1.5)` rebuild) *before* the lock is
//!   taken; the locked
//!   section just installs the finished dataset;
//! * **queries**: the dataset is checked out under the lock (an `Arc`
//!   clone), artifacts build and the batch is answered *outside* the
//!   lock, and a final locked section settles the counters and runs the
//!   eviction pass;
//! * **panics**: `catch_unwind` wraps the answering step while no guard
//!   is live, so a worker panic cannot poison the registry — and
//!   [`SharedEngine::guard`] shrugs off poisoning anyway, since every
//!   critical section leaves the registry structurally consistent.
//!
//! The naive alternative — holding the lock across `load` or the batch —
//! is exactly what the static analyzer flags; see the `lock_fixtures`
//! tests in `crates/analyze`.

use std::sync::{Arc, Mutex, MutexGuard};

use bestk_exec::ExecPolicy;

use crate::dataset::Artifacts;
use crate::engine::{panic_message, Counters, DatasetRow, Engine, LoadOutcome};
use crate::error::EngineError;
use crate::query::{Answer, Query};
use crate::snapshot::{self, RetryPolicy};

/// A thread-shareable registry of datasets: [`Engine`] behind a mutex,
/// with every I/O- or dispatch-heavy step kept outside the lock.
pub struct SharedEngine {
    inner: Mutex<Engine>,
}

impl SharedEngine {
    /// Creates a shared engine with an optional artifact memory budget.
    pub fn with_budget(budget_bytes: Option<usize>) -> SharedEngine {
        SharedEngine {
            inner: Mutex::new(Engine::new(budget_bytes)),
        }
    }

    /// Locks the registry. Poisoning is ignored: the critical sections in
    /// this module are bookkeeping-only and leave the engine structurally
    /// consistent, so a panic elsewhere must not wedge serving forever.
    ///
    /// Keep critical sections short — never perform I/O or dispatch work
    /// through `bestk_exec` while this guard is live (the `lock-held-io` /
    /// `lock-held-dispatch` lints police exactly that).
    pub fn guard(&self) -> MutexGuard<'_, Engine> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a bare graph under `name` (see [`Engine::insert_graph`]).
    pub fn insert_graph(&self, name: &str, graph: bestk_graph::CsrGraph) {
        self.guard().insert_graph(name, graph);
    }

    /// Removes a dataset; returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.guard().remove(name)
    }

    /// Lifetime workload counters.
    pub fn counters(&self) -> Counters {
        self.guard().counters()
    }

    /// One summary row per dataset, in name order.
    pub fn dataset_rows(&self) -> Vec<DatasetRow> {
        self.guard().dataset_rows()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.guard().is_empty()
    }

    /// Resilient snapshot load — the degradation ladder:
    ///
    /// 1. open `path`, retrying *transient* I/O failures under `retry`;
    /// 2. if the bytes are corrupt (bad magic, version skew, checksum
    ///    mismatch, truncation, …) and a `source` graph file is given,
    ///    rename the bad file to `<path>.quarantine` (preserving it for
    ///    forensics), rebuild the full index from `source`, and serve
    ///    that — startup degrades to a slow build instead of failing.
    ///    With a `source`, the graph section's deferred checksum is paid
    ///    too; without one the open stays zero-copy;
    /// 3. otherwise surface the typed error.
    ///
    /// The load then adopts the snapshot's sibling write-ahead log
    /// (`<path>.wal`, created if absent): committed mutations replay on
    /// top of the loaded dataset, and an unreadable or mismatched log is
    /// quarantined (see `crate::mutate`). The read, any quarantine, any
    /// rebuild and the replay all complete before the registry lock is
    /// touched.
    pub fn load_snapshot_with_fallback(
        &self,
        name: &str,
        path: &str,
        source: Option<&str>,
        retry: &RetryPolicy,
        policy: &ExecPolicy,
    ) -> Result<LoadOutcome, EngineError> {
        let (dataset, outcome) = snapshot::load_or_rebuild(path, source, retry, policy)?;
        let (dataset, delta) = crate::mutate::adopt_wal(dataset, &format!("{path}.wal"))?;
        self.guard()
            .install_loaded_with_delta(name, dataset, outcome, delta);
        Ok(outcome)
    }

    /// Answers one query against the named dataset.
    pub fn query(
        &self,
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

    /// Answers a batch of queries (see [`Engine::query_batch`] for the
    /// semantics), holding the registry lock only for the checkout, the
    /// artifact publish, and the final settlement — the build and the
    /// batch itself run with no guard live.
    pub fn query_batch(
        &self,
        name: &str,
        queries: &[Query],
        policy: &ExecPolicy,
    ) -> Result<Vec<Result<Answer, EngineError>>, EngineError> {
        let checked = self.guard().checkout(name)?;
        let (dataset, built_now) = if checked.is_built() {
            (checked, false)
        } else {
            let artifacts = Artifacts::build(checked.graph(), policy);
            let built = Arc::new(checked.with_artifacts(artifacts));
            self.guard().install_artifacts(name, &checked, &built);
            (built, true)
        };
        // Panic isolation happens with no guard live: a worker panic is
        // converted to a typed error and the registry stays unlocked and
        // unpoisoned throughout.
        let answers = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dataset.answer_batch(queries, policy)
        }))
        .map_err(|payload| EngineError::Internal(panic_message(payload.as_ref())))?;
        self.guard().finish_batch(name, built_now, queries.len());
        Ok(answers)
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
    fn shared_engine_answers_like_the_engine() {
        let shared = SharedEngine::with_budget(None);
        shared.insert_graph("fig2", generators::paper_figure2());
        let q = Query::BestKSet {
            metric: Metric::AverageDegree,
        };
        let a = shared.query("fig2", &q, &policy()).unwrap();
        assert_eq!(a.to_line(), "bestkset\tad\tk=2\tscore=3.1666666666666665");
        let c = shared.counters();
        assert_eq!((c.loads, c.builds, c.cache_hits), (1, 1, 0));
        shared.query("fig2", &q, &policy()).unwrap();
        assert_eq!(shared.counters().cache_hits, 1);
        assert_eq!(shared.len(), 1);
        assert!(!shared.is_empty());
        assert!(shared.remove("fig2"));
        assert!(shared.is_empty());
    }

    #[test]
    fn out_of_lock_build_publishes_artifacts() {
        let shared = SharedEngine::with_budget(None);
        shared.insert_graph("g", generators::erdos_renyi_gnm(60, 200, 1));
        assert!(!shared.dataset_rows()[0].built);
        shared.query("g", &Query::Stats, &policy()).unwrap();
        // The artifacts built outside the lock were installed in the slot.
        assert!(shared.dataset_rows()[0].built);
        assert_eq!(shared.counters().builds, 1);
    }

    #[test]
    fn worker_panic_does_not_poison_the_registry() {
        use bestk_faults::{sites, Fault, FaultPlan, SiteSpec};
        let shared = SharedEngine::with_budget(None);
        shared.insert_graph("fig2", generators::paper_figure2());
        let plan = FaultPlan::new(9).site(
            sites::EXEC_WORKER,
            SiteSpec::always(Fault::Panic).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let threads = ExecPolicy::with_threads(2).unwrap();
            let err = shared.query("fig2", &Query::Stats, &threads).unwrap_err();
            assert!(matches!(err, EngineError::Internal(_)), "{err}");
            let a = shared.query("fig2", &Query::Stats, &threads).unwrap();
            assert_eq!(a.to_line(), "stats\tn=12\tm=19\tkmax=3\tcores=3");
        });
    }

    #[test]
    fn eviction_between_checkout_and_answer_is_harmless() {
        // A checked-out dataset keeps its artifacts even if the slot is
        // evicted (copy-on-write): simulate by evicting via a tiny budget
        // while handles are out.
        let shared = SharedEngine::with_budget(Some(1));
        shared.insert_graph("a", generators::erdos_renyi_gnm(60, 200, 1));
        shared.insert_graph("b", generators::erdos_renyi_gnm(60, 200, 2));
        let q = Query::BestKSet {
            metric: Metric::AverageDegree,
        };
        let a1 = shared.query("a", &q, &policy()).unwrap().to_line();
        shared.query("b", &q, &policy()).unwrap();
        assert!(!shared.dataset_rows()[0].built, "a should be evicted");
        let a2 = shared.query("a", &q, &policy()).unwrap().to_line();
        assert_eq!(a1, a2);
    }

    #[test]
    fn corrupt_snapshot_quarantines_and_rebuilds_from_source() {
        let dir = std::env::temp_dir().join("bestk-engine-fallback-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("fig2.bestk");
        let source = dir.join("fig2.txt");
        let quarantine = dir.join("fig2.bestk.quarantine");
        // Every shared load adopts (creating if absent) the sibling log.
        let wal = dir.join("fig2.bestk.wal");
        std::fs::remove_file(&quarantine).ok();
        std::fs::remove_file(&wal).ok();
        let g = generators::paper_figure2();
        bestk_graph::io::write_edge_list_path(&g, &source).unwrap();
        let mut ds = crate::Dataset::from_graph(g);
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        // Corrupt the snapshot's payload on disk.
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();

        let eng = SharedEngine::with_budget(None);
        let snap_str = snap.to_str().unwrap();
        // Without a source the corruption surfaces as the typed error.
        let err = eng
            .load_snapshot_with_fallback("fig2", snap_str, None, &RetryPolicy::none(), &policy())
            .unwrap_err();
        assert!(err.is_corruption(), "{err}");
        // With a source the engine quarantines the bad file and rebuilds.
        let outcome = eng
            .load_snapshot_with_fallback(
                "fig2",
                snap_str,
                Some(source.to_str().unwrap()),
                &RetryPolicy::none(),
                &policy(),
            )
            .unwrap();
        assert_eq!(outcome, LoadOutcome::Rebuilt);
        assert!(quarantine.exists(), "corrupt file must be quarantined");
        assert!(!snap.exists(), "corrupt file must be moved aside");
        let a = eng
            .query(
                "fig2",
                &Query::BestKSet {
                    metric: Metric::AverageDegree,
                },
                &policy(),
            )
            .unwrap();
        assert_eq!(a.to_line(), "bestkset\tad\tk=2\tscore=3.1666666666666665");

        // An intact snapshot through the same entry point reports Loaded.
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        let outcome = eng
            .load_snapshot_with_fallback(
                "fig2b",
                snap_str,
                Some(source.to_str().unwrap()),
                &RetryPolicy::none(),
                &policy(),
            )
            .unwrap();
        assert_eq!(outcome, LoadOutcome::Loaded);
        for f in [snap, source, quarantine, wal] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn a_late_build_never_reverts_a_commit() {
        use bestk_graph::generators::EdgeOp;
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("g", generators::paper_figure2());
        // A query checks the dataset out; a commit lands before it publishes.
        let checked = eng.guard().checkout("g").unwrap();
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        eng.commit_edges("g", &policy()).unwrap();
        let built = Arc::new(checked.with_artifacts(Artifacts::build(checked.graph(), &policy())));
        eng.guard().install_artifacts("g", &checked, &built);
        let stats = eng.query("g", &Query::Stats, &policy()).unwrap().to_line();
        assert!(stats.starts_with("stats\tn=12\tm=20\t"), "{stats}");
        eng.stage_edge("g", EdgeOp::Delete(0, 11)).unwrap();
    }
}
