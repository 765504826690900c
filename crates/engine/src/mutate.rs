//! Edge mutations through the engine: stage → commit → compact.
//!
//! The registry's datasets are immutable; mutation happens through a
//! per-slot [`DeltaSlot`] holding the staged ops and the durable
//! [`DeltaLog`]:
//!
//! * **stage** ([`SharedEngine::stage_edge`]) checks the op against the
//!   slot's [`DeltaOverlay`] (the committed graph plus the edges the
//!   staged ops flip), appends it to the write-ahead log (not yet
//!   durable), and only then records it in the overlay. The overlay lives
//!   in the slot from the first stage after a commit until that commit, so
//!   a stage costs the same however many ops are already staged.
//! * **commit** ([`SharedEngine::commit_edges`]) appends the commit marker
//!   and `fsync`s (the durability point), folds the staged overlay into
//!   the mutated graph with [`DeltaOverlay::materialize`], builds that
//!   graph's artifacts once, and installs both as the slot's new dataset.
//!   The commit reply's best-k comes from those artifacts, and the next
//!   query is a cache hit.
//! * **compact**: once enough committed ops accumulate
//!   ([`COMPACT_OPS`]), the commit also writes the committed dataset as a
//!   v2 snapshot next to the log (temp file + rename, so live mappings of
//!   the old snapshot survive) and truncates the log back to its header.
//!
//! Lock discipline matches the rest of the registry: the slot's
//! `DeltaSlot` is *taken out* under the guard, all I/O and build work runs
//! with no guard live, and a second guard restores (or installs) the
//! result. While a slot's delta is checked out, a concurrent mutation on
//! the same dataset gets a typed `mutation rejected` error instead of
//! blocking.
//!
//! On load the sibling `<snapshot>.wal` is replayed: committed ops fold
//! into the loaded snapshot through the same [`DeltaOverlay::materialize`]
//! before the dataset is installed.
//! Both loads do this. [`SharedEngine::load_snapshot_with_fallback`]
//! (serve `load`, `bestk mutate`) adopts the log for writing: it creates
//! one if absent and cuts a torn or uncommitted tail, and an unreadable
//! log — or a committed op that no longer applies — is quarantined to
//! `<wal>.quarantine` while the engine serves the un-mutated snapshot,
//! mirroring the corrupt-snapshot ladder. The strict
//! [`Engine::load_snapshot`](crate::Engine::load_snapshot)
//! (`bestk query`) only reads the log: it writes no byte of it, and an
//! unreadable or non-applying log is a typed error.
//!
//! Replay and every commit copy the whole committed graph, so both first
//! pay a mapped snapshot's deferred graph-section check (see
//! [`crate::snapv2`]; a passed check is remembered per mapping): a corrupt
//! graph is a typed error, never folded into a heap graph or compacted
//! back over the snapshot.

use std::path::PathBuf;

use bestk_core::{BestKSet, Metric};
use bestk_delta::{DeltaError, DeltaLog, DeltaOverlay};
use bestk_exec::ExecPolicy;
use bestk_graph::generators::EdgeOp;
use bestk_graph::VertexId;

use crate::dataset::{Artifacts, Dataset};
use crate::error::EngineError;
use crate::registry::SharedEngine;
use crate::store::GraphStore;

/// Committed ops accumulated before a commit also compacts the write-ahead
/// log into a fresh v2 snapshot.
pub const COMPACT_OPS: u64 = 256;

/// Per-slot mutation state: the staged ops, the write-ahead log and the
/// compaction counters. Lives inside the registry slot and is taken out
/// (never locked over I/O) for the duration of one mutation.
#[derive(Debug)]
pub struct DeltaSlot {
    /// The staged, uncommitted ops over the slot's committed graph. Built
    /// at the first stage after a commit and dropped by the commit, the
    /// only step that changes the slot's graph.
    pub(crate) staged: Option<DeltaOverlay<GraphStore>>,
    /// The durable log; `None` for in-memory datasets (`insert_graph`),
    /// whose mutations are valid but not crash-durable.
    pub(crate) wal: Option<DeltaLog>,
    /// Committed ops since the last compaction.
    pub(crate) committed_ops: u64,
    /// Compaction threshold (the constant, overridable in tests).
    pub(crate) compact_after: u64,
}

impl Default for DeltaSlot {
    fn default() -> DeltaSlot {
        DeltaSlot {
            staged: None,
            wal: None,
            committed_ops: 0,
            compact_after: COMPACT_OPS,
        }
    }
}

impl DeltaSlot {
    /// Heap bytes this slot's mutation state keeps resident: the staged
    /// ops, each holding one op and at most one flipped edge. Counted by
    /// [`Engine::resident_bytes`], so a mutating dataset pressures the LRU
    /// budget like any other resident state.
    ///
    /// [`Engine::resident_bytes`]: crate::Engine::resident_bytes
    pub(crate) fn heap_bytes(&self) -> usize {
        let per_op = std::mem::size_of::<EdgeOp>() + std::mem::size_of::<(VertexId, VertexId)>();
        self.pending().len() * per_op
    }

    /// Staged, uncommitted ops in application order.
    pub(crate) fn pending(&self) -> &[EdgeOp] {
        self.staged.as_ref().map_or(&[], DeltaOverlay::pending)
    }

    fn with_wal(wal: DeltaLog, committed_ops: u64) -> DeltaSlot {
        DeltaSlot {
            wal: Some(wal),
            committed_ops,
            ..DeltaSlot::default()
        }
    }
}

/// What one commit did, for replies and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitSummary {
    /// Ops folded in by this commit.
    pub ops: usize,
    /// Vertex count of the committed graph.
    pub vertices: u64,
    /// Edge count of the committed graph.
    pub edges: u64,
    /// Largest coreness of the committed graph.
    pub kmax: u32,
    /// Best k under average degree, from the committed graph's artifacts.
    pub best: Option<BestKSet>,
    /// Whether this commit also compacted the log into a v2 snapshot.
    pub compacted: bool,
}

/// Checks `op` against the committed graph plus the staged ops,
/// write-ahead-logs it, and records it. An op whose append fails is
/// neither logged nor staged. Runs with no registry guard live.
fn stage_op(dataset: &Dataset, delta: &mut DeltaSlot, op: EdgeOp) -> Result<usize, EngineError> {
    let staged = delta
        .staged
        .get_or_insert_with(|| DeltaOverlay::new(dataset.graph().clone()));
    staged.check(op)?;
    if let Some(wal) = delta.wal.as_mut() {
        wal.append(&op)?;
    }
    staged.apply(op)?;
    Ok(staged.pending().len())
}

/// Folds the staged ops into the mutated graph, builds its artifacts, and
/// (past the threshold) compacts the log into a v2 snapshot. Runs with no
/// registry guard live.
fn commit_ops(
    dataset: &Dataset,
    delta: &mut DeltaSlot,
    policy: &ExecPolicy,
) -> Result<(Dataset, CommitSummary), EngineError> {
    let _span = bestk_obs::span!("phase.delta.commit");
    let Some(staged) = delta.staged.as_ref().filter(|s| !s.pending().is_empty()) else {
        return Err(EngineError::Mutation("nothing staged to commit".into()));
    };
    // The fold copies the whole committed graph, and compaction may
    // rewrite it under fresh checksums, so a mapped graph pays its deferred
    // check first: a corrupt snapshot fails the commit before anything
    // becomes durable.
    crate::snapshot::check_graph(dataset)?;
    // Durability point: marker + fsync. On failure the ops stay staged and
    // the commit can be retried.
    if let Some(wal) = delta.wal.as_mut() {
        wal.commit()?;
    }
    let ops = staged.pending().len();
    let graph = staged.materialize();
    delta.staged = None;
    delta.committed_ops += ops as u64;
    bestk_obs::counter("delta.commits").inc();
    let artifacts = Artifacts::build(&graph, policy);
    let summary = CommitSummary {
        ops,
        vertices: graph.num_vertices() as u64,
        edges: graph.num_edges() as u64,
        kmax: artifacts.decomp.kmax(),
        best: artifacts
            .set_profile
            .try_best(&Metric::AverageDegree)
            .ok()
            .flatten(),
        compacted: false,
    };
    let committed = Dataset::from_built(graph, artifacts);
    let compacted = delta.committed_ops >= delta.compact_after && compact(&committed, delta)?;
    Ok((
        committed,
        CommitSummary {
            compacted,
            ..summary
        },
    ))
}

/// Writes the committed dataset as a v2 snapshot beside the log (temp
/// file then rename, so live mappings of the old snapshot stay valid),
/// then truncates the log back to its header.
///
/// The commit is already durable, so a snapshot that cannot be written
/// does not undo it: the old snapshot plus the log still replay to the
/// committed state. The failure is counted, the commit reports no
/// compaction, and the committed-op count stays, so the next commit
/// retries.
fn compact(dataset: &Dataset, delta: &mut DeltaSlot) -> Result<bool, EngineError> {
    let Some(wal) = delta.wal.as_mut() else {
        return Ok(false);
    };
    let Some(snap) = wal
        .path()
        .to_str()
        .and_then(|p| p.strip_suffix(".wal"))
        .map(PathBuf::from)
    else {
        return Ok(false);
    };
    let tmp = snap.with_extension("bestk.compact");
    let written = crate::save_snapshot_v2_path(dataset, &tmp)
        .and_then(|()| std::fs::rename(&tmp, &snap).map_err(EngineError::from));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        bestk_obs::counter("delta.compaction_failures").inc();
        return Ok(false);
    }
    wal.reset()?;
    delta.committed_ops = 0;
    bestk_obs::counter("delta.compactions").inc();
    Ok(true)
}

/// Adopts the sibling write-ahead log of a just-loaded snapshot: opens (or
/// creates) `<path>.wal`, re-applies its committed ops on top of the
/// dataset, and returns the mutated dataset plus the slot state. An
/// unreadable log — or a committed op that no longer applies — is
/// quarantined to `<wal>.quarantine` and the un-mutated dataset is served.
/// A log with committed ops first checks the snapshot's graph section.
/// Runs with no registry guard live.
pub(crate) fn adopt_wal(
    dataset: Dataset,
    wal_path: &str,
) -> Result<(Dataset, DeltaSlot), EngineError> {
    let (log, ops) = match DeltaLog::open(wal_path) {
        Ok(opened) => opened,
        Err(DeltaError::BadLog(_)) => {
            quarantine_wal(wal_path)?;
            DeltaLog::open(wal_path)?
        }
        Err(e) => return Err(e.into()),
    };
    if ops.is_empty() {
        return Ok((dataset, DeltaSlot::with_wal(log, 0)));
    }
    match apply_committed(&dataset, &ops)? {
        Some(mutated) => Ok((mutated, DeltaSlot::with_wal(log, ops.len() as u64))),
        None => {
            // The log's committed ops do not fit this snapshot (e.g. the
            // snapshot was rebuilt from its original source): preserve the
            // log for forensics and serve the snapshot as-is.
            drop(log);
            quarantine_wal(wal_path)?;
            let (fresh, _) = DeltaLog::open(wal_path)?;
            Ok((dataset, DeltaSlot::with_wal(fresh, 0)))
        }
    }
}

/// The strict load's replay: re-applies the committed ops of the log at
/// `wal_path` (a missing log is an empty one) on top of `dataset`, and
/// writes nothing. A torn or uncommitted tail is left as it is, no log is
/// created, and a log that is not a delta log, or whose committed ops no
/// longer apply, is a typed error rather than a quarantine, so a one-shot
/// reader never disturbs a log that a live server is writing.
pub(crate) fn replay_wal(dataset: Dataset, wal_path: &str) -> Result<Dataset, EngineError> {
    let ops = bestk_delta::replay_path(wal_path)?.ops;
    if ops.is_empty() {
        return Ok(dataset);
    }
    apply_committed(&dataset, &ops)?.ok_or_else(|| {
        EngineError::BadSnapshot(format!(
            "delta log {wal_path}: its committed ops no longer apply to the snapshot"
        ))
    })
}

/// Re-applies committed `ops` on top of `dataset` and returns the mutated
/// dataset, or `None` when one of them no longer applies. Replay copies
/// the whole snapshot graph into the mutated one, so a mapped graph pays
/// its deferred check first.
fn apply_committed(dataset: &Dataset, ops: &[EdgeOp]) -> Result<Option<Dataset>, EngineError> {
    crate::snapshot::check_graph(dataset)?;
    let mut overlay = DeltaOverlay::new(dataset.graph());
    for op in ops {
        if overlay.apply(*op).is_err() {
            return Ok(None);
        }
    }
    bestk_obs::counter("delta.replayed_ops").add(ops.len() as u64);
    Ok(Some(Dataset::from_graph(overlay.materialize())))
}

/// Moves an unusable write-ahead log aside as `<wal>.quarantine`,
/// prefixing one forensic header line: the byte offset of the first bad
/// record and the fnv1a64 of the log from that offset on (see
/// [`bestk_delta::first_bad_record`]). A byte-clean log quarantined for
/// semantic reasons — committed ops that no longer apply — records its
/// full length and whole-file checksum instead. The original bytes follow
/// the header verbatim, so triage never has to re-scan for the damage.
fn quarantine_wal(wal_path: &str) -> Result<(), EngineError> {
    bestk_obs::counter("delta.wal_quarantined").inc();
    let bytes = std::fs::read(wal_path)?;
    let (off, sum) = bestk_delta::first_bad_record(&bytes)
        .unwrap_or((bytes.len() as u64, crate::snapshot::fnv1a(&bytes)));
    let mut out = format!("bestk-quarantine off={off} fnv1a64={sum:016x}\n").into_bytes();
    out.extend_from_slice(&bytes);
    std::fs::write(format!("{wal_path}.quarantine"), out)?;
    std::fs::remove_file(wal_path)?;
    Ok(())
}

impl SharedEngine {
    /// Stages one edge mutation against the named dataset: checked
    /// against the committed graph plus the staged ops, write-ahead-logged,
    /// then held until [`commit_edges`](Self::commit_edges). Returns the
    /// number of staged ops. The registry lock is held only to take the
    /// slot's delta state out and put it back.
    pub fn stage_edge(&self, name: &str, op: EdgeOp) -> Result<usize, EngineError> {
        let (dataset, mut delta) = self.guard().delta_checkout(name)?;
        let result = stage_op(&dataset, &mut delta, op);
        self.guard().delta_restore(name, delta);
        result
    }

    /// Commits every staged op on the named dataset: fsyncs the log, folds
    /// the ops into the mutated graph, builds its artifacts, and installs
    /// both as the slot's new dataset, so the next query is a cache hit.
    /// Fails with a typed error — leaving the ops staged — when nothing is
    /// pending, a mapped graph fails its check, or the log cannot be made
    /// durable.
    pub fn commit_edges(
        &self,
        name: &str,
        policy: &ExecPolicy,
    ) -> Result<CommitSummary, EngineError> {
        let (dataset, mut delta) = self.guard().delta_checkout(name)?;
        match commit_ops(&dataset, &mut delta, policy) {
            Ok((committed, summary)) => {
                self.guard().install_mutated(name, committed, delta);
                Ok(summary)
            }
            Err(e) => {
                self.guard().delta_restore(name, delta);
                Err(e)
            }
        }
    }

    /// Number of staged (uncommitted) ops on the named dataset.
    pub fn pending_ops(&self, name: &str) -> Result<usize, EngineError> {
        self.guard().pending_ops(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LoadOutcome;
    use crate::query::{Answer, Query};
    use crate::snapshot;
    use bestk_graph::generators;

    fn policy() -> ExecPolicy {
        ExecPolicy::Sequential
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bestk-mutate-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stage_and_commit_mutate_an_in_memory_dataset() {
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("fig2", generators::paper_figure2());
        assert_eq!(eng.stage_edge("fig2", EdgeOp::Insert(0, 11)).unwrap(), 1);
        assert_eq!(eng.stage_edge("fig2", EdgeOp::Delete(0, 1)).unwrap(), 2);
        assert_eq!(eng.pending_ops("fig2").unwrap(), 2);
        // Queries still see the committed (unmutated) graph while staged.
        let a = eng.query("fig2", &Query::Stats, &policy()).unwrap();
        assert_eq!(a.to_line(), "stats\tn=12\tm=19\tkmax=3\tcores=3");
        let summary = eng.commit_edges("fig2", &policy()).unwrap();
        assert_eq!((summary.ops, summary.vertices, summary.edges), (2, 12, 19));
        assert!(!summary.compacted);
        assert_eq!(eng.pending_ops("fig2").unwrap(), 0);
        let a = eng.query("fig2", &Query::Stats, &policy()).unwrap();
        assert!(
            a.to_line().starts_with("stats\tn=12\tm=19"),
            "{}",
            a.to_line()
        );
        // The mutated graph matches building the same graph from scratch.
        let mut b = bestk_graph::GraphBuilder::new();
        b.reserve_vertices(12);
        let base = generators::paper_figure2();
        for (u, v) in base.edges() {
            if (u, v) != (0, 1) {
                b.add_edge(u, v);
            }
        }
        b.add_edge(0, 11);
        let expect = b.build();
        let eng2 = SharedEngine::with_budget(None);
        eng2.insert_graph("want", expect);
        let q = Query::BestKSet {
            metric: Metric::AverageDegree,
        };
        assert_eq!(
            eng.query("fig2", &q, &policy()).unwrap().to_line(),
            eng2.query("want", &q, &policy()).unwrap().to_line()
        );
    }

    #[test]
    fn invalid_ops_and_empty_commits_are_typed_rejections() {
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("g", generators::paper_figure2());
        let err = eng.commit_edges("g", &policy()).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "{err}");
        let err = eng.stage_edge("g", EdgeOp::Insert(3, 3)).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "{err}");
        let err = eng.stage_edge("g", EdgeOp::Delete(0, 11)).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "{err}");
        // Duplicate insert across the pending overlay is caught too.
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        let err = eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "{err}");
        assert_eq!(eng.pending_ops("g").unwrap(), 1);
        let err = eng.stage_edge("nope", EdgeOp::Insert(0, 1)).unwrap_err();
        assert!(matches!(err, EngineError::UnknownDataset(_)), "{err}");
    }

    #[test]
    fn a_checked_out_delta_rejects_concurrent_mutations() {
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("g", generators::paper_figure2());
        let (_ds, delta) = eng.guard().delta_checkout("g").unwrap();
        let err = eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "{err}");
        eng.guard().delta_restore("g", delta);
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
    }

    #[test]
    fn wal_replays_committed_mutations_across_restarts() {
        let dir = temp_dir("restart");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        for stale in [&wal, &dir.join("g.bestk.wal.quarantine")] {
            let _ = std::fs::remove_file(stale);
        }
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();

        let line;
        {
            let eng = SharedEngine::with_budget(None);
            eng.load_snapshot_with_fallback(
                "g",
                snap.to_str().unwrap(),
                None,
                &snapshot::RetryPolicy::none(),
                &policy(),
            )
            .unwrap();
            eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
            eng.stage_edge("g", EdgeOp::Delete(0, 1)).unwrap();
            eng.commit_edges("g", &policy()).unwrap();
            // Staged-but-uncommitted ops must NOT survive the restart.
            eng.stage_edge("g", EdgeOp::Insert(1, 10)).unwrap();
            line = eng.query("g", &Query::Stats, &policy()).unwrap().to_line();
        }
        let eng = SharedEngine::with_budget(None);
        eng.load_snapshot_with_fallback(
            "g",
            snap.to_str().unwrap(),
            None,
            &snapshot::RetryPolicy::none(),
            &policy(),
        )
        .unwrap();
        assert_eq!(
            eng.query("g", &Query::Stats, &policy()).unwrap().to_line(),
            line
        );
        assert_eq!(eng.pending_ops("g").unwrap(), 0);
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn commit_past_the_threshold_compacts_into_a_v2_snapshot() {
        let dir = temp_dir("compact");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let _ = std::fs::remove_file(&wal);
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();

        let eng = SharedEngine::with_budget(None);
        eng.load_snapshot_with_fallback(
            "g",
            snap.to_str().unwrap(),
            None,
            &snapshot::RetryPolicy::none(),
            &policy(),
        )
        .unwrap();
        {
            let mut guard = eng.guard();
            let (_, mut delta) = guard.delta_checkout("g").unwrap();
            delta.compact_after = 1;
            guard.delta_restore("g", delta);
        }
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        let summary = eng.commit_edges("g", &policy()).unwrap();
        assert!(summary.compacted);
        let line = eng.query("g", &Query::Stats, &policy()).unwrap().to_line();
        // The log is back to its bare header...
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            bestk_delta::WAL_MAGIC.len() as u64
        );
        // ...and the snapshot at the original path was rewritten and carries
        // the mutation on its own.
        let eng2 = SharedEngine::with_budget(None);
        eng2.load_snapshot_with_fallback(
            "g",
            snap.to_str().unwrap(),
            None,
            &snapshot::RetryPolicy::none(),
            &policy(),
        )
        .unwrap();
        assert_eq!(
            eng2.query("g", &Query::Stats, &policy()).unwrap().to_line(),
            line
        );
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Flips one adjacency byte of the snapshot at `path`: the low byte of
    /// the last neighbor in the graph section (the first section-table
    /// entry). Opening defers that section's checksum, so the file still
    /// opens.
    fn flip_graph_byte(path: &std::path::Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let end = (word(72) + word(80)) as usize;
        bytes[end - 4] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    fn load(eng: &SharedEngine, snap: &std::path::Path) -> Result<LoadOutcome, EngineError> {
        eng.load_snapshot_with_fallback(
            "g",
            snap.to_str().unwrap(),
            None,
            &snapshot::RetryPolicy::none(),
            &policy(),
        )
    }

    #[test]
    fn a_corrupt_graph_is_never_committed_or_compacted() {
        let dir = temp_dir("corrupt-commit");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let _ = std::fs::remove_file(&wal);
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        flip_graph_byte(&snap);
        let flipped = std::fs::read(&snap).unwrap();

        let eng = SharedEngine::with_budget(None);
        load(&eng, &snap).unwrap();
        {
            let mut guard = eng.guard();
            let (_, mut delta) = guard.delta_checkout("g").unwrap();
            delta.compact_after = 1;
            guard.delta_restore("g", delta);
        }
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        let err = eng.commit_edges("g", &policy()).unwrap_err();
        assert!(
            matches!(err, EngineError::ChecksumMismatch { section: "graph" }),
            "{err}"
        );
        // Nothing became durable and the snapshot was not rewritten.
        assert_eq!(eng.pending_ops("g").unwrap(), 1);
        assert_eq!(std::fs::read(&snap).unwrap(), flipped);
        drop(eng);
        let (_, replayed) = DeltaLog::open(&wal).unwrap();
        assert!(replayed.is_empty(), "no committed op in the log");
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn a_corrupt_graph_is_never_replayed() {
        let dir = temp_dir("corrupt-replay");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let _ = std::fs::remove_file(&wal);
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        {
            let eng = SharedEngine::with_budget(None);
            load(&eng, &snap).unwrap();
            eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
            eng.commit_edges("g", &policy()).unwrap();
        }
        flip_graph_byte(&snap);
        let err = load(&SharedEngine::with_budget(None), &snap).unwrap_err();
        assert!(
            matches!(err, EngineError::ChecksumMismatch { section: "graph" }),
            "{err}"
        );
        // With no committed op to replay, the load stays zero-copy.
        let (mut log, _) = DeltaLog::open(&wal).unwrap();
        log.reset().unwrap();
        drop(log);
        assert_eq!(
            load(&SharedEngine::with_budget(None), &snap).unwrap(),
            LoadOutcome::Loaded
        );
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn a_failed_append_neither_logs_nor_stages_the_op() {
        use bestk_faults::{sites, Fault, FaultPlan, SiteSpec};
        let dir = temp_dir("failed-append");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        for fault in [Fault::IoError, Fault::Truncate] {
            let _ = std::fs::remove_file(&wal);
            let eng = SharedEngine::with_budget(None);
            load(&eng, &snap).unwrap();
            let plan = FaultPlan::new(1).site(
                sites::DELTA_WAL_APPEND,
                SiteSpec::always(fault).with_budget(1),
            );
            bestk_faults::with_plan(&plan, || {
                assert!(eng.stage_edge("g", EdgeOp::Insert(0, 11)).is_err());
            });
            assert_eq!(eng.pending_ops("g").unwrap(), 0, "{fault:?}");
            assert_eq!(eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap(), 1);
            eng.commit_edges("g", &policy()).unwrap();
            let live = eng.query("g", &Query::Stats, &policy()).unwrap().to_line();
            let fresh = SharedEngine::with_budget(None);
            load(&fresh, &snap).unwrap();
            assert_eq!(
                fresh
                    .query("g", &Query::Stats, &policy())
                    .unwrap()
                    .to_line(),
                live,
                "{fault:?}"
            );
        }
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn a_failed_compaction_keeps_the_durable_commit() {
        use bestk_faults::{sites, Fault, FaultPlan, SiteSpec};
        let dir = temp_dir("failed-compaction");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let quarantine = dir.join("g.bestk.wal.quarantine");
        for stale in [&wal, &quarantine] {
            let _ = std::fs::remove_file(stale);
        }
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        let stats = |eng: &SharedEngine| eng.query("g", &Query::Stats, &policy()).unwrap();

        let eng = SharedEngine::with_budget(None);
        load(&eng, &snap).unwrap();
        {
            let mut guard = eng.guard();
            let (_, mut delta) = guard.delta_checkout("g").unwrap();
            delta.compact_after = 2;
            guard.delta_restore("g", delta);
        }
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        assert_eq!(eng.commit_edges("g", &policy()).unwrap().edges, 20);
        // The second commit reaches the threshold, and its snapshot write
        // fails after the commit marker is durable.
        eng.stage_edge("g", EdgeOp::Insert(1, 10)).unwrap();
        let plan = FaultPlan::new(1).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::IoError).with_budget(1),
        );
        let clock = std::sync::Arc::new(bestk_obs::ManualClock::with_step(1));
        let (summary, recorded) = bestk_obs::with_fresh(clock, || {
            bestk_faults::with_plan(&plan, || eng.commit_edges("g", &policy()))
        });
        let summary = summary.unwrap();
        assert_eq!((summary.edges, summary.compacted), (21, false));
        assert_eq!(recorded.counter("delta.compaction_failures"), Some(1));
        assert!(
            stats(&eng).to_line().starts_with("stats\tn=12\tm=21\t"),
            "{}",
            stats(&eng).to_line()
        );
        let err = eng.stage_edge("g", EdgeOp::Insert(1, 10)).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "{err}");
        // The old snapshot plus the log replay to the committed state.
        let fresh = SharedEngine::with_budget(None);
        load(&fresh, &snap).unwrap();
        assert_eq!(stats(&fresh), stats(&eng));
        drop(fresh);
        assert!(!quarantine.exists(), "the log must replay cleanly");
        // The next commit retries the compaction.
        eng.stage_edge("g", EdgeOp::Insert(2, 10)).unwrap();
        assert!(eng.commit_edges("g", &policy()).unwrap().compacted);
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn staged_ops_keep_their_base_across_dataset_swaps() {
        let eng = SharedEngine::with_budget(Some(1));
        eng.insert_graph("g", generators::paper_figure2());
        eng.insert_graph("other", generators::erdos_renyi_gnm(60, 200, 2));
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        // The out-of-lock build publishes a new dataset handle for `g`, and
        // touching `other` under the 1-byte budget evicts `g`'s artifacts.
        eng.query("g", &Query::Stats, &policy()).unwrap();
        eng.query("other", &Query::Stats, &policy()).unwrap();
        assert!(!eng.dataset_rows()[0].built, "g must be evicted");
        eng.stage_edge("g", EdgeOp::Insert(1, 10)).unwrap();
        eng.commit_edges("g", &policy()).unwrap();
        let mut b = bestk_graph::GraphBuilder::new();
        b.reserve_vertices(12);
        for (u, v) in generators::paper_figure2().edges() {
            b.add_edge(u, v);
        }
        b.add_edge(0, 11);
        b.add_edge(1, 10);
        let cold = SharedEngine::with_budget(None);
        cold.insert_graph("want", b.build());
        assert_eq!(
            eng.query("g", &Query::Stats, &policy()).unwrap().to_line(),
            cold.query("want", &Query::Stats, &policy())
                .unwrap()
                .to_line()
        );
    }

    #[test]
    fn an_alien_wal_is_quarantined_and_the_snapshot_served() {
        let dir = temp_dir("quarantine");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let quarantine = dir.join("g.bestk.wal.quarantine");
        for stale in [&wal, &quarantine] {
            let _ = std::fs::remove_file(stale);
        }
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        std::fs::write(&wal, b"not a delta log at all").unwrap();

        let eng = SharedEngine::with_budget(None);
        eng.load_snapshot_with_fallback(
            "g",
            snap.to_str().unwrap(),
            None,
            &snapshot::RetryPolicy::none(),
            &policy(),
        )
        .unwrap();
        assert!(quarantine.exists(), "bad log must be preserved");
        // The quarantine file leads with the forensic header — damage at
        // offset 0 (no magic), checksum over the whole preserved log —
        // followed by the original bytes verbatim.
        let preserved = std::fs::read(&quarantine).unwrap();
        let alien = b"not a delta log at all";
        let (off, sum) = bestk_delta::first_bad_record(alien).unwrap();
        assert_eq!(off, 0);
        let header = format!("bestk-quarantine off=0 fnv1a64={sum:016x}\n");
        assert_eq!(&preserved[..header.len()], header.as_bytes());
        assert_eq!(&preserved[header.len()..], alien);
        let a = eng.query("g", &Query::Stats, &policy()).unwrap();
        assert_eq!(a.to_line(), "stats\tn=12\tm=19\tkmax=3\tcores=3");
        // Mutations keep working on the fresh log.
        eng.stage_edge("g", EdgeOp::Insert(0, 11)).unwrap();
        eng.commit_edges("g", &policy()).unwrap();
        for f in [snap, wal, quarantine] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn the_strict_load_reports_a_bad_log_and_leaves_it_in_place() {
        let dir = temp_dir("strict");
        let snap = dir.join("g.bestk");
        let wal = dir.join("g.bestk.wal");
        let quarantine = dir.join("g.bestk.wal.quarantine");
        for stale in [&wal, &quarantine] {
            let _ = std::fs::remove_file(stale);
        }
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, &snap).unwrap();
        // A committed insert of an edge the snapshot already holds.
        let (mut log, _) = DeltaLog::open(&wal).unwrap();
        log.append(&EdgeOp::Insert(0, 1)).unwrap();
        log.commit().unwrap();
        drop(log);
        let non_applying = std::fs::read(&wal).unwrap();
        for bytes in [non_applying, b"not a delta log at all".to_vec()] {
            std::fs::write(&wal, &bytes).unwrap();
            let err = crate::Engine::new(None)
                .load_snapshot("g", snap.to_str().unwrap())
                .unwrap_err();
            assert!(err.is_corruption(), "{err}");
            assert_eq!(std::fs::read(&wal).unwrap(), bytes);
            assert!(!quarantine.exists(), "a read-only load never quarantines");
        }
        for f in [snap, wal] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn eviction_survives_mutation() {
        // Eviction keeps working while a dataset mutates, and both datasets
        // answer correctly after the squeeze.
        let eng = SharedEngine::with_budget(Some(1));
        let base = generators::erdos_renyi_gnm(60, 200, 1);
        eng.insert_graph("hot", base.clone());
        eng.insert_graph("cold", generators::erdos_renyi_gnm(60, 200, 2));
        // Build `cold`'s artifacts: with a 1-byte budget it is the standing
        // eviction candidate whenever another slot is touched.
        let cold_line = eng
            .query("cold", &Query::Stats, &policy())
            .unwrap()
            .to_line();
        let ops = generators::edge_stream_mixed(&base, 10, 5);
        for op in &ops {
            eng.stage_edge("hot", *op).unwrap();
        }
        eng.commit_edges("hot", &policy()).unwrap();
        // The commit's budget pass evicted `cold` (the only built,
        // unprotected slot) while `hot` was mid-mutation; `hot` keeps the
        // artifacts its commit built.
        let built: Vec<(String, bool)> = eng
            .dataset_rows()
            .iter()
            .map(|r| (r.name.clone(), r.built))
            .collect();
        assert_eq!(
            built,
            vec![("cold".to_owned(), false), ("hot".to_owned(), true)]
        );
        // `cold` rebuilds to the identical answer, `hot` serves the mutated
        // graph.
        assert_eq!(
            eng.query("cold", &Query::Stats, &policy())
                .unwrap()
                .to_line(),
            cold_line
        );
        let want = SharedEngine::with_budget(None);
        want.insert_graph("hot", rebuilt(&base, &ops));
        assert_eq!(
            eng.query("hot", &Query::Stats, &policy()).unwrap(),
            want.query("hot", &Query::Stats, &policy()).unwrap()
        );
    }

    /// `base` with `ops` applied, folded through an edge set and a
    /// `GraphBuilder`, apart from the commit's own fold.
    fn rebuilt(base: &bestk_graph::CsrGraph, ops: &[EdgeOp]) -> bestk_graph::CsrGraph {
        let mut edges: std::collections::BTreeSet<_> = base.edges().collect();
        for op in ops {
            let (u, v) = op.endpoints();
            let edge = (u.min(v), u.max(v));
            if op.is_insert() {
                edges.insert(edge);
            } else {
                edges.remove(&edge);
            }
        }
        let mut b = bestk_graph::GraphBuilder::with_capacity(edges.len());
        b.reserve_vertices(base.num_vertices());
        b.extend_edges(edges);
        b.build()
    }

    /// Saves `g`, built, as a v2 snapshot at `snap` and loads it into a
    /// fresh engine under `"g"`, after clearing any log a previous run
    /// left.
    fn snapshot_backed(g: bestk_graph::CsrGraph, snap: &std::path::Path) -> SharedEngine {
        for stale in ["wal", "wal.quarantine"] {
            let _ = std::fs::remove_file(snap.with_extension(format!("bestk.{stale}")));
        }
        let mut ds = Dataset::from_graph(g);
        ds.ensure_built(&policy());
        crate::save_snapshot_v2_path(&ds, snap).unwrap();
        let eng = SharedEngine::with_budget(None);
        load(&eng, snap).unwrap();
        eng
    }

    #[test]
    fn every_commit_reply_matches_a_fresh_build_across_a_compaction() {
        let dir = temp_dir("fresh-build");
        let snap = dir.join("g.bestk");
        let base = generators::erdos_renyi_gnm(40, 100, 7);
        let eng = snapshot_backed(base.clone(), &snap);
        {
            let mut guard = eng.guard();
            let (_, mut delta) = guard.delta_checkout("g").unwrap();
            delta.compact_after = 12;
            guard.delta_restore("g", delta);
        }
        let ops = generators::edge_stream_mixed(&base, 30, 3);
        assert_eq!(ops.len(), 30);
        let mut compactions = 0;
        for (i, chunk) in ops.chunks(5).enumerate() {
            for op in chunk {
                eng.stage_edge("g", *op).unwrap();
            }
            let summary = eng.commit_edges("g", &policy()).unwrap();
            compactions += usize::from(summary.compacted);
            let fresh = SharedEngine::with_budget(None);
            fresh.insert_graph("g", rebuilt(&base, &ops[..5 * (i + 1)]));
            let Answer::Stats { kmax, .. } = fresh.query("g", &Query::Stats, &policy()).unwrap()
            else {
                panic!("stats answers stats");
            };
            let q = Query::BestKSet {
                metric: Metric::AverageDegree,
            };
            let best = match fresh.query("g", &q, &policy()).unwrap() {
                Answer::BestKSet { k, score, .. } => Some((k, score)),
                _ => None,
            };
            assert_eq!(summary.ops, chunk.len());
            assert_eq!(summary.kmax, kmax);
            assert_eq!(summary.best.map(|b| (b.k, b.score)), best);
        }
        assert_eq!(compactions, 2, "30 ops at a threshold of 12");
        for f in ["bestk", "bestk.wal"] {
            let _ = std::fs::remove_file(snap.with_extension(f));
        }
    }

    #[test]
    fn a_commit_is_one_build_and_the_next_query_a_cache_hit() {
        let dir = temp_dir("one-build");
        let snap = dir.join("g.bestk");
        let base = generators::erdos_renyi_gnm(40, 100, 9);
        let eng = snapshot_backed(base.clone(), &snap);
        let q = Query::BestKSet {
            metric: Metric::ClusteringCoefficient,
        };
        for (i, op) in generators::edge_stream_mixed(&base, 4, 5)
            .into_iter()
            .enumerate()
        {
            eng.stage_edge("g", op).unwrap();
            let before = eng.counters();
            eng.commit_edges("g", &policy()).unwrap();
            let after = eng.counters();
            assert_eq!(after.builds, before.builds + 1, "commit {i}");
            eng.query("g", &q, &policy()).unwrap();
            let read = eng.counters();
            assert_eq!(read.builds, after.builds, "commit {i}");
            assert_eq!(read.cache_hits, after.cache_hits + 1, "commit {i}");
        }
        for f in ["bestk", "bestk.wal"] {
            let _ = std::fs::remove_file(snap.with_extension(f));
        }
    }
}
