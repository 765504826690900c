//! One loaded dataset: a graph plus its (possibly lazily built) index
//! artifacts.
//!
//! The artifacts are everything the paper's query algorithms need, owned
//! (no borrowed `OrderedGraph` — the raw arrays are kept):
//!
//! * the core decomposition (coreness, rank order, peel order, shells),
//! * the Algorithm 1 ordering (rank-sorted adjacency + position tags),
//! * the Algorithm 4 core forest,
//! * the per-k [`CoreSetProfile`] and per-core [`SingleCoreProfile`]
//!   primary values (triangles included, so all eight metrics answer).
//!
//! Queries are answered from the profiles in `O(kmax)` / `O(#cores)` — the
//! expensive `O(m^1.5)` work happens once, at build time (a snapshot load
//! skips it).
//! Batches are fanned out through [`bestk_exec::ExecPolicy::map_chunks`]
//! with an ordered merge, so the answer list is bit-identical at every
//! thread count.

use bestk_core::{
    build_stages, core_decomposition, CoreDecomposition, CoreForest, CoreSetProfile,
    SingleCoreProfile, Stages,
};
use bestk_exec::ExecPolicy;
use bestk_faults::sites;
use bestk_graph::{CsrGraph, GraphView, VertexId};

use crate::error::EngineError;
use crate::query::{Answer, Query};
use crate::snapv2::MappedIndex;
use crate::store::GraphStore;

/// The index artifacts derived from a graph (everything beyond the CSR).
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// The core decomposition.
    pub decomp: CoreDecomposition,
    /// Rank-ordered adjacency (Algorithm 1), aligned with the graph's
    /// offsets.
    pub adj: Vec<VertexId>,
    /// Per-vertex `same` position tags.
    pub same: Vec<u32>,
    /// Per-vertex `plus` position tags.
    pub plus: Vec<u32>,
    /// Per-vertex `high` position tags.
    pub high: Vec<u32>,
    /// The LCPS core forest (Algorithm 4).
    pub forest: CoreForest,
    /// Per-k primary values of every k-core set (Algorithms 2–3).
    pub set_profile: CoreSetProfile,
    /// Per-core primary values of every forest node (Algorithm 5).
    pub core_profile: SingleCoreProfile,
}

impl Artifacts {
    /// Builds every artifact from scratch under an execution policy
    /// (`O(m^1.5)` — triangles are always computed so triangle metrics
    /// answer without a rebuild). The stages past the peel run on the
    /// schedule of [`bestk_core::build_stages`].
    pub fn build<G: GraphView + Sync>(graph: &G, policy: &ExecPolicy) -> Artifacts {
        let decomp = core_decomposition(graph);
        let Stages {
            ordered,
            forest,
            set_profile,
            core_profile,
        } = build_stages(graph, &decomp, true, policy);
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

    /// Approximate resident heap size in bytes (used for the engine's
    /// memory budget; intentionally an estimate, not an allocator audit).
    pub fn resident_bytes(&self) -> usize {
        let n = self.decomp.num_vertices();
        let decomp = 4 * n // coreness
            + 2 * 4 * n // order + peel order
            + 8 * self.decomp.shell_starts().len();
        let ordering =
            4 * self.adj.len() + 4 * (self.same.len() + self.plus.len() + self.high.len());
        let forest = 4 * self.forest.vertex_nodes().len()
            + self
                .forest
                .nodes()
                .iter()
                .map(|node| 32 + 4 * (node.vertices.len() + node.children.len()))
                .sum::<usize>();
        let profiles =
            40 * self.set_profile.primaries.len() + 44 * self.core_profile.primaries.len();
        decomp + ordering + forest + profiles
    }
}

/// The index side of a dataset: absent, owned heap artifacts, or a
/// zero-copy view into a mapped v2 snapshot.
#[derive(Debug, Clone)]
pub enum Index {
    /// No index resident; queries refuse until [`Dataset::ensure_built`].
    None,
    /// Fully materialized heap artifacts (fresh builds), boxed to keep
    /// `Index` as small as its mapped variant.
    Owned(Box<Artifacts>),
    /// Profiles plus mapped coreness from an opened snapshot.
    Mapped(MappedIndex),
}

/// A named dataset held by the engine: the graph is always resident (in
/// one of the [`GraphStore`] backends); the index may be evicted under
/// memory pressure and lazily rebuilt on the next touch.
///
/// The store's variants hold their payloads behind [`Arc`]s (or borrow a
/// shared mapping), so the registry can replace a slot's dataset
/// copy-on-write (build, eviction) without deep-copying graph arrays, and
/// a checked-out dataset stays valid while the registry moves on.
#[derive(Debug, Clone)]
pub struct Dataset {
    store: GraphStore,
    index: Index,
}

impl Dataset {
    /// Wraps a graph with no artifacts yet (they build on first touch).
    pub fn from_graph(graph: CsrGraph) -> Dataset {
        Dataset {
            store: GraphStore::from(graph),
            index: Index::None,
        }
    }

    /// Assembles a dataset from a graph and artifacts already built for
    /// it (e.g. stage by stage, outside [`Artifacts::build`]).
    pub fn from_built(graph: CsrGraph, artifacts: Artifacts) -> Dataset {
        Dataset {
            store: GraphStore::from(graph),
            index: Index::Owned(Box::new(artifacts)),
        }
    }

    /// Assembles a dataset from an opened snapshot: a mapped graph plus
    /// its mapped index.
    pub fn from_mapped(store: GraphStore, index: MappedIndex) -> Dataset {
        Dataset {
            store,
            index: Index::Mapped(index),
        }
    }

    /// A new dataset sharing this one's graph, with `artifacts` attached
    /// (the copy-on-write publish step after an out-of-lock build).
    pub fn with_artifacts(&self, artifacts: Artifacts) -> Dataset {
        Dataset {
            store: self.store.clone(),
            index: Index::Owned(Box::new(artifacts)),
        }
    }

    /// A new dataset sharing this one's graph with no artifacts (the
    /// copy-on-write eviction step — checked-out readers keep theirs).
    pub fn without_artifacts(&self) -> Dataset {
        Dataset {
            store: self.store.clone(),
            index: Index::None,
        }
    }

    /// The underlying graph store.
    #[inline]
    pub fn graph(&self) -> &GraphStore {
        &self.store
    }

    /// Whether an index (owned or mapped) is currently resident.
    #[inline]
    pub fn is_built(&self) -> bool {
        !matches!(self.index, Index::None)
    }

    /// The owned artifacts, if resident. Mapped datasets return `None` —
    /// they answer queries but cannot be re-serialized or rebuilt into an
    /// `OrderedGraph` without materializing first.
    #[inline]
    pub fn artifacts(&self) -> Option<&Artifacts> {
        match &self.index {
            Index::Owned(art) => Some(&**art),
            _ => None,
        }
    }

    /// The mapped index, when this dataset came from a snapshot.
    #[inline]
    pub fn mapped_index(&self) -> Option<&MappedIndex> {
        match &self.index {
            Index::Mapped(idx) => Some(idx),
            _ => None,
        }
    }

    /// Builds the artifacts if no index is resident; returns `true` when a
    /// build actually ran (the engine's build-vs-cache-hit counter hook).
    /// A mapped index counts as built — it answers every query already.
    pub fn ensure_built(&mut self, policy: &ExecPolicy) -> bool {
        if self.is_built() {
            return false;
        }
        self.index = Index::Owned(Box::new(Artifacts::build(&self.store, policy)));
        true
    }

    /// Approximate resident heap size in bytes, graph included. Mapped
    /// graphs and coreness sections cost ~0 here — their bytes belong to
    /// the page cache, which is the point.
    pub fn resident_bytes(&self) -> usize {
        let graph = self.store.resident_heap_bytes();
        let index = match &self.index {
            Index::None => 0,
            Index::Owned(art) => art.resident_bytes(),
            Index::Mapped(idx) => idx.resident_bytes(),
        };
        graph + index
    }

    /// Answers one query from the resident artifacts.
    ///
    /// Requires [`is_built`](Self::is_built); the engine guarantees that by
    /// calling [`ensure_built`](Self::ensure_built) first.
    pub fn answer(&self, query: &Query) -> Result<Answer, EngineError> {
        // Both index forms answer from the same profile structures, so the
        // rendered lines are bit-identical; only the coreness/stats lookups
        // differ (heap arrays vs 4-byte mapped reads).
        let (set_profile, core_profile) = match &self.index {
            Index::Owned(art) => (&art.set_profile, &art.core_profile),
            Index::Mapped(idx) => (idx.set_profile(), idx.core_profile()),
            Index::None => {
                return Err(EngineError::BadQuery(
                    "dataset artifacts are not built".into(),
                ))
            }
        };
        match *query {
            Query::BestKSet { metric } => match set_profile.try_best(&metric)? {
                Some(best) => Ok(Answer::BestKSet {
                    metric,
                    k: best.k,
                    score: best.score,
                }),
                None => Ok(Answer::Undefined { what: "bestkset" }),
            },
            Query::BestCore { metric } => match core_profile.try_best(&metric)? {
                Some(best) => Ok(Answer::BestCore {
                    metric,
                    node: best.node,
                    k: best.k,
                    score: best.score,
                    size: core_profile.primaries[best.node as usize].num_vertices,
                }),
                None => Ok(Answer::Undefined { what: "bestcore" }),
            },
            Query::ScoreProfile { metric } => Ok(Answer::Profile {
                metric,
                scores: set_profile.try_scores(&metric)?,
            }),
            Query::CoreOfVertex { vertex } => {
                let n = self.store.num_vertices();
                let coreness = match &self.index {
                    Index::Owned(art) if (vertex as usize) < n => Some(art.decomp.coreness(vertex)),
                    Index::Mapped(idx) => idx.core_of(vertex),
                    _ => None,
                };
                match coreness {
                    Some(coreness) => Ok(Answer::CoreOf { vertex, coreness }),
                    None => Err(EngineError::BadQuery(format!(
                        "vertex {vertex} out of range (n = {n})"
                    ))),
                }
            }
            Query::Stats => {
                let (kmax, forest_nodes) = match &self.index {
                    Index::Owned(art) => (art.decomp.kmax(), art.forest.node_count() as u64),
                    Index::Mapped(idx) => (idx.kmax(), u64::from(idx.forest_nodes())),
                    Index::None => unreachable!("checked above"),
                };
                Ok(Answer::Stats {
                    vertices: self.store.num_vertices() as u64,
                    edges: self.store.num_edges() as u64,
                    kmax,
                    forest_nodes,
                })
            }
        }
    }

    /// Answers a batch of queries through the execution policy: queries are
    /// split into even chunks, answered on the policy's workers, and merged
    /// back in query order — bit-identical output at every thread count.
    pub fn answer_batch(
        &self,
        queries: &[Query],
        policy: &ExecPolicy,
    ) -> Vec<Result<Answer, EngineError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let plan = policy.plan_even(queries.len());
        let faults = bestk_faults::scope();
        let parts = policy.map_chunks(
            &plan,
            || (),
            |(), _, range| {
                // This closure executes on the policy's worker threads, so
                // the `exec.worker` failpoint exercises the runtime's panic
                // containment end to end (worker → PanicSlot → caller). It
                // fires in the caller's fault scope: a test's plan reaches
                // its own workers, not another test's.
                faults.enter(|| bestk_faults::maybe_panic(sites::EXEC_WORKER));
                queries[range]
                    .iter()
                    .map(|q| self.answer(q))
                    .collect::<Vec<_>>()
            },
        );
        parts.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_core::Metric;
    use bestk_graph::generators;

    fn built(g: CsrGraph) -> Dataset {
        let mut ds = Dataset::from_graph(g);
        assert!(ds.ensure_built(&ExecPolicy::Sequential));
        ds
    }

    #[test]
    fn figure2_answers_match_the_paper() {
        // Paper Examples 4/5: best k-core set is k=2 under average degree
        // and k=3 under clustering coefficient.
        let ds = built(generators::paper_figure2());
        let a = ds
            .answer(&Query::BestKSet {
                metric: Metric::AverageDegree,
            })
            .unwrap();
        assert_eq!(
            a,
            Answer::BestKSet {
                metric: Metric::AverageDegree,
                k: 2,
                score: 2.0 * 19.0 / 12.0
            }
        );
        let a = ds
            .answer(&Query::BestKSet {
                metric: Metric::ClusteringCoefficient,
            })
            .unwrap();
        assert!(matches!(a, Answer::BestKSet { k: 3, .. }));
        // Best single core under internal density: one of the K4s.
        let a = ds
            .answer(&Query::BestCore {
                metric: Metric::InternalDensity,
            })
            .unwrap();
        assert!(
            matches!(
                a,
                Answer::BestCore {
                    k: 3,
                    score,
                    size: 4,
                    ..
                } if score == 1.0
            ),
            "{a:?}"
        );
        let a = ds.answer(&Query::Stats).unwrap();
        assert_eq!(
            a,
            Answer::Stats {
                vertices: 12,
                edges: 19,
                kmax: 3,
                forest_nodes: 3
            }
        );
        let a = ds.answer(&Query::CoreOfVertex { vertex: 5 }).unwrap();
        assert_eq!(
            a,
            Answer::CoreOf {
                vertex: 5,
                coreness: 2
            }
        );
    }

    #[test]
    fn out_of_range_vertex_is_an_error() {
        let ds = built(generators::paper_figure2());
        let err = ds.answer(&Query::CoreOfVertex { vertex: 99 }).unwrap_err();
        assert!(matches!(err, EngineError::BadQuery(_)), "{err}");
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn unbuilt_dataset_refuses_queries() {
        let ds = Dataset::from_graph(generators::paper_figure2());
        assert!(!ds.is_built());
        assert!(ds.answer(&Query::Stats).is_err());
    }

    #[test]
    fn ensure_built_is_idempotent() {
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        assert!(ds.ensure_built(&ExecPolicy::Sequential));
        assert!(!ds.ensure_built(&ExecPolicy::Sequential));
        let mut ds = ds.without_artifacts();
        assert!(!ds.is_built());
        assert!(ds.ensure_built(&ExecPolicy::Sequential));
    }

    #[test]
    fn batch_answers_are_thread_invariant() {
        let ds = built(generators::erdos_renyi_gnm(200, 800, 11));
        let mut queries = vec![Query::Stats];
        for m in Metric::EXTENDED {
            queries.push(Query::BestKSet { metric: m });
            queries.push(Query::BestCore { metric: m });
            queries.push(Query::ScoreProfile { metric: m });
        }
        for v in 0..20 {
            queries.push(Query::CoreOfVertex { vertex: v });
        }
        let reference: Vec<String> = ds
            .answer_batch(&queries, &ExecPolicy::Sequential)
            .into_iter()
            .map(|r| r.map(|a| a.to_line()).unwrap_or_else(|e| e.to_string()))
            .collect();
        for threads in [1, 2, 4, 7] {
            let policy = ExecPolicy::with_threads(threads).unwrap();
            let got: Vec<String> = ds
                .answer_batch(&queries, &policy)
                .into_iter()
                .map(|r| r.map(|a| a.to_line()).unwrap_or_else(|e| e.to_string()))
                .collect();
            assert_eq!(got, reference, "{threads} threads");
        }
    }

    #[test]
    fn resident_bytes_grows_with_artifacts() {
        let mut ds = Dataset::from_graph(generators::erdos_renyi_gnm(100, 400, 3));
        let bare = ds.resident_bytes();
        assert!(bare > 0);
        ds.ensure_built(&ExecPolicy::Sequential);
        assert!(ds.resident_bytes() > bare);
    }

    #[test]
    fn empty_graph_answers_undefined() {
        let ds = built(CsrGraph::empty(0));
        let a = ds
            .answer(&Query::BestKSet {
                metric: Metric::AverageDegree,
            })
            .unwrap();
        assert_eq!(a, Answer::Undefined { what: "bestkset" });
        let a = ds
            .answer(&Query::BestCore {
                metric: Metric::AverageDegree,
            })
            .unwrap();
        assert_eq!(a, Answer::Undefined { what: "bestcore" });
    }
}
