//! The execution primitives: scoped chunked loops over an [`ExecPolicy`].
//!
//! All primitives share one engine: chunks from a [`ChunkPlan`] are claimed
//! dynamically (an atomic cursor) by `threads` scoped workers, each holding
//! a private scratch value built once per worker. Results land in a
//! chunk-indexed table and are handed back **in chunk order**, so any
//! kernel whose per-chunk computation is deterministic yields bit-identical
//! output at every thread count.
//!
//! Panic containment: a panic inside a chunk body is caught **on the
//! worker**, the remaining workers stop claiming chunks and join cleanly,
//! and the first captured payload is re-raised on the calling thread after
//! the scope joins. Callers therefore see worker panics exactly as if the
//! body had panicked inline — the seeded property runner and the engine's
//! request-level `catch_unwind` both rely on that — while no worker thread
//! ever dies mid-write or strands a sibling.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::chunk::ChunkPlan;
use crate::policy::ExecPolicy;

/// Recovers the protected value even if another worker panicked while
/// holding the lock: the panic is about to propagate through the scope
/// join anyway, so the poisoned data is never observed by callers.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one runtime dispatch into the global metrics registry.
/// `exec.dispatches` and `exec.items` are invariant for a given workload;
/// `exec.chunks` and `exec.sequential_fallbacks` depend on the execution
/// mode (and some kernels skip the runtime entirely when sequential), so
/// every `exec.*` metric is documented as mode-dependent — see
/// DESIGN.md §12.
fn record_dispatch(items: usize, chunks: usize, workers: usize) {
    let registry = bestk_obs::registry();
    registry.counter("exec.dispatches").inc();
    registry.counter("exec.items").add(items as u64);
    registry.counter("exec.chunks").add(chunks as u64);
    if workers <= 1 {
        registry.counter("exec.sequential_fallbacks").inc();
    }
}

/// Collects the first panic payload raised by any worker; once armed, the
/// other workers stop claiming chunks (checked via the cheap flag) and the
/// payload is re-raised on the calling thread after the scope joins.
struct PanicSlot {
    hit: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl PanicSlot {
    fn new() -> PanicSlot {
        PanicSlot {
            hit: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    fn armed(&self) -> bool {
        self.hit.load(Ordering::Relaxed)
    }

    fn arm(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock_ignoring_poison(&self.payload);
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.hit.store(true, Ordering::Release);
    }

    /// Re-raises the captured panic, if any, on the current thread.
    fn resume(self) {
        if let Some(payload) = lock_ignoring_poison(&self.payload).take() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl ExecPolicy {
    /// Splits `0..len` into this policy's preferred number of even chunks.
    pub fn plan_even(&self, len: usize) -> ChunkPlan {
        ChunkPlan::even(len, self.chunk_target(len))
    }

    /// Splits the items of a cumulative weight array (`prefix[0] = 0`,
    /// e.g. CSR offsets) into this policy's preferred number of
    /// weight-balanced chunks.
    pub fn plan_weighted(&self, prefix: &[usize]) -> ChunkPlan {
        ChunkPlan::weighted(prefix, self.chunk_target(prefix.len() - 1))
    }

    /// Maps every chunk of `plan` to a value, returning the values **in
    /// chunk order** (the deterministic-merge primitive the equality
    /// property tests rely on).
    pub fn map_chunks<S, R, F>(
        &self,
        plan: &ChunkPlan,
        init: impl Fn() -> S + Sync,
        map: F,
    ) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(&mut S, usize, Range<usize>) -> R + Sync,
    {
        let chunks = plan.num_chunks();
        let workers = self.threads().min(chunks);
        record_dispatch(plan.len(), chunks, workers);
        if workers <= 1 {
            let mut scratch = init();
            return (0..chunks)
                .map(|c| map(&mut scratch, c, plan.range(c)))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..chunks).map(|_| None).collect());
        let panic_slot = PanicSlot::new();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        if panic_slot.armed() {
                            break;
                        }
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks {
                            break;
                        }
                        match std::panic::catch_unwind(AssertUnwindSafe(|| {
                            map(&mut scratch, c, plan.range(c))
                        })) {
                            Ok(r) => lock_ignoring_poison(&results)[c] = Some(r),
                            Err(payload) => {
                                panic_slot.arm(payload);
                                break;
                            }
                        }
                    }
                });
            }
        });
        panic_slot.resume();
        let collected: Vec<R> = results
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .into_iter()
            .flatten()
            .collect();
        debug_assert_eq!(collected.len(), chunks, "every chunk must report a result");
        collected
    }

    /// Maps every chunk and folds the results **in chunk order** into an
    /// accumulator — deterministic even for non-commutative folds.
    pub fn map_reduce<S, R, A, F>(
        &self,
        plan: &ChunkPlan,
        init: impl Fn() -> S + Sync,
        map: F,
        acc: A,
        fold: impl FnMut(A, R) -> A,
    ) -> A
    where
        S: Send,
        R: Send,
        F: Fn(&mut S, usize, Range<usize>) -> R + Sync,
    {
        self.map_chunks(plan, init, map).into_iter().fold(acc, fold)
    }

    /// Runs `body` once per chunk with **exclusive mutable access** to that
    /// chunk's region of `data`: region `c` is `data[cuts[c]..cuts[c + 1]]`.
    /// This is how kernels write disjoint output slices (per-vertex tags,
    /// adjacency sub-ranges) in parallel without atomics.
    ///
    /// `cuts` must be monotone from `0` to `data.len()` with one region per
    /// chunk; `body` receives `(scratch, chunk index, item range, region)`.
    ///
    /// # Panics
    ///
    /// Panics if `cuts` does not describe a partition of `data` aligned
    /// with `plan`.
    pub fn for_each_disjoint<T, S, F>(
        &self,
        plan: &ChunkPlan,
        data: &mut [T],
        cuts: &[usize],
        init: impl Fn() -> S + Sync,
        body: F,
    ) where
        T: Send,
        S: Send,
        F: Fn(&mut S, usize, Range<usize>, &mut [T]) + Sync,
    {
        let chunks = plan.num_chunks();
        assert_eq!(cuts.len(), chunks + 1, "one data region per chunk");
        assert_eq!(cuts.first(), Some(&0), "regions must start at 0");
        assert_eq!(cuts.last(), Some(&data.len()), "regions must cover data");
        let workers = self.threads().min(chunks);
        record_dispatch(plan.len(), chunks, workers);
        if workers <= 1 {
            let mut scratch = init();
            let mut rest = data;
            for c in 0..chunks {
                let (region, tail) = rest.split_at_mut(cuts[c + 1] - cuts[c]);
                body(&mut scratch, c, plan.range(c), region);
                rest = tail;
            }
            return;
        }
        // Pre-split the data into per-chunk regions, then let workers claim
        // (chunk, region) pairs dynamically.
        let mut regions: Vec<Option<&mut [T]>> = Vec::with_capacity(chunks);
        let mut rest = data;
        for c in 0..chunks {
            let (region, tail) = rest.split_at_mut(cuts[c + 1] - cuts[c]);
            regions.push(Some(region));
            rest = tail;
        }
        let cursor = AtomicUsize::new(0);
        let slots = Mutex::new(regions);
        let panic_slot = PanicSlot::new();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        if panic_slot.armed() {
                            break;
                        }
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks {
                            break;
                        }
                        let region = lock_ignoring_poison(&slots)[c].take();
                        if let Some(region) = region {
                            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                body(&mut scratch, c, plan.range(c), region)
                            }));
                            if let Err(payload) = caught {
                                panic_slot.arm(payload);
                                break;
                            }
                        }
                    }
                });
            }
        });
        panic_slot.resume();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::prefix_sum;

    #[test]
    fn map_chunks_preserves_chunk_order() {
        for threads in [1, 2, 4, 7] {
            let p = ExecPolicy::with_threads(threads).unwrap();
            let plan = ChunkPlan::even(100, 13);
            let out = p.map_chunks(&plan, || (), |_, c, range| (c, range.len()));
            let idx: Vec<usize> = out.iter().map(|&(c, _)| c).collect();
            assert_eq!(idx, (0..13).collect::<Vec<_>>(), "{threads} threads");
            let total: usize = out.iter().map(|&(_, l)| l).sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn map_reduce_folds_in_order() {
        // A non-commutative fold (string concatenation) must still be
        // deterministic across thread counts.
        let plan = ChunkPlan::even(26, 7);
        let reference = ExecPolicy::Sequential.map_reduce(
            &plan,
            || (),
            |_, c, r| format!("{c}:{}..{};", r.start, r.end),
            String::new(),
            |acc, s| acc + &s,
        );
        for threads in [2, 4, 7] {
            let p = ExecPolicy::with_threads(threads).unwrap();
            let got = p.map_reduce(
                &plan,
                || (),
                |_, c, r| format!("{c}:{}..{};", r.start, r.end),
                String::new(),
                |acc, s| acc + &s,
            );
            assert_eq!(got, reference, "{threads} threads");
        }
    }

    #[test]
    fn map_reduce_with_scratch_visits_every_index() {
        let p = ExecPolicy::with_threads(4).unwrap();
        let plan = p.plan_even(1000);
        let sum = p.map_reduce(
            &plan,
            || 0u64,
            |local, _, range| {
                *local = range.map(|i| i as u64).sum();
                *local
            },
            0u64,
            |acc, part| acc + part,
        );
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn for_each_disjoint_writes_disjoint_regions() {
        let weights: Vec<usize> = (0..50).map(|i| i % 5).collect();
        let prefix = prefix_sum(weights.iter().copied());
        let total = *prefix.last().unwrap();
        for threads in [1, 2, 4, 7] {
            let p = ExecPolicy::with_threads(threads).unwrap();
            let plan = ChunkPlan::weighted(&prefix, 9);
            let cuts: Vec<usize> = plan.bounds().iter().map(|&b| prefix[b]).collect();
            let mut data = vec![0usize; total];
            p.for_each_disjoint(
                &plan,
                &mut data,
                &cuts,
                || (),
                |_, c, items, region| {
                    assert_eq!(region.len(), prefix[items.end] - prefix[items.start]);
                    for x in region.iter_mut() {
                        *x = c + 1;
                    }
                },
            );
            assert!(data.iter().all(|&x| x > 0), "{threads} threads");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let p = ExecPolicy::with_threads(2).unwrap();
        let plan = ChunkPlan::even(8, 8);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.map_chunks(
                &plan,
                || (),
                |_, c, _| {
                    if c == 5 {
                        panic!("boom");
                    }
                },
            );
        }));
        assert!(hit.is_err(), "panic inside a worker must reach the caller");
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        // The caught-and-reraised panic must carry the original payload so
        // request-level isolation can render a meaningful typed error.
        let p = ExecPolicy::with_threads(4).unwrap();
        let plan = ChunkPlan::even(32, 16);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.map_chunks(
                &plan,
                || (),
                |_, c, _| {
                    if c == 7 {
                        panic!("chunk 7 exploded");
                    }
                    c
                },
            );
        }));
        let payload = hit.unwrap_err();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "chunk 7 exploded");
    }

    #[test]
    fn disjoint_worker_panic_reaches_caller_with_payload() {
        let p = ExecPolicy::with_threads(2).unwrap();
        let plan = ChunkPlan::even(8, 4);
        let cuts: Vec<usize> = plan.bounds().to_vec();
        let mut data = vec![0u8; 8];
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.for_each_disjoint(
                &plan,
                &mut data,
                &cuts,
                || (),
                |_, c, _, _| {
                    if c == 2 {
                        panic!("region 2 exploded");
                    }
                },
            );
        }));
        let payload = hit.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"region 2 exploded"));
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let p = ExecPolicy::with_threads(4).unwrap();
        let plan = p.plan_even(0);
        let out = p.map_chunks(&plan, || (), |_, _, range| range.len());
        assert_eq!(out, vec![0]);
    }
}
