//! The execution primitives: scoped chunked loops over an [`ExecPolicy`].
//!
//! All primitives share one claim loop: chunks from a [`ChunkPlan`] are
//! claimed dynamically (an atomic cursor) by the loop's threads, each
//! holding a private scratch value built on its first claim. Results land
//! in a chunk-indexed table and are handed back **in chunk order**, so any
//! kernel whose per-chunk computation is deterministic yields bit-identical
//! output at every thread count.
//!
//! [`ExecPolicy::map_chunks`] runs the loop on `threads` scoped workers
//! while the caller waits. [`ExecPolicy::map_disjoint_beside`] runs it on
//! `threads - 1` workers while the caller runs a task of its own, then
//! joins the loop itself, so a policy of `threads` threads never has more
//! than `threads` of them running.
//!
//! Panic containment: a panic inside a chunk body (or the caller's task) is
//! caught where it happens, the loop's threads stop claiming chunks and
//! join cleanly, and the first captured payload is re-raised on the calling
//! thread after the scope joins. Callers therefore see worker panics
//! exactly as if the body had panicked inline — the seeded property runner
//! and the engine's request-level `catch_unwind` both rely on that — while
//! no worker thread ever dies mid-write or strands a sibling.

use std::any::Any;
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

/// The claim loop's shared state: the next unclaimed chunk, and the first
/// panic payload raised by any of the loop's threads. Once a panic is
/// caught the other threads stop claiming (checked via the cheap flag) and
/// the payload is re-raised on the calling thread after the scope joins.
struct Claims {
    chunks: usize,
    cursor: AtomicUsize,
    halted: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Claims {
    fn new(chunks: usize) -> Claims {
        Claims {
            chunks,
            cursor: AtomicUsize::new(0),
            halted: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    /// Claims chunks until none is left or a panic halts the loop, running
    /// `each` on every claimed chunk index with its panics caught.
    fn run(&self, mut each: impl FnMut(usize)) {
        while !self.halted.load(Ordering::Relaxed) {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                break;
            }
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| each(c))) {
                let mut slot = lock_ignoring_poison(&self.payload);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                self.halt();
                break;
            }
        }
    }

    /// Stops every thread of the loop from claiming further chunks.
    fn halt(&self) {
        self.halted.store(true, Ordering::Release);
    }

    /// Re-raises the first captured panic, if any, on the current thread.
    fn resume(self) {
        let payload = self
            .payload
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Unwraps a chunk-indexed result table; every chunk reports exactly once
/// unless a panic halted the loop, which [`Claims::resume`] re-raised.
fn in_chunk_order<R>(results: Mutex<Vec<Option<R>>>) -> Vec<R> {
    let chunks = lock_ignoring_poison(&results).len();
    let collected: Vec<R> = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .into_iter()
        .flatten()
        .collect();
    debug_assert_eq!(collected.len(), chunks, "every chunk must report a result");
    collected
}

/// Splits `data` into the per-chunk regions `cuts` describes.
fn split_regions<'d, T>(data: &'d mut [T], cuts: &[usize]) -> Vec<&'d mut [T]> {
    assert_eq!(cuts.first(), Some(&0), "regions must start at 0");
    assert_eq!(cuts.last(), Some(&data.len()), "regions must cover data");
    let mut regions = Vec::with_capacity(cuts.len().saturating_sub(1));
    let mut rest = data;
    for w in cuts.windows(2) {
        let (region, tail) = rest.split_at_mut(w[1] - w[0]);
        regions.push(region);
        rest = tail;
    }
    regions
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
    /// property tests rely on). The chunks run on `threads` scoped workers
    /// while the caller waits.
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
        let claims = Claims::new(chunks);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..chunks).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = None;
                    claims.run(|c| {
                        let scratch = scratch.get_or_insert_with(&init);
                        let r = map(scratch, c, plan.range(c));
                        lock_ignoring_poison(&results)[c] = Some(r);
                    });
                });
            }
        });
        claims.resume();
        in_chunk_order(results)
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
    /// adjacency sub-ranges) in parallel without atomics. It is
    /// [`map_disjoint_beside`](Self::map_disjoint_beside) with no task of
    /// the caller's own: the caller joins the claim loop at once.
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
        self.map_disjoint_beside(plan, data, cuts, init, body, || ());
    }

    /// Runs `task` on the calling thread while `threads - 1` scoped workers
    /// claim the chunks of `plan`; once `task` returns, the caller claims
    /// whatever chunks are left. Each chunk's `body` gets **exclusive
    /// mutable access** to its region of `data` (region `c` is
    /// `data[cuts[c]..cuts[c + 1]]`) and returns a value. Returns `task`'s
    /// value and the chunk values **in chunk order**.
    ///
    /// At most `threads` threads run at once, the caller included. Under
    /// [`ExecPolicy::Sequential`] everything runs inline: `task` first, then
    /// the chunks in order. A panic in `task` or in any chunk stops the
    /// claim loop and is re-raised on the caller with its payload once
    /// every worker has joined.
    ///
    /// # Panics
    ///
    /// Panics if `cuts` does not describe a partition of `data` aligned
    /// with `plan`.
    pub fn map_disjoint_beside<T, S, R, U, F>(
        &self,
        plan: &ChunkPlan,
        data: &mut [T],
        cuts: &[usize],
        init: impl Fn() -> S + Sync,
        body: F,
        task: impl FnOnce() -> U,
    ) -> (U, Vec<R>)
    where
        T: Send,
        S: Send,
        R: Send,
        F: Fn(&mut S, usize, Range<usize>, &mut [T]) -> R + Sync,
    {
        let chunks = plan.num_chunks();
        assert_eq!(cuts.len(), chunks + 1, "one data region per chunk");
        let regions = split_regions(data, cuts);
        let helpers = (self.threads() - 1).min(chunks);
        record_dispatch(plan.len(), chunks, helpers + 1);
        if helpers == 0 {
            let value = task();
            let mut scratch = init();
            let results = regions
                .into_iter()
                .enumerate()
                .map(|(c, region)| body(&mut scratch, c, plan.range(c), region))
                .collect();
            return (value, results);
        }
        let claims = Claims::new(chunks);
        let slots: Mutex<Vec<Option<&mut [T]>>> =
            Mutex::new(regions.into_iter().map(Some).collect());
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..chunks).map(|_| None).collect());
        let claim_loop = || {
            let mut scratch = None;
            claims.run(|c| {
                let region = lock_ignoring_poison(&slots)
                    .get_mut(c)
                    .and_then(Option::take);
                if let Some(region) = region {
                    let scratch = scratch.get_or_insert_with(&init);
                    let r = body(scratch, c, plan.range(c), region);
                    lock_ignoring_poison(&results)[c] = Some(r);
                }
            });
        };
        let value = std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(claim_loop);
            }
            let value = std::panic::catch_unwind(AssertUnwindSafe(task));
            if value.is_ok() {
                claim_loop();
            } else {
                claims.halt();
            }
            value
        });
        match value {
            Ok(value) => {
                claims.resume();
                (value, in_chunk_order(results))
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
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
    fn beside_returns_the_task_value_and_chunk_results_in_order() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 4, 7] {
            let p = ExecPolicy::with_threads(threads).unwrap();
            let plan = ChunkPlan::even(40, 13);
            let mut data = vec![0usize; 40];
            let cuts = plan.bounds().to_vec();
            let (value, out) = p.map_disjoint_beside(
                &plan,
                &mut data,
                &cuts,
                || (),
                |_, c, items, region| {
                    assert_eq!(region.len(), items.len());
                    region.fill(c + 1);
                    (c, items.len())
                },
                || (std::thread::current().id(), "task"),
            );
            assert_eq!(value, (caller, "task"), "the task runs on the caller");
            let idx: Vec<usize> = out.iter().map(|&(c, _)| c).collect();
            assert_eq!(idx, (0..13).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(out.iter().map(|&(_, l)| l).sum::<usize>(), 40);
            for c in 0..plan.num_chunks() {
                assert!(data[plan.range(c)].iter().all(|&x| x == c + 1));
            }
        }
    }

    #[test]
    fn beside_never_runs_more_than_the_policys_threads() {
        use std::time::Duration;
        for threads in [2, 3, 4] {
            let p = ExecPolicy::with_threads(threads).unwrap();
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let busy = || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            };
            let plan = ChunkPlan::even(24, 24);
            let cuts = plan.bounds().to_vec();
            let mut data = vec![0u8; 24];
            p.map_disjoint_beside(
                &plan,
                &mut data,
                &cuts,
                || (),
                |_, _, _, _| busy(),
                || {
                    busy();
                    busy();
                },
            );
            let seen = peak.load(Ordering::SeqCst);
            assert!(
                seen <= threads,
                "{seen} running at once under {threads} threads"
            );
        }
    }

    #[test]
    fn beside_task_panic_reaches_caller_with_payload() {
        let p = ExecPolicy::with_threads(2).unwrap();
        let plan = ChunkPlan::even(8, 4);
        let cuts = plan.bounds().to_vec();
        let mut data = vec![0u8; 8];
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.map_disjoint_beside(
                &plan,
                &mut data,
                &cuts,
                || (),
                |_, _, _, _| (),
                || panic!("task exploded"),
            );
        }));
        let payload = hit.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task exploded"));
    }

    #[test]
    fn beside_chunk_panic_reaches_caller_with_payload() {
        for threads in [2, 4] {
            let p = ExecPolicy::with_threads(threads).unwrap();
            let plan = ChunkPlan::even(8, 8);
            let cuts = plan.bounds().to_vec();
            let mut data = vec![0u8; 8];
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.map_disjoint_beside(
                    &plan,
                    &mut data,
                    &cuts,
                    || (),
                    |_, c, _, _| {
                        if c == 5 {
                            panic!("chunk 5 exploded");
                        }
                    },
                    || 7,
                );
            }));
            let payload = hit.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 5 exploded"));
        }
    }

    #[test]
    fn beside_sequential_runs_inline_and_counts_one_fallback() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let clock = std::sync::Arc::new(bestk_obs::ManualClock::with_step(1));
        let ((value, out), snap) = bestk_obs::with_fresh(clock, || {
            let plan = ChunkPlan::even(6, 3);
            let cuts = plan.bounds().to_vec();
            let mut data = vec![0u8; 6];
            ExecPolicy::Sequential.map_disjoint_beside(
                &plan,
                &mut data,
                &cuts,
                || (),
                |_, c, _, _| {
                    assert_eq!(std::thread::current().id(), caller);
                    lock_ignoring_poison(&order).push(format!("chunk {c}"));
                    c
                },
                || {
                    lock_ignoring_poison(&order).push("task".to_owned());
                    "done"
                },
            )
        });
        assert_eq!(value, "done");
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(
            order.into_inner().unwrap(),
            vec!["task", "chunk 0", "chunk 1", "chunk 2"]
        );
        assert_eq!(snap.counter("exec.dispatches"), Some(1));
        assert_eq!(snap.counter("exec.sequential_fallbacks"), Some(1));
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let p = ExecPolicy::with_threads(4).unwrap();
        let plan = p.plan_even(0);
        let out = p.map_chunks(&plan, || (), |_, _, range| range.len());
        assert_eq!(out, vec![0]);
    }
}
