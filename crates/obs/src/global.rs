//! The process-global registry and clock.
//!
//! Instrumented code across the workspace records into one shared
//! [`MetricsRegistry`] read through [`registry`] (lazily created with a
//! [`SystemClock`] on first touch). Tests swap in a fresh registry and a
//! clock of their choosing with [`with_fresh`], which restores the
//! previous state even on panic and serializes callers on a global gate —
//! the same discipline `bestk_faults::with_plan` uses for its plan.
//!
//! Instrumented call sites should resolve handles from [`registry`] (or
//! the [`counter`]/[`gauge`]/[`histogram`] shorthands) per operation or
//! per scope rather than caching them in statics: a cached handle would go
//! stale across a [`with_fresh`] swap.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::{Clock, SystemClock};
use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};

struct GlobalState {
    registry: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
}

static STATE: Mutex<Option<GlobalState>> = Mutex::new(None);
static TEST_GATE: Mutex<()> = Mutex::new(());

/// Recovers the guard even if a holder panicked; the state stays
/// consistent because it only holds `Arc`s that are swapped atomically
/// under the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn with_state<R>(f: impl FnOnce(&GlobalState) -> R) -> R {
    let mut guard = lock(&STATE);
    let state = guard.get_or_insert_with(|| GlobalState {
        registry: Arc::new(MetricsRegistry::new()),
        clock: Arc::new(SystemClock::new()),
    });
    f(state)
}

/// The process-global metrics registry.
pub fn registry() -> Arc<MetricsRegistry> {
    with_state(|s| s.registry.clone())
}

/// A reading of the process-global clock, in nanoseconds since its origin.
pub fn now_nanos() -> u64 {
    let clock = with_state(|s| s.clock.clone());
    clock.now_nanos()
}

/// Shorthand: the global registry's counter named `name`.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Shorthand: the global registry's gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Shorthand: the global registry's histogram named `name`.
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    registry().histogram(name, bounds)
}

/// A point-in-time copy of the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Runs `f` against a fresh empty registry and the given clock, returning
/// `f`'s result together with the snapshot of everything it recorded. The
/// previous global state is restored afterwards — always, even if `f`
/// panics — and a process-global gate serializes callers so concurrently
/// running tests cannot observe each other's registries.
pub fn with_fresh<R>(clock: Arc<dyn Clock>, f: impl FnOnce() -> R) -> (R, Snapshot) {
    let _gate = lock(&TEST_GATE);
    swap_in_fresh(clock, f)
}

/// The body of [`with_fresh`], for a caller that already holds
/// `TEST_GATE`.
fn swap_in_fresh<R>(clock: Arc<dyn Clock>, f: impl FnOnce() -> R) -> (R, Snapshot) {
    let fresh = Arc::new(MetricsRegistry::new());
    // bestk-analyze: allow(lock-nested) — documented order TEST_GATE -> STATE, the only nesting
    let previous = lock(&STATE).replace(GlobalState {
        registry: fresh.clone(),
        clock,
    });
    struct Restore(Option<GlobalState>);
    impl Drop for Restore {
        fn drop(&mut self) {
            // bestk-analyze: allow(lock-nested) — same TEST_GATE -> STATE order as the acquire above
            *lock(&STATE) = self.0.take();
        }
    }
    let _restore = Restore(previous);
    let result = f();
    (result, fresh.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    // These two tests read the registry before and after a swap, so they
    // hold the gate across all three steps: otherwise a concurrent
    // `with_fresh` caller's registry could be the one read as `before`.

    #[test]
    fn with_fresh_captures_and_restores() {
        let _gate = lock(&TEST_GATE);
        let before = registry();
        let ((), snap) = swap_in_fresh(Arc::new(ManualClock::with_step(1)), || {
            counter("t.hits").inc();
            counter("t.hits").inc();
        });
        assert_eq!(snap.counter("t.hits"), Some(2));
        assert!(
            Arc::ptr_eq(&before, &registry()),
            "the previous registry must come back"
        );
        assert_ne!(snapshot().counter("t.hits"), Some(2));
    }

    #[test]
    fn with_fresh_restores_on_panic() {
        let _gate = lock(&TEST_GATE);
        let before = registry();
        let caught = std::panic::catch_unwind(|| {
            swap_in_fresh(Arc::new(ManualClock::with_step(1)), || {
                counter("t.boom").inc();
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert!(Arc::ptr_eq(&before, &registry()));
    }

    #[test]
    fn manual_clock_drives_now_nanos() {
        let (readings, _snap) = with_fresh(Arc::new(ManualClock::with_step(100)), || {
            [now_nanos(), now_nanos(), now_nanos()]
        });
        assert_eq!(readings, [0, 100, 200]);
    }
}
