//! End-to-end fixtures for the lock-discipline passes — the tests
//! `crates/engine/src/registry.rs` points at. Each pass gets a firing
//! workspace and a disciplined twin; the centerpiece pair contrasts the
//! naive shared-registry shape (guard held across the snapshot load and
//! the batch dispatch) with the checkout/publish shape `SharedEngine`
//! actually uses, proving the analyzer would catch the regression.

mod common;

use common::{Fixture, CLEAN_LIB};

#[test]
fn opposite_acquisition_orders_fire_lock_order() {
    let fx = Fixture::new("lock-order-fires");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! Utilities.\n\
         pub fn ab() {\n\
             let a = A.lock();\n\
             let b = B.lock();\n\
             drop(b);\n\
             drop(a);\n\
         }\n\
         pub fn ba() {\n\
             let b = B.lock();\n\
             let a = A.lock();\n\
             drop(a);\n\
             drop(b);\n\
         }\n",
    );
    let lints = fx.lints();
    assert!(lints.contains(&"lock-order".to_string()), "{lints:?}");
}

#[test]
fn consistent_acquisition_order_reports_nesting_not_a_cycle() {
    let fx = Fixture::new("lock-order-clean");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! Utilities.\n\
         pub fn ab() {\n\
             let a = A.lock();\n\
             // bestk-analyze: allow(lock-nested) — documented order A -> B everywhere\n\
             let b = B.lock();\n\
             drop(b);\n\
             drop(a);\n\
         }\n\
         pub fn ab_again() {\n\
             let a = A.lock();\n\
             // bestk-analyze: allow(lock-nested) — documented order A -> B everywhere\n\
             let b = B.lock();\n\
             drop(b);\n\
             drop(a);\n\
         }\n",
    );
    assert_eq!(fx.lints(), Vec::<String>::new());
}

#[test]
fn nested_acquisition_fires_lock_nested() {
    let fx = Fixture::new("lock-nested-fires");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! Utilities.\n\
         pub fn both() {\n\
             let a = A.lock();\n\
             let b = B.lock();\n\
             drop(b);\n\
             drop(a);\n\
         }\n",
    );
    assert_eq!(fx.lints(), vec!["lock-nested"]);
}

#[test]
fn sequential_acquisition_does_not_fire() {
    let fx = Fixture::new("lock-nested-clean");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! Utilities.\n\
         pub fn one_then_other() {\n\
             let a = A.lock();\n\
             drop(a);\n\
             let b = B.lock();\n\
             drop(b);\n\
         }\n",
    );
    assert_eq!(fx.lints(), Vec::<String>::new());
}

/// The naive shared-registry shape: one lock around the whole request, so
/// the guard is live across the snapshot read *and* the parallel batch.
#[test]
fn naive_shared_engine_is_caught() {
    let fx = Fixture::new("naive-registry");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! A registry that holds its lock across I/O and dispatch.\n\
         pub struct Shared { inner: Mutex<Engine> }\n\
         impl Shared {\n\
             fn guard(&self) -> MutexGuard<'_, Engine> {\n\
                 self.inner.lock().unwrap_or_else(|p| p.into_inner())\n\
             }\n\
             pub fn load(&self, path: &str) {\n\
                 let mut g = self.guard();\n\
                 let bytes = std::fs::read(path).unwrap_or_default();\n\
                 g.install(bytes);\n\
             }\n\
             pub fn answer(&self, policy: &ExecPolicy, plan: &Plan) {\n\
                 let g = self.guard();\n\
                 policy.map_chunks(plan, || (), |(), _, range| g.answer(range));\n\
             }\n\
         }\n",
    );
    let lints = fx.lints();
    assert!(lints.contains(&"lock-held-io".to_string()), "{lints:?}");
    assert!(
        lints.contains(&"lock-held-dispatch".to_string()),
        "{lints:?}"
    );
}

/// The disciplined twin — the shape `SharedEngine` uses: I/O completes
/// before the lock, the batch runs on a checked-out handle after the
/// guard is dropped, and the locked sections are bookkeeping-only.
#[test]
fn checkout_publish_shape_is_clean() {
    let fx = Fixture::new("disciplined-registry");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! A registry that keeps I/O and dispatch outside the lock.\n\
         pub struct Shared { inner: Mutex<Engine> }\n\
         impl Shared {\n\
             fn guard(&self) -> MutexGuard<'_, Engine> {\n\
                 self.inner.lock().unwrap_or_else(|p| p.into_inner())\n\
             }\n\
             pub fn load(&self, path: &str) {\n\
                 let bytes = std::fs::read(path).unwrap_or_default();\n\
                 self.guard().install(bytes);\n\
             }\n\
             pub fn answer(&self, policy: &ExecPolicy, plan: &Plan) {\n\
                 let handle = self.guard().checkout();\n\
                 policy.map_chunks(plan, || (), |(), _, range| handle.answer(range));\n\
                 self.guard().settle();\n\
             }\n\
         }\n",
    );
    assert_eq!(fx.lints(), Vec::<String>::new());
}

/// A guard held across the overlapped build: the caller's task runs under
/// the lock while the policy's workers fan out, which the pass must flag
/// like any other dispatch.
#[test]
fn guard_held_across_an_overlapped_dispatch_is_caught() {
    let fx = Fixture::new("overlap-dispatch");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! A build that keeps the registry locked while it overlaps stages.\n\
         pub fn build_locked(policy: &ExecPolicy, plan: &Plan, data: &mut [u64]) {\n\
             let g = REGISTRY.lock();\n\
             let (forest, _) = policy.map_disjoint_beside(plan, data, plan.bounds(), || (), |(), _, _, region| g.list(region), || g.forest());\n\
             g.install(forest);\n\
         }\n",
    );
    assert_eq!(fx.lints(), vec!["lock-held-dispatch"]);
}

/// Transitive discipline: the I/O can hide one call deep and the pass
/// still connects the guard to it through the per-crate call graph.
#[test]
fn guard_across_a_helper_that_does_io_is_caught() {
    let fx = Fixture::new("transitive-io");
    fx.write("crates/demo/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/demo/src/util.rs",
        "//! Utilities.\n\
         fn persist(path: &str, bytes: &[u8]) {\n\
             let _ = std::fs::write(path, bytes);\n\
         }\n\
         pub fn save_locked(path: &str) {\n\
             let g = STATE.lock();\n\
             persist(path, g.bytes());\n\
         }\n",
    );
    assert_eq!(fx.lints(), vec!["lock-held-io"]);
}
