//! The bench guard: failpoints must be free when off.
//!
//! The serving path now carries failpoint calls on its hot paths (snapshot
//! I/O, request reads, budget enforcement, worker bodies). This suite pins
//! down the contract that makes that acceptable: with no plan installed, a
//! failpoint is one relaxed atomic load — it injects nothing, touches no
//! lock, and adds no measurable overhead to real work. Thresholds are
//! generous (and looser in debug builds) so the guard is robust to CI
//! noise while still catching a regression that put a lock or an RNG draw
//! on the disabled path.

use std::time::Instant;

use bestk_faults::{
    injection_count, io_error, mangle_line, maybe_panic, overloaded, pressure, roll, sites,
};
use bestk_graph::rng::Xoshiro256;

#[test]
fn disabled_failpoints_inject_nothing() {
    // No plan installed in this process: every helper must be inert.
    let before = injection_count();
    let request = "query fig2 bestkset ad";
    let mut line = request.to_string();
    for _ in 0..10_000 {
        for site in sites::all() {
            assert!(roll(site).is_none());
            assert!(io_error(site).is_none());
            assert!(!pressure(site));
            assert!(!overloaded(site));
            maybe_panic(site);
            assert!(mangle_line(site, &mut line).is_none());
            assert_eq!(line, request);
        }
    }
    assert_eq!(injection_count(), before);
    assert!(!bestk_faults::is_enabled());
}

/// Median-free min-of-trials timing: the minimum over several runs is the
/// least noisy estimator of the true cost on a busy CI box.
fn best_of<F: FnMut() -> u64>(trials: usize, mut f: F) -> (std::time::Duration, u64) {
    let mut best = std::time::Duration::MAX;
    let mut sink = 0u64;
    for _ in 0..trials {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        let dt = t.elapsed();
        if dt < best {
            best = dt;
        }
    }
    (best, sink)
}

#[test]
fn disabled_failpoint_costs_nanoseconds_per_call() {
    const CALLS: u64 = 2_000_000;
    let (best, hits) = best_of(5, || {
        let mut hits = 0u64;
        for _ in 0..CALLS {
            if roll(sites::SNAPSHOT_READ).is_some() {
                hits += 1;
            }
        }
        hits
    });
    assert_eq!(hits, 0);
    let ns_per_call = best.as_nanos() as f64 / CALLS as f64;
    let limit = if cfg!(debug_assertions) { 400.0 } else { 40.0 };
    assert!(
        ns_per_call < limit,
        "disabled failpoint costs {ns_per_call:.1} ns/call (limit {limit})"
    );
}

#[test]
fn disabled_failpoints_are_within_noise_of_real_work() {
    // A compute loop standing in for a warm query, with and without a
    // failpoint consulted per item. The two must be within noise of each
    // other — the PR 3 serving path ran the plain loop; the hardened path
    // runs the guarded one.
    const ITEMS: u64 = 50_000;
    let work = |with_failpoints: bool| {
        let mut rng = Xoshiro256::seed_from_u64(0xBE57);
        let mut acc = 0u64;
        for _ in 0..ITEMS {
            for _ in 0..64 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            if with_failpoints && roll(sites::EXEC_WORKER).is_some() {
                acc = acc.wrapping_add(1);
            }
        }
        acc
    };
    let (plain, a) = best_of(5, || work(false));
    let (guarded, b) = best_of(5, || work(true));
    assert_eq!(a, b, "the guarded loop must compute the same result");
    let ratio = guarded.as_secs_f64() / plain.as_secs_f64();
    let limit = if cfg!(debug_assertions) { 2.5 } else { 1.5 };
    assert!(
        ratio < limit,
        "disabled failpoints slowed the loop {ratio:.2}x (limit {limit}x; \
         plain {plain:?}, guarded {guarded:?})"
    );
}
