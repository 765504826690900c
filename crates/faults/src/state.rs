//! The process-global active plan and the failpoint roll primitive.
//!
//! The hot path is a single relaxed [`AtomicBool`] load: with no plan
//! installed, [`roll`] (and every helper built on it) returns immediately
//! without touching a lock or an RNG — the `tests/overhead.rs` guard pins
//! this down. With a plan installed, each site owns an independent
//! xoshiro256++ stream seeded from `plan seed ⊕ fnv1a(site name)`, so the
//! injection sequence at one site is unaffected by how often other sites
//! are visited — adding a failpoint elsewhere never perturbs existing
//! chaos-test expectations.
//!
//! [`install_plan`] / [`clear_plan`] mutate process-global state; outside
//! this crate and test code the `no-raw-failpoint` lint restricts
//! activation to [`init_from_env`] (binaries) and [`with_plan`] (tests).
//!
//! bestk-analyze: allow-file(raw-atomic) — the whole point of the `ENABLED`
//! / `INJECTED` statics is a lock-free disabled fast path (one relaxed
//! load); routing them through the obs seam would reintroduce the lock.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use bestk_graph::rng::Xoshiro256;

use crate::plan::{Fault, FaultPlan};

/// The environment variable [`init_from_env`] reads.
pub const ENV_VAR: &str = "BESTK_FAULTS";

struct ActiveSite {
    faults: Vec<Fault>,
    probability: f64,
    budget: Option<u64>,
    injected: u64,
    rng: Xoshiro256,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Set while a [`with_plan`] plan is live: such a plan fires only on
/// threads inside its [`Scope`], so tests running beside it see no faults.
static SCOPED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
}
static PLAN: Mutex<Option<BTreeMap<String, ActiveSite>>> = Mutex::new(None);
static TEST_GATE: Mutex<()> = Mutex::new(());

/// Recovers a guard even if a holder panicked (an injected `Panic` fault
/// can unwind through plan-holding code; the plan data stays consistent
/// because rolls mutate it only under the lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a 64 over the site name, used to split the plan seed into
/// independent per-site streams.
fn site_stream(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Installs `plan` as the process-global active plan, replacing any
/// previous one and resetting every site's stream and injection count.
///
/// Prefer [`with_plan`] in tests and [`init_from_env`] in binaries; direct
/// calls outside `crates/faults` are flagged by the `no-raw-failpoint`
/// lint.
pub fn install_plan(plan: &FaultPlan) {
    let sites: BTreeMap<String, ActiveSite> = plan
        .sites()
        .map(|(name, spec)| {
            (
                name.to_owned(),
                ActiveSite {
                    faults: spec.faults.clone(),
                    probability: spec.probability,
                    budget: spec.budget,
                    injected: 0,
                    rng: Xoshiro256::seed_from_u64(plan.seed ^ site_stream(name)),
                },
            )
        })
        .collect();
    let mut guard = lock(&PLAN);
    *guard = Some(sites);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the active plan; every failpoint returns to its free
/// disabled-path behavior.
pub fn clear_plan() {
    ENABLED.store(false, Ordering::Release);
    *lock(&PLAN) = None;
}

/// Whether a plan is currently installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether faults can fire on the calling thread: a plan is installed and,
/// for a [`with_plan`] plan, this thread is inside its [`Scope`].
pub fn is_active() -> bool {
    ENABLED.load(Ordering::Relaxed) && (!SCOPED.load(Ordering::Relaxed) || IN_SCOPE.with(Cell::get))
}

/// Total faults injected since process start (across all plans).
pub fn injection_count() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// One drawn fault plus a raw random parameter the injection helpers use
/// to place the damage (which bit to flip, where to cut).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shot {
    pub(crate) fault: Fault,
    pub(crate) param: u64,
}

/// Rolls at `site`, drawing only from the fault kinds `accepts` — so a
/// helper that can only express I/O errors never consumes a roll that was
/// configured as, say, a bit flip destined for a different helper on the
/// same site.
pub(crate) fn roll_matching(site: &str, accepts: impl Fn(Fault) -> bool) -> Option<Shot> {
    if !is_active() {
        return None;
    }
    roll_slow(site, &accepts)
}

#[cold]
fn roll_slow(site: &str, accepts: &dyn Fn(Fault) -> bool) -> Option<Shot> {
    let mut guard = lock(&PLAN);
    let sites = guard.as_mut()?;
    let s = sites.get_mut(site)?;
    let candidates: Vec<Fault> = s.faults.iter().copied().filter(|&f| accepts(f)).collect();
    if candidates.is_empty() {
        return None;
    }
    if s.budget.is_some_and(|b| s.injected >= b) {
        return None;
    }
    if !s.rng.next_bool(s.probability) {
        return None;
    }
    let fault = candidates[s.rng.next_index(candidates.len())];
    let param = s.rng.next_u64();
    s.injected += 1;
    INJECTED.fetch_add(1, Ordering::Relaxed);
    // Already #[cold] and under the plan lock; the obs registry lock nests
    // inside it (obs never calls back into faults, so no inversion).
    bestk_obs::counter(&format!("faults.injected{{site=\"{site}\"}}")).inc();
    Some(Shot { fault, param })
}

/// Per-site injection counts of the currently installed plan, in site-name
/// order (empty when no plan is installed). Counts reset whenever a plan
/// is (re)installed — this is the plan's own budget accounting, which the
/// chaos suite cross-checks against the `faults.injected{site=…}` metrics.
pub fn site_injection_counts() -> Vec<(String, u64)> {
    lock(&PLAN)
        .as_ref()
        .map(|sites| {
            sites
                .iter()
                .map(|(name, s)| (name.clone(), s.injected))
                .collect()
        })
        .unwrap_or_default()
}

/// Rolls at `site` with no kind restriction, returning the drawn fault.
/// The typed helpers in [`crate::inject`] are usually what production code
/// wants; `roll` is the raw primitive (and what tests assert against).
pub fn roll(site: &str) -> Option<Fault> {
    roll_matching(site, |_| true).map(|s| s.fault)
}

/// Installs `plan`, runs `f`, and clears the plan again — always, even if
/// `f` panics. A process-global gate serializes callers so concurrently
/// running tests cannot interleave their plans, and the plan fires only
/// on the calling thread and on threads that enter its [`Scope`] — so
/// tests running beside it, which hold no plan, see no faults.
pub fn with_plan<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    let _gate = lock(&TEST_GATE);
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            clear_plan();
            SCOPED.store(false, Ordering::Release);
        }
    }
    let _reset = Reset;
    SCOPED.store(true, Ordering::Release);
    install_plan(plan);
    Scope(true).enter(f)
}

/// Whether a thread sees the faults of a [`with_plan`] plan. Capture it
/// with [`scope`] before fanning work out to other threads, and run the
/// work under [`Scope::enter`] there. Plans installed by
/// [`init_from_env`] fire on every thread regardless.
#[derive(Debug, Clone, Copy)]
pub struct Scope(bool);

/// The calling thread's [`Scope`].
pub fn scope() -> Scope {
    Scope(IN_SCOPE.with(Cell::get))
}

impl Scope {
    /// Runs `f` on the current thread under this scope, restoring the
    /// thread's own scope afterwards (also if `f` panics).
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                IN_SCOPE.with(|s| s.set(self.0));
            }
        }
        let _restore = Restore(IN_SCOPE.with(|s| s.replace(self.0)));
        f()
    }
}

/// Reads the `BESTK_FAULTS` environment variable and, if set and
/// non-empty, parses and installs the plan it describes. Returns whether a
/// plan was installed; a malformed spec is an `Err` so binaries can refuse
/// to start half-configured.
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(&spec)?;
            install_plan(&plan);
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteSpec;

    #[test]
    fn disabled_rolls_are_none() {
        // No plan installed (the gate keeps other tests' plans out).
        let _gate = lock(&TEST_GATE);
        clear_plan();
        assert!(!is_enabled());
        assert!(roll("snapshot.read").is_none());
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let plan = FaultPlan::new(42).site(
            "s",
            SiteSpec::mixed(vec![Fault::BitFlip, Fault::Panic, Fault::IoError], 0.5),
        );
        let sequence =
            |p: &FaultPlan| with_plan(p, || (0..64).map(|_| roll("s")).collect::<Vec<_>>());
        let a = sequence(&plan);
        let b = sequence(&plan);
        assert_eq!(a, b, "same plan must inject identically");
        assert!(a.iter().any(Option::is_some));
        assert!(a.iter().any(Option::is_none));
        let c = sequence(&FaultPlan::new(43).site(
            "s",
            SiteSpec::mixed(vec![Fault::BitFlip, Fault::Panic, Fault::IoError], 0.5),
        ));
        assert_ne!(a, c, "a different seed must draw a different stream");
    }

    #[test]
    fn unconfigured_sites_never_fire() {
        let plan = FaultPlan::new(1).site("only.this", SiteSpec::always(Fault::Panic));
        with_plan(&plan, || {
            assert!(roll("other.site").is_none());
            assert_eq!(roll("only.this"), Some(Fault::Panic));
        });
    }

    #[test]
    fn budget_caps_injections() {
        let plan = FaultPlan::new(9).site("s", SiteSpec::always(Fault::IoError).with_budget(3));
        with_plan(&plan, || {
            let fired = (0..10).filter(|_| roll("s").is_some()).count();
            assert_eq!(fired, 3);
        });
    }

    #[test]
    fn kind_filter_restricts_draws() {
        let plan = FaultPlan::new(5).site(
            "s",
            SiteSpec::mixed(vec![Fault::BitFlip, Fault::IoError], 1.0),
        );
        with_plan(&plan, || {
            for _ in 0..32 {
                let shot = roll_matching("s", |f| f == Fault::BitFlip).unwrap();
                assert_eq!(shot.fault, Fault::BitFlip);
            }
            assert!(roll_matching("s", |f| f == Fault::Panic).is_none());
        });
    }

    #[test]
    fn with_plan_faults_reach_only_threads_in_its_scope() {
        let plan = FaultPlan::new(3).site("s", SiteSpec::always(Fault::IoError));
        with_plan(&plan, || {
            let inside = scope();
            std::thread::scope(|threads| {
                threads.spawn(|| {
                    assert!(!is_active(), "a thread outside the scope");
                    assert!(roll("s").is_none());
                    assert!(inside.enter(is_active));
                    assert_eq!(inside.enter(|| roll("s")), Some(Fault::IoError));
                    assert!(roll("s").is_none(), "enter restores the thread's scope");
                });
            });
        });
    }

    #[test]
    fn sites_draw_independent_streams() {
        let spec = || SiteSpec::mixed(vec![Fault::BitFlip], 0.5);
        let plan = FaultPlan::new(7).site("a", spec()).site("b", spec());
        // Visiting `a` must not perturb `b`'s stream: interleave visits to
        // `a` and compare `b`'s outcomes with and without them.
        let solo: Vec<_> = with_plan(&plan, || (0..32).map(|_| roll("b")).collect());
        let interleaved: Vec<_> = with_plan(&plan, || {
            (0..32)
                .map(|_| {
                    let _ = roll("a");
                    roll("b")
                })
                .collect()
        });
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn with_plan_clears_even_on_panic() {
        let plan = FaultPlan::new(3).site("s", SiteSpec::always(Fault::Panic));
        let caught = std::panic::catch_unwind(|| {
            with_plan(&plan, || {
                assert!(is_enabled());
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert!(!is_enabled(), "the drop guard must clear the plan");
    }

    #[test]
    fn injections_surface_per_site_counts_and_metrics() {
        let plan = FaultPlan::new(9)
            .site("hit", SiteSpec::always(Fault::IoError).with_budget(2))
            .site("quiet", SiteSpec::always(Fault::IoError));
        let metric = "faults.injected{site=\"hit\"}";
        let before = bestk_obs::snapshot().counter(metric).unwrap_or(0);
        let counts = with_plan(&plan, || {
            for _ in 0..5 {
                let _ = roll("hit");
            }
            site_injection_counts()
        });
        assert_eq!(counts, vec![("hit".to_owned(), 2), ("quiet".to_owned(), 0)]);
        let after = bestk_obs::snapshot().counter(metric).unwrap_or(0);
        assert_eq!(after - before, 2, "metric must match the plan accounting");
        assert!(site_injection_counts().is_empty(), "no plan, no counts");
    }

    #[test]
    fn init_from_env_rejects_malformed_and_accepts_empty() {
        // The env var itself cannot be safely mutated in a threaded test
        // binary; exercise the parse path directly instead.
        assert!(FaultPlan::parse("seed=oops").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}
