//! # bestk-faults
//!
//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] names *failpoint sites* (string keys like
//! `"snapshot.read"`) and attaches faults to them — transient and hard I/O
//! errors, short reads, bit flips, truncations, panics, memory pressure,
//! overload — each firing with a configured probability. The plan is driven
//! by the workspace's own xoshiro256++ generator: every site gets an
//! independent stream seeded from `plan seed ⊕ fnv1a(site name)`, so a
//! given `(plan, workload)` pair injects the exact same faults on every
//! run, on every machine. That determinism is what turns "chaos testing"
//! into a reproducible regression suite.
//!
//! ## Wiring
//!
//! Production code threads *sites* through its real paths with the helpers
//! in [`inject`]: [`io_error`], [`corrupt_buffer`], [`mangle_line`],
//! [`truncation`], [`maybe_panic`], [`pressure`], [`overloaded`], and the
//! [`FaultyRead`] reader wrapper. When no plan is installed every helper is
//! a single relaxed atomic load — failpoints are free when off, which the
//! `tests/overhead.rs` guard enforces.
//!
//! ## Activation
//!
//! Tests use [`with_plan`], which serializes plan-holding tests behind a
//! gate, always clears the plan on exit (even across panics), and fires
//! the plan only on the calling thread and on threads that enter its
//! [`Scope`] — so tests running beside it see no faults. Code that fans
//! work out to other threads carries the caller's [`scope`] along.
//! Binaries call [`init_from_env`] once at startup, which installs a
//! process-global plan parsed from the `BESTK_FAULTS` environment
//! variable:
//!
//! ```text
//! BESTK_FAULTS="seed=7;snapshot.read=bitflip|interrupted@0.5;exec.worker=panic@0.1#3"
//! ```
//!
//! i.e. `;`-separated entries, each `seed=<n>` or
//! `<site>=<fault>[|<fault>...][@<probability>][#<budget>]`.
//!
//! The raw globals [`install_plan`] / [`clear_plan`] are restricted by the
//! `bestk-analyze` `no-raw-failpoint` lint to this crate and to tests, so
//! production code can only enable faults through the blessed
//! [`init_from_env`] path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inject;
pub mod plan;
pub mod sites;
pub mod state;

pub use inject::{
    corrupt_buffer, io_error, mangle_line, maybe_panic, overloaded, pressure, truncation,
    FaultyRead,
};
pub use plan::{Fault, FaultPlan, SiteSpec};
pub use state::{
    clear_plan, init_from_env, injection_count, install_plan, is_active, is_enabled, roll, scope,
    site_injection_counts, with_plan, Scope, ENV_VAR,
};
