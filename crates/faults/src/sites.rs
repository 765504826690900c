//! The named failpoint sites threaded through the workspace.
//!
//! Sites are plain strings, but production code should reference these
//! constants so the full site inventory stays greppable in one place (and
//! chaos tests can sweep [`all`] without chasing call sites). See
//! `DESIGN.md` §11 for what each site guards and how the hardened layers
//! respond.

/// Snapshot file reads (`bestk_engine::snapv2::open_with_retry`, which
/// reads through this failpoint instead of mapping whenever faults can
/// fire on the calling thread): transient errors retry with backoff; bit
/// flips, truncation and short reads degrade to quarantine + rebuild.
pub const SNAPSHOT_READ: &str = "snapshot.read";

/// Snapshot file writes (`bestk_engine::save_snapshot_v2_path` and
/// `bestk_engine::snapv2::save_path_with_retry`): `truncate`
/// simulates a mid-write crash leaving a partial file on disk.
pub const SNAPSHOT_WRITE: &str = "snapshot.write";

/// Serving-loop request reads: torn/corrupted lines, short reads, and
/// transient socket errors.
pub const SERVE_READ: &str = "serve.read";

/// Per-connection read-timeout installation (`set_read_timeout`): failure
/// must surface as a typed error on the connection, not silent fallthrough.
pub const SERVE_TIMEOUT: &str = "serve.timeout";

/// Admission control in the serving loop: `overload` forces the in-flight
/// limit to report full, shedding the request with `err overloaded`.
pub const SERVE_OVERLOAD: &str = "serve.overload";

/// Engine memory budget (`Engine::enforce_budget`): `pressure` collapses
/// the budget to zero for one enforcement pass, evicting everything except
/// the protected dataset.
pub const ENGINE_PRESSURE: &str = "engine.pressure";

/// Worker-thread bodies of engine batch fan-out (runs on `bestk_exec`
/// worker threads): `panic` simulates a worker crash that the runtime must
/// contain and the engine must convert into a typed error.
pub const EXEC_WORKER: &str = "exec.worker";

/// Write-ahead delta-log appends (`bestk_delta::wal::DeltaLog::append` /
/// `commit`): `io-error` surfaces as a typed staging failure, `bitflip` /
/// `truncate` leave a torn or corrupt record on disk that replay must stop
/// at cleanly.
pub const DELTA_WAL_APPEND: &str = "delta.wal.append";

/// Write-ahead delta-log replay on snapshot load
/// (`bestk_delta::wal::replay_path`): transient read errors must surface
/// as typed load failures, never partial state silently applied.
pub const DELTA_WAL_REPLAY: &str = "delta.wal.replay";

/// Every site constant above, for chaos-suite sweeps.
pub fn all() -> &'static [&'static str] {
    &[
        SNAPSHOT_READ,
        SNAPSHOT_WRITE,
        SERVE_READ,
        SERVE_TIMEOUT,
        SERVE_OVERLOAD,
        ENGINE_PRESSURE,
        EXEC_WORKER,
        DELTA_WAL_APPEND,
        DELTA_WAL_REPLAY,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_unique_and_dotted() {
        let names = all();
        for (i, a) in names.iter().enumerate() {
            assert!(a.contains('.'), "{a} should be namespaced");
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
