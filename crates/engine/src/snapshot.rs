//! Format-agnostic `.bestk` snapshot plumbing.
//!
//! The on-disk layout lives in [`crate::snapv2`]; this module holds what
//! the layout is built from and loaded through:
//!
//! * [`fnv1a`], the per-section checksum, and the bounds-checked
//!   `SectionReader` every decoder reads through;
//! * the two profile encoders (the profile sections' bodies);
//! * [`RetryPolicy`] and the retry loop around the `snapshot.read` /
//!   `snapshot.write` failpoint-instrumented file read and write;
//! * [`load_or_rebuild`], the resilient load ladder.
//!
//! Opening a snapshot defers the graph section's checksum (see
//! [`crate::snapv2`]). The paths that can act on a bad graph pay it:
//! [`load_or_rebuild`] when it has a rebuild `source`, the strict
//! [`Engine::load_snapshot`](crate::Engine::load_snapshot) behind
//! `bestk query`, and the write paths of [`crate::mutate`]. Loads without
//! a source (serving restarts) stay zero-copy.

use std::path::Path;
use std::time::Duration;

use bestk_core::{CoreSetProfile, PrimaryValues, SingleCoreProfile};
use bestk_exec::ExecPolicy;
use bestk_faults::sites;

use crate::dataset::Dataset;
use crate::engine::LoadOutcome;
use crate::error::EngineError;

/// FNV-1a 64 over a byte slice (the workspace is dependency-free, so the
/// checksum is hand-rolled; FNV is fast and order-sensitive, which is all a
/// corruption check needs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- writing

pub(crate) fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_primaries(buf: &mut Vec<u8>, pv: &PrimaryValues) {
    put_u64(buf, pv.num_vertices);
    put_u64(buf, pv.internal_edges);
    put_u64(buf, pv.boundary_edges);
    put_u64(buf, pv.triangles);
    put_u64(buf, pv.triplets);
}

/// The `set-profile` section body:
/// `kmax u32, tri u8, n u64, m u64, count u64, count × 5×u64`.
pub(crate) fn encode_set_profile(p: &CoreSetProfile) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, p.kmax);
    buf.push(u8::from(p.has_triangles));
    put_u64(&mut buf, p.context.total_vertices);
    put_u64(&mut buf, p.context.total_edges);
    put_u64(&mut buf, p.primaries.len() as u64);
    for pv in &p.primaries {
        put_primaries(&mut buf, pv);
    }
    buf
}

/// The `core-profile` section body:
/// `tri u8, n u64, m u64, count u64, coreness count×u32, count × 5×u64`.
pub(crate) fn encode_core_profile(p: &SingleCoreProfile) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(u8::from(p.has_triangles));
    put_u64(&mut buf, p.context.total_vertices);
    put_u64(&mut buf, p.context.total_edges);
    put_u64(&mut buf, p.primaries.len() as u64);
    for &c in &p.coreness {
        put_u32(&mut buf, c);
    }
    for pv in &p.primaries {
        put_primaries(&mut buf, pv);
    }
    buf
}

// ---------------------------------------------------------------- file I/O

/// Bounded retry policy for transient snapshot I/O (`Interrupted`,
/// `WouldBlock`, `TimedOut`, `WriteZero`). Corruption is *not* retried —
/// re-reading bad bytes cannot fix them; see
/// [`SharedEngine::load_snapshot_with_fallback`](crate::SharedEngine::load_snapshot_with_fallback)
/// for the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, first try included (`0` behaves as `1`).
    pub attempts: u32,
    /// Base backoff; attempt `i` sleeps `i × backoff` before retrying.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A single attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WriteZero
    )
}

pub(crate) fn with_retries<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < attempts => {
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One write attempt, with the `snapshot.write` failpoint threaded in: an
/// injected truncation persists a *partial* file and then fails, exactly
/// like a mid-write crash, so retries must overwrite from scratch.
pub(crate) fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(e) = bestk_faults::io_error(sites::SNAPSHOT_WRITE) {
        return Err(e);
    }
    if let Some(keep) = bestk_faults::truncation(sites::SNAPSHOT_WRITE, bytes.len()) {
        std::fs::write(path, &bytes[..keep])?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected mid-write crash",
        ));
    }
    std::fs::write(path, bytes)
}

/// One read attempt, with the `snapshot.read` failpoint threaded in
/// (injected I/O errors before the read; injected bit flips / truncation
/// on the bytes after it, caught downstream by the checksums).
pub(crate) fn read_snapshot_bytes(path: &Path) -> std::io::Result<Vec<u8>> {
    if let Some(e) = bestk_faults::io_error(sites::SNAPSHOT_READ) {
        return Err(e);
    }
    let mut bytes = std::fs::read(path)?;
    bestk_faults::corrupt_buffer(sites::SNAPSHOT_READ, &mut bytes);
    Ok(bytes)
}

// ---------------------------------------------------------------- reading

/// A bounds-checked cursor over one section's bytes: every overrun is a
/// [`EngineError::Truncated`] naming the section, and `finish` rejects
/// bytes the layout did not account for.
pub(crate) struct SectionReader<'a> {
    buf: &'a [u8],
    at: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    pub(crate) fn new(buf: &'a [u8], section: &'static str) -> Self {
        SectionReader {
            buf,
            at: 0,
            section,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], EngineError> {
        if len > self.remaining() {
            return Err(EngineError::Truncated {
                section: self.section,
            });
        }
        let slice = &self.buf[self.at..self.at + len];
        self.at += len;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, EngineError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A u64 count/offset that must fit `usize` (32-bit safety) and is
    /// implicitly bounded by the section length on any later read.
    pub(crate) fn count(&mut self) -> Result<usize, EngineError> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| {
            EngineError::BadSnapshot(format!(
                "{}: count {raw} does not fit this platform's usize",
                self.section
            ))
        })
    }

    pub(crate) fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, EngineError> {
        let bytes = count.checked_mul(4).ok_or(EngineError::Truncated {
            section: self.section,
        })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    pub(crate) fn primaries(&mut self, count: usize) -> Result<Vec<PrimaryValues>, EngineError> {
        let mut out = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            out.push(PrimaryValues {
                num_vertices: self.u64()?,
                internal_edges: self.u64()?,
                boundary_edges: self.u64()?,
                triangles: self.u64()?,
                triplets: self.u64()?,
            });
        }
        Ok(out)
    }

    pub(crate) fn finish(self) -> Result<(), EngineError> {
        if self.remaining() != 0 {
            return Err(EngineError::BadSnapshot(format!(
                "{}: {} trailing byte(s) inside the section",
                self.section,
                self.remaining()
            )));
        }
        Ok(())
    }
}

pub(crate) fn bad(section: &str, msg: String) -> EngineError {
    EngineError::BadSnapshot(format!("{section}: {msg}"))
}

/// The resilient load ladder as a free function: open `path` (retrying
/// transient I/O under `retry`); on corruption, quarantine the bad file
/// and rebuild the full index from the `source` graph file if one is
/// given; otherwise surface the typed error. With a `source`, the graph
/// section is checked too, so a bad graph counts as corruption and is
/// rebuilt rather than served.
///
/// This is deliberately registry-free — every byte of disk I/O and the
/// whole `O(m^1.5)` rebuild happen here, so callers holding a registry
/// lock can (and must) finish this *before* acquiring it. The returned
/// dataset is fully built on the [`Rebuilt`](LoadOutcome::Rebuilt) path
/// and arrives built from any valid snapshot.
pub fn load_or_rebuild(
    path: &str,
    source: Option<&str>,
    retry: &RetryPolicy,
    policy: &ExecPolicy,
) -> Result<(Dataset, LoadOutcome), EngineError> {
    let opened = crate::snapv2::open_with_retry(path, retry).and_then(|dataset| {
        if source.is_some() {
            dataset.graph().check()?;
        }
        Ok(dataset)
    });
    match opened {
        Ok(dataset) => Ok((dataset, LoadOutcome::Loaded)),
        Err(e) if e.is_corruption() => {
            let source = match source {
                Some(s) => s,
                None => return Err(e),
            };
            // Quarantine is best-effort: the rebuild below is the part
            // that restores service.
            if std::fs::rename(path, format!("{path}.quarantine")).is_ok() {
                bestk_obs::counter("engine.quarantines").inc();
            }
            let graph = bestk_graph::io::read_auto_path(source)?;
            let mut dataset = Dataset::from_graph(graph);
            dataset.ensure_built(policy);
            Ok((dataset, LoadOutcome::Rebuilt))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_faults::{Fault, FaultPlan, SiteSpec};
    use bestk_graph::generators;

    use crate::query::Query;
    use crate::snapv2;

    fn built_figure2() -> Dataset {
        let mut ds = Dataset::from_graph(generators::paper_figure2());
        ds.ensure_built(&ExecPolicy::Sequential);
        ds
    }

    fn stats(ds: &Dataset) -> String {
        ds.answer(&Query::Stats).unwrap().to_line()
    }

    fn zero_backoff(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            backoff: Duration::ZERO,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bestk-engine-snap-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("g.bestk")
    }

    #[test]
    fn fnv1a_reference_values() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn injected_write_crash_heals_on_retry() {
        let path = temp_path("wfault");
        let original = built_figure2();
        // One injected mid-write crash: the first attempt persists a partial
        // file and errors; the bounded retry overwrites it from scratch.
        let plan = FaultPlan::new(11).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::Truncate).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            snapv2::save_path_with_retry(&original, &path, &zero_backoff(3)).unwrap();
        });
        let loaded = crate::open_snapshot_v2(&path).unwrap();
        assert_eq!(stats(&loaded), stats(&original));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_write_crash_without_retry_is_a_typed_error() {
        let path = temp_path("wfault2");
        let original = built_figure2();
        let plan = FaultPlan::new(7).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::always(Fault::Truncate).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let err = crate::save_snapshot_v2_path(&original, &path).unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "{err}");
            // The partial file left behind is rejected as corrupt, never a
            // panic.
            let err = crate::open_snapshot_v2(&path).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn transient_read_errors_retry_to_success() {
        let path = temp_path("rfault");
        let original = built_figure2();
        crate::save_snapshot_v2_path(&original, &path).unwrap();
        let plan = FaultPlan::new(3).site(
            sites::SNAPSHOT_READ,
            SiteSpec::mixed(vec![Fault::Interrupted, Fault::WouldBlock], 1.0).with_budget(2),
        );
        bestk_faults::with_plan(&plan, || {
            // Not enough attempts: the transient error surfaces, typed.
            let err = snapv2::open_with_retry(&path, &zero_backoff(1)).unwrap_err();
            assert!(matches!(err, EngineError::Io(_)), "{err}");
            // Enough attempts to outlast the budget: the load succeeds.
            let loaded = snapv2::open_with_retry(&path, &zero_backoff(4)).unwrap();
            assert_eq!(stats(&loaded), stats(&original));
        });
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_read_corruption_is_rejected_not_retried() {
        let path = temp_path("cfault");
        let original = built_figure2();
        crate::save_snapshot_v2_path(&original, &path).unwrap();
        // Injected truncation of the read buffer: shorter snapshots are
        // always structurally invalid, so every seed must yield a typed
        // corruption error (retries don't help and must not loop).
        for seed in 0..8 {
            let plan =
                FaultPlan::new(seed).site(sites::SNAPSHOT_READ, SiteSpec::always(Fault::Truncate));
            bestk_faults::with_plan(&plan, || {
                let err = snapv2::open_with_retry(&path, &zero_backoff(3)).unwrap_err();
                assert!(err.is_corruption(), "seed {seed}: {err}");
            });
        }
        // Bit flips obey the chaos invariant once the deferred graph check
        // runs: correct answer or typed error.
        for seed in 0..8 {
            let plan =
                FaultPlan::new(seed).site(sites::SNAPSHOT_READ, SiteSpec::always(Fault::BitFlip));
            bestk_faults::with_plan(&plan, || {
                let loaded = crate::open_snapshot_v2(&path).and_then(|ds| {
                    ds.graph().check()?;
                    Ok(ds)
                });
                match loaded {
                    Ok(loaded) => assert_eq!(stats(&loaded), stats(&original)),
                    Err(err) => assert!(err.is_corruption(), "seed {seed}: {err}"),
                }
            });
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn graph_corruption_is_rebuilt_only_when_a_source_is_on_offer() {
        let path = temp_path("graphflip");
        let source = path.with_extension("txt");
        let quarantine = path.with_extension("bestk.quarantine");
        std::fs::remove_file(&quarantine).ok();
        let original = built_figure2();
        bestk_graph::io::write_edge_list_path(&generators::paper_figure2(), &source).unwrap();
        crate::save_snapshot_v2_path(&original, &path).unwrap();
        // Figure 2's graph section starts right after the 64-byte header
        // and the four-entry section table.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[192 + 100] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (path_str, source_str) = (path.to_str().unwrap(), source.to_str().unwrap());
        let none = RetryPolicy::none();
        let seq = ExecPolicy::Sequential;
        // No source: the open stays zero-copy and does not read the graph.
        let (_, outcome) = load_or_rebuild(path_str, None, &none, &seq).unwrap();
        assert_eq!(outcome, LoadOutcome::Loaded);
        // A source: the deferred check runs, fails, and the ladder rebuilds.
        let (rebuilt, outcome) = load_or_rebuild(path_str, Some(source_str), &none, &seq).unwrap();
        assert_eq!(outcome, LoadOutcome::Rebuilt);
        assert!(quarantine.exists(), "corrupt file must be quarantined");
        assert_eq!(stats(&rebuilt), stats(&original));
        for f in [source, quarantine] {
            std::fs::remove_file(f).ok();
        }
    }
}
