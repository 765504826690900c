//! `.bestk` snapshots: a zero-copy, mmap-friendly layout (`BESTKSS2`).
//!
//! A snapshot is *opened*, not deserialized: the file is memory-mapped,
//! the 64-byte header and section table are validated, the two (tiny)
//! profile sections are decoded, and the graph plus coreness sections are
//! served straight out of the mapping — no allocation proportional to the
//! graph, and **no read of the graph section at all** until a query first
//! touches it. A cold start costs `O(kmax + #cores)`, not `O(n + m)`
//! deserialization.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic = b"BESTKSS2"
//! 8       4     version = 2
//! 12      4     section count
//! 16      8     n      — vertex count
//! 24      8     nnz    — adjacency entries (2 m)
//! 32      4     kmax
//! 36      4     forest node count
//! 40      8     fnv1a of the section table bytes
//! 48      8     fnv1a of header bytes 0..48
//! 56      8     reserved (zero)
//! 64      table: sections × { id u32, reserved u32, offset u64, len u64, fnv1a u64 }
//! ...     section bodies, ascending offsets, each 8-byte aligned
//! ```
//!
//! Section ids and bodies:
//!
//! | id | name           | body |
//! |----|----------------|------|
//! | 1  | `graph`        | the [`ByteCsr`] layout (`n u64, nnz u64, offsets (n+1)×u64, neighbors nnz×u32`) |
//! | 5  | `set-profile`  | `kmax u32, tri u8, n u64, m u64, count u64, count × 5×u64` |
//! | 6  | `core-profile` | `tri u8, n u64, m u64, count u64, coreness count×u32, count × 5×u64` |
//! | 7  | `coreness`     | `n × u32` |
//!
//! A file with the retired version-1 magic (`BESTKSS1`) is rejected as
//! [`EngineError::VersionSkew`], which the load ladder treats as
//! corruption: quarantine, then rebuild from source.
//!
//! ## Deferred graph validation
//!
//! [`open_mmap`] verifies the header, table, profile, and coreness checksums —
//! all `O(kmax + #cores + n/page)` work — but **not** the graph section's
//! checksum: hashing it would fault in the whole file and defeat the
//! zero-copy open. The graph's `O(1)` framing header *is* cross-checked
//! against the snapshot header, and every [`ByteCsr`] accessor is
//! bounds-clamped, so corrupt adjacency bytes yield wrong answers, never
//! a crash. [`MappedIndex::validate_graph`] pays for the full check. The
//! paths that can act on a bad graph run it: the strict
//! [`Engine::load_snapshot`](crate::Engine::load_snapshot),
//! [`load_or_rebuild`](crate::load_or_rebuild) with a rebuild source, and
//! the paths that read the whole graph (write-ahead-log replay and every
//! commit, see [`crate::mutate`]). A passed check is remembered for the
//! mapping. Loads without a source (serving restarts) skip it.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use bestk_core::{CoreSetProfile, GraphContext, SingleCoreProfile};
use bestk_graph::{cast, ByteCsr, GraphView, VertexId};

use crate::dataset::Dataset;
use crate::error::EngineError;
use crate::mmap::Mmap;
use crate::snapshot::{
    bad, encode_core_profile, encode_set_profile, fnv1a, put_u32, put_u64, read_snapshot_bytes,
    with_retries, write_snapshot_bytes, RetryPolicy, SectionReader,
};
use crate::store::{GraphStore, SnapshotSlice};

/// The `.bestk` magic bytes.
pub const MAGIC: &[u8; 8] = b"BESTKSS2";
/// The format version this build reads and writes.
pub const VERSION: u32 = 2;
/// The retired version-1 magic, recognized only to reject it as
/// [`EngineError::VersionSkew`].
const V1_MAGIC: &[u8; 8] = b"BESTKSS1";
/// Fixed header length in bytes.
const HEADER_LEN: usize = 64;
/// Bytes of the header covered by the header checksum.
const HEADER_CHECKED: usize = 48;
/// Section table entry size.
const ENTRY_LEN: usize = 32;

const SEC_GRAPH: u32 = 1;
const SEC_SET_PROFILE: u32 = 5;
const SEC_CORE_PROFILE: u32 = 6;
const SEC_CORENESS: u32 = 7;

fn section_name(id: u32) -> Option<&'static str> {
    match id {
        SEC_GRAPH => Some("graph"),
        SEC_SET_PROFILE => Some("set-profile"),
        SEC_CORE_PROFILE => Some("core-profile"),
        SEC_CORENESS => Some("coreness"),
        _ => None,
    }
}

/// Rounds `x` up to the next multiple of 8.
fn align8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

// ---------------------------------------------------------------- writing

/// Serializes a built dataset into the snapshot byte layout. The graph
/// and coreness bodies are encoded straight into the one output buffer,
/// sized up front, so a save holds one graph-sized allocation.
pub fn to_bytes(dataset: &Dataset) -> Result<Vec<u8>, EngineError> {
    let art = dataset.artifacts().ok_or_else(|| {
        EngineError::BadSnapshot(
            "cannot save a snapshot from a dataset whose artifacts are not built".into(),
        )
    })?;
    let g = dataset.graph();
    let set_profile = encode_set_profile(&art.set_profile);
    let core_profile = encode_core_profile(&art.core_profile);
    let coreness = art.decomp.coreness_slice();
    let sections = [
        (SEC_GRAPH, bestk_graph::bytecsr::encoded_len(g)),
        (SEC_SET_PROFILE, set_profile.len()),
        (SEC_CORE_PROFILE, core_profile.len()),
        (SEC_CORENESS, 4 * coreness.len()),
    ];

    // The sections follow the table, each 8-byte aligned. The header and
    // table go in last, over the leading zeros: the table holds each
    // body's checksum, and the header checksum covers the table's.
    let table_end = HEADER_LEN + ENTRY_LEN * sections.len();
    let total = sections.iter().fold(table_end, |end, s| align8(end) + s.1);
    let mut out = Vec::with_capacity(total);
    out.resize(table_end, 0);
    let mut table = Vec::with_capacity(ENTRY_LEN * sections.len());
    for (id, len) in sections {
        let off = align8(out.len());
        out.resize(off, 0);
        match id {
            SEC_GRAPH => bestk_graph::bytecsr::encode_view_into(g, &mut out),
            SEC_SET_PROFILE => out.extend_from_slice(&set_profile),
            SEC_CORE_PROFILE => out.extend_from_slice(&core_profile),
            // SEC_CORENESS
            _ => coreness.iter().for_each(|&c| put_u32(&mut out, c)),
        }
        put_u32(&mut table, id);
        put_u32(&mut table, 0);
        put_u64(&mut table, off as u64);
        put_u64(&mut table, len as u64);
        put_u64(&mut table, fnv1a(&out[off..]));
    }

    let mut head = Vec::with_capacity(table_end);
    head.extend_from_slice(MAGIC);
    put_u32(&mut head, VERSION);
    put_u32(&mut head, cast::u32_of(sections.len()));
    put_u64(&mut head, g.num_vertices() as u64);
    put_u64(&mut head, 2 * g.num_edges() as u64);
    put_u32(&mut head, art.decomp.kmax());
    put_u32(&mut head, cast::u32_of(art.forest.node_count()));
    put_u64(&mut head, fnv1a(&table));
    let header_checksum = fnv1a(&head[..HEADER_CHECKED]);
    put_u64(&mut head, header_checksum);
    put_u64(&mut head, 0);
    head.extend_from_slice(&table);
    out[..table_end].copy_from_slice(&head);
    Ok(out)
}

/// Writes a snapshot to `path`, retrying transient I/O failures under
/// `policy`. Each attempt goes through the `snapshot.write`
/// failpoint-instrumented writer and rewrites the whole file, so an
/// injected mid-write crash is healed by the next attempt.
pub fn save_path_with_retry<P: AsRef<Path>>(
    dataset: &Dataset,
    path: P,
    policy: &RetryPolicy,
) -> Result<(), EngineError> {
    let bytes = to_bytes(dataset)?;
    with_retries(policy, || write_snapshot_bytes(path.as_ref(), &bytes)).map_err(EngineError::Io)
}

// ---------------------------------------------------------------- opening

/// The index portion of an opened snapshot: decoded profiles plus
/// zero-copy access to the mapped coreness array.
#[derive(Debug, Clone)]
pub struct MappedIndex {
    map: Arc<Mmap>,
    coreness_off: usize,
    n: usize,
    kmax: u32,
    forest_nodes: u32,
    graph_off: usize,
    graph_len: usize,
    graph_checksum: u64,
    /// Set once [`MappedIndex::validate_graph`] has passed; shared by
    /// clones, which view the same mapping.
    graph_checked: Arc<OnceLock<()>>,
    set_profile: CoreSetProfile,
    core_profile: SingleCoreProfile,
}

impl MappedIndex {
    /// `kmax` as recorded in the snapshot header.
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// Core-forest node count as recorded in the snapshot header.
    pub fn forest_nodes(&self) -> u32 {
        self.forest_nodes
    }

    /// The per-k set profile (decoded eagerly; it is `O(kmax)` small).
    pub fn set_profile(&self) -> &CoreSetProfile {
        &self.set_profile
    }

    /// The per-core profile (decoded eagerly; `O(#cores)` small).
    pub fn core_profile(&self) -> &SingleCoreProfile {
        &self.core_profile
    }

    /// Coreness of `vertex`, read directly from the mapped section —
    /// a single 4-byte access. `None` when the vertex is out of range.
    pub fn core_of(&self, vertex: VertexId) -> Option<u32> {
        let v = vertex as usize;
        if v >= self.n {
            return None;
        }
        let at = self.coreness_off + 4 * v;
        let b = &self.map.as_slice()[at..at + 4];
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Pays the deferred cost: hashes the mapped graph section against its
    /// recorded checksum and structurally validates the CSR layout. This
    /// faults the whole graph section in — exactly the work opening
    /// skips. A passed check is remembered, so later calls are free.
    pub fn validate_graph(&self) -> Result<(), EngineError> {
        if self.graph_checked.get().is_some() {
            return Ok(());
        }
        let body = &self.map.as_slice()[self.graph_off..self.graph_off + self.graph_len];
        if fnv1a(body) != self.graph_checksum {
            return Err(EngineError::ChecksumMismatch { section: "graph" });
        }
        let view = ByteCsr::new(body).map_err(EngineError::Graph)?;
        view.validate_structure().map_err(EngineError::Graph)?;
        let _ = self.graph_checked.set(());
        Ok(())
    }

    /// Approximate heap bytes held by the decoded (non-mapped) parts.
    pub fn resident_bytes(&self) -> usize {
        40 * self.set_profile.primaries.len() + 44 * self.core_profile.primaries.len()
    }
}

/// Opens a snapshot, retrying transient I/O failures under `policy`: map,
/// validate the header/table/small-section checksums, borrow the graph —
/// and return a dataset that answers every query without deserializing
/// the graph. While faults can fire on the calling thread the file is
/// read through the `snapshot.read` failpoint reader (injected I/O
/// errors, bit flips, truncation, short reads) and opened from that heap
/// copy; otherwise it is mapped.
pub fn open_with_retry<P: AsRef<Path>>(
    path: P,
    policy: &RetryPolicy,
) -> Result<Dataset, EngineError> {
    let map = with_retries(policy, || {
        if bestk_faults::is_active() {
            read_snapshot_bytes(path.as_ref()).map(Mmap::from_vec)
        } else {
            Mmap::open(path.as_ref())
        }
    })?;
    open_mmap(Arc::new(map))
}

/// Opens an already-established mapping (the testable core of
/// [`open_with_retry`]).
pub fn open_mmap(map: Arc<Mmap>) -> Result<Dataset, EngineError> {
    let buf = map.as_slice();
    if buf.len() < 8 {
        return Err(EngineError::Truncated { section: "magic" });
    }
    if &buf[..8] == V1_MAGIC {
        return Err(EngineError::VersionSkew {
            found: 1,
            supported: VERSION,
        });
    }
    if &buf[..8] != MAGIC {
        return Err(EngineError::BadMagic);
    }
    if buf.len() < HEADER_LEN {
        return Err(EngineError::Truncated { section: "header" });
    }
    let mut h = SectionReader::new(&buf[8..HEADER_LEN], "header");
    let version = h.u32()?;
    if version != VERSION {
        return Err(EngineError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    let section_count = h.u32()? as usize;
    let n = h.count()?;
    let nnz = h.count()?;
    let kmax = h.u32()?;
    let forest_nodes = h.u32()?;
    let table_checksum = h.u64()?;
    let header_checksum = h.u64()?;
    if fnv1a(&buf[..HEADER_CHECKED]) != header_checksum {
        return Err(EngineError::ChecksumMismatch { section: "header" });
    }
    let table_end = section_count
        .checked_mul(ENTRY_LEN)
        .and_then(|t| t.checked_add(HEADER_LEN))
        .ok_or(EngineError::Truncated {
            section: "section table",
        })?;
    if buf.len() < table_end {
        return Err(EngineError::Truncated {
            section: "section table",
        });
    }
    let table = &buf[HEADER_LEN..table_end];
    if fnv1a(table) != table_checksum {
        return Err(EngineError::ChecksumMismatch {
            section: "section table",
        });
    }

    // Walk the table: known non-duplicate ids, aligned ascending offsets,
    // in-bounds bodies.
    let mut found: [Option<(usize, usize, u64)>; 4] = [None; 4];
    let mut cursor = align8(table_end);
    let mut raw_end = cursor;
    for s in 0..section_count {
        let mut r = SectionReader::new(&table[ENTRY_LEN * s..ENTRY_LEN * (s + 1)], "section table");
        let id = r.u32()?;
        let _reserved = r.u32()?;
        let offset = r.count()?;
        let len = r.count()?;
        let checksum = r.u64()?;
        let name = section_name(id)
            .ok_or_else(|| EngineError::BadSnapshot(format!("unknown v2 section id {id}")))?;
        if offset != cursor {
            return Err(EngineError::BadSnapshot(format!(
                "section {name} starts at {offset}, expected {cursor}"
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or(EngineError::Truncated { section: name })?;
        if end > buf.len() {
            return Err(EngineError::Truncated { section: name });
        }
        let slot = match id {
            SEC_GRAPH => 0,
            SEC_SET_PROFILE => 1,
            SEC_CORE_PROFILE => 2,
            _ => 3,
        };
        if found[slot].is_some() {
            return Err(EngineError::BadSnapshot(format!(
                "duplicate {name} section"
            )));
        }
        found[slot] = Some((offset, len, checksum));
        raw_end = end;
        cursor = align8(end);
    }
    if buf.len() != raw_end {
        return Err(EngineError::TrailingBytes);
    }
    let want =
        |slot: usize, name: &'static str| found[slot].ok_or(EngineError::MissingSection(name));
    let (graph_off, graph_len, graph_checksum) = want(0, "graph")?;
    let (sp_off, sp_len, sp_checksum) = want(1, "set-profile")?;
    let (cp_off, cp_len, cp_checksum) = want(2, "core-profile")?;
    let (cn_off, cn_len, cn_checksum) = want(3, "coreness")?;

    // Small sections: verify checksums and decode. The graph section's
    // checksum is deliberately deferred (see the module docs).
    let sp_body = &buf[sp_off..sp_off + sp_len];
    if fnv1a(sp_body) != sp_checksum {
        return Err(EngineError::ChecksumMismatch {
            section: "set-profile",
        });
    }
    let cp_body = &buf[cp_off..cp_off + cp_len];
    if fnv1a(cp_body) != cp_checksum {
        return Err(EngineError::ChecksumMismatch {
            section: "core-profile",
        });
    }
    let cn_body = &buf[cn_off..cn_off + cn_len];
    if fnv1a(cn_body) != cn_checksum {
        return Err(EngineError::ChecksumMismatch {
            section: "coreness",
        });
    }
    if cn_len != 4 * n {
        return Err(bad(
            "coreness",
            format!("{cn_len} bytes for {n} vertices (want {})", 4 * n),
        ));
    }
    let set_profile = decode_set_profile(sp_body, n, nnz, kmax)?;
    let core_profile = decode_core_profile(cp_body, n, nnz, forest_nodes)?;

    // Graph: O(1) framing only, cross-checked against the header.
    let slice = SnapshotSlice::new(Arc::clone(&map), graph_off, graph_len)
        .ok_or(EngineError::Truncated { section: "graph" })?;
    let view = ByteCsr::new(slice).map_err(EngineError::Graph)?;
    if view.num_vertices() != n || 2 * view.num_edges() != nnz {
        return Err(bad(
            "graph",
            format!(
                "graph section declares n = {}, nnz = {} but the header says n = {n}, nnz = {nnz}",
                view.num_vertices(),
                2 * view.num_edges()
            ),
        ));
    }

    let index = MappedIndex {
        map,
        coreness_off: cn_off,
        n,
        kmax,
        forest_nodes,
        graph_off,
        graph_len,
        graph_checksum,
        graph_checked: Arc::default(),
        set_profile,
        core_profile,
    };
    Ok(Dataset::from_mapped(GraphStore::Mapped(view), index))
}

// ---------------------------------------------------------------- decode

fn decode_context(
    r: &mut SectionReader<'_>,
    section: &'static str,
    n: usize,
    nnz: usize,
) -> Result<GraphContext, EngineError> {
    let total_vertices = r.u64()?;
    let total_edges = r.u64()?;
    if total_vertices != n as u64 || total_edges != (nnz / 2) as u64 {
        return Err(bad(
            section,
            format!(
                "context ({total_vertices} vertices, {total_edges} edges) disagrees with the \
                 header ({n}, {})",
                nnz / 2
            ),
        ));
    }
    Ok(GraphContext {
        total_vertices,
        total_edges,
    })
}

fn decode_set_profile(
    body: &[u8],
    n: usize,
    nnz: usize,
    header_kmax: u32,
) -> Result<CoreSetProfile, EngineError> {
    let mut r = SectionReader::new(body, "set-profile");
    let kmax = r.u32()?;
    let has_triangles = r.u8()? != 0;
    let context = decode_context(&mut r, "set-profile", n, nnz)?;
    let count = r.count()?;
    let primaries = r.primaries(count)?;
    r.finish()?;
    if kmax != header_kmax {
        return Err(bad(
            "set-profile",
            format!("kmax {kmax} disagrees with the header's {header_kmax}"),
        ));
    }
    if count != kmax as usize + 1 {
        return Err(bad(
            "set-profile",
            format!("has {count} entries; kmax {kmax} requires {}", kmax + 1),
        ));
    }
    Ok(CoreSetProfile {
        kmax,
        primaries,
        has_triangles,
        context,
    })
}

fn decode_core_profile(
    body: &[u8],
    n: usize,
    nnz: usize,
    forest_nodes: u32,
) -> Result<SingleCoreProfile, EngineError> {
    let mut r = SectionReader::new(body, "core-profile");
    let has_triangles = r.u8()? != 0;
    let context = decode_context(&mut r, "core-profile", n, nnz)?;
    let count = r.count()?;
    let coreness = r.u32_vec(count)?;
    let primaries = r.primaries(count)?;
    r.finish()?;
    if count != forest_nodes as usize {
        return Err(bad(
            "core-profile",
            format!("has {count} entries but the header declares {forest_nodes} forest nodes"),
        ));
    }
    Ok(SingleCoreProfile {
        primaries,
        coreness,
        has_triangles,
        context,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Answer, Query};
    use bestk_core::Metric;
    use bestk_exec::ExecPolicy;
    use bestk_graph::generators;

    fn built(g: bestk_graph::CsrGraph) -> Dataset {
        let mut ds = Dataset::from_graph(g);
        ds.ensure_built(&ExecPolicy::Sequential);
        ds
    }

    fn all_queries() -> Vec<Query> {
        let mut qs = vec![Query::Stats];
        for m in Metric::EXTENDED {
            qs.push(Query::BestKSet { metric: m });
            qs.push(Query::BestCore { metric: m });
            qs.push(Query::ScoreProfile { metric: m });
        }
        for v in 0..12 {
            qs.push(Query::CoreOfVertex { vertex: v });
        }
        qs
    }

    fn answers(ds: &Dataset) -> Vec<String> {
        all_queries()
            .iter()
            .map(|q| {
                ds.answer(q)
                    .map(|a| a.to_line())
                    .unwrap_or_else(|e| format!("err\t{e}"))
            })
            .collect()
    }

    #[test]
    fn v2_round_trip_preserves_every_answer() {
        let ds = built(generators::paper_figure2());
        let bytes = to_bytes(&ds).unwrap();
        let mapped = open_mmap(Arc::new(Mmap::from_vec(bytes))).unwrap();
        assert!(matches!(mapped.graph(), GraphStore::Mapped(_)));
        assert!(mapped.is_built());
        assert_eq!(answers(&mapped), answers(&ds));
    }

    #[test]
    fn v2_file_round_trip_via_real_mmap() {
        let dir = std::env::temp_dir().join("bestk-snapv2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.bestk2");
        let ds = built(generators::paper_figure2());
        crate::save_snapshot_v2_path(&ds, &path).unwrap();
        let mapped = crate::open_snapshot_v2(&path).unwrap();
        assert_eq!(answers(&mapped), answers(&ds));
        let a = mapped.answer(&Query::Stats).unwrap();
        assert_eq!(
            a,
            Answer::Stats {
                vertices: 12,
                edges: 19,
                kmax: 3,
                forest_nodes: 3
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let ds = built(generators::paper_figure2());
        let bytes = to_bytes(&ds).unwrap();
        // Magic.
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert!(matches!(
            open_mmap(Arc::new(Mmap::from_vec(b))).unwrap_err(),
            EngineError::BadMagic
        ));
        // Version (header checksum recomputed so the skew is what's seen).
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&9u32.to_le_bytes());
        let e = open_mmap(Arc::new(Mmap::from_vec(b))).unwrap_err();
        assert!(
            matches!(
                e,
                EngineError::VersionSkew {
                    found: 9,
                    supported: 2
                }
            ),
            "{e}"
        );
        // The retired version-1 magic is a version skew, not a bad magic.
        let mut b = bytes.clone();
        b[..8].copy_from_slice(V1_MAGIC);
        let e = open_mmap(Arc::new(Mmap::from_vec(b))).unwrap_err();
        assert!(
            matches!(
                e,
                EngineError::VersionSkew {
                    found: 1,
                    supported: 2
                }
            ),
            "{e}"
        );
        // Truncations at a few boundaries.
        for cut in [4, 32, 70, bytes.len() / 2] {
            let e = open_mmap(Arc::new(Mmap::from_vec(bytes[..cut].to_vec()))).unwrap_err();
            assert!(e.is_corruption(), "cut {cut}: {e}");
        }
    }

    #[test]
    fn header_and_small_section_flips_are_rejected_or_benign() {
        let ds = built(generators::paper_figure2());
        let bytes = to_bytes(&ds).unwrap();
        let reference = answers(&open_mmap(Arc::new(Mmap::from_vec(bytes.clone()))).unwrap());
        // Flip a bit in every byte outside the (deferred) graph body: open
        // must reject the flip, or — for inter-section alignment padding —
        // accept it with bit-identical answers.
        let graph_off = u64::from_le_bytes(bytes[72..80].try_into().unwrap()) as usize;
        let graph_len = u64::from_le_bytes(bytes[80..88].try_into().unwrap()) as usize;
        for at in 0..bytes.len() {
            if at >= graph_off && at < graph_off + graph_len {
                continue; // graph body: deferred, tested below
            }
            let mut b = bytes.clone();
            b[at] ^= 0x40;
            match open_mmap(Arc::new(Mmap::from_vec(b))) {
                Err(_) => {}
                Ok(ds) => assert_eq!(answers(&ds), reference, "flip at {at} changed answers"),
            }
        }
    }

    #[test]
    fn graph_body_corruption_defers_to_validate_graph() {
        let ds = built(generators::paper_figure2());
        let bytes = to_bytes(&ds).unwrap();
        let graph_off = u64::from_le_bytes(bytes[72..80].try_into().unwrap()) as usize;
        let graph_len = u64::from_le_bytes(bytes[80..88].try_into().unwrap()) as usize;
        let mut b = bytes.clone();
        // Flip a byte deep in the adjacency area (past the 16-byte framing
        // header the open path does read).
        b[graph_off + graph_len - 1] ^= 0x01;
        let mapped = open_mmap(Arc::new(Mmap::from_vec(b))).expect("open must not read the body");
        let idx = mapped.mapped_index().unwrap();
        assert!(matches!(
            idx.validate_graph().unwrap_err(),
            EngineError::ChecksumMismatch { section: "graph" }
        ));
        // Profile-backed queries still answer correctly.
        let a = mapped
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
        // And the intact original validates clean.
        let good = open_mmap(Arc::new(Mmap::from_vec(bytes))).unwrap();
        good.mapped_index().unwrap().validate_graph().unwrap();
    }

    #[test]
    fn unbuilt_dataset_refuses_v2_save() {
        let ds = Dataset::from_graph(generators::paper_figure2());
        assert!(matches!(
            to_bytes(&ds).unwrap_err(),
            EngineError::BadSnapshot(_)
        ));
    }

    #[test]
    fn core_of_reads_single_values_from_the_map() {
        let g = generators::paper_figure2();
        let expect = bestk_core::core_decomposition(&g);
        let ds = built(g);
        let mapped = open_mmap(Arc::new(Mmap::from_vec(to_bytes(&ds).unwrap()))).unwrap();
        let idx = mapped.mapped_index().unwrap();
        for v in 0..12u32 {
            assert_eq!(idx.core_of(v), Some(expect.coreness(v)));
        }
        assert_eq!(idx.core_of(12), None);
        assert_eq!(idx.kmax(), 3);
        assert_eq!(idx.forest_nodes(), 3);
    }
}
