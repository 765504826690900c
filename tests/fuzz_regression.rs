//! Corpus regression sweep: every checked-in seed under `tests/corpus/`
//! must satisfy its surface's fuzzing contract — a valid result or a
//! typed error, never a panic, never a disproportionate allocation —
//! both plain and with a fault plan live. New failures found by
//! `bestk fuzz` get fixed, then pinned here as corpus files.
//!
//! The binary seeds (snapshot images, WAL frames) are materialized by
//! the ignored `regenerate_binary_corpus` test below, so they always
//! come from the current encoders — except the hand-kept rejection seeds
//! listed in `tests/corpus/README.md`.

use std::path::{Path, PathBuf};

use bestk_engine::Dataset;
use bestk_exec::ExecPolicy;
use bestk_faults::{sites, Fault, FaultPlan, SiteSpec};
use bestk_fuzz::{base_inputs, check_bytes, Check, Surface, ALL_SURFACES, DEFAULT_BUDGET_BYTES};
use bestk_graph::generators;

fn corpus_dir(surface: Surface) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(surface.name())
}

/// All seed files for one surface, name-sorted for deterministic order.
fn corpus_files(surface: Surface) -> Vec<(PathBuf, Vec<u8>)> {
    let dir = corpus_dir(surface);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read corpus file");
            (p, bytes)
        })
        .collect()
}

fn sweep(context: &str) {
    for surface in ALL_SURFACES {
        let files = corpus_files(surface);
        assert!(
            !files.is_empty(),
            "{context}: corpus for {} is empty — run \
             `cargo test --test fuzz_regression regenerate -- --ignored`",
            surface.name()
        );
        for (path, bytes) in files {
            let check = check_bytes(surface, &bytes, DEFAULT_BUDGET_BYTES);
            assert!(
                matches!(check, Check::Valid | Check::TypedError),
                "{context}: {} violated the {} contract: {check:?}",
                path.display(),
                surface.name()
            );
        }
    }
}

#[test]
fn corpus_sweeps_clean() {
    sweep("plain");
}

/// The same sweep with injected faults live at every site a corpus check
/// can reach: mangled serve reads, admission overload, WAL replay
/// corruption, exec worker panics. The contract does not weaken — a
/// fault may turn a valid seed into a typed error, never into a panic.
#[test]
fn corpus_sweeps_clean_under_faults() {
    for seed in [3u64, 11, 29] {
        let plan = FaultPlan::new(seed)
            .site(
                sites::SERVE_READ,
                SiteSpec::mixed(vec![Fault::Truncate, Fault::BitFlip], 0.4),
            )
            .site(
                sites::SERVE_OVERLOAD,
                SiteSpec::mixed(vec![Fault::Overload], 0.25),
            )
            .site(
                sites::DELTA_WAL_REPLAY,
                SiteSpec::mixed(vec![Fault::Truncate, Fault::IoError], 0.4),
            )
            .site(
                sites::ENGINE_PRESSURE,
                SiteSpec::mixed(vec![Fault::Pressure], 0.25),
            );
        bestk_faults::with_plan(&plan, || sweep(&format!("faults seed={seed}")));
    }
}

/// A short deterministic `run_surface` sweep per surface — the same
/// engine `bestk fuzz` uses, pinned here so plain `cargo test` exercises
/// the generator/mutator path too (CI runs the long sweeps).
#[test]
fn generated_sweeps_stay_clean() {
    for surface in ALL_SURFACES {
        let report = bestk_fuzz::run_surface(surface, 0, 32, DEFAULT_BUDGET_BYTES);
        assert!(
            report.clean(),
            "surface {}: {} panics, {} violations over {} inputs",
            surface.name(),
            report.panics,
            report.violations,
            report.inputs
        );
        assert!(report.valid > 0, "surface {} never parsed", surface.name());
    }
}

/// The committed Figure 2 snapshot is byte for byte what a sequential
/// build of that dataset writes today. The equivalence suites compare
/// snapshot bytes across thread counts within one build; this pins them
/// against a file, so an unintended change to any artifact the snapshot
/// carries fails here.
#[test]
fn figure2_snapshot_matches_the_committed_bytes() {
    let mut ds = Dataset::from_graph(generators::paper_figure2());
    ds.ensure_built(&ExecPolicy::Sequential);
    let built = bestk_engine::snapv2::to_bytes(&ds).expect("encode snapshot");
    let path = corpus_dir(Surface::Snapshot).join("figure2-v2.bestk");
    let committed = std::fs::read(&path).expect("read committed snapshot");
    let first_diff = built
        .iter()
        .zip(&committed)
        .position(|(a, b)| a != b)
        .unwrap_or(built.len().min(committed.len()));
    assert!(
        built == committed,
        "{} no longer matches a fresh build ({} vs {} bytes, first difference at \
         byte {first_diff}); if the format change is deliberate, run \
         `cargo test --test fuzz_regression regenerate -- --ignored` and commit the result",
        path.display(),
        committed.len(),
        built.len()
    );
}

/// Materializes the machine-generated corpus seeds from the *current*
/// encoders: valid exemplars per surface plus one-byte-damage and
/// truncation variants. Ignored in normal runs; re-run after any on-disk
/// format change and commit the result:
///
/// ```text
/// cargo test --test fuzz_regression regenerate -- --ignored
/// ```
#[test]
#[ignore = "corpus generator, run explicitly after format changes"]
fn regenerate_binary_corpus() {
    for surface in [Surface::GraphIo, Surface::Snapshot, Surface::Wal] {
        let dir = corpus_dir(surface);
        std::fs::create_dir_all(&dir).expect("corpus dir");
        let names: &[&str] = match surface {
            Surface::GraphIo => &["figure2-edges.txt", "figure2-metis.graph", "figure2.bin"],
            Surface::Snapshot => &["figure2-v2.bestk"],
            Surface::Wal => &["valid.wal"],
            Surface::Serve => &[],
        };
        let bases = base_inputs(surface);
        assert_eq!(bases.len(), names.len(), "base exemplar count drifted");
        for (name, bytes) in names.iter().zip(&bases) {
            std::fs::write(dir.join(name), bytes).expect("write exemplar");
        }
    }
    // Damage variants: a flipped byte past the magic and a torn suffix —
    // the two corruption shapes every decoder must reject in O(1) state.
    let wal = base_inputs(Surface::Wal).remove(0);
    let mut flipped = wal.clone();
    flipped[12] ^= 0x40;
    std::fs::write(
        corpus_dir(Surface::Wal).join("flipped-payload.wal"),
        flipped,
    )
    .expect("write flipped wal");
    std::fs::write(
        corpus_dir(Surface::Wal).join("torn-mid-frame.wal"),
        &wal[..wal.len() - 5],
    )
    .expect("write torn wal");
    std::fs::write(corpus_dir(Surface::Wal).join("empty.wal"), b"").expect("write empty wal");

    let v2 = base_inputs(Surface::Snapshot).remove(0);
    let mut flipped = v2.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(
        corpus_dir(Surface::Snapshot).join("flipped-v2.bestk"),
        flipped,
    )
    .expect("write flipped snapshot");
    std::fs::write(
        corpus_dir(Surface::Snapshot).join("torn-v2.bestk"),
        &v2[..v2.len() / 3],
    )
    .expect("write torn snapshot");
}
