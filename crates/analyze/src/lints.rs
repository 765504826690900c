//! The policy lints and their evaluation over a [`FileModel`].
//!
//! The lints encode the workspace contract (see `DESIGN.md` §"Lint
//! policy"):
//!
//! | lint | rule |
//! |------|------|
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `no-unwrap` | no `.unwrap()` / `.expect(` outside `#[cfg(test)]` |
//! | `no-panic` | no `panic!` / `todo!` / `unimplemented!` outside `#[cfg(test)]` |
//! | `no-raw-cast` | no truncating `as u8/u16/u32/i8/i16/i32/VertexId` outside the blessed `cast` module |
//! | `no-raw-thread` | no `thread::spawn` / `thread::scope` outside `crates/exec` (the policed scheduling seam) |
//! | `no-raw-net` | no `std::net` sockets outside `crates/engine` (the policed serving seam) |
//! | `no-raw-failpoint` | no `install_plan(`/`clear_plan(` outside `crates/faults` (fault sites go through the `bestk_faults` facade) |
//! | `no-raw-instant` | no `Instant::now(` outside `crates/obs` (timing goes through the injectable `bestk_obs` clock) |
//! | `no-raw-graph` | no `.offsets()`/`.raw_neighbors()`/`CsrGraph::from_parts` outside `crates/graph` (graphs are observed through `GraphView`) |
//! | `no-raw-mutation` | no `DeltaOverlay`/`DeltaLog` outside `crates/delta` and `crates/engine` (mutations go through the engine's stage/commit protocol) |
//! | `no-raw-corpus-io` | no `Recording`/`decode_recording` outside `crates/engine` and `crates/fuzz` (corpus and `.bestkrec` files decode behind the policed seams) |
//! | `no-raw-peel` | no degree-bucket pops or degree-slot decrements outside `crates/core` (peeling goes through `bestk_core`'s `core_decomposition_with`) |
//! | `module-doc` | every source file opens with a `//!` module doc |
//!
//! The deeper analysis families — lock discipline, determinism, hot-path
//! arithmetic — live in [`crate::passes`] and [`crate::facts`]; this
//! module holds the single-token-sequence lints plus the lint registry
//! (`LINTS`) every pass shares.
//!
//! Suppressions are explicit and carry a reason:
//!
//! * `// bestk-analyze: allow(<lint>) — <reason>` on the offending line or
//!   the line directly above it;
//! * `bestk-analyze: allow-file(<lint>) — <reason>` anywhere in the file
//!   (conventionally in the module doc) for file-wide exemptions.
//!
//! A suppression without a reason is itself a violation (`bad-allow`).
//!
//! bestk-analyze: allow-file(bad-allow) — these docs quote the directive syntax

use crate::model::FileModel;
use crate::report::Diagnostic;

/// Stable lint identifiers (the names used in allow comments).
pub const LINTS: &[(&str, &str)] = &[
    (
        "forbid-unsafe",
        "crate roots must declare #![forbid(unsafe_code)]",
    ),
    (
        "no-unwrap",
        "no .unwrap()/.expect() in non-test code; propagate errors or document",
    ),
    (
        "no-panic",
        "no panic!/todo!/unimplemented! in non-test code",
    ),
    (
        "no-raw-cast",
        "no truncating `as` casts outside the blessed cast module",
    ),
    (
        "no-raw-thread",
        "no thread::spawn/thread::scope outside crates/exec; use bestk_exec::ExecPolicy",
    ),
    (
        "no-raw-net",
        "no std::net sockets outside crates/engine; route serving through bestk_engine::serve",
    ),
    (
        "no-raw-failpoint",
        "no install_plan/clear_plan outside crates/faults; inject via the bestk_faults helpers",
    ),
    (
        "no-raw-instant",
        "no std::time::Instant::now outside crates/obs; read time through the bestk_obs clock",
    ),
    (
        "no-raw-graph",
        "no CsrGraph internals (.offsets()/.raw_neighbors()/from_parts) outside crates/graph; observe graphs through GraphView",
    ),
    (
        "no-raw-mutation",
        "no DeltaOverlay/DeltaLog outside crates/delta and crates/engine; mutate through SharedEngine::stage_edge/commit_edges",
    ),
    (
        "no-raw-corpus-io",
        "no Recording/decode_recording outside crates/engine and crates/fuzz; replay recordings via bestk_engine::replay_recording_path",
    ),
    (
        "no-raw-peel",
        "no degree-bucket pops or degree-slot writes outside crates/core; peel through bestk_core's core_decomposition_with",
    ),
    (
        "module-doc",
        "every source file opens with a //! module doc",
    ),
    (
        "bad-allow",
        "allow comments must name a known lint and give a reason",
    ),
    (
        "lock-order",
        "mutex acquisition order forms a cycle across the workspace (potential deadlock)",
    ),
    (
        "lock-nested",
        "lock acquired while another guard is live; scope the first guard tighter or document the order",
    ),
    (
        "lock-held-io",
        "lock guard held across file/network I/O; move the I/O outside the critical section",
    ),
    (
        "lock-held-dispatch",
        "lock guard held across bestk_exec dispatch; release the guard before fanning out",
    ),
    (
        "nondet-iter",
        "iteration over HashMap/HashSet in non-test code; use BTreeMap/BTreeSet or sort before use",
    ),
    (
        "float-reduce",
        "unordered float accumulation outside bestk-exec's ordered merge; reduce in a fixed order",
    ),
    (
        "raw-atomic",
        "raw atomics outside crates/obs and crates/exec; route through the policed seams or document the invariant",
    ),
    (
        "unchecked-arith",
        "unchecked add/sub/mul on degree/offset/budget values in a hot crate; use checked_/wrapping_/saturating_ or document overflow-freedom",
    ),
];

/// True if `name` is a known lint id.
pub fn is_known_lint(name: &str) -> bool {
    LINTS.iter().any(|(id, _)| *id == name)
}

/// The truncating cast targets `no-raw-cast` rejects. `as usize`/`as u64`
/// widen on every supported target when the source is a `u32` vertex id —
/// the dominant cast direction in this workspace — so they stay legal;
/// the narrowing direction must go through `bestk_graph::cast`.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "VertexId"];

/// Role of a file within its crate, which decides lint applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/lib.rs` or `src/main.rs`: a crate root (gets `forbid-unsafe`).
    CrateRoot,
    /// The blessed checked-cast module (`cast.rs`): exempt from
    /// `no-raw-cast` — it is where the casts are supposed to live.
    CastModule,
    /// Any other library source file.
    Library,
}

/// Classifies a path inside a crate's `src/` tree.
pub fn classify(path: &str) -> FileRole {
    let file = path.rsplit('/').next().unwrap_or(path);
    if path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") {
        FileRole::CrateRoot
    } else if file == "cast.rs" {
        FileRole::CastModule
    } else {
        FileRole::Library
    }
}

/// Runs the pattern lints over one file. `path` is the repo-relative path
/// used in diagnostics; `role` comes from [`classify`]. Parses the file
/// itself — the workspace driver parses once and calls [`check_model`].
pub fn check_file(path: &str, role: FileRole, text: &str) -> Vec<Diagnostic> {
    let model = FileModel::parse(text);
    check_model(path, role, &model)
}

/// Runs the pattern lints over an already-parsed [`FileModel`].
pub fn check_model(path: &str, role: FileRole, m: &FileModel<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Malformed allow directives, unless the file exempts documentation
    // that *quotes* the directive syntax (this crate's own docs, notably).
    if !m.allows.allowed_file_wide("bad-allow") {
        for (line, msg) in &m.bad_allows {
            diags.push(Diagnostic::new(
                path,
                *line as usize,
                "bad-allow",
                msg.clone(),
            ));
        }
    }

    // module-doc: the first lines of the file must include a `//!` doc.
    if (role != FileRole::CrateRoot || !m.src.is_empty())
        && !m.has_module_doc
        && !m.allows.allowed_file_wide("module-doc")
    {
        diags.push(Diagnostic::new(
            path,
            1,
            "module-doc",
            "file has no `//!` module documentation".to_string(),
        ));
    }

    // forbid-unsafe: crate roots must carry the inner attribute.
    if role == FileRole::CrateRoot
        && !has_forbid_unsafe(m)
        && !m.allows.allowed_file_wide("forbid-unsafe")
    {
        diags.push(Diagnostic::new(
            path,
            1,
            "forbid-unsafe",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }

    // `crates/exec` is the one place allowed to touch OS threads: every
    // other crate must route parallelism through its `ExecPolicy` runtime.
    let exec_exempt = path.starts_with("crates/exec/");
    // `crates/engine` is likewise the one place allowed to open sockets:
    // its serving loop is the policed network seam.
    let net_exempt = path.starts_with("crates/engine/");
    // `crates/faults` owns the global fault-plan state: production code
    // elsewhere must use the `bestk_faults` injection helpers (`io_error`,
    // `maybe_panic`, ...), never install or clear plans itself.
    let failpoint_exempt = path.starts_with("crates/faults/");
    // `crates/obs` owns the injectable clock: its `SystemClock` is the one
    // place allowed to read `Instant::now` directly, so every other timing
    // read stays swappable for the deterministic manual clock.
    let instant_exempt = path.starts_with("crates/obs/");
    // `crates/graph` owns the CSR representation: everywhere else observes
    // graphs through the `GraphView` trait so storage backends (succinct,
    // mapped snapshots) stay swappable without touching consumers.
    let graph_exempt = path.starts_with("crates/graph/");
    // `crates/delta` defines the raw mutation primitives and
    // `crates/engine` is the one consumer allowed to drive them: everyone
    // else mutates through the engine's stage → commit protocol, which is
    // what makes mutations validated, write-ahead-logged, and durable.
    let mutation_exempt = path.starts_with("crates/delta/") || path.starts_with("crates/engine/");
    // `crates/engine` owns the `.bestkrec` recording format and
    // `crates/fuzz` owns the corpus checkers: everywhere else replays
    // recordings through `bestk_engine::replay_recording_path`, so decode
    // hardening (checksums, framing, typed errors) cannot be bypassed.
    let corpus_exempt = path.starts_with("crates/engine/") || path.starts_with("crates/fuzz/");
    // `crates/core` owns the peel: its bucket-frontier peel is the one
    // place allowed to pop degree buckets and write degree slots, because
    // that is the machinery the differential test layer proves
    // bit-identical. A peel hand-rolled anywhere else silently escapes
    // that proof.
    let peel_exempt = path.starts_with("crates/core/");

    let mut push = |lint: &'static str, line: u32, msg: String| {
        diags.push(Diagnostic::new(path, line as usize, lint, msg));
    };

    for i in 0..m.len() {
        if m.sig_in_test(i) {
            continue;
        }
        let line = m.line(i);
        let allowed = |lint: &str| m.allows.allowed(lint, line);

        // `.unwrap()` / `.expect(` method calls.
        if m.is_punct(i, b'.') && m.is_punct(i + 2, b'(') {
            let what = match m.ident(i + 1) {
                Some("unwrap") => Some("`.unwrap()`"),
                Some("expect") => Some("`.expect()`"),
                _ => None,
            };
            if let Some(what) = what {
                if !allowed("no-unwrap") {
                    push("no-unwrap", line, format!(
                        "{what} in non-test code (propagate the error or add an allow comment with a reason)"
                    ));
                }
            }
        }

        // `panic!` / `todo!` / `unimplemented!` macro invocations.
        if m.is_punct(i + 1, b'!') {
            let what = match m.ident(i) {
                Some("panic") => Some("`panic!`"),
                Some("todo") => Some("`todo!`"),
                Some("unimplemented") => Some("`unimplemented!`"),
                _ => None,
            };
            if let Some(what) = what {
                if !allowed("no-panic") {
                    push("no-panic", line, format!(
                        "{what} in non-test code (propagate the error or add an allow comment with a reason)"
                    ));
                }
            }
        }

        // `thread::spawn(` / `thread::scope(`.
        if !exec_exempt
            && m.is_ident(i, "thread")
            && m.is_punct(i + 1, b':')
            && m.is_punct(i + 2, b':')
            && m.is_punct(i + 4, b'(')
        {
            let what = match m.ident(i + 3) {
                Some("spawn") => Some("`thread::spawn`"),
                Some("scope") => Some("`thread::scope`"),
                _ => None,
            };
            if let Some(what) = what {
                if !allowed("no-raw-thread") {
                    push("no-raw-thread", line, format!(
                        "{what} outside crates/exec (route parallelism through bestk_exec::ExecPolicy)"
                    ));
                }
            }
        }

        // `std::net` paths and the socket type names themselves.
        if !net_exempt && !allowed("no-raw-net") {
            if m.is_ident(i, "std")
                && m.is_punct(i + 1, b':')
                && m.is_punct(i + 2, b':')
                && m.is_ident(i + 3, "net")
            {
                push(
                    "no-raw-net",
                    line,
                    "`std::net` outside crates/engine (route serving through bestk_engine::serve)"
                        .to_string(),
                );
            }
            if let Some(name @ ("TcpListener" | "TcpStream")) = m.ident(i) {
                push(
                    "no-raw-net",
                    line,
                    format!(
                    "`{name}` outside crates/engine (route serving through bestk_engine::serve)"
                ),
                );
            }
        }

        // `install_plan(` / `clear_plan(`.
        if !failpoint_exempt && m.is_punct(i + 1, b'(') {
            if let Some(name @ ("install_plan" | "clear_plan")) = m.ident(i) {
                if !allowed("no-raw-failpoint") {
                    push("no-raw-failpoint", line, format!(
                        "`{name}` outside crates/faults (inject faults via the bestk_faults helpers)"
                    ));
                }
            }
        }

        // `Instant::now(`.
        if !instant_exempt
            && m.is_ident(i, "Instant")
            && m.is_punct(i + 1, b':')
            && m.is_punct(i + 2, b':')
            && m.is_ident(i + 3, "now")
            && m.is_punct(i + 4, b'(')
            && !allowed("no-raw-instant")
        {
            push(
                "no-raw-instant",
                line,
                "`Instant::now` outside crates/obs (read time through the bestk_obs clock)"
                    .to_string(),
            );
        }

        // Raw CSR internals: the `.offsets()` / `.raw_neighbors()`
        // accessors and the `CsrGraph::from_parts` constructors.
        if !graph_exempt {
            if m.is_punct(i, b'.') && m.is_punct(i + 2, b'(') {
                if let Some(name @ ("offsets" | "raw_neighbors")) = m.ident(i + 1) {
                    if !allowed("no-raw-graph") {
                        push("no-raw-graph", line, format!(
                            "`.{name}()` outside crates/graph (observe graphs through the GraphView trait)"
                        ));
                    }
                }
            }
            if m.is_ident(i, "CsrGraph")
                && m.is_punct(i + 1, b':')
                && m.is_punct(i + 2, b':')
                && m.is_punct(i + 4, b'(')
            {
                if let Some(name @ ("from_parts" | "try_from_parts")) = m.ident(i + 3) {
                    if !allowed("no-raw-graph") {
                        push("no-raw-graph", line, format!(
                            "`CsrGraph::{name}` outside crates/graph (build graphs via GraphBuilder or the blessed deserializers)"
                        ));
                    }
                }
            }
        }

        // The raw delta mutation primitives, by type name (any mention —
        // import, construction, signature — couples the file to the
        // unpoliced mutation path).
        if !mutation_exempt && !allowed("no-raw-mutation") {
            if let Some(name @ ("DeltaOverlay" | "DeltaLog")) = m.ident(i) {
                push(
                    "no-raw-mutation",
                    line,
                    format!(
                        "`{name}` outside crates/delta and crates/engine (mutate through SharedEngine::stage_edge/commit_edges)"
                    ),
                );
            }
        }

        // The recording/corpus decode surface, by name (any mention —
        // import, construction, signature — couples the file to the raw
        // byte-level decode path).
        if !corpus_exempt && !allowed("no-raw-corpus-io") {
            if let Some(name @ ("Recording" | "decode_recording")) = m.ident(i) {
                push(
                    "no-raw-corpus-io",
                    line,
                    format!(
                        "`{name}` outside crates/engine and crates/fuzz (replay recordings via bestk_engine::replay_recording_path)"
                    ),
                );
            }
        }

        // Hand-rolled peel machinery: a `.pop()`/`.swap_remove()` on a
        // bucket-named receiver, or a write (`=` / `-=`) into a
        // degree-named slot — the two moves every bucket-peel loop is
        // made of.
        if !peel_exempt {
            if m.is_punct(i, b'.') && m.is_punct(i + 2, b'(') {
                if let Some(name @ ("pop" | "swap_remove")) = m.ident(i + 1) {
                    let near_bucket = (i.saturating_sub(6)..i).any(|j| {
                        m.ident(j)
                            .is_some_and(|id| id.to_ascii_lowercase().contains("bucket"))
                    });
                    if near_bucket && !allowed("no-raw-peel") {
                        push("no-raw-peel", line, format!(
                            "`.{name}()` on a degree bucket outside crates/core (peel through bestk_core's core_decomposition_with)"
                        ));
                    }
                }
            }
            if m.ident(i)
                .is_some_and(|id| id.to_ascii_lowercase().contains("deg"))
                && m.is_punct(i + 1, b'[')
            {
                // Find the closing bracket of a simple index expression; a
                // write into the slot is `] =` (not `==`) or `] -=`.
                let mut j = i + 2;
                let end = (i + 12).min(m.len());
                while j < end && !m.is_punct(j, b']') {
                    j += 1;
                }
                let is_store = m.is_punct(j, b']')
                    && ((m.is_punct(j + 1, b'=') && !m.is_punct(j + 2, b'='))
                        || (m.is_punct(j + 1, b'-') && m.is_punct(j + 2, b'=')));
                if is_store && !allowed("no-raw-peel") {
                    push("no-raw-peel", line, format!(
                        "write into degree slot `{}[…]` outside crates/core (peel through bestk_core's core_decomposition_with)",
                        m.ident(i).unwrap_or("deg")
                    ));
                }
            }
        }

        // Truncating `as` casts.
        if role != FileRole::CastModule && m.is_ident(i, "as") {
            if let Some(target) = m.ident(i + 1) {
                if NARROWING_TARGETS.contains(&target) && !allowed("no-raw-cast") {
                    push(
                        "no-raw-cast",
                        line,
                        format!("truncating `as {target}` cast (use bestk_graph::cast helpers)"),
                    );
                }
            }
        }
    }
    diags
}

/// True when the significant token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(m: &FileModel<'_>) -> bool {
    (0..m.len()).any(|i| {
        m.is_punct(i, b'#')
            && m.is_punct(i + 1, b'!')
            && m.is_punct(i + 2, b'[')
            && m.is_ident(i + 3, "forbid")
            && m.is_punct(i + 4, b'(')
            && m.is_ident(i + 5, "unsafe_code")
            && m.is_punct(i + 6, b')')
            && m.is_punct(i + 7, b']')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.lint).collect()
    }

    const DOC: &str = "//! Docs.\n";

    #[test]
    fn clean_file_passes() {
        let src = format!("{DOC}pub fn f(x: u32) -> usize {{ x as usize }}\n");
        assert!(check_file("a.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn unwrap_in_library_code_fires() {
        let src = format!("{DOC}fn f() {{ let x: Option<u8> = None; x.unwrap(); }}\n");
        let d = check_file("a.rs", FileRole::Library, &src);
        assert_eq!(lints_of(&d), vec!["no-unwrap"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn unwrap_in_test_module_is_fine() {
        let src =
            format!("{DOC}#[cfg(test)]\nmod tests {{\n    fn t() {{ None::<u8>.unwrap(); }}\n}}\n");
        assert!(check_file("a.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_is_fine() {
        let src = format!("{DOC}// .unwrap() here\nlet s = \".unwrap()\";\n");
        assert!(check_file("a.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn unwrap_in_raw_string_is_fine() {
        // The old line-blanking scanner special-cased this; the lexer gets
        // it for free, hash depth and all.
        let src = format!("{DOC}let s = r#\"x.unwrap() and panic!\"#;\nlet t = br\"todo!()\";\n");
        assert!(check_file("a.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn allow_comment_with_reason_suppresses() {
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-unwrap) — mutex poisoning is fatal by design\nlock.lock().unwrap();\n"
        );
        assert!(check_file("a.rs", FileRole::Library, &src).is_empty());
        let trailing = format!(
            "{DOC}lock.lock().unwrap(); // bestk-analyze: allow(no-unwrap) — poisoning is fatal\n"
        );
        assert!(check_file("a.rs", FileRole::Library, &trailing).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = format!("{DOC}// bestk-analyze: allow(no-unwrap)\nx.unwrap();\n");
        let d = check_file("a.rs", FileRole::Library, &src);
        assert!(lints_of(&d).contains(&"bad-allow"), "{d:?}");
    }

    #[test]
    fn allow_unknown_lint_is_rejected() {
        let src = format!("{DOC}// bestk-analyze: allow(no-such) — whatever reason\n");
        let d = check_file("a.rs", FileRole::Library, &src);
        assert_eq!(lints_of(&d), vec!["bad-allow"]);
    }

    #[test]
    fn panic_family_fires() {
        let src = format!("{DOC}fn f() {{ panic!(\"x\"); }}\nfn g() {{ todo!() }}\n");
        let d = check_file("a.rs", FileRole::Library, &src);
        assert_eq!(lints_of(&d), vec!["no-panic", "no-panic"]);
    }

    #[test]
    fn narrowing_casts_fire_and_widening_do_not() {
        let src = format!("{DOC}let a = x as u32;\nlet b = x as usize;\nlet c = x as u64;\n");
        let d = check_file("a.rs", FileRole::Library, &src);
        assert_eq!(lints_of(&d), vec!["no-raw-cast"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn cast_module_is_blessed() {
        let src = format!("{DOC}pub fn vertex_id(i: usize) -> u32 {{ i as u32 }}\n");
        assert!(check_file("crates/graph/src/cast.rs", FileRole::CastModule, &src).is_empty());
    }

    #[test]
    fn word_boundaries_respected() {
        let src = format!("{DOC}let a = x as u64;\nlet b = y as usize;\nlet c = alias_u32;\n");
        assert!(check_file("a.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_thread_outside_exec_fires() {
        let src = format!("{DOC}fn f() {{ std::thread::spawn(|| ()); }}\n");
        let d = check_file("crates/core/src/x.rs", FileRole::Library, &src);
        assert_eq!(lints_of(&d), vec!["no-raw-thread"]);
        assert_eq!(d[0].line, 2);
        let src = format!("{DOC}fn f() {{ std::thread::scope(|s| {{ let _ = s; }}); }}\n");
        let d = check_file("crates/core/src/x.rs", FileRole::Library, &src);
        assert_eq!(lints_of(&d), vec!["no-raw-thread"]);
    }

    #[test]
    fn raw_thread_inside_exec_is_blessed() {
        let src = format!("{DOC}fn f() {{ std::thread::scope(|s| {{ let _ = s; }}); }}\n");
        assert!(check_file("crates/exec/src/runtime.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_thread_in_test_code_or_strings_is_fine() {
        let src = format!(
            "{DOC}// thread::spawn( in a comment\nlet s = \"thread::scope(\";\n\
             #[cfg(test)]\nmod tests {{\n    fn t() {{ std::thread::spawn(|| ()); }}\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_peel_outside_core_fires() {
        for bad in [
            "fn f(buckets: &mut Vec<Vec<u32>>, k: usize) { buckets[k].pop(); }",
            "fn f(bucket_q: &mut Vec<u32>) { bucket_q.swap_remove(0); }",
            "fn f(degree: &mut [u32], u: usize) { degree[u] -= 1; }",
            "fn f(deg: &mut [u32], u: usize) { deg[u] = 0; }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/apps/src/densest.rs", FileRole::Library, &src);
            assert_eq!(lints_of(&d), vec!["no-raw-peel"], "{bad:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_peel_inside_core_is_blessed() {
        let src = format!(
            "{DOC}fn f(buckets: &mut Vec<Vec<u32>>, degree: &mut [u32], k: usize) {{\n\
             \x20   buckets[k].pop();\n    degree[k] -= 1;\n}}\n"
        );
        assert!(check_file("crates/core/src/decomposition.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn degree_reads_compares_and_plain_pops_are_fine() {
        // Reads, comparisons, and pops on non-bucket receivers are not
        // peel machinery.
        let src = format!(
            "{DOC}fn f(degree: &[u32], u: usize, k: u32) -> bool {{ degree[u] == k || degree[u] >= k }}\n\
             fn g(degree: &[u32], u: usize) -> u32 {{ degree[u] - 1 }}\n\
             fn h(stack: &mut Vec<u32>) {{ stack.pop(); }}\n"
        );
        assert!(check_file("crates/apps/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_peel_in_test_code_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// buckets[k].pop() in a comment\n\
             #[cfg(test)]\nmod tests {{\n    fn t(deg: &mut [u32]) {{ deg[0] -= 1; }}\n}}\n"
        );
        assert!(check_file("crates/apps/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-peel) — Charikar peel, not a core decomposition\nbuckets[cur_min].pop();\n"
        );
        assert!(check_file("crates/apps/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_net_outside_engine_fires() {
        for bad in [
            "fn f() { let _ = std::net::TcpListener::bind(\"127.0.0.1:0\"); }",
            "use std::net::SocketAddr;",
            "fn f(s: TcpStream) { let _ = s; }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/cli/src/commands.rs", FileRole::Library, &src);
            assert!(lints_of(&d).contains(&"no-raw-net"), "{bad:?} -> {d:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_net_inside_engine_is_blessed() {
        let src = format!("{DOC}use std::net::TcpListener;\nfn f(s: TcpStream) {{ let _ = s; }}\n");
        assert!(check_file("crates/engine/src/serve.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_net_in_test_code_strings_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// std::net in a comment\nlet s = \"TcpListener\";\n\
             #[cfg(test)]\nmod tests {{\n    use std::net::TcpStream;\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-net) — diagnostic-only socket probe\nuse std::net::SocketAddr;\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_failpoint_outside_faults_fires() {
        for bad in [
            "fn f() { bestk_faults::install_plan(&plan); }",
            "fn f() { bestk_faults::clear_plan(); }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/engine/src/serve.rs", FileRole::Library, &src);
            assert_eq!(lints_of(&d), vec!["no-raw-failpoint"], "{bad:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_failpoint_inside_faults_is_blessed() {
        let src =
            format!("{DOC}pub fn with_plan(p: &FaultPlan) {{ install_plan(p); clear_plan(); }}\n");
        assert!(check_file("crates/faults/src/state.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_failpoint_in_test_code_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// install_plan( in a comment\n\
             #[cfg(test)]\nmod tests {{\n    fn t() {{ bestk_faults::clear_plan(); }}\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-failpoint) — CLI boot is the blessed env entry point\nbestk_faults::install_plan(&plan);\n"
        );
        assert!(check_file("crates/cli/src/main.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_instant_outside_obs_fires() {
        for bad in [
            "fn f() { let t = std::time::Instant::now(); }",
            "fn f() { let t = Instant::now(); }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/engine/src/serve.rs", FileRole::Library, &src);
            assert_eq!(lints_of(&d), vec!["no-raw-instant"], "{bad:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_instant_inside_obs_is_blessed() {
        let src = format!("{DOC}fn now() -> Instant {{ std::time::Instant::now() }}\n");
        assert!(check_file("crates/obs/src/clock.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_instant_in_test_code_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// Instant::now( in a comment\n\
             #[cfg(test)]\nmod tests {{\n    fn t() {{ let _ = std::time::Instant::now(); }}\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-instant) — calibrating the clock itself\nlet t = Instant::now();\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_graph_outside_graph_crate_fires() {
        for bad in [
            "fn f(g: &CsrGraph) -> usize { g.offsets()[0] }",
            "fn f(g: &CsrGraph) -> usize { g.raw_neighbors().len() }",
            "fn f() { let _ = CsrGraph::from_parts(vec![0], vec![]); }",
            "fn f() { let _ = CsrGraph::try_from_parts(vec![0], vec![]); }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/engine/src/store.rs", FileRole::Library, &src);
            assert_eq!(lints_of(&d), vec!["no-raw-graph"], "{bad:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_graph_inside_graph_crate_is_blessed() {
        let src = format!(
            "{DOC}pub fn copy(g: &CsrGraph) -> CsrGraph {{\n    \
             CsrGraph::from_parts(g.offsets().to_vec(), g.raw_neighbors().to_vec())\n}}\n"
        );
        assert!(check_file("crates/graph/src/transform.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_graph_in_test_code_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// .offsets( in a comment\n\
             #[cfg(test)]\nmod tests {{\n    fn t(g: &CsrGraph) {{ let _ = g.offsets(); }}\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-graph) — CSR fast path, backed by the trait contract\nlet o = g.offsets().to_vec();\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        // Non-CsrGraph `from_parts` constructors are someone else's business.
        let src = format!("{DOC}let f = CoreForest::from_parts(nodes, vertex_node);\n");
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_mutation_outside_delta_and_engine_fires() {
        for bad in [
            "use bestk_delta::DeltaOverlay;",
            "fn f(g: &CsrGraph) { let _ = DeltaOverlay::new(g); }",
            "fn f() { let _ = DeltaLog::open(\"g.wal\"); }",
            "fn f(log: &mut DeltaLog) { let _ = log; }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/cli/src/commands.rs", FileRole::Library, &src);
            assert_eq!(lints_of(&d), vec!["no-raw-mutation"], "{bad:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_mutation_inside_delta_and_engine_is_blessed() {
        let src = format!(
            "{DOC}fn f(g: &CsrGraph) {{\n    let o = DeltaOverlay::new(g);\n    \
             let l = DeltaLog::open(\"g.wal\");\n}}\n"
        );
        assert!(check_file("crates/delta/src/index.rs", FileRole::Library, &src).is_empty());
        assert!(check_file("crates/engine/src/mutate.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_mutation_in_test_code_strings_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// DeltaOverlay in a comment\nlet s = \"DeltaLog\";\n\
             #[cfg(test)]\nmod tests {{\n    use bestk_delta::DeltaOverlay;\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-mutation) — read-only what-if probe, never committed\nlet o = DeltaOverlay::new(&g);\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        // Other Delta-prefixed names (the index, errors) are not policed.
        let src = format!("{DOC}use bestk_delta::{{DeltaError, DeltaIndex}};\n");
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn raw_corpus_io_outside_engine_and_fuzz_fires() {
        for bad in [
            "use bestk_engine::record::Recording;",
            "fn f(bytes: &[u8]) { let _ = decode_recording(bytes); }",
            "fn f(r: &Recording) { let _ = r; }",
        ] {
            let src = format!("{DOC}{bad}\n");
            let d = check_file("crates/cli/src/commands.rs", FileRole::Library, &src);
            assert_eq!(lints_of(&d), vec!["no-raw-corpus-io"], "{bad:?}");
            assert_eq!(d[0].line, 2);
        }
    }

    #[test]
    fn raw_corpus_io_inside_engine_and_fuzz_is_blessed() {
        let src = format!(
            "{DOC}fn f(bytes: &[u8]) -> Recording {{\n    decode_recording(bytes).unwrap_or_else(|e| panic!(\"{{e}}\"))\n}}\n"
        );
        let d = check_file("crates/engine/src/record.rs", FileRole::Library, &src);
        assert!(!lints_of(&d).contains(&"no-raw-corpus-io"), "{d:?}");
        let d = check_file("crates/fuzz/src/harness.rs", FileRole::Library, &src);
        assert!(!lints_of(&d).contains(&"no-raw-corpus-io"), "{d:?}");
    }

    #[test]
    fn raw_corpus_io_in_test_code_strings_or_allowed_lines_is_fine() {
        let src = format!(
            "{DOC}// decode_recording( in a comment\nlet s = \"Recording\";\n\
             #[cfg(test)]\nmod tests {{\n    use bestk_engine::record::Recording;\n}}\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        let src = format!(
            "{DOC}// bestk-analyze: allow(no-raw-corpus-io) — offline corpus triage tool\nlet r = decode_recording(&bytes);\n"
        );
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
        // Other recording-ish names (the replay facade) are not policed.
        let src = format!("{DOC}let r = bestk_engine::replay_recording_path(p, &e, &pol);\n");
        assert!(check_file("crates/core/src/x.rs", FileRole::Library, &src).is_empty());
    }

    #[test]
    fn missing_module_doc_fires() {
        let d = check_file("a.rs", FileRole::Library, "fn f() {}\n");
        assert_eq!(lints_of(&d), vec!["module-doc"]);
    }

    #[test]
    fn crate_root_without_forbid_fires() {
        let d = check_file("src/lib.rs", FileRole::CrateRoot, DOC);
        assert_eq!(lints_of(&d), vec!["forbid-unsafe"]);
        let ok = format!("{DOC}#![forbid(unsafe_code)]\n");
        assert!(check_file("src/lib.rs", FileRole::CrateRoot, &ok).is_empty());
    }

    #[test]
    fn classify_roles() {
        assert_eq!(classify("crates/graph/src/lib.rs"), FileRole::CrateRoot);
        assert_eq!(classify("crates/cli/src/main.rs"), FileRole::CrateRoot);
        assert_eq!(classify("crates/graph/src/cast.rs"), FileRole::CastModule);
        assert_eq!(classify("crates/core/src/verify.rs"), FileRole::Library);
    }
}
