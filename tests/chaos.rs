//! Chaos suite: sweep deterministic fault plans (seed × site) through the
//! real serving stack and assert the hardened invariant everywhere:
//!
//! > every injected fault yields either a correct answer or a typed
//! > `err` reply — and the server itself never dies.
//!
//! The sweeps cover all named failpoints in `bestk_faults::sites`:
//! snapshot reads (transient errors retry, corruption quarantines and
//! rebuilds from source), snapshot writes (mid-write crashes), serving
//! reads (torn lines, socket errors), read-timeout installation, admission
//! overload, engine memory pressure, exec worker panics, and the delta
//! write-ahead log (mid-append crashes on the mutation path, torn files
//! truncated at every byte prefix on the replay path).
//!
//! Like the other integration tests, this file drives threads and sockets
//! directly — the `no-raw-thread` / `no-raw-net` lints police library
//! code, not test harnesses.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;

use bestk_engine::{
    open_snapshot_v2, save_snapshot_v2_path, serve_lines, snapv2, Control, Dataset, RetryPolicy,
    ServeLimits, SharedEngine,
};
use bestk_exec::ExecPolicy;
use bestk_faults::{sites, Fault, FaultPlan, SiteSpec};
use bestk_graph::generators::{self, EdgeOp};

/// Serializes the chaos tests within this binary: the fault plan is
/// process-global, so fixture setup in one test must not run while another
/// test's plan is live. (`with_plan` has its own gate, but it only covers
/// the closure, not the clean setup around it.)
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const STATS: &str = "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3";
const COREOF: &str = "ok\tcoreof\t5\tcoreness=2";
const BESTKSET: &str = "ok\tbestkset\tad\tk=2\tscore=3.1666666666666665";

/// Fresh scratch dir with the Figure-2 source edge list and a built
/// `.bestk` snapshot (both created with no fault plan active). Spaces in
/// `tag` become dashes: the serve protocol splits `load` on whitespace.
fn fixture(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let tag = tag.replace(' ', "-");
    let dir = std::env::temp_dir().join(format!("bestk-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let source = dir.join("fig2.txt");
    let snap = dir.join("fig2.bestk");
    let g = generators::paper_figure2();
    bestk_graph::io::write_edge_list_path(&g, &source).expect("write source");
    let mut ds = Dataset::from_graph(g);
    ds.ensure_built(&ExecPolicy::Sequential);
    save_snapshot_v2_path(&ds, &snap).expect("write snapshot");
    (dir, source, snap)
}

/// Per-site readings of the `faults.injected{site="…"}` metric counters
/// for every named failpoint (0 for sites never hit).
fn injected_metrics() -> Vec<(String, u64)> {
    let snap = bestk_obs::snapshot();
    sites::all()
        .iter()
        .map(|site| {
            let name = format!("faults.injected{{site=\"{site}\"}}");
            (site.to_string(), snap.counter(&name).unwrap_or(0))
        })
        .collect()
}

/// Asserts the injection observability contract. Must run inside the
/// `with_plan` closure (once the guard drops, the plan's accounting is
/// gone): for every site, the `faults.injected{site="…"}` metric delta
/// since `before` must equal the live plan's own `site_injection_counts`
/// budget accounting — every injection is counted exactly once, in both
/// ledgers.
fn assert_injection_accounting(before: &[(String, u64)], context: &str) {
    let plan_counts: std::collections::BTreeMap<String, u64> =
        bestk_faults::site_injection_counts().into_iter().collect();
    for ((site, b), (site_after, a)) in before.iter().zip(&injected_metrics()) {
        assert_eq!(site, site_after, "{context}: site order is stable");
        let delta = a.saturating_sub(*b);
        let planned = plan_counts.get(site).copied().unwrap_or(0);
        assert_eq!(
            delta, planned,
            "{context}: site {site}: metric delta {delta} != plan accounting {planned}"
        );
    }
}

/// The scripted session every sweep runs: load (with rebuild source),
/// query, re-query, introspect, quit.
fn script(snap: &std::path::Path, source: &std::path::Path) -> Vec<u8> {
    format!(
        "load g {snap} {source}\n\
         query g stats\n\
         query g coreof 5\n\
         query g bestkset ad\n\
         query g stats\n\
         counters\n\
         quit\n",
        snap = snap.display(),
        source = source.display(),
    )
    .into_bytes()
}

/// Asserts the chaos invariant over a reply transcript: every line is a
/// single `ok` or `err` reply. When `strict` (the request stream itself
/// was not mangled), `ok` replies must also be the *correct* answers.
fn assert_replies(text: &str, strict: bool, context: &str) {
    let expected_ok: &[&[&str]] = &[
        &["ok\tloaded\tg", "ok\trebuilt\tg"],
        &[STATS],
        &[COREOF],
        &[BESTKSET],
        &[STATS],
        &["ok\tcounters\t"],
        &["ok\tbye"],
    ];
    for (i, line) in text.lines().enumerate() {
        assert!(
            line.starts_with("ok\t") || line.starts_with("err\t"),
            "{context}: reply {i} is not a typed ok/err line: {line:?}"
        );
        if strict && line.starts_with("ok\t") {
            let candidates = expected_ok.get(i).copied().unwrap_or(&[]);
            assert!(
                candidates.iter().any(|c| line.starts_with(c)),
                "{context}: reply {i} claims ok but is not a correct answer: {line:?}"
            );
        }
    }
    if strict {
        assert_eq!(
            text.lines().count(),
            7,
            "{context}: expected one reply per request"
        );
    }
}

/// Runs the scripted session under `plan` (with two exec workers, so
/// `exec.worker` faults really fire on worker threads) and checks the
/// invariant. Caller must hold [`gate`].
fn run_session(plan: &FaultPlan, strict: bool, context: &str) {
    let (dir, source, snap) = fixture(context);
    bestk_faults::with_plan(plan, || {
        let before = injected_metrics();
        let engine = SharedEngine::with_budget(None);
        let policy = ExecPolicy::with_threads(2).expect("two workers");
        let mut out = Vec::new();
        // The `quit` request itself can be shed or mangled, in which case
        // the stream ends at EOF with `Continue` — both controls are fine;
        // the invariant is that serve_lines returns Ok at all.
        let control = serve_lines(&engine, &policy, &script(&snap, &source)[..], &mut out)
            .unwrap_or_else(|e| panic!("{context}: server died: {e}"));
        assert!(matches!(control, Control::Quit | Control::Continue));
        assert_replies(&String::from_utf8_lossy(&out), strict, context);
        assert_injection_accounting(&before, context);
    });
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn snapshot_read_faults_yield_correct_answers_or_typed_errors() {
    let _g = gate();
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).site(
            sites::SNAPSHOT_READ,
            SiteSpec::mixed(
                vec![
                    Fault::Interrupted,
                    Fault::WouldBlock,
                    Fault::IoError,
                    Fault::BitFlip,
                    Fault::Truncate,
                ],
                0.6,
            ),
        );
        run_session(&plan, true, &format!("snapshot.read seed {seed}"));
    }
    // Corruption-only plans: `io_error` never draws these kinds, so every
    // count the site's metric gains is a bit flip or truncation that
    // reached the snapshot reader.
    let read_injections = || {
        injected_metrics()
            .into_iter()
            .find_map(|(site, n)| (site == sites::SNAPSHOT_READ).then_some(n))
            .unwrap_or(0)
    };
    let before = read_injections();
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).site(
            sites::SNAPSHOT_READ,
            SiteSpec::mixed(vec![Fault::BitFlip, Fault::Truncate], 0.6),
        );
        run_session(
            &plan,
            true,
            &format!("snapshot.read corruption seed {seed}"),
        );
    }
    assert!(
        read_injections() > before,
        "bit flips and truncations must reach the snapshot reader"
    );
}

#[test]
fn serve_read_faults_never_kill_the_server() {
    let _g = gate();
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).site(
            sites::SERVE_READ,
            SiteSpec::mixed(vec![Fault::BitFlip, Fault::Truncate, Fault::ShortRead], 0.5),
        );
        // Mangled request text means replies can be errors or answers to
        // the mangled question: only the ok/err shape is asserted.
        run_session(&plan, false, &format!("serve.read seed {seed}"));
    }
}

#[test]
fn overload_shedding_is_typed_and_recoverable() {
    let _g = gate();
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).site(
            sites::SERVE_OVERLOAD,
            SiteSpec::mixed(vec![Fault::Overload], 0.5),
        );
        run_session(&plan, true, &format!("serve.overload seed {seed}"));
    }
}

#[test]
fn engine_pressure_evictions_keep_answers_correct() {
    let _g = gate();
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).site(
            sites::ENGINE_PRESSURE,
            SiteSpec::mixed(vec![Fault::Pressure], 0.7),
        );
        run_session(&plan, true, &format!("engine.pressure seed {seed}"));
    }
}

#[test]
fn worker_panics_become_internal_errors_not_crashes() {
    let _g = gate();
    for seed in 0..8 {
        let plan =
            FaultPlan::new(seed).site(sites::EXEC_WORKER, SiteSpec::mixed(vec![Fault::Panic], 0.5));
        run_session(&plan, true, &format!("exec.worker seed {seed}"));
    }
}

#[test]
fn fault_storm_across_every_site_is_survivable() {
    let _g = gate();
    for seed in 0..8 {
        let mut plan = FaultPlan::new(seed);
        for site in sites::all() {
            plan = plan.site(
                site,
                SiteSpec::mixed(
                    vec![
                        Fault::Interrupted,
                        Fault::WouldBlock,
                        Fault::IoError,
                        Fault::BitFlip,
                        Fault::Truncate,
                        Fault::ShortRead,
                        Fault::Panic,
                        Fault::Pressure,
                        Fault::Overload,
                    ],
                    0.25,
                ),
            );
        }
        run_session(&plan, false, &format!("storm seed {seed}"));
    }
}

#[test]
fn snapshot_write_crashes_heal_or_fail_typed() {
    let _g = gate();
    let (dir, _source, _snap) = fixture("write");
    let mut ds = Dataset::from_graph(generators::paper_figure2());
    ds.ensure_built(&ExecPolicy::Sequential);
    let baseline = ds
        .answer(&bestk_engine::Query::Stats)
        .expect("baseline stats")
        .to_line();
    for seed in 0..8u64 {
        let plan = FaultPlan::new(seed).site(
            sites::SNAPSHOT_WRITE,
            SiteSpec::mixed(
                vec![Fault::Truncate, Fault::IoError, Fault::Interrupted],
                0.6,
            ),
        );
        let path = dir.join(format!("w{seed}.bestk"));
        bestk_faults::with_plan(&plan, || {
            let before = injected_metrics();
            let retry = RetryPolicy {
                attempts: 3,
                backoff: std::time::Duration::ZERO,
            };
            match snapv2::save_path_with_retry(&ds, &path, &retry) {
                Ok(()) => {
                    // A successful save must round-trip to the same answers
                    // (read with retries: the plan is still live).
                    let loaded = snapv2::open_with_retry(&path, &retry);
                    if let Ok(back) = loaded {
                        let stats = back
                            .answer(&bestk_engine::Query::Stats)
                            .expect("stats")
                            .to_line();
                        assert_eq!(stats, baseline, "seed {seed}");
                    }
                }
                Err(e) => {
                    // Typed failure; whatever partial file remains must be
                    // rejected by the loader, not mis-loaded.
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "seed {seed}");
                    if path.exists() {
                        assert!(
                            open_snapshot_v2(&path).is_err(),
                            "seed {seed}: partial write must not load cleanly"
                        );
                    }
                }
            }
            assert_injection_accounting(&before, &format!("snapshot.write seed {seed}"));
        });
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_snapshot_on_startup_quarantines_and_rebuilds() {
    let _g = gate();
    for seed in 0..8usize {
        let (dir, source, snap) = fixture(&format!("corrupt{seed}"));
        // Deterministic manual corruption: flip one byte, position varying
        // with the seed (past the magic, so the file still reads as a
        // snapshot). Seeds 2 and 3 land in the graph section, which only
        // the load's deferred graph check catches.
        let mut bytes = std::fs::read(&snap).expect("read snapshot");
        let at = 16 + (seed * 131) % (bytes.len() - 16);
        bytes[at] ^= 0xff;
        std::fs::write(&snap, &bytes).expect("corrupt snapshot");

        let engine = SharedEngine::with_budget(None);
        let mut out = Vec::new();
        serve_lines(
            &engine,
            &ExecPolicy::Sequential,
            &script(&snap, &source)[..],
            &mut out,
        )
        .expect("server survives");
        let text = String::from_utf8_lossy(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "ok\trebuilt\tg", "seed {seed}: {}", lines[0]);
        assert_eq!(lines[1], STATS, "seed {seed}");
        assert_eq!(lines[3], BESTKSET, "seed {seed}");
        assert!(
            snap.with_extension("bestk.quarantine").exists(),
            "seed {seed}: corrupt file must be quarantined"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn timeout_install_failures_surface_on_the_connection() {
    use std::net::{TcpListener, TcpStream};
    let _g = gate();
    for seed in 0..8 {
        let plan = FaultPlan::new(seed).site(
            sites::SERVE_TIMEOUT,
            SiteSpec::always(Fault::IoError).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let before = injected_metrics();
            let io_errors = || {
                bestk_obs::snapshot()
                    .counter("serve.errors{kind=\"io\"}")
                    .unwrap_or(0)
            };
            let io_errors_before = io_errors();
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let engine = SharedEngine::with_budget(None);
            engine.insert_graph("fig2", generators::paper_figure2());
            std::thread::scope(|scope| {
                let client = scope.spawn(move || {
                    // Connection 1 trips the injected set_read_timeout
                    // failure: the server must answer with a typed err
                    // line (not silently drop us) and keep accepting.
                    let first = TcpStream::connect(addr).expect("connect 1");
                    let mut line = String::new();
                    BufReader::new(&first).read_line(&mut line).expect("reply");
                    assert!(
                        line.starts_with("err\t"),
                        "seed {seed}: want typed err, got {line:?}"
                    );
                    drop(first);
                    // Connection 2 is served normally.
                    let stream = TcpStream::connect(addr).expect("connect 2");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    writeln!(writer, "query fig2 stats").expect("send");
                    line.clear();
                    reader.read_line(&mut line).expect("reply");
                    assert_eq!(line.trim_end(), STATS, "seed {seed}");
                    writeln!(writer, "quit").expect("send quit");
                    line.clear();
                    reader.read_line(&mut line).expect("bye");
                    assert_eq!(line.trim_end(), "ok\tbye", "seed {seed}");
                });
                bestk_engine::serve_on_listener(
                    &engine,
                    &ExecPolicy::Sequential,
                    &listener,
                    Some(std::time::Duration::from_secs(5)),
                    &ServeLimits::default(),
                )
                .expect("server survives");
                client.join().expect("client");
            });
            let context = format!("serve.timeout seed {seed}");
            assert_injection_accounting(&before, &context);
            // The site budget is 1: connection 2's timeout install would
            // have tripped the always-on fault again were the budget not
            // already exhausted by connection 1.
            let timeout_injections = bestk_faults::site_injection_counts()
                .into_iter()
                .find_map(|(site, n)| (site == sites::SERVE_TIMEOUT).then_some(n))
                .unwrap_or(0);
            assert_eq!(timeout_injections, 1, "{context}: budget caps injections");
            // The typed rejection counts like every other error reply.
            assert_eq!(
                io_errors() - io_errors_before,
                1,
                "{context}: the rejection counts in serve.errors"
            );
        });
    }
}

/// Engine-level stats line for Figure 2 plus `extra` edges — the reachable
/// post-mutation states the delta drills below assert against.
fn fig2_stats_with(extra: &[(u32, u32)]) -> String {
    let base = generators::paper_figure2();
    let mut b = bestk_graph::GraphBuilder::new();
    b.reserve_vertices(base.num_vertices());
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    for &(u, v) in extra {
        b.add_edge(u, v);
    }
    let mut ds = Dataset::from_graph(b.build());
    ds.ensure_built(&ExecPolicy::Sequential);
    ds.answer(&bestk_engine::Query::Stats)
        .expect("stats")
        .to_line()
}

/// Loads the fixture snapshot (adopting its sibling write-ahead log) into
/// a fresh engine and returns the stats line it serves.
fn load_and_stats(snap: &std::path::Path, context: &str) -> String {
    let engine = SharedEngine::with_budget(None);
    engine
        .load_snapshot_with_fallback(
            "g",
            snap.to_str().expect("utf8 path"),
            None,
            &RetryPolicy::none(),
            &ExecPolicy::Sequential,
        )
        .unwrap_or_else(|e| panic!("{context}: load died: {e}"));
    engine
        .query("g", &bestk_engine::Query::Stats, &ExecPolicy::Sequential)
        .unwrap_or_else(|e| panic!("{context}: stats died: {e}"))
        .to_line()
}

#[test]
fn torn_wal_prefixes_replay_a_committed_prefix_or_quarantine() {
    let _g = gate();
    let (dir, _source, snap) = fixture("torn-wal");
    let wal = format!("{}.wal", snap.display());
    // Build a real log through the engine: two single-op commits, so the
    // file holds [insert, marker, insert, marker] and every byte offset is
    // a distinct torn-write scenario.
    {
        let engine = SharedEngine::with_budget(None);
        engine
            .load_snapshot_with_fallback(
                "g",
                snap.to_str().expect("utf8 path"),
                None,
                &RetryPolicy::none(),
                &ExecPolicy::Sequential,
            )
            .expect("seed load");
        for op in [EdgeOp::Insert(0, 11), EdgeOp::Insert(1, 11)] {
            engine.stage_edge("g", op).expect("stage");
            engine
                .commit_edges("g", &ExecPolicy::Sequential)
                .expect("commit");
        }
    }
    let full = std::fs::read(&wal).expect("read wal");
    // Replay applies committed ops in order, so a torn file may only ever
    // reproduce a prefix of the committed history — never a reordering,
    // never a half-applied op.
    let reachable = [
        fig2_stats_with(&[]),
        fig2_stats_with(&[(0, 11)]),
        fig2_stats_with(&[(0, 11), (1, 11)]),
    ];
    for cut in 0..=full.len() {
        let quarantine = format!("{wal}.quarantine");
        let _ = std::fs::remove_file(&quarantine);
        std::fs::write(&wal, &full[..cut]).expect("write torn prefix");
        let line = load_and_stats(&snap, &format!("cut {cut}"));
        assert!(
            reachable.contains(&line),
            "cut {cut}: serving a state outside the committed history: {line:?}"
        );
        if cut < bestk_delta::WAL_MAGIC.len() {
            // A prefix shorter than the magic is not a delta log at all:
            // it must land in quarantine and the base snapshot is served.
            assert!(
                std::path::Path::new(&quarantine).exists(),
                "cut {cut}: non-log prefix must quarantine"
            );
            assert_eq!(
                line, reachable[0],
                "cut {cut}: quarantine serves the base snapshot"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn wal_append_faults_fail_typed_and_the_log_stays_adoptable() {
    let _g = gate();
    for seed in 0..8 {
        let (dir, _source, snap) = fixture(&format!("wal-append{seed}"));
        let plan = FaultPlan::new(seed).site(
            sites::DELTA_WAL_APPEND,
            SiteSpec::mixed(
                vec![Fault::Interrupted, Fault::IoError, Fault::Truncate],
                0.5,
            ),
        );
        // The committed graph can only ever be fig2 plus a subset of the
        // two staged inserts (an op whose append failed is neither pending
        // nor logged; a failed commit leaves its ops staged for the next).
        let reachable: Vec<String> = [
            &[][..],
            &[(0, 11)][..],
            &[(1, 11)][..],
            &[(0, 11), (1, 11)][..],
        ]
        .iter()
        .map(|extra| fig2_stats_with(extra))
        .collect();
        bestk_faults::with_plan(&plan, || {
            let before = injected_metrics();
            let engine = SharedEngine::with_budget(None);
            let script = format!(
                "load g {snap}\n\
                 add-edge g 0 11\n\
                 commit g\n\
                 add-edge g 1 11\n\
                 commit g\n\
                 query g stats\n\
                 quit\n",
                snap = snap.display(),
            )
            .into_bytes();
            let mut out = Vec::new();
            let control = serve_lines(&engine, &ExecPolicy::Sequential, &script[..], &mut out)
                .unwrap_or_else(|e| panic!("seed {seed}: server died: {e}"));
            assert!(matches!(control, Control::Quit | Control::Continue));
            let text = String::from_utf8_lossy(&out);
            for (i, line) in text.lines().enumerate() {
                assert!(
                    line.starts_with("ok\t") || line.starts_with("err\t"),
                    "seed {seed}: reply {i} is not a typed ok/err line: {line:?}"
                );
                // The stats reply (second-to-last) answers for whatever
                // subset of the mutations actually committed.
                if i == 5 && line.starts_with("ok\t") {
                    let answer = &line["ok\t".len()..];
                    assert!(
                        reachable.iter().any(|r| r == answer),
                        "seed {seed}: stats outside the reachable states: {line:?}"
                    );
                }
            }
            assert_injection_accounting(&before, &format!("delta.wal.append seed {seed}"));
        });
        // Crash-consistency: whatever the injected crashes did to the log,
        // a fresh engine adopts it (heal on the write side guarantees only
        // fully acknowledged records remain) and serves a reachable state.
        let line = load_and_stats(&snap, &format!("seed {seed} restart"));
        assert!(
            reachable.contains(&line),
            "seed {seed}: restart serves a state outside the committed history: {line:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn wal_replay_faults_surface_as_typed_load_errors() {
    let _g = gate();
    for seed in 0..8 {
        let (dir, _source, snap) = fixture(&format!("wal-replay{seed}"));
        let mutated = fig2_stats_with(&[(0, 11)]);
        // Park one committed mutation in the log so the replay path runs.
        {
            let engine = SharedEngine::with_budget(None);
            engine
                .load_snapshot_with_fallback(
                    "g",
                    snap.to_str().expect("utf8 path"),
                    None,
                    &RetryPolicy::none(),
                    &ExecPolicy::Sequential,
                )
                .expect("seed load");
            engine
                .stage_edge("g", EdgeOp::Insert(0, 11))
                .expect("stage");
            engine
                .commit_edges("g", &ExecPolicy::Sequential)
                .expect("commit");
        }
        let plan = FaultPlan::new(seed).site(
            sites::DELTA_WAL_REPLAY,
            SiteSpec::mixed(vec![Fault::IoError], 0.7),
        );
        bestk_faults::with_plan(&plan, || {
            let before = injected_metrics();
            let engine = SharedEngine::with_budget(None);
            match engine.load_snapshot_with_fallback(
                "g",
                snap.to_str().expect("utf8 path"),
                None,
                &RetryPolicy::none(),
                &ExecPolicy::Sequential,
            ) {
                // The injection missed: the replayed state is exact.
                Ok(_) => {
                    let line = engine
                        .query("g", &bestk_engine::Query::Stats, &ExecPolicy::Sequential)
                        .expect("stats")
                        .to_line();
                    assert_eq!(line, mutated, "seed {seed}");
                }
                // The injection hit: a typed I/O error, not a quarantine —
                // a flaky disk must not cost us the log.
                Err(e) => {
                    assert!(
                        matches!(e, bestk_engine::EngineError::Io(_)),
                        "seed {seed}: want typed i/o error, got {e}"
                    );
                }
            }
            assert_injection_accounting(&before, &format!("delta.wal.replay seed {seed}"));
        });
        // Once the disk behaves, the untouched log replays in full.
        let line = load_and_stats(&snap, &format!("seed {seed} clean reload"));
        assert_eq!(line, mutated, "seed {seed}: log must survive replay faults");
        let _ = std::fs::remove_dir_all(dir);
    }
}
