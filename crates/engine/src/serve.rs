//! The line-oriented serving loop, over stdio or a TCP socket.
//!
//! Protocol grammar (one request per line; replies are a single line,
//! tab-separated, starting with an explicit `ok` or `err` status):
//!
//! ```text
//! load <name> <path> [source] register a .bestk snapshot  -> ok loaded <name>
//!                             (with [source]: a corrupt snapshot is
//!                             quarantined and rebuilt    -> ok rebuilt <name>)
//! query <dataset> <query...>  answer one query            -> ok <answer fields>
//! add-edge <dataset> <u> <v>  stage an edge insert        -> ok staged <name> add <u> <v> pending=<k>
//! del-edge <dataset> <u> <v>  stage an edge delete        -> ok staged <name> del <u> <v> pending=<k>
//! commit <dataset>            commit staged mutations     -> ok committed <name> ops=... n=... m=...
//!                                                            kmax=... bestk=<k|-> score=<s|->
//! datasets                    list datasets               -> ok datasets <n> (+ per-row lines)
//! counters                    workload counters           -> ok counters loads=... builds=...
//! metrics                     metrics exposition          -> ok metrics <n> (+ n exposition lines)
//! quit                        graceful shutdown           -> ok bye
//! ```
//!
//! Any failure becomes `err\t<message>` on the same single line — the
//! connection survives bad requests, and a client can script against the
//! first tab-separated token alone. (`metrics` is the one *ok* reply that
//! spans multiple lines: its header declares how many exposition lines
//! follow, so clients can still frame it.) `quit` shuts the whole server
//! down gracefully after the reply is flushed and the connection drained.
//!
//! ## Observability
//!
//! The loop records into the global `bestk_obs` registry: `serve.requests`
//! (total and per `{verb=…}`), `serve.errors` (total and per `{kind=…}`),
//! `serve.shed`, and a `serve.latency_nanos` histogram over admitted
//! requests. See DESIGN.md §12.
//!
//! ## Hardening
//!
//! The loop is built to survive everything the `bestk-faults` chaos suite
//! throws at it:
//!
//! * request handling runs under `catch_unwind`, so a panic anywhere in
//!   dispatch becomes an `err internal error: ...` reply, never process
//!   death;
//! * request lines are capped at [`ServeLimits::max_line_bytes`] — an
//!   over-long line is discarded (to the next newline) and answered with a
//!   typed `err request too large` reply;
//! * admission is gated on [`ServeLimits::max_inflight`]: the loop answers
//!   one request at a time, so `0` sheds every request with
//!   `err overloaded` (a drain) and any other value admits every request
//!   (real concurrent admission is open work in `ROADMAP.md`); the
//!   `serve.overload` failpoint sheds on demand;
//! * a connection whose read timeout cannot be configured gets a typed
//!   `err` line (counted in `serve.errors{kind="io"}`) and is closed — the
//!   accept loop keeps serving;
//! * read errors (timeouts, hangups, injected faults) end the connection,
//!   not the server.
//!
//! This module is the one place in the workspace allowed to touch
//! `std::net` (enforced by the `no-raw-net` lint): the TCP listener binds
//! loopback only, applies a per-connection read timeout, and serves
//! connections sequentially — the engine is a single shared registry, and
//! the workspace's `no-raw-thread` policy keeps thread primitives inside
//! `crates/exec`.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use bestk_exec::ExecPolicy;
use bestk_faults::sites;
use bestk_obs::{Counter, Histogram, MetricsRegistry};

use bestk_graph::generators::EdgeOp;

use crate::engine::LoadOutcome;
use crate::error::EngineError;
use crate::query::Query;
use crate::record::ServeRecorder;
use crate::registry::SharedEngine;
use crate::snapshot::RetryPolicy;

/// Bucket bounds (inclusive, nanoseconds) for `serve.latency_nanos`:
/// 1µs … 1s in decades, overflow above.
const LATENCY_BOUNDS_NANOS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// The protocol verbs, for per-verb request counting (anything else is
/// counted under `{verb="other"}` so label cardinality stays bounded).
const VERBS: &[&str] = &[
    "load", "query", "add-edge", "del-edge", "commit", "datasets", "counters", "metrics", "quit",
];

/// Records one error reply into `serve.errors` (total and per-kind).
fn record_error(kind: &str) {
    let registry = bestk_obs::registry();
    registry.counter("serve.errors").inc();
    registry
        .counter(&format!("serve.errors{{kind=\"{kind}\"}}"))
        .inc();
}

/// What the serving loop should do after a request is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Stop the server gracefully (the reply has already been produced).
    Quit,
}

/// Per-connection safety limits for the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLimits {
    /// Maximum request-line length in bytes (excluding the newline).
    /// Longer lines are discarded up to the next newline and answered with
    /// a typed `err request too large` reply.
    pub max_line_bytes: usize,
    /// Admission limit. The loop answers one request at a time, so `0`
    /// sheds every request with `err overloaded` (a drain configuration)
    /// and any other value admits every request (real concurrent admission
    /// is open work in `ROADMAP.md`). The `serve.overload` failpoint drives
    /// the shedding path deterministically in tests.
    pub max_inflight: usize,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_line_bytes: 64 * 1024,
            max_inflight: 64,
        }
    }
}

/// Handles one request line, returning the reply line (without the
/// trailing newline) and whether the server should keep going.
///
/// Errors never escape as `Err`, and panics never escape at all: every
/// failure — including a contained panic — is rendered into an `err\t...`
/// reply so the loop, and the connection, survive bad input.
pub fn handle_request(engine: &SharedEngine, policy: &ExecPolicy, line: &str) -> (String, Control) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dispatch(engine, policy, line)
    }));
    match outcome {
        Ok(Ok((reply, control))) => (reply, control),
        Ok(Err(e)) => {
            record_error(e.kind());
            (format!("err\t{e}"), Control::Continue)
        }
        Err(payload) => {
            record_error("internal");
            (
                format!(
                    "err\t{}",
                    EngineError::Internal(crate::engine::panic_message(payload.as_ref()))
                ),
                Control::Continue,
            )
        }
    }
}

fn dispatch(
    engine: &SharedEngine,
    policy: &ExecPolicy,
    line: &str,
) -> Result<(String, Control), EngineError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens
        .next()
        .ok_or_else(|| EngineError::Protocol("empty request".into()))?;
    match verb {
        "load" => {
            let usage = || EngineError::Protocol("load takes <name> <path> [source]".into());
            let name = tokens.next().ok_or_else(usage)?;
            let path = tokens.next().ok_or_else(usage)?;
            let source = tokens.next();
            if tokens.next().is_some() {
                return Err(usage());
            }
            let outcome = engine.load_snapshot_with_fallback(
                name,
                path,
                source,
                &RetryPolicy::default(),
                policy,
            )?;
            let word = match outcome {
                LoadOutcome::Loaded => "loaded",
                LoadOutcome::Rebuilt => "rebuilt",
            };
            Ok((format!("ok\t{word}\t{name}"), Control::Continue))
        }
        "query" => {
            let dataset = tokens
                .next()
                .ok_or_else(|| EngineError::Protocol("query takes <dataset> <query...>".into()))?;
            let rest: Vec<&str> = tokens.collect();
            if rest.is_empty() {
                return Err(EngineError::Protocol(
                    "query takes <dataset> <query...>".into(),
                ));
            }
            let query = Query::parse(&rest.join(" "))?;
            let answer = engine.query(dataset, &query, policy)?;
            Ok((format!("ok\t{}", answer.to_line()), Control::Continue))
        }
        "add-edge" | "del-edge" => {
            let usage = || EngineError::Protocol(format!("{verb} takes <dataset> <u> <v>"));
            let dataset = tokens.next().ok_or_else(usage)?;
            let u = parse_vertex(tokens.next().ok_or_else(usage)?)?;
            let v = parse_vertex(tokens.next().ok_or_else(usage)?)?;
            if tokens.next().is_some() {
                return Err(usage());
            }
            let (op, word) = if verb == "add-edge" {
                (EdgeOp::Insert(u, v), "add")
            } else {
                (EdgeOp::Delete(u, v), "del")
            };
            let pending = engine.stage_edge(dataset, op)?;
            Ok((
                format!("ok\tstaged\t{dataset}\t{word}\t{u}\t{v}\tpending={pending}"),
                Control::Continue,
            ))
        }
        "commit" => {
            let usage = || EngineError::Protocol("commit takes <dataset>".into());
            let dataset = tokens.next().ok_or_else(usage)?;
            if tokens.next().is_some() {
                return Err(usage());
            }
            let s = engine.commit_edges(dataset, policy)?;
            let (bestk, score) = match &s.best {
                Some(b) => (b.k.to_string(), b.score.to_string()),
                None => ("-".into(), "-".into()),
            };
            Ok((
                format!(
                    "ok\tcommitted\t{dataset}\tops={}\tn={}\tm={}\tkmax={}\tbestk={bestk}\tscore={score}",
                    s.ops, s.vertices, s.edges, s.kmax
                ),
                Control::Continue,
            ))
        }
        "datasets" => {
            if tokens.next().is_some() {
                return Err(EngineError::Protocol("datasets takes no arguments".into()));
            }
            let rows = engine.dataset_rows();
            let mut reply = format!("ok\tdatasets\t{}", rows.len());
            for row in rows {
                reply.push_str(&format!(
                    "\t{}:n={},m={},built={},bytes={}",
                    row.name, row.vertices, row.edges, row.built, row.resident_bytes
                ));
            }
            Ok((reply, Control::Continue))
        }
        "counters" => {
            if tokens.next().is_some() {
                return Err(EngineError::Protocol("counters takes no arguments".into()));
            }
            let c = engine.counters();
            Ok((
                format!(
                    "ok\tcounters\tloads={}\tbuilds={}\tcache_hits={}\tevictions={}\tqueries={}",
                    c.loads, c.builds, c.cache_hits, c.evictions, c.queries
                ),
                Control::Continue,
            ))
        }
        "metrics" => {
            if tokens.next().is_some() {
                return Err(EngineError::Protocol("metrics takes no arguments".into()));
            }
            let rendered = bestk_obs::snapshot().render();
            let mut reply = format!("ok\tmetrics\t{}", rendered.lines().count());
            for line in rendered.lines() {
                reply.push('\n');
                reply.push_str(line);
            }
            Ok((reply, Control::Continue))
        }
        "quit" => {
            if tokens.next().is_some() {
                return Err(EngineError::Protocol("quit takes no arguments".into()));
            }
            Ok(("ok\tbye".into(), Control::Quit))
        }
        other => Err(EngineError::Protocol(format!(
            "unknown request {other:?} (expected \
             load|query|add-edge|del-edge|commit|datasets|counters|metrics|quit)"
        ))),
    }
}

/// Parses a vertex id token for the mutation verbs.
fn parse_vertex(token: &str) -> Result<u32, EngineError> {
    token
        .parse::<u32>()
        .map_err(|_| EngineError::Protocol(format!("bad vertex id {token:?}")))
}

/// Reads one request line, capped at `max` bytes.
///
/// * `Ok(None)` — clean EOF, nothing more to read.
/// * `Ok(Some(Ok(line)))` — a complete line (newline stripped, lossy
///   UTF-8, trailing `\r` removed).
/// * `Ok(Some(Err(_)))` — the line exceeded `max` bytes; the excess has
///   been discarded up to (and including) the next newline so the stream
///   stays line-aligned.
/// * `Err(_)` — a non-retryable read error (`Interrupted` is retried
///   internally).
fn read_capped_line<R: BufRead>(
    reader: &mut R,
    max: usize,
) -> std::io::Result<Option<Result<String, EngineError>>> {
    let mut line: Vec<u8> = Vec::new();
    let mut overflowed = false;
    let mut saw_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. An unterminated final line still counts as a line.
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let upto = newline.unwrap_or(chunk.len());
        if !overflowed {
            if line.len() + upto <= max {
                line.extend_from_slice(&chunk[..upto]);
            } else {
                overflowed = true;
                line.clear();
            }
        }
        match newline {
            Some(pos) => {
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
    if overflowed {
        return Ok(Some(Err(EngineError::TooLarge { limit: max })));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(Ok(String::from_utf8_lossy(&line).into_owned())))
}

/// [`serve_lines_with`] under [`ServeLimits::default`].
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &SharedEngine,
    policy: &ExecPolicy,
    reader: R,
    writer: W,
) -> Result<Control, EngineError> {
    serve_lines_with(engine, policy, reader, writer, &ServeLimits::default())
}

/// Serves requests from any line source to any sink: one [`Session`]
/// without a recorder, over one stream (see [`Session::serve`]).
pub fn serve_lines_with<R: BufRead, W: Write>(
    engine: &SharedEngine,
    policy: &ExecPolicy,
    reader: R,
    writer: W,
    limits: &ServeLimits,
) -> Result<Control, EngineError> {
    Session::new(engine, policy, limits, None).serve(reader, writer)
}

/// One serving session: the engine and policy requests run against, the
/// limits they are admitted under, the serving metric handles, and an
/// optional [`ServeRecorder`].
///
/// [`Session::serve`] is the one transport loop. Its private `step` is
/// the one request step: it counts, admits or sheds, times and answers
/// each request, and writes the recorder frames. Replay
/// ([`crate::record::replay_recording`]) feeds recorded requests through
/// the same step, so a replay reproduces the replies and every `serve.*`
/// metric of the session it re-drives.
pub struct Session<'a> {
    engine: &'a SharedEngine,
    policy: &'a ExecPolicy,
    limits: ServeLimits,
    registry: Arc<MetricsRegistry>,
    requests: Counter,
    latency: Histogram,
    recorder: Option<&'a mut ServeRecorder>,
}

impl<'a> Session<'a> {
    /// Starts a session. With a `recorder`, every request the engine sees
    /// (post-mangle), every reply, the clock readings around each admitted
    /// request, and every oversized-line rejection are logged into it, so
    /// the session can later be re-driven and diffed byte-for-byte by
    /// [`crate::record::replay_recording`].
    pub fn new(
        engine: &'a SharedEngine,
        policy: &'a ExecPolicy,
        limits: &ServeLimits,
        recorder: Option<&'a mut ServeRecorder>,
    ) -> Session<'a> {
        // Resolved once per session: a session lives entirely inside one
        // registry epoch, and pre-registering here means a bare `metrics`
        // request (or a `--metrics-dump`) renders the serving metrics even
        // before any traffic has counted.
        let registry = bestk_obs::registry();
        Session {
            engine,
            policy,
            limits: *limits,
            requests: registry.counter("serve.requests"),
            latency: registry.histogram("serve.latency_nanos", LATENCY_BOUNDS_NANOS),
            registry,
            recorder,
        }
    }

    /// Serves requests from one line source to one sink (the stdio
    /// transport, and the per-connection body of the TCP transport).
    /// Returns `Control::Quit` if the stream asked to shut the whole server
    /// down, `Control::Continue` if it simply ended (EOF / timeout / client
    /// hangup).
    ///
    /// Every reply is flushed before the next request is read, so on `Quit`
    /// the final `ok bye` has already been drained to the client.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut reader: R,
        mut writer: W,
    ) -> Result<Control, EngineError> {
        loop {
            let mut line = match read_capped_line(&mut reader, self.limits.max_line_bytes) {
                Ok(Some(l)) => l,
                // EOF, a read timeout or a client hangup ends this stream,
                // not the server.
                Ok(None) | Err(_) => return Ok(Control::Continue),
            };
            if let Ok(text) = &mut line {
                // The `serve.read` failpoint tears request lines
                // mid-flight; a mangled request must come back as a typed
                // error (or still parse, if the damage missed the grammar).
                bestk_faults::mangle_line(sites::SERVE_READ, text);
                if text.trim().is_empty() {
                    continue;
                }
            }
            let (reply, control) = self.step(line.as_deref(), bestk_obs::now_nanos);
            writer.write_all(reply.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if control == Control::Quit {
                return Ok(Control::Quit);
            }
        }
    }

    /// Takes one request as the engine sees it — a line after the
    /// `serve.read` mangle, or the transport's rejection of an oversized
    /// line — and returns its reply. `clock` times the request's handling:
    /// the live loop passes [`bestk_obs::now_nanos`], replay the recorded
    /// readings.
    pub(crate) fn step(
        &mut self,
        request: Result<&str, &EngineError>,
        mut clock: impl FnMut() -> u64,
    ) -> (String, Control) {
        let (reply, control) = match request {
            Err(rejected) => {
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.oversized();
                }
                record_error(rejected.kind());
                (format!("err\t{rejected}"), Control::Continue)
            }
            Ok(line) => {
                // Recorded *after* the mangle: the recording holds the line
                // the engine actually saw, so replay needs no serve.read
                // faults (and strips that site from the reconstructed plan).
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.request(line);
                }
                self.requests.inc();
                let verb = line.split_whitespace().next().unwrap_or("");
                let verb = if VERBS.contains(&verb) { verb } else { "other" };
                self.registry
                    .counter(&format!("serve.requests{{verb=\"{verb}\"}}"))
                    .inc();
                // The loop answers one request at a time, so only a drain
                // limit of 0 or an injected overload sheds. The limit check
                // short-circuits first, so a drain draws no serve.overload
                // faults.
                let shed = self.limits.max_inflight == 0
                    || bestk_faults::overloaded(sites::SERVE_OVERLOAD);
                if shed {
                    self.registry.counter("serve.shed").inc();
                    record_error("overloaded");
                    let e = EngineError::Overloaded {
                        limit: self.limits.max_inflight,
                    };
                    (format!("err\t{e}"), Control::Continue)
                } else {
                    let start = clock();
                    let answered = handle_request(self.engine, self.policy, line);
                    let end = clock();
                    self.latency.observe(end.saturating_sub(start));
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.clock(start);
                        rec.clock(end);
                    }
                    answered
                }
            }
        };
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.reply(&reply);
        }
        (reply, control)
    }
}

/// Serves connections from an already-bound listener until a client sends
/// `quit`. Connections are handled sequentially; `timeout` bounds each
/// read so a silent client cannot wedge the server forever.
///
/// A connection whose read timeout cannot be configured is answered with a
/// typed `err` line and closed — never silently dropped — and the accept
/// loop keeps serving. On `quit` the final reply is flushed and the
/// connection shut down before the listener stops (drain-on-shutdown).
///
/// Split out from [`serve_tcp`] so tests can bind port 0 and discover the
/// ephemeral port via `TcpListener::local_addr` before starting the loop.
pub fn serve_on_listener(
    engine: &SharedEngine,
    policy: &ExecPolicy,
    listener: &TcpListener,
    timeout: Option<Duration>,
    limits: &ServeLimits,
) -> Result<(), EngineError> {
    let mut session = Session::new(engine, policy, limits, None);
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue, // transient accept failure: keep serving
        };
        // The `serve.timeout` failpoint simulates `set_read_timeout`
        // failing (rare, but std documents it can).
        let configured = if let Some(e) = bestk_faults::io_error(sites::SERVE_TIMEOUT) {
            Err(e)
        } else {
            stream.set_read_timeout(timeout)
        };
        if let Err(e) = configured {
            // Surface the failure to the client as a typed single-line
            // error instead of silently dropping the connection, then keep
            // accepting. Serving without a timeout would let a silent
            // client wedge the server.
            let e = EngineError::Io(e);
            record_error(e.kind());
            let reply = format!("err\t{e}\n");
            let _ = stream.write_all(reply.as_bytes());
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            continue;
        }
        let cloned = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        // The `serve.read` failpoint also injects socket-level faults
        // (errors, short reads) under the buffered reader.
        let reader = BufReader::new(bestk_faults::FaultyRead::new(sites::SERVE_READ, cloned));
        if session.serve(reader, &stream)? == Control::Quit {
            // Drain-on-shutdown: every reply (including `ok bye`) was
            // flushed by the session; close both directions so the client
            // observes EOF rather than a reset.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Ok(());
        }
    }
    Ok(())
}

/// Binds `127.0.0.1:port` and serves until a client sends `quit`.
/// Returns the bound address through `on_bound` (called once, before the
/// accept loop starts) so callers can log it.
pub fn serve_tcp(
    engine: &SharedEngine,
    policy: &ExecPolicy,
    port: u16,
    timeout: Option<Duration>,
    limits: &ServeLimits,
    on_bound: impl FnOnce(SocketAddr),
) -> Result<(), EngineError> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
    on_bound(listener.local_addr()?);
    serve_on_listener(engine, policy, &listener, timeout, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators;

    fn engine_with_fig2() -> SharedEngine {
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("fig2", generators::paper_figure2());
        eng
    }

    fn ask(engine: &SharedEngine, line: &str) -> (String, Control) {
        handle_request(engine, &ExecPolicy::Sequential, line)
    }

    #[test]
    fn query_requests_answer_with_ok_lines() {
        let eng = engine_with_fig2();
        let (reply, c) = ask(&eng, "query fig2 bestkset ad");
        assert_eq!(reply, "ok\tbestkset\tad\tk=2\tscore=3.1666666666666665");
        assert_eq!(c, Control::Continue);
        let (reply, _) = ask(&eng, "query fig2 stats");
        assert_eq!(reply, "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
    }

    #[test]
    fn failures_are_single_line_err_replies() {
        let eng = engine_with_fig2();
        for bad in [
            "",
            "   ",
            "frobnicate",
            "query",
            "query fig2",
            "query nope stats",
            "query fig2 bestkset zz",
            "query fig2 coreof 999",
            "load onlyname",
            "load x /no/such/file.bestk",
            "load x /no/such/file.bestk /no/source.txt extra",
            "add-edge",
            "add-edge fig2 0",
            "add-edge fig2 0 zero",
            "add-edge fig2 0 1 extra",
            "add-edge fig2 0 1",
            "add-edge fig2 3 3",
            "add-edge nope 0 1",
            "del-edge fig2 0 11",
            "commit fig2",
            "commit fig2 extra",
            "commit nope",
            "datasets extra",
            "counters extra",
            "metrics extra",
            "quit now",
        ] {
            let (reply, c) = ask(&eng, bad);
            assert!(reply.starts_with("err\t"), "{bad:?} -> {reply}");
            assert!(!reply.contains('\n'), "{bad:?} -> multi-line reply");
            assert_eq!(c, Control::Continue, "{bad:?} must not kill the server");
        }
    }

    #[test]
    fn mutation_verbs_stage_and_commit() {
        let eng = engine_with_fig2();
        let (reply, c) = ask(&eng, "add-edge fig2 0 11");
        assert_eq!(c, Control::Continue);
        assert_eq!(reply, "ok\tstaged\tfig2\tadd\t0\t11\tpending=1");
        let (reply, _) = ask(&eng, "del-edge fig2 0 1");
        assert_eq!(reply, "ok\tstaged\tfig2\tdel\t0\t1\tpending=2");
        // Queries between stage and commit still see the committed graph.
        let (reply, _) = ask(&eng, "query fig2 stats");
        assert_eq!(reply, "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
        let (reply, c) = ask(&eng, "commit fig2");
        assert_eq!(c, Control::Continue);
        assert!(
            reply.starts_with("ok\tcommitted\tfig2\tops=2\tn=12\tm=19\tkmax="),
            "{reply}"
        );
        assert!(reply.contains("\tbestk="), "{reply}");
        assert!(reply.contains("\tscore="), "{reply}");
        // The committed best-k in the reply matches a fresh query.
        let (q, _) = ask(&eng, "query fig2 bestkset ad");
        let k = q.split("\tk=").nth(1).unwrap().split('\t').next().unwrap();
        assert!(reply.contains(&format!("\tbestk={k}\t")), "{reply} vs {q}");
    }

    #[test]
    fn metrics_verb_frames_the_exposition() {
        let eng = engine_with_fig2();
        let (ok, _) = ask(&eng, "query fig2 bestkset ad");
        assert!(ok.starts_with("ok\t"), "{ok}");
        let (reply, c) = ask(&eng, "metrics");
        assert_eq!(c, Control::Continue);
        let mut lines = reply.lines();
        let header = lines.next().unwrap();
        let declared: usize = header
            .strip_prefix("ok\tmetrics\t")
            .expect("metrics header")
            .parse()
            .unwrap();
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), declared, "header must frame the body");
        assert!(declared > 0);
        // Well-formed exposition: every line is `name value`.
        for line in &body {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<i64>().is_ok(), "{line}");
        }
        // The phase spans of the best-k pipeline are present.
        assert!(body.iter().any(|l| l.starts_with("phase.peel.calls ")));
        assert!(body.iter().any(|l| l.starts_with("phase.sweep.calls ")));
        assert!(body.iter().any(|l| l.starts_with("phase.select.calls ")));
    }

    #[test]
    fn quit_is_graceful() {
        let eng = engine_with_fig2();
        let (reply, c) = ask(&eng, "quit");
        assert_eq!(reply, "ok\tbye");
        assert_eq!(c, Control::Quit);
    }

    #[test]
    fn datasets_and_counters_render() {
        let eng = engine_with_fig2();
        ask(&eng, "query fig2 stats");
        let (reply, _) = ask(&eng, "datasets");
        assert!(
            reply.starts_with("ok\tdatasets\t1\tfig2:n=12,m=19,built=true"),
            "{reply}"
        );
        let (reply, _) = ask(&eng, "counters");
        assert_eq!(
            reply,
            "ok\tcounters\tloads=1\tbuilds=1\tcache_hits=0\tevictions=0\tqueries=1"
        );
    }

    #[test]
    fn serve_lines_replies_per_request_and_stops_on_quit() {
        let eng = engine_with_fig2();
        let input = b"query fig2 coreof 5\n\nquery fig2 bestkset zz\nquit\nquery fig2 stats\n";
        let mut out = Vec::new();
        let control = serve_lines(&eng, &ExecPolicy::Sequential, &input[..], &mut out).unwrap();
        assert_eq!(control, Control::Quit);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Blank line skipped; nothing served after quit.
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "ok\tcoreof\t5\tcoreness=2");
        assert!(lines[1].starts_with("err\t"));
        assert_eq!(lines[2], "ok\tbye");
    }

    #[test]
    fn serve_lines_eof_means_continue() {
        let eng = engine_with_fig2();
        let mut out = Vec::new();
        let control = serve_lines(
            &eng,
            &ExecPolicy::Sequential,
            &b"query fig2 stats\n"[..],
            &mut out,
        )
        .unwrap();
        assert_eq!(control, Control::Continue);
    }

    #[test]
    fn oversized_lines_get_a_typed_error_and_the_stream_realigns() {
        let eng = engine_with_fig2();
        let limits = ServeLimits {
            max_line_bytes: 32,
            max_inflight: 4,
        };
        let mut input = Vec::new();
        input.extend_from_slice(b"query fig2 stats\n");
        input.extend_from_slice(&vec![b'x'; 500]);
        input.extend_from_slice(b"\nquery fig2 coreof 5\n");
        let mut out = Vec::new();
        let control =
            serve_lines_with(&eng, &ExecPolicy::Sequential, &input[..], &mut out, &limits).unwrap();
        assert_eq!(control, Control::Continue);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("ok\tstats"));
        assert_eq!(lines[1], "err\trequest too large: line exceeds 32 bytes");
        // The request after the oversized one is served normally.
        assert_eq!(lines[2], "ok\tcoreof\t5\tcoreness=2");
    }

    #[test]
    fn a_zero_inflight_limit_sheds_every_request() {
        let eng = engine_with_fig2();
        let limits = ServeLimits {
            max_line_bytes: 1024,
            max_inflight: 0,
        };
        let mut out = Vec::new();
        serve_lines_with(
            &eng,
            &ExecPolicy::Sequential,
            &b"query fig2 stats\nquery fig2 coreof 5\n"[..],
            &mut out,
            &limits,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            assert_eq!(line, "err\toverloaded: 0 requests already in flight");
        }
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn injected_overload_sheds_with_a_typed_error() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let eng = engine_with_fig2();
        let plan = FaultPlan::new(21).site(
            sites::SERVE_OVERLOAD,
            SiteSpec::always(Fault::Overload).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let mut out = Vec::new();
            serve_lines(
                &eng,
                &ExecPolicy::Sequential,
                &b"query fig2 stats\nquery fig2 stats\n"[..],
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(lines[0].starts_with("err\toverloaded"), "{}", lines[0]);
            // Budget spent: the next request is admitted and answered.
            assert!(lines[1].starts_with("ok\tstats"), "{}", lines[1]);
        });
    }

    #[test]
    fn torn_lines_never_kill_the_stream() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        // Sweep seeds: a mangled request must produce ok or err on every
        // line, and the stream must keep serving afterwards.
        for seed in 0..16 {
            let eng = engine_with_fig2();
            let plan = FaultPlan::new(seed).site(
                sites::SERVE_READ,
                SiteSpec::mixed(vec![Fault::BitFlip, Fault::Truncate, Fault::ShortRead], 0.5),
            );
            bestk_faults::with_plan(&plan, || {
                let mut out = Vec::new();
                let input = b"query fig2 stats\nquery fig2 coreof 5\nquery fig2 bestkset ad\n";
                serve_lines(&eng, &ExecPolicy::Sequential, &input[..], &mut out).unwrap();
                let text = String::from_utf8(out).unwrap();
                for line in text.lines() {
                    assert!(
                        line.starts_with("ok\t") || line.starts_with("err\t"),
                        "seed {seed}: {line}"
                    );
                }
            });
        }
    }

    #[test]
    fn contained_panics_become_internal_errors() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let eng = engine_with_fig2();
        let plan = FaultPlan::new(2).site(
            sites::EXEC_WORKER,
            SiteSpec::always(Fault::Panic).with_budget(1),
        );
        bestk_faults::with_plan(&plan, || {
            let (reply, c) = handle_request(
                &eng,
                &ExecPolicy::with_threads(2).unwrap(),
                "query fig2 stats",
            );
            assert!(reply.starts_with("err\tinternal error:"), "{reply}");
            assert_eq!(c, Control::Continue);
            // The engine still answers afterwards.
            let (reply, _) = ask(&eng, "query fig2 stats");
            assert_eq!(reply, "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
        });
    }

    #[test]
    fn load_with_source_rebuilds_from_a_corrupt_snapshot() {
        let dir = std::env::temp_dir().join("bestk-serve-load-fallback");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("g.bestk");
        let source = dir.join("g.txt");
        let quarantine = dir.join("g.bestk.quarantine");
        std::fs::remove_file(&quarantine).ok();
        let g = generators::paper_figure2();
        bestk_graph::io::write_edge_list_path(&g, &source).unwrap();
        // The retired version-1 magic: a version skew, so quarantined and
        // rebuilt like any other corruption.
        std::fs::write(&snap, b"BESTKSS1 but then garbage").unwrap();

        let eng = SharedEngine::with_budget(None);
        let line = format!(
            "load g {} {}",
            snap.to_str().unwrap(),
            source.to_str().unwrap()
        );
        let (reply, c) = ask(&eng, &line);
        assert_eq!(reply, "ok\trebuilt\tg");
        assert_eq!(c, Control::Continue);
        assert!(quarantine.exists());
        let (reply, _) = ask(&eng, "query g stats");
        assert_eq!(reply, "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
        for f in [snap, source, quarantine] {
            std::fs::remove_file(f).ok();
        }
    }
}
