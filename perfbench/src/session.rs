//! The closed-loop scripted client behind every serve session.
//!
//! `serve_lines_with` reads requests from a `BufRead` and writes replies to
//! a `Write`. [`Script`] and [`Replies`] are an in-memory pair sharing one
//! exchange: the script hands out its next request line only after the
//! writer has seen the previous reply's newline, each request is timed from
//! that hand-out to its own reply newline, and every reply is checked
//! against what the script expected. A read while a reply is outstanding
//! is refused and counted, so the loop cannot run ahead of the server.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::sync::Arc;

use bestk_engine::{serve_lines_with, ServeLimits, SharedEngine};
use bestk_exec::ExecPolicy;

use crate::stats::Series;

/// How a request's reply is checked.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The reply must equal this line.
    Exact(Arc<str>),
    /// The reply must start with this text.
    Prefix(String),
}

impl Expect {
    /// Whether `reply` (without its newline) passes.
    pub fn accepts(&self, reply: &[u8]) -> bool {
        match self {
            Expect::Exact(line) => reply == line.as_bytes(),
            Expect::Prefix(head) => reply.starts_with(head.as_bytes()),
        }
    }
}

/// The request classes that have latency metrics of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read against an index that is already built.
    Query,
    /// An `add-edge` / `del-edge` request.
    Stage,
    /// A `commit` request.
    Commit,
    /// The first query after a commit, which pays the lazy rebuild.
    AfterWrite,
    /// A checked read whose latency no metric reports: the checks right
    /// after a restart or a run of writes, and the reads inside a write
    /// cycle.
    Other,
}

impl Kind {
    /// Position of the class in a per-class array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One scripted request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The protocol line, without its newline.
    pub line: Arc<str>,
    /// Its latency class.
    pub kind: Kind,
    /// What its reply must look like.
    pub expect: Expect,
}

/// One answered request: hand-out and reply-newline clock readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Latency class.
    pub kind: Kind,
    /// When the request line was handed to the server.
    pub start: u64,
    /// When the reply's newline arrived.
    pub end: u64,
}

/// What one session did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latencies per request class, indexed by [`Kind::index`].
    pub series: [Series; 5],
    /// One sample per reply, in order, when the session keeps them (traced
    /// runs turn them into spans).
    pub samples: Vec<Sample>,
    /// Requests handed out.
    pub sent: u64,
    /// Replies received.
    pub replies: u64,
    /// First hand-out and last reply newline.
    pub start: Option<u64>,
    pub end: u64,
    /// Replies that were not `ok` or did not match, plus missing replies.
    pub failed: u64,
    /// Reads the server attempted while a reply was still outstanding.
    pub early_reads: u64,
    /// The first failure, for the error report.
    pub first_failure: Option<String>,
}

impl Outcome {
    /// Counts one failure, keeping the first message.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(message);
    }

    /// First hand-out to last reply, in nanoseconds.
    pub fn wall_nanos(&self) -> u64 {
        self.start.map_or(0, |start| self.end.saturating_sub(start))
    }
}

struct Outstanding {
    line: Arc<str>,
    kind: Kind,
    expect: Expect,
    start: u64,
}

#[derive(Default)]
struct Exchange {
    outstanding: Option<Outstanding>,
    reply: Vec<u8>,
    keep: bool,
    outcome: Outcome,
}

impl Exchange {
    fn reply_complete(&mut self, end: u64) {
        let reply = std::mem::take(&mut self.reply);
        match self.outstanding.take() {
            Some(req) => {
                if !req.expect.accepts(&reply) {
                    self.outcome.fail(format!(
                        "request {:?}: reply {:?} does not match {:?}",
                        req.line,
                        String::from_utf8_lossy(&reply),
                        req.expect
                    ));
                }
                let out = &mut self.outcome;
                out.replies += 1;
                out.start.get_or_insert(req.start);
                out.end = end;
                out.series[req.kind.index()].push(end.saturating_sub(req.start));
                if self.keep {
                    out.samples.push(Sample {
                        kind: req.kind,
                        start: req.start,
                        end,
                    });
                }
            }
            None => self.outcome.fail(format!(
                "unsolicited reply {:?}",
                String::from_utf8_lossy(&reply)
            )),
        }
    }
}

/// The reading half: hands out one scripted line per closed-loop turn.
/// `next` receives the hand-out clock reading and returns `None` to end the
/// session.
pub struct Script<S> {
    exchange: Rc<RefCell<Exchange>>,
    next: S,
    clock: fn() -> u64,
    line: Vec<u8>,
    pos: usize,
}

/// The writing half: times and checks each reply at its newline.
pub struct Replies {
    exchange: Rc<RefCell<Exchange>>,
    clock: fn() -> u64,
}

/// A connected script/replies pair reading time from `clock`; with `keep`,
/// the outcome also holds every [`Sample`].
pub fn pair<S: FnMut(u64) -> Option<Request>>(
    next: S,
    clock: fn() -> u64,
    keep: bool,
) -> (Script<S>, Replies) {
    let exchange = Rc::new(RefCell::new(Exchange {
        keep,
        ..Exchange::default()
    }));
    (
        Script {
            exchange: Rc::clone(&exchange),
            next,
            clock,
            line: Vec::new(),
            pos: 0,
        },
        Replies { exchange, clock },
    )
}

impl Replies {
    /// Ends the session: a request still waiting for its reply counts as
    /// failed.
    pub fn finish(self) -> Outcome {
        let mut ex = self.exchange.borrow_mut();
        if let Some(req) = ex.outstanding.take() {
            ex.outcome
                .fail(format!("request {:?} got no reply", req.line));
        }
        std::mem::take(&mut ex.outcome)
    }
}

impl<S: FnMut(u64) -> Option<Request>> BufRead for Script<S> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.line.len() {
            let mut ex = self.exchange.borrow_mut();
            if ex.outstanding.is_some() {
                ex.outcome.early_reads += 1;
                return Err(io::Error::other(
                    "closed loop: read before the previous reply's newline",
                ));
            }
            let start = (self.clock)();
            self.line.clear();
            self.pos = 0;
            if let Some(req) = (self.next)(start) {
                self.line.extend_from_slice(req.line.as_bytes());
                self.line.push(b'\n');
                ex.outcome.sent += 1;
                ex.outstanding = Some(Outstanding {
                    line: req.line,
                    kind: req.kind,
                    expect: req.expect,
                    start,
                });
            }
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.line.len());
    }
}

impl<S: FnMut(u64) -> Option<Request>> Read for Script<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl Write for Replies {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut ex = self.exchange.borrow_mut();
        for &b in buf {
            if b == b'\n' {
                ex.reply_complete((self.clock)());
            } else {
                ex.reply.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one closed-loop session of `next`'s requests through
/// `serve_lines_with`, timing with the `bestk_obs` clock; with `keep`, the
/// outcome holds every sample.
pub fn run<S: FnMut(u64) -> Option<Request>>(
    engine: &SharedEngine,
    policy: &ExecPolicy,
    next: S,
    keep: bool,
) -> Outcome {
    let (mut script, mut replies) = pair(next, bestk_obs::now_nanos, keep);
    let served = serve_lines_with(
        engine,
        policy,
        &mut script,
        &mut replies,
        &ServeLimits::default(),
    );
    let mut outcome = replies.finish();
    if let Err(e) = served {
        outcome.fail(format!("serve loop failed: {e}"));
    }
    if outcome.early_reads > 0 {
        outcome.fail(format!(
            "{} reads ran ahead of a reply",
            outcome.early_reads
        ));
    }
    outcome
}

/// A script over a fixed list of requests.
pub fn from_list(requests: Vec<Request>) -> impl FnMut(u64) -> Option<Request> {
    let mut it = requests.into_iter();
    move |_| it.next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static TICK: Cell<u64> = const { Cell::new(0) };
    }

    /// A clock that advances by one on every reading.
    fn ticks() -> u64 {
        TICK.with(|t| {
            t.set(t.get() + 1);
            t.get()
        })
    }

    fn req(line: &str, expect: &str) -> Request {
        Request {
            line: Arc::from(line),
            kind: Kind::Query,
            expect: Expect::Exact(Arc::from(expect)),
        }
    }

    fn read_line(script: &mut impl BufRead) -> io::Result<String> {
        let mut line = String::new();
        script.read_line(&mut line)?;
        Ok(line)
    }

    #[test]
    fn no_line_is_handed_out_before_the_previous_reply_newline() {
        let (mut script, mut replies) = pair(
            from_list(vec![req("a", "ok\ta"), req("b", "ok\tb")]),
            ticks,
            true,
        );
        assert_eq!(read_line(&mut script).unwrap(), "a\n");
        // The server asks for more before answering: refused and counted.
        assert!(read_line(&mut script).is_err());
        // A reply without its newline does not release the next line either.
        replies.write_all(b"ok\ta").unwrap();
        assert!(read_line(&mut script).is_err());
        replies.write_all(b"\n").unwrap();
        assert_eq!(read_line(&mut script).unwrap(), "b\n");
        replies.write_all(b"ok\tb\n").unwrap();
        assert_eq!(read_line(&mut script).unwrap(), "", "script exhausted");
        let outcome = replies.finish();
        assert_eq!(outcome.early_reads, 2);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.samples.len(), 2);
        let (first, second) = (outcome.samples[0], outcome.samples[1]);
        assert!(first.start < first.end);
        assert!(
            second.start > first.end,
            "the second line went out after the first reply's newline"
        );
    }

    #[test]
    fn an_err_reply_is_counted() {
        let (mut script, mut replies) = pair(
            from_list(vec![
                req("a", "ok\ta"),
                req("b", "ok\tb"),
                req("c", "ok\tc"),
            ]),
            ticks,
            false,
        );
        for reply in [
            "ok\ta\n",
            "err\tunknown dataset \"b\"\n",
            "ok\tc-but-different\n",
        ] {
            read_line(&mut script).unwrap();
            replies.write_all(reply.as_bytes()).unwrap();
        }
        let outcome = replies.finish();
        assert_eq!(outcome.replies, 3);
        assert_eq!(outcome.series[Kind::Query.index()].len(), 3);
        assert_eq!(outcome.failed, 2);
        assert!(outcome.first_failure.unwrap().contains("err\\tunknown"));
    }

    #[test]
    fn a_missing_or_unsolicited_reply_is_counted() {
        let (mut script, replies) = pair(from_list(vec![req("a", "ok\ta")]), ticks, false);
        read_line(&mut script).unwrap();
        assert_eq!(replies.finish().failed, 1, "no reply before the end");
        let (_script, mut replies) = pair(from_list(Vec::new()), ticks, false);
        replies.write_all(b"ok\tbye\n").unwrap();
        assert_eq!(replies.finish().failed, 1, "reply with no request");
    }

    #[test]
    fn a_real_serve_loop_stays_closed_and_its_errors_count() {
        let engine = SharedEngine::with_budget(None);
        engine.insert_graph("fig2", bestk_graph::generators::paper_figure2());
        let requests = vec![
            req("query fig2 stats", "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3"),
            Request {
                line: Arc::from("query nosuch stats"),
                kind: Kind::Query,
                expect: Expect::Prefix("ok\t".into()),
            },
            req(
                "query fig2 bestkset ad",
                "ok\tbestkset\tad\tk=2\tscore=3.1666666666666665",
            ),
        ];
        let outcome = run(&engine, &ExecPolicy::Sequential, from_list(requests), true);
        assert_eq!(outcome.early_reads, 0);
        assert_eq!(outcome.replies, 3);
        assert_eq!(outcome.failed, 1, "{:?}", outcome.first_failure);
        assert!(outcome.first_failure.unwrap().contains("nosuch"));
        for pair in outcome.samples.windows(2) {
            assert!(pair[1].start >= pair[0].end);
        }
    }
}
