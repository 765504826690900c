//! Deterministic serve record/replay (`.bestkrec`, magic `BESTKREC1`).
//!
//! A [`ServeRecorder`] rides inside a serving [`Session`] and logs
//! everything the session's behaviour depends on: the session limits, the
//! installed `BESTK_FAULTS` spec, every request line *as the engine saw
//! it* (post-mangle), every reply byte, the two clock readings around each
//! admitted request, and oversized-line rejections. [`replay_path`] then
//! builds a `Session` from the recorded limits over a fresh
//! [`SharedEngine`], under the reconstructed fault plan, and feeds each
//! recorded request through the serve loop's own request step, with the
//! recorded clock readings. It diffs every reply byte-for-byte, and the
//! replay reproduces every `serve.*` metric of the recorded session — a
//! recorded session is a portable, self-verifying regression artifact.
//!
//! ## File layout
//!
//! WAL-style length-framed, checksummed records:
//!
//! ```text
//! file    := magic frame*
//! magic   := "BESTKREC1"
//! frame   := len:u32le payload checksum:u64le    (checksum = fnv1a64(payload))
//! payload := 0x01 max_line:u64le max_inflight:u64le spec_len:u32le spec
//!          | 0x02 request-line utf-8                (post-mangle)
//!          | 0x03 reply utf-8                       (may span lines: metrics)
//!          | 0x04 reading:u64le                     (one clock observation)
//!          | 0x05                                   (oversized line rejected)
//!          | 0x06 file_checksum:u64le               (fnv1a64 of all prior bytes)
//! ```
//!
//! The meta frame (0x01) must come first and the trailer (0x06) last. Per
//! admitted request the sequence is `request, clock, clock, reply`; a shed
//! request records `request, reply`; an oversized line records
//! `oversized, reply`.
//!
//! ## Determinism contract
//!
//! Replay strips the `serve.read` site from the reconstructed plan —
//! recorded lines are already post-mangle, and per-site fault streams are
//! seeded independently, so removing one site leaves every other site's
//! draw sequence intact. The overload check is the live loop's own, so
//! `serve.overload` draws line up one-to-one. Two caveats, enforced by
//! policy rather than code: `metrics` replies embed timing-dependent
//! counters and do not replay stably, and a session whose `load` adopted a
//! write-ahead log must have the sidecar restored to its pre-record state
//! before replaying (DESIGN.md §16).

use std::path::Path;

use bestk_exec::ExecPolicy;
use bestk_faults::sites;
use bestk_obs::{Clock, ScriptedClock};

use crate::error::EngineError;
use crate::registry::SharedEngine;
use crate::serve::{ServeLimits, Session};
use crate::snapshot::fnv1a;

/// Magic bytes opening every serve recording.
pub const RECORD_MAGIC: &[u8; 9] = b"BESTKREC1";

const TAG_META: u8 = 0x01;
const TAG_REQUEST: u8 = 0x02;
const TAG_REPLY: u8 = 0x03;
const TAG_CLOCK: u8 = 0x04;
const TAG_OVERSIZED: u8 = 0x05;
const TAG_TRAILER: u8 = 0x06;

fn frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&bestk_graph::cast::u32_of(payload.len()).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Captures one serving session into an in-memory `.bestkrec` image. The
/// [`Session`] it is handed to calls the hooks; [`finish`](Self::finish)
/// (or [`save`](Self::save)) seals the image with the trailer checksum.
#[derive(Debug)]
pub struct ServeRecorder {
    buf: Vec<u8>,
}

impl ServeRecorder {
    /// Starts a recording: the session's limits plus the fault spec the
    /// session runs under (empty when no faults are installed). The faults
    /// crate exposes no accessor for the installed plan, so the caller
    /// passes the spec it installed — the CLI forwards `BESTK_FAULTS`,
    /// tests forward what they gave `with_plan`.
    pub fn new(limits: &ServeLimits, fault_spec: &str) -> ServeRecorder {
        let mut buf = RECORD_MAGIC.to_vec();
        let mut meta = vec![TAG_META];
        meta.extend_from_slice(&(limits.max_line_bytes as u64).to_le_bytes());
        meta.extend_from_slice(&(limits.max_inflight as u64).to_le_bytes());
        meta.extend_from_slice(&bestk_graph::cast::u32_of(fault_spec.len()).to_le_bytes());
        meta.extend_from_slice(fault_spec.as_bytes());
        frame(&mut buf, &meta);
        ServeRecorder { buf }
    }

    /// Logs one request line exactly as the engine saw it (post-mangle).
    pub(crate) fn request(&mut self, line: &str) {
        let mut p = vec![TAG_REQUEST];
        p.extend_from_slice(line.as_bytes());
        frame(&mut self.buf, &p);
    }

    /// Logs one reply (without the trailing newline the transport adds).
    pub(crate) fn reply(&mut self, reply: &str) {
        let mut p = vec![TAG_REPLY];
        p.extend_from_slice(reply.as_bytes());
        frame(&mut self.buf, &p);
    }

    /// Logs one clock observation (engine-visible nondeterminism).
    pub(crate) fn clock(&mut self, nanos: u64) {
        let mut p = vec![TAG_CLOCK];
        p.extend_from_slice(&nanos.to_le_bytes());
        frame(&mut self.buf, &p);
    }

    /// Logs an oversized-line rejection (the line itself was discarded by
    /// the transport and never reached the engine).
    pub(crate) fn oversized(&mut self) {
        frame(&mut self.buf, &[TAG_OVERSIZED]);
    }

    /// Seals the recording: appends the whole-file checksum trailer and
    /// returns the image.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        let mut p = vec![TAG_TRAILER];
        p.extend_from_slice(&sum.to_le_bytes());
        frame(&mut self.buf, &p);
        self.buf
    }

    /// [`finish`](Self::finish), written to `path`.
    pub fn save<P: AsRef<Path>>(self, path: P) -> Result<(), EngineError> {
        std::fs::write(path, self.finish())?;
        Ok(())
    }
}

/// One recorded loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A request the engine saw: the line, the clock readings around its
    /// handling (empty for a shed request, start/end for an admitted one),
    /// and the reply.
    Request {
        /// The request line, post-mangle.
        line: String,
        /// Clock readings (0 = shed before handling, 2 = admitted).
        clocks: Vec<u64>,
        /// The reply line(s), without the trailing newline.
        reply: String,
    },
    /// An oversized line the transport discarded, and the typed rejection
    /// it answered with.
    Oversized {
        /// The `err request too large` reply.
        reply: String,
    },
}

/// A decoded `.bestkrec` image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// The session's per-line byte cap.
    pub max_line_bytes: usize,
    /// The session's admission limit.
    pub max_inflight: usize,
    /// The `BESTK_FAULTS` spec the session ran under (empty = none).
    pub fault_spec: String,
    /// The session's loop iterations, in order.
    pub entries: Vec<Entry>,
}

/// Raw frames decoded off the wire, before sequence grouping. The meta
/// frame is held separately — it configures the session rather than
/// belonging to any entry.
enum Event {
    Request(String),
    Reply(String),
    Clock(u64),
    Oversized,
}

fn u64_at(payload: &[u8], off: usize, section: &'static str) -> Result<u64, EngineError> {
    let bytes = payload
        .get(off..off + 8)
        .ok_or(EngineError::Truncated { section })?;
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    Ok(u64::from_le_bytes(b))
}

fn utf8(bytes: &[u8]) -> Result<String, EngineError> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| EngineError::BadSnapshot("recording text is not utf-8".into()))
}

/// Decodes and validates a `.bestkrec` image: magic, per-frame checksums,
/// the whole-file trailer checksum, the meta-first/trailer-last framing,
/// and the per-entry event grammar. Every defect is a typed error.
pub fn decode_recording(bytes: &[u8]) -> Result<Recording, EngineError> {
    if bytes.len() < RECORD_MAGIC.len() || &bytes[..RECORD_MAGIC.len()] != RECORD_MAGIC {
        return Err(EngineError::BadMagic);
    }
    let mut off = RECORD_MAGIC.len();
    let mut events: Vec<Event> = Vec::new();
    let mut meta: Option<(usize, usize, String)> = None;
    let mut sealed = false;
    while off < bytes.len() {
        if sealed {
            return Err(EngineError::TrailingBytes);
        }
        let len_bytes = bytes.get(off..off + 4).ok_or(EngineError::Truncated {
            section: "record frame",
        })?;
        let len =
            u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        let payload = bytes
            .get(off + 4..off + 4 + len)
            .ok_or(EngineError::Truncated {
                section: "record payload",
            })?;
        let sum = u64_at(bytes, off + 4 + len, "record checksum")?;
        if sum != fnv1a(payload) {
            return Err(EngineError::ChecksumMismatch {
                section: "record payload",
            });
        }
        let tag = *payload.first().ok_or(EngineError::Truncated {
            section: "record tag",
        })?;
        match tag {
            TAG_META => {
                if meta.is_some() || !events.is_empty() {
                    return Err(EngineError::BadSnapshot(
                        "meta frame must come first, once".into(),
                    ));
                }
                let max_line = u64_at(payload, 1, "record meta")? as usize;
                let max_inflight = u64_at(payload, 9, "record meta")? as usize;
                let spec_len_bytes = payload.get(17..21).ok_or(EngineError::Truncated {
                    section: "record meta",
                })?;
                let spec_len = u32::from_le_bytes([
                    spec_len_bytes[0],
                    spec_len_bytes[1],
                    spec_len_bytes[2],
                    spec_len_bytes[3],
                ]) as usize;
                let spec = payload
                    .get(21..21 + spec_len)
                    .ok_or(EngineError::Truncated {
                        section: "record meta",
                    })?;
                if payload.len() != 21 + spec_len {
                    return Err(EngineError::BadSnapshot("meta frame has slack".into()));
                }
                meta = Some((max_line, max_inflight, utf8(spec)?));
            }
            TAG_REQUEST => events.push(Event::Request(utf8(&payload[1..])?)),
            TAG_REPLY => events.push(Event::Reply(utf8(&payload[1..])?)),
            TAG_CLOCK => events.push(Event::Clock(u64_at(payload, 1, "record clock")?)),
            TAG_OVERSIZED => {
                if payload.len() != 1 {
                    return Err(EngineError::BadSnapshot("oversized frame has slack".into()));
                }
                events.push(Event::Oversized);
            }
            TAG_TRAILER => {
                let declared = u64_at(payload, 1, "record trailer")?;
                if declared != fnv1a(&bytes[..off]) {
                    return Err(EngineError::ChecksumMismatch {
                        section: "record trailer",
                    });
                }
                sealed = true;
            }
            _ => {
                return Err(EngineError::BadSnapshot(format!(
                    "unknown record tag 0x{tag:02x}"
                )))
            }
        }
        off += 4 + len + 8;
    }
    let (max_line_bytes, max_inflight, fault_spec) =
        meta.ok_or(EngineError::MissingSection("record meta"))?;
    if !sealed {
        return Err(EngineError::Truncated {
            section: "record trailer",
        });
    }
    // Group the flat event stream into loop iterations.
    let mut entries = Vec::new();
    let mut it = events.into_iter().peekable();
    while let Some(ev) = it.next() {
        match ev {
            Event::Oversized => match it.next() {
                Some(Event::Reply(reply)) => entries.push(Entry::Oversized { reply }),
                _ => {
                    return Err(EngineError::BadSnapshot(
                        "oversized frame not followed by its reply".into(),
                    ))
                }
            },
            Event::Request(line) => {
                let mut clocks = Vec::new();
                while let Some(Event::Clock(_)) = it.peek() {
                    if let Some(Event::Clock(t)) = it.next() {
                        clocks.push(t);
                    }
                }
                if !matches!(clocks.len(), 0 | 2) {
                    return Err(EngineError::BadSnapshot(format!(
                        "request carries {} clock readings (want 0 or 2)",
                        clocks.len()
                    )));
                }
                match it.next() {
                    Some(Event::Reply(reply)) => entries.push(Entry::Request {
                        line,
                        clocks,
                        reply,
                    }),
                    _ => {
                        return Err(EngineError::BadSnapshot(
                            "request not followed by its reply".into(),
                        ))
                    }
                }
            }
            _ => {
                return Err(EngineError::BadSnapshot(
                    "reply or clock outside a request entry".into(),
                ))
            }
        }
    }
    Ok(Recording {
        max_line_bytes,
        max_inflight,
        fault_spec,
        entries,
    })
}

/// One replay divergence: what the recording holds versus what the
/// re-driven engine produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Zero-based entry index in the recording.
    pub index: usize,
    /// The request line (empty for an oversized-line entry).
    pub line: String,
    /// The recorded reply.
    pub recorded: String,
    /// The reply the replay produced.
    pub replayed: String,
}

/// The outcome of one replay run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Entries re-driven.
    pub requests: usize,
    /// Entries whose replies matched byte-for-byte.
    pub matched: usize,
    /// Every divergence, in entry order.
    pub mismatches: Vec<Mismatch>,
}

impl ReplayReport {
    /// Whether every reply matched.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Re-drives a decoded recording through `engine` and diffs every reply
/// byte-for-byte. The recorded fault plan is reconstructed with the
/// `serve.read` site stripped (recorded lines are already post-mangle).
/// Each entry goes through the serve loop's own request step in a
/// [`Session`] built from the recorded limits, timed by the recorded clock
/// readings, so the `serve.*` telemetry reproduces along with the replies.
pub fn replay_recording(
    recording: &Recording,
    engine: &SharedEngine,
    policy: &ExecPolicy,
) -> Result<ReplayReport, EngineError> {
    let drive = || -> ReplayReport {
        let limits = ServeLimits {
            max_line_bytes: recording.max_line_bytes,
            max_inflight: recording.max_inflight,
        };
        let mut session = Session::new(engine, policy, &limits, None);
        let too_large = EngineError::TooLarge {
            limit: limits.max_line_bytes,
        };
        let mut report = ReplayReport {
            requests: recording.entries.len(),
            matched: 0,
            mismatches: Vec::new(),
        };
        for (index, entry) in recording.entries.iter().enumerate() {
            let (request, clocks, recorded) = match entry {
                Entry::Oversized { reply } => (Err(&too_large), &[][..], reply),
                Entry::Request {
                    line,
                    clocks,
                    reply,
                } => (Ok(line.as_str()), &clocks[..], reply),
            };
            let clock = ScriptedClock::new(clocks.to_vec());
            let (replayed, _control) = session.step(request, || clock.now_nanos());
            if *recorded == replayed {
                report.matched += 1;
            } else {
                report.mismatches.push(Mismatch {
                    index,
                    line: request.unwrap_or("").to_owned(),
                    recorded: recorded.clone(),
                    replayed,
                });
            }
        }
        report
    };
    if recording.fault_spec.is_empty() {
        return Ok(drive());
    }
    let plan = bestk_faults::FaultPlan::parse(&recording.fault_spec)
        .map_err(EngineError::BadSnapshot)?
        .without_site(sites::SERVE_READ);
    Ok(bestk_faults::with_plan(&plan, drive))
}

/// Loads, decodes, and replays the `.bestkrec` at `path` — the CLI's
/// `bestk replay` entry point, and the only corpus-file decode path
/// outside `crates/fuzz` (see the `no-raw-corpus-io` lint).
pub fn replay_path<P: AsRef<Path>>(
    path: P,
    engine: &SharedEngine,
    policy: &ExecPolicy,
) -> Result<ReplayReport, EngineError> {
    let bytes = std::fs::read(path)?;
    let recording = decode_recording(&bytes)?;
    replay_recording(&recording, engine, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestk_graph::generators;

    fn policy() -> ExecPolicy {
        ExecPolicy::Sequential
    }

    fn fig2_engine() -> SharedEngine {
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("fig2", generators::paper_figure2());
        eng
    }

    fn record_session(input: &[u8], limits: &ServeLimits, spec: &str) -> Vec<u8> {
        let eng = fig2_engine();
        let mut recorder = ServeRecorder::new(limits, spec);
        let mut out = Vec::new();
        Session::new(&eng, &policy(), limits, Some(&mut recorder))
            .serve(input, &mut out)
            .unwrap();
        recorder.finish()
    }

    #[test]
    fn a_plain_session_round_trips_and_replays_clean() {
        let drain = ServeLimits {
            max_inflight: 0,
            ..ServeLimits::default()
        };
        for limits in [ServeLimits::default(), drain] {
            let input =
                b"query fig2 stats\nadd-edge fig2 0 11\ndel-edge fig2 0 1\ncommit fig2\nquery fig2 bestkset ad\nquit\n";
            let image = record_session(input, &limits, "");
            let rec = decode_recording(&image).unwrap();
            assert_eq!(rec.max_line_bytes, limits.max_line_bytes);
            assert_eq!(rec.max_inflight, limits.max_inflight);
            assert_eq!(rec.fault_spec, "");
            assert_eq!(rec.entries.len(), 6);
            if limits.max_inflight == 0 {
                // A drain sheds every request, `quit` included, before it
                // is timed: no clock frames.
                for entry in &rec.entries {
                    assert!(
                        matches!(entry, Entry::Request { clocks, reply, .. }
                            if clocks.is_empty()
                                && reply == "err\toverloaded: 0 requests already in flight"),
                        "{entry:?}"
                    );
                }
            }
            for threads in [1, 2, 4] {
                let eng = fig2_engine();
                let policy = ExecPolicy::with_threads(threads).unwrap();
                let report = replay_recording(&rec, &eng, &policy).unwrap();
                assert!(report.clean(), "threads {threads}: {:?}", report.mismatches);
                assert_eq!((report.requests, report.matched), (6, 6));
            }
        }
    }

    #[test]
    fn recorded_sheds_and_oversized_lines_replay_exactly() {
        use bestk_faults::{Fault, FaultPlan, SiteSpec};
        let limits = ServeLimits {
            max_line_bytes: 32,
            max_inflight: 4,
        };
        let spec = "seed=21;serve.overload=overload#1";
        let mut input = Vec::new();
        input.extend_from_slice(b"query fig2 stats\n"); // shed by the fault
        input.extend_from_slice(&[b'x'; 64]); // oversized
        input.extend_from_slice(b"\nquery fig2 coreof 5\nquit\n");
        let plan = FaultPlan::new(21).site(
            sites::SERVE_OVERLOAD,
            SiteSpec::always(Fault::Overload).with_budget(1),
        );
        let image = bestk_faults::with_plan(&plan, || record_session(&input, &limits, spec));
        let rec = decode_recording(&image).unwrap();
        assert_eq!(rec.entries.len(), 4);
        assert!(
            matches!(&rec.entries[0], Entry::Request { clocks, reply, .. }
            if clocks.is_empty() && reply.starts_with("err\toverloaded"))
        );
        assert!(matches!(&rec.entries[1], Entry::Oversized { reply }
            if reply == "err\trequest too large: line exceeds 32 bytes"));
        let eng = fig2_engine();
        let report = replay_recording(&rec, &eng, &policy()).unwrap();
        assert!(report.clean(), "{:?}", report.mismatches);
    }

    #[test]
    fn replay_reports_divergence_instead_of_pretending() {
        let limits = ServeLimits::default();
        let image = record_session(b"query fig2 stats\nquit\n", &limits, "");
        let rec = decode_recording(&image).unwrap();
        // Replaying against an engine with a *different* graph diverges on
        // the query but still matches the quit.
        let eng = SharedEngine::with_budget(None);
        eng.insert_graph("fig2", generators::erdos_renyi_gnm(8, 12, 3));
        let report = replay_recording(&rec, &eng, &policy()).unwrap();
        assert_eq!(report.requests, 2);
        assert_eq!(report.matched, 1);
        assert_eq!(report.mismatches.len(), 1);
        let m = &report.mismatches[0];
        assert_eq!(m.index, 0);
        assert_eq!(m.line, "query fig2 stats");
        assert_ne!(m.recorded, m.replayed);
    }

    #[test]
    fn decode_rejects_every_byte_level_defect() {
        let limits = ServeLimits::default();
        let image = record_session(b"query fig2 stats\nquit\n", &limits, "");
        assert!(decode_recording(&image).is_ok());

        // Bad magic.
        let mut bad = image.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_recording(&bad), Err(EngineError::BadMagic)));
        assert!(matches!(decode_recording(b""), Err(EngineError::BadMagic)));

        // A flipped payload byte fails that frame's checksum.
        let mut bad = image.clone();
        let mid = RECORD_MAGIC.len() + 30;
        bad[mid] ^= 0x01;
        assert!(matches!(
            decode_recording(&bad),
            Err(EngineError::ChecksumMismatch { .. })
        ));

        // Truncation anywhere is typed, never a panic.
        for cut in 0..image.len() {
            let err = decode_recording(&image[..cut]);
            assert!(err.is_err(), "cut={cut} must not decode");
        }

        // Bytes after the trailer are trailing bytes.
        let mut bad = image.clone();
        bad.push(0x00);
        assert!(matches!(
            decode_recording(&bad),
            Err(EngineError::TrailingBytes)
        ));

        // A recording missing its trailer is truncated.
        let unsealed = {
            let mut r = ServeRecorder::new(&limits, "");
            r.request("quit");
            r.reply("ok\tbye");
            r.buf
        };
        assert!(matches!(
            decode_recording(&unsealed),
            Err(EngineError::Truncated { .. })
        ));
    }

    #[test]
    fn latency_replays_into_the_histogram() {
        let (_, snap) = bestk_obs::with_fresh(
            std::sync::Arc::new(bestk_obs::ManualClock::with_step(1)),
            || {
                let limits = ServeLimits::default();
                let image = record_session(b"query fig2 stats\nquit\n", &limits, "");
                let rec = decode_recording(&image).unwrap();
                let eng = fig2_engine();
                replay_recording(&rec, &eng, &policy()).unwrap()
            },
        );
        let rendered = snap.render();
        assert!(
            rendered.contains("serve.latency_nanos"),
            "replay must feed the latency histogram:\n{rendered}"
        );
    }
}
