//! Injection helpers: how a drawn fault expresses itself at a real code
//! path.
//!
//! Each helper consults the active plan for its site and only draws from
//! the fault kinds it can express ([`io_error`] never consumes a `bitflip`
//! roll, so one site can feed several helpers along the same path). All
//! helpers are no-ops costing one relaxed atomic load when no plan is
//! installed.

use std::io::{self, Read};

use crate::plan::Fault;
use crate::state::{roll_matching, Shot};

/// I/O-error faults at `site`: a transient `Interrupted` / `WouldBlock`,
/// or a hard error. Call where a syscall could fail and return the error
/// in its place.
pub fn io_error(site: &str) -> Option<io::Error> {
    let shot = roll_matching(site, |f| {
        matches!(f, Fault::Interrupted | Fault::WouldBlock | Fault::IoError)
    })?;
    Some(match shot.fault {
        Fault::Interrupted => io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient interrupt at {site}"),
        ),
        Fault::WouldBlock => io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("injected would-block at {site}"),
        ),
        _ => io::Error::other(format!("injected hard i/o error at {site}")),
    })
}

/// Buffer-corruption faults at `site`: flips one bit, truncates, or
/// simulates a short read over `buf`, in place. Returns what was done.
pub fn corrupt_buffer(site: &str, buf: &mut Vec<u8>) -> Option<&'static str> {
    let shot = roll_corruption(site, buf.len())?;
    Some(corrupt_with(shot, buf))
}

/// Rolls a buffer-corruption fault at `site` for a buffer of `len` bytes;
/// an empty buffer has nothing to damage and draws nothing.
fn roll_corruption(site: &str, len: usize) -> Option<Shot> {
    if len == 0 {
        return None;
    }
    roll_matching(site, |f| {
        matches!(f, Fault::BitFlip | Fault::Truncate | Fault::ShortRead)
    })
}

/// Applies a drawn corruption `shot` to the non-empty `buf`.
fn corrupt_with(shot: Shot, buf: &mut Vec<u8>) -> &'static str {
    let len = buf.len() as u64;
    match shot.fault {
        Fault::BitFlip => {
            let bit = shot.param % (8 * len);
            let at = usize::try_from(bit / 8).unwrap_or(0);
            buf[at] ^= 1u8 << (bit % 8);
            "bit-flip"
        }
        Fault::Truncate => {
            // Anywhere from empty to one byte short.
            buf.truncate(usize::try_from(shot.param % len).unwrap_or(0));
            "truncate"
        }
        _ => {
            // A short read keeps at least half the bytes — damage a
            // retry-less reader would plausibly see from one partial read.
            let keep = len / 2 + shot.param % (len - len / 2);
            buf.truncate(usize::try_from(keep).unwrap_or(0));
            "short-read"
        }
    }
}

/// Mid-write crash simulation: when a `truncate` fault fires at `site`,
/// returns how many of `len` bytes "made it to disk" before the crash.
pub fn truncation(site: &str, len: usize) -> Option<usize> {
    let shot = roll_matching(site, |f| matches!(f, Fault::Truncate))?;
    Some(usize::try_from(shot.param % (len as u64 + 1)).unwrap_or(0))
}

/// Panic faults: panics at `site` when the plan says so (worker-crash
/// simulation — the hardened layers must contain it).
pub fn maybe_panic(site: &str) {
    if roll_matching(site, |f| matches!(f, Fault::Panic)).is_some() {
        // bestk-analyze: allow(no-panic) — a controlled panic is this failpoint's entire purpose
        panic!("injected panic at failpoint {site}");
    }
}

/// Memory-pressure faults: `true` when `site` should behave as if its
/// budget collapsed to zero.
pub fn pressure(site: &str) -> bool {
    roll_matching(site, |f| matches!(f, Fault::Pressure)).is_some()
}

/// Overload faults: `true` when `site` should shed the current request.
pub fn overloaded(site: &str) -> bool {
    roll_matching(site, |f| matches!(f, Fault::Overload)).is_some()
}

/// Torn-line faults for line protocols: corrupts `line` in place (bit
/// flip or truncation; invalid UTF-8 is replaced lossily). Returns what
/// was done. Rolls before it touches the line, so it copies nothing unless
/// a fault fires.
pub fn mangle_line(site: &str, line: &mut String) -> Option<&'static str> {
    let shot = roll_corruption(site, line.len())?;
    let mut bytes = std::mem::take(line).into_bytes();
    let what = corrupt_with(shot, &mut bytes);
    *line = String::from_utf8_lossy(&bytes).into_owned();
    Some(what)
}

/// Wraps a reader so every `read` consults `site`: injected transient and
/// hard I/O errors surface in place of the real read, and short-read
/// faults cap how many bytes one call may deliver.
#[derive(Debug)]
pub struct FaultyRead<R> {
    site: &'static str,
    inner: R,
}

impl<R> FaultyRead<R> {
    /// Wraps `inner`, consulting `site` on every read.
    pub fn new(site: &'static str, inner: R) -> FaultyRead<R> {
        FaultyRead { site, inner }
    }

    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(e) = io_error(self.site) {
            return Err(e);
        }
        let cap = match roll_matching(self.site, |f| matches!(f, Fault::ShortRead)) {
            Some(Shot { param, .. }) if buf.len() > 1 => {
                1 + usize::try_from(param).unwrap_or(0) % (buf.len() / 2).max(1)
            }
            _ => buf.len(),
        };
        self.inner.read(&mut buf[..cap])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, SiteSpec};
    use crate::state::with_plan;

    #[test]
    fn io_error_kinds_match_their_faults() {
        for (fault, kind) in [
            (Fault::Interrupted, io::ErrorKind::Interrupted),
            (Fault::WouldBlock, io::ErrorKind::WouldBlock),
            (Fault::IoError, io::ErrorKind::Other),
        ] {
            let plan = FaultPlan::new(1).site("s", SiteSpec::always(fault));
            with_plan(&plan, || {
                let e = io_error("s").unwrap();
                assert_eq!(e.kind(), kind, "{fault:?}");
                assert!(e.to_string().contains("injected"), "{e}");
            });
        }
    }

    #[test]
    fn io_error_ignores_non_io_faults() {
        let plan = FaultPlan::new(1).site("s", SiteSpec::always(Fault::BitFlip));
        with_plan(&plan, || assert!(io_error("s").is_none()));
    }

    #[test]
    fn corrupt_buffer_flips_exactly_one_bit() {
        let plan = FaultPlan::new(3).site("s", SiteSpec::always(Fault::BitFlip));
        with_plan(&plan, || {
            let original = vec![0u8; 64];
            let mut buf = original.clone();
            assert_eq!(corrupt_buffer("s", &mut buf), Some("bit-flip"));
            assert_eq!(buf.len(), original.len());
            let flipped: u32 = buf
                .iter()
                .zip(&original)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
        });
    }

    #[test]
    fn corrupt_buffer_truncate_and_short_read_shrink() {
        for (fault, min_keep) in [(Fault::Truncate, 0), (Fault::ShortRead, 32)] {
            let plan = FaultPlan::new(4).site("s", SiteSpec::always(fault));
            with_plan(&plan, || {
                let mut buf = vec![7u8; 64];
                assert!(corrupt_buffer("s", &mut buf).is_some());
                assert!(buf.len() < 64, "{fault:?} must shrink the buffer");
                assert!(buf.len() >= min_keep, "{fault:?} kept {}", buf.len());
            });
        }
    }

    #[test]
    fn corrupt_buffer_leaves_empty_buffers_alone() {
        let plan = FaultPlan::new(4).site("s", SiteSpec::always(Fault::BitFlip));
        with_plan(&plan, || {
            let mut buf = Vec::new();
            assert!(corrupt_buffer("s", &mut buf).is_none());
        });
    }

    #[test]
    fn truncation_is_within_bounds() {
        let plan = FaultPlan::new(5).site("s", SiteSpec::always(Fault::Truncate));
        with_plan(&plan, || {
            for _ in 0..32 {
                let cut = truncation("s", 100).unwrap();
                assert!(cut <= 100);
            }
        });
    }

    #[test]
    fn maybe_panic_panics_exactly_when_drawn() {
        let plan = FaultPlan::new(6).site("s", SiteSpec::always(Fault::Panic));
        with_plan(&plan, || {
            let caught = std::panic::catch_unwind(|| maybe_panic("s"));
            let msg = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("injected panic at failpoint s"), "{msg}");
            maybe_panic("unconfigured.site"); // must not panic
        });
    }

    #[test]
    fn pressure_and_overload_report() {
        let plan = FaultPlan::new(7)
            .site("p", SiteSpec::always(Fault::Pressure))
            .site("o", SiteSpec::always(Fault::Overload));
        with_plan(&plan, || {
            assert!(pressure("p"));
            assert!(!pressure("o"));
            assert!(overloaded("o"));
            assert!(!overloaded("p"));
        });
        assert!(!pressure("p"), "disabled plan must report no pressure");
    }

    #[test]
    fn mangle_line_tears_or_corrupts() {
        let plan = FaultPlan::new(8).site(
            "s",
            SiteSpec::mixed(vec![Fault::Truncate, Fault::BitFlip], 1.0),
        );
        with_plan(&plan, || {
            let mut changed = 0;
            for i in 0..16 {
                let mut line = format!("query fig2 bestkset ad {i}");
                let before = line.clone();
                if mangle_line("s", &mut line).is_some() && line != before {
                    changed += 1;
                }
            }
            assert!(changed > 0, "mangling must change some lines");
        });
    }

    #[test]
    fn faulty_read_injects_errors_and_short_reads() {
        let data = vec![42u8; 4096];
        let plan = FaultPlan::new(9).site(
            "s",
            SiteSpec::mixed(vec![Fault::Interrupted, Fault::ShortRead], 0.5),
        );
        with_plan(&plan, || {
            let mut r = FaultyRead::new("s", &data[..]);
            let mut out = Vec::new();
            let mut interrupts = 0;
            loop {
                let mut chunk = [0u8; 256];
                match r.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => interrupts += 1,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            assert_eq!(out, data, "retry-on-interrupt must still see every byte");
            assert!(interrupts > 0, "some interrupts must have fired");
        });
    }

    #[test]
    fn faulty_read_is_transparent_when_disabled() {
        let data = b"hello".to_vec();
        let mut r = FaultyRead::new("s", &data[..]);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(r.into_inner().len(), 0);
    }
}
