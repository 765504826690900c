//! Injectable time sources.
//!
//! Everything in the workspace that needs a timestamp reads it through a
//! [`Clock`], normally via [`crate::now_nanos`]. Production code gets the
//! monotonic [`SystemClock`]; tests install a [`ManualClock`] with
//! [`crate::with_fresh`] so instrumented paths produce exact, host-speed-
//! independent timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock. Readings are nanoseconds since an
/// arbitrary per-clock origin; only differences are meaningful.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The production clock: a process-relative monotonic [`Instant`]. This is
/// the one place in workspace library code allowed to call `Instant::now`
/// — the `no-raw-instant` lint in bestk-analyze confines it to
/// `crates/obs`.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is the moment of construction.
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> u64 {
        // Saturates after ~584 years of process uptime; fine.
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// A deterministic test clock: every reading returns the current value and
/// advances it by a fixed step. Instrumented code therefore observes an
/// exact timeline — `0, step, 2·step, …` — that depends only on how many
/// readings happen, not on host speed. The timeline is shared across
/// threads (the counter is atomic), so it is reproducible whenever all
/// readings happen on one coordinating thread; see DESIGN.md §12.
#[derive(Debug)]
pub struct ManualClock {
    next: AtomicU64,
    step: u64,
}

impl ManualClock {
    /// A clock starting at zero that advances `step` nanoseconds per
    /// reading.
    pub fn with_step(step: u64) -> ManualClock {
        ManualClock {
            next: AtomicU64::new(0),
            step,
        }
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.next.fetch_add(self.step, Ordering::Relaxed)
    }
}

/// A clock that replays a recorded sequence of readings: reading `i`
/// returns `readings[i]`, and once the script is exhausted every further
/// reading sticks at the last value (an empty script sticks at zero).
/// Serve replay times each re-driven request with one, so the replay
/// observes the exact timestamps the original recorded, making latency
/// histograms — not just replies — bit-identical.
#[derive(Debug)]
pub struct ScriptedClock {
    readings: Vec<u64>,
    next: AtomicU64,
}

impl ScriptedClock {
    /// A clock replaying `readings` in order.
    pub fn new(readings: Vec<u64>) -> ScriptedClock {
        ScriptedClock {
            readings,
            next: AtomicU64::new(0),
        }
    }
}

impl Clock for ScriptedClock {
    fn now_nanos(&self) -> u64 {
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize;
        match self.readings.get(i) {
            Some(&t) => t,
            None => self.readings.last().copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_clock_replays_then_sticks() {
        let c = ScriptedClock::new(vec![5, 9, 100]);
        assert_eq!(c.now_nanos(), 5);
        assert_eq!(c.now_nanos(), 9);
        assert_eq!(c.now_nanos(), 100);
        assert_eq!(c.now_nanos(), 100, "exhausted script sticks at the end");
        assert_eq!(ScriptedClock::new(Vec::new()).now_nanos(), 0);
    }

    #[test]
    fn manual_clock_advances_a_fixed_step_per_reading() {
        let c = ManualClock::with_step(7);
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 7);
        assert_eq!(c.now_nanos(), 14);
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
