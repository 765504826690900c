//! Order statistics over timing samples, and the per-class latency series
//! the sessions record.
//!
//! Percentiles are nearest-rank. A tail is reported at the highest
//! percentile (at most the one asked for) that still leaves
//! [`MIN_BEYOND`] samples above it, so a short run reports a lower but
//! supported percentile instead of its single slowest sample.

use std::cmp::Ordering;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The sample value at the reported rank.
    pub value: f64,
    /// The percentile that rank sits at (`100 · rank / samples`).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest rank of percentile `per_mille / 10` among `n` samples.
fn rank_of(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000)
}

/// The value at 1-based `rank` of `values`, which this reorders.
fn at_rank<T: Copy + PartialOrd + Into<f64>>(values: &mut [T], rank: usize) -> Stat {
    let n = values.len();
    let rank = rank.clamp(1, n);
    let (_, value, _) =
        values.select_nth_unstable_by(rank - 1, |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    Stat {
        value: (*value).into(),
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// The median of `values` (reordered); `None` for an empty sample.
pub fn median<T: Copy + PartialOrd + Into<f64>>(values: &mut [T]) -> Option<Stat> {
    (!values.is_empty()).then(|| at_rank(values, rank_of(500, values.len())))
}

/// The tail of `values` (reordered) at percentile `want_per_mille / 10`,
/// lowered to the highest percentile with at least [`MIN_BEYOND`] samples
/// beyond it, and never below the median. `None` for an empty sample.
pub fn tail<T: Copy + PartialOrd + Into<f64>>(
    values: &mut [T],
    want_per_mille: usize,
) -> Option<Stat> {
    let rank = tail_rank(values.len(), want_per_mille);
    (!values.is_empty()).then(|| at_rank(values, rank))
}

/// The nearest rank [`tail`] reports among `n` samples.
pub fn tail_rank(n: usize, want_per_mille: usize) -> usize {
    rank_of(want_per_mille, n)
        .min(n.saturating_sub(MIN_BEYOND))
        .max(rank_of(500, n))
}

/// Latencies a [`Series`] keeps.
const KEEP: usize = 1 << 16;

/// The latencies of one request class, in nanoseconds as `u32` (longer
/// ones clamp): a uniform sample of at most 65,536 of them (reservoir
/// sampling), drawn with a fixed-seed generator so the same inputs keep the
/// same values. Its memory does not grow with the number of requests, so
/// it does not show in `peak_rss_mb` when the program speeds up.
#[derive(Debug, Clone)]
pub struct Series {
    kept: Vec<u32>,
    seen: u64,
    rng: u64,
}

impl Default for Series {
    fn default() -> Series {
        Series {
            kept: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Series {
    /// A draw below `bound`, which must be positive.
    fn below(&mut self, bound: u64) -> u64 {
        // xorshift64: cheap, and only has to spread indices evenly.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % bound
    }

    /// Records a latency of `nanos`.
    pub fn push(&mut self, nanos: u64) {
        let nanos = u32::try_from(nanos).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.kept.len() < KEEP {
            self.kept.push(nanos);
            return;
        }
        let slot = self.below(self.seen) as usize;
        if slot < KEEP {
            self.kept[slot] = nanos;
        }
    }

    /// Takes in another session's series, so that the kept sample stays a
    /// uniform sample of both streams together. When the two kept samples
    /// fit, both hold everything they saw and are joined. Otherwise the
    /// merged sample is drawn without replacement: each draw comes from a
    /// side with probability proportional to the values that side saw and
    /// has not yet given, and is a uniform pick from that side's kept
    /// sample.
    pub fn merge(&mut self, other: Series) {
        let seen = self.seen + other.seen;
        if self.kept.len() + other.kept.len() <= KEEP {
            self.kept.extend(other.kept);
            self.seen = seen;
            return;
        }
        let mut sides = [
            (std::mem::take(&mut self.kept), self.seen),
            (other.kept, other.seen),
        ];
        let mut merged = Vec::with_capacity(KEEP);
        while merged.len() < KEEP {
            let first = self.below(sides[0].1 + sides[1].1) < sides[0].1;
            let (kept, left) = &mut sides[usize::from(!first)];
            let pick = self.below(kept.len() as u64) as usize;
            merged.push(kept.swap_remove(pick));
            *left -= 1;
        }
        self.kept = merged;
        self.seen = seen;
    }

    /// Number of latencies recorded.
    pub fn len(&self) -> u64 {
        self.seen
    }

    /// The kept sample the statistics are read from.
    pub fn kept(&mut self) -> &mut [u32] {
        &mut self.kept
    }

    /// Size of the kept sample.
    pub fn kept_len(&self) -> usize {
        self.kept.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_reported_once_ten_samples_lie_beyond_it() {
        let t = tail(&mut ramp(1000), 990).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        // Exactly MIN_BEYOND samples are larger than the reported value.
        let beyond = ramp(1000).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn a_short_sample_reports_the_highest_supported_percentile() {
        let t = tail(&mut ramp(500), 990).unwrap();
        assert_eq!(t.value, 490.0);
        assert_eq!(t.percentile, 98.0);
        let beyond = ramp(500).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, MIN_BEYOND);
        // One sample more than the minimum: the top rank is still off limits.
        let t = tail(&mut ramp(11), 990).unwrap();
        assert_eq!(t.value, 6.0, "never below the median");
    }

    #[test]
    fn a_sample_too_small_for_any_tail_reports_its_median() {
        let t = tail(&mut ramp(5), 990).unwrap();
        assert_eq!(t.value, 3.0);
        assert_eq!(t.percentile, 60.0);
        assert_eq!(median(&mut ramp(5)).unwrap().value, 3.0);
        assert!(tail::<f64>(&mut [], 990).is_none());
        assert!(median::<f64>(&mut []).is_none());
    }

    #[test]
    fn a_wide_sample_keeps_the_requested_percentile() {
        let mut values: Vec<u32> = (1..=100_000).collect();
        let t = tail(&mut values, 990).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 99_000.0);
        assert_eq!(median(&mut ramp(4)).unwrap().value, 2.0);
    }

    #[test]
    fn a_long_series_keeps_a_bounded_uniform_sample() {
        let mut s = Series::default();
        let n: u64 = 1_000_000;
        for i in 1..=n {
            s.push(i);
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.kept_len(), KEEP);
        // The kept sample's median and p99 sit near the true ones.
        let p50 = median(s.kept()).unwrap().value / n as f64;
        let p99 = tail(s.kept(), 990).unwrap().value / n as f64;
        assert!((p50 - 0.5).abs() < 0.01, "{p50}");
        assert!((p99 - 0.99).abs() < 0.005, "{p99}");
    }

    #[test]
    fn short_series_merge_exactly() {
        let mut all = Series::default();
        for session in 0..3 {
            let mut s = Series::default();
            s.push(10 * session + 1);
            s.push(10 * session + 2);
            all.merge(s);
        }
        assert_eq!(all.len(), 6);
        assert_eq!(all.kept(), &[1, 2, 11, 12, 21, 22]);
        // Nearest rank: the 3rd of 6.
        assert_eq!(median(all.kept()).unwrap().value, 11.0);
    }

    /// Merged series weigh every session by the latencies it saw, however
    /// many of them it kept and whichever merged first.
    #[test]
    fn merged_series_stay_uniform_over_all_sessions() {
        let session = |value: u64, count: u64| {
            let mut s = Series::default();
            for _ in 0..count {
                s.push(value);
            }
            s
        };
        let share_of = |all: &mut Series, value: u32| {
            let kept = all.kept();
            kept.iter().filter(|&&v| v == value).count() as f64 / kept.len() as f64
        };
        // Two sessions that each outgrew their sample, 2:1 in size.
        let mut all = Series::default();
        all.merge(session(1, 200_000));
        all.merge(session(2, 100_000));
        assert_eq!((all.len(), all.kept_len()), (300_000, KEEP));
        let share = share_of(&mut all, 2);
        assert!((share - 1.0 / 3.0).abs() < 0.01, "{share}");
        // Many short sessions after a long one: each short one counts in
        // full, the long one by what it saw.
        let mut all = Series::default();
        all.merge(session(1, 100_000));
        for _ in 0..20 {
            all.merge(session(2, 5_000));
        }
        assert_eq!((all.len(), all.kept_len()), (200_000, KEEP));
        let share = share_of(&mut all, 2);
        assert!((share - 0.5).abs() < 0.01, "{share}");
    }
}
