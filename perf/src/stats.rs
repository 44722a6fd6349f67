//! The harness's own arithmetic: medians over rounds, a fixed-size latency
//! histogram with interpolated quantiles, the tail-percentile rule and the
//! Jain index.  Nothing here calls into the library under test.

/// Median, p10, p90 and sample count of one metric over a run's rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile_sorted(&sorted, 0.5),
        p10: quantile_sorted(&sorted, 0.1),
        p90: quantile_sorted(&sorted, 0.9),
        n: sorted.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The percentiles a tail may be reported at, as the share of samples
/// *beyond* each (p90, p99, p99.9, ...).
const TAIL_LADDER: [f64; 6] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

/// The highest ladder percentile that still has at least ten samples beyond
/// it, as a quantile in 0..1; `None` below 100 samples, where even p90 has
/// fewer than ten.
pub fn tail_quantile(samples: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .take_while(|beyond| samples as f64 * beyond >= 10.0)
        .last()
        .map(|beyond| 1.0 - beyond)
}

/// Jain's fairness index of per-thread completion counts: 1 when all equal,
/// 1/n when one thread did everything.
pub fn jain(counts: &[u64]) -> f64 {
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let squares: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if squares == 0.0 {
        return 1.0;
    }
    sum * sum / (counts.len() as f64 * squares)
}

/// Values below this are counted exactly, one bucket per nanosecond.
const EXACT: u64 = 2048;
const EXACT_BITS: u32 = EXACT.trailing_zeros();
/// Above it, each power of two is cut into this many equal buckets (1.6 %).
const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();
const OCTAVES: u64 = 64 - EXACT_BITS as u64;
const BUCKETS: usize = (EXACT + OCTAVES * SUB) as usize;

/// A fixed-size nanosecond histogram, so that timing memory does not grow
/// with throughput.  `Instant` truncates to whole nanoseconds; a quantile is
/// interpolated inside its bucket (the grouped-data median), which keeps it
/// continuous when most samples share one value.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let sub = (ns >> (octave - SUB_BITS)) & (SUB - 1);
        (EXACT + u64::from(octave - EXACT_BITS) * SUB + sub) as usize
    }

    /// The half-open range of nanoseconds bucket `idx` covers.
    fn bounds(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < EXACT {
            return (idx as f64, (idx + 1) as f64);
        }
        let octave = (idx - EXACT) / SUB + u64::from(EXACT_BITS);
        let sub = (idx - EXACT) % SUB;
        // In floating point: the top bucket's upper edge is 2^64.
        let width = (octave as f64).exp2() / SUB as f64;
        let low = (octave as f64).exp2() + sub as f64 * width;
        (low, low + width)
    }

    pub fn record(&mut self, ns: u64) {
        let slot = &mut self.counts[Self::bucket(ns)];
        *slot = slot.saturating_add(1);
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile in nanoseconds; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0.0;
        for (idx, &count) in self.counts.iter().enumerate() {
            let count = f64::from(count);
            if count > 0.0 && below + count >= rank {
                let (low, high) = Self::bounds(idx);
                return low + (high - low) * (rank - below) / count;
            }
            below += count;
        }
        Self::bounds(BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1_000_000), Some(0.99999));
        assert_eq!(tail_quantile(u64::MAX), Some(1.0 - 1e-6));
    }

    #[test]
    fn jain_spans_one_to_one_over_n() {
        assert_eq!(jain(&[5, 5, 5, 5]), 1.0);
        assert_eq!(jain(&[8, 0, 0, 0]), 0.25);
        assert!((jain(&[3, 1]) - 0.8).abs() < 1e-12);
        assert_eq!(jain(&[7]), 1.0);
        assert_eq!(jain(&[0, 0]), 1.0);
    }

    #[test]
    fn summary_interpolates() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.n, 4);
        assert!((s.p10 - 1.3).abs() < 1e-12);
        assert!((s.p90 - 3.7).abs() < 1e-12);
    }

    #[test]
    fn hist_buckets_tile_the_range() {
        for ns in [
            0,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            1 << 20,
            (1 << 30) + 12345,
            u64::MAX,
        ] {
            let (low, high) = Hist::bounds(Hist::bucket(ns));
            // `<=`: as f64, u64::MAX rounds up to the top bucket's edge.
            assert!(low <= ns as f64 && ns as f64 <= high, "{ns}");
        }
        assert_eq!(Hist::bucket(u64::MAX), BUCKETS - 1);
        // Adjacent buckets meet: no gap and no overlap.
        for idx in 1..BUCKETS {
            assert_eq!(Hist::bounds(idx - 1).1, Hist::bounds(idx).0, "{idx}");
        }
    }

    #[test]
    fn hist_quantile_moves_inside_a_tie() {
        let mut h = Hist::new();
        for _ in 0..30 {
            h.record(41);
        }
        for _ in 0..70 {
            h.record(42);
        }
        // Ranks 30..100 sit in [42, 43): the median is 20/70 of the way in.
        assert!((h.quantile(0.5) - (42.0 + 20.0 / 70.0)).abs() < 1e-9);
        assert!(h.quantile(0.99) < 43.0);
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn hist_merge_adds() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= 1_000_000.0);
    }
}
