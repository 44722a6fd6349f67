//! Lightweight per-lock statistics.
//!
//! Every lock in the suite optionally records how often it was acquired, how
//! often an acquisition found the lock busy, and how much waiting happened.
//! The counters are relaxed atomics off the critical path; the evaluation
//! harness reads them between measurement intervals (the same way the paper
//! instruments its spinlocks to separate contention from priority inversion,
//! §2 / Figure 3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets in a [`WaitHistogram`]: four sub-buckets per power of
/// two of nanoseconds, covering the full `u64` nanosecond range.
pub const WAIT_HISTOGRAM_BUCKETS: usize = 256;

/// A lock-free log-bucketed histogram of wait times.
///
/// Values are recorded in nanoseconds into one of
/// [`WAIT_HISTOGRAM_BUCKETS`] buckets: each power-of-two octave is divided
/// into 4 sub-buckets, so a bucket's upper bound is at most 25 % above its
/// lower bound.  Because quantile queries report a bucket's **upper** bound,
/// the estimate is one-sided — never below the true value, and at most 25 %
/// above it (exact below 4 ns).  That bias is deliberate: an SLO check that
/// compares the reported p99 against a target can overreact slightly but can
/// never silently pass a violated target.
///
/// Recording is a single relaxed `fetch_add` on an atomic bucket — no locks,
/// no allocation — so waiters on both the sync ([`crate::Parker`]-based) and
/// async park paths record off their critical path.  Snapshots are
/// bucket-wise relaxed loads: concurrent with recording they may miss the
/// newest samples but never undercount what an earlier snapshot saw, and
/// [`WaitSnapshot::since`] / [`WaitSnapshot::merge`] compose windows across
/// threads and time.
#[derive(Debug)]
pub struct WaitHistogram {
    buckets: Box<[AtomicU64; WAIT_HISTOGRAM_BUCKETS]>,
}

impl Default for WaitHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket a nanosecond value falls into.
fn wait_bucket_index(nanos: u64) -> usize {
    if nanos < 4 {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros() as usize; // >= 2
    let sub = ((nanos >> (exp - 2)) & 3) as usize;
    (exp << 2) | sub
}

impl WaitHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array through a Vec.
        let buckets: Vec<AtomicU64> = (0..WAIT_HISTOGRAM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect();
        let buckets: Box<[AtomicU64; WAIT_HISTOGRAM_BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("fixed length");
        Self { buckets }
    }

    /// Records one wait of `elapsed` (saturated to `u64` nanoseconds).
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[wait_bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// The inclusive `[lower, upper]` nanosecond range of bucket `idx`.
    ///
    /// Exposed so property tests can assert every recorded value lands inside
    /// its bucket's bounds.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        assert!(idx < WAIT_HISTOGRAM_BUCKETS, "bucket out of range");
        if idx < 8 {
            // Below 8 ns the grid is exact-ish: buckets 0..4 hold one value
            // each; 4..8 are the exp=2 octave (4..8 ns, one value each).
            return (idx as u64, idx as u64);
        }
        let exp = idx >> 2;
        let sub = (idx & 3) as u64;
        let base = 1u64 << exp;
        let step = base >> 2;
        let lower = base + sub * step;
        // `lower + step` overflows for the top bucket (upper = u64::MAX).
        let upper = lower + (step - 1);
        (lower, upper)
    }

    /// A point-in-time copy of every bucket.
    pub fn snapshot(&self) -> WaitSnapshot {
        let mut buckets = vec![0u64; WAIT_HISTOGRAM_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = bucket.load(Ordering::Relaxed);
        }
        WaitSnapshot { buckets }
    }

    /// Resets every bucket to zero.
    pub fn reset(&self) {
        for bucket in self.buckets.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a [`WaitHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitSnapshot {
    buckets: Vec<u64>,
}

impl Default for WaitSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; WAIT_HISTOGRAM_BUCKETS],
        }
    }
}

impl WaitSnapshot {
    /// Total number of recorded waits.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// The quantile `q` (in `[0, 1]`) of the recorded waits, in nanoseconds.
    ///
    /// Reports the **upper bound** of the bucket holding the `ceil(q·count)`-th
    /// sample — one-sided: never below the true quantile, at most 25 % above
    /// it (see [`WaitHistogram`]).  Returns 0 when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return WaitHistogram::bucket_bounds(idx).1;
            }
        }
        self.max_ns()
    }

    /// Upper bound on the largest recorded wait, in nanoseconds (0 if empty).
    pub fn max_ns(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|idx| WaitHistogram::bucket_bounds(idx).1)
            .unwrap_or(0)
    }

    /// Folds `other` into `self` bucket-wise (histogram merge: associative
    /// and commutative, so per-thread histograms compose in any order).
    pub fn merge(&mut self, other: &WaitSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }

    /// The window of waits recorded after `earlier` was taken: bucket-wise
    /// saturating difference.  Both snapshots must come from the same
    /// (monotonically growing) histogram for the result to be meaningful.
    pub fn since(&self, earlier: &WaitSnapshot) -> WaitSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(&now, &then)| now.saturating_sub(then))
            .collect();
        WaitSnapshot { buckets }
    }

    /// Condenses the snapshot into the fixed-size summary the control plane
    /// consumes each cycle.
    pub fn observation(&self) -> WaitObservation {
        WaitObservation {
            count: self.count(),
            p50_ns: self.quantile_ns(0.50),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max_ns(),
        }
    }
}

/// A fixed-size summary of one wait-time window: what a control policy (or a
/// metrics row) consumes instead of the full bucket vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitObservation {
    /// Number of waits in the window.
    pub count: u64,
    /// Median wait (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile wait (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Upper bound on the largest wait, nanoseconds.
    pub max_ns: u64,
}

/// Aggregate counters for one lock instance.
///
/// Aligned to a cache line of its own (128 bytes, as
/// [`crossbeam_utils::CachePadded`] uses): the lock holder writes these on
/// every acquisition, and a lock's read-mostly fields — a slot-ring pointer,
/// its configuration — must not share that line with them or every spinner
/// re-fetches it once per hand-off.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    spin_iterations: AtomicU64,
    parks: AtomicU64,
    aborts: AtomicU64,
    skipped_waiters: AtomicU64,
}

/// A point-in-time copy of [`LockStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that observed the lock held at least once.
    pub contended: u64,
    /// Total polling-loop iterations spent waiting.
    pub spin_iterations: u64,
    /// Times a waiter blocked (parked) while waiting.
    pub parks: u64,
    /// Acquisition attempts aborted at a spin policy's request.
    pub aborts: u64,
    /// Waiters skipped over at release time (time-published locks only).
    pub skipped_waiters: u64,
}

impl LockStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful acquisition; `contended` says whether the lock
    /// was observed busy, and `spins` how many polling iterations were spent.
    ///
    /// **Single writer.**  Call this only from the thread that has just
    /// acquired the lock these statistics belong to, before it releases it.
    /// The three counters are then only ever written inside the critical
    /// section, and the lock's own release → acquire ordering carries each
    /// holder's stores to the next holder's loads, so a plain load + store is
    /// exact — no `lock`-prefixed instruction inside the critical section.
    /// Called from anywhere else, increments can be lost.  A [`reset`]
    /// concurrent with an acquisition can be lost the same way (the holder
    /// stores `old + 1` over the zero); reset between measurement intervals,
    /// not during them.
    ///
    /// [`reset`]: LockStats::reset
    #[inline]
    pub fn record_acquire(&self, contended: bool, spins: u64) {
        let add = |counter: &AtomicU64, n: u64| {
            counter.store(
                counter.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        };
        add(&self.acquisitions, 1);
        if contended {
            add(&self.contended, 1);
        }
        if spins > 0 {
            add(&self.spin_iterations, spins);
        }
    }

    /// Records that a waiter parked (blocked) once.
    #[inline]
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that an acquisition attempt was aborted.
    #[inline]
    pub fn record_abort(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a releaser skipped over `n` apparently-preempted waiters.
    #[inline]
    pub fn record_skipped(&self, n: u64) {
        if n > 0 {
            self.skipped_waiters.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough snapshot of all counters (from a thread
    /// other than the lock holder it may lag the newest acquisition).
    pub fn snapshot(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            spin_iterations: self.spin_iterations.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            skipped_waiters: self.skipped_waiters.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.spin_iterations.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
        self.skipped_waiters.store(0, Ordering::Relaxed);
    }
}

impl LockStatsSnapshot {
    /// Fraction of acquisitions that encountered contention, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }
}

/// Per-thread lock-usage accounting for a fixed thread population.
///
/// The dlock-style structure benchmarks slot one row per worker thread:
/// `acquisitions` counts that thread's completed critical sections, and
/// `combines` counts the requests it executed while acting as a combiner
/// (always zero for non-delegation locks).  Rows are
/// relaxed atomics, so threads record concurrently without sharing a line
/// with the protected data.
#[derive(Debug)]
pub struct ThreadUsageTable {
    acquisitions: Vec<AtomicU64>,
    combines: Vec<AtomicU64>,
}

/// A point-in-time copy of one [`ThreadUsageTable`] row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadUsageRow {
    /// Critical sections this thread completed (its own requests).
    pub acquisitions: u64,
    /// Requests this thread executed while combining.
    pub combines: u64,
}

impl ThreadUsageTable {
    /// A zeroed table with one row per thread.
    pub fn new(threads: usize) -> Self {
        Self {
            acquisitions: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            combines: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of rows (threads).
    pub fn threads(&self) -> usize {
        self.acquisitions.len()
    }

    /// Adds `n` completed critical sections to `thread`'s row.
    #[inline]
    pub fn record_acquisitions(&self, thread: usize, n: u64) {
        self.acquisitions[thread].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` requests executed while combining to `thread`'s row.
    #[inline]
    pub fn record_combines(&self, thread: usize, n: u64) {
        self.combines[thread].fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of every row, in thread order.
    pub fn snapshot(&self) -> Vec<ThreadUsageRow> {
        self.acquisitions
            .iter()
            .zip(&self.combines)
            .map(|(a, c)| ThreadUsageRow {
                acquisitions: a.load(Ordering::Relaxed),
                combines: c.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Jain's fairness index over per-thread acquisitions, in `(0, 1]`
    /// (1 = perfectly even; `1/n` = one thread did everything).  An empty or
    /// all-zero table reports 1.0.
    pub fn fairness(&self) -> f64 {
        let counts: Vec<u64> = self
            .acquisitions
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        jains_index(&counts)
    }
}

/// Jain's fairness index of a count vector: `(Σx)² / (n · Σx²)`, 1.0 for an
/// empty or all-zero population.
pub fn jains_index(counts: &[u64]) -> f64 {
    let n = counts.len() as f64;
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = LockStats::new();
        s.record_acquire(false, 0);
        s.record_acquire(true, 17);
        s.record_park();
        s.record_abort();
        s.record_skipped(3);
        s.record_skipped(0);
        let snap = s.snapshot();
        assert_eq!(snap.acquisitions, 2);
        assert_eq!(snap.contended, 1);
        assert_eq!(snap.spin_iterations, 17);
        assert_eq!(snap.parks, 1);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.skipped_waiters, 3);
        assert!((snap.contention_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thread_usage_rows_and_fairness() {
        let t = ThreadUsageTable::new(4);
        assert_eq!(t.threads(), 4);
        assert_eq!(t.fairness(), 1.0, "all-zero table is vacuously fair");
        for thread in 0..4 {
            t.record_acquisitions(thread, 10);
        }
        t.record_combines(0, 7);
        assert!((t.fairness() - 1.0).abs() < 1e-12, "even counts are fair");
        let rows = t.snapshot();
        assert_eq!(rows[0].combines, 7);
        assert!(rows[1..].iter().all(|r| r.combines == 0));
        // One thread does everything: the index collapses to 1/n.
        let skew = ThreadUsageTable::new(4);
        skew.record_acquisitions(2, 1000);
        assert!((skew.fairness() - 0.25).abs() < 1e-12);
        assert!((jains_index(&[1, 1, 1, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let s = LockStats::new();
        s.record_acquire(true, 5);
        s.reset();
        assert_eq!(s.snapshot(), LockStatsSnapshot::default());
        assert_eq!(s.snapshot().contention_ratio(), 0.0);
    }

    #[test]
    fn wait_histogram_empty_reports_zeros() {
        let h = WaitHistogram::new();
        let snap = h.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile_ns(0.99), 0);
        assert_eq!(snap.max_ns(), 0);
        assert_eq!(snap.observation(), WaitObservation::default());
    }

    #[test]
    fn wait_histogram_small_values_are_exact() {
        let h = WaitHistogram::new();
        for ns in 0..8u64 {
            h.record(Duration::from_nanos(ns));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8);
        // 8 samples 0..7: the p50 rank is the 4th sample (value 3).
        assert_eq!(snap.quantile_ns(0.5), 3);
        assert_eq!(snap.max_ns(), 7);
    }

    #[test]
    fn wait_histogram_quantile_is_one_sided_within_25_percent() {
        let h = WaitHistogram::new();
        let value = 123_456u64;
        for _ in 0..100 {
            h.record(Duration::from_nanos(value));
        }
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = snap.quantile_ns(q);
            assert!(est >= value, "quantile underestimated: {est} < {value}");
            assert!(
                est as f64 <= value as f64 * 1.25,
                "quantile error above bound: {est} vs {value}"
            );
        }
    }

    #[test]
    fn wait_histogram_bucket_bounds_contain_their_values() {
        for ns in [0u64, 1, 3, 4, 7, 8, 9, 63, 64, 1_000, 1 << 40, u64::MAX] {
            let idx = wait_bucket_index(ns);
            let (lower, upper) = WaitHistogram::bucket_bounds(idx);
            assert!(
                lower <= ns && ns <= upper,
                "{ns} outside bucket {idx} bounds [{lower}, {upper}]"
            );
        }
        // Top bucket's upper bound saturates at u64::MAX without overflow.
        assert_eq!(
            WaitHistogram::bucket_bounds(WAIT_HISTOGRAM_BUCKETS - 1).1,
            u64::MAX
        );
    }

    #[test]
    fn wait_snapshot_merge_and_since_compose() {
        let h = WaitHistogram::new();
        h.record(Duration::from_nanos(10));
        let early = h.snapshot();
        h.record(Duration::from_micros(50));
        h.record(Duration::from_micros(50));
        let late = h.snapshot();
        let window = late.since(&early);
        assert_eq!(window.count(), 2);
        assert!(window.quantile_ns(0.5) >= 50_000);
        let mut merged = early.clone();
        merged.merge(&window);
        assert_eq!(merged, late);
        h.reset();
        assert!(h.snapshot().is_empty());
    }
}
