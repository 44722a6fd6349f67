//! Lightweight per-lock statistics.
//!
//! Every lock in the suite optionally records how often it was acquired, and
//! how often a waiter parked, aborted or was skipped.  The counters are
//! relaxed atomics; the evaluation harness reads them between measurement
//! intervals (the same way the paper instruments its spinlocks to separate
//! contention from priority inversion, §2 / Figure 3).

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
/// [`crossbeam_utils::CachePadded`] uses): a lock holder that counts its
/// acquisitions writes this line on every one, and a lock's read-mostly
/// fields — a slot-ring pointer, its configuration — must not share that
/// line or every spinner re-fetches it once per hand-off.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct LockStats {
    acquisitions: AtomicU64,
    parks: AtomicU64,
    aborts: AtomicU64,
    skipped_waiters: AtomicU64,
}

/// A point-in-time copy of [`LockStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Total successful acquisitions.
    pub acquisitions: u64,
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

    /// Records one successful acquisition.
    ///
    /// **Single writer.**  Call this only from the thread that has just
    /// acquired the lock these statistics belong to, before it releases it.
    /// The counter is then only ever written inside the critical section,
    /// and the lock's own release → acquire ordering carries each holder's
    /// store to the next holder's load, so a plain load + store is exact —
    /// no `lock`-prefixed instruction inside the critical section.  Called
    /// from anywhere else, increments can be lost.  A [`reset`] concurrent
    /// with an acquisition can be lost the same way (the holder stores
    /// `old + 1` over the zero); reset between measurement intervals, not
    /// during them.
    ///
    /// [`reset`]: LockStats::reset
    #[inline]
    pub fn record_acquire(&self) {
        self.acquisitions.store(
            self.acquisitions.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
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
            parks: self.parks.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            skipped_waiters: self.skipped_waiters.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
        self.skipped_waiters.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = LockStats::new();
        s.record_acquire();
        s.record_acquire();
        s.record_park();
        s.record_abort();
        s.record_skipped(3);
        s.record_skipped(0);
        let snap = s.snapshot();
        assert_eq!(snap.acquisitions, 2);
        assert_eq!(snap.parks, 1);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.skipped_waiters, 3);
    }

    #[test]
    fn reset_clears_everything() {
        let s = LockStats::new();
        s.record_acquire();
        s.record_abort();
        s.reset();
        assert_eq!(s.snapshot(), LockStatsSnapshot::default());
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
