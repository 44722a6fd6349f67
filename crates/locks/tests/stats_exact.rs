//! `stats().acquisitions` must be exact once the lock is quiescent.  Blocking
//! and adaptive count with `LockStats::record_acquire`, a plain load + store
//! that is exact only because each calls it from the thread that has just
//! acquired the lock; tp-queue derives the count as `next_ticket − aborts`,
//! exact only if every ticket ends in one acquisition or one recorded abort.
//! After `THREADS × ITERS` acquisitions through every acquisition path — and,
//! for tp-queue, through aborts and skips — the count must say exactly that,
//! every repetition.

use lc_locks::{
    AbortableLock, AdaptiveLock, BlockingLock, BoundedAbort, LockStatsSnapshot, RawLock,
    RawTryLock, SpinDecision, SpinPolicy, TimePublishedLock, TpConfig,
};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const THREADS: usize = 4;
const ITERS: u64 = 2_000;
const REPETITIONS: usize = 25;
const HOLD_SPINS: u32 = 100;

/// Runs `THREADS` workers that each acquire a fresh `make()` lock `ITERS`
/// times through `acquire(lock, worker_index)` and release it, then checks
/// the snapshot.  Returns the snapshots summed over the repetitions.
fn assert_exact<L: RawLock + Send + Sync + 'static>(
    make: fn() -> L,
    acquire: fn(&L, usize),
    stats: fn(&L) -> LockStatsSnapshot,
) -> LockStatsSnapshot {
    let mut total = LockStatsSnapshot::default();
    for repetition in 0..REPETITIONS {
        let lock = Arc::new(make());
        let barrier = Arc::new(Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|worker| {
                let lock = Arc::clone(&lock);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..ITERS {
                        acquire(&lock, worker);
                        // Hold long enough that the workers overlap and the
                        // contended paths run.
                        for _ in 0..HOLD_SPINS {
                            std::hint::spin_loop();
                        }
                        unsafe { lock.unlock() };
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let snapshot = stats(&lock);
        assert_eq!(
            snapshot.acquisitions,
            THREADS as u64 * ITERS,
            "{} lost or invented acquisitions in repetition {repetition}: {snapshot:?}",
            lock.name()
        );
        total.acquisitions += snapshot.acquisitions;
        total.parks += snapshot.parks;
        total.aborts += snapshot.aborts;
        total.skipped_waiters += snapshot.skipped_waiters;
    }
    total
}

/// Odd workers poll `try_lock` (which records an uncontended acquisition),
/// even workers take the waiting path.
fn lock_or_try<L: RawTryLock>(lock: &L, worker: usize) {
    if worker % 2 == 1 {
        while !lock.try_lock() {
            thread::yield_now();
        }
    } else {
        lock.lock();
    }
}

/// Aborts every 48 polls, at most `max_aborts` times per acquisition, and
/// yields while it waits: the hosts may have fewer cores than `THREADS`, and
/// a spinning waiter that never yields turns each hand-off to a descheduled
/// thread into a whole scheduler timeslice.
///
/// ([`lc_locks::AbortAfter`] is the wrong double here: once past its limit it
/// abandons a tp-queue ticket on every poll, and more than
/// [`lc_locks::time_published::SLOTS`] abandoned tickets wrap the ring.)
struct YieldingAborts(BoundedAbort);

impl SpinPolicy for YieldingAborts {
    fn on_spin(&mut self, spins: u64) -> SpinDecision {
        let decision = self.0.on_spin(spins);
        if decision == SpinDecision::Continue && spins.is_multiple_of(32) {
            thread::yield_now();
        }
        decision
    }

    fn on_aborted(&mut self) {
        self.0.on_aborted();
    }
}

/// Odd workers abort and retry, so acquisitions through the post-abort fast
/// path are counted too; even workers never abort.
fn tp_queue_lock_with_aborts(lock: &TimePublishedLock, worker: usize) {
    let max_aborts = if worker % 2 == 1 { 6 } else { 0 };
    lock.lock_with(&mut YieldingAborts(BoundedAbort::new(48, max_aborts)));
}

#[test]
fn tp_queue_counts_every_acquisition_exactly() {
    let total = assert_exact::<TimePublishedLock>(
        TimePublishedLock::new,
        tp_queue_lock_with_aborts,
        TimePublishedLock::stats,
    );
    assert!(total.aborts > 0, "no abort was exercised: {total:?}");
}

#[test]
fn tp_queue_counts_every_acquisition_exactly_across_skips() {
    // Zero patience: every queued waiter looks preempted, so releasers skip
    // and skipped waiters re-enqueue on fresh tickets.
    let total = assert_exact::<TimePublishedLock>(
        || {
            TimePublishedLock::with_config(TpConfig {
                patience: Duration::ZERO,
                ..TpConfig::default()
            })
        },
        tp_queue_lock_with_aborts,
        TimePublishedLock::stats,
    );
    assert!(
        total.skipped_waiters > 0,
        "no skip was exercised: {total:?}"
    );
}

#[test]
fn blocking_counts_every_acquisition_exactly() {
    assert_exact::<BlockingLock>(BlockingLock::new, lock_or_try, BlockingLock::stats);
}

#[test]
fn adaptive_counts_every_acquisition_exactly() {
    assert_exact::<AdaptiveLock>(AdaptiveLock::new, lock_or_try, AdaptiveLock::stats);
}
