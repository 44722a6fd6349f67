//! Generic abort-semantics harness, run against every [`AbortableLock`]
//! implementation in the crate.
//!
//! The [`AbortableLock`] contract these tests pin down:
//!
//! * an aborting policy never loses mutual exclusion — a counter protected by
//!   the lock stays exact no matter how aggressively waiters abort/retry;
//! * FIFO queue integrity survives aborts — abandoned queue positions are
//!   skipped, never granted, so throughput continues and nothing deadlocks;
//! * every abort is reported through `on_aborted` and the final acquisition
//!   through `on_acquired`;
//! * `try_lock` never blocks, whether the lock is free, held, or churning
//!   with aborting waiters.
//!
//! The critical-section step is pluggable ([`CsPath`]): classic
//! `lock_with`/`unlock` pairs, or delegation-style `run_locked_with` where
//! the body may execute on another thread's combiner pass and an abort
//! withdraws the published request.  Flat combining runs under *both*
//! paths.

use lc_locks::{
    AbortableLock, BoundedAbort, FlatCombiningLock, McsLock, RawRwLock, RawSemaphore, RawTryLock,
    SpinDecision, SpinPolicy, SpinThenYieldLock, TasLock, TicketLock, TimePublishedLock, TtasLock,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Records every policy callback, requesting an abort every `limit` polls up
/// to a handful of times per acquisition (the shape of a real load-control
/// client, which parks between aborts rather than aborting every poll).
///
/// While spinning it periodically yields to the OS: the test hosts may have
/// a single hardware context, where a FIFO handoff to a descheduled
/// successor would otherwise cost whole scheduler timeslices — exactly the
/// preemption pathology the paper studies, but not what this harness is
/// here to measure.
struct CountingPolicy {
    inner: BoundedAbort,
    acquired: u64,
    last_spins: u64,
}

impl CountingPolicy {
    fn new(limit: u64) -> Self {
        Self {
            inner: BoundedAbort::new(limit, 6),
            acquired: 0,
            last_spins: 0,
        }
    }
}

impl SpinPolicy for CountingPolicy {
    fn on_spin(&mut self, spins: u64) -> SpinDecision {
        let decision = self.inner.on_spin(spins);
        if decision == SpinDecision::Continue && spins.is_multiple_of(32) {
            thread::yield_now();
        }
        decision
    }

    fn on_aborted(&mut self) {
        self.inner.on_aborted();
    }

    fn on_acquired(&mut self, spins: u64) {
        self.acquired += 1;
        self.last_spins = spins;
    }
}

/// How the harness executes one policy-driven critical section on a lock.
trait CsPath<L> {
    fn with_cs(lock: &L, policy: &mut CountingPolicy, body: impl FnOnce() + Send);
}

/// The classic path: acquire ownership with the policy, run the body on this
/// thread, release.
struct LockUnlock;

impl<L: AbortableLock> CsPath<L> for LockUnlock {
    fn with_cs(lock: &L, policy: &mut CountingPolicy, body: impl FnOnce() + Send) {
        lock.lock_with(policy);
        body();
        unsafe { lock.unlock() };
    }
}

/// The delegation path: publish the body as a request; it runs either in
/// place or on whichever thread is combining, and an abort withdraws it.
struct Delegated;

impl CsPath<FlatCombiningLock> for Delegated {
    fn with_cs(lock: &FlatCombiningLock, policy: &mut CountingPolicy, body: impl FnOnce() + Send) {
        lock.run_locked_with(policy, body);
    }
}

/// Mutual exclusion under aggressive abort/retry churn: every acquisition
/// increments a plain (non-atomic-style) counter; the total must be exact.
fn exclusion_with_aborting_policies<R: AbortableLock + 'static, C: CsPath<R>>() {
    let lock = Arc::new(R::new());
    let counter = Arc::new(AtomicU64::new(0));
    let threads = 6;
    let iters = 3_000u64;
    // Hold the lock across the workers' first acquisitions: contention (and
    // therefore at least one abort per worker) is guaranteed, not a matter
    // of scheduling luck.
    lock.lock();
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for worker in 0..threads {
        let lock = Arc::clone(&lock);
        let counter = Arc::clone(&counter);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut aborts = 0u64;
            for i in 0..iters {
                // Mix abort horizons so retries interleave at every depth,
                // including limit 0 (abort on the very first poll).
                let mut policy = CountingPolicy::new((worker as u64 + i) % 24);
                C::with_cs(&lock, &mut policy, || {
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                });
                assert_eq!(policy.acquired, 1, "exactly one acquisition per call");
                aborts += policy.inner.aborts;
            }
            aborts
        }));
    }
    thread::sleep(Duration::from_millis(20));
    unsafe { lock.unlock() };
    let total_aborts: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        counter.load(Ordering::Relaxed),
        threads as u64 * iters,
        "lost or duplicated increments under abort churn"
    );
    assert!(!lock.is_locked(), "lock must end up free");
    // With limits this tight and real contention, some aborts must occur —
    // otherwise the harness is not exercising the abort path at all.
    assert!(total_aborts > 0, "no abort path was ever taken");
}

/// An abort requested while the lock is held must be honored (the policy's
/// `on_aborted` hook runs) and the waiter must still acquire eventually.
fn abort_is_reported_and_retry_succeeds<R: AbortableLock + 'static, C: CsPath<R>>() {
    let lock = Arc::new(R::new());
    lock.lock();
    let l2 = Arc::clone(&lock);
    let waiter = thread::spawn(move || {
        let mut policy = CountingPolicy::new(50);
        C::with_cs(&l2, &mut policy, || {});
        (policy.inner.aborts, policy.acquired)
    });
    thread::sleep(Duration::from_millis(30));
    unsafe { lock.unlock() };
    let (aborts, acquired) = waiter.join().unwrap();
    assert!(aborts >= 1, "waiter should have aborted while blocked out");
    assert_eq!(acquired, 1);
    assert!(!lock.is_locked());
}

/// `try_lock` must return (not block) promptly in every lock state.
fn try_lock_never_blocks<R: AbortableLock + RawTryLock + 'static, C: CsPath<R>>() {
    let lock = Arc::new(R::new());

    // Free lock: must succeed immediately.
    let start = Instant::now();
    assert!(lock.try_lock());
    assert!(start.elapsed() < Duration::from_millis(100));

    // Held lock: must fail immediately, including from other threads.
    let l2 = Arc::clone(&lock);
    thread::spawn(move || {
        let start = Instant::now();
        assert!(!l2.try_lock());
        assert!(start.elapsed() < Duration::from_millis(100));
    })
    .join()
    .unwrap();
    unsafe { lock.unlock() };

    // Churning lock: hammer try_lock from several threads while waiters
    // abort and retry; every call must return quickly.
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut policy = CountingPolicy::new(4);
                C::with_cs(&lock, &mut policy, || {});
            }
            0u64
        }));
    }
    for _ in 0..2 {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            let mut acquired = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                if lock.try_lock() {
                    acquired += 1;
                    unsafe { lock.unlock() };
                }
                // Generous bound: the call itself is one CAS, but this
                // thread can sit descheduled for a while on a small host.
                assert!(start.elapsed() < Duration::from_secs(1), "try_lock stalled");
                thread::yield_now();
            }
            acquired
        }));
    }
    thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(!lock.is_locked());
}

macro_rules! abort_semantics_suite {
    ($($module:ident => ($lock:ty, $path:ty)),+ $(,)?) => {$(
        mod $module {
            use super::*;

            #[test]
            fn exclusion_with_aborting_policies() {
                super::exclusion_with_aborting_policies::<$lock, $path>();
            }

            #[test]
            fn abort_is_reported_and_retry_succeeds() {
                super::abort_is_reported_and_retry_succeeds::<$lock, $path>();
            }

            #[test]
            fn try_lock_never_blocks() {
                super::try_lock_never_blocks::<$lock, $path>();
            }
        }
    )+};
}

abort_semantics_suite! {
    tas => (TasLock, LockUnlock),
    ttas_backoff => (TtasLock, LockUnlock),
    ticket => (TicketLock, LockUnlock),
    mcs => (McsLock, LockUnlock),
    tp_queue => (TimePublishedLock, LockUnlock),
    spin_then_yield => (SpinThenYieldLock, LockUnlock),
    // Exclusive mode of the rwlock and binary mode of the semaphore: the new
    // sync surface obeys the same abortable-waiting contract as the mutexes.
    rw_lock => (RawRwLock, LockUnlock),
    semaphore => (RawSemaphore, LockUnlock),
    // Flat combining obeys the contract through both faces: the plain
    // ownership face (grant requests withdraw on abort)...
    flat_combining => (FlatCombiningLock, LockUnlock),
    // ...and the delegated face, where the critical section is a published
    // request that may run on a combiner and aborting withdraws it.
    flat_combining_delegated => (FlatCombiningLock, Delegated),
}
