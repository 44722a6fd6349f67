//! Test-and-test-and-set with exponential backoff.
//!
//! Waiters poll with plain loads (no bus-locking writes) and only attempt the
//! atomic swap when the lock looks free; failed attempts back off
//! exponentially (Agarwal & Cherian, reference \[1\] in the paper).  This fixes
//! the coherence-traffic problem of [`crate::TasLock`] but introduces the
//! backoff tuning trade-off the paper discusses in §2.2: long backoffs waste
//! handoff latency, short ones waste CPU.

use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinDecision, SpinPolicy};
use crate::spin_wait::Backoff;
use std::hint;
use std::sync::atomic::{AtomicBool, Ordering};

/// Test-and-test-and-set lock with exponential backoff.
///
/// ```
/// use lc_locks::{RawLock, TtasLock};
/// let lock = TtasLock::new();
/// lock.lock();
/// assert!(lock.is_locked());
/// unsafe { lock.unlock() };
/// ```
#[derive(Debug)]
pub struct TtasLock {
    locked: AtomicBool,
}

impl Default for TtasLock {
    fn default() -> Self {
        <Self as RawLock>::new()
    }
}

unsafe impl RawLock for TtasLock {
    fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }

    #[inline]
    fn lock(&self) {
        // Fast path: uncontended acquire is a single swap.
        if !self.locked.swap(true, Ordering::Acquire) {
            return;
        }
        let mut backoff = Backoff::new();
        loop {
            // Test phase: read-only polling keeps the line shared.
            while self.locked.load(Ordering::Relaxed) {
                hint::spin_loop();
            }
            // Test-and-set phase.
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            backoff.spin();
        }
    }

    #[inline]
    unsafe fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "ttas-backoff"
    }
}

unsafe impl RawTryLock for TtasLock {
    #[inline]
    fn try_lock(&self) -> bool {
        !self.locked.load(Ordering::Relaxed) && !self.locked.swap(true, Ordering::Acquire)
    }
}

unsafe impl AbortableLock for TtasLock {
    /// Backoff locks have no wait queue, so an abort stops polling, runs the
    /// policy's `on_aborted` hook, and restarts the attempt with the backoff
    /// interval reset (a freshly returning waiter should probe promptly).
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        if !self.locked.swap(true, Ordering::Acquire) {
            policy.on_acquired(0);
            return;
        }
        let mut spins = 0u64;
        let mut backoff = Backoff::new();
        loop {
            // Test phase: read-only polling keeps the line shared.
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                match policy.on_spin(spins) {
                    SpinDecision::Continue => hint::spin_loop(),
                    SpinDecision::Abort => {
                        policy.on_aborted();
                        backoff.reset();
                    }
                }
            }
            // Test-and-set phase.
            if !self.locked.swap(true, Ordering::Acquire) {
                policy.on_acquired(spins);
                return;
            }
            backoff.spin();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic_lock_unlock() {
        let l = TtasLock::new();
        l.lock();
        assert!(l.is_locked());
        unsafe { l.unlock() };
        assert!(!l.is_locked());
        assert_eq!(l.name(), "ttas-backoff");
    }

    #[test]
    fn try_lock_respects_holder() {
        let l = TtasLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(TtasLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..2_000 {
                    lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    unsafe { lock.unlock() };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16_000);
    }
}
