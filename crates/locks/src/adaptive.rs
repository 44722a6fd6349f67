//! Spin-then-block "adaptive" mutex, in the spirit of the Solaris adaptive
//! mutex and the Linux futex-based `pthread_mutex` (paper §2.2).
//!
//! A contended acquisition first spins for a bounded budget — cheap if the
//! critical section is short and the holder is running — and then parks the
//! waiter.  The release wakes one parked waiter (if any) *after* making the
//! lock available, so woken waiters still race with spinners; this is the
//! conventional non-handoff futex design and exhibits the behaviour of
//! Figure 4 in the paper: once waiters start exhausting their spin budget,
//! every handoff drags a context switch onto the critical path.

use crate::parker::Parker;
use crate::raw::{RawLock, RawTryLock};
use crate::stats::{LockStats, LockStatsSnapshot};
use std::collections::VecDeque;
use std::fmt;
use std::hint;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::time::Duration;

/// Tuning parameters for [`AdaptiveLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Polling iterations before a waiter gives up spinning and parks.
    pub spin_budget: u32,
    /// Maximum time a waiter stays parked before it rechecks the lock on its
    /// own (guards against lost wakeups under algorithmic changes; normally
    /// never fires).
    pub park_timeout: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            spin_budget: 4_000,
            park_timeout: Duration::from_millis(100),
        }
    }
}

/// A spin-then-block mutex.
///
/// ```
/// use lc_locks::{AdaptiveLock, RawLock};
/// let lock = AdaptiveLock::new();
/// lock.lock();
/// unsafe { lock.unlock() };
/// ```
pub struct AdaptiveLock {
    locked: AtomicBool,
    waiters: StdMutex<VecDeque<Arc<Parker>>>,
    parked_hint: AtomicU64,
    config: AdaptiveConfig,
    stats: LockStats,
}

impl fmt::Debug for AdaptiveLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveLock")
            .field("locked", &self.locked.load(Ordering::Relaxed))
            .field("parked", &self.parked_hint.load(Ordering::Relaxed))
            .field("config", &self.config)
            .finish()
    }
}

impl Default for AdaptiveLock {
    fn default() -> Self {
        <Self as RawLock>::new()
    }
}

impl AdaptiveLock {
    /// Creates a lock with custom spin/park tuning.
    pub fn with_config(config: AdaptiveConfig) -> Self {
        Self {
            locked: AtomicBool::new(false),
            waiters: StdMutex::new(VecDeque::new()),
            parked_hint: AtomicU64::new(0),
            config,
            stats: LockStats::new(),
        }
    }

    /// The lock's configuration.
    pub fn config(&self) -> AdaptiveConfig {
        self.config
    }

    /// Snapshot of the lock's statistics; `parks` counts context-switch-bound
    /// waits, which is the quantity Figure 4 tracks.
    pub fn stats(&self) -> LockStatsSnapshot {
        self.stats.snapshot()
    }

    fn park_self(&self) {
        let parker = crate::blocking::current_parker();
        {
            let mut q = self.waiters.lock().unwrap();
            // Re-check under the queue lock so a release that already emptied
            // the lock cannot strand us.
            if !self.locked.load(Ordering::SeqCst) {
                return;
            }
            q.push_back(Arc::clone(&parker));
        }
        self.parked_hint.fetch_add(1, Ordering::Relaxed);
        self.stats.record_park();
        let _ = parker.park_timeout(self.config.park_timeout);
        self.parked_hint.fetch_sub(1, Ordering::Relaxed);
        // Whether woken or timed out, remove any leftover queue entry lazily:
        // entries are Arc clones, and a stale unpark only costs a spurious
        // wakeup on this thread's next park, which the permit model absorbs.
    }
}

unsafe impl RawLock for AdaptiveLock {
    fn new() -> Self {
        Self::with_config(AdaptiveConfig::default())
    }

    fn lock(&self) {
        if !self.locked.swap(true, Ordering::Acquire) {
            self.stats.record_acquire();
            return;
        }
        loop {
            // Spin phase.
            let mut budget = self.config.spin_budget;
            while self.locked.load(Ordering::Relaxed) && budget > 0 {
                hint::spin_loop();
                budget -= 1;
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                self.stats.record_acquire();
                return;
            }
            // Block phase.
            self.park_self();
            if !self.locked.swap(true, Ordering::Acquire) {
                self.stats.record_acquire();
                return;
            }
        }
    }

    unsafe fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
        // Wake one parked waiter, if any, to re-contend for the lock.
        let next = self.waiters.lock().unwrap().pop_front();
        if let Some(p) = next {
            p.unpark();
        }
    }

    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

unsafe impl RawTryLock for AdaptiveLock {
    fn try_lock(&self) -> bool {
        if self.locked.load(Ordering::Relaxed) {
            return false;
        }
        if !self.locked.swap(true, Ordering::Acquire) {
            self.stats.record_acquire();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdU64;
    use std::thread;

    #[test]
    fn basic_lock_unlock() {
        let l = AdaptiveLock::new();
        l.lock();
        assert!(l.is_locked());
        unsafe { l.unlock() };
        assert!(!l.is_locked());
        assert_eq!(l.name(), "adaptive");
    }

    #[test]
    fn try_lock_behaviour() {
        let l = AdaptiveLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn short_spin_budget_forces_parking() {
        let lock = Arc::new(AdaptiveLock::with_config(AdaptiveConfig {
            spin_budget: 1,
            park_timeout: Duration::from_millis(5),
        }));
        let counter = Arc::new(StdU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..500 {
                    lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    // A tiny critical section that still exceeds a one-spin budget.
                    for _ in 0..50 {
                        std::hint::spin_loop();
                    }
                    unsafe { lock.unlock() };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 3_000);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(AdaptiveLock::new());
        let counter = Arc::new(StdU64::new(0));
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
