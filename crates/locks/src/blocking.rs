//! A purely blocking mutex: every contended acquisition parks the waiter and
//! every release performs a direct handoff to the oldest waiter.
//!
//! This is the behaviour the paper attributes to "heavyweight OS mutexes"
//! stripped of their adaptive spinning phase: two context switches per
//! contended handoff, a scheduler decision on the critical path, and the
//! convoy dynamics of §2 once handoffs become slower than critical sections.
//! It exists as a baseline and as the blocking half of the adaptive lock.

use crate::parker::Parker;
use crate::raw::{RawLock, RawTryLock};
use crate::stats::{LockStats, LockStatsSnapshot};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

thread_local! {
    static THREAD_PARKER: Arc<Parker> = Arc::new(Parker::new());
}

/// Returns this thread's parker (shared with the adaptive lock).
pub(crate) fn current_parker() -> Arc<Parker> {
    THREAD_PARKER.with(Arc::clone)
}

#[derive(Debug, Default)]
struct WaitQueue {
    held: bool,
    waiters: VecDeque<Arc<Parker>>,
}

/// A blocking (parking) mutex with FIFO direct handoff.
///
/// ```
/// use lc_locks::{BlockingLock, RawLock};
/// let lock = BlockingLock::new();
/// lock.lock();
/// assert!(lock.is_locked());
/// unsafe { lock.unlock() };
/// ```
pub struct BlockingLock {
    queue: StdMutex<WaitQueue>,
    held_hint: AtomicBool,
    stats: LockStats,
}

impl fmt::Debug for BlockingLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockingLock")
            .field("held", &self.held_hint.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for BlockingLock {
    fn default() -> Self {
        <Self as RawLock>::new()
    }
}

impl BlockingLock {
    /// Snapshot of this lock's statistics (parks = contended handoffs).
    pub fn stats(&self) -> LockStatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of threads currently parked on this lock.
    pub fn waiter_count(&self) -> usize {
        self.queue.lock().unwrap().waiters.len()
    }
}

unsafe impl RawLock for BlockingLock {
    fn new() -> Self {
        Self {
            queue: StdMutex::new(WaitQueue::default()),
            held_hint: AtomicBool::new(false),
            stats: LockStats::new(),
        }
    }

    fn lock(&self) {
        let parker = current_parker();
        {
            let mut q = self.queue.lock().unwrap();
            if !q.held {
                q.held = true;
                self.held_hint.store(true, Ordering::Relaxed);
                self.stats.record_acquire();
                return;
            }
            q.waiters.push_back(Arc::clone(&parker));
        }
        // Direct handoff: when `unpark` arrives, ownership has already been
        // transferred to us by the releaser, so there is nothing to re-check.
        self.stats.record_park();
        parker.park();
        // We own the lock from here on, as `record_acquire` requires.
        self.stats.record_acquire();
    }

    unsafe fn unlock(&self) {
        let next = {
            let mut q = self.queue.lock().unwrap();
            debug_assert!(q.held, "unlock without a matching lock");
            match q.waiters.pop_front() {
                Some(p) => Some(p),
                None => {
                    q.held = false;
                    self.held_hint.store(false, Ordering::Relaxed);
                    None
                }
            }
        };
        if let Some(p) = next {
            // Ownership passes directly to the woken waiter.
            p.unpark();
        }
    }

    fn is_locked(&self) -> bool {
        self.held_hint.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "blocking"
    }
}

unsafe impl RawTryLock for BlockingLock {
    fn try_lock(&self) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.held {
            false
        } else {
            q.held = true;
            self.held_hint.store(true, Ordering::Relaxed);
            self.stats.record_acquire();
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn basic_lock_unlock() {
        let l = BlockingLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        unsafe { l.unlock() };
        assert!(!l.is_locked());
        assert_eq!(l.name(), "blocking");
    }

    #[test]
    fn try_lock_behaviour() {
        let l = BlockingLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        unsafe { l.unlock() };
        assert!(l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn waiters_park_and_are_handed_the_lock() {
        let lock = Arc::new(BlockingLock::new());
        lock.lock();
        let l2 = Arc::clone(&lock);
        let h = thread::spawn(move || {
            l2.lock();
            unsafe { l2.unlock() };
        });
        // Let the second thread reach the parked state.
        thread::sleep(Duration::from_millis(30));
        assert_eq!(lock.waiter_count(), 1);
        unsafe { lock.unlock() };
        h.join().unwrap();
        assert!(!lock.is_locked());
        assert!(lock.stats().parks >= 1);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(BlockingLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..1_000 {
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
        assert_eq!(counter.load(Ordering::Relaxed), 8_000);
    }
}
