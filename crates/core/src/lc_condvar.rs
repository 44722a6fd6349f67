//! The load-controlled condition variable.
//!
//! Completes the sync surface: threads waiting for a *predicate* (queue
//! non-empty, state change, shutdown flag) are exactly the spinning waiters
//! the paper's mechanism exists to manage.  An [`LcCondvar`] waiter spins on
//! a notification epoch — the fast path under normal load, matching the
//! suite's spin-first philosophy — and runs the waiter-side [`LoadGate`] of
//! the shared [`LoadControl`]: under overload it claims a sleep slot, parks,
//! and resumes polling when the controller clears it.
//!
//! # Semantics
//!
//! * Spurious wakeups are permitted (as with every condition variable):
//!   always re-check the predicate, or use [`LcCondvar::wait_while`].
//! * [`LcCondvar::notify_all`] advances the epoch, releasing every current
//!   waiter to re-check its predicate.
//! * [`LcCondvar::notify_one`] is a *directed* wakeup: every waiter leaves a
//!   wait node holding its parker on a wait-list before it releases the
//!   mutex, and `notify_one` pops exactly one node, flags it and unparks that
//!   thread's parker.  Because the waiter's load-control park runs through
//!   [`LoadGate::park_while`] with "my node is not yet notified" as the stay-
//!   parked condition, the handoff reaches a waiter parked by load control
//!   *immediately* — not at slot clear or sleep timeout, as in earlier
//!   versions of this crate.  (Lost-wakeup freedom: the node is enqueued
//!   while the caller still holds the mutex, so a notifier that changes the
//!   predicate under the same mutex always observes it.)

use crate::controller::LoadControl;
use crate::lc_lock::{LcMutex, LcMutexGuard};
use crate::thread_ctx::LoadGate;
use lc_accounting::ThreadState;
use lc_locks::{AbortableLock, Parker};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One waiter's entry on the condvar wait-list: its wake flag plus the
/// parker `notify_one` uses to lift it out of a load-control park.
#[derive(Debug)]
struct WaitNode {
    notified: AtomicBool,
    parker: Arc<Parker>,
}

/// A condition variable whose waiters participate in load control.
///
/// ```
/// use lc_core::{LcCondvar, LcMutex, LoadControl, LoadControlConfig};
/// use std::sync::Arc;
///
/// let control = LoadControl::new(LoadControlConfig::for_capacity(2));
/// let ready = Arc::new(LcMutex::<bool>::new_with(false, &control));
/// let cv = Arc::new(LcCondvar::new_with(&control));
///
/// let (ready2, cv2) = (Arc::clone(&ready), Arc::clone(&cv));
/// let producer = std::thread::spawn(move || {
///     *ready2.lock() = true;
///     cv2.notify_all();
/// });
///
/// let guard = cv.wait_while(ready.lock(), |done| !*done);
/// assert!(*guard);
/// drop(guard);
/// producer.join().unwrap();
/// ```
pub struct LcCondvar {
    control: Arc<LoadControl>,
    /// Notification epoch: waiters snapshot it under the mutex and spin until
    /// it moves or their own wait node is flagged.
    epoch: AtomicU64,
    /// Total notifications issued (diagnostics; `notify_one` + `notify_all`).
    notifications: AtomicU64,
    /// Registered waiters, in arrival order — `notify_one` pops the front.
    waiters: Mutex<VecDeque<Arc<WaitNode>>>,
}

impl fmt::Debug for LcCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcCondvar")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("notifications", &self.notifications.load(Ordering::Relaxed))
            .finish()
    }
}

impl LcCondvar {
    /// Creates a condition variable attached to the global [`LoadControl`].
    pub fn new() -> Self {
        Self::new_with(&LoadControl::global())
    }

    /// Creates a condition variable attached to `control`.
    pub fn new_with(control: &Arc<LoadControl>) -> Self {
        Self {
            control: Arc::clone(control),
            epoch: AtomicU64::new(0),
            notifications: AtomicU64::new(0),
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Releases `guard`, waits for a notification (or a spurious wakeup),
    /// re-acquires the mutex and returns the new guard.
    ///
    /// The mutex must be attached to the same [`LoadControl`] for the
    /// combined wait to be load-managed coherently (not enforced; the wait is
    /// still correct otherwise).
    pub fn wait<'a, T: ?Sized, R: AbortableLock>(
        &self,
        guard: LcMutexGuard<'a, T, R>,
    ) -> LcMutexGuard<'a, T, R> {
        let mutex: &'a LcMutex<T, R> = guard.mutex();
        let mut gate = LoadGate::new(&self.control);
        // Register *before* releasing the mutex: a notify that runs after our
        // predicate check (under the lock) but before we start polling either
        // advances the epoch past the snapshot or pops our node — never lost.
        let target = self.epoch.load(Ordering::Acquire);
        let node = Arc::new(WaitNode {
            notified: AtomicBool::new(false),
            parker: Arc::clone(gate.ctx().parker()),
        });
        self.waiters.lock().unwrap().push_back(Arc::clone(&node));
        drop(guard);

        let still_waiting = || {
            self.epoch.load(Ordering::Acquire) == target && !node.notified.load(Ordering::Acquire)
        };
        let previous = gate.ctx().set_registry_state(ThreadState::Spinning);
        let mut iteration = 0u64;
        while still_waiting() {
            iteration += 1;
            if gate.check(iteration) {
                // Stay parked only while unnotified: `notify_one` unparks our
                // parker and we fall straight out of the slot.
                gate.park_while(still_waiting);
            } else {
                std::hint::spin_loop();
                // Be polite to small hosts: a condvar wait can be long, and
                // unlike a lock waiter we are not next in line for anything.
                if iteration.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
        }
        gate.cancel();
        // Deregister.  If a `notify_one` already popped our node, this finds
        // nothing — that notification woke us, and `wait_while` re-checks.
        self.waiters
            .lock()
            .unwrap()
            .retain(|n| !Arc::ptr_eq(n, &node));
        gate.ctx().set_registry_state(previous);
        mutex.lock()
    }

    /// Waits (releasing and re-acquiring `guard`) as long as `condition`
    /// holds; the standard spurious-wakeup-proof loop.
    pub fn wait_while<'a, T: ?Sized, R: AbortableLock>(
        &self,
        mut guard: LcMutexGuard<'a, T, R>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> LcMutexGuard<'a, T, R> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wakes (at least) one waiter to re-check its predicate.
    ///
    /// Pops the oldest wait node, flags it and unparks its thread — so a
    /// waiter parked by load control is handed the notification immediately,
    /// without waiting for the controller to clear its slot.  Falls back to
    /// an epoch advance (waking every spinner) if no waiter is registered.
    pub fn notify_one(&self) {
        self.notifications.fetch_add(1, Ordering::Relaxed);
        let popped = self.waiters.lock().unwrap().pop_front();
        match popped {
            Some(node) => {
                node.notified.store(true, Ordering::Release);
                node.parker.unpark();
            }
            // No registered waiter: advance the epoch so a thread racing into
            // `wait` still observes the notification (spurious for others).
            None => {
                self.epoch.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Wakes all current waiters to re-check their predicates.
    pub fn notify_all(&self) {
        self.notifications.fetch_add(1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        // Drain outside the lock: unpark can wake a thread that immediately
        // re-enters `wait` and needs the waiters lock to register.
        let drained: Vec<_> = self.waiters.lock().unwrap().drain(..).collect();
        for node in drained {
            node.notified.store(true, Ordering::Release);
            node.parker.unpark();
        }
    }

    /// Total notifications issued (diagnostics).
    pub fn notification_count(&self) -> u64 {
        self.notifications.load(Ordering::Relaxed)
    }

    /// The [`LoadControl`] instance this condition variable participates in.
    pub fn control(&self) -> &Arc<LoadControl> {
        &self.control
    }
}

impl Default for LcCondvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadControlConfig;
    use crate::controller::spec_control;
    use std::thread;
    use std::time::{Duration, Instant};

    fn manual_control(capacity: usize) -> Arc<LoadControl> {
        spec_control(LoadControlConfig::for_capacity(capacity), "policy=fixed")
    }

    #[test]
    fn wait_observes_a_notification() {
        let lc = manual_control(4);
        let flag = Arc::new(LcMutex::<bool>::new_with(false, &lc));
        let cv = Arc::new(LcCondvar::new_with(&lc));
        let (flag2, cv2) = (Arc::clone(&flag), Arc::clone(&cv));
        let setter = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            *flag2.lock() = true;
            cv2.notify_all();
        });
        let guard = cv.wait_while(flag.lock(), |done| !*done);
        assert!(*guard);
        drop(guard);
        setter.join().unwrap();
        assert_eq!(cv.notification_count(), 1);
    }

    #[test]
    fn notify_one_observes_a_notification() {
        let lc = manual_control(4);
        let flag = Arc::new(LcMutex::<bool>::new_with(false, &lc));
        let cv = Arc::new(LcCondvar::new_with(&lc));
        let (flag2, cv2) = (Arc::clone(&flag), Arc::clone(&cv));
        let setter = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            *flag2.lock() = true;
            cv2.notify_one();
        });
        let guard = cv.wait_while(flag.lock(), |done| !*done);
        assert!(*guard);
        drop(guard);
        setter.join().unwrap();
        // The wait-list is empty again once the waiter has left.
        assert!(cv.waiters.lock().unwrap().is_empty());
    }

    #[test]
    fn producer_consumer_queue_drains() {
        let lc = manual_control(4);
        let queue = Arc::new(LcMutex::<Vec<u32>>::new_with(Vec::new(), &lc));
        let cv = Arc::new(LcCondvar::new_with(&lc));
        let items = 200u32;

        let mut consumers = Vec::new();
        for _ in 0..2 {
            let (queue, cv, lc) = (Arc::clone(&queue), Arc::clone(&cv), Arc::clone(&lc));
            consumers.push(thread::spawn(move || {
                let _w = lc.register_worker();
                let mut got = 0u32;
                loop {
                    let mut guard = cv.wait_while(queue.lock(), |q| q.is_empty());
                    let mut shutdown = false;
                    while let Some(item) = guard.pop() {
                        if item == u32::MAX {
                            shutdown = true;
                        } else {
                            got += 1;
                        }
                    }
                    if shutdown {
                        // Re-arm the sentinel for the other consumers.
                        guard.push(u32::MAX);
                        drop(guard);
                        cv.notify_all();
                        return got;
                    }
                }
            }));
        }

        {
            let lc = Arc::clone(&lc);
            let _w = lc.register_worker();
            for i in 0..items {
                queue.lock().push(i);
                cv.notify_all();
            }
            queue.lock().push(u32::MAX);
            cv.notify_all();
        }

        let consumed: u32 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(consumed, items);
    }

    #[test]
    fn waiters_park_under_overload() {
        let lc = spec_control(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(5)),
            "policy=fixed",
        );
        lc.set_sleep_target(1);
        let flag = Arc::new(LcMutex::<bool>::new_with(false, &lc));
        let cv = Arc::new(LcCondvar::new_with(&lc));
        let (flag2, cv2, lc2) = (Arc::clone(&flag), Arc::clone(&cv), Arc::clone(&lc));
        let waiter = thread::spawn(move || {
            let w = lc2.register_worker();
            let guard = cv2.wait_while(flag2.lock(), |done| !*done);
            assert!(*guard);
            drop(guard);
            w.sleep_count()
        });
        // Let the waiter spin into the gate and park at least once.
        thread::sleep(Duration::from_millis(30));
        *flag.lock() = true;
        cv.notify_all();
        let sleeps = waiter.join().unwrap();
        assert!(sleeps > 0, "overloaded condvar waiter never parked");
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn notify_one_hands_off_to_a_load_parked_waiter_immediately() {
        // A sleep timeout far longer than the test: the waiter can only
        // return promptly if `notify_one` reaches through its parked slot.
        let lc = spec_control(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_secs(30)),
            "policy=fixed",
        );
        lc.set_sleep_target(1);
        let flag = Arc::new(LcMutex::<bool>::new_with(false, &lc));
        let cv = Arc::new(LcCondvar::new_with(&lc));
        let (flag2, cv2, lc2) = (Arc::clone(&flag), Arc::clone(&cv), Arc::clone(&lc));
        let waiter = thread::spawn(move || {
            let w = lc2.register_worker();
            let guard = cv2.wait_while(flag2.lock(), |done| !*done);
            assert!(*guard);
            drop(guard);
            w.sleep_count()
        });
        // Let the waiter spin into the gate and park.
        while lc.buffer().sleepers() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        *flag.lock() = true;
        let notified_at = Instant::now();
        cv.notify_one();
        let sleeps = waiter.join().unwrap();
        assert!(sleeps > 0, "waiter never parked despite the open target");
        assert!(
            notified_at.elapsed() < Duration::from_secs(5),
            "notify_one did not reach the parked waiter before its timeout"
        );
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }
}
