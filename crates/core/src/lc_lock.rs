//! The load-controlled lock: any abortable spinning primitive whose waiters
//! participate in load control (the user-visible half of the paper's
//! mechanism, §3.1.2).
//!
//! Load management is *orthogonal* to contention management — that is the
//! paper's central claim — so [`LcLock`] is generic over every
//! [`AbortableLock`] in the suite: the backend manages contention (FIFO
//! queueing, backoff, time publishing, …) while the [`LoadControl`] policy
//! decides, identically for every backend, when spinning waiters should leave
//! the CPU.  The default backend is the time-published queue lock the paper
//! builds on.

use crate::async_gate::AsyncAcquire;
use crate::controller::LoadControl;
use crate::thread_ctx::{acquire, release, try_acquire};
use lc_locks::{AbortableLock, LockStatsSnapshot, RawLock, RawTryLock, TimePublishedLock};
use std::cell::UnsafeCell;
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// A mutual-exclusion lock that spins for contention management and defers
/// all load management to the shared [`LoadControl`] instance.
///
/// `R` is the spinning primitive that manages contention; any
/// [`AbortableLock`] works, because load control only needs the ability to
/// pull a waiter out of the lock's waiting loop.  Functionally an
/// `LcLock<R>` is an `R` whose polling loop checks the sleep-slot buffer:
/// when the controller wants threads off the CPU, a waiter claims a slot,
/// aborts its queue position, parks, and retries once woken.
pub struct LcLock<R: AbortableLock = TimePublishedLock> {
    inner: R,
    control: Arc<LoadControl>,
}

/// The default load-controlled lock, backed by the time-published queue lock
/// (the configuration the paper evaluates).
pub type TpLcLock = LcLock<TimePublishedLock>;

impl<R: AbortableLock + fmt::Debug> fmt::Debug for LcLock<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcLock")
            .field("inner", &self.inner)
            .field("sleep_target", &self.control.sleep_target())
            .finish()
    }
}

impl<R: AbortableLock> LcLock<R> {
    /// Creates a lock attached to `control`, with a default-constructed
    /// backend.
    pub fn new_with(control: &Arc<LoadControl>) -> Self {
        Self::from_raw(R::new(), control)
    }

    /// Wraps a caller-configured backend instance, attaching it to `control`.
    pub fn from_raw(inner: R, control: &Arc<LoadControl>) -> Self {
        Self {
            inner,
            control: Arc::clone(control),
        }
    }

    /// The [`LoadControl`] instance this lock participates in.
    pub fn control(&self) -> &Arc<LoadControl> {
        &self.control
    }

    /// The underlying contention-management primitive.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl LcLock<TimePublishedLock> {
    /// Statistics of the underlying queue lock.
    pub fn stats(&self) -> LockStatsSnapshot {
        self.inner.stats()
    }
}

unsafe impl<R: AbortableLock> RawLock for LcLock<R> {
    /// Creates a lock attached to the process-wide [`LoadControl::global`]
    /// instance — the paper's "transparent library" deployment.
    fn new() -> Self {
        Self::new_with(&LoadControl::global())
    }

    fn lock(&self) {
        acquire(&self.control, |policy| self.inner.lock_with(policy));
    }

    unsafe fn unlock(&self) {
        release(&self.control, || unsafe { self.inner.unlock() });
    }

    fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }

    fn name(&self) -> &'static str {
        "load-control"
    }
}

unsafe impl<R: AbortableLock + RawTryLock> RawTryLock for LcLock<R> {
    fn try_lock(&self) -> bool {
        try_acquire(&self.control, || self.inner.try_lock())
    }
}

/// A value protected by an [`LcLock`] over any abortable backend.
///
/// This is a thin, self-contained analogue of [`lc_locks::Mutex`] so that a
/// load-controlled mutex can be constructed against a specific
/// [`LoadControl`] instance.
///
/// ```
/// use lc_core::{LcMutex, LoadControl, LoadControlConfig};
///
/// let control = LoadControl::new(LoadControlConfig::for_capacity(2));
/// let m = LcMutex::<u32>::new_with(10, &control);
/// *m.lock() += 5;
/// assert_eq!(*m.lock(), 15);
/// ```
///
/// Any other lock family gains load control the same way:
///
/// ```
/// use lc_core::{LcMutex, LoadControl, LoadControlConfig};
/// use lc_locks::McsLock;
///
/// let control = LoadControl::new(LoadControlConfig::for_capacity(2));
/// let m: LcMutex<u32, McsLock> = LcMutex::new_with(10, &control);
/// *m.lock() += 5;
/// assert_eq!(*m.lock(), 15);
/// ```
pub struct LcMutex<T: ?Sized, R: AbortableLock = TimePublishedLock> {
    raw: LcLock<R>,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send, R: AbortableLock> Send for LcMutex<T, R> {}
unsafe impl<T: ?Sized + Send, R: AbortableLock> Sync for LcMutex<T, R> {}

impl<T, R: AbortableLock> LcMutex<T, R> {
    /// Wraps `value`, attaching the lock to the global [`LoadControl`].
    pub fn new(value: T) -> Self {
        Self {
            raw: LcLock::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Wraps `value`, attaching the lock to `control`.
    pub fn new_with(value: T, control: &Arc<LoadControl>) -> Self {
        Self {
            raw: LcLock::new_with(control),
            data: UnsafeCell::new(value),
        }
    }

    /// Wraps `value` using a caller-configured backend instance.
    pub fn from_raw(value: T, inner: R, control: &Arc<LoadControl>) -> Self {
        Self {
            raw: LcLock::from_raw(inner, control),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, R: AbortableLock> LcMutex<T, R> {
    /// Acquires the lock.
    pub fn lock(&self) -> LcMutexGuard<'_, T, R> {
        self.raw.lock();
        LcMutexGuard { mutex: self }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<LcMutexGuard<'_, T, R>>
    where
        R: RawTryLock,
    {
        if self.raw.try_lock() {
            Some(LcMutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Acquires the lock **without blocking the worker thread**: the
    /// returned future poll-spins on the backend's non-blocking
    /// [`RawTryLock::try_lock`] path and participates in load control
    /// through an [`AsyncLoadGate`](crate::AsyncLoadGate) — under overload the task claims a sleep
    /// slot from the same buffer the sync waiters use, suspends, and is
    /// woken by the controller's slot-clear exactly like a parked thread.
    ///
    /// Contention management stays with the backend only on its
    /// *uncontended* path here (repeated `try_lock` is TAS-like polling, not
    /// the backend's queue discipline) — the price of an acquisition that
    /// can never block its thread.  Load management is untouched, which is
    /// the decoupling the paper argues for.
    ///
    /// Dropping the future mid-wait releases any pending sleep-slot claim.
    /// The returned [`LcMutexAsyncGuard`] is deliberately `!Send` — the
    /// backend's `unlock` contract requires releasing on the acquiring
    /// thread — so it must be dropped before the next `await` point.
    pub fn lock_async(&self) -> LockAsync<'_, T, R>
    where
        R: RawTryLock,
    {
        LockAsync {
            mutex: self,
            acquire: AsyncAcquire::default(),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying raw lock.
    pub fn raw(&self) -> &LcLock<R> {
        &self.raw
    }

    /// Whether the lock currently appears held.
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }
}

impl<T: Default, R: AbortableLock> Default for LcMutex<T, R> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, R: AbortableLock + RawTryLock> fmt::Debug for LcMutex<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("LcMutex").field("data", &&*g).finish(),
            None => f
                .debug_struct("LcMutex")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// RAII guard for [`LcMutex`].
pub struct LcMutexGuard<'a, T: ?Sized, R: AbortableLock = TimePublishedLock> {
    mutex: &'a LcMutex<T, R>,
}

impl<T: ?Sized, R: AbortableLock> Deref for LcMutexGuard<'_, T, R> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: AbortableLock> DerefMut for LcMutexGuard<'_, T, R> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: AbortableLock> Drop for LcMutexGuard<'_, T, R> {
    fn drop(&mut self) {
        unsafe { self.mutex.raw.unlock() };
    }
}

impl<T: ?Sized + fmt::Debug, R: AbortableLock> fmt::Debug for LcMutexGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Future returned by [`LcMutex::lock_async`].
///
/// Each poll is one iteration of the client-side algorithm over the
/// backend's `try_lock` path; dropping the future releases any pending
/// sleep-slot claim.
pub struct LockAsync<'a, T: ?Sized, R: AbortableLock = TimePublishedLock> {
    mutex: &'a LcMutex<T, R>,
    acquire: AsyncAcquire,
}

impl<T: ?Sized, R: AbortableLock> fmt::Debug for LockAsync<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockAsync")
            .field("acquire", &self.acquire)
            .finish()
    }
}

impl<'a, T: ?Sized, R: AbortableLock + RawTryLock> Future for LockAsync<'a, T, R> {
    type Output = LcMutexAsyncGuard<'a, T, R>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mutex = this.mutex;
        this.acquire
            .poll(cx, mutex.raw.control(), || mutex.raw.inner().try_lock())
            .map(|()| LcMutexAsyncGuard {
                mutex,
                _not_send: PhantomData,
            })
    }
}

/// RAII guard for [`LcMutex::lock_async`].
///
/// Acquired through the backend's raw `try_lock`, so it bypasses the
/// per-thread hold accounting of the sync guard (a task is not a thread) and
/// is `!Send`: the backend's unlock contract requires releasing on the
/// acquiring thread, so the guard must be dropped before the owning task's
/// next `await` point.
pub struct LcMutexAsyncGuard<'a, T: ?Sized, R: AbortableLock = TimePublishedLock> {
    mutex: &'a LcMutex<T, R>,
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized, R: AbortableLock> Deref for LcMutexAsyncGuard<'_, T, R> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: AbortableLock> DerefMut for LcMutexAsyncGuard<'_, T, R> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: AbortableLock> Drop for LcMutexAsyncGuard<'_, T, R> {
    fn drop(&mut self) {
        unsafe { self.mutex.raw.inner().unlock() };
    }
}

impl<T: ?Sized + fmt::Debug, R: AbortableLock> fmt::Debug for LcMutexAsyncGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadControlConfig;
    use crate::controller::spec_control;
    use lc_locks::{McsLock, TicketLock, TtasLock};
    use std::thread;
    use std::time::Duration;

    fn manual_control(capacity: usize) -> Arc<LoadControl> {
        spec_control(LoadControlConfig::for_capacity(capacity), "policy=fixed")
    }

    #[test]
    fn basic_lock_unlock() {
        let lc = manual_control(2);
        let lock: LcLock = LcLock::new_with(&lc);
        lock.lock();
        assert!(lock.is_locked());
        unsafe { lock.unlock() };
        assert!(!lock.is_locked());
        assert_eq!(lock.name(), "load-control");
    }

    #[test]
    fn try_lock_behaviour() {
        let lc = manual_control(2);
        let lock: LcLock = LcLock::new_with(&lc);
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        unsafe { lock.unlock() };
    }

    #[test]
    fn mutex_guard_gives_exclusive_access() {
        let lc = manual_control(2);
        let m = LcMutex::<Vec<u32>>::new_with(vec![1, 2, 3], &lc);
        m.lock().push(4);
        assert_eq!(m.lock().len(), 4);
        assert!(m.try_lock().is_some());
        assert!(!m.is_locked());
    }

    #[test]
    fn non_default_backends_are_load_controlled_locks_too() {
        let lc = manual_control(4);
        let mcs: LcLock<McsLock> = LcLock::new_with(&lc);
        let ticket: LcLock<TicketLock> = LcLock::new_with(&lc);
        let ttas: LcLock<TtasLock> = LcLock::new_with(&lc);
        for lock in [&mcs as &dyn RawLock, &ticket, &ttas] {
            lock.lock();
            assert!(lock.is_locked());
            unsafe { lock.unlock() };
            assert!(!lock.is_locked());
            assert_eq!(lock.name(), "load-control");
        }
    }

    #[test]
    fn mutual_exclusion_without_overload() {
        let lc = manual_control(64);
        let m = Arc::new(LcMutex::<u64>::new_with(0, &lc));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            let lc = Arc::clone(&lc);
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..2_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 16_000);
        // No overload was ever signalled, so nobody should have slept.
        assert_eq!(lc.buffer().stats().ever_slept, 0);
    }

    #[test]
    fn mutual_exclusion_under_forced_overload() {
        // Capacity 1 with an active controller: with several runnable worker
        // threads the controller will keep a non-zero sleep target, forcing
        // waiters through the claim/park/retry path while the counter must
        // still end up exact.
        let lc = LoadControl::new(
            LoadControlConfig::for_capacity(1)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        lc.start_controller();
        let m = Arc::new(LcMutex::<u64>::new_with(0, &lc));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let m = Arc::clone(&m);
            let lc = Arc::clone(&lc);
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..500 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        lc.stop_controller();
        assert_eq!(*m.lock(), 3_000);
        let stats = lc.buffer().stats();
        // Every claim was balanced by a departure.
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let lc = manual_control(2);
        let mut m = LcMutex::<String>::new_with(String::from("a"), &lc);
        m.get_mut().push('b');
        assert_eq!(m.into_inner(), "ab");
    }

    #[test]
    fn debug_does_not_deadlock() {
        let lc = manual_control(2);
        let m = LcMutex::<u8>::new_with(1, &lc);
        let _ = format!("{m:?}");
        let g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
        drop(g);
    }
}
