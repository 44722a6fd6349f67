//! The one guarded cell of the suite: an RAII mutex generic over any
//! [`RawLock`].
//!
//! This is the user-facing way to protect data with any of the primitives in
//! this crate or with the load-controlled lock from `lc-core`: the lock
//! algorithm is a type parameter, so workloads, latches and benchmarks can be
//! written once and instantiated with every contention-management policy the
//! paper compares.  Every other mutex of the suite is an instantiation of it:
//! [`crate::DynMutex`] over a family chosen by name,
//! [`crate::DelegationMutex`] over flat combining, and `lc-core`'s `LcMutex`
//! over the load-controlled lock.

#![warn(clippy::undocumented_unsafe_blocks)]

use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinPolicy};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion cell whose locking strategy is the type parameter `R`.
///
/// ```
/// use lc_locks::{Mutex, McsLock};
/// let m: Mutex<Vec<u32>, McsLock> = Mutex::new(vec![1, 2, 3]);
/// m.lock().push(4);
/// assert_eq!(m.lock().len(), 4);
/// ```
pub struct Mutex<T: ?Sized, R: RawLock> {
    raw: R,
    pub(crate) data: UnsafeCell<T>,
}

// SAFETY: `R` is `Send + Sync` (a `RawLock` bound), and `data` is reached
// through a shared reference only while `raw` is held, by one thread at a
// time, so sharing or moving the mutex moves nothing but `T` between threads.
unsafe impl<T: ?Sized + Send, R: RawLock> Send for Mutex<T, R> {}
// SAFETY: as for `Send`.
unsafe impl<T: ?Sized + Send, R: RawLock> Sync for Mutex<T, R> {}

impl<T, R: RawLock> Mutex<T, R> {
    /// Wraps `value` in a mutex using a freshly constructed lock.
    pub fn new(value: T) -> Self {
        Self::with_raw(value, R::new())
    }

    /// Wraps `value` using a caller-configured lock instance.
    pub fn with_raw(value: T, raw: R) -> Self {
        Self {
            raw,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, R: RawLock> Mutex<T, R> {
    /// Acquires the lock, blocking (or spinning) until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T, R> {
        self.raw.lock();
        self.guard()
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T, R>>
    where
        R: RawTryLock,
    {
        self.raw.try_lock().then(|| self.guard())
    }

    /// The guard of a lock this thread has just acquired.
    fn guard(&self) -> MutexGuard<'_, T, R> {
        MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Returns a mutable reference to the data without locking.
    ///
    /// Safe because the exclusive borrow of the mutex guarantees no guards
    /// exist.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Whether the lock currently appears held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    /// The underlying raw lock (for statistics and configuration access).
    pub fn raw(&self) -> &R {
        &self.raw
    }
}

impl<T: ?Sized, R: AbortableLock> Mutex<T, R> {
    /// Acquires the lock through `R`'s abortable waiting loop, consulting
    /// `policy` on every poll (a `LoadGate` from `lc-core` load-controls the
    /// wait).
    pub fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) -> MutexGuard<'_, T, R> {
        self.raw.lock_with(policy);
        self.guard()
    }
}

impl<T: Default, R: RawLock> Default for Mutex<T, R> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, R: RawLock + RawTryLock> fmt::Debug for Mutex<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T, R: RawLock> From<T> for Mutex<T, R> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop.
///
/// Not `Send`: a lock is released by the thread that took it, and a
/// load-controlled lock counts the hold in that thread's context.
pub struct MutexGuard<'a, T: ?Sized, R: RawLock> {
    mutex: &'a Mutex<T, R>,
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized, R: RawLock> Deref for MutexGuard<'_, T, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, so no other thread reaches `data`.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: RawLock> DerefMut for MutexGuard<'_, T, R> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock and is borrowed mutably, so this is
        // the only reference to `data`.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, R: RawLock> Drop for MutexGuard<'_, T, R> {
    fn drop(&mut self) {
        // SAFETY: the guard was made when this thread acquired the lock, and
        // it cannot have left the thread (`!Send`).
        unsafe { self.mutex.raw.unlock() };
    }
}

impl<T: ?Sized + fmt::Debug, R: RawLock> fmt::Debug for MutexGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Display, R: RawLock> fmt::Display for MutexGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{McsLock, TasLock, TicketLock, TimePublishedLock, TtasLock};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn guard_provides_exclusive_access() {
        let m: Mutex<u64, TicketLock> = Mutex::new(7);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn try_lock_returns_none_while_held() {
        let m: Mutex<u32, TimePublishedLock> = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m: Mutex<String, TicketLock> = Mutex::new("a".to_string());
        m.get_mut().push('b');
        assert_eq!(m.into_inner(), "ab");
    }

    #[test]
    fn debug_formats_without_deadlock() {
        let m: Mutex<u32, TasLock> = Mutex::new(42);
        assert!(format!("{m:?}").contains("42"));
        let g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
        drop(g);
    }

    #[test]
    fn from_value() {
        let m: Mutex<u8, McsLock> = Mutex::from(5u8);
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn default_constructs_default_value() {
        let m: Mutex<u64, TtasLock> = Mutex::default();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn shared_counter_across_threads() {
        let m: Arc<Mutex<u64, TimePublishedLock>> = Arc::new(Mutex::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..2_500 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 20_000);
    }
}
