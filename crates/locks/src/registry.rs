//! A runtime registry of every lock family in the crate.
//!
//! Benchmarks, workload drivers and configuration files refer to locks by
//! their stable string names (`"mcs"`, `"tp-queue"`, …).  A lock family takes
//! no parameters: it is built one way, and its name is its whole spec, so any
//! key in a lock spec is a [`SpecError::UnknownKey`] error.  Instead of each
//! consumer hand-enumerating concrete types in a `match`, the [`LOCK_SPECS`]
//! registry constructs any lock from its name behind the object-safe
//! [`DynLock`] adapter — so adding a lock to the suite means adding one
//! [`SpecEntry`], and every bench table, driver and scenario picks it up
//! automatically.
//!
//! [`DynLock`] mirrors the [`RawLock`] + [`RawTryLock`] + [`AbortableLock`]
//! surface without generics.  For the spinning primitives, `lock_with`
//! forwards to the real abortable waiting loop; the purely blocking families
//! ([`BlockingLock`], [`AdaptiveLock`]) cannot abort a wait that parks in the
//! kernel, so their adapter falls back to a plain `lock` (and reports
//! [`DynLock::is_abortable`] `false`).

use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinPolicy};
use crate::{
    AdaptiveLock, BlockingLock, FlatCombiningLock, McsLock, RawRwLock, RawSemaphore,
    SpinThenYieldLock, TasLock, TicketLock, TimePublishedLock, TtasLock,
};
use lc_spec::{Registry, SpecEntry, SpecError};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Object-safe view of a lock: the [`RawLock`]/[`RawTryLock`] surface plus a
/// dynamically dispatched [`AbortableLock::lock_with`].
pub trait DynLock: Send + Sync + fmt::Debug {
    /// Acquires the lock (see [`RawLock::lock`]).
    fn lock(&self);

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// Must only be called by the thread that currently owns the lock.
    unsafe fn unlock(&self);

    /// Attempts to acquire the lock without waiting.
    fn try_lock(&self) -> bool;

    /// Whether the lock currently appears held (racy, diagnostics only).
    fn is_locked(&self) -> bool;

    /// The lock's stable registry name, which is also its whole spec.
    fn name(&self) -> &'static str;

    /// Whether `lock_with` honors [`crate::SpinDecision::Abort`].
    fn is_abortable(&self) -> bool;

    /// Acquires the lock, consulting `policy` while waiting.
    ///
    /// For abortable locks this is the real policy-driven waiting loop; for
    /// blocking locks the policy is only notified of the final acquisition.
    fn lock_with(&self, policy: &mut dyn SpinPolicy);
}

/// Adapter giving an [`AbortableLock`] the [`DynLock`] interface.
struct Abortable<R>(R);

impl<R: AbortableLock + RawTryLock + fmt::Debug> DynLock for Abortable<R> {
    fn lock(&self) {
        self.0.lock();
    }

    unsafe fn unlock(&self) {
        self.0.unlock();
    }

    fn try_lock(&self) -> bool {
        self.0.try_lock()
    }

    fn is_locked(&self) -> bool {
        self.0.is_locked()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_abortable(&self) -> bool {
        true
    }

    fn lock_with(&self, policy: &mut dyn SpinPolicy) {
        self.0.lock_with(policy);
    }
}

impl<R: fmt::Debug> fmt::Debug for Abortable<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Adapter for lock families whose waiting cannot be aborted (they park in
/// the kernel rather than spin).
struct NonAbortable<R>(R);

impl<R: RawLock + RawTryLock + fmt::Debug> DynLock for NonAbortable<R> {
    fn lock(&self) {
        self.0.lock();
    }

    unsafe fn unlock(&self) {
        self.0.unlock();
    }

    fn try_lock(&self) -> bool {
        self.0.try_lock()
    }

    fn is_locked(&self) -> bool {
        self.0.is_locked()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_abortable(&self) -> bool {
        false
    }

    fn lock_with(&self, policy: &mut dyn SpinPolicy) {
        self.0.lock();
        policy.on_acquired(0);
    }
}

impl<R: fmt::Debug> fmt::Debug for NonAbortable<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

fn abortable<R>() -> Box<dyn DynLock>
where
    R: AbortableLock + RawTryLock + fmt::Debug + 'static,
{
    Box::new(Abortable(R::new()))
}

fn non_abortable<R>() -> Box<dyn DynLock>
where
    R: RawLock + RawTryLock + fmt::Debug + 'static,
{
    Box::new(NonAbortable(R::new()))
}

/// Every lock family in the crate, keyed by the stable names of
/// [`crate::ALL_LOCK_NAMES`].  No entry takes a key.
///
/// ```
/// use lc_locks::registry::LOCK_SPECS;
/// use lc_spec::SpecError;
///
/// let lock = LOCK_SPECS.build("ttas-backoff").unwrap();
/// assert_eq!(lock.name(), "ttas-backoff");
/// assert!(matches!(
///     LOCK_SPECS.build("ttas-backoff(shift=8)"),
///     Err(SpecError::UnknownKey { .. })
/// ));
/// ```
pub static LOCK_SPECS: Registry<Box<dyn DynLock>> = Registry::new(
    "lock",
    &[
        SpecEntry {
            name: "tas",
            keys: &[],
            summary: "test-and-set spinlock",
            build: |_, _| Ok(abortable::<TasLock>()),
        },
        SpecEntry {
            name: "ttas-backoff",
            keys: &[],
            summary: "test-and-test-and-set with exponential backoff",
            build: |_, _| Ok(abortable::<TtasLock>()),
        },
        SpecEntry {
            name: "ticket",
            keys: &[],
            summary: "FIFO ticket spinlock",
            build: |_, _| Ok(abortable::<TicketLock>()),
        },
        SpecEntry {
            name: "mcs",
            keys: &[],
            summary: "classic MCS queue lock",
            build: |_, _| Ok(abortable::<McsLock>()),
        },
        SpecEntry {
            name: "tp-queue",
            keys: &[],
            summary: "time-published queue lock (the paper's contention manager)",
            build: |_, _| Ok(abortable::<TimePublishedLock>()),
        },
        SpecEntry {
            name: "spin-then-yield",
            keys: &[],
            summary: "spins briefly, then yields to the OS scheduler",
            build: |_, _| Ok(abortable::<SpinThenYieldLock>()),
        },
        // The rwlock and semaphore join through their exclusive/binary modes,
        // in which they satisfy the mutex contract the registry promises.
        SpecEntry {
            name: "rw-lock",
            keys: &[],
            summary: "writer-preference rwlock in exclusive mode",
            build: |_, _| Ok(abortable::<RawRwLock>()),
        },
        SpecEntry {
            name: "semaphore",
            keys: &[],
            summary: "counting semaphore in binary (mutex) mode",
            build: |_, _| Ok(abortable::<RawSemaphore>()),
        },
        SpecEntry {
            name: "blocking",
            keys: &[],
            summary: "parks every waiter (heavyweight mutex)",
            build: |_, _| Ok(non_abortable::<BlockingLock>()),
        },
        SpecEntry {
            name: "adaptive",
            keys: &[],
            summary: "spins while the holder runs, then parks",
            build: |_, _| Ok(non_abortable::<AdaptiveLock>()),
        },
        SpecEntry {
            name: "flat-combining",
            keys: &[],
            summary: "flat-combining delegation lock (publication array, combiner scan)",
            build: |_, _| Ok(abortable::<FlatCombiningLock>()),
        },
    ],
);

/// Constructs the lock named by `spec`.  Every name in
/// [`crate::ALL_LOCK_NAMES`] is covered; unknown names and any key are
/// explicit errors.
pub fn build_spec(spec: &str) -> Result<Box<dyn DynLock>, SpecError> {
    LOCK_SPECS.build(spec)
}

/// A value protected by a lock chosen at runtime from the registry.
///
/// The dynamic counterpart of [`crate::Mutex`]: benchmarks and drivers that
/// sweep over lock families hold a `DynMutex` per configuration instead of
/// monomorphizing over every lock type.
///
/// ```
/// use lc_locks::registry::DynMutex;
/// let m = DynMutex::build("mcs", 41u64).expect("mcs is registered");
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 42);
/// assert_eq!(m.name(), "mcs");
/// ```
pub struct DynMutex<T: ?Sized> {
    raw: Box<dyn DynLock>,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for DynMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for DynMutex<T> {}

impl<T> DynMutex<T> {
    /// Wraps `value` behind `lock`.
    pub fn new(lock: Box<dyn DynLock>, value: T) -> Self {
        Self {
            raw: lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Wraps `value` behind the lock named by `spec`, or `None` when the spec
    /// does not name a registered lock.  [`DynMutex::try_build`] reports
    /// *why* a spec was rejected.
    pub fn build(spec: &str, value: T) -> Option<Self> {
        Self::try_build(spec, value).ok()
    }

    /// Wraps `value` behind the lock named by `spec`, with parse and registry
    /// errors surfaced.
    pub fn try_build(spec: &str, value: T) -> Result<Self, SpecError> {
        Ok(Self::new(build_spec(spec)?, value))
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> DynMutex<T> {
    /// Acquires the lock.
    pub fn lock(&self) -> DynMutexGuard<'_, T> {
        self.raw.lock();
        DynMutexGuard { mutex: self }
    }

    /// Acquires the lock, consulting `policy` while waiting.
    pub fn lock_with(&self, policy: &mut dyn SpinPolicy) -> DynMutexGuard<'_, T> {
        self.raw.lock_with(policy);
        DynMutexGuard { mutex: self }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<DynMutexGuard<'_, T>> {
        if self.raw.try_lock() {
            Some(DynMutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// The registry name of the underlying lock.
    pub fn name(&self) -> &'static str {
        self.raw.name()
    }

    /// The underlying lock object.
    pub fn raw(&self) -> &dyn DynLock {
        &*self.raw
    }

    /// Whether the lock currently appears held (racy, diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("DynMutex").field("data", &&*g).finish(),
            None => f
                .debug_struct("DynMutex")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// RAII guard returned by [`DynMutex::lock`]; releases the lock on drop.
pub struct DynMutexGuard<'a, T: ?Sized> {
    mutex: &'a DynMutex<T>,
}

impl<T: ?Sized> Deref for DynMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for DynMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for DynMutexGuard<'_, T> {
    fn drop(&mut self) {
        unsafe { self.mutex.raw.unlock() };
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::AbortAfter;
    use crate::ALL_LOCK_NAMES;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn registry_backs_all_lock_names_exactly() {
        assert_eq!(LOCK_SPECS.names(), ALL_LOCK_NAMES);
    }

    #[test]
    fn build_covers_every_name_and_reports_it_back() {
        for &name in ALL_LOCK_NAMES {
            let lock = build_spec(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(lock.name(), name);
            lock.lock();
            assert!(!lock.try_lock(), "{name}: try_lock must fail while held");
            unsafe { lock.unlock() };
            assert!(lock.try_lock(), "{name}: try_lock must succeed when free");
            unsafe { lock.unlock() };
        }
    }

    #[test]
    fn build_rejects_unknown_names() {
        assert!(build_spec("no-such-lock").is_err());
        assert!(DynMutex::build("no-such-lock", 0u8).is_none());
    }

    #[test]
    fn bad_parameters_are_explicit_errors() {
        for (spec, rejected) in [
            ("ttas-backoff(max_spins=256)", "max_spins"),
            ("tp-queue(patience_us=500)", "patience_us"),
            ("ticket(max_spins=1)", "max_spins"),
            ("flat-combining(strategy=first)", "strategy"),
        ] {
            match build_spec(spec) {
                Err(SpecError::UnknownKey { key, allowed, .. }) => {
                    assert_eq!(key, rejected, "{spec}");
                    assert!(allowed.is_empty(), "{spec}");
                }
                other => panic!("{spec}: expected UnknownKey, got {other:?}"),
            }
        }
        for &name in ALL_LOCK_NAMES {
            assert!(LOCK_SPECS.entry(name).unwrap().keys.is_empty(), "{name}");
        }
    }

    #[test]
    fn spinning_families_are_abortable_blocking_ones_are_not() {
        for &name in ALL_LOCK_NAMES {
            let lock = build_spec(name).unwrap();
            let expect_abortable = !matches!(name, "blocking" | "adaptive");
            assert_eq!(lock.is_abortable(), expect_abortable, "{name}");
        }
    }

    #[test]
    fn lock_with_falls_back_to_plain_lock_for_blocking_families() {
        for name in ["blocking", "adaptive"] {
            let lock = build_spec(name).unwrap();
            let mut policy = AbortAfter::new(0);
            lock.lock_with(&mut policy);
            assert!(lock.is_locked());
            unsafe { lock.unlock() };
            assert_eq!(policy.aborts, 0);
        }
    }

    #[test]
    fn dyn_mutex_mutual_exclusion_for_every_family() {
        for &name in ALL_LOCK_NAMES {
            let m = Arc::new(DynMutex::build(name, 0u64).unwrap());
            let total = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let m = Arc::clone(&m);
                let total = Arc::clone(&total);
                handles.push(thread::spawn(move || {
                    for _ in 0..500 {
                        *m.lock() += 1;
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*m.lock(), 2_000, "{name}: lost updates");
        }
    }
}
