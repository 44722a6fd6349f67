//! The load-controlled reader-writer lock.
//!
//! Same construction as [`crate::LcLock`], applied to shared/exclusive mode:
//! the raw [`RawRwLock`] manages contention (writer preference, one CAS per
//! reader entry), and both waiting loops run the waiter-side gate of the
//! shared [`LoadControl`] — so under overload, spinning readers *and* writers
//! claim sleep slots, abort their waits (writers withdraw their announcement
//! first, see [`lc_locks::rwlock`]), park, and retry once the controller
//! clears them.  Load management stays identical across the whole sync
//! surface, which is the paper's decoupling claim extended beyond mutexes.

use crate::controller::LoadControl;
use crate::thread_ctx::{acquire, release, try_acquire};
use lc_locks::RawRwLock;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A value protected by a load-controlled reader-writer lock.
///
/// ```
/// use lc_core::{LcRwLock, LoadControl, LoadControlConfig};
///
/// let control = LoadControl::new(LoadControlConfig::for_capacity(2));
/// let cache = LcRwLock::new_with(vec![1, 2, 3], &control);
/// assert_eq!(cache.read().len(), 3);
/// cache.write().push(4);
/// assert_eq!(cache.read().len(), 4);
/// ```
pub struct LcRwLock<T: ?Sized> {
    control: Arc<LoadControl>,
    raw: RawRwLock,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for LcRwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for LcRwLock<T> {}

impl<T> LcRwLock<T> {
    /// Wraps `value`, attaching the lock to the global [`LoadControl`].
    pub fn new(value: T) -> Self {
        Self::new_with(value, &LoadControl::global())
    }

    /// Wraps `value`, attaching the lock to `control`.
    pub fn new_with(value: T, control: &Arc<LoadControl>) -> Self {
        Self {
            control: Arc::clone(control),
            raw: RawRwLock::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> LcRwLock<T> {
    /// Acquires the lock in shared mode.
    pub fn read(&self) -> LcRwLockReadGuard<'_, T> {
        acquire(&self.control, |policy| self.raw.read_with(policy));
        LcRwLockReadGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts to acquire the lock in shared mode without waiting.
    pub fn try_read(&self) -> Option<LcRwLockReadGuard<'_, T>> {
        try_acquire(&self.control, || self.raw.try_read()).then(|| LcRwLockReadGuard {
            lock: self,
            _not_send: PhantomData,
        })
    }

    /// Acquires the lock in exclusive mode.
    pub fn write(&self) -> LcRwLockWriteGuard<'_, T> {
        acquire(&self.control, |policy| self.raw.write_with(policy));
        LcRwLockWriteGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts to acquire the lock in exclusive mode without waiting.
    pub fn try_write(&self) -> Option<LcRwLockWriteGuard<'_, T>> {
        try_acquire(&self.control, || self.raw.try_write()).then(|| LcRwLockWriteGuard {
            lock: self,
            _not_send: PhantomData,
        })
    }

    /// The [`LoadControl`] instance this lock participates in.
    pub fn control(&self) -> &Arc<LoadControl> {
        &self.control
    }

    /// The underlying raw reader-writer lock (diagnostics).
    pub fn raw(&self) -> &RawRwLock {
        &self.raw
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for LcRwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LcRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("LcRwLock").field("data", &&*g).finish(),
            None => f
                .debug_struct("LcRwLock")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// Shared-mode RAII guard for [`LcRwLock`].
///
/// Deliberately `!Send`: the hold count it maintains lives in the acquiring
/// thread's load-control context, so the guard must drop where it was
/// acquired.
pub struct LcRwLockReadGuard<'a, T: ?Sized> {
    lock: &'a LcRwLock<T>,
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for LcRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for LcRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release(&self.lock.control, || unsafe {
            self.lock.raw.unlock_read()
        });
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LcRwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive-mode RAII guard for [`LcRwLock`].
///
/// Deliberately `!Send`, like [`LcRwLockReadGuard`].
pub struct LcRwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a LcRwLock<T>,
    _not_send: PhantomData<*const ()>,
}

impl<T: ?Sized> Deref for LcRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for LcRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for LcRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(&self.lock.control, || unsafe {
            self.lock.raw.unlock_write()
        });
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LcRwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadControlConfig;
    use crate::policy::FixedPolicy;
    use std::thread;
    use std::time::Duration;

    fn manual_control(capacity: usize) -> Arc<LoadControl> {
        LoadControl::with_policy(
            LoadControlConfig::for_capacity(capacity),
            Box::new(FixedPolicy::manual()),
        )
    }

    #[test]
    fn readers_share_writers_exclude() {
        let lc = manual_control(4);
        let rw = LcRwLock::new_with(5u32, &lc);
        let r1 = rw.read();
        let r2 = rw.read();
        assert_eq!(*r1 + *r2, 10);
        assert!(rw.try_write().is_none());
        drop(r1);
        drop(r2);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 6);
    }

    #[test]
    fn writers_keep_invariants_visible_to_readers() {
        let lc = manual_control(64);
        let rw = Arc::new(LcRwLock::new_with((0u64, 0u64), &lc));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let rw = Arc::clone(&rw);
            let lc = Arc::clone(&lc);
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..2_000 {
                    let mut g = rw.write();
                    g.0 += 1;
                    g.1 += 1;
                }
            }));
        }
        for _ in 0..4 {
            let rw = Arc::clone(&rw);
            let lc = Arc::clone(&lc);
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..2_000 {
                    let g = rw.read();
                    assert_eq!(g.0, g.1, "readers observed a torn write");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let g = rw.read();
        assert_eq!((g.0, g.1), (4_000, 4_000));
        // No overload was ever signalled, so nobody should have slept.
        assert_eq!(lc.buffer().stats().ever_slept, 0);
    }

    #[test]
    fn consistency_survives_forced_overload() {
        let lc = LoadControl::builder(
            LoadControlConfig::for_capacity(1)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        )
        .start_daemon()
        .build();
        let rw = Arc::new(LcRwLock::new_with(0u64, &lc));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let rw = Arc::clone(&rw);
            let lc = Arc::clone(&lc);
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..500 {
                    *rw.write() += 1;
                }
            }));
        }
        for _ in 0..3 {
            let rw = Arc::clone(&rw);
            let lc = Arc::clone(&lc);
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                let mut last = 0;
                for _ in 0..500 {
                    let v = *rw.read();
                    assert!(v >= last, "counter went backwards");
                    last = v;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        lc.stop_controller();
        assert_eq!(*rw.read(), 1_500);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn guards_track_hold_count_against_sleeping() {
        let lc = manual_control(1);
        lc.set_sleep_target(4);
        let rw = LcRwLock::new_with(0u8, &lc);
        let g = rw.read();
        // While holding a read guard the thread must refuse to claim a slot.
        let mut gate = crate::thread_ctx::LoadGate::new(&lc);
        assert!(!gate.try_claim());
        drop(g);
        assert!(gate.try_claim());
        gate.cancel();
    }

    #[test]
    fn debug_into_inner_get_mut() {
        let lc = manual_control(2);
        let mut rw = LcRwLock::new_with(String::from("a"), &lc);
        let _ = format!("{rw:?}");
        rw.get_mut().push('b');
        let g = rw.write();
        assert!(format!("{rw:?}").contains("locked"));
        drop(g);
        assert_eq!(rw.into_inner(), "ab");
    }
}
