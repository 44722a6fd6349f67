//! A runtime registry of every lock family in the crate.
//!
//! Benchmarks, workload drivers and configuration files refer to locks by
//! their stable string names (`"mcs"`, `"tp-queue"`, …) — optionally with
//! tuning parameters in the shared [`lc_spec`] grammar, e.g.
//! `ttas-backoff(max_spins=1024)` or `tp-queue(patience_us=500)`.  Instead of
//! each consumer hand-enumerating concrete types in a `match`, the
//! [`LOCK_SPECS`] registry constructs any lock from its spec string behind
//! the object-safe [`DynLock`] adapter — so adding a lock to the suite means
//! adding one [`SpecEntry`], and every bench table, driver and scenario picks
//! it up automatically.
//!
//! [`DynLock`] mirrors the [`RawLock`] + [`RawTryLock`] + [`AbortableLock`]
//! surface without generics.  For the spinning primitives, `lock_with`
//! forwards to the real abortable waiting loop; the purely blocking families
//! ([`BlockingLock`], [`AdaptiveLock`]) cannot abort a wait that parks in the
//! kernel, so their adapter falls back to a plain `lock` (and reports
//! [`DynLock::is_abortable`] `false`).

use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinPolicy};
use crate::spin_wait::Backoff;
use crate::time_published::TpConfig;
use crate::{
    AdaptiveConfig, AdaptiveLock, BlockingLock, FlatCombiningLock, McsLock, RawRwLock,
    RawSemaphore, SpinThenYieldLock, TasLock, TicketLock, TimePublishedLock, TtasLock,
};
use lc_spec::{ParsedSpec, Registry, SpecEntry, SpecError};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

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

    /// The lock's stable registry name.
    fn name(&self) -> &'static str;

    /// The canonical spec of this lock's live configuration: the name plus
    /// every parameter that differs from the entry's default, in the shared
    /// `name(key=value)` grammar.  Feeding the rendered spec back to
    /// [`LOCK_SPECS`] reconstructs an identically configured lock.
    fn spec(&self) -> ParsedSpec;

    /// Whether `lock_with` honors [`crate::SpinDecision::Abort`].
    fn is_abortable(&self) -> bool;

    /// Acquires the lock, consulting `policy` while waiting.
    ///
    /// For abortable locks this is the real policy-driven waiting loop; for
    /// blocking locks the policy is only notified of the final acquisition.
    fn lock_with(&self, policy: &mut dyn SpinPolicy);
}

/// Adapter giving an [`AbortableLock`] the [`DynLock`] interface.
struct Abortable<R> {
    raw: R,
    spec: ParsedSpec,
}

impl<R: AbortableLock + RawTryLock + fmt::Debug> DynLock for Abortable<R> {
    fn lock(&self) {
        self.raw.lock();
    }

    unsafe fn unlock(&self) {
        self.raw.unlock();
    }

    fn try_lock(&self) -> bool {
        self.raw.try_lock()
    }

    fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    fn name(&self) -> &'static str {
        self.raw.name()
    }

    fn spec(&self) -> ParsedSpec {
        self.spec.clone()
    }

    fn is_abortable(&self) -> bool {
        true
    }

    fn lock_with(&self, policy: &mut dyn SpinPolicy) {
        self.raw.lock_with(policy);
    }
}

impl<R: fmt::Debug> fmt::Debug for Abortable<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.raw.fmt(f)
    }
}

/// Adapter for lock families whose waiting cannot be aborted (they park in
/// the kernel rather than spin).
struct NonAbortable<R> {
    raw: R,
    spec: ParsedSpec,
}

impl<R: RawLock + RawTryLock + fmt::Debug> DynLock for NonAbortable<R> {
    fn lock(&self) {
        self.raw.lock();
    }

    unsafe fn unlock(&self) {
        self.raw.unlock();
    }

    fn try_lock(&self) -> bool {
        self.raw.try_lock()
    }

    fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    fn name(&self) -> &'static str {
        self.raw.name()
    }

    fn spec(&self) -> ParsedSpec {
        self.spec.clone()
    }

    fn is_abortable(&self) -> bool {
        false
    }

    fn lock_with(&self, policy: &mut dyn SpinPolicy) {
        self.raw.lock();
        policy.on_acquired(0);
    }
}

impl<R: fmt::Debug> fmt::Debug for NonAbortable<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.raw.fmt(f)
    }
}

fn abortable<R>(raw: R, spec: ParsedSpec) -> Box<dyn DynLock>
where
    R: AbortableLock + RawTryLock + fmt::Debug + 'static,
{
    Box::new(Abortable { raw, spec })
}

fn non_abortable<R>(raw: R, spec: ParsedSpec) -> Box<dyn DynLock>
where
    R: RawLock + RawTryLock + fmt::Debug + 'static,
{
    Box::new(NonAbortable { raw, spec })
}

fn build_ttas(spec: &ParsedSpec) -> Result<Box<dyn DynLock>, SpecError> {
    // `max_spins` is the longest backoff pause, in spin-loop hints; the lock
    // tunes in powers of two, so the value is rounded up to the next one.
    // `Backoff` caps the shift at 20, so larger requests are rejected rather
    // than silently clamped (the reported spec must match the live lock).
    let default = 1u64 << Backoff::DEFAULT_MAX_SHIFT;
    let max_spins = spec.param_or("max_spins", default)?;
    if max_spins == 0 {
        return Err(spec.invalid_value("max_spins", "must be at least 1"));
    }
    if max_spins > 1 << 20 {
        return Err(spec.invalid_value("max_spins", "must be at most 2^20 (1048576)"));
    }
    let shift = 63 - max_spins.next_power_of_two().leading_zeros();
    let canonical = if 1u64 << shift == default {
        ParsedSpec::bare("ttas-backoff")
    } else {
        ParsedSpec::bare("ttas-backoff").with_param("max_spins", 1u64 << shift)
    };
    Ok(abortable(
        TtasLock::with_max_backoff_shift(shift),
        canonical,
    ))
}

fn build_tp_queue(spec: &ParsedSpec) -> Result<Box<dyn DynLock>, SpecError> {
    let defaults = TpConfig::default();
    let patience_us = spec.param_or("patience_us", defaults.patience.as_micros() as u64)?;
    let publish_every = spec.param_or("publish_every", defaults.publish_every)?;
    let time_publishing = spec.param_or("time_publishing", defaults.time_publishing)?;
    if publish_every == 0 {
        return Err(spec.invalid_value("publish_every", "must be at least 1"));
    }
    let config = TpConfig {
        patience: Duration::from_micros(patience_us),
        publish_every,
        time_publishing,
    };
    let mut canonical = ParsedSpec::bare("tp-queue");
    if config.patience != defaults.patience {
        canonical = canonical.with_param("patience_us", patience_us);
    }
    if config.publish_every != defaults.publish_every {
        canonical = canonical.with_param("publish_every", publish_every);
    }
    if config.time_publishing != defaults.time_publishing {
        canonical = canonical.with_param("time_publishing", time_publishing);
    }
    Ok(abortable(TimePublishedLock::with_config(config), canonical))
}

fn build_adaptive(spec: &ParsedSpec) -> Result<Box<dyn DynLock>, SpecError> {
    let defaults = AdaptiveConfig::default();
    let spin_budget = spec.param_or("spin_budget", defaults.spin_budget)?;
    let park_timeout_ms =
        spec.param_or("park_timeout_ms", defaults.park_timeout.as_millis() as u64)?;
    let config = AdaptiveConfig {
        spin_budget,
        park_timeout: Duration::from_millis(park_timeout_ms),
    };
    let mut canonical = ParsedSpec::bare("adaptive");
    if config.spin_budget != defaults.spin_budget {
        canonical = canonical.with_param("spin_budget", spin_budget);
    }
    if config.park_timeout != defaults.park_timeout {
        canonical = canonical.with_param("park_timeout_ms", park_timeout_ms);
    }
    Ok(non_abortable(AdaptiveLock::with_config(config), canonical))
}

/// Every lock family in the crate, keyed by the stable names of
/// [`crate::ALL_LOCK_NAMES`] and constructed through the shared
/// `name(key=value)` spec grammar.
///
/// ```
/// use lc_locks::registry::LOCK_SPECS;
///
/// let lock = LOCK_SPECS.build("ttas-backoff(max_spins=256)").unwrap();
/// assert_eq!(lock.name(), "ttas-backoff");
/// assert_eq!(lock.spec().to_string(), "ttas-backoff(max_spins=256)");
/// assert!(LOCK_SPECS.build("ttas-backoff(bogus=1)").is_err());
/// ```
pub static LOCK_SPECS: Registry<Box<dyn DynLock>> = Registry::new(
    "lock",
    &[
        SpecEntry {
            name: "tas",
            keys: &[],
            summary: "test-and-set spinlock",
            build: |_, spec| Ok(abortable(<TasLock as RawLock>::new(), spec.clone())),
        },
        SpecEntry {
            name: "ttas-backoff",
            keys: &["max_spins"],
            summary: "test-and-test-and-set with exponential backoff (max_spins = longest pause, rounded up to a power of two)",
            build: |_, spec| build_ttas(spec),
        },
        SpecEntry {
            name: "ticket",
            keys: &[],
            summary: "FIFO ticket spinlock",
            build: |_, spec| Ok(abortable(<TicketLock as RawLock>::new(), spec.clone())),
        },
        SpecEntry {
            name: "mcs",
            keys: &[],
            summary: "classic MCS queue lock",
            build: |_, spec| Ok(abortable(<McsLock as RawLock>::new(), spec.clone())),
        },
        SpecEntry {
            name: "tp-queue",
            keys: &["patience_us", "publish_every", "time_publishing"],
            summary: "time-published queue lock (the paper's contention manager)",
            build: |_, spec| build_tp_queue(spec),
        },
        SpecEntry {
            name: "spin-then-yield",
            keys: &[],
            summary: "spins briefly, then yields to the OS scheduler",
            build: |_, spec| {
                Ok(abortable(<SpinThenYieldLock as RawLock>::new(), spec.clone()))
            },
        },
        // The rwlock and semaphore join through their exclusive/binary modes,
        // in which they satisfy the mutex contract the registry promises.
        SpecEntry {
            name: "rw-lock",
            keys: &[],
            summary: "writer-preference rwlock in exclusive mode",
            build: |_, spec| Ok(abortable(<RawRwLock as RawLock>::new(), spec.clone())),
        },
        SpecEntry {
            name: "semaphore",
            keys: &[],
            summary: "counting semaphore in binary (mutex) mode",
            build: |_, spec| Ok(abortable(<RawSemaphore as RawLock>::new(), spec.clone())),
        },
        SpecEntry {
            name: "blocking",
            keys: &[],
            summary: "parks every waiter (heavyweight mutex)",
            build: |_, spec| Ok(non_abortable(<BlockingLock as RawLock>::new(), spec.clone())),
        },
        SpecEntry {
            name: "adaptive",
            keys: &["spin_budget", "park_timeout_ms"],
            summary: "spins while the holder runs, then parks",
            build: |_, spec| build_adaptive(spec),
        },
        SpecEntry {
            name: "flat-combining",
            keys: &[],
            summary: "flat-combining delegation lock (publication array, combiner scan)",
            build: |_, spec| Ok(abortable(<FlatCombiningLock as RawLock>::new(), spec.clone())),
        },
    ],
);

/// Constructs the lock described by `spec` (a bare name or a parameterized
/// `name(key=value, ...)` spec).  Every name in [`crate::ALL_LOCK_NAMES`] is
/// covered; unknown names, unknown keys and malformed values are explicit
/// errors.
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
///
/// // Parameterized specs use the same construction path.
/// let tuned = DynMutex::build("ttas-backoff(max_spins=256)", 0u64).unwrap();
/// assert_eq!(tuned.spec().to_string(), "ttas-backoff(max_spins=256)");
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

    /// Wraps `value` behind the lock described by `spec` (a bare name or a
    /// parameterized `name(key=value, ...)` spec), or `None` when the spec
    /// does not describe a registered lock.  [`DynMutex::try_build`] reports
    /// *why* a spec was rejected.
    pub fn build(spec: &str, value: T) -> Option<Self> {
        Self::try_build(spec, value).ok()
    }

    /// Wraps `value` behind the lock described by `spec`, with parse and
    /// registry errors surfaced.
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

    /// The canonical spec of the underlying lock (see [`DynLock::spec`]).
    pub fn spec(&self) -> ParsedSpec {
        self.raw.spec()
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
            assert_eq!(lock.spec(), lc_spec::ParsedSpec::bare(name));
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
    fn parameterized_specs_configure_locks() {
        let lock = build_spec("ttas-backoff(max_spins=100)").unwrap();
        // 100 rounds up to the power of two the backoff actually uses.
        assert_eq!(lock.spec().to_string(), "ttas-backoff(max_spins=128)");
        let lock = build_spec("tp-queue(patience_us=500, publish_every=16)").unwrap();
        assert_eq!(
            lock.spec().to_string(),
            "tp-queue(patience_us=500, publish_every=16)"
        );
        let lock = build_spec("adaptive(spin_budget=64)").unwrap();
        assert_eq!(lock.spec().to_string(), "adaptive(spin_budget=64)");
        assert!(!lock.is_abortable());
    }

    #[test]
    fn parameterized_spec_round_trips_rebuild_the_same_lock() {
        for spec in [
            "ttas-backoff(max_spins=256)",
            "tp-queue(patience_us=500, publish_every=16, time_publishing=false)",
            "adaptive(spin_budget=64, park_timeout_ms=50)",
        ] {
            let built = build_spec(spec).unwrap();
            let reported = built.spec().to_string();
            assert_eq!(reported, spec, "canonical spelling drifted");
            let rebuilt = build_spec(&reported).unwrap();
            assert_eq!(rebuilt.spec(), built.spec());
        }
    }

    #[test]
    fn bad_parameters_are_explicit_errors() {
        assert!(matches!(
            build_spec("ttas-backoff(max_spins=0)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build_spec("ttas-backoff(max_spins=lots)"),
            Err(SpecError::InvalidValue { .. })
        ));
        // Above the Backoff shift cap (2^20) must be rejected, not silently
        // clamped — including values that would overflow next_power_of_two.
        assert!(matches!(
            build_spec("ttas-backoff(max_spins=16777216)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build_spec("ttas-backoff(max_spins=18446744073709551615)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(build_spec("ttas-backoff(max_spins=1048576)").is_ok());
        assert!(matches!(
            build_spec("tp-queue(publish_every=0)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build_spec("ticket(max_spins=1)"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            build_spec("tp-queue(patience=500)"),
            Err(SpecError::UnknownKey { .. })
        ));
        // Flat combining has nothing to set: no election strategy, no pass
        // count.
        assert!(LOCK_SPECS.entry("flat-combining").unwrap().keys.is_empty());
        assert!(matches!(
            build_spec("flat-combining(strategy=first)"),
            Err(SpecError::UnknownKey { .. })
        ));
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
