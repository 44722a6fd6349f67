//! Every lock family in the crate, chosen at runtime by name.
//!
//! Benchmarks, workload drivers and examples refer to locks by their stable
//! names (`"mcs"`, `"tp-queue"`, …).  The set is closed: [`LockKind`] has
//! one variant per family, and [`LockKind::build`] constructs any of them
//! behind the object-safe [`DynLock`], so a driver that sweeps over families
//! holds a [`DynMutex`] — the one [`Mutex`] over a boxed [`DynLock`] —
//! instead of monomorphizing over every lock type.  A lock family takes no
//! parameters: its name is its whole spec, so `name()` is `name` and any key
//! is a [`LockSpecError::TakesNoKeys`].  Adding a lock is adding a variant
//! and its match arms.
//!
//! A [`DynLock`] is a [`RawTryLock`] with a dynamically dispatched
//! [`AbortableLock::lock_with`].  For the spinning primitives that is the
//! real abortable waiting loop; the purely blocking families
//! ([`BlockingLock`], [`AdaptiveLock`]) cannot abort a wait that parks in the
//! kernel, so theirs falls back to a plain `lock` (and reports
//! [`DynLock::is_abortable`] `false`).

use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinPolicy};
use crate::{
    AdaptiveLock, BlockingLock, FlatCombiningLock, McsLock, Mutex, RawRwLock, RawSemaphore,
    SpinThenYieldLock, TasLock, TicketLock, TimePublishedLock, TtasLock, ALL_LOCK_NAMES,
};
use std::fmt;
use std::str::FromStr;

/// Object-safe view of a lock: the [`RawTryLock`] surface plus a dynamically
/// dispatched [`AbortableLock::lock_with`].
pub trait DynLock: RawTryLock + fmt::Debug {
    /// Whether `lock_dyn` honors [`crate::SpinDecision::Abort`].
    fn is_abortable(&self) -> bool;

    /// Acquires the lock, consulting `policy` while waiting.
    ///
    /// For abortable locks this is the real policy-driven waiting loop; for
    /// blocking locks the policy is only notified of the final acquisition.
    fn lock_dyn(&self, policy: &mut dyn SpinPolicy);
}

/// The spinning families: `lock_dyn` is their abortable waiting loop.
macro_rules! abortable {
    ($($lock:ty),*) => {$(
        impl DynLock for $lock {
            fn is_abortable(&self) -> bool {
                true
            }

            fn lock_dyn(&self, policy: &mut dyn SpinPolicy) {
                self.lock_with(policy);
            }
        }
    )*};
}

abortable!(
    TasLock,
    TtasLock,
    TicketLock,
    McsLock,
    TimePublishedLock,
    SpinThenYieldLock,
    RawRwLock,
    RawSemaphore,
    FlatCombiningLock
);

/// The families whose waiting cannot be aborted (they park in the kernel
/// rather than spin).
macro_rules! non_abortable {
    ($($lock:ty),*) => {$(
        impl DynLock for $lock {
            fn is_abortable(&self) -> bool {
                false
            }

            fn lock_dyn(&self, policy: &mut dyn SpinPolicy) {
                self.lock();
                policy.on_acquired(0);
            }
        }
    )*};
}

non_abortable!(BlockingLock, AdaptiveLock);

/// The lock of a [`DynMutex`]: any family, chosen at runtime.  Its
/// `lock_with` is the family's [`DynLock::lock_dyn`], so for a blocking
/// family it waits without consulting the policy.
// SAFETY: every method forwards to the boxed lock, which upholds the
// contract itself.
unsafe impl RawLock for Box<dyn DynLock> {
    /// A lock of the paper's family, `tp-queue`.
    fn new() -> Self {
        LockKind::TpQueue.build()
    }

    fn lock(&self) {
        (**self).lock();
    }

    unsafe fn unlock(&self) {
        (**self).unlock();
    }

    fn is_locked(&self) -> bool {
        (**self).is_locked()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

// SAFETY: forwards to the boxed lock.
unsafe impl RawTryLock for Box<dyn DynLock> {
    fn try_lock(&self) -> bool {
        (**self).try_lock()
    }
}

// SAFETY: forwards to the boxed lock.
unsafe impl AbortableLock for Box<dyn DynLock> {
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        (**self).lock_dyn(&mut &mut *policy);
    }
}

/// A lock family: the closed set behind [`crate::ALL_LOCK_NAMES`].
///
/// ```
/// use lc_locks::registry::{LockKind, LockSpecError};
///
/// let lock = "ttas-backoff".parse::<LockKind>().unwrap().build();
/// assert_eq!(lock.name(), "ttas-backoff");
/// assert!(matches!(
///     "ttas-backoff(shift=8)".parse::<LockKind>(),
///     Err(LockSpecError::TakesNoKeys { .. })
/// ));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `tas`: test-and-set spinlock.
    Tas,
    /// `ttas-backoff`: test-and-test-and-set with exponential backoff.
    TtasBackoff,
    /// `ticket`: FIFO ticket spinlock.
    Ticket,
    /// `mcs`: the classic MCS queue lock.
    Mcs,
    /// `tp-queue`: the time-published queue lock (the paper's contention
    /// manager).
    TpQueue,
    /// `spin-then-yield`: spins briefly, then yields to the OS scheduler.
    SpinThenYield,
    /// `rw-lock`: the writer-preference rwlock in exclusive mode.
    RwLock,
    /// `semaphore`: the counting semaphore in binary (mutex) mode.
    Semaphore,
    /// `blocking`: parks every waiter (heavyweight mutex).
    Blocking,
    /// `adaptive`: spins while the holder runs, then parks.
    Adaptive,
    /// `flat-combining`: the flat-combining delegation lock.
    FlatCombining,
}

impl LockKind {
    /// Every family, in declaration order: the order of
    /// [`crate::ALL_LOCK_NAMES`], which holds their names.
    pub const ALL: [LockKind; 11] = [
        LockKind::Tas,
        LockKind::TtasBackoff,
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::TpQueue,
        LockKind::SpinThenYield,
        LockKind::RwLock,
        LockKind::Semaphore,
        LockKind::Blocking,
        LockKind::Adaptive,
        LockKind::FlatCombining,
    ];

    /// The family's stable name, which is also its whole spec.
    pub fn name(self) -> &'static str {
        ALL_LOCK_NAMES[self as usize]
    }

    /// A new, unlocked lock of this family.
    pub fn build(self) -> Box<dyn DynLock> {
        fn boxed<R: DynLock + 'static>() -> Box<dyn DynLock> {
            Box::new(R::new())
        }
        match self {
            LockKind::Tas => boxed::<TasLock>(),
            LockKind::TtasBackoff => boxed::<TtasLock>(),
            LockKind::Ticket => boxed::<TicketLock>(),
            LockKind::Mcs => boxed::<McsLock>(),
            LockKind::TpQueue => boxed::<TimePublishedLock>(),
            LockKind::SpinThenYield => boxed::<SpinThenYieldLock>(),
            // The rwlock and semaphore join through their exclusive/binary
            // modes, in which they satisfy the mutex contract.
            LockKind::RwLock => boxed::<RawRwLock>(),
            LockKind::Semaphore => boxed::<RawSemaphore>(),
            LockKind::Blocking => boxed::<BlockingLock>(),
            LockKind::Adaptive => boxed::<AdaptiveLock>(),
            LockKind::FlatCombining => boxed::<FlatCombiningLock>(),
        }
    }
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a lock spec was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockSpecError {
    /// The spec names no lock family.
    UnknownName {
        /// The unknown name.
        name: String,
    },
    /// The spec gives a key to a family, and no family takes keys.
    TakesNoKeys {
        /// The family.
        name: &'static str,
        /// The first key given.
        key: String,
    },
}

impl fmt::Display for LockSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockSpecError::UnknownName { name } => write!(
                f,
                "unknown lock {name:?}; registered locks: {}",
                ALL_LOCK_NAMES.join(", ")
            ),
            LockSpecError::TakesNoKeys { name, key } => {
                write!(f, "lock {name:?} takes no parameters (got {key:?})")
            }
        }
    }
}

impl std::error::Error for LockSpecError {}

/// Parses a bare family name; `name()` means `name`.  A spec with a key in
/// its parentheses is refused with the key named.
impl FromStr for LockKind {
    type Err = LockSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let spec = s.trim();
        let (name, body) = match spec.split_once('(') {
            Some((name, rest)) if rest.ends_with(')') => {
                (name.trim_end(), rest[..rest.len() - 1].trim())
            }
            _ => (spec, ""),
        };
        let Some(index) = ALL_LOCK_NAMES.iter().position(|&known| known == name) else {
            return Err(LockSpecError::UnknownName {
                name: name.to_string(),
            });
        };
        let kind = LockKind::ALL[index];
        match body.split([',', '=']).next().map(str::trim) {
            Some(key) if !key.is_empty() => Err(LockSpecError::TakesNoKeys {
                name: kind.name(),
                key: key.to_string(),
            }),
            _ => Ok(kind),
        }
    }
}

/// A value protected by a lock chosen at runtime by name: a [`Mutex`] over
/// a boxed [`DynLock`].
///
/// Benchmarks and drivers that sweep over lock families hold a `DynMutex`
/// per configuration instead of monomorphizing over every lock type.
///
/// ```
/// use lc_locks::registry::DynMutex;
/// let m = DynMutex::build("mcs", 41u64).expect("mcs is registered");
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 42);
/// assert_eq!(m.raw().name(), "mcs");
/// ```
pub type DynMutex<T> = Mutex<T, Box<dyn DynLock>>;

impl<T> DynMutex<T> {
    /// Wraps `value` behind the lock named by `spec`, or `None` when the spec
    /// does not name a lock family.  [`DynMutex::try_build`] reports *why* a
    /// spec was rejected.
    pub fn build(spec: &str, value: T) -> Option<Self> {
        Self::try_build(spec, value).ok()
    }

    /// Wraps `value` behind the lock named by `spec`, with the reason for a
    /// refusal surfaced.
    pub fn try_build(spec: &str, value: T) -> Result<Self, LockSpecError> {
        Ok(Self::with_raw(value, spec.parse::<LockKind>()?.build()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::AbortAfter;
    use crate::ABORTABLE_LOCK_NAMES;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn build(spec: &str) -> Box<dyn DynLock> {
        spec.parse::<LockKind>()
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .build()
    }

    #[test]
    fn abortable_lock_names_are_the_kinds_whose_lock_can_abort() {
        let abortable: Vec<&str> = LockKind::ALL
            .into_iter()
            .filter(|kind| kind.build().is_abortable())
            .map(LockKind::name)
            .collect();
        assert_eq!(abortable, ABORTABLE_LOCK_NAMES);
    }

    #[test]
    fn build_covers_every_name_and_reports_it_back() {
        for &name in ALL_LOCK_NAMES {
            let lock = build(name);
            assert_eq!(lock.name(), name);
            assert_eq!(build(&format!("{name}( )")).name(), name);
            lock.lock();
            assert!(!lock.try_lock(), "{name}: try_lock must fail while held");
            unsafe { lock.unlock() };
            assert!(lock.try_lock(), "{name}: try_lock must succeed when free");
            unsafe { lock.unlock() };
        }
    }

    #[test]
    fn build_rejects_unknown_names() {
        assert!(matches!(
            "no-such-lock".parse::<LockKind>(),
            Err(LockSpecError::UnknownName { .. })
        ));
        assert!(DynMutex::build("no-such-lock", 0u8).is_none());
    }

    #[test]
    fn spinning_families_are_abortable_blocking_ones_are_not() {
        for &name in ALL_LOCK_NAMES {
            let expect_abortable = !matches!(name, "blocking" | "adaptive");
            assert_eq!(build(name).is_abortable(), expect_abortable, "{name}");
        }
    }

    #[test]
    fn lock_with_falls_back_to_plain_lock_for_blocking_families() {
        for name in ["blocking", "adaptive"] {
            let lock = build(name);
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
