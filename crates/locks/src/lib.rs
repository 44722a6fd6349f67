//! # lc-locks — lock primitives for the load-control suite
//!
//! This crate implements the synchronization primitives that the paper
//! *Decoupling Contention Management from Scheduling* (Johnson, Stoica,
//! Ailamaki, Mowry — ASPLOS 2010) evaluates against, plus the small amount of
//! shared infrastructure (spin backoff, thread parking, a generic `Mutex`
//! wrapper) that the load-control mechanism in `lc-core` builds on.
//!
//! ## Lock families
//!
//! * **Pure spinning** — [`TasLock`], [`TtasLock`] (test-and-test-and-set with
//!   exponential backoff), [`TicketLock`], [`McsLock`] (classic queue lock),
//!   and [`TimePublishedLock`] (a time-published queue lock in the spirit of
//!   TP-MCS: FIFO handoff, per-waiter heartbeats, preempted waiters are
//!   skipped at release time, and waiting can be aborted).
//! * **Spin-then-yield** — [`SpinThenYieldLock`] spins briefly and then calls
//!   `std::thread::yield_now`, using the OS scheduler as a backoff device.
//! * **Shared/exclusive and counting** — [`RawRwLock`] (a writer-preference
//!   reader-writer spinlock whose readers *and* writers can abort their
//!   waits) and [`RawSemaphore`] (an abortable counting semaphore; with one
//!   permit it doubles as a spin mutex).  These extend the abortable-waiting
//!   contract beyond mutual exclusion so the whole sync surface can be
//!   load-controlled.
//! * **Delegation** — [`FlatCombiningLock`] inverts waiting entirely:
//!   waiters *publish* their critical sections and the current combiner
//!   executes them (see the [`delegation`] module).  Abort = withdrawing the
//!   unexecuted published request, so load control composes with delegation
//!   exactly like with spinning.
//! * **Blocking** — [`BlockingLock`] parks every waiter (the behaviour of a
//!   classic heavyweight mutex), [`AdaptiveLock`] spins while the holder
//!   appears to be running and blocks otherwise (a Solaris-adaptive-mutex /
//!   futex-style spin-then-block hybrid).
//!
//! All primitives implement [`RawLock`], so they are interchangeable inside
//! the RAII [`Mutex`] wrapper and everywhere else in the suite (the
//! load-controlled lock in `lc-core`, the root integration tests, the
//! wall-clock benchmark in `perf/`).  Every spinning primitive
//! additionally implements [`AbortableLock`], the policy-parameterized
//! acquire path that load control plugs into ([`Mutex::lock_with`]), and
//! [`LockKind`] constructs any family from its stable name at runtime.
//!
//! [`Mutex`] is the suite's one guarded cell: [`DynMutex`] is a `Mutex`
//! over a family chosen by name, [`DelegationMutex`] one over flat
//! combining, and `lc-core`'s `LcMutex` one over its load-controlled lock.
//! Each hands out the same not-`Send` [`MutexGuard`].
//!
//! ## Quick example
//!
//! ```
//! use lc_locks::{Mutex, TicketLock};
//! use std::sync::Arc;
//! use std::thread;
//!
//! let counter = Arc::new(Mutex::<u64, TicketLock>::new(0));
//! let mut handles = Vec::new();
//! for _ in 0..4 {
//!     let counter = Arc::clone(&counter);
//!     handles.push(thread::spawn(move || {
//!         for _ in 0..1000 {
//!             *counter.lock() += 1;
//!         }
//!     }));
//! }
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(*counter.lock(), 4000);
//! ```
//!
//! And the same lock constructed **by name** — how benches, drivers and
//! examples select families with strings (a family's name is its whole
//! spec):
//!
//! ```
//! use lc_locks::registry::DynMutex;
//! use lc_locks::ALL_LOCK_NAMES;
//!
//! let m = DynMutex::build("ticket", 41u32).expect("a lock family");
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 42);
//! assert_eq!(m.raw().name(), "ticket");
//! assert!(ALL_LOCK_NAMES.contains(&"ticket"));
//! assert!(DynMutex::build("no-such-lock", 0u32).is_none());
//!
//! // A lock family is a name: it takes no parameters.
//! assert!(DynMutex::build("ttas-backoff(shift=8)", 0u32).is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod blocking;
pub mod delegation;
pub mod mcs;
pub mod mutex;
pub mod parker;
pub mod raw;
pub mod registry;
pub mod rwlock;
pub mod semaphore;
pub mod spin_then_yield;
pub mod spin_wait;
pub mod stats;
pub mod tas;
pub mod ticket;
pub mod time_published;
pub mod ttas;

pub use adaptive::{AdaptiveConfig, AdaptiveLock};
pub use blocking::BlockingLock;
pub use delegation::{DelegationMutex, DelegationStatsSnapshot, FlatCombiningLock};
pub use mcs::McsLock;
pub use mutex::{Mutex, MutexGuard};
pub use parker::{ParkResult, Parker};
pub use raw::{
    AbortAfter, AbortableLock, BoundedAbort, NeverAbort, RawLock, RawTryLock, SpinDecision,
    SpinPolicy,
};
pub use registry::{DynLock, DynMutex, LockKind, LockSpecError};
pub use rwlock::RawRwLock;
pub use semaphore::RawSemaphore;
pub use spin_then_yield::SpinThenYieldLock;
pub use spin_wait::Backoff;
pub use stats::{LockStats, LockStatsSnapshot, WaitHistogram, WaitObservation, WaitSnapshot};
pub use tas::TasLock;
pub use ticket::TicketLock;
pub use time_published::{now_ns, TimePublishedLock};
pub use ttas::TtasLock;

/// Names of every lock implementation in this crate, in a stable order.
///
/// Benchmarks iterate over this list so that adding a lock automatically adds
/// it to comparison tables; it is the names of [`LockKind::ALL`], whose
/// [`LockKind::build`] constructs any entry (a test checks the two agree).
pub const ALL_LOCK_NAMES: &[&str] = &[
    "tas",
    "ttas-backoff",
    "ticket",
    "mcs",
    "tp-queue",
    "spin-then-yield",
    "rw-lock",
    "semaphore",
    "blocking",
    "adaptive",
    "flat-combining",
];

/// Names of the lock families that implement [`AbortableLock`] — the
/// backends the load-controlled lock in `lc-core` composes with.
///
/// A subset of [`ALL_LOCK_NAMES`]: the purely blocking families park in the
/// kernel and cannot abort a wait.  A test checks it against the
/// [`LockKind`]s whose built lock reports [`DynLock::is_abortable`].
pub const ABORTABLE_LOCK_NAMES: &[&str] = &[
    "tas",
    "ttas-backoff",
    "ticket",
    "mcs",
    "tp-queue",
    "spin-then-yield",
    "rw-lock",
    "semaphore",
    "flat-combining",
];

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn all_lock_names_is_consistent() {
        assert_eq!(ALL_LOCK_NAMES.len(), 11);
        // No duplicates.
        let mut names: Vec<&str> = ALL_LOCK_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn abortable_names_are_a_subset_of_all_names() {
        for name in ABORTABLE_LOCK_NAMES {
            assert!(
                ALL_LOCK_NAMES.contains(name),
                "{name} not in ALL_LOCK_NAMES"
            );
        }
        assert!(!ABORTABLE_LOCK_NAMES.contains(&"blocking"));
        assert!(!ABORTABLE_LOCK_NAMES.contains(&"adaptive"));
    }
}
