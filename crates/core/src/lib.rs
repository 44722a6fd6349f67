//! # lc-core — load control for lock-based synchronization
//!
//! This crate is the reproduction of the central contribution of
//! *Decoupling Contention Management from Scheduling* (Johnson, Stoica,
//! Ailamaki, Mowry — ASPLOS 2010): a **load control** mechanism that lets
//! applications keep the fast lock handoffs of spinning while remaining
//! robust to overload, by separating two concerns that conventional mutexes
//! conflate:
//!
//! * **Contention management** stays on the critical path and always spins
//!   (any [`lc_locks::AbortableLock`] waiting loop; the paper's
//!   time-published queue lock is the default backend).
//! * **Load management** happens off the critical path: a controller daemon
//!   measures the process's runnable-thread count every few milliseconds and
//!   publishes a *sleep target*; spinning threads observe the target through
//!   a shared [`SleepSlotBuffer`], claim a slot, leave the lock queue and
//!   park until the controller clears their slot, load drops, or a timeout
//!   expires.
//!
//! Because only *spinning* threads are ever descheduled, removing them never
//! delays the critical path, and the lock holders responsible for the
//! spinning get a hardware context to finish on — which is precisely what
//! prevents the priority-inversion collapse of ordinary spinlocks past 100 %
//! load (paper Figures 1, 3 and 11).
//!
//! The mechanism manages **two waiting planes** through one buffer and one
//! controller: threads park through [`LoadGate`] (the sync plane used by
//! every `Lc*` primitive), and async tasks suspend through
//! [`AsyncLoadGate`] — a park point that is a `Future`, waiting through the
//! same [`SlotWait`] episode as a thread and powering
//! [`LcSemaphore::acquire_async`].  [`LoadGate`] is also the
//! [`lc_locks::SpinPolicy`] a raw lock's `lock_with` takes, and
//! [`LoadGate::pause`] parks a user spin loop: a wait for a predicate (a
//! flag, a count, a queue turning non-empty) is a `pause` loop.  See `ARCHITECTURE.md` at the repository root for the
//! full layer map and extension recipes.
//!
//! ## Quick start
//!
//! ```
//! use lc_core::{LcMutex, LoadControl, LoadControlConfig};
//! use std::sync::Arc;
//! use std::thread;
//!
//! // One controller per process (here: pretend the machine has 4 contexts).
//! let control = LoadControl::start(LoadControlConfig::for_capacity(4));
//! let counter = Arc::new(LcMutex::<u64>::new_with(0, &control));
//!
//! let mut handles = Vec::new();
//! for _ in 0..8 {
//!     let counter = Arc::clone(&counter);
//!     let control = Arc::clone(&control);
//!     handles.push(thread::spawn(move || {
//!         let _worker = control.register_worker();
//!         for _ in 0..1_000 {
//!             *counter.lock() += 1;
//!         }
//!     }));
//! }
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(*counter.lock(), 8_000);
//! ```
//!
//! The control plane — decision policy, shard-target splitter, shard
//! count, load sampler and wake order — is one [`LoadControlSpec`], parsed
//! from one source, a string (a `key = value` file reads the same way), with
//! each choice a closed enum spelled in the `name(key=value)` grammar of
//! [`spec`].  [`LoadControl::from_spec`] is the one constructor that reads
//! it:
//!
//! ```
//! use lc_core::spec::LoadControlSpec;
//! use lc_core::{LoadControl, LoadControlConfig};
//!
//! let spec: LoadControlSpec =
//!     "policy=hysteresis(alpha=0.3, deadband=2); splitter=load-weighted(ewma=0.25); shards=2"
//!         .parse()
//!         .unwrap();
//! let control = LoadControl::from_spec(LoadControlConfig::for_capacity(8), &spec).unwrap();
//! assert_eq!(control.spec().policy.name(), "hysteresis");
//! assert_eq!(control.buffer().shard_count(), 2);
//! // The control reports the spec it was built from, in canonical form.
//! assert_eq!(control.spec().policy.to_string(), "hysteresis(alpha=0.3, up=2)");
//! control.start_controller();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod async_gate;
pub mod config;
pub mod controller;
pub mod lc_lock;
pub mod lc_rwlock;
pub mod lc_semaphore;
pub mod policy;
pub mod slots;
pub mod spec;
pub mod thread_ctx;
pub mod time;

pub use async_gate::AsyncLoadGate;
pub use config::{LoadControlConfig, WakeOrder};
pub use controller::{ControllerStats, LoadControl, Substitutes};
pub use lc_lock::{LcLock, LcMutex, LcMutexGuard, TpLcLock};
pub use lc_rwlock::{LcRwLock, LcRwLockReadGuard, LcRwLockWriteGuard};
pub use lc_semaphore::{AcquireAsync, LcSemaphore, LcSemaphoreAsyncPermit, LcSemaphorePermit};
pub use policy::{
    AutotuneInner, AutotuneObjective, AutotunePolicy, EvenSplitter, FixedPolicy, HysteresisPolicy,
    LatencyPolicy, LoadWeightedSplitter, PaperPolicy, PidPolicy, Policy, PolicyInputs, PolicySpec,
    SplitterSpec, TargetSplitter,
};
pub use slots::{ClaimOutcome, ShardSnapshot, SleepSlotBuffer, SleeperId, SlotBufferStats};
pub use spec::{LoadControlSpec, ParsedSpec, SamplerSpec, SpecError};
pub use thread_ctx::{LoadGate, WorkerRegistration};
pub use time::{
    ParkOps, RealClock, SlotHost, SlotWait, ThreadPark, TimeSource, VirtualClock, WaitOutcome,
    WaitPoll,
};

// Re-export the pieces of the substrate crates that appear in this crate's
// public API, so downstream users only need one import path.
pub use lc_accounting as accounting;
pub use lc_locks as locks;
