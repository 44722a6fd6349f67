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
//! [`AsyncLoadGate`] — a park point that is a `Future`, powering
//! [`LcSemaphore::acquire_async`], [`LcMutex::lock_async`] and
//! [`AsyncSpinHook`].  See `ARCHITECTURE.md` at the repository root for the
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
//! The control plane is selected by **spec string** through the builder —
//! decision policy, shard-target splitter, and daemon autostart in one
//! expression, with parameters in the shared `name(key=value)` grammar of
//! [`spec`]:
//!
//! ```
//! use lc_core::{LoadControl, LoadControlConfig};
//!
//! let control = LoadControl::builder(
//!         LoadControlConfig::for_capacity(8).with_shards(2))
//!     .policy_spec("hysteresis(alpha=0.3, deadband=2)").expect("registered policy")
//!     .splitter_spec("load-weighted(ewma=0.25)").expect("registered splitter")
//!     .build();
//! assert_eq!(control.policy_name(), "hysteresis");
//! assert_eq!(control.splitter_name(), "load-weighted");
//! assert_eq!(control.buffer().shard_count(), 2);
//! // The live configuration reports back as a canonical spec string.
//! assert_eq!(control.spec().splitter.to_string(), "load-weighted(ewma=0.25)");
//! ```
//!
//! Whole control planes are described declaratively by
//! [`LoadControlSpec`] — parsed from a string, a `key = value` config file,
//! or the `LC_POLICY` / `LC_SPLITTER` / `LC_SHARDS` / `LC_SAMPLER`
//! environment variables — and built with [`LoadControl::from_spec`]:
//!
//! ```
//! use lc_core::spec::LoadControlSpec;
//! use lc_core::{LoadControl, LoadControlConfig};
//!
//! let spec: LoadControlSpec = "policy=pid(kp=0.5, ki=0.1); shards=2".parse().unwrap();
//! let control = LoadControl::from_spec(LoadControlConfig::for_capacity(8), &spec).unwrap();
//! assert_eq!(control.policy_name(), "pid");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod async_gate;
pub mod config;
pub mod controller;
pub mod lc_condvar;
pub mod lc_lock;
pub mod lc_rwlock;
pub mod lc_semaphore;
pub mod load_backoff;
pub mod policy;
pub mod slots;
pub mod spec;
pub mod spin_hook;
pub mod thread_ctx;
pub mod time;

pub use async_gate::{AsyncLoadGate, AsyncSpinHook};
pub use config::{LoadControlConfig, WakeOrder};
pub use controller::{ControllerStats, LoadControl, LoadControlBuilder};
pub use lc_condvar::LcCondvar;
pub use lc_lock::{LcLock, LcMutex, LcMutexAsyncGuard, LcMutexGuard, TpLcLock};
pub use lc_rwlock::{LcRwLock, LcRwLockReadGuard, LcRwLockWriteGuard};
pub use lc_semaphore::{AcquireAsync, LcSemaphore, LcSemaphoreAsyncPermit, LcSemaphorePermit};
pub use load_backoff::LoadTriggeredBackoffPolicy;
pub use policy::{
    AutotuneInner, AutotuneObjective, AutotunePolicy, ControlPolicy, EvenSplitter, FixedPolicy,
    HysteresisPolicy, LatencyPolicy, LoadWeightedSplitter, PaperPolicy, PidPolicy, PolicyInputs,
    TargetSplitter, POLICY_SPECS, SPLITTER_SPECS,
};
pub use slots::{ClaimOutcome, ShardSnapshot, SleepSlotBuffer, SleeperId, SlotBufferStats};
pub use spec::{LoadControlSpec, ParsedSpec, SpecError};
pub use spin_hook::SpinHook;
pub use thread_ctx::{LoadControlPolicy, LoadGate, WorkerRegistration};
pub use time::{
    ParkOps, RealClock, SlotHost, SlotWait, ThreadPark, TimeSource, VirtualClock, WaitOutcome,
    WaitPoll,
};

// Re-export the pieces of the substrate crates that appear in this crate's
// public API, so downstream users only need one import path.
pub use lc_accounting as accounting;
pub use lc_locks as locks;
