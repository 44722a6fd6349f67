//! # lc-workloads — the evaluation workloads
//!
//! This crate builds the three applications the paper evaluates (§4) in two
//! forms:
//!
//! * **Simulator scenarios** ([`scenarios`]): transaction mixes plus lock sets
//!   for the single-lock microbenchmark, a synthetic Raytrace-like irregular
//!   renderer, the TM-1 telecom workload and the TPC-C order-processing
//!   workload, parameterised by the contention-management policy under test.
//!   These drive every figure reproduction in `lc-bench`.
//! * **Real-thread drivers** ([`drivers`]): a host-machine microbenchmark that
//!   exercises the actual lock implementations from `lc-locks`/`lc-core`
//!   (used by the examples and the integration tests).
//!
//! The simulator scenarios model the *lock footprint* of each application —
//! how many latches a transaction touches, how long it holds them, how much
//! computation happens between acquisitions, and where threads block for I/O
//! or logical database locks — which is what determines the contention and
//! scheduling behaviour the paper studies.
//!
//! For the async waiting plane there is additionally a minimal,
//! dependency-free [`executor`] (a fixed worker pool plus [`block_on`]) and
//! an async oversubscription driver, so the `acquire_async` path can be
//! exercised end to end without pulling in an external runtime:
//!
//! ```
//! use lc_workloads::executor::{block_on, MiniPool};
//!
//! // Drive one future on the calling thread…
//! assert_eq!(block_on(async { 6 * 7 }), 42);
//!
//! // …or multiplex many tasks over a small fixed pool.
//! let pool = MiniPool::new(2);
//! let counter = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
//! for _ in 0..8 {
//!     let counter = std::sync::Arc::clone(&counter);
//!     pool.spawn(async move {
//!         counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!     });
//! }
//! pool.wait_idle();
//! assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod drivers;
pub mod executor;
pub mod scenarios;
pub mod structures;

pub use drivers::{
    AsyncMicrobenchConfig, MicrobenchConfig, MicrobenchResult, RwMicrobenchConfig,
    RwMicrobenchResult,
};
pub use executor::{block_on, MiniPool, WorkerGuard};
pub use scenarios::{AppScenario, ScenarioKind};
pub use structures::{
    BucketMap, DlockBenchConfig, DlockRunResult, FifoQueue, ProportionalCounter, StructureKind,
    ALL_STRUCTURE_NAMES,
};
