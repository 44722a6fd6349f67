//! # lc-workloads — the evaluation workloads
//!
//! Real threads on the host machine, over the actual lock implementations
//! from `lc-locks`/`lc-core`:
//!
//! * **Drivers** ([`drivers`]): the paper's single-lock microbenchmark (§4)
//!   and its reader-writer, semaphore and async variants, used by the
//!   examples and the integration tests.
//! * **Structures** ([`structures`]): a dlock2-style suite of three data
//!   structures behind one lock each, comparing flat combining with the
//!   spin-lock families under load control.
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
pub mod structures;

pub use drivers::{
    AsyncMicrobenchConfig, MicrobenchConfig, MicrobenchResult, RwMicrobenchConfig,
    RwMicrobenchResult,
};
pub use executor::{block_on, MiniPool, WorkerGuard};
pub use structures::{
    BucketMap, DlockBenchConfig, DlockRunResult, FifoQueue, ProportionalCounter, StructureKind,
    ALL_STRUCTURE_NAMES,
};
