//! # lc-accounting — the runnable-thread count
//!
//! The load controller in the paper (*Decoupling Contention Management from
//! Scheduling*, ASPLOS 2010, §3.2.1) needs exactly one sensor: **how many
//! runnable threads does this process have right now** ("demanded CPUs").  On
//! Solaris the authors read the kernel's microstate accounting; mainstream
//! Linux has no equivalent, and the paper itself notes this as the main
//! portability obstacle.
//!
//! This crate provides the user-space substitute: a [`ThreadRegistry`] that
//! worker threads publish their state transitions to (running, spinning on a
//! lock, parked by load control, blocked on I/O, …).  It keeps one shared
//! count, the runnable threads, and that count is all a sample returns.  It
//! keeps no time: a transition reads no clock.
//!
//! Three load sources are provided:
//!
//! * [`RegistryLoadSampler`] — reads the in-process registry (precise, cheap,
//!   portable; the default).
//! * [`ProcfsLoadSampler`] — parses `/proc/self/task/*/stat` on Linux, the
//!   closest OS-backed analogue of Solaris microstate accounting.  It is
//!   slower and coarser (the paper makes the same observation about emulating
//!   microstate accounting with DTrace), but it observes *all* threads in the
//!   process, registered or not.
//! * [`HardenedProcfsSampler`] — the procfs sampler with a production
//!   posture: malformed or missing `/proc` degrades to a fallback sampler
//!   (normally the registry) and failed mounts are re-probed only after a
//!   cooldown instead of on every controller cycle.
//!
//! The crate also contains a fixed-capacity [`TransitionTrace`] ring buffer —
//! the stand-in for the DTrace scripts the authors use to record every
//! context switch during an experiment.  It keeps the transitions' order,
//! not their times.
//!
//! ## Quick example
//!
//! Threads publish state transitions; a sampler turns the registry into the
//! controller's one input, the runnable-thread count:
//!
//! ```
//! use lc_accounting::{LoadSampler, RegistryLoadSampler, ThreadRegistry, ThreadState};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(ThreadRegistry::new());
//! let worker = registry.register();           // starts Running
//! let spinner = registry.register();
//! spinner.set_state(ThreadState::Spinning);   // spinning counts as runnable
//! let blocked = registry.register();
//! blocked.set_state(ThreadState::BlockedOnIo); // blocked does not
//!
//! let sampler = RegistryLoadSampler::new(Arc::clone(&registry));
//! assert_eq!(sampler.sample(), 2);
//! drop((worker, spinner, blocked));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod procfs;
pub mod registry;
pub mod sampler;
pub mod trace;

pub use procfs::{HardenedProcfsSampler, ProcfsLoadSampler};
pub use registry::{ThreadHandle, ThreadRegistry, ThreadState};
pub use sampler::{LoadSampler, RegistryLoadSampler};
pub use trace::{Transition, TransitionTrace};
