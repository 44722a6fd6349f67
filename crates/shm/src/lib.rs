//! # lc-shm — the load-control plane across processes
//!
//! The paper's mechanism governs oversubscription *inside* one process:
//! controller, slot buffer, and sleepers share an address space.  A
//! machine running a fleet of worker processes breaks that assumption —
//! per-process controllers each see only their own S/W/T books and
//! collectively oversleep or overwake.  This crate moves the control
//! plane into a shared-memory segment so **one** elected controller
//! governs sleepers it did not spawn:
//!
//! * [`ShmSegment`] — a `memfd`/file-backed mapping with a versioned
//!   header.  Everything inside is an index or an atomic word; no
//!   pointers, so the bytes mean the same thing in every address space.
//! * [`ShmSlotBuffer`] — the sharded slot ring and S/W/T books, keeping
//!   the in-process buffer's invariants (claim by CAS, `leave` exactly
//!   once per claim, W-before-S reads).
//! * [`ShmGate`] — the worker-thread park point.  It drives the *same*
//!   [`lc_core::SlotWait`] state machine as the in-process `LoadGate`
//!   and the `lc-des` simulator, through the [`lc_core::SlotHost`] seam;
//!   only the blocking primitive differs (`futex(FUTEX_WAIT_BITSET)` on
//!   a sleeper cell in the segment instead of a `Parker`).
//! * [`ShmController`] — pid-lease election with takeover on death, the
//!   unmodified [`lc_core::Policy`] / [`lc_core::TargetSplitter`]
//!   stack over fleet-wide sampled load, and crash-robust reclamation:
//!   every claim carries a pid+generation lease, and the cycle sweeps
//!   claims owned by dead pids back into the books, so a SIGKILLed
//!   worker never strands `S − W` above target.
//! * `lcctl` (binary) — attaches to a segment and speaks the spec grammar
//!   of `lc_core::spec` as its wire format: `lcctl stat <seg>`,
//!   `lcctl set <seg> policy 'pid(kp=0.9)'`, `lcctl set <seg> target N`,
//!   `lcctl drain <seg>` / `lcctl resume <seg>`.
//!
//! Linux-only by nature (`mmap`/`futex`/`memfd_create`/`/proc`); other
//! platforms compile but every entry point reports
//! [`std::io::ErrorKind::Unsupported`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod controller;
pub mod gate;
pub mod layout;
pub mod segment;
pub mod sys;

pub use buffer::{ShmBufferStats, ShmSlotBuffer};
pub use controller::{PidLiveness, ProcLiveness, ShmControlDaemon, ShmController};
pub use gate::{attach_buffer, ShmGate, ShmSession};
pub use layout::Geometry;
pub use segment::ShmSegment;
