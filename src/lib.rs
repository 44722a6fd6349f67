//! # load-control-suite — facade crate
//!
//! A reproduction of *Decoupling Contention Management from Scheduling*
//! (Johnson, Stoica, Ailamaki, Mowry — ASPLOS 2010) as a Rust workspace.
//! This facade re-exports the member crates so examples, integration tests
//! and downstream users can depend on a single package:
//!
//! * [`locks`] — spinning and blocking lock primitives (TAS, TTAS+backoff,
//!   ticket, MCS, time-published queue lock, spin-then-yield, blocking,
//!   adaptive), each constructible by name through the closed `LockKind`
//!   set.
//! * [`accounting`] — in-process microstate accounting (thread registry,
//!   load samplers, transition traces).
//! * [`core`] — the paper's contribution: the sleep slot buffer, the load
//!   controller, the sync and async waiter-side gates, and the
//!   load-controlled sync surface.
//! * [`des`] — the deterministic discrete-event simulator that runs the
//!   *real* control plane (policies, splitters, slot buffer) against a
//!   million-plus simulated waiters on a virtual clock, plus the
//!   interleaving fuzzer and the seeded-randomness conventions
//!   (`LC_TEST_SEED`).  The paper's load-control figures are tests on it
//!   (`tests/paper_figures.rs`).
//!
//! Real-thread workloads live outside the library: the root tests drive the
//! `Lc*` types through `tests/support`, and every wall-clock number comes
//! from the `perf/` package.
//!
//! See `README.md` for a tour and `ARCHITECTURE.md` for the layer map
//! (accounting → controller/policy/splitter → slots/gates → locks → sync
//! surface → des), the `S`/`W`/`T` invariants, and the
//! recipes for adding a new lock, policy, splitter, or waiter kind.

pub use lc_accounting as accounting;
pub use lc_core as core;
pub use lc_des as des;
pub use lc_locks as locks;

/// The paper this workspace reproduces.
pub const PAPER: &str =
    "Decoupling Contention Management from Scheduling, ASPLOS 2010 (Johnson, Stoica, Ailamaki, Mowry)";

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let _cfg = crate::core::LoadControlConfig::for_capacity(4);
        let _des_cfg = crate::des::engine::DesConfig::new(4, 2);
        assert!(crate::PAPER.contains("ASPLOS"));
    }
}
