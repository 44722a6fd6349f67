//! The single source of truth mapping lock-family names to *waiter
//! disciplines* — how a contended waiter of that family behaves, which is
//! the only thing a simulator (this crate's engine, or the legacy `lc-sim`
//! scheduler model) needs to know about a lock.
//!
//! `lc_sim::LockPolicy::from_name` used to own this mapping; it now
//! delegates here, so the alias table that keeps `registry_consistency`
//! honest lives in exactly one place.

use lc_locks::ALL_LOCK_NAMES;

/// How a contended waiter of a lock family waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaiterDiscipline {
    /// Strict-FIFO spinning (MCS/ticket): the oldest waiter is handed the
    /// lock even if it has been preempted.
    FifoSpin,
    /// Unordered (or time-published) spinning: the releaser can skip waiters
    /// that are not on a CPU.
    UnorderedSpin,
    /// Every contended acquisition blocks in the kernel.
    Block,
    /// Spin for a budget, then block (adaptive mutex / futex).
    SpinThenBlock,
    /// Spinning whose waiters participate in load control (the paper's
    /// contribution).
    LoadControlledSpin,
    /// Load-triggered backoff (the authors' earlier scheme, §2.3): an
    /// overloaded spinner sleeps for a random time and cannot be woken
    /// early.
    LoadBackoff,
    /// Delegation (flat combining): waiters *publish* their critical
    /// sections and poll for completion while one combiner executes them; the
    /// handoff favours waiters that are on a CPU, and an unexecuted request
    /// can be withdrawn (the abort path).
    Combining,
}

impl WaiterDiscipline {
    /// Every discipline, in a stable order.
    pub const ALL: &'static [WaiterDiscipline] = &[
        WaiterDiscipline::FifoSpin,
        WaiterDiscipline::UnorderedSpin,
        WaiterDiscipline::Block,
        WaiterDiscipline::SpinThenBlock,
        WaiterDiscipline::LoadControlledSpin,
        WaiterDiscipline::LoadBackoff,
        WaiterDiscipline::Combining,
    ];

    /// The discipline of the lock (or simulator policy) labelled `name`, or
    /// `None` for an unknown label.
    ///
    /// Accepts every canonical discipline label *and* every lock name in
    /// [`lc_locks::ALL_LOCK_NAMES`], so experiment configurations select
    /// simulator policies and real lock backends with the same strings (a
    /// registry-consistency test keeps the lists in lockstep).  Several lock
    /// families alias the nearest discipline:
    ///
    /// * `"ticket"` — strict-FIFO spinning, like `"mcs"`;
    /// * `"tas"`, `"ttas-backoff"`, `"rw-lock"`, `"semaphore"` — unordered
    ///   spinning (rwlock and semaphore through their exclusive/binary
    ///   modes);
    /// * `"spin-then-yield"` — spins and then involves the scheduler,
    ///   treated as spin-then-block;
    /// * `"flat-combining"` — delegation: waiters publish requests and poll.
    pub fn for_lock(name: &str) -> Option<Self> {
        Some(match name {
            "mcs" | "ticket" => WaiterDiscipline::FifoSpin,
            "tp-queue" | "tas" | "ttas-backoff" | "rw-lock" | "semaphore" => {
                WaiterDiscipline::UnorderedSpin
            }
            "blocking" => WaiterDiscipline::Block,
            "adaptive" | "spin-then-yield" => WaiterDiscipline::SpinThenBlock,
            "load-control" => WaiterDiscipline::LoadControlledSpin,
            "load-backoff" => WaiterDiscipline::LoadBackoff,
            "flat-combining" => WaiterDiscipline::Combining,
            _ => return None,
        })
    }

    /// The canonical label of this discipline (the name of its reference
    /// lock family where one exists).
    pub fn canonical_name(&self) -> &'static str {
        match self {
            WaiterDiscipline::FifoSpin => "mcs",
            WaiterDiscipline::UnorderedSpin => "tp-queue",
            WaiterDiscipline::Block => "blocking",
            WaiterDiscipline::SpinThenBlock => "adaptive",
            WaiterDiscipline::LoadControlledSpin => "load-control",
            WaiterDiscipline::LoadBackoff => "load-backoff",
            WaiterDiscipline::Combining => "flat-combining",
        }
    }
}

/// Asserts the alias table covers the whole lock registry (used by the
/// workspace-level `registry_consistency` test as well).
pub fn covers_lock_registry() -> bool {
    ALL_LOCK_NAMES
        .iter()
        .all(|name| WaiterDiscipline::for_lock(name).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lock_name_has_a_discipline() {
        assert!(covers_lock_registry());
    }

    #[test]
    fn canonical_names_round_trip() {
        for &discipline in WaiterDiscipline::ALL {
            assert_eq!(
                WaiterDiscipline::for_lock(discipline.canonical_name()),
                Some(discipline)
            );
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert_eq!(WaiterDiscipline::for_lock("no-such-lock"), None);
    }
}
