//! How a contended waiter of the simulated lock behaves: the one thing the
//! engine needs to know about a lock.

/// How a contended waiter of the simulated lock waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaiterDiscipline {
    /// Spinning whose waiters participate in load control (the paper's
    /// contribution).
    LoadControlledSpin,
    /// Delegation (flat combining): waiters *publish* their critical
    /// sections and poll for completion while one combiner executes them; the
    /// handoff favours waiters that are on a CPU, and an unexecuted request
    /// can be withdrawn (the abort path).
    Combining,
}

impl WaiterDiscipline {
    /// This discipline's label: a run's spec string ends in
    /// `discipline=<label>` unless the discipline is the default,
    /// [`WaiterDiscipline::LoadControlledSpin`].
    pub fn canonical_name(&self) -> &'static str {
        match self {
            WaiterDiscipline::LoadControlledSpin => "load-control",
            WaiterDiscipline::Combining => "flat-combining",
        }
    }
}
