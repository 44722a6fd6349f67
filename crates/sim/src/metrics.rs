//! Simulation results: microstate breakdowns, timelines and summary reports.

use crate::SimTime;

/// The accounting categories tracked per simulated thread.
///
/// These mirror the classifications the paper's instrumentation uses:
/// Figure 3 plots `Work`, `SpinContention` and `SpinPreempted` (priority
/// inversion); the blocking figures rely on `Blocked` and `Switch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MicroState {
    /// On a CPU doing useful work (including inside critical sections).
    Work = 0,
    /// On a CPU spinning while the lock holder is also on a CPU.
    SpinContention = 1,
    /// On a CPU spinning while the lock holder (or reserved successor) has
    /// been preempted — the paper's priority inversion.
    SpinPreempted = 2,
    /// Runnable but waiting in the run queue for a hardware context.
    RunQueue = 3,
    /// Blocked inside a blocking/adaptive lock.
    Blocked = 4,
    /// Parked by load control or sleeping in a backoff scheme.
    Parked = 5,
    /// Waiting for simulated I/O.
    Io = 6,
    /// Client think time.
    Think = 7,
    /// Context-switch / dispatch overhead.
    Switch = 8,
}

/// Number of [`MicroState`] categories.
pub const MICROSTATE_COUNT: usize = 9;

impl MicroState {
    /// All categories in index order.
    pub const ALL: [MicroState; MICROSTATE_COUNT] = [
        MicroState::Work,
        MicroState::SpinContention,
        MicroState::SpinPreempted,
        MicroState::RunQueue,
        MicroState::Blocked,
        MicroState::Parked,
        MicroState::Io,
        MicroState::Think,
        MicroState::Switch,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MicroState::Work => "work",
            MicroState::SpinContention => "spin-contention",
            MicroState::SpinPreempted => "spin-prio-inversion",
            MicroState::RunQueue => "run-queue",
            MicroState::Blocked => "blocked",
            MicroState::Parked => "parked",
            MicroState::Io => "io",
            MicroState::Think => "think",
            MicroState::Switch => "context-switch",
        }
    }
}

/// Per-thread results.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Thread index.
    pub thread: usize,
    /// Process group the thread belongs to.
    pub group: usize,
    /// Completed transactions.
    pub transactions: u64,
    /// Nanoseconds accumulated in each [`MicroState`].
    pub micro_ns: [u64; MICROSTATE_COUNT],
}

/// Per-lock results.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockReport {
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Handoffs that involved waking a blocked thread (context switch on the
    /// critical path).
    pub blocking_handoffs: u64,
    /// Waiters skipped because they were off-CPU (time-published policies).
    pub skipped_waiters: u64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated duration in nanoseconds.
    pub duration_ns: SimTime,
    /// Number of hardware contexts.
    pub contexts: usize,
    /// Number of simulated threads.
    pub threads: usize,
    /// Total completed transactions (all groups).
    pub transactions: u64,
    /// Completed transactions per process group.
    pub transactions_by_group: Vec<u64>,
    /// Total context switches performed by the scheduler.
    pub context_switches: u64,
    /// Times a thread was preempted while holding a lock.
    pub preempted_holders: u64,
    /// Times load control parked a thread.
    pub lc_parks: u64,
    /// Times load control woke a parked thread before its timeout.
    pub lc_wakes: u64,
    /// Aggregate microstate nanoseconds over all threads.
    pub micro_ns: [u64; MICROSTATE_COUNT],
    /// Per-thread details.
    pub per_thread: Vec<ThreadReport>,
    /// Per-lock details.
    pub per_lock: Vec<LockReport>,
    /// `(time, runnable threads)` samples for group 0.
    pub load_timeline: Vec<(SimTime, usize)>,
    /// `(time, threads parked by load control)` samples for group 0.
    pub parked_timeline: Vec<(SimTime, usize)>,
}

impl SimReport {
    /// Throughput in transactions per simulated second (all groups).
    pub fn throughput_tps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.transactions as f64 / (self.duration_ns as f64 / 1e9)
    }

    /// Throughput of one process group, in transactions per second.
    pub fn group_throughput_tps(&self, group: usize) -> f64 {
        let tx = self.transactions_by_group.get(group).copied().unwrap_or(0);
        if self.duration_ns == 0 {
            return 0.0;
        }
        tx as f64 / (self.duration_ns as f64 / 1e9)
    }

    /// Context switches per simulated second.
    pub fn switch_rate_per_sec(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.context_switches as f64 / (self.duration_ns as f64 / 1e9)
    }

    /// Fraction of *on-CPU* time spent in `state` (the machine-utilization
    /// breakdown of Figure 3: work, spin-contention, spin-priority-inversion
    /// and switch overhead sum to 1).
    pub fn cpu_fraction(&self, state: MicroState) -> f64 {
        let on_cpu: u64 = [
            MicroState::Work,
            MicroState::SpinContention,
            MicroState::SpinPreempted,
            MicroState::Switch,
        ]
        .iter()
        .map(|s| self.micro_ns[*s as usize])
        .sum();
        if on_cpu == 0 {
            return 0.0;
        }
        self.micro_ns[state as usize] as f64 / on_cpu as f64
    }

    /// Mean of the runnable-thread timeline.
    pub fn mean_runnable(&self) -> f64 {
        if self.load_timeline.is_empty() {
            return 0.0;
        }
        self.load_timeline
            .iter()
            .map(|(_, n)| *n as f64)
            .sum::<f64>()
            / self.load_timeline.len() as f64
    }

    /// Standard deviation of the runnable-thread timeline (used to quantify
    /// the variability of Figure 5 vs Figure 8).
    pub fn runnable_stddev(&self) -> f64 {
        if self.load_timeline.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_runnable();
        let var = self
            .load_timeline
            .iter()
            .map(|(_, n)| {
                let d = *n as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (self.load_timeline.len() - 1) as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> SimReport {
        SimReport {
            duration_ns: 1_000_000_000,
            contexts: 4,
            threads: 2,
            transactions: 500,
            transactions_by_group: vec![300, 200],
            context_switches: 1_000,
            preempted_holders: 3,
            lc_parks: 5,
            lc_wakes: 4,
            micro_ns: [0; MICROSTATE_COUNT],
            per_thread: vec![],
            per_lock: vec![],
            load_timeline: vec![(0, 2), (500, 4), (1_000, 6)],
            parked_timeline: vec![],
        }
    }

    #[test]
    fn throughput_math() {
        let r = empty_report();
        assert!((r.throughput_tps() - 500.0).abs() < 1e-9);
        assert!((r.group_throughput_tps(0) - 300.0).abs() < 1e-9);
        assert!((r.group_throughput_tps(1) - 200.0).abs() < 1e-9);
        assert_eq!(r.group_throughput_tps(7), 0.0);
        assert!((r.switch_rate_per_sec() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_fraction_sums_on_cpu_states() {
        let mut r = empty_report();
        r.micro_ns[MicroState::Work as usize] = 600;
        r.micro_ns[MicroState::SpinPreempted as usize] = 300;
        r.micro_ns[MicroState::Switch as usize] = 100;
        r.micro_ns[MicroState::Io as usize] = 10_000; // off-CPU, ignored
        assert!((r.cpu_fraction(MicroState::Work) - 0.6).abs() < 1e-9);
        assert!((r.cpu_fraction(MicroState::SpinPreempted) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn timeline_statistics() {
        let r = empty_report();
        assert!((r.mean_runnable() - 4.0).abs() < 1e-9);
        assert!(r.runnable_stddev() > 1.9 && r.runnable_stddev() < 2.1);
    }

    #[test]
    fn microstate_labels_are_unique() {
        let mut labels: Vec<&str> = MicroState::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MICROSTATE_COUNT);
    }
}
