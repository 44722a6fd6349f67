//! The thread-state registry: who is running, spinning, parked or blocked,
//! and for how long.
//!
//! Worker threads register once and then publish every state transition with
//! a single relaxed store plus a time-accumulation update — cheap enough to
//! call around lock acquisitions.  The load controller reads the registry to
//! compute instantaneous load; the harness reads it to produce the per-state
//! CPU-time breakdowns of the paper's Figure 3.

use crate::now_ns;
use crate::trace::{Transition, TransitionTrace};
use crossbeam_utils::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The scheduling-relevant state of one registered thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ThreadState {
    /// Executing useful work (the default after registration).
    Running = 0,
    /// Busy-waiting for a lock.
    Spinning = 1,
    /// Descheduled by load control (sleeping in a sleep slot).
    ParkedByLoadControl = 2,
    /// Blocked inside a blocking/adaptive lock or on a condition variable.
    BlockedOnLock = 3,
    /// Waiting for (possibly simulated) I/O.
    BlockedOnIo = 4,
    /// Registered but currently outside the measured workload.
    Idle = 5,
}

/// Number of distinct [`ThreadState`] values.
pub const STATE_COUNT: usize = 6;

impl ThreadState {
    /// All states, indexable by their `u8` value.
    pub const ALL: [ThreadState; STATE_COUNT] = [
        ThreadState::Running,
        ThreadState::Spinning,
        ThreadState::ParkedByLoadControl,
        ThreadState::BlockedOnLock,
        ThreadState::BlockedOnIo,
        ThreadState::Idle,
    ];

    /// Whether a thread in this state demands a hardware context.
    ///
    /// This is the paper's notion of *load*: running and spinning threads are
    /// runnable; parked and blocked threads are not.
    pub fn is_runnable(self) -> bool {
        matches!(self, ThreadState::Running | ThreadState::Spinning)
    }

    fn from_u8(v: u8) -> ThreadState {
        Self::ALL[v as usize % STATE_COUNT]
    }

    /// A short lowercase label (used in reports).
    pub fn label(self) -> &'static str {
        match self {
            ThreadState::Running => "running",
            ThreadState::Spinning => "spinning",
            ThreadState::ParkedByLoadControl => "parked-lc",
            ThreadState::BlockedOnLock => "blocked-lock",
            ThreadState::BlockedOnIo => "blocked-io",
            ThreadState::Idle => "idle",
        }
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug)]
struct Record {
    id: u64,
    state: AtomicU8,
    since_ns: AtomicU64,
    accumulated: [AtomicU64; STATE_COUNT],
    alive: AtomicBool,
}

impl Record {
    fn new(id: u64, initial: ThreadState) -> Self {
        Self {
            id,
            state: AtomicU8::new(initial as u8),
            since_ns: AtomicU64::new(now_ns()),
            accumulated: Default::default(),
            alive: AtomicBool::new(true),
        }
    }

    fn current_state(&self) -> ThreadState {
        ThreadState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Accumulated nanoseconds per state, including the open interval.
    fn usage(&self) -> ThreadUsage {
        let mut per_state = [0u64; STATE_COUNT];
        for (i, a) in self.accumulated.iter().enumerate() {
            per_state[i] = a.load(Ordering::Relaxed);
        }
        let state = self.current_state();
        let since = self.since_ns.load(Ordering::Relaxed);
        let open = now_ns().saturating_sub(since);
        per_state[state as usize] = per_state[state as usize].saturating_add(open);
        ThreadUsage {
            thread_id: self.id,
            state,
            nanos_by_state: per_state,
            alive: self.alive.load(Ordering::Relaxed),
        }
    }
}

/// Per-thread usage snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadUsage {
    /// Registry-assigned thread id.
    pub thread_id: u64,
    /// Current state.
    pub state: ThreadState,
    /// Nanoseconds accumulated in each state (indexed by `ThreadState as usize`).
    pub nanos_by_state: [u64; STATE_COUNT],
    /// Whether the thread is still registered.
    pub alive: bool,
}

impl ThreadUsage {
    /// Nanoseconds spent in `state`.
    pub fn nanos_in(&self, state: ThreadState) -> u64 {
        self.nanos_by_state[state as usize]
    }

    /// Total accounted nanoseconds across all states.
    pub fn total_nanos(&self) -> u64 {
        self.nanos_by_state.iter().sum()
    }
}

/// Process-wide usage breakdown (sum over threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageBreakdown {
    /// Nanoseconds per state summed over every registered thread.
    pub nanos_by_state: [u64; STATE_COUNT],
    /// Number of threads included.
    pub threads: usize,
}

impl UsageBreakdown {
    /// Nanoseconds spent in `state` across all threads.
    pub fn nanos_in(&self, state: ThreadState) -> u64 {
        self.nanos_by_state[state as usize]
    }

    /// Total accounted nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos_by_state.iter().sum()
    }

    /// Fraction of accounted time spent in `state`, in `[0, 1]`.
    pub fn fraction_in(&self, state: ThreadState) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos_in(state) as f64 / total as f64
        }
    }
}

/// The process-wide registry of worker threads.
///
/// ```
/// use lc_accounting::{ThreadRegistry, ThreadState};
/// use std::sync::Arc;
///
/// let registry = Arc::new(ThreadRegistry::new());
/// let handle = registry.register();
/// assert_eq!(registry.runnable_threads(), 1);
/// handle.set_state(ThreadState::BlockedOnIo);
/// assert_eq!(registry.runnable_threads(), 0);
/// handle.set_state(ThreadState::Running);
/// assert_eq!(registry.runnable_threads(), 1);
/// ```
#[derive(Debug)]
pub struct ThreadRegistry {
    records: Mutex<Vec<Arc<CachePadded<Record>>>>,
    next_id: AtomicU64,
    runnable: CachePadded<AtomicU64>,
    trace: Mutex<Option<Arc<TransitionTrace>>>,
    /// Whether `trace` holds a trace.  Every state change of every thread
    /// reads this instead of taking the registry-wide mutex, so transitions
    /// share no lock while tracing is off.
    tracing: AtomicBool,
}

impl Default for ThreadRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            records: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            runnable: CachePadded::new(AtomicU64::new(0)),
            trace: Mutex::new(None),
            tracing: AtomicBool::new(false),
        }
    }

    /// Registers the calling thread, initially [`ThreadState::Running`].
    pub fn register(self: &Arc<Self>) -> ThreadHandle {
        self.register_with_state(ThreadState::Running)
    }

    /// Registers the calling thread with an explicit initial state.
    pub fn register_with_state(self: &Arc<Self>, initial: ThreadState) -> ThreadHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = Arc::new(CachePadded::new(Record::new(id, initial)));
        self.records.lock().unwrap().push(Arc::clone(&record));
        if initial.is_runnable() {
            self.runnable.fetch_add(1, Ordering::Relaxed);
        }
        ThreadHandle {
            registry: Arc::clone(self),
            record,
        }
    }

    /// Attaches a transition trace; every subsequent state change is recorded.
    pub fn attach_trace(&self, trace: Arc<TransitionTrace>) {
        let mut slot = self.trace.lock().unwrap();
        *slot = Some(trace);
        self.tracing.store(true, Ordering::Release);
    }

    /// Detaches the transition trace, if any.
    pub fn detach_trace(&self) {
        let mut slot = self.trace.lock().unwrap();
        self.tracing.store(false, Ordering::Release);
        *slot = None;
    }

    fn record_transition(&self, thread_id: u64, from: ThreadState, to: ThreadState) {
        // The flag is only a hint that the mutex is worth taking; the mutex
        // orders the trace pointer itself, so `Relaxed` suffices here.
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        if let Some(trace) = self.trace.lock().unwrap().as_ref() {
            trace.push(Transition {
                at_ns: now_ns(),
                thread_id,
                from,
                to,
            });
        }
    }

    /// Number of registered threads that are currently runnable
    /// (running or spinning) — the controller's "demanded CPUs" sensor.
    pub fn runnable_threads(&self) -> usize {
        self.runnable.load(Ordering::Relaxed) as usize
    }

    /// Number of live registered threads.
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Whether no live threads are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live threads currently in `state`.
    pub fn count_in_state(&self, state: ThreadState) -> usize {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.alive.load(Ordering::Relaxed) && r.current_state() == state)
            .count()
    }

    /// Per-thread usage snapshots (live and dead threads alike).
    pub fn thread_usages(&self) -> Vec<ThreadUsage> {
        self.records
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.usage())
            .collect()
    }

    /// Process-wide usage breakdown.
    pub fn usage_breakdown(&self) -> UsageBreakdown {
        let usages = self.thread_usages();
        let mut out = UsageBreakdown {
            threads: usages.len(),
            ..Default::default()
        };
        for u in usages {
            for i in 0..STATE_COUNT {
                out.nanos_by_state[i] = out.nanos_by_state[i].saturating_add(u.nanos_by_state[i]);
            }
        }
        out
    }
}

/// A registered thread's handle; dropping it deregisters the thread.
#[derive(Debug)]
pub struct ThreadHandle {
    registry: Arc<ThreadRegistry>,
    record: Arc<CachePadded<Record>>,
}

impl ThreadHandle {
    /// The registry-assigned id of this thread.
    pub fn id(&self) -> u64 {
        self.record.id
    }

    /// The registry this handle belongs to.
    pub fn registry(&self) -> &Arc<ThreadRegistry> {
        &self.registry
    }

    /// The thread's current state.
    pub fn state(&self) -> ThreadState {
        self.record.current_state()
    }

    /// Publishes a state transition.
    ///
    /// Returns the previous state.  Transitioning to the current state is a
    /// cheap no-op.
    pub fn set_state(&self, new: ThreadState) -> ThreadState {
        let old = self.record.current_state();
        if old == new {
            return old;
        }
        let now = now_ns();
        let since = self.record.since_ns.swap(now, Ordering::Relaxed);
        let elapsed = now.saturating_sub(since);
        self.record.accumulated[old as usize].fetch_add(elapsed, Ordering::Relaxed);
        self.record.state.store(new as u8, Ordering::Relaxed);
        match (old.is_runnable(), new.is_runnable()) {
            (true, false) => {
                self.registry.runnable.fetch_sub(1, Ordering::Relaxed);
            }
            (false, true) => {
                self.registry.runnable.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.registry.record_transition(self.record.id, old, new);
        old
    }

    /// Enters `state` for the duration of the returned guard, then restores
    /// the previous state.
    pub fn scoped(&self, state: ThreadState) -> StateGuard<'_> {
        let previous = self.set_state(state);
        StateGuard {
            handle: self,
            previous,
        }
    }

    /// This thread's usage snapshot.
    pub fn usage(&self) -> ThreadUsage {
        self.record.usage()
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        // Close the open interval and stop counting this thread as runnable.
        self.set_state(ThreadState::Idle);
        self.record.alive.store(false, Ordering::Relaxed);
    }
}

/// Guard returned by [`ThreadHandle::scoped`]; restores the previous state on
/// drop.
#[derive(Debug)]
pub struct StateGuard<'a> {
    handle: &'a ThreadHandle,
    previous: ThreadState,
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        self.handle.set_state(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn register_and_count_runnable() {
        let reg = Arc::new(ThreadRegistry::new());
        assert!(reg.is_empty());
        let h1 = reg.register();
        let h2 = reg.register_with_state(ThreadState::Idle);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.runnable_threads(), 1);
        h2.set_state(ThreadState::Spinning);
        assert_eq!(reg.runnable_threads(), 2);
        h1.set_state(ThreadState::BlockedOnIo);
        assert_eq!(reg.runnable_threads(), 1);
        drop(h2);
        assert_eq!(reg.runnable_threads(), 0);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn set_state_returns_previous_and_noops_on_same() {
        let reg = Arc::new(ThreadRegistry::new());
        let h = reg.register();
        assert_eq!(h.set_state(ThreadState::Spinning), ThreadState::Running);
        assert_eq!(h.set_state(ThreadState::Spinning), ThreadState::Spinning);
        assert_eq!(h.state(), ThreadState::Spinning);
    }

    #[test]
    fn scoped_state_restores() {
        let reg = Arc::new(ThreadRegistry::new());
        let h = reg.register();
        {
            let _g = h.scoped(ThreadState::BlockedOnLock);
            assert_eq!(h.state(), ThreadState::BlockedOnLock);
            assert_eq!(reg.runnable_threads(), 0);
        }
        assert_eq!(h.state(), ThreadState::Running);
        assert_eq!(reg.runnable_threads(), 1);
    }

    #[test]
    fn usage_accumulates_time() {
        let reg = Arc::new(ThreadRegistry::new());
        let h = reg.register();
        thread::sleep(Duration::from_millis(5));
        h.set_state(ThreadState::Spinning);
        thread::sleep(Duration::from_millis(5));
        let u = h.usage();
        assert!(u.nanos_in(ThreadState::Running) >= 4_000_000);
        assert!(u.nanos_in(ThreadState::Spinning) >= 4_000_000);
        assert!(u.total_nanos() >= 8_000_000);

        let breakdown = reg.usage_breakdown();
        assert_eq!(breakdown.threads, 1);
        assert!(breakdown.fraction_in(ThreadState::Running) > 0.0);
        assert!(breakdown.fraction_in(ThreadState::Idle) < 1e-3);
    }

    #[test]
    fn counts_by_state() {
        let reg = Arc::new(ThreadRegistry::new());
        let h1 = reg.register();
        let h2 = reg.register();
        let _h3 = reg.register();
        h1.set_state(ThreadState::ParkedByLoadControl);
        h2.set_state(ThreadState::Spinning);
        assert_eq!(reg.count_in_state(ThreadState::ParkedByLoadControl), 1);
        assert_eq!(reg.count_in_state(ThreadState::Spinning), 1);
        assert_eq!(reg.count_in_state(ThreadState::Running), 1);
    }

    #[test]
    fn state_labels_and_display() {
        for s in ThreadState::ALL {
            assert!(!s.label().is_empty());
            assert_eq!(s.to_string(), s.label());
        }
        assert!(ThreadState::Running.is_runnable());
        assert!(ThreadState::Spinning.is_runnable());
        assert!(!ThreadState::ParkedByLoadControl.is_runnable());
        assert!(!ThreadState::BlockedOnIo.is_runnable());
    }

    #[test]
    fn registry_works_across_threads() {
        let reg = Arc::new(ThreadRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(thread::spawn(move || {
                let h = reg.register();
                for _ in 0..100 {
                    h.set_state(ThreadState::Spinning);
                    h.set_state(ThreadState::Running);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        // All worker handles dropped: nothing runnable remains.
        assert_eq!(reg.runnable_threads(), 0);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.thread_usages().len(), 8);
    }
}
