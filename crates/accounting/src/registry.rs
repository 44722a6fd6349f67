//! The thread-state registry: who is running, spinning, parked or blocked.
//!
//! Worker threads register once and then publish every state transition with
//! a relaxed load and store of their own record, plus one shared counter
//! update when runnability flips — cheap enough to call around lock
//! acquisitions.  The load controller reads the runnable count; nothing
//! reads a clock.

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
}

impl Record {
    fn current_state(&self) -> ThreadState {
        ThreadState::from_u8(self.state.load(Ordering::Relaxed))
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
        let record = Arc::new(CachePadded::new(Record {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            state: AtomicU8::new(ThreadState::Running as u8),
        }));
        self.records.lock().unwrap().push(Arc::clone(&record));
        self.runnable.fetch_add(1, Ordering::Relaxed);
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

    /// Number of registered threads.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Whether no threads are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of registered threads currently in `state`.
    pub fn count_in_state(&self, state: ThreadState) -> usize {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.current_state() == state)
            .count()
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

    /// The thread's current state.
    pub fn state(&self) -> ThreadState {
        self.record.current_state()
    }

    /// Publishes a state transition.
    ///
    /// Returns the previous state.  Transitioning to the current state is a
    /// cheap no-op; otherwise the only shared write is the runnable count,
    /// and only when runnability flips.
    pub fn set_state(&self, new: ThreadState) -> ThreadState {
        let old = self.record.current_state();
        if old == new {
            return old;
        }
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
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        // Stop counting this thread as runnable, then leave the table.
        self.set_state(ThreadState::Idle);
        let mut records = self.registry.records.lock().unwrap();
        if let Some(at) = records.iter().position(|r| Arc::ptr_eq(r, &self.record)) {
            records.swap_remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn table_len(reg: &ThreadRegistry) -> usize {
        reg.records.lock().unwrap().len()
    }

    #[test]
    fn register_and_count_runnable() {
        let reg = Arc::new(ThreadRegistry::new());
        assert!(reg.is_empty());
        let h1 = reg.register();
        let h2 = reg.register();
        h2.set_state(ThreadState::Idle);
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
        // All worker handles dropped: nothing runnable remains, and no
        // record is left behind.
        assert_eq!(reg.runnable_threads(), 0);
        assert_eq!(reg.len(), 0);
        assert_eq!(table_len(&reg), 0);
    }

    #[test]
    fn exited_threads_leave_the_record_table() {
        const EXITED: usize = 64;
        let reg = Arc::new(ThreadRegistry::new());
        let live = reg.register();
        for _ in 0..EXITED {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let h = reg.register();
                h.set_state(ThreadState::Spinning);
            })
            .join()
            .unwrap();
        }
        // Only the live handle's record remains: the table does not grow
        // with the number of threads that ever registered.
        assert_eq!(table_len(&reg), 1);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.runnable_threads(), 1);
        drop(live);
        assert_eq!(table_len(&reg), 0);
    }

    #[test]
    fn churning_threads_keep_the_runnable_count_equal_to_the_live_records() {
        const CHURNERS: usize = 4;
        const ROUNDS: usize = 200;
        let reg = Arc::new(ThreadRegistry::new());
        // Long-lived handles in every state, held across the churn.
        let live: Vec<_> = ThreadState::ALL
            .iter()
            .map(|&state| {
                let h = reg.register();
                h.set_state(state);
                h
            })
            .collect();
        let churners: Vec<_> = (0..CHURNERS)
            .map(|i| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let a = reg.register();
                        let b = reg.register();
                        for step in 0..(round % 7) {
                            a.set_state(ThreadState::ALL[(i + step) % STATE_COUNT]);
                            b.set_state(ThreadState::ALL[(round + step) % STATE_COUNT]);
                        }
                        // Drop in both orders, so removal covers the
                        // middle and the end of the table.
                        if round % 2 == 0 {
                            drop((a, b));
                        } else {
                            drop((b, a));
                        }
                    }
                })
            })
            .collect();
        for t in churners {
            t.join().unwrap();
        }
        assert_eq!(reg.len(), live.len());
        assert_eq!(table_len(&reg), live.len());
        let runnable = live.iter().filter(|h| h.state().is_runnable()).count();
        assert_eq!(reg.runnable_threads(), runnable);
        let by_state: usize = ThreadState::ALL
            .iter()
            .map(|&s| reg.count_in_state(s))
            .sum();
        assert_eq!(by_state, live.len());
        drop(live);
        assert_eq!((reg.len(), reg.runnable_threads()), (0, 0));
    }
}
