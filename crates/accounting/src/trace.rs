//! A fixed-capacity ring buffer of thread-state transitions.
//!
//! This is the suite's substitute for the DTrace scripts the paper uses to
//! record every context switch during a measurement window: attach a
//! [`TransitionTrace`] to a [`crate::ThreadRegistry`], run the workload, then
//! read the transitions back in the order they were recorded.  Entries carry
//! no timestamp; the ring keeps their order.

use crate::registry::ThreadState;
use std::sync::Mutex;

/// One recorded state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Registry-assigned thread id.
    pub thread_id: u64,
    /// State before the transition.
    pub from: ThreadState,
    /// State after the transition.
    pub to: ThreadState,
}

/// A bounded, thread-safe transition log.
///
/// When full, the oldest entries are overwritten (the trace keeps the tail of
/// the experiment).
#[derive(Debug)]
pub struct TransitionTrace {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<Option<Transition>>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl TransitionTrace {
    /// Creates a trace that keeps the most recent `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        Self {
            inner: Mutex::new(Ring {
                buf: vec![None; capacity],
                head: 0,
                len: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends a transition, evicting the oldest if the buffer is full.
    pub fn push(&self, t: Transition) {
        let mut ring = self.inner.lock().unwrap();
        let capacity = ring.buf.len();
        let head = ring.head;
        if ring.len == capacity {
            ring.dropped += 1;
        } else {
            ring.len += 1;
        }
        ring.buf[head] = Some(t);
        ring.head = (head + 1) % capacity;
    }

    /// Number of transitions currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of transitions that were evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Returns the stored transitions, oldest first.
    pub fn snapshot(&self) -> Vec<Transition> {
        let ring = self.inner.lock().unwrap();
        let capacity = ring.buf.len();
        let mut out = Vec::with_capacity(ring.len);
        let start = (ring.head + capacity - ring.len) % capacity;
        for i in 0..ring.len {
            if let Some(t) = ring.buf[(start + i) % capacity] {
                out.push(t);
            }
        }
        out
    }

    /// Clears the trace.
    pub fn clear(&self) {
        let mut ring = self.inner.lock().unwrap();
        for slot in ring.buf.iter_mut() {
            *slot = None;
        }
        ring.head = 0;
        ring.len = 0;
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, from: ThreadState, to: ThreadState) -> Transition {
        Transition {
            thread_id: id,
            from,
            to,
        }
    }

    #[test]
    fn push_and_snapshot_in_order() {
        let trace = TransitionTrace::with_capacity(8);
        assert!(trace.is_empty());
        for i in 0..5 {
            trace.push(t(i, ThreadState::Running, ThreadState::Spinning));
        }
        let snap = trace.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0].thread_id, 0);
        assert_eq!(snap[4].thread_id, 4);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let trace = TransitionTrace::with_capacity(4);
        for i in 0..10 {
            trace.push(t(i, ThreadState::Running, ThreadState::Idle));
        }
        let snap = trace.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].thread_id, 6);
        assert_eq!(snap[3].thread_id, 9);
        assert_eq!(trace.dropped(), 6);
    }

    #[test]
    fn clear_resets_everything() {
        let trace = TransitionTrace::with_capacity(2);
        trace.push(t(0, ThreadState::Running, ThreadState::Idle));
        trace.push(t(0, ThreadState::Idle, ThreadState::Running));
        trace.push(t(0, ThreadState::Running, ThreadState::Idle));
        assert_eq!(trace.dropped(), 1);
        trace.clear();
        assert!(trace.is_empty());
        assert_eq!(trace.dropped(), 0);
        assert!(trace.snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = TransitionTrace::with_capacity(0);
    }
}
