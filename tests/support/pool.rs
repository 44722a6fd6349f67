//! A fixed pool of worker threads multiplexing spawned tasks over one shared
//! queue: the "tasks spinning in poll loops across a fixed worker pool"
//! environment the async load gate manages, small enough to build offline.
//!
//! Each worker registers with one `LoadControl` and publishes `Idle` while it
//! blocks for work and `Running` once it has some.  The idle state is what
//! closes the async plane's loop: when the controller parks tasks the queue
//! drains and the workers block, and without it they would still be sampled
//! as runnable load, so the sleep target could never shrink and parked tasks
//! would wake only by timeout.

use load_control_suite::accounting::ThreadState;
use load_control_suite::core::{LoadControl, WorkerRegistration};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Wake, Waker};
use std::thread::JoinHandle;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// State behind the queue's mutex.
struct PoolState {
    ready: VecDeque<Arc<Task>>,
    /// Tasks spawned and not yet run to completion.
    live: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a task becomes ready.
    work: Condvar,
    /// Signalled when `live` reaches zero.
    idle: Condvar,
}

/// One spawned task: its future plus what its waker needs to re-enqueue it.
struct Task {
    /// `None` once the future has completed.
    future: Mutex<Option<BoxFuture>>,
    pool: Arc<PoolShared>,
    /// Coalesces wakes: a task already in the queue is not enqueued again.
    queued: AtomicBool,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        self.pool
            .state
            .lock()
            .unwrap()
            .ready
            .push_back(Arc::clone(self));
        self.pool.work.notify_one();
    }
}

/// The pool; dropping it stops and joins the workers.
pub struct MiniPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl MiniPool {
    /// Starts `workers` threads, each registered with `control`.
    pub fn new(workers: usize, control: &Arc<LoadControl>) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                ready: VecDeque::new(),
                live: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|_| {
                let (shared, control) = (Arc::clone(&shared), Arc::clone(control));
                std::thread::spawn(move || worker_loop(&shared, control.register_worker()))
            })
            .collect();
        Self { shared, workers }
    }

    /// Spawns a future onto the pool.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            pool: Arc::clone(&self.shared),
            queued: AtomicBool::new(false),
        });
        self.shared.state.lock().unwrap().live += 1;
        task.wake();
    }

    /// Blocks until every spawned task has run to completion.
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock().unwrap();
        while state.live > 0 {
            state = self.shared.idle.wait(state).unwrap();
        }
    }
}

impl Drop for MiniPool {
    fn drop(&mut self) {
        // No panic in drop: a poisoned queue still takes the flag.
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, registration: WorkerRegistration) {
    let mut idle = false;
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(task) = state.ready.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                // Out of work: stop counting as runnable load before blocking
                // (this touches only the registry, never the pool, so doing
                // it under the queue lock cannot deadlock).
                if !idle {
                    registration.set_state(ThreadState::Idle);
                    idle = true;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        if idle {
            registration.set_state(ThreadState::Running);
            idle = false;
        }
        // Clear `queued` before polling, so a wake that lands mid-poll
        // re-enqueues the task instead of being lost.
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&task));
        let mut slot = task.future.lock().unwrap();
        let Some(future) = slot.as_mut() else {
            continue; // completed already: a redundant wake
        };
        if future
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_ready()
        {
            *slot = None;
            drop(slot);
            let mut state = shared.state.lock().unwrap();
            state.live -= 1;
            if state.live == 0 {
                shared.idle.notify_all();
            }
        }
    }
}
