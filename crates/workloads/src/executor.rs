//! A minimal, dependency-free async executor for the oversubscription
//! drivers.
//!
//! The async-aware load gate exists to manage *task* oversubscription: more
//! poll-spinning tasks than hardware contexts, multiplexed over a fixed pool
//! of worker threads.  Exercising that end to end needs an executor, and the
//! workspace builds offline — so this module hand-rolls the smallest one
//! that is faithful to the scenario:
//!
//! * [`MiniPool`] — a fixed pool of worker threads draining one shared
//!   injector queue of tasks.  Wakers re-enqueue their task (coalesced while
//!   already queued), which is all an executor fundamentally is.
//! * [`block_on`] — drive a single future on the calling thread, parking it
//!   between polls (used by tests, doctests and simple examples).
//!
//! This is deliberately *not* a production executor (no work stealing, no
//! task priorities, a single global queue); it is the controlled environment
//! in which the async gate's behaviour is measured, the same way
//! `drivers::run_microbench` is a controlled environment for the sync locks.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Per-worker-thread participation guard, created by the
/// [`MiniPool::with_thread_hook`] hook on the worker thread itself and kept
/// alive for the thread's lifetime.
///
/// The pool reports worker scheduling transitions through it: a worker that
/// runs out of ready tasks goes **idle** (blocked on the injector queue's
/// condvar) and a worker that pops a task goes **busy**.  This is how pool
/// workers stay honest with a load controller's thread registry — an idle
/// worker must stop counting as runnable load, otherwise parking tasks could
/// never reduce the load the controller samples and the feedback loop would
/// not converge (parked tasks would only ever wake by timeout).
pub trait WorkerGuard {
    /// The worker found no ready task and is about to block for work.
    fn on_idle(&mut self) {}
    /// The worker popped a task and is about to poll it.
    fn on_busy(&mut self) {}
}

/// The no-op guard for pools that do not participate in load accounting.
impl WorkerGuard for () {}

/// State behind the injector queue's mutex.
struct PoolState {
    ready: VecDeque<Arc<Task>>,
    /// Tasks spawned and not yet run to completion.
    live: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a task becomes ready (workers wait on this).
    work: Condvar,
    /// Signalled when `live` reaches zero (wait_idle waits on this).
    idle: Condvar,
}

/// One spawned task: its future plus the re-enqueue bookkeeping its waker
/// needs.
struct Task {
    /// `None` once the future has completed.
    future: Mutex<Option<BoxFuture>>,
    pool: Arc<PoolShared>,
    /// Coalesces wakes: a task already sitting in the ready queue is not
    /// enqueued again.
    queued: AtomicBool,
}

impl Task {
    /// Enqueues the task unless it is already queued.
    fn schedule(self: &Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut state = self.pool.state.lock().unwrap();
        state.ready.push_back(Arc::clone(self));
        drop(state);
        self.pool.work.notify_one();
    }
}

/// Waking a task re-enqueues it (coalesced while already queued).
impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// A fixed pool of worker threads multiplexing any number of spawned tasks —
/// the "tasks spinning in poll loops across a fixed worker pool" environment
/// the async load gate targets.
pub struct MiniPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for MiniPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.state.lock().unwrap();
        f.debug_struct("MiniPool")
            .field("workers", &self.workers.len())
            .field("live_tasks", &state.live)
            .field("ready", &state.ready.len())
            .finish()
    }
}

impl MiniPool {
    /// Starts a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self::with_thread_hook(workers, |_| Box::new(()))
    }

    /// Starts a pool whose worker threads each run `hook` once at startup,
    /// keeping the returned [`WorkerGuard`] alive for the thread's lifetime
    /// and reporting idle/busy transitions to it.
    ///
    /// This is how the drivers register pool workers with a
    /// [`lc_core::LoadControl`]: the hook calls `register_worker()` on the
    /// worker thread (see [`crate::drivers::load_registered_guard`]) and the
    /// guard publishes `Idle`/`Running` registry states as the worker blocks
    /// for and resumes work.
    pub fn with_thread_hook<F>(workers: usize, hook: F) -> Self
    where
        F: Fn(usize) -> Box<dyn WorkerGuard> + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                ready: VecDeque::new(),
                live: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let hook = Arc::new(hook);
        let workers = (0..workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                let hook = Arc::clone(&hook);
                std::thread::Builder::new()
                    .name(format!("mini-pool-{index}"))
                    .spawn(move || {
                        let mut guard = hook(index);
                        worker_loop(&shared, guard.as_mut());
                    })
                    .expect("failed to spawn mini-pool worker")
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
        task.schedule();
    }

    /// Blocks until every spawned task has run to completion.
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock().unwrap();
        while state.live > 0 {
            state = self.shared.idle.wait(state).unwrap();
        }
    }

    /// Number of spawned tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.shared.state.lock().unwrap().live
    }

    /// Stops the workers after the queue drains of ready work and joins
    /// them.  Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MiniPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<PoolShared>, guard: &mut dyn WorkerGuard) {
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
                // Out of ready work: stop counting as runnable load before
                // blocking, so a controller that parked this pool's tasks
                // sees the load drop and can shrink its sleep target (the
                // guard only touches the registry, never the pool, so
                // calling it under the state lock cannot deadlock).
                if !idle {
                    guard.on_idle();
                    idle = true;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        if idle {
            guard.on_busy();
            idle = false;
        }
        // Clear `queued` *before* polling so a wake that lands mid-poll
        // re-enqueues the task instead of being lost.
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        let mut slot = task.future.lock().unwrap();
        let Some(mut future) = slot.take() else {
            continue; // already completed (redundant wake)
        };
        match future.as_mut().poll(&mut cx) {
            Poll::Pending => {
                *slot = Some(future);
            }
            Poll::Ready(()) => {
                drop(slot);
                let mut state = shared.state.lock().unwrap();
                state.live -= 1;
                if state.live == 0 {
                    shared.idle.notify_all();
                }
            }
        }
    }
}

/// Drives `future` to completion on the calling thread, parking the thread
/// between polls.
pub fn block_on<F: Future>(future: F) -> F::Output {
    struct ThreadUnparker(std::thread::Thread);
    impl Wake for ThreadUnparker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(ThreadUnparker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn block_on_drives_a_future() {
        assert_eq!(block_on(async { 40 + 2 }), 42);
    }

    #[test]
    fn block_on_survives_pending_with_deferred_wake() {
        struct WakeLater {
            polled: bool,
        }
        impl Future for WakeLater {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.polled {
                    return Poll::Ready(7);
                }
                self.polled = true;
                let waker = cx.waker().clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    waker.wake();
                });
                Poll::Pending
            }
        }
        assert_eq!(block_on(WakeLater { polled: false }), 7);
    }

    #[test]
    fn pool_runs_more_tasks_than_workers() {
        let pool = MiniPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.spawn(async move {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(pool.live_tasks(), 0);
    }

    #[test]
    fn self_waking_tasks_interleave_on_one_worker() {
        // Two poll-spinning tasks on a single worker must both make
        // progress: each Pending+wake yields the worker to the other task.
        struct YieldCount {
            left: u32,
            counter: Arc<AtomicU64>,
        }
        impl Future for YieldCount {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                self.counter.fetch_add(1, Ordering::Relaxed);
                if self.left == 0 {
                    return Poll::Ready(());
                }
                self.left -= 1;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let pool = MiniPool::new(1);
        let polls = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            pool.spawn(YieldCount {
                left: 50,
                counter: Arc::clone(&polls),
            });
        }
        pool.wait_idle();
        assert_eq!(polls.load(Ordering::Relaxed), 2 * 51);
    }

    #[test]
    fn thread_hook_runs_once_per_worker() {
        let started = Arc::new(AtomicU64::new(0));
        let hook_counter = Arc::clone(&started);
        let pool = MiniPool::with_thread_hook(3, move |_| {
            hook_counter.fetch_add(1, Ordering::SeqCst);
            Box::new(())
        });
        // One idle task says nothing about the other two threads having
        // started: wait for the hooks themselves.  The deadline only turns a
        // hang into a report.
        let deadline = Instant::now() + Duration::from_secs(60);
        while started.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.spawn(async {});
        pool.wait_idle();
        assert_eq!(started.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn workers_report_idle_and_busy_transitions() {
        struct CountingGuard {
            idles: Arc<AtomicU64>,
            busies: Arc<AtomicU64>,
        }
        impl WorkerGuard for CountingGuard {
            fn on_idle(&mut self) {
                self.idles.fetch_add(1, Ordering::SeqCst);
            }
            fn on_busy(&mut self) {
                self.busies.fetch_add(1, Ordering::SeqCst);
            }
        }
        let idles = Arc::new(AtomicU64::new(0));
        let busies = Arc::new(AtomicU64::new(0));
        let (idles2, busies2) = (Arc::clone(&idles), Arc::clone(&busies));
        let pool = MiniPool::with_thread_hook(1, move |_| {
            Box::new(CountingGuard {
                idles: Arc::clone(&idles2),
                busies: Arc::clone(&busies2),
            })
        });
        // Let the worker go idle, then hand it work: it must report busy.
        std::thread::sleep(Duration::from_millis(20));
        assert!(idles.load(Ordering::SeqCst) >= 1, "worker never went idle");
        pool.spawn(async {});
        pool.wait_idle();
        assert!(busies.load(Ordering::SeqCst) >= 1, "worker never went busy");
        // Busy transitions only happen after an idle wait, never per task.
        let busy_before = busies.load(Ordering::SeqCst);
        let idle_before = idles.load(Ordering::SeqCst);
        assert!(idle_before >= busy_before);
    }
}
