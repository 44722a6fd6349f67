//! Real-thread workload drivers for the host machine.
//!
//! These exercise the *actual* lock implementations from `lc-locks` and
//! `lc-core` (as opposed to the simulator models) and are used by the
//! examples and the integration tests.

use lc_core::spec::SpecError;
use lc_core::thread_ctx::LoadControlPolicy;
use lc_core::{LcMutex, LcRwLock, LcSemaphore, LoadControl, LoadControlConfig};
use lc_locks::registry::{build_spec, DynMutex};
use lc_locks::{AbortableLock, Mutex, RawLock, TimePublishedLock};
use std::hint;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the real-thread global-lock microbenchmark (§4 of the
/// paper: M threads acquire and release one lock, busy-waiting in between).
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Approximate critical-section length (busy-wait iterations).
    pub critical_iters: u32,
    /// Approximate delay between acquisitions (busy-wait iterations).
    pub delay_iters: u32,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            critical_iters: 50,
            delay_iters: 500,
            duration: Duration::from_millis(200),
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicrobenchResult {
    /// Total acquisitions across all threads.
    pub acquisitions: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
}

impl MicrobenchResult {
    /// Acquisitions per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.acquisitions as f64 / self.elapsed.as_secs_f64()
    }
}

#[inline]
fn busy_work(iters: u32) {
    for _ in 0..iters {
        hint::spin_loop();
    }
}

/// A running [`LoadControl`] tuned for the oversubscription drivers — small
/// pretend capacity, 1 ms controller cycles, 5 ms sleep timeout — with a
/// slot buffer of `shards` shards.  The shard-sweep benches and the sharded
/// acceptance tests build every configuration through this one helper.
pub fn oversubscribed_control(capacity: usize, shards: usize) -> Arc<LoadControl> {
    LoadControl::start(
        LoadControlConfig::for_capacity(capacity)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5))
            .with_shards(shards),
    )
}

/// Condensed wait-time evidence from `control`'s slot buffer: how long the
/// drivers' real threads actually slept (count, p50/p99 bucket upper bounds
/// and max, in nanoseconds).  This is the same histogram the
/// `latency(target_p99=..)` policy steers by, so a driver can print one line
/// of SLO evidence next to its throughput number.
pub fn slot_wait_summary(control: &LoadControl) -> lc_locks::stats::WaitObservation {
    control.buffer().stats().wait
}

/// Runs the microbenchmark over any [`RawLock`]-backed mutex.
pub fn run_microbench<R>(config: MicrobenchConfig) -> MicrobenchResult
where
    R: RawLock + 'static,
{
    let mutex: Arc<Mutex<u64, R>> = Arc::new(Mutex::with_raw(0, R::new()));
    run_with(config, move |cfg| {
        let m = Arc::clone(&mutex);
        move || {
            {
                let mut g = m.lock();
                *g += 1;
                busy_work(cfg.critical_iters);
            }
            busy_work(cfg.delay_iters);
        }
    })
}

/// Runs the microbenchmark over the lock described by `spec` — a bare name
/// from [`lc_locks::ALL_LOCK_NAMES`] or a parameterized spec such as
/// `ttas-backoff(max_spins=1024)` — or `None` when the spec does not
/// describe a registered lock.
///
/// This is how the benches sweep every family in
/// [`lc_locks::ALL_LOCK_NAMES`] without enumerating concrete types.
pub fn run_microbench_named(spec: &str, config: MicrobenchConfig) -> Option<MicrobenchResult> {
    let mutex = Arc::new(DynMutex::build(spec, 0u64)?);
    Some(run_with(config, move |cfg| {
        let m = Arc::clone(&mutex);
        move || {
            {
                let mut g = m.lock();
                *g += 1;
                busy_work(cfg.critical_iters);
            }
            busy_work(cfg.delay_iters);
        }
    }))
}

/// Runs the microbenchmark over the load-controlled mutex attached to
/// `control`, using the paper's default time-published backend.
pub fn run_microbench_lc(config: MicrobenchConfig, control: &Arc<LoadControl>) -> MicrobenchResult {
    run_microbench_lc_backend::<TimePublishedLock>(config, control)
}

/// Runs the microbenchmark over a load-controlled mutex built on any
/// abortable backend — the composability the redesigned acquisition API
/// exists for.
///
/// Every acquisition increments a counter under the lock, so the run doubles
/// as a mutual-exclusion check: it panics if the counter does not equal the
/// acquisitions.
pub fn run_microbench_lc_backend<R>(
    config: MicrobenchConfig,
    control: &Arc<LoadControl>,
) -> MicrobenchResult
where
    R: AbortableLock + 'static,
{
    let mutex = Arc::new(LcMutex::<u64, R>::new_with(0, control));
    let counter = Arc::clone(&mutex);
    let control = Arc::clone(control);
    let result = run_with(config, move |cfg| {
        let m = Arc::clone(&mutex);
        let lc = Arc::clone(&control);
        move || {
            let _worker = &lc; // keep the control alive in the closure
            {
                let mut g = m.lock();
                *g += 1;
                busy_work(cfg.critical_iters);
            }
            busy_work(cfg.delay_iters);
        }
    });
    // The workers have exited, so this is the last reference.
    let counted = Arc::try_unwrap(counter).ok().map(LcMutex::into_inner);
    assert_eq!(
        counted,
        Some(result.acquisitions),
        "lost update under load control"
    );
    result
}

/// Runs the load-controlled microbenchmark over the abortable backend
/// described by `spec` — a bare name from
/// [`lc_locks::ABORTABLE_LOCK_NAMES`] or a parameterized spec such as
/// `ttas-backoff(max_spins=1024)`.  Unknown specs, unknown keys and
/// non-abortable families (which cannot abandon a wait to sleep) are
/// explicit errors.
///
/// The backend is built through [`lc_locks::registry::LOCK_SPECS`] and
/// driven by [`LoadControlPolicy`] through the dynamically dispatched
/// [`lc_locks::DynLock::lock_with`] — the same waiter-side algorithm the
/// monomorphized [`LcMutex`] uses, reached entirely through spec strings.
pub fn run_microbench_lc_spec(
    spec: &str,
    config: MicrobenchConfig,
    control: &Arc<LoadControl>,
) -> Result<MicrobenchResult, SpecError> {
    let lock = build_spec(spec)?;
    if !lock.is_abortable() {
        return Err(SpecError::Config {
            source: format!("lock spec {spec:?}"),
            reason: format!(
                "{} cannot abort its waits, so it cannot be load-controlled",
                lock.name()
            ),
        });
    }
    let mutex = Arc::new(DynMutex::new(lock, 0u64));
    let control = Arc::clone(control);
    Ok(run_with(config, move |cfg| {
        let m = Arc::clone(&mutex);
        let lc = Arc::clone(&control);
        move || {
            let mut policy = LoadControlPolicy::new(&lc);
            {
                let mut g = m.lock_with(&mut policy);
                *g += 1;
                busy_work(cfg.critical_iters);
            }
            busy_work(cfg.delay_iters);
        }
    }))
}

/// Configuration of the reader-writer oversubscription scenarios: `threads`
/// workers each loop over one [`LcRwLock`]-protected table, taking the write
/// lock on `write_percent` % of iterations and the read lock otherwise.
#[derive(Debug, Clone, Copy)]
pub struct RwMicrobenchConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Percentage (0–100) of iterations that take the write lock.
    pub write_percent: u32,
    /// Approximate critical-section length (busy-wait iterations).
    pub critical_iters: u32,
    /// Approximate delay between acquisitions (busy-wait iterations).
    pub delay_iters: u32,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

impl RwMicrobenchConfig {
    /// The reader-heavy scenario: 5 % writes — the catalog-cache /
    /// configuration-snapshot shape where writer preference matters most.
    pub fn reader_heavy(threads: usize) -> Self {
        Self {
            threads,
            write_percent: 5,
            critical_iters: 40,
            delay_iters: 300,
            duration: Duration::from_millis(200),
        }
    }

    /// The mixed scenario: 40 % writes — enough writer traffic that readers
    /// and writers constantly trade the lock.
    pub fn mixed(threads: usize) -> Self {
        Self {
            write_percent: 40,
            ..Self::reader_heavy(threads)
        }
    }
}

/// Result of one reader-writer microbenchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwMicrobenchResult {
    /// Total shared acquisitions across all threads.
    pub reads: u64,
    /// Total exclusive acquisitions across all threads.
    pub writes: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
}

impl RwMicrobenchResult {
    /// Acquisitions (read + write) per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        (self.reads + self.writes) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs the reader-writer microbenchmark over a load-controlled
/// [`LcRwLock`] attached to `control`.
///
/// Writers increment two counters under the exclusive lock; readers assert
/// they are equal under the shared lock, so the run doubles as a consistency
/// check while measuring.
pub fn run_rw_microbench_lc(
    config: RwMicrobenchConfig,
    control: &Arc<LoadControl>,
) -> RwMicrobenchResult {
    let table = Arc::new(LcRwLock::new_with((0u64, 0u64), control));
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(config.threads);
    for worker in 0..config.threads {
        let table = Arc::clone(&table);
        let control = Arc::clone(control);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        let writes = Arc::clone(&writes);
        handles.push(std::thread::spawn(move || {
            let _w = control.register_worker();
            let (mut local_reads, mut local_writes) = (0u64, 0u64);
            let mut i = worker as u64; // offset so writers desynchronize
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                if (i % 100) < u64::from(config.write_percent) {
                    let mut g = table.write();
                    g.0 += 1;
                    g.1 += 1;
                    busy_work(config.critical_iters);
                    local_writes += 1;
                } else {
                    let g = table.read();
                    assert_eq!(g.0, g.1, "readers observed a torn write");
                    busy_work(config.critical_iters);
                    drop(g);
                    local_reads += 1;
                }
                busy_work(config.delay_iters);
            }
            reads.fetch_add(local_reads, Ordering::Relaxed);
            writes.fetch_add(local_writes, Ordering::Relaxed);
        }));
    }
    let start = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("rw microbench worker panicked");
    }
    RwMicrobenchResult {
        reads: reads.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

/// Runs a permit-pool oversubscription scenario over a load-controlled
/// [`LcSemaphore`] with `permits` permits attached to `control`: each worker
/// repeatedly acquires a permit, holds it for the critical busy-work, and
/// releases it.  Returns total acquisitions.
pub fn run_semaphore_microbench_lc(
    permits: u64,
    config: MicrobenchConfig,
    control: &Arc<LoadControl>,
) -> MicrobenchResult {
    let pool = Arc::new(LcSemaphore::new_with(permits, control));
    let control = Arc::clone(control);
    run_with(config, move |cfg| {
        let pool = Arc::clone(&pool);
        let lc = Arc::clone(&control);
        move || {
            let _worker = &lc; // keep the control alive in the closure
            {
                let _permit = pool.acquire();
                busy_work(cfg.critical_iters);
            }
            busy_work(cfg.delay_iters);
        }
    })
}

/// Configuration of the async oversubscription driver
/// ([`run_async_semaphore_microbench`]): `tasks` async tasks contend for
/// `permits` semaphore permits while being multiplexed over a fixed pool of
/// `workers` threads — the tokio-style environment the async load gate
/// exists for.
#[derive(Debug, Clone, Copy)]
pub struct AsyncMicrobenchConfig {
    /// Worker threads in the [`crate::executor::MiniPool`].
    pub workers: usize,
    /// Number of spawned tasks (normally > `workers`: task oversubscription).
    pub tasks: usize,
    /// Semaphore permits the tasks contend for (normally < `tasks`).
    pub permits: u64,
    /// Approximate critical-section length (busy-wait iterations).
    pub critical_iters: u32,
    /// Approximate delay between acquisitions (busy-wait iterations).
    pub delay_iters: u32,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

impl Default for AsyncMicrobenchConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            tasks: 16,
            permits: 2,
            critical_iters: 50,
            delay_iters: 200,
            duration: Duration::from_millis(200),
        }
    }
}

/// A [`crate::executor::WorkerGuard`] that registers the pool worker with a
/// [`LoadControl`] and keeps its registry state honest: `Running` while the
/// worker polls tasks, `Idle` while it blocks waiting for ready work.
///
/// The idle transition is what closes the async plane's feedback loop: when
/// the controller parks tasks, the ready queue drains and workers block —
/// without the state change they would still be sampled as runnable load,
/// the sleep target could never shrink, and parked tasks would wake only by
/// timeout.
pub fn load_registered_guard(control: &Arc<LoadControl>) -> Box<dyn crate::executor::WorkerGuard> {
    use lc_core::accounting::ThreadState;

    struct Registered(lc_core::WorkerRegistration);
    impl crate::executor::WorkerGuard for Registered {
        fn on_idle(&mut self) {
            self.0.set_state(ThreadState::Idle);
        }
        fn on_busy(&mut self) {
            self.0.set_state(ThreadState::Running);
        }
    }
    Box::new(Registered(control.register_worker()))
}

/// Runs the async oversubscription scenario: a [`crate::executor::MiniPool`]
/// of `config.workers` threads (each registered with `control` so the
/// controller can see the pool's load) multiplexes `config.tasks` tasks that
/// each loop acquiring a permit from one shared load-controlled
/// [`LcSemaphore`] via [`LcSemaphore::acquire_async`].
///
/// Starved tasks poll-spin — the executor keeps re-polling them — so with
/// the controller daemon running and the pool oversubscribed, the async gate
/// claims sleep slots and suspends tasks (`control.buffer().stats().ever_slept`
/// rises); without a controller nobody sleeps.  Returns total acquisitions.
pub fn run_async_semaphore_microbench(
    config: AsyncMicrobenchConfig,
    control: &Arc<LoadControl>,
) -> MicrobenchResult {
    use crate::executor::MiniPool;

    let pool_control = Arc::clone(control);
    let pool = MiniPool::with_thread_hook(config.workers, move |_| {
        load_registered_guard(&pool_control)
    });
    let semaphore = Arc::new(LcSemaphore::new_with(config.permits, control));
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    for _ in 0..config.tasks {
        let semaphore = Arc::clone(&semaphore);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        pool.spawn(async move {
            while !stop.load(Ordering::Relaxed) {
                {
                    let _permit = semaphore.acquire_async().await;
                    busy_work(config.critical_iters);
                }
                busy_work(config.delay_iters);
                total.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let start = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    pool.wait_idle();
    MicrobenchResult {
        acquisitions: total.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

/// Generic harness: spawns `config.threads` workers that repeatedly run one
/// iteration produced by `make_iter`, for `config.duration`.
fn run_with<F, G>(config: MicrobenchConfig, make_iter: F) -> MicrobenchResult
where
    F: Fn(MicrobenchConfig) -> G,
    G: FnMut() + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(config.threads);
    for _ in 0..config.threads {
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let mut iter = make_iter(config);
        handles.push(std::thread::spawn(move || {
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                iter();
                local += 1;
            }
            total.fetch_add(local, Ordering::Relaxed);
        }));
    }
    let start = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("microbench worker panicked");
    }
    MicrobenchResult {
        acquisitions: total.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::LoadControlConfig;
    use lc_locks::{TicketLock, TimePublishedLock};

    fn quick() -> MicrobenchConfig {
        MicrobenchConfig {
            threads: 4,
            critical_iters: 10,
            delay_iters: 50,
            duration: Duration::from_millis(50),
        }
    }

    /// [`quick`] with no more threads than cores (at most two).  Past
    /// capacity a raw FIFO lock hands off to preempted waiters and does ~130
    /// acquisitions a second — the collapse load control exists to fix — so
    /// whether 50 ms reach 100 of them is scheduling.
    fn within_capacity() -> MicrobenchConfig {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        MicrobenchConfig {
            threads: cores.min(2),
            ..quick()
        }
    }

    #[test]
    fn ticket_microbench_makes_progress() {
        // Past capacity a raw FIFO lock hands off to preempted waiters, so
        // how many acquisitions one 50 ms run reaches is scheduling: sum runs.
        let mut total = MicrobenchResult {
            acquisitions: 0,
            elapsed: Duration::ZERO,
        };
        run_until(None, || {
            let r = run_microbench::<TicketLock>(quick());
            total.acquisitions += r.acquisitions;
            total.elapsed += r.elapsed;
            total.acquisitions > 100
        });
        assert!(total.throughput() > 0.0);
    }

    #[test]
    fn tp_microbench_makes_progress() {
        let r = run_microbench::<TimePublishedLock>(quick());
        assert!(r.acquisitions > 100, "only {} acquisitions", r.acquisitions);
    }

    #[test]
    fn lc_microbench_makes_progress_under_forced_overload() {
        let control = LoadControl::start(
            LoadControlConfig::for_capacity(2)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        let r = run_microbench_lc(quick(), &control);
        control.stop_controller();
        assert!(r.acquisitions > 100, "only {} acquisitions", r.acquisitions);
    }

    /// Repeats `run` — one short drive, answering whether its counter has
    /// met the test's condition — until it has, checking after every run
    /// that each claim on `books` was given back.  How soon a condition that
    /// depends on scheduling is met is luck, so passing 5 s only reports,
    /// once; 60 s is a failure.
    fn run_until(books: Option<&LoadControl>, mut run: impl FnMut() -> bool) {
        let start = Instant::now();
        let mut reported = false;
        let mut runs = 0;
        loop {
            let done = run();
            runs += 1;
            let stats = books.map(|control| control.buffer().stats());
            if let Some(stats) = &stats {
                assert_eq!(stats.ever_slept, stats.woken_and_left, "run {runs}");
            }
            if done {
                return;
            }
            let waited = start.elapsed();
            assert!(
                waited < Duration::from_secs(60),
                "not done after {runs} runs: {stats:?}"
            );
            if waited > Duration::from_secs(5) && !reported {
                eprintln!("still waiting after {runs} runs: {stats:?}");
                reported = true;
            }
        }
    }

    #[test]
    fn named_microbench_covers_the_registry() {
        let config = within_capacity();
        for name in ["ticket", "mcs"] {
            let r = run_microbench_named(name, config).expect("registered lock");
            assert!(
                r.acquisitions > 100,
                "{name}: only {} acquisitions",
                r.acquisitions
            );
        }
        assert!(run_microbench_named("no-such-lock", config).is_none());
    }

    #[test]
    fn lc_spec_dispatch_covers_every_abortable_backend() {
        let control = LoadControl::new(lc_core::LoadControlConfig::for_capacity(8));
        let tiny = MicrobenchConfig {
            threads: 2,
            critical_iters: 5,
            delay_iters: 20,
            duration: Duration::from_millis(10),
        };
        // Whether two threads get through a 10 ms run is scheduling: sum
        // runs until one of them has.
        for &name in lc_locks::ABORTABLE_LOCK_NAMES {
            let mut acquisitions = 0;
            run_until(Some(&control), || {
                acquisitions += run_microbench_lc_spec(name, tiny, &control)
                    .unwrap_or_else(|e| panic!("{name} rejected by the LC dispatch: {e}"))
                    .acquisitions;
                acquisitions > 0
            });
        }
        assert!(run_microbench_lc_spec("blocking", tiny, &control).is_err());
        assert!(run_microbench_lc_spec("bogus", tiny, &control).is_err());

        // Each backend again, past capacity with the one sleep slot taken,
        // and the lock held for about 5 ms once both workers wait — far past
        // the 1024 polls after which a waiter steps aside, so each leaves
        // its wait (the delegation locks withdraw their request) and
        // re-enters it.
        const PER_WORKER: u64 = 50;
        let control = LoadControl::with_policy(
            LoadControlConfig::for_capacity(8),
            Box::new(lc_core::policy::FixedPolicy::manual()),
        );
        control.set_sleep_target(1);
        let other = control
            .buffer()
            .register_sleeper(Arc::new(lc_locks::Parker::new()));
        let lc_core::ClaimOutcome::Claimed(slot) = control.buffer().try_claim(other) else {
            panic!("the other sleeper found no slot");
        };
        for &name in lc_locks::ABORTABLE_LOCK_NAMES {
            let mutex = Arc::new(DynMutex::build(name, 0u64).expect("registered lock"));
            let mut guard = mutex.lock();
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (mutex, control) = (Arc::clone(&mutex), Arc::clone(&control));
                    std::thread::spawn(move || {
                        for _ in 0..PER_WORKER {
                            *mutex.lock_with(&mut LoadControlPolicy::new(&control)) += 1;
                        }
                    })
                })
                .collect();
            // A waiter publishes `Spinning` at its first due slot check.
            let spinning = Instant::now();
            while control
                .registry()
                .count_in_state(lc_core::accounting::ThreadState::Spinning)
                < 2
            {
                assert!(
                    spinning.elapsed() < Duration::from_secs(10),
                    "{name}: the workers never waited"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(5));
            *guard += 1;
            drop(guard);
            for worker in workers {
                worker.join().expect("worker panicked");
            }
            assert_eq!(*mutex.lock(), 2 * PER_WORKER + 1, "{name}");
            assert_eq!(control.sleepers(), 1, "{name}: only the other claim");
        }
        control.buffer().leave(slot, other);
        assert_eq!(control.sleepers(), 0);
    }

    #[test]
    fn lc_spec_dispatch_accepts_parameterized_backends() {
        let control = LoadControl::start(
            LoadControlConfig::for_capacity(2)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        let r = run_microbench_lc_spec("ttas-backoff(max_spins=256)", quick(), &control)
            .expect("parameterized abortable backend");
        control.stop_controller();
        assert!(r.acquisitions > 100, "only {} acquisitions", r.acquisitions);
        // Unknown keys are rejected, not silently defaulted.
        assert!(run_microbench_lc_spec("ttas-backoff(spins=256)", quick(), &control).is_err());
    }

    #[test]
    fn rw_reader_heavy_scenario_is_read_dominated() {
        let control = LoadControl::new(LoadControlConfig::for_capacity(8));
        let mut cfg = RwMicrobenchConfig::reader_heavy(4);
        cfg.duration = Duration::from_millis(60);
        let r = run_rw_microbench_lc(cfg, &control);
        assert!(r.reads > 100, "only {} reads", r.reads);
        assert!(
            r.reads > r.writes * 4,
            "reader-heavy mix was not read-dominated: {} reads / {} writes",
            r.reads,
            r.writes
        );
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn rw_mixed_scenario_makes_progress_under_forced_overload() {
        let control = LoadControl::start(
            LoadControlConfig::for_capacity(2)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        let mut cfg = RwMicrobenchConfig::mixed(6);
        cfg.duration = Duration::from_millis(60);
        let r = run_rw_microbench_lc(cfg, &control);
        control.stop_controller();
        assert!(r.writes > 10, "only {} writes", r.writes);
        assert!(r.reads > 10, "only {} reads", r.reads);
    }

    #[test]
    fn semaphore_scenario_makes_progress_under_forced_overload() {
        let control = LoadControl::start(
            LoadControlConfig::for_capacity(2)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        let r = run_semaphore_microbench_lc(2, quick(), &control);
        control.stop_controller();
        assert!(r.acquisitions > 100, "only {} acquisitions", r.acquisitions);
    }

    #[test]
    fn sharded_control_drives_the_microbench() {
        let control = oversubscribed_control(2, 4);
        assert_eq!(control.buffer().shard_count(), 4);
        let r = run_microbench_lc(quick(), &control);
        control.stop_controller();
        assert!(r.acquisitions > 100, "only {} acquisitions", r.acquisitions);
        let stats = control.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn async_semaphore_microbench_makes_progress_under_forced_overload() {
        let control = oversubscribed_control(2, 1);
        let cfg = AsyncMicrobenchConfig {
            workers: 4,
            tasks: 12,
            permits: 2,
            critical_iters: 10,
            delay_iters: 50,
            duration: Duration::from_millis(80),
        };
        let r = run_async_semaphore_microbench(cfg, &control);
        control.stop_controller();
        assert!(r.acquisitions > 50, "only {} acquisitions", r.acquisitions);
        let stats = control.buffer().stats();
        assert_eq!(
            stats.ever_slept, stats.woken_and_left,
            "async driver left the books unbalanced"
        );
    }

    #[test]
    fn async_semaphore_microbench_sleeps_nobody_without_a_controller() {
        let control = LoadControl::new(LoadControlConfig::for_capacity(64));
        let cfg = AsyncMicrobenchConfig {
            workers: 2,
            tasks: 6,
            permits: 2,
            critical_iters: 10,
            delay_iters: 50,
            duration: Duration::from_millis(40),
        };
        let r = run_async_semaphore_microbench(cfg, &control);
        assert!(r.acquisitions > 10, "only {} acquisitions", r.acquisitions);
        assert_eq!(control.buffer().stats().ever_slept, 0);
    }

    #[test]
    fn real_threads_feed_the_wait_histogram() {
        // Forced oversubscription on a tiny capacity: workers must actually
        // park, and every completed sleep must land in the slot buffer's
        // wait histogram — the evidence stream the latency policy runs on.
        // Each run checks its own counter.
        let control = oversubscribed_control(2, 1);
        let cfg = MicrobenchConfig {
            threads: 8,
            ..quick()
        };
        run_until(Some(&control), || {
            run_microbench_lc(cfg, &control);
            control.buffer().stats().wait.count > 0
        });
        control.stop_controller();
        let stats = control.buffer().stats();
        let wait = slot_wait_summary(&control);
        // A claim cancelled because the lock was won between claim and park
        // counts in `S` but records no wait, so the histogram may hold fewer
        // episodes than there were claims — never more.
        assert!(
            wait.count <= stats.ever_slept,
            "{} waits recorded for {} claims",
            wait.count,
            stats.ever_slept
        );
        assert!(wait.p50_ns <= wait.p99_ns && wait.p99_ns <= wait.max_ns);
        assert!(wait.max_ns > 0, "parked threads recorded zero-length waits");
    }

    #[test]
    fn lc_microbench_runs_over_a_non_default_backend() {
        // Each run checks its own counter.
        let control = LoadControl::start(
            LoadControlConfig::for_capacity(2)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        run_until(Some(&control), || {
            run_microbench_lc_backend::<lc_locks::McsLock>(quick(), &control);
            control.buffer().stats().ever_slept > 0
        });
        control.stop_controller();
    }
}
