//! Cross-crate integration tests: the real load-controlled lock on the host
//! machine, the accounting registry feeding the controller, and the
//! discrete-event simulator running the real control plane through the
//! paper's headline comparison end to end.

mod support;

use load_control_suite::core::{
    LcMutex, LcRwLock, LcSemaphore, LoadControl, LoadControlConfig, LoadGate,
};
use load_control_suite::des::engine::{self, DesConfig};
use load_control_suite::des::metrics::RunReport;
use load_control_suite::locks::delegation;
use load_control_suite::locks::registry::{LockKind, LockSpecError};
use load_control_suite::locks::{
    AbortableLock, BoundedAbort, DelegationMutex, McsLock, Mutex, RawLock, SpinPolicy, TicketLock,
    TimePublishedLock, TtasLock, ALL_LOCK_NAMES,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use support::{aggressive_control, check_books, run_threads, spin};

#[test]
fn lc_mutex_is_correct_under_heavy_oversubscription() {
    // 12 worker threads on a pretend 2-context machine with an aggressive
    // controller: the mechanism parks and wakes threads constantly, and the
    // protected counter must still be exact.
    let control = aggressive_control(2);
    let counter = LcMutex::<u64>::new_with(0, &control);
    let per_thread = 3_000u64;
    run_threads(12, Some(&control), |_| {
        for _ in 0..per_thread {
            *counter.lock() += 1;
        }
    });
    control.stop_controller();
    assert_eq!(*counter.lock(), 12 * per_thread);
    check_books(&control);
}

/// Oversubscribed counter workload for one load-controlled backend: 10
/// workers on a pretend 2-context machine with an aggressive controller, so
/// waiters are forced through the claim/park/abort/retry path while the
/// counter must stay exact.
fn hammer_lc_backend<R: AbortableLock + 'static>() -> u64 {
    let control = aggressive_control(2);
    let counter = LcMutex::<u64, R>::new_with(0, &control);
    run_threads(10, Some(&control), |_| {
        for _ in 0..2_000 {
            *counter.lock() += 1;
        }
    });
    control.stop_controller();
    check_books(&control);
    counter.into_inner()
}

#[test]
fn lc_mutex_works_over_every_spinning_backend() {
    // The acceptance bar of the API redesign: the paper's load control bolts
    // onto interchangeable contention managers.  Four very different
    // families — the TP queue lock, plain MCS, the ticket lock, and
    // TTAS+backoff — all run the same oversubscribed counter workload under
    // load control without losing an update.
    assert_eq!(hammer_lc_backend::<TimePublishedLock>(), 20_000, "tp-queue");
    assert_eq!(hammer_lc_backend::<McsLock>(), 20_000, "mcs");
    assert_eq!(hammer_lc_backend::<TicketLock>(), 20_000, "ticket");
    assert_eq!(hammer_lc_backend::<TtasLock>(), 20_000, "ttas-backoff");
}

#[test]
fn lock_registry_builds_every_advertised_name() {
    for &name in ALL_LOCK_NAMES {
        let lock = name
            .parse::<LockKind>()
            .unwrap_or_else(|e| panic!("{name} is not a lock family: {e}"))
            .build();
        assert_eq!(lock.name(), name);
        lock.lock();
        assert!(lock.is_locked());
        unsafe { lock.unlock() };
    }
    assert!(matches!(
        "bogus".parse::<LockKind>(),
        Err(LockSpecError::UnknownName { .. })
    ));
}

#[test]
fn controller_reacts_to_registered_worker_load() {
    // The default policy is "paper": T = load − capacity.
    let control = LoadControl::new(LoadControlConfig::for_capacity(2));
    assert_eq!(control.spec().policy.name(), "paper");
    // Register six runnable workers straight into the registry.
    let handles: Vec<_> = (0..6).map(|_| control.registry().register()).collect();
    let stats = control.run_cycle();
    assert_eq!(stats.last_runnable, 6);
    assert_eq!(stats.last_target, 4, "target must be load minus capacity");
    drop(handles);
    let stats = control.run_cycle();
    assert_eq!(stats.last_runnable, 0);
    assert_eq!(stats.last_target, 0);
}

#[test]
fn generic_mutex_and_lc_mutex_interoperate() {
    // The same worker body can run over any RawLock-backed mutex and over the
    // load-controlled one.
    fn hammer<R: RawLock + 'static>(m: Mutex<u64, R>) -> u64 {
        run_threads(4, None, |_| {
            for _ in 0..1_000 {
                *m.lock() += 1;
            }
        });
        m.into_inner()
    }
    assert_eq!(hammer(Mutex::<u64, TicketLock>::new(0)), 4_000);
    assert_eq!(hammer(Mutex::<u64, TimePublishedLock>::new(0)), 4_000);
}

#[test]
fn real_thread_microbench_ranks_spinning_reasonably() {
    // Two threads, so no more than the reference box's cores: the paper's
    // lock must hand off at least a thousand times a second (a sanity check,
    // not a performance assertion), and every acquisition must count.
    let m = Mutex::<u64, TimePublishedLock>::new(0);
    let ops = AtomicU64::new(0);
    let start = Instant::now();
    run_threads(2, None, |_| {
        while start.elapsed() < Duration::from_millis(80) {
            {
                let mut g = m.lock();
                *g += 1;
                spin(20);
            }
            spin(100);
            ops.fetch_add(1, Ordering::Relaxed);
        }
    });
    let ops = ops.into_inner();
    assert_eq!(*m.lock(), ops);
    let per_s = ops as f64 / start.elapsed().as_secs_f64();
    assert!(per_s > 1_000.0, "spin throughput suspiciously low: {per_s}");
}

/// One run of the default contended workload (heavy-tailed critical
/// sections, 200 µs think time) on the discrete-event simulator: `workers`
/// simulated threads on `capacity` contexts under control policy `policy`.
fn des_run(policy: &str, workers: usize, capacity: usize, horizon_ms: u64) -> RunReport {
    let mut config = DesConfig::new(workers, capacity);
    config.spec.policy = policy.parse().unwrap_or_else(|e| panic!("{e}"));
    config.horizon = Duration::from_millis(horizon_ms);
    config.seed = load_control_suite::des::test_seed();
    engine::run(config).unwrap_or_else(|e| panic!("{policy}: {e}"))
}

#[test]
fn simulator_reproduces_the_headline_result() {
    // 150 % load on a simulated 64-context machine: load control must
    // clearly beat uncontrolled spinning (`fixed` publishes a zero sleep
    // target, so nobody parks), and must retain most of the spinning peak
    // just under capacity.
    let peak_spin = des_run("fixed", 63, 64, 100).completed;
    let over_spin = des_run("fixed", 96, 64, 100).completed;
    let over_lc = des_run("paper", 96, 64, 100).completed;
    assert!(
        over_lc > over_spin,
        "load control ({over_lc}) must beat spinning ({over_spin}) at 150% load"
    );
    assert!(
        over_lc as f64 >= 0.85 * peak_spin as f64,
        "load control at 150% load ({over_lc}) should keep 85% of the 98% peak ({peak_spin})"
    );
}

#[test]
fn lc_rwlock_participates_in_load_control_under_oversubscription() {
    // Acceptance bar of the sync-surface redesign: with an active controller
    // and many more workers than capacity, rwlock waiters must actually be
    // put to sleep (sleep counts > 0) while readers never observe a torn
    // write; without a controller, nobody sleeps.
    let control = aggressive_control(1);
    let table = LcRwLock::new_with((0u64, 0u64), &control);
    run_threads(8, Some(&control), |thread| {
        for _ in 0..1_000 {
            if thread < 4 {
                let mut g = table.write();
                g.0 += 1;
                g.1 += 1;
                spin(300);
            } else {
                let g = table.read();
                assert_eq!(g.0, g.1, "torn write observed through the read lock");
            }
        }
    });
    control.stop_controller();
    assert_eq!(*table.read(), (4_000, 4_000));
    let stats = check_books(&control);
    assert!(
        stats.ever_slept > 0,
        "no rwlock waiter ever slept under 8x oversubscription"
    );
}

#[test]
fn lc_rwlock_sleeps_nobody_without_a_controller() {
    // Same workload, controller never started and target pinned at zero:
    // the gate must stay out of the way entirely.
    let control = LoadControl::new(LoadControlConfig::for_capacity(1));
    let table = LcRwLock::new_with(0u64, &control);
    run_threads(6, Some(&control), |_| {
        for _ in 0..1_000 {
            *table.write() += 1;
        }
    });
    assert_eq!(*table.read(), 6_000);
    assert_eq!(control.buffer().stats().ever_slept, 0);
}

#[test]
fn lc_semaphore_participates_in_load_control_under_oversubscription() {
    let control = aggressive_control(1);
    let pool = LcSemaphore::new_with(2, &control);
    let holders = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    run_threads(8, Some(&control), |_| {
        for _ in 0..1_000 {
            let permit = pool.acquire();
            let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            spin(300);
            holders.fetch_sub(1, Ordering::SeqCst);
            drop(permit);
        }
    });
    control.stop_controller();
    assert!(peak.into_inner() <= 2, "permit bound violated");
    assert_eq!(pool.available(), 2);
    let stats = check_books(&control);
    assert!(
        stats.ever_slept > 0,
        "no semaphore waiter ever slept under 4x permit oversubscription"
    );
}

#[test]
fn full_sync_surface_shares_one_load_control() {
    // One controller, four waits: mutex, rwlock, semaphore and a predicate
    // wait through `LoadGate::pause` all draw their sleep slots from the same
    // buffer, and the S/W books still balance at the end.
    let control = aggressive_control(1);
    let counter = LcMutex::<u64>::new_with(0, &control);
    let table = LcRwLock::new_with(0u64, &control);
    let pool = LcSemaphore::new_with(2, &control);
    let done = LcMutex::<usize>::new_with(0, &control);

    // Six workers, and a seventh thread that waits in a `pause` loop for all
    // of them to finish.
    let workers = 6;
    run_threads(workers + 1, Some(&control), |thread| {
        if thread == workers {
            let mut gate = LoadGate::new(&control);
            while *done.lock() < workers {
                gate.pause();
            }
            gate.on_acquired(0);
            return;
        }
        for _ in 0..500 {
            *counter.lock() += 1;
            let _permit = pool.acquire();
            *table.write() += 1;
        }
        *done.lock() += 1;
    });
    control.stop_controller();
    assert_eq!(*counter.lock(), 3_000);
    assert_eq!(*table.read(), 3_000);
    check_books(&control);
}

#[test]
fn two_shard_buffer_sleeps_waiters_on_both_shards() {
    // Acceptance bar of the sharded-buffer refactor: under a mixed
    // reader-writer workload (40 % writes) with a 2-shard buffer, load
    // control must actually park waiters on *both* shards (workers get home
    // shards round-robin by registration id), and the books must balance per
    // shard.  When the second shard first parks someone is scheduling, so the
    // run repeats until both have.
    let control = LoadControl::start(
        LoadControlConfig::for_capacity(1)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5))
            .with_shards(2),
    );
    assert_eq!(control.buffer().shard_count(), 2);
    let table = LcRwLock::new_with((0u64, 0u64), &control);
    let writes = AtomicU64::new(0);
    support::run_until(Some(&control), || {
        run_threads(8, Some(&control), |thread| {
            for i in thread as u64..thread as u64 + 500 {
                if i % 100 < 40 {
                    let mut g = table.write();
                    g.0 += 1;
                    g.1 += 1;
                    spin(40);
                    writes.fetch_add(1, Ordering::Relaxed);
                } else {
                    let g = table.read();
                    assert_eq!(g.0, g.1, "torn write observed through the read lock");
                    spin(40);
                }
                spin(300);
            }
        });
        // Real parks must also land in the wait histogram the latency
        // policy steers by.
        (0..2).all(|shard| control.buffer().shard_stats(shard).ever_slept > 0)
            && control.buffer().stats().wait.count > 0
    });
    control.stop_controller();
    let writes = writes.into_inner();
    assert_eq!(*table.read(), (writes, writes));
    assert!(check_books(&control).wait.max_ns > 0, "zero-length parks");
    for shard in 0..2 {
        let s = control.buffer().shard_stats(shard);
        assert_eq!(s.ever_slept, s.woken_and_left, "shard {shard} unbalanced");
    }
}

/// Oversubscribed delegated-counter workload on flat combining: publishers
/// must get load-parked (S > 0) while the acting combiner can never obtain a
/// sleep-slot claim — the combiner is the one thread the controller must
/// never put to sleep.
///
/// The "never" half is checked from *inside* the delegated critical sections:
/// every job runs on whichever thread is currently combining, so the checks
/// there ask, at the exact moment the hazard exists, whether the combiner
/// holds an unresolved claim and whether the sleep books would admit it.
#[test]
fn flat_combining_combiner_is_never_load_parked() {
    let control = aggressive_control(1);
    let counter = DelegationMutex::new(0u64);
    let combiner_claims = AtomicU64::new(0);
    let claims_under_combiner = AtomicU64::new(0);
    let combiner_runs = AtomicU64::new(0);
    let threads = 8;
    let per_thread = 1_500;
    run_threads(threads, Some(&control), |_| {
        let mut policy = LoadGate::new(&control);
        for _ in 0..per_thread {
            counter.run_locked_with(&mut policy, |n| {
                *n += 1;
                // Hold the combining session long enough that publishers
                // meet the gate.
                spin(300);
                if delegation::is_combining() {
                    combiner_runs.fetch_add(1, Ordering::Relaxed);
                    // Counted rather than asserted here: a panic in a
                    // delegated closure would strand its publisher.
                    if !delegation::thread_may_self_elect() {
                        claims_under_combiner.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut gate = LoadGate::new(&control);
                    if gate.try_claim() {
                        combiner_claims.fetch_add(1, Ordering::Relaxed);
                        gate.cancel();
                    }
                }
            });
        }
    });
    control.stop_controller();
    assert_eq!(
        counter.run_locked(|n| *n),
        threads as u64 * per_thread,
        "delegated increments were lost"
    );
    assert!(
        combiner_runs.into_inner() > 0,
        "no job ever ran on an active combiner"
    );
    assert_eq!(
        combiner_claims.into_inner(),
        0,
        "an active combiner was admitted to the sleep books"
    );
    let stats = check_books(&control);
    assert!(
        stats.ever_slept > 0,
        "no publisher ever slept under 8x oversubscription"
    );
    assert_eq!(
        claims_under_combiner.into_inner(),
        0,
        "a combiner held an unresolved sleep-slot claim"
    );
}

#[test]
fn delegation_withdrawals_never_execute_aborted_requests() {
    // Cancel/withdraw hammer: half the publishers run an impatient abort
    // policy that keeps withdrawing and republishing its request, the other
    // half go through real load control under an aggressive controller.
    // Withdrawn requests must never execute (the counter stays arithmetic-
    // exact), no request may linger, and the S/W books must balance.
    let control = aggressive_control(1);
    let counter = DelegationMutex::new(0u64);
    let threads = 6;
    let per_thread = 2_000;
    run_threads(threads, Some(&control), |thread| {
        let mut lc_policy = LoadGate::new(&control);
        for _ in 0..per_thread {
            // The burn keeps requests pending long enough that the
            // impatient publishers actually reach their withdrawal window,
            // even in a release build on one CPU.
            let job = |n: &mut u64| {
                *n += 1;
                spin(300);
            };
            if thread % 2 == 0 {
                // Withdraw-happy: request an abort on every poll, up to 256
                // times per op, then settle down and finish.
                let mut policy = BoundedAbort::new(1, 256);
                counter.run_locked_with(&mut policy, job);
            } else {
                counter.run_locked_with(&mut lc_policy, job);
            }
        }
    });
    control.stop_controller();
    assert_eq!(
        counter.run_locked(|n| *n),
        threads as u64 * per_thread,
        "a withdrawn request executed anyway (or one was lost)"
    );
    let stats = counter.raw().delegation_stats();
    assert!(
        stats.withdrawals > 0,
        "the hammer never exercised a withdrawal"
    );
    assert_eq!(
        counter.raw().pending_requests(),
        0,
        "a published request outlived its publisher"
    );
    check_books(&control);
}

/// The job wipe fixed in 4ae3b42: a publisher that reclaimed its own request
/// wrote the slot's job cell after freeing the slot, so a job the next
/// claimer had just published there could vanish ("published job missing",
/// and then the survivors spin forever).  The window is a few instructions
/// wide, so this needs many short jobs — no spin inside them — on few
/// threads, where publishers often find the flag free and reclaim their own
/// requests.  With the bug, two pinned cores and a release build, this hung
/// in 7 runs of 10.
#[test]
fn flat_combining_runs_every_short_job_exactly_once() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = if cfg!(debug_assertions) {
        100_000
    } else {
        2_000_000
    };
    for controller in [false, true] {
        let control = controller.then(|| aggressive_control(1));
        let counter = DelegationMutex::new(0u64);
        run_threads(THREADS, control.as_ref(), |_| {
            let mut policy = control.as_ref().map(LoadGate::new);
            for _ in 0..PER_THREAD {
                match policy.as_mut() {
                    Some(policy) => counter.run_locked_with(policy, |n| *n += 1),
                    None => counter.run_locked(|n| *n += 1),
                }
            }
        });
        assert_eq!(
            counter.run_locked(|n| *n),
            THREADS as u64 * PER_THREAD,
            "controller={controller}"
        );
        if let Some(control) = control {
            control.stop_controller();
            check_books(&control);
        }
    }
}

#[test]
fn load_control_keeps_runnable_threads_near_capacity_in_sim() {
    // 300 % load: the mean runnable count over the controller's trace must
    // sit near the 16-context capacity rather than near the 48 offered
    // threads.
    let report = des_run("paper", 48, 16, 120);
    let mean =
        report.trace.iter().map(|row| row.runnable).sum::<u64>() as f64 / report.trace.len() as f64;
    assert!(
        mean < 20.0,
        "load control failed to rein in runnable threads (mean {mean:.1} of 48 offered)"
    );
    assert!(report.trace.last().expect("trace recorded").ever_slept > 0);
}
