//! Cross-crate integration tests: the real load-controlled lock on the host
//! machine, the accounting registry feeding the controller, and the simulator
//! reproducing the paper's headline comparisons end to end.

use load_control_suite::core::slots::{ClaimOutcome, SleepSlotBuffer};
use load_control_suite::core::thread_ctx::{LoadControlPolicy, LoadGate};
use load_control_suite::core::{
    LcCondvar, LcMutex, LcRwLock, LcSemaphore, LoadControl, LoadControlConfig,
};
use load_control_suite::locks::delegation;
use load_control_suite::locks::registry;
use load_control_suite::locks::{
    AbortableLock, BoundedAbort, DelegationMutex, McsLock, Mutex, Parker, RawLock, TicketLock,
    TimePublishedLock, TtasLock, ALL_LOCK_NAMES,
};
use load_control_suite::sim::{LockPolicy, MicroState, SimConfig, Simulation};
use load_control_suite::workloads::drivers::{
    run_microbench, run_rw_microbench_lc, MicrobenchConfig, RwMicrobenchConfig,
};
use load_control_suite::workloads::scenarios::{AppScenario, ScenarioKind};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

#[test]
fn lc_mutex_is_correct_under_heavy_oversubscription() {
    // 12 worker threads on a pretend 2-context machine with an aggressive
    // controller: the mechanism parks and wakes threads constantly, and the
    // protected counter must still be exact.  (`LC_SHARDS` re-runs this
    // whole suite over a sharded slot buffer in CI.)
    let control = LoadControl::start(
        LoadControlConfig::for_capacity(2)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5))
            .with_shards_from_env(),
    );
    let counter = Arc::new(LcMutex::<u64>::new_with(0, &control));
    let per_thread = 3_000u64;
    let mut handles = Vec::new();
    for _ in 0..12 {
        let counter = Arc::clone(&counter);
        let control = Arc::clone(&control);
        handles.push(thread::spawn(move || {
            let _worker = control.register_worker();
            for _ in 0..per_thread {
                *counter.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    assert_eq!(*counter.lock(), 12 * per_thread);
    // Every sleep-slot claim was balanced by a departure.
    let stats = control.buffer().stats();
    assert_eq!(stats.ever_slept, stats.woken_and_left);
}

/// Oversubscribed counter workload for one load-controlled backend: 10
/// workers on a pretend 2-context machine with an aggressive controller, so
/// waiters are forced through the claim/park/abort/retry path while the
/// counter must stay exact.
fn hammer_lc_backend<R: AbortableLock + 'static>() -> u64 {
    let control = LoadControl::start(
        LoadControlConfig::for_capacity(2)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5))
            .with_shards_from_env(),
    );
    let counter = Arc::new(LcMutex::<u64, R>::new_with(0, &control));
    let per_thread = 2_000u64;
    let mut handles = Vec::new();
    for _ in 0..10 {
        let counter = Arc::clone(&counter);
        let control = Arc::clone(&control);
        handles.push(thread::spawn(move || {
            let _worker = control.register_worker();
            for _ in 0..per_thread {
                *counter.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    let total = *counter.lock();
    let stats = control.buffer().stats();
    assert_eq!(
        stats.ever_slept, stats.woken_and_left,
        "unbalanced sleep-slot bookkeeping"
    );
    total
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
        let lock = registry::build_spec(name)
            .unwrap_or_else(|e| panic!("{name} missing from registry: {e}"));
        assert_eq!(lock.name(), name);
        lock.lock();
        assert!(lock.is_locked());
        unsafe { lock.unlock() };
    }
    assert!(registry::build_spec("bogus").is_err());
}

#[test]
fn controller_reacts_to_registered_worker_load() {
    // The default policy is "paper": T = load − capacity.
    let control = LoadControl::new(LoadControlConfig::for_capacity(2));
    assert_eq!(control.policy_name(), "paper");
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
    fn hammer<R: RawLock + 'static>(m: Arc<Mutex<u64, R>>) -> u64 {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..1_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = *m.lock();
        v
    }
    assert_eq!(hammer(Arc::new(Mutex::<u64, TicketLock>::new(0))), 4_000);
    assert_eq!(
        hammer(Arc::new(Mutex::<u64, TimePublishedLock>::new(0))),
        4_000
    );
}

#[test]
fn real_thread_microbench_ranks_spinning_reasonably() {
    // Without oversubscription, a spinlock must not be slower than the
    // blocking mutex by a large factor (sanity check of the drivers, not a
    // performance assertion).
    let cfg = MicrobenchConfig {
        threads: 2,
        critical_iters: 20,
        delay_iters: 100,
        duration: Duration::from_millis(80),
    };
    let spin = run_microbench::<TimePublishedLock>(cfg).throughput();
    assert!(spin > 1_000.0, "spin throughput suspiciously low: {spin}");
}

#[test]
fn simulator_reproduces_the_headline_result() {
    // TM-1 at 150% load on the simulated 64-context machine: load control
    // must clearly beat plain FIFO spinning, and must retain a healthy
    // fraction of the under-loaded spinlock peak.
    let run = |policy: LockPolicy, clients: usize| {
        let mut sim = Simulation::new(SimConfig::new(64).with_duration_ms(40).with_seed(9));
        let scenario = AppScenario::build(ScenarioKind::Tm1, &mut sim, policy);
        sim.spawn_n(clients, &scenario.mix);
        sim.run()
    };
    let peak_spin = run(LockPolicy::spin(), 63).throughput_tps();
    let over_fifo = run(LockPolicy::spin_fifo(), 96).throughput_tps();
    let over_lc = run(LockPolicy::load_controlled(), 96).throughput_tps();
    assert!(
        over_lc > over_fifo,
        "load control ({over_lc:.0} tps) must beat FIFO spinning ({over_fifo:.0} tps) at 150% load"
    );
    assert!(
        over_lc > 0.15 * peak_spin,
        "load control at 150% load ({over_lc:.0}) should retain a meaningful fraction of the 98% peak ({peak_spin:.0})"
    );
}

/// Aggressive controller for the oversubscription acceptance tests: pretend
/// 1-context machine, 1 ms cycles, 5 ms sleep timeout.  `LC_SHARDS` (set by
/// the sharded CI acceptance step) re-runs the whole suite over a sharded
/// slot buffer.
fn aggressive_control() -> Arc<LoadControl> {
    LoadControl::start(
        LoadControlConfig::for_capacity(1)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5))
            .with_shards_from_env(),
    )
}

#[test]
fn lc_rwlock_participates_in_load_control_under_oversubscription() {
    // Acceptance bar of the sync-surface redesign: with an active controller
    // and many more workers than capacity, rwlock waiters must actually be
    // put to sleep (sleep counts > 0) while readers never observe a torn
    // write; without a controller, nobody sleeps.
    let control = aggressive_control();
    let table = Arc::new(LcRwLock::new_with((0u64, 0u64), &control));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let table = Arc::clone(&table);
        let control = Arc::clone(&control);
        handles.push(thread::spawn(move || {
            let _w = control.register_worker();
            for _ in 0..1_000 {
                let mut g = table.write();
                g.0 += 1;
                g.1 += 1;
                // Hold the write lock long enough that waiters spin past the
                // slot-check period and actually meet the gate.
                for _ in 0..300 {
                    std::hint::spin_loop();
                }
            }
        }));
    }
    for _ in 0..4 {
        let table = Arc::clone(&table);
        let control = Arc::clone(&control);
        handles.push(thread::spawn(move || {
            let _w = control.register_worker();
            for _ in 0..1_000 {
                let g = table.read();
                assert_eq!(g.0, g.1, "torn write observed through the read lock");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    let g = table.read();
    assert_eq!((g.0, g.1), (4_000, 4_000));
    drop(g);
    let stats = control.buffer().stats();
    assert!(
        stats.ever_slept > 0,
        "no rwlock waiter ever slept under 8x oversubscription"
    );
    assert_eq!(stats.ever_slept, stats.woken_and_left);
}

#[test]
fn lc_rwlock_sleeps_nobody_without_a_controller() {
    // Same workload, controller never started and target pinned at zero:
    // the gate must stay out of the way entirely.
    let control = LoadControl::new(LoadControlConfig::for_capacity(1));
    let table = Arc::new(LcRwLock::new_with(0u64, &control));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let table = Arc::clone(&table);
        let control = Arc::clone(&control);
        handles.push(thread::spawn(move || {
            let _w = control.register_worker();
            for _ in 0..1_000 {
                *table.write() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*table.read(), 6_000);
    assert_eq!(control.buffer().stats().ever_slept, 0);
}

#[test]
fn lc_semaphore_participates_in_load_control_under_oversubscription() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let control = aggressive_control();
    let pool = Arc::new(LcSemaphore::new_with(2, &control));
    let holders = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let (pool, holders, peak, control) = (
            Arc::clone(&pool),
            Arc::clone(&holders),
            Arc::clone(&peak),
            Arc::clone(&control),
        );
        handles.push(thread::spawn(move || {
            let _w = control.register_worker();
            for _ in 0..1_000 {
                let permit = pool.acquire();
                let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Hold the permit long enough that waiters spin past the
                // slot-check period and actually meet the gate.
                for _ in 0..300 {
                    std::hint::spin_loop();
                }
                holders.fetch_sub(1, Ordering::SeqCst);
                drop(permit);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    assert!(peak.load(Ordering::SeqCst) <= 2, "permit bound violated");
    assert_eq!(pool.available(), 2);
    let stats = control.buffer().stats();
    assert!(
        stats.ever_slept > 0,
        "no semaphore waiter ever slept under 4x permit oversubscription"
    );
    assert_eq!(stats.ever_slept, stats.woken_and_left);
}

#[test]
fn full_sync_surface_shares_one_load_control() {
    // One controller, four primitives: mutex, rwlock, semaphore and condvar
    // all draw their sleep slots from the same buffer, and the S/W books
    // still balance at the end.
    let control = aggressive_control();
    let counter = Arc::new(LcMutex::<u64>::new_with(0, &control));
    let table = Arc::new(LcRwLock::new_with(0u64, &control));
    let pool = Arc::new(LcSemaphore::new_with(2, &control));
    let done = Arc::new(LcMutex::<usize>::new_with(0, &control));
    let cv = Arc::new(LcCondvar::new_with(&control));

    let workers = 6usize;
    let mut handles = Vec::new();
    for _ in 0..workers {
        let (counter, table, pool, done, cv, control) = (
            Arc::clone(&counter),
            Arc::clone(&table),
            Arc::clone(&pool),
            Arc::clone(&done),
            Arc::clone(&cv),
            Arc::clone(&control),
        );
        handles.push(thread::spawn(move || {
            let _w = control.register_worker();
            for _ in 0..500 {
                *counter.lock() += 1;
                {
                    let _permit = pool.acquire();
                    *table.write() += 1;
                }
            }
            *done.lock() += 1;
            cv.notify_all();
        }));
    }
    // Main thread waits on the condvar for every worker to finish.
    let guard = cv.wait_while(done.lock(), |finished| *finished < workers);
    assert_eq!(*guard, workers);
    drop(guard);
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    assert_eq!(*counter.lock(), 3_000);
    assert_eq!(*table.read(), 3_000);
    let stats = control.buffer().stats();
    assert_eq!(
        stats.ever_slept, stats.woken_and_left,
        "unbalanced sleep-slot bookkeeping across the shared surface"
    );
}

#[test]
fn two_shard_buffer_sleeps_waiters_on_both_shards() {
    // Acceptance bar of the sharded-buffer refactor: under the mixed
    // reader-writer oversubscription driver with a 2-shard buffer, load
    // control must actually park waiters on *both* shards (workers get home
    // shards round-robin by registration id), and the books must balance per
    // shard.
    let control = LoadControl::start(
        LoadControlConfig::for_capacity(1)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5))
            .with_shards(2),
    );
    assert_eq!(control.buffer().shard_count(), 2);
    let mut cfg = RwMicrobenchConfig::mixed(8);
    cfg.duration = Duration::from_millis(300);
    let r = run_rw_microbench_lc(cfg, &control);
    control.stop_controller();
    assert!(r.reads + r.writes > 0, "driver made no progress");
    let stats = control.buffer().stats();
    assert!(
        stats.ever_slept > 0,
        "nobody slept under 8x oversubscription"
    );
    assert_eq!(stats.ever_slept, stats.woken_and_left);
    for shard in 0..2 {
        let s = control.buffer().shard_stats(shard);
        assert!(
            s.ever_slept > 0,
            "shard {shard} never put a waiter to sleep (global sleeps: {})",
            stats.ever_slept
        );
        assert_eq!(s.ever_slept, s.woken_and_left, "shard {shard} unbalanced");
    }
}

/// Hammers the raw claim path of a buffer with `shards` shards from 8
/// threads (every claim immediately released, targets wide open) and
/// returns the number of lost head CASes.
fn hammer_claim_path(shards: usize) -> u64 {
    let buf = Arc::new(SleepSlotBuffer::with_shards(64, shards));
    buf.set_target(64);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let buf = Arc::clone(&buf);
        handles.push(thread::spawn(move || {
            let id = buf.register_sleeper(Arc::new(Parker::new()));
            for _ in 0..30_000 {
                if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                    buf.leave(idx, id);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = buf.stats();
    assert_eq!(stats.ever_slept, stats.woken_and_left);
    stats.claim_races
}

#[test]
fn sharding_reduces_claim_races_under_contention() {
    // The scaling claim of the refactor: distributing the head CAS over 4
    // shards must produce measurably fewer claim races than one shard under
    // the same 8-thread hammering (≥ 2× the typical core-group size).
    // Several trials are summed to smooth scheduler noise.
    let races_1: u64 = (0..3).map(|_| hammer_claim_path(1)).sum();
    let races_4: u64 = (0..3).map(|_| hammer_claim_path(4)).sum();
    // On an effectively serial machine (single-core CI runner) the threads
    // barely overlap: the handful of races observed are context-switch
    // artifacts, not CAS contention, and there is nothing to measure.
    if races_1 < 1_000 {
        eprintln!(
            "skipping race comparison: baseline only raced {races_1} times \
             (machine too serial to contend)"
        );
        return;
    }
    assert!(
        races_4 < races_1,
        "sharding produced no measurable race reduction ({races_4} vs {races_1})"
    );
}

/// Oversubscribed delegated-counter workload on flat combining: publishers
/// must get load-parked (S > 0) while the acting combiner can never obtain a
/// sleep-slot claim — the combiner is the one thread the controller must
/// never put to sleep.
///
/// The "never" half is checked from *inside* the delegated critical sections:
/// every job runs on whichever thread is currently combining, so probing the
/// gate there asks, at the exact moment the hazard exists, whether the sleep
/// books would admit the combiner.
#[test]
fn flat_combining_combiner_is_never_load_parked() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let control = aggressive_control();
    let counter = Arc::new(DelegationMutex::new(0u64));
    let combiner_claims = Arc::new(AtomicU64::new(0));
    let combiner_runs = Arc::new(AtomicU64::new(0));
    let threads = 8u64;
    let per_thread = 1_500u64;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let counter = Arc::clone(&counter);
        let control = Arc::clone(&control);
        let combiner_claims = Arc::clone(&combiner_claims);
        let combiner_runs = Arc::clone(&combiner_runs);
        handles.push(thread::spawn(move || {
            let _worker = control.register_worker();
            let mut policy = LoadControlPolicy::new(&control);
            for _ in 0..per_thread {
                let control = Arc::clone(&control);
                let combiner_claims = Arc::clone(&combiner_claims);
                let combiner_runs = Arc::clone(&combiner_runs);
                counter.run_locked_with(&mut policy, move |n| {
                    *n += 1;
                    // Hold the combining session long enough that publishers
                    // spin past the slot-check period and actually meet the
                    // gate (a release build on one CPU otherwise finishes
                    // each job before any contention window opens).
                    for _ in 0..300 {
                        std::hint::spin_loop();
                    }
                    if delegation::is_combining() {
                        combiner_runs.fetch_add(1, Ordering::Relaxed);
                        let mut gate = LoadGate::new(&control);
                        if gate.try_claim() {
                            combiner_claims.fetch_add(1, Ordering::Relaxed);
                            gate.cancel();
                        }
                    }
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    assert_eq!(
        counter.run_locked(|n| *n),
        threads * per_thread,
        "delegated increments were lost"
    );
    assert!(
        combiner_runs.load(Ordering::Relaxed) > 0,
        "no job ever ran on an active combiner"
    );
    assert_eq!(
        combiner_claims.load(Ordering::Relaxed),
        0,
        "an active combiner was admitted to the sleep books"
    );
    let stats = control.buffer().stats();
    assert!(
        stats.ever_slept > 0,
        "no publisher ever slept under 8x oversubscription"
    );
    assert_eq!(stats.ever_slept, stats.woken_and_left);
    assert!(
        control.combiner_exempt_ids().is_empty(),
        "a wake-scan exemption leaked past the run"
    );
}

#[test]
fn delegation_withdrawals_never_execute_aborted_requests() {
    // Cancel/withdraw hammer: half the publishers run an impatient abort
    // policy that keeps withdrawing and republishing its request, the other
    // half go through real load control under an aggressive controller.
    // Withdrawn requests must never execute (the counter stays arithmetic-
    // exact), no request may linger, and the S/W books must balance.
    let control = aggressive_control();
    let counter = Arc::new(DelegationMutex::new(0u64));
    let threads = 6u64;
    let per_thread = 2_000u64;
    let mut handles = Vec::new();
    for thread in 0..threads {
        let counter = Arc::clone(&counter);
        let control = Arc::clone(&control);
        handles.push(thread::spawn(move || {
            let _worker = control.register_worker();
            let mut lc_policy = LoadControlPolicy::new(&control);
            for _ in 0..per_thread {
                // The burn keeps requests pending long enough that the
                // impatient publishers actually reach their withdrawal
                // window, even in a release build on one CPU.
                let job = |n: &mut u64| {
                    *n += 1;
                    for _ in 0..300 {
                        std::hint::spin_loop();
                    }
                };
                if thread % 2 == 0 {
                    // Withdraw-happy: request an abort on every poll, up
                    // to 256 times per op, then settle down and finish.
                    let mut policy = BoundedAbort::new(1, 256);
                    counter.run_locked_with(&mut policy, job);
                } else {
                    counter.run_locked_with(&mut lc_policy, job);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    control.stop_controller();
    assert_eq!(
        counter.run_locked(|n| *n),
        threads * per_thread,
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
    let books = control.buffer().stats();
    assert_eq!(
        books.ever_slept, books.woken_and_left,
        "unbalanced sleep-slot bookkeeping"
    );
}

#[test]
fn simulator_blocking_mutex_pays_context_switches() {
    let mut sim = Simulation::new(SimConfig::new(64).with_duration_ms(30).with_seed(3));
    let scenario = AppScenario::build(ScenarioKind::Tm1, &mut sim, LockPolicy::blocking());
    sim.spawn_n(96, &scenario.mix);
    let report = sim.run();
    assert!(report.per_lock.iter().any(|l| l.blocking_handoffs > 0));
    assert!(report.micro_ns[MicroState::Blocked as usize] > 0);
}

#[test]
fn load_control_keeps_runnable_threads_near_capacity_in_sim() {
    let mut sim = Simulation::new(SimConfig::new(16).with_duration_ms(120).with_seed(5));
    let scenario = AppScenario::build(ScenarioKind::Tm1, &mut sim, LockPolicy::load_controlled());
    sim.spawn_n(48, &scenario.mix); // 300% load
    let report = sim.run();
    // Mean runnable load should sit near the 16-context capacity rather than
    // near the 48 offered threads.
    let mean = report.mean_runnable();
    assert!(
        mean < 30.0,
        "load control failed to rein in runnable threads (mean {mean:.1} of 48 offered)"
    );
    assert!(report.lc_parks > 0);
}
