//! The per-layer cells: each times calls into one layer's public functions
//! from outside, with nothing else running.  A `_ns` cell is the median over
//! batches of the time per call; a round-trip cell is the time per trip.

use crate::gen::{burn, thread_plan, CS_STEPS, TABLE};
use crate::stats::median;
use lc_accounting::{
    HardenedProcfsSampler, LoadSampler, ProcfsLoadSampler, RegistryLoadSampler, ThreadRegistry,
    ThreadState,
};
use lc_core::policy::{build_policy_spec, PolicyInputs};
use lc_core::{
    AsyncLoadGate, ClaimOutcome, ControllerStats, LcMutex, LcRwLock, LcSemaphore, LoadControl,
    LoadControlConfig, LoadControlSpec, LoadGate, RealClock, SleepSlotBuffer, SleeperId,
};
use lc_locks::stats::{WaitHistogram, WaitObservation};
use lc_locks::{
    AbortableLock, BlockingLock, FlatCombiningLock, McsLock, Mutex, Parker, RawLock, RawRwLock,
    TasLock, TicketLock, TimePublishedLock,
};
use lc_shm::{Geometry, ShmController, ShmSegment, ShmSession, ShmSlotBuffer};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Batches per cell; the cell is their median.
const BATCHES: usize = 30;
/// Calls per batch for calls of tens of nanoseconds.
const CALLS: usize = 10_000;
/// Round trips per round-trip cell.
const TRIPS: usize = 2_000;

/// Named values, in the order measured.
#[derive(Default)]
pub struct Cells(pub Vec<(String, f64)>);

impl Cells {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// Median nanoseconds per call of `f`, over `BATCHES` batches of `calls`
/// after one discarded batch.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    batch();
    median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

/// For calls that come in pairs which cannot be timed back to back (claim
/// and leave, lock and unlock): each batch runs `first` over `0..n` then
/// `second` over `0..n`, `reps` times, timing the two loops apart.
fn per_call_ns_pair(
    n: usize,
    reps: usize,
    mut first: impl FnMut(usize),
    mut second: impl FnMut(usize),
) -> (f64, f64) {
    let mut batch = || {
        let (mut a, mut b) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..reps {
            let start = Instant::now();
            (0..n).for_each(&mut first);
            let middle = Instant::now();
            (0..n).for_each(&mut second);
            a += middle - start;
            b += middle.elapsed();
        }
        let calls = (n * reps) as f64;
        (a.as_nanos() as f64 / calls, b.as_nanos() as f64 / calls)
    };
    batch();
    let (a, b): (Vec<_>, Vec<_>) = (0..BATCHES).map(|_| batch()).unzip();
    (median(&a), median(&b))
}

fn uncontended_ns<R: RawLock>() -> f64 {
    let m = Mutex::<u64, R>::new(0);
    let ns = per_call_ns(CALLS, || *m.lock() += 1);
    assert_eq!(*m.lock(), ((BATCHES + 1) * CALLS) as u64, "lost update");
    ns
}

/// One thread's side of the hand-off cell: batches between barriers.
fn handoff_thread<R: RawLock>(
    m: &Mutex<u64, R>,
    barrier: &Barrier,
    per_thread: usize,
    threads: usize,
) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES + 1);
    for _ in 0..=BATCHES {
        barrier.wait();
        let start = Instant::now();
        for _ in 0..per_thread {
            *m.lock() += 1;
        }
        barrier.wait();
        batches.push(start.elapsed().as_nanos() as f64 / (per_thread * threads) as f64);
    }
    median(&batches[1..])
}

/// `nproc` threads taking one lock back to back with an empty critical
/// section: nanoseconds per acquisition, all threads together.
fn handoff_ns<R: RawLock + Send + Sync + 'static>() -> f64 {
    let threads = crate::machine::nproc();
    let per_thread = CALLS / threads;
    let m = Arc::new(Mutex::<u64, R>::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let others: Vec<_> = (1..threads)
        .map(|_| {
            let (m, barrier) = (Arc::clone(&m), Arc::clone(&barrier));
            std::thread::spawn(move || handoff_thread(&m, &barrier, per_thread, threads))
        })
        .collect();
    let ns = handoff_thread(&m, &barrier, per_thread, threads);
    for other in others {
        other.join().expect("handoff thread panicked");
    }
    assert_eq!(
        *m.lock(),
        ((BATCHES + 1) * per_thread * threads) as u64,
        "lost update"
    );
    ns
}

/// Two threads waking each other in turn through `wake(peer)` / `wait(me)`:
/// nanoseconds per round trip (there and back).
fn ping_pong_ns<T: Send + Sync + 'static>(
    shared: Arc<T>,
    wake: fn(&T, usize),
    wait: fn(&T, usize),
) -> f64 {
    let peer = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for _ in 0..TRIPS {
                wait(&shared, 1);
                wake(&shared, 0);
            }
        })
    };
    let start = Instant::now();
    for _ in 0..TRIPS {
        wake(&shared, 1);
        wait(&shared, 0);
    }
    let ns = start.elapsed().as_nanos() as f64 / TRIPS as f64;
    peer.join().expect("ping-pong thread panicked");
    ns
}

/// The `oversub_mutex` loop shape (same thread count, critical section and
/// think time) against `op`, for a short window: operations per second.
fn short_oversub_run(
    op: Arc<dyn Fn(&mut u64) + Send + Sync>,
    register: Option<&Arc<LoadControl>>,
) -> f64 {
    const WARM: Duration = Duration::from_millis(100);
    const WINDOW: Duration = Duration::from_millis(500);
    let (threads, _) = crate::workload::Kind::OversubMutex.threads(crate::machine::nproc());
    let counting = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let workers: Vec<_> = (0..threads)
        .map(|tid| {
            let (op, counting, stop, done) = (
                Arc::clone(&op),
                Arc::clone(&counting),
                Arc::clone(&stop),
                Arc::clone(&done),
            );
            let control = register.cloned();
            let plan = thread_plan(0, tid);
            std::thread::spawn(move || {
                let _registration = control.as_ref().map(|c| c.register_worker());
                let mut x = tid as u64;
                let mut seq = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    op(&mut x);
                    x = burn(x, plan.think[seq % TABLE]);
                    if counting.load(Ordering::Relaxed) {
                        done[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    seq += 1;
                }
                black_box(x);
            })
        })
        .collect();
    std::thread::sleep(WARM);
    counting.store(true, Ordering::Relaxed);
    let start = Instant::now();
    std::thread::sleep(WINDOW);
    counting.store(false, Ordering::Relaxed);
    let seconds = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("oversubscribed worker panicked");
    }
    done.iter().map(|d| d.load(Ordering::Relaxed)).sum::<u64>() as f64 / seconds
}

/// The critical section of the workloads, under whatever guard `lock` gave.
fn critical_section(mut guard: impl std::ops::DerefMut<Target = u64>, x: &mut u64) {
    *guard += 1;
    *x = burn(*x, CS_STEPS);
}

fn raw_oversub_ops_per_s<R: RawLock + Send + Sync + 'static>() -> f64 {
    let m = Mutex::<u64, R>::new(0);
    short_oversub_run(
        Arc::new(move |x: &mut u64| critical_section(m.lock(), x)),
        None,
    )
}

fn lc_oversub_ops_per_s<R: AbortableLock + Send + Sync + 'static>() -> f64 {
    let control = LoadControl::start(LoadControlConfig::for_this_machine());
    let m = LcMutex::<u64, R>::new_with(0, &control);
    let ops = short_oversub_run(
        Arc::new(move |x: &mut u64| critical_section(m.lock(), x)),
        Some(&control),
    );
    control.stop_controller();
    ops
}

fn locks(out: &mut Cells) {
    out.put(
        "locks.tp-queue.uncontended_ns",
        uncontended_ns::<TimePublishedLock>(),
    );
    out.put("locks.mcs.uncontended_ns", uncontended_ns::<McsLock>());
    out.put(
        "locks.ticket.uncontended_ns",
        uncontended_ns::<TicketLock>(),
    );
    out.put("locks.tas.uncontended_ns", uncontended_ns::<TasLock>());
    out.put(
        "locks.blocking.uncontended_ns",
        uncontended_ns::<BlockingLock>(),
    );
    // Single-thread only: contended delegation locks can hang (ROADMAP item 1).
    out.put(
        "locks.flat-combining.uncontended_ns",
        uncontended_ns::<FlatCombiningLock>(),
    );

    let rw = RawRwLock::new();
    out.put(
        "locks.rwlock.read_uncontended_ns",
        per_call_ns(CALLS, || {
            rw.read();
            // SAFETY: this thread took the shared lock on the line above.
            unsafe { rw.unlock_read() };
        }),
    );
    out.put(
        "locks.rwlock.write_uncontended_ns",
        per_call_ns(CALLS, || {
            rw.write();
            // SAFETY: this thread took the exclusive lock on the line above.
            unsafe { rw.unlock_write() };
        }),
    );

    out.put(
        "locks.tp-queue.handoff_ns",
        handoff_ns::<TimePublishedLock>(),
    );
    out.put("locks.mcs.handoff_ns", handoff_ns::<McsLock>());
    out.put("locks.ticket.handoff_ns", handoff_ns::<TicketLock>());

    out.put(
        "locks.parker.park_unpark_rtt_ns",
        ping_pong_ns(
            Arc::new([Parker::new(), Parker::new()]),
            |parkers, who| parkers[who].unpark(),
            |parkers, who| parkers[who].park(),
        ),
    );

    let histogram = WaitHistogram::new();
    let mut elapsed = 1u64;
    out.put(
        "locks.stats.wait_record_ns",
        per_call_ns(CALLS, || {
            elapsed = elapsed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            histogram.record(Duration::from_nanos(elapsed >> 40));
        }),
    );

    let tp_off = raw_oversub_ops_per_s::<TimePublishedLock>();
    let mcs_off = raw_oversub_ops_per_s::<McsLock>();
    out.put("locks.tp-queue.oversub_raw_ops_per_s", tp_off);
    out.put("locks.mcs.oversub_raw_ops_per_s", mcs_off);
    out.put(
        "locks.blocking.oversub_raw_ops_per_s",
        raw_oversub_ops_per_s::<BlockingLock>(),
    );
    out.put(
        "locks.tp-queue.lc_on_off_ratio",
        lc_oversub_ops_per_s::<TimePublishedLock>() / tp_off.max(1.0),
    );
    out.put(
        "locks.mcs.lc_on_off_ratio",
        lc_oversub_ops_per_s::<McsLock>() / mcs_off.max(1.0),
    );
}

fn lc_wrappers(out: &mut Cells) {
    let control = LoadControl::start(LoadControlConfig::for_this_machine());
    let _registration = control.register_worker();

    // lock() and the guard's drop cannot be timed back to back at this
    // scale, so take a ring of locks in one loop and release it in another.
    const RING: usize = 64;
    let ring: Vec<LcMutex<u64>> = (0..RING).map(|_| LcMutex::new_with(0, &control)).collect();
    let guards = std::cell::RefCell::new(Vec::with_capacity(RING));
    let (lock_ns, unlock_ns) = per_call_ns_pair(
        RING,
        CALLS / RING,
        |i| guards.borrow_mut().push(ring[i].lock()),
        |_| drop(guards.borrow_mut().pop()),
    );
    out.put("core.lc_lock.lock_ns", lock_ns);
    out.put("core.lc_lock.unlock_ns", unlock_ns);

    let rw = LcRwLock::new_with((0u64, 0u64), &control);
    out.put(
        "core.lc_rwlock.read_uncontended_ns",
        per_call_ns(CALLS, || drop(black_box(rw.read()))),
    );
    out.put(
        "core.lc_rwlock.write_uncontended_ns",
        per_call_ns(CALLS, || rw.write().0 += 1),
    );
    let semaphore = LcSemaphore::new_with(1, &control);
    out.put(
        "core.lc_semaphore.uncontended_ns",
        per_call_ns(CALLS, || drop(semaphore.acquire())),
    );
    drop(guards);
    control.stop_controller();
}

/// Fills the buffer of `control` with `count` claims held by sleepers that
/// never block, and returns them as (slot, sleeper).
fn hold_claims(control: &LoadControl, count: usize) -> Vec<(usize, SleeperId)> {
    let buffer = control.buffer();
    control.set_sleep_target(count as u64);
    (0..count)
        .map(|_| {
            let sleeper = buffer.register_sleeper(Arc::new(Parker::new()));
            match buffer.try_claim(sleeper) {
                ClaimOutcome::Claimed(slot) => (slot, sleeper),
                other => panic!("claim with space left returned {other:?}"),
            }
        })
        .collect()
}

/// A waker that unparks the thread that is blocked on the future.
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Claim → park → another thread publishes target 0 → resumed, `TRIPS`
/// times.  `sleep_once` claims a slot, calls its argument once the claim is
/// held, and sleeps in the slot, whatever the plane; it returns false when
/// there was no slot to claim yet.  The other thread waits for that call, not
/// for `sleepers()`: `S` moves before the slot is written, and a wake scan in
/// between finds nobody (the controller's next cycle would; this cell has no
/// next cycle).
fn claim_park_resume_ns(
    control: &Arc<LoadControl>,
    mut sleep_once: impl FnMut(&dyn Fn()) -> bool,
) -> f64 {
    let claims = Arc::new(AtomicU64::new(0));
    let waker = {
        let (control, claims) = (Arc::clone(control), Arc::clone(&claims));
        std::thread::spawn(move || {
            for trip in 0..TRIPS as u64 {
                control.set_sleep_target(1);
                while claims.load(Ordering::Acquire) <= trip {
                    std::hint::spin_loop();
                }
                control.set_sleep_target(0);
            }
        })
    };
    let announce = || {
        claims.fetch_add(1, Ordering::Release);
    };
    let start = Instant::now();
    let mut trips = 0;
    while trips < TRIPS {
        if sleep_once(&announce) {
            trips += 1;
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / TRIPS as f64;
    waker.join().expect("waker thread panicked");
    ns
}

fn gates(out: &mut Cells) {
    let config = LoadControlConfig::for_capacity(2);

    // A thread's first register_worker builds its context; later calls find
    // it.  Time the first, on fresh threads.
    let control = LoadControl::new(config);
    let firsts: Vec<f64> = (0..200)
        .map(|_| {
            let control = Arc::clone(&control);
            std::thread::spawn(move || {
                let start = Instant::now();
                let registration = control.register_worker();
                let ns = start.elapsed().as_nanos() as f64;
                drop(registration);
                ns
            })
            .join()
            .expect("registering thread panicked")
        })
        .collect();
    out.put("core.thread_ctx.register_worker_ns", median(&firsts));

    // T = 0: what every iteration of an uncontended-machine spin loop pays.
    let control = LoadControl::new(config);
    let mut gate = LoadGate::new(&control);
    let mut iteration = 0;
    out.put(
        "core.thread_ctx.gate_check_ns",
        per_call_ns(CALLS, || {
            iteration += 1;
            black_box(gate.check(iteration));
        }),
    );
    // T > 0 and S = T: the buffer is wanted but full.
    let held = hold_claims(&control, 4);
    out.put(
        "core.thread_ctx.gate_check_full_ns",
        per_call_ns(CALLS, || {
            iteration += 1;
            black_box(gate.check(iteration));
        }),
    );
    for (slot, sleeper) in held {
        control.buffer().leave(slot, sleeper);
    }
    control.set_sleep_target(1);
    out.put(
        "core.thread_ctx.claim_cancel_ns",
        per_call_ns(CALLS, || {
            assert!(gate.try_claim(), "claim with space left failed");
            gate.cancel();
        }),
    );
    out.put(
        "core.thread_ctx.claim_park_resume_rtt_ns",
        claim_park_resume_ns(&control, |claimed| {
            if !gate.try_claim() {
                return false;
            }
            claimed();
            gate.park()
        }),
    );
    drop(gate);

    let control = LoadControl::new(config);
    let mut gate = AsyncLoadGate::new(&control);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    out.put(
        "core.async_gate.suspend_resume_rtt_ns",
        claim_park_resume_ns(&control, |claimed| {
            if !gate.try_claim() {
                return false;
            }
            claimed();
            while gate.poll_park(&mut cx) == Poll::Pending {
                std::thread::park();
            }
            true
        }),
    );
}

fn slots(out: &mut Cells) {
    const SLEEPERS: usize = 512;
    let buffer = SleepSlotBuffer::new(1024);
    let sleepers: Vec<SleeperId> = (0..SLEEPERS)
        .map(|_| buffer.register_sleeper(Arc::new(Parker::new())))
        .collect();
    buffer.set_target(SLEEPERS as u64);
    let claimed = std::cell::RefCell::new(vec![0usize; SLEEPERS]);
    let (claim_ns, leave_ns) = per_call_ns_pair(
        SLEEPERS,
        CALLS / SLEEPERS,
        |i| match buffer.try_claim(sleepers[i]) {
            ClaimOutcome::Claimed(slot) => claimed.borrow_mut()[i] = slot,
            other => panic!("claim with space left returned {other:?}"),
        },
        |i| buffer.leave(claimed.borrow()[i], sleepers[i]),
    );
    out.put("core.slots.try_claim_ns", claim_ns);
    out.put("core.slots.leave_ns", leave_ns);

    // Waking `outstanding` sleepers in one call: scan, slot clear and unpark
    // of parkers nobody is blocked on (the blocked case is the park/unpark
    // round trip).
    for outstanding in [8usize, 64] {
        let mut samples = Vec::with_capacity(300);
        for _ in 0..300 {
            let slots: Vec<usize> = sleepers[..outstanding]
                .iter()
                .map(|&s| match buffer.try_claim(s) {
                    ClaimOutcome::Claimed(slot) => slot,
                    other => panic!("claim with space left returned {other:?}"),
                })
                .collect();
            let start = Instant::now();
            let woken = buffer.wake(outstanding);
            samples.push(start.elapsed().as_nanos() as f64 / outstanding as f64);
            assert_eq!(woken, outstanding);
            for (slot, &sleeper) in slots.iter().zip(&sleepers) {
                buffer.leave(*slot, sleeper);
            }
        }
        out.put(
            format!("core.slots.wake_ns_per_sleeper.s{outstanding}"),
            median(&samples),
        );
    }

    let sharded = SleepSlotBuffer::with_shards(1024, 4);
    let mut flip = 0u64;
    out.put(
        "core.slots.set_shard_targets_ns",
        per_call_ns(CALLS, || {
            flip ^= 1;
            sharded.set_shard_targets(&[flip, 1, flip, 1]);
        }),
    );
    out.put(
        "core.slots.stats_ns",
        per_call_ns(CALLS, || {
            black_box(buffer.stats());
        }),
    );
}

/// One controller cycle in which the target drops by one, so that the cycle
/// wakes one of `sleepers` outstanding sleepers spread over `shards` shards
/// (`sleepers` = 0: a steady cycle that publishes nothing).
fn run_cycle_ns(sleepers: usize, shards: usize) -> f64 {
    let config = LoadControlConfig::for_capacity(2).with_shards(shards);
    let control = LoadControl::new(config);
    let runnable: Vec<_> = (0..config.capacity)
        .map(|_| control.registry().register())
        .collect();
    let mut held = hold_claims(&control, sleepers);
    let buffer = control.buffer();
    let mut samples = Vec::with_capacity(1000);
    for _ in 0..1000 {
        if sleepers > 0 {
            // Untimed: load = capacity + sleepers, so T = sleepers; refill
            // the claim the previous timed cycle woke.
            runnable[0].set_state(ThreadState::Running);
            control.run_cycle();
            for (slot, sleeper) in &mut held {
                if !buffer.still_claimed(*slot, *sleeper) {
                    buffer.leave(*slot, *sleeper);
                    match buffer.try_claim(*sleeper) {
                        ClaimOutcome::Claimed(fresh) => *slot = fresh,
                        other => panic!("refill claim returned {other:?}"),
                    }
                }
            }
            runnable[0].set_state(ThreadState::Idle);
        }
        let start = Instant::now();
        let stats = control.run_cycle();
        samples.push(start.elapsed().as_nanos() as f64);
        assert_eq!(stats.last_target, sleepers.saturating_sub(1) as u64);
    }
    for (slot, sleeper) in held {
        buffer.leave(slot, sleeper);
    }
    median(&samples)
}

fn controller(out: &mut Cells) {
    out.put("core.controller.run_cycle_ns.s0", run_cycle_ns(0, 1));
    out.put("core.controller.run_cycle_ns.s8", run_cycle_ns(8, 1));
    out.put("core.controller.run_cycle_ns.s64", run_cycle_ns(64, 1));
    out.put("core.controller.run_cycle_ns.s64x4", run_cycle_ns(64, 4));

    for name in ["paper", "pid", "hysteresis", "latency", "autotune"] {
        let mut policy = build_policy_spec(name).expect("registered policy");
        let mut load = 0usize;
        let ns = per_call_ns(CALLS, || {
            load = (load + 3) % 17;
            let inputs = PolicyInputs {
                load,
                capacity: 4,
                headroom: 0,
                current_target: load.saturating_sub(4) as u64,
                interval: LoadControlConfig::DEFAULT_UPDATE_INTERVAL,
                stats: ControllerStats::default(),
                wait: WaitObservation::default(),
            };
            black_box(policy.target(&inputs));
        });
        out.put(format!("core.policy.{name}.target_ns"), ns);
    }

    let config = LoadControlConfig::for_capacity(2);
    out.put(
        "core.spec.from_spec_ns",
        per_call_ns(100, || {
            let spec: LoadControlSpec =
                "policy=pid(kp=0.5, ki=0.1); splitter=load-weighted; shards=2"
                    .parse()
                    .expect("valid spec");
            black_box(LoadControl::from_spec(config, &spec).expect("registered names"));
        }),
    );
}

fn accounting(out: &mut Cells) {
    for threads in [8usize, 64] {
        let registry = Arc::new(ThreadRegistry::new());
        let _handles: Vec<_> = (0..threads).map(|_| registry.register()).collect();
        let sampler = RegistryLoadSampler::new(Arc::clone(&registry));
        out.put(
            format!("accounting.registry.sample_ns.t{threads}"),
            per_call_ns(CALLS, || {
                black_box(sampler.sample());
            }),
        );
    }
    let registry = Arc::new(ThreadRegistry::new());
    let handle = registry.register();
    let mut spinning = false;
    out.put(
        "accounting.registry.set_state_ns",
        per_call_ns(CALLS, || {
            spinning = !spinning;
            handle.set_state(if spinning {
                ThreadState::Spinning
            } else {
                ThreadState::Running
            });
        }),
    );
    let procfs = ProcfsLoadSampler::new();
    out.put(
        "accounting.procfs.sample_ns",
        per_call_ns(20, || {
            black_box(procfs.sample());
        }),
    );
    let hardened = HardenedProcfsSampler::new(
        ProcfsLoadSampler::new(),
        Box::new(RegistryLoadSampler::new(registry)),
    );
    out.put(
        "accounting.procfs-hardened.sample_ns",
        per_call_ns(20, || {
            black_box(hardened.sample());
        }),
    );
}

fn shm(out: &mut Cells) -> std::io::Result<()> {
    let pid = std::process::id();
    let geometry = Geometry::DEFAULT;
    let new_buffer = || -> std::io::Result<ShmSlotBuffer> {
        Ok(ShmSlotBuffer::new(Arc::new(ShmSegment::create_anon(
            geometry,
        )?)))
    };
    let full = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::OutOfMemory,
            format!("{what} table full"),
        )
    };

    let buffer = new_buffer()?;
    let cells: Vec<usize> = (0..8)
        .map(|_| buffer.register_sleeper(pid).ok_or_else(|| full("sleeper")))
        .collect::<Result<_, _>>()?;
    let claimed = std::cell::RefCell::new(vec![0usize; cells.len()]);
    let (claim_ns, leave_ns) = per_call_ns_pair(
        cells.len(),
        CALLS / cells.len(),
        |i| claimed.borrow_mut()[i] = buffer.try_claim(0, cells[i]).expect("free slot in shard 0"),
        |i| buffer.leave(claimed.borrow()[i], cells[i]),
    );
    out.put("shm.buffer.try_claim_ns", claim_ns);
    out.put("shm.buffer.leave_ns", leave_ns);

    out.put(
        "shm.buffer.park_unpark_rtt_ns",
        ping_pong_ns(
            Arc::new((buffer.clone(), [cells[0], cells[1]])),
            |(buffer, cells), who| buffer.unpark_cell(cells[who]),
            |(buffer, cells), who| {
                buffer.park_cell(cells[who], Duration::from_secs(5));
            },
        ),
    );

    let mut seq = 0;
    out.put(
        "shm.buffer.post_ack_ns",
        per_call_ns(CALLS, || {
            seq = buffer.post_command("policy=pid(kp=0.9)");
            let (pending, _spec) = buffer.pending_command().expect("command just posted");
            buffer.ack_command(pending, true);
        }),
    );
    assert_eq!(buffer.command_state(), (seq, seq, 0));

    let session = ShmSession::attach(Arc::clone(new_buffer()?.segment()))?;
    let gate = session.register_gate(Arc::new(RealClock::new()), Duration::from_millis(100))?;
    out.put(
        "shm.gate.maybe_sleep_idle_ns",
        per_call_ns(CALLS, || {
            assert!(!gate.maybe_sleep(), "slept with target 0")
        }),
    );

    // Eight claims of this (live) process outstanding and as many runnable
    // threads as the capacity: the paper policy holds T = 8, nobody is woken.
    let session = ShmSession::attach(Arc::clone(new_buffer()?.segment()))?;
    let buffer = session.buffer().clone();
    session.set_runnable(2);
    for shard in 0..geometry.shards {
        buffer.set_shard_target(shard, 2);
    }
    buffer.set_total_target(8);
    for _ in 0..8 {
        let cell = buffer
            .register_sleeper(pid)
            .ok_or_else(|| full("sleeper"))?;
        buffer
            .try_claim(buffer.home_shard(cell), cell)
            .expect("free slot in the home shard");
    }
    let mut controller = ShmController::new(buffer.clone(), 2);
    out.put(
        "shm.controller.run_cycle_ns.s8",
        per_call_ns(200, || {
            assert!(controller.run_cycle(), "lost the controller lease")
        }),
    );
    let stats = buffer.stats();
    assert_eq!((stats.sleeping, stats.total_target), (8, 8));
    Ok(())
}

fn des(out: &mut Cells) {
    // Fixed seed and configuration: the work is the same on every run.
    let config = lc_des::engine::DesConfig::new(2_000, 8);
    let start = Instant::now();
    let report = lc_des::engine::run(config).expect("default DES configuration is valid");
    out.put(
        "des.engine.events_per_s",
        report.events as f64 / start.elapsed().as_secs_f64(),
    );
}

/// Runs every cell.
pub fn run_all() -> std::io::Result<Cells> {
    let mut out = Cells::default();
    out.put(
        "perf.timer.now_ns",
        per_call_ns(CALLS, || {
            black_box(Instant::now());
        }),
    );
    locks(&mut out);
    lc_wrappers(&mut out);
    gates(&mut out);
    slots(&mut out);
    controller(&mut out);
    accounting(&mut out);
    shm(&mut out)?;
    des(&mut out);
    Ok(out)
}
