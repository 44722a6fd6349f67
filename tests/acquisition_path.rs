//! What one load-controlled acquisition does to per-thread and registry state:
//! the wrappers release the backend before their own bookkeeping without
//! weakening the "never sleep while holding a lock" rule (paper §6.1.2), an
//! acquisition does nothing load-control-specific until its backend has
//! polled for a whole slot check period — and only then publishes `Spinning`
//! — a waiter past capacity that finds no slot for sixteen periods steps
//! aside for one short park that touches no book, and the per-thread context
//! behind all of it survives nesting, several controls on one thread and
//! thread exit.

use load_control_suite::accounting::{ThreadState, TransitionTrace};
use load_control_suite::core::{
    ClaimOutcome, LcLock, LcMutex, LcRwLock, LcSemaphore, LoadControl, LoadControlConfig, LoadGate,
    ParkOps, SleeperId, Substitutes,
};
use load_control_suite::locks::{
    AbortableLock, DelegationMutex, DynMutex, FlatCombiningLock, ParkResult, Parker, RawLock,
    SpinDecision, SpinPolicy, ABORTABLE_LOCK_NAMES,
};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn manual_control() -> Arc<LoadControl> {
    LoadControl::from_spec(
        LoadControlConfig::for_capacity(1),
        &"policy=fixed".parse().unwrap(),
    )
    .unwrap()
}

/// Whether the calling thread would volunteer to sleep right now (any claim
/// taken is given straight back).
fn would_claim(control: &Arc<LoadControl>) -> bool {
    let mut gate = LoadGate::new(control);
    let claimed = gate.try_claim();
    gate.cancel();
    claimed
}

/// The transitions `trace` recorded, in order, as (from, to).
fn steps(trace: &TransitionTrace) -> Vec<(ThreadState, ThreadState)> {
    trace.snapshot().iter().map(|t| (t.from, t.to)).collect()
}

/// With the controller asking for one sleeper, a thread refuses to claim a
/// slot while `guard` is alive and claims as soon as it has dropped.
fn assert_holding_blocks_claims<G>(control: &Arc<LoadControl>, guard: G, what: &str) {
    assert!(!would_claim(control), "claimed while holding {what}");
    drop(guard);
    assert!(
        would_claim(control),
        "still refusing after releasing {what}"
    );
    assert_eq!(control.sleepers(), 0);
}

#[test]
fn every_guard_blocks_sleep_claims_exactly_while_it_is_held() {
    let control = manual_control();
    control.set_sleep_target(1);
    assert!(would_claim(&control));

    let mutex = LcMutex::<u32>::new_with(0, &control);
    assert_holding_blocks_claims(&control, mutex.lock(), "an LcMutex guard");
    assert_holding_blocks_claims(&control, mutex.try_lock().unwrap(), "an LcMutex try-guard");

    let rw = LcRwLock::new_with(0u32, &control);
    assert_holding_blocks_claims(&control, rw.read(), "an LcRwLock read guard");
    assert_holding_blocks_claims(&control, rw.write(), "an LcRwLock write guard");

    let semaphore = LcSemaphore::new_with(2, &control);
    assert_holding_blocks_claims(&control, semaphore.acquire(), "an LcSemaphore permit");

    // Nested holds: the refusal lasts until the last guard is gone.
    let (outer, inner) = (mutex.lock(), rw.read());
    drop(outer);
    assert_holding_blocks_claims(&control, inner, "the inner of two guards");
}

/// Runs `section`, which must panic, and checks that the unwind released
/// `mutex`: another thread takes it (`try_elsewhere` returns whether it
/// did), and the panicking thread holds nothing, so with the controller
/// asking for a sleeper it would claim a slot.
fn assert_panic_releases<M: Sync>(
    control: &Arc<LoadControl>,
    mutex: &M,
    section: impl FnOnce(&M),
    try_elsewhere: impl Fn(&M) -> bool + Sync,
    what: &str,
) {
    assert!(catch_unwind(AssertUnwindSafe(|| section(mutex))).is_err());
    let taken = std::thread::scope(|scope| scope.spawn(|| try_elsewhere(mutex)).join());
    assert!(
        taken.unwrap(),
        "{what}: another thread could not take the lock"
    );
    assert!(would_claim(control), "{what}: the panic left a hold behind");
}

#[test]
fn a_panicking_critical_section_releases_its_lock() {
    let control = manual_control();
    control.set_sleep_target(1);

    let lc = LcMutex::<u64>::new_with(0, &control);
    assert_panic_releases(
        &control,
        &lc,
        |m| {
            let _guard = m.lock();
            panic!("inside an LcMutex guard")
        },
        |m| m.try_lock().map(|mut n| *n += 1).is_some(),
        "an LcMutex over tp-queue",
    );
    assert_eq!(*lc.lock(), 1);

    let dynamic = DynMutex::build("tp-queue", 0u64).expect("a lock family");
    assert_panic_releases(
        &control,
        &dynamic,
        |m| {
            let _guard = m.lock_with(&mut LoadGate::new(&control));
            panic!("inside a DynMutex guard")
        },
        |m| m.try_lock().map(|mut n| *n += 1).is_some(),
        "a DynMutex built from a name",
    );
    assert_eq!(*dynamic.lock(), 1);

    let delegated = DelegationMutex::new(0u64);
    assert_panic_releases(
        &control,
        &delegated,
        |m| {
            let _guard = m.lock();
            panic!("inside a DelegationMutex guard")
        },
        |m| m.try_lock().map(|mut n| *n += 1).is_some(),
        "a DelegationMutex",
    );
    assert_eq!(delegated.run_locked(|n| *n), 1);
}

#[test]
fn spinning_is_published_at_the_first_due_slot_check() {
    let control = manual_control();
    let _worker = control.register_worker();
    let registry = Arc::clone(control.registry());
    let trace = Arc::new(TransitionTrace::with_capacity(64));
    registry.attach_trace(Arc::clone(&trace));
    let period = LoadControlConfig::SLOT_CHECK_PERIOD;
    let runnable = registry.runnable_threads();
    assert_eq!(runnable, 1);

    // An uncontended acquisition never polls.
    let mutex = LcMutex::<u32>::new_with(0, &control);
    drop(mutex.lock());
    assert!(trace.is_empty(), "{:?}", trace.snapshot());

    // A hand-off shorter than one check period: no transition either.
    let mut policy = LoadGate::new(&control);
    for spins in 1..period {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
        assert_eq!(registry.runnable_threads(), runnable);
    }
    policy.on_acquired(period - 1);
    assert!(trace.is_empty(), "{:?}", trace.snapshot());

    // A longer wait: Spinning at the first due check, once, then Running.
    let mut policy = LoadGate::new(&control);
    for spins in 1..=3 * period {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
        assert_eq!(registry.runnable_threads(), runnable);
        assert_eq!(trace.len(), usize::from(spins >= period));
    }
    policy.on_acquired(3 * period);
    assert_eq!(registry.runnable_threads(), runnable);
    assert_eq!(
        steps(&trace),
        [
            (ThreadState::Running, ThreadState::Spinning),
            (ThreadState::Spinning, ThreadState::Running)
        ]
    );

    // Detached, the registry records nothing further.
    registry.detach_trace();
    let mut policy = LoadGate::new(&control);
    for spins in 1..=period {
        let _ = policy.on_spin(spins);
    }
    policy.on_acquired(period);
    assert_eq!(trace.len(), 2);
}

#[test]
fn an_uncontended_acquisition_touches_the_registry_only_to_leave_idle() {
    let control = manual_control();
    let worker = control.register_worker();
    let trace = Arc::new(TransitionTrace::with_capacity(64));
    control.registry().attach_trace(Arc::clone(&trace));
    // A sleep target makes any slot check visible as a claim.
    control.set_sleep_target(1);

    let mutex = LcMutex::<u32>::new_with(0, &control);
    let rw = LcRwLock::new_with(0u32, &control);
    let semaphore = LcSemaphore::new_with(1, &control);
    let acquisitions: [(&str, &dyn Fn()); 4] = [
        ("LcMutex::lock", &|| drop(mutex.lock())),
        ("LcRwLock::read", &|| drop(rw.read())),
        ("LcRwLock::write", &|| drop(rw.write())),
        ("LcSemaphore::acquire", &|| drop(semaphore.acquire())),
    ];
    for (what, acquire) in acquisitions {
        acquire();
        assert!(trace.is_empty(), "{what}: {:?}", trace.snapshot());
        assert_eq!(control.buffer().stats().ever_slept, 0, "{what} claimed");

        // Lock operations re-activate accounting for a thread left idle.
        worker.set_state(ThreadState::Idle);
        acquire();
        assert_eq!(worker.state(), ThreadState::Running, "{what}");
        assert_eq!(
            steps(&trace),
            [
                (ThreadState::Running, ThreadState::Idle),
                (ThreadState::Idle, ThreadState::Running)
            ],
            "{what}"
        );
        trace.clear();
    }
    assert_eq!(control.registry().runnable_threads(), 1);
}

#[test]
fn two_controls_on_one_thread_keep_their_own_books() {
    let (a, b) = (manual_control(), manual_control());
    a.set_sleep_target(1);
    b.set_sleep_target(1);
    let on_a = LcMutex::<u32>::new_with(0, &a);
    let on_b = LcRwLock::new_with(0u32, &b);
    for _ in 0..3 {
        let guard_a = on_a.lock();
        assert!(!would_claim(&a) && would_claim(&b));
        let guard_b = on_b.read();
        assert!(!would_claim(&a) && !would_claim(&b));
        drop(guard_a);
        assert!(would_claim(&a) && !would_claim(&b));
        drop(guard_b);
        assert!(would_claim(&a) && would_claim(&b));
    }
    // One context, so one registry record, per control.
    assert_eq!((a.registry().len(), b.registry().len()), (1, 1));
    assert_eq!((a.sleepers(), b.sleepers()), (0, 0));
}

/// Takes its lock when the thread-local holding it is destroyed.
struct LocksOnDrop(Arc<LcMutex<u32>>);

impl Drop for LocksOnDrop {
    fn drop(&mut self) {
        *self.0.lock() += 1;
    }
}

thread_local! {
    static LOCKS_AT_EXIT: RefCell<Option<LocksOnDrop>> = const { RefCell::new(None) };
}

#[test]
fn a_thread_leaves_nothing_behind_even_when_it_locks_while_exiting() {
    let control = manual_control();
    let mutex = Arc::new(LcMutex::<u32>::new_with(0, &control));
    let refs_before = Arc::strong_count(&control);
    // `first_use_locks`: whether the thread takes the lock before or after it
    // first touches the thread-local that locks again at exit.  Thread-local
    // destructors run in reverse order of first use, so one of the two
    // orders takes the exit-time lock after the thread's load-control
    // contexts are gone.
    for first_use_locks in [false, true] {
        let (control2, mutex2) = (Arc::clone(&control), Arc::clone(&mutex));
        std::thread::spawn(move || {
            if first_use_locks {
                *mutex2.lock() += 1;
            }
            LOCKS_AT_EXIT.with(|slot| *slot.borrow_mut() = Some(LocksOnDrop(Arc::clone(&mutex2))));
            *mutex2.lock() += 1;
            assert_eq!(control2.registry().len(), 1);
        })
        .join()
        .unwrap();
        assert_eq!(control.registry().len(), 0);
        assert_eq!(control.registry().runnable_threads(), 0);
        assert_eq!(control.sleepers(), 0);
        assert_eq!(Arc::strong_count(&control), refs_before);
        assert!(!mutex.is_locked());
    }
    assert_eq!(*mutex.lock(), 5);
}

#[test]
fn a_delegated_closure_may_lock_while_its_combiner_is_mid_acquisition() {
    let control = manual_control();
    let other_control = manual_control();
    let outer: Arc<LcLock<FlatCombiningLock>> = Arc::new(LcLock::from_raw(
        <FlatCombiningLock as RawLock>::new(),
        &control,
    ));
    let inner = Arc::new(LcMutex::<u32>::new_with(0, &control));
    let inner_elsewhere = Arc::new(LcRwLock::new_with(0u32, &other_control));
    let nested_ok = Arc::new(AtomicBool::new(false));

    // This thread holds the lock while the other two queue up behind it.
    outer.lock();

    let publisher = {
        let (outer, inner, other_control, inner_elsewhere, nested_ok) = (
            Arc::clone(&outer),
            Arc::clone(&inner),
            Arc::clone(&other_control),
            Arc::clone(&inner_elsewhere),
            Arc::clone(&nested_ok),
        );
        std::thread::spawn(move || {
            // A sleep claim held across the publication refuses the combiner
            // role, so this thread's job is run by somebody else.
            other_control.set_sleep_target(1);
            let mut claim = LoadGate::new(&other_control);
            assert!(claim.try_claim());
            outer.inner().run_locked(move || {
                // Runs on the combiner, inside its `LcLock::lock`.  A panic
                // here would strand this publisher, so report it instead.
                let nested = catch_unwind(AssertUnwindSafe(|| {
                    *inner.lock() += 1;
                    // Another control: misses the one-load lookup and goes
                    // through the thread's context list.
                    *inner_elsewhere.write() += 1;
                    *inner.try_lock().expect("uncontended") += 1;
                }));
                nested_ok.store(nested.is_ok(), Ordering::SeqCst);
            });
            claim.cancel();
        })
    };
    while outer.inner().pending_requests() < 1 {
        std::thread::yield_now();
    }
    let combiner = {
        let (outer, control, inner_elsewhere) = (
            Arc::clone(&outer),
            Arc::clone(&control),
            Arc::clone(&inner_elsewhere),
        );
        std::thread::spawn(move || {
            // Touched first, so that `control`'s context is the one this
            // thread used last.
            drop(inner_elsewhere.read());
            outer.lock();
            // The hold counted by that acquisition is this thread's only one:
            // the closure's nested holds were all given back.
            control.set_sleep_target(1);
            assert!(!would_claim(&control));
            unsafe { outer.unlock() };
            assert!(would_claim(&control));
            control.set_sleep_target(0);
        })
    };
    while outer.inner().pending_requests() < 2 {
        std::thread::yield_now();
    }
    // A plain unlock grants nobody: the waiting locker takes the flag, finds
    // the published job and runs it before its own acquisition completes.
    unsafe { outer.unlock() };
    combiner.join().unwrap();
    publisher.join().unwrap();
    assert!(nested_ok.load(Ordering::SeqCst), "nested lock panicked");
    assert_eq!((*inner.lock(), *inner_elsewhere.read()), (2, 1));
    assert_eq!(outer.inner().delegation_stats().combined_jobs, 1);
}

/// A backend nobody contends for: `lock_with` replays `polls` polling
/// iterations against the policy it is handed, then is granted.
struct Scripted {
    polls: u64,
    /// Runs when the policy answers `Abort`; `true` means the lock was won in
    /// that window, `false` that the waiter really aborted.
    on_abort: Box<dyn Fn() -> bool + Send + Sync>,
    held: AtomicBool,
}

impl Scripted {
    fn new(polls: u64, on_abort: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        Self {
            polls,
            on_abort: Box::new(on_abort),
            held: AtomicBool::new(false),
        }
    }
}

unsafe impl RawLock for Scripted {
    fn new() -> Self {
        Scripted::new(0, || false)
    }

    fn lock(&self) {
        self.held.store(true, Ordering::SeqCst);
    }

    unsafe fn unlock(&self) {
        self.held.store(false, Ordering::SeqCst);
    }

    fn is_locked(&self) -> bool {
        self.held.load(Ordering::SeqCst)
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

unsafe impl AbortableLock for Scripted {
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        for spins in 1..=self.polls {
            if policy.on_spin(spins) == SpinDecision::Abort {
                if (self.on_abort)() {
                    break;
                }
                policy.on_aborted();
            }
        }
        policy.on_acquired(self.polls);
        self.lock();
    }
}

#[test]
fn a_wrapper_that_polls_runs_the_whole_client_side_algorithm() {
    let control = manual_control();
    let _worker = control.register_worker();
    let trace = Arc::new(TransitionTrace::with_capacity(64));
    control.registry().attach_trace(Arc::clone(&trace));
    let period = LoadControlConfig::SLOT_CHECK_PERIOD;
    let lock_once = |backend: Scripted| {
        let lock = LcLock::from_raw(backend, &control);
        lock.lock();
        lock
    };

    // Granted before the first due slot check: nothing was published.
    let lock = lock_once(Scripted::new(period - 1, || unreachable!()));
    assert!(trace.is_empty(), "{:?}", trace.snapshot());
    unsafe { lock.unlock() };

    // A longer wait: `Spinning` once, at the first due check, then `Running`.
    let lock = lock_once(Scripted::new(3 * period, || unreachable!()));
    assert_eq!(
        steps(&trace),
        [
            (ThreadState::Running, ThreadState::Spinning),
            (ThreadState::Spinning, ThreadState::Running)
        ]
    );
    unsafe { lock.unlock() };
    trace.clear();

    // Overloaded, and the lock is won between claim and park: the claim is
    // given back and the hold is counted.
    control.set_sleep_target(1);
    let seen = Arc::clone(&control);
    let lock = lock_once(Scripted::new(period, move || {
        assert_eq!(seen.sleepers(), 1);
        true
    }));
    assert_eq!(control.sleepers(), 0);
    assert!(
        !would_claim(&control),
        "the won lock is not counted as held"
    );
    unsafe { lock.unlock() };
    let stats = control.buffer().stats();
    assert_eq!((stats.ever_slept, stats.woken_and_left), (1, 1));
    trace.clear();

    // Overloaded, and the waiter aborts: it parks in its slot, and comes back
    // once the controller has cleared it.
    let controller = Arc::clone(&control);
    let lock = lock_once(Scripted::new(2 * period, move || {
        assert_eq!(controller.sleepers(), 1);
        controller.set_sleep_target(0);
        false
    }));
    assert_eq!(control.sleepers(), 0);
    assert_eq!(
        steps(&trace),
        [
            (ThreadState::Running, ThreadState::Spinning),
            (ThreadState::Spinning, ThreadState::ParkedByLoadControl),
            (ThreadState::ParkedByLoadControl, ThreadState::Spinning),
            (ThreadState::Spinning, ThreadState::Running)
        ]
    );
    unsafe { lock.unlock() };
    let stats = control.buffer().stats();
    assert_eq!((stats.ever_slept, stats.woken_and_left), (2, 2));
}

/// One park a [`CountingPark`] was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeenPark {
    timeout: Duration,
    /// A permit was already waiting: a real park would have returned at once.
    permit: bool,
    /// The parker's `unpark_count()`, which tells parkers apart.
    unparks: u64,
}

/// A `ParkOps` that never blocks: it records each park and consumes a
/// waiting permit, as the real parker would.
#[derive(Debug, Default)]
struct CountingPark(Mutex<Vec<SeenPark>>);

impl CountingPark {
    fn seen(&self) -> Vec<SeenPark> {
        self.0.lock().unwrap().clone()
    }
}

impl ParkOps for CountingPark {
    fn park(&self, parker: &Parker, timeout: Duration) -> ParkResult {
        let permit = parker.try_consume_permit();
        self.0.lock().unwrap().push(SeenPark {
            timeout,
            permit,
            unparks: parker.unpark_count(),
        });
        if permit {
            ParkResult::Unparked
        } else {
            ParkResult::TimedOut
        }
    }
}

/// A manual control whose waiters park through a [`CountingPark`].
fn counting_control() -> (Arc<LoadControl>, Arc<CountingPark>) {
    let parks = Arc::new(CountingPark::default());
    let control = LoadControl::with_substitutes(
        LoadControlConfig::for_capacity(1),
        &"policy=fixed".parse().unwrap(),
        Substitutes {
            park_ops: Arc::clone(&parks) as Arc<dyn ParkOps>,
            ..Substitutes::default()
        },
    )
    .unwrap();
    (control, parks)
}

/// Past capacity with no slot to be had: `T = 1`, and the one slot goes to a
/// sleeper that is not this thread.  Returns that claim, for
/// `SleepSlotBuffer::leave`.
fn fill_the_only_slot(control: &LoadControl) -> (usize, SleeperId) {
    control.set_sleep_target(1);
    let other = control.buffer().register_sleeper(Arc::new(Parker::new()));
    match control.buffer().try_claim(other) {
        ClaimOutcome::Claimed(idx) => (idx, other),
        outcome => panic!("the other sleeper found no slot: {outcome:?}"),
    }
}

/// The poll at which a waiter on `control` steps aside, as the gate answers
/// it (`thread_ctx`'s unit tests pin the number); the step-aside itself is
/// dropped, as for a lock won in the abort window.
fn step_aside_poll(control: &Arc<LoadControl>) -> u64 {
    let mut policy = LoadGate::new(control);
    let limit = 64 * LoadControlConfig::SLOT_CHECK_PERIOD;
    let at = (1..=limit)
        .find(|&spins| policy.on_spin(spins) == SpinDecision::Abort)
        .expect("no step-aside in 64 periods");
    policy.on_acquired(at);
    at
}

#[test]
fn a_waiter_past_capacity_with_no_slot_steps_aside_again_and_again() {
    let (control, parks) = counting_control();
    let worker = control.register_worker();
    let period = LoadControlConfig::SLOT_CHECK_PERIOD;
    let (idx, other) = fill_the_only_slot(&control);
    let steps_aside_at = step_aside_poll(&control);
    assert_eq!(steps_aside_at % period, 0, "not at a due check");
    assert!(
        steps_aside_at > period,
        "stepped aside at the first due check"
    );
    let trace = Arc::new(TransitionTrace::with_capacity(64));
    control.registry().attach_trace(Arc::clone(&trace));

    // The waiter aborts, the abort path parks once, and the count restarts.
    let mut policy = LoadGate::new(&control);
    let mut spins = 0;
    for round in 1..=2 {
        for _ in 1..steps_aside_at {
            spins += 1;
            assert_eq!(
                policy.on_spin(spins),
                SpinDecision::Continue,
                "poll {spins}"
            );
        }
        spins += 1;
        assert_eq!(policy.on_spin(spins), SpinDecision::Abort, "poll {spins}");
        assert_eq!(parks.seen().len(), round - 1, "parked before the abort");
        policy.on_aborted();
        assert_eq!(parks.seen().len(), round);
    }
    policy.on_acquired(spins);
    // Both parks alike: short next to a scheduler tick, on this thread's
    // parker (no wake ever reached it), with no permit waiting.
    let seen = parks.seen();
    assert_eq!(seen[0], seen[1]);
    assert!(!seen[0].permit && seen[0].unparks == 0, "{seen:?}");
    assert!(
        seen[0].timeout > Duration::ZERO && seen[0].timeout < Duration::from_millis(1),
        "{seen:?}"
    );

    // A step-aside is not a sleep: no claim, no count, and the thread stayed
    // `Spinning`, so the load signal never moved.
    assert_eq!(policy.sleeps(), 0);
    assert_eq!(worker.sleep_count(), 0);
    assert_eq!(control.sleepers(), 1, "only the other sleeper's claim");
    assert_eq!(control.buffer().stats().ever_slept, 1);
    assert_eq!(
        steps(&trace),
        [
            (ThreadState::Running, ThreadState::Spinning),
            (ThreadState::Spinning, ThreadState::Running)
        ]
    );

    // A user spin loop's `pause` steps aside alike, and does not count it as
    // a sleep either.
    let mut gate = LoadGate::new(&control);
    for _ in 0..steps_aside_at {
        assert!(!gate.pause(), "a step-aside reported as a sleep");
    }
    gate.on_acquired(0);
    assert_eq!((gate.sleeps(), parks.seen().len()), (0, 3));
    assert_eq!(worker.sleep_count(), 0);
    control.buffer().leave(idx, other);
}

#[test]
fn a_wrapper_steps_aside_through_its_backend_unless_the_lock_is_won_in_the_window() {
    let (control, parks) = counting_control();
    let (idx, other) = fill_the_only_slot(&control);
    let steps_aside_at = step_aside_poll(&control);
    let aborts = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&aborts);
    let lock = LcLock::from_raw(
        Scripted::new(steps_aside_at + 1, move || {
            counted.fetch_add(1, Ordering::SeqCst);
            false
        }),
        &control,
    );
    lock.lock();
    unsafe { lock.unlock() };
    assert_eq!(aborts.load(Ordering::SeqCst), 1);
    assert_eq!(parks.seen().len(), 1);

    // Granted between the abort and the park: the step-aside is dropped.
    let lock = LcLock::from_raw(Scripted::new(steps_aside_at, || true), &control);
    lock.lock();
    unsafe { lock.unlock() };
    assert_eq!(parks.seen().len(), 1, "a won lock still stepped aside");
    control.buffer().leave(idx, other);
    let stats = control.buffer().stats();
    assert_eq!(
        (stats.ever_slept, stats.woken_and_left),
        (1, 1),
        "only the other sleeper's claim"
    );
}

#[test]
fn a_due_check_with_space_claims_rather_than_steps_aside() {
    let (control, parks) = counting_control();
    let (idx, other) = fill_the_only_slot(&control);
    let steps_aside_at = step_aside_poll(&control);
    let mut policy = LoadGate::new(&control);
    for spins in 1..steps_aside_at {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
    }
    // The other sleeper leaves just before the due check.
    control.buffer().leave(idx, other);
    assert_eq!(policy.on_spin(steps_aside_at), SpinDecision::Abort);
    assert_eq!(control.sleepers(), 1, "stepped aside instead of claiming");
    // The slot is cleared before the thread parks, so it leaves at once.
    control.set_sleep_target(0);
    policy.on_aborted();
    assert_eq!(policy.sleeps(), 1);
    assert!(parks.seen().is_empty(), "{:?}", parks.seen());

    // The claim restarted the count: with the slot taken again, the next
    // step-aside needs as many polls as the first.
    let (idx, other) = fill_the_only_slot(&control);
    for spins in steps_aside_at + 1..2 * steps_aside_at {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
    }
    assert_eq!(policy.on_spin(2 * steps_aside_at), SpinDecision::Abort);
    policy.on_aborted();
    policy.on_acquired(2 * steps_aside_at);
    assert_eq!((policy.sleeps(), parks.seen().len()), (1, 1));
    control.buffer().leave(idx, other);
    let stats = control.buffer().stats();
    assert_eq!((stats.ever_slept, stats.woken_and_left), (3, 3));
}

#[test]
fn a_stale_permit_is_drained_before_a_step_aside() {
    let (control, parks) = counting_control();
    // A controller wake that lands after its sleeper has left leaves a permit
    // on the thread's parker.
    control.set_sleep_target(1);
    let mut gate = LoadGate::new(&control);
    assert!(gate.try_claim());
    control.set_sleep_target(0);
    gate.cancel();
    drop(gate);

    let (idx, other) = fill_the_only_slot(&control);
    let steps_aside_at = step_aside_poll(&control);
    let mut policy = LoadGate::new(&control);
    for spins in 1..steps_aside_at {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
    }
    assert_eq!(policy.on_spin(steps_aside_at), SpinDecision::Abort);
    policy.on_aborted();
    policy.on_acquired(steps_aside_at);
    control.buffer().leave(idx, other);
    // One park, on the parker the controller's wake reached (its one
    // unpark), and with the permit gone: a real park would have blocked.
    let seen = parks.seen();
    assert_eq!(seen.len(), 1);
    assert!(!seen[0].permit && seen[0].unparks == 1, "{seen:?}");
}

/// Every abortable backend, past capacity with the only slot taken and the
/// lock held for about 5 ms once two waiters wait: far past the 1024 polls
/// after which a waiter steps aside, so each leaves its wait (flat combining
/// withdraws its published request) and re-enters it.  No update is lost and
/// no step-aside takes a claim.
#[test]
fn every_abortable_backend_steps_aside_without_losing_an_update() {
    const PER_WORKER: u64 = 50;
    let control = manual_control();
    let (idx, other) = fill_the_only_slot(&control);
    for &name in ABORTABLE_LOCK_NAMES {
        let mutex = DynMutex::build(name, 0u64).expect("registered lock");
        std::thread::scope(|scope| {
            let mut guard = mutex.lock();
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..PER_WORKER {
                        *mutex.lock_with(&mut LoadGate::new(&control)) += 1;
                    }
                });
            }
            // A waiter publishes `Spinning` at its first due slot check.
            let spinning = Instant::now();
            while control.registry().count_in_state(ThreadState::Spinning) < 2 {
                assert!(
                    spinning.elapsed() < Duration::from_secs(10),
                    "{name}: the workers never waited"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(5));
            *guard += 1;
        });
        assert_eq!(*mutex.lock(), 2 * PER_WORKER + 1, "{name}");
        assert_eq!(control.sleepers(), 1, "{name}: only the other claim");
    }
    control.buffer().leave(idx, other);
    assert_eq!(control.sleepers(), 0);
}
