//! What one load-controlled acquisition does to per-thread and registry state:
//! the wrappers release the backend before their own bookkeeping without
//! weakening the "never sleep while holding a lock" rule (paper §6.1.2), and
//! a waiter publishes `Spinning` only once it has polled for a whole slot
//! check period.

use load_control_suite::accounting::{ThreadState, Transition, TransitionTrace};
use load_control_suite::core::policy::FixedPolicy;
use load_control_suite::core::{
    LcMutex, LcRwLock, LcSemaphore, LoadControl, LoadControlConfig, LoadControlPolicy, LoadGate,
};
use load_control_suite::locks::{SpinDecision, SpinPolicy};
use std::sync::Arc;

fn manual_control() -> Arc<LoadControl> {
    LoadControl::with_policy(
        LoadControlConfig::for_capacity(1),
        Box::new(FixedPolicy::manual()),
    )
}

/// Whether the calling thread would volunteer to sleep right now (any claim
/// taken is given straight back).
fn would_claim(control: &Arc<LoadControl>) -> bool {
    let mut gate = LoadGate::new(control);
    let claimed = gate.try_claim();
    gate.cancel();
    claimed
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

#[test]
fn spinning_is_published_at_the_first_due_slot_check() {
    let control = manual_control();
    let _worker = control.register_worker();
    let registry = Arc::clone(control.registry());
    let trace = Arc::new(TransitionTrace::with_capacity(64));
    registry.attach_trace(Arc::clone(&trace));
    let period = u64::from(control.config().slot_check_period);
    let runnable = registry.runnable_threads();
    assert_eq!(runnable, 1);

    // An uncontended acquisition never polls.
    let mutex = LcMutex::<u32>::new_with(0, &control);
    drop(mutex.lock());
    assert!(trace.is_empty(), "{:?}", trace.snapshot());

    // A hand-off shorter than one check period: no transition either.
    let mut policy = LoadControlPolicy::new(&control);
    for spins in 1..period {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
        assert_eq!(registry.runnable_threads(), runnable);
    }
    policy.on_acquired(period - 1);
    assert!(trace.is_empty(), "{:?}", trace.snapshot());

    // A longer wait: Spinning at the first due check, once, then Running.
    let mut policy = LoadControlPolicy::new(&control);
    for spins in 1..=3 * period {
        assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
        assert_eq!(registry.runnable_threads(), runnable);
        assert_eq!(trace.len(), usize::from(spins >= period));
    }
    policy.on_acquired(3 * period);
    assert_eq!(registry.runnable_threads(), runnable);
    let steps: Vec<(ThreadState, ThreadState)> = trace
        .snapshot()
        .iter()
        .map(|t: &Transition| (t.from, t.to))
        .collect();
    assert_eq!(
        steps,
        [
            (ThreadState::Running, ThreadState::Spinning),
            (ThreadState::Spinning, ThreadState::Running)
        ]
    );

    // Detached, the registry records nothing further.
    registry.detach_trace();
    let mut policy = LoadControlPolicy::new(&control);
    for spins in 1..=period {
        let _ = policy.on_spin(spins);
    }
    policy.on_acquired(period);
    assert_eq!(trace.len(), 2);
}
