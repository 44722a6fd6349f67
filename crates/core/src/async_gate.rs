//! The **async waiting plane**: the waiter-side gate of the load-control
//! mechanism with a `Future` as its park point.
//!
//! The paper's client-side algorithm (Figure 7, right) assumes a waiter that
//! can *block its thread* — [`crate::LoadGate`] parks on a thread parker.  An
//! async runtime inverts that assumption: tasks busy-wait by returning
//! `Pending` and being re-polled across a fixed pool of worker threads, so a
//! waiter that blocked its thread would stall every task multiplexed onto
//! it.  Oversubscription still happens (more poll-spinning tasks than
//! hardware contexts is exactly the overload the controller manages); what
//! changes is only the *park primitive*.
//!
//! [`AsyncLoadGate`] is therefore the same gate with a different park:
//!
//! * the claim path is **identical** — the same
//!   [`SleepSlotBuffer`](crate::slots::SleepSlotBuffer)
//!   (`has_space_for`, `try_claim`, `leave`), the same home-shard /
//!   overflow-probe route, the same `S`/`W`/`T` books, shared with every
//!   sync-plane waiter on the same [`LoadControl`];
//! * the wait is the **same protocol**: a parked episode is a
//!   [`SlotWait`], the state machine a parked thread, a shared-memory waiter
//!   and the simulator run — stay while the slot is claimed and the deadline
//!   has not passed, then [`SlotWait::finish`] records the wait and leaves;
//! * the park point is [`AsyncLoadGate::poll_park`]: the task registers its
//!   [`Waker`](std::task::Waker) with the parker stored in the slot table
//!   and suspends, leaving its worker thread free.  The controller wakes it
//!   by clearing the slot and unparking — the very same code path that
//!   wakes a parked thread;
//! * the sleep timeout is enforced by the controller daemon: each cycle it
//!   unparks async sleepers whose deadline passed (a task cannot wake itself
//!   like `park_timeout` can), so timeout granularity for tasks is one
//!   controller update interval.
//!
//! Sleeper identities are **pooled**: each gate leases a registered
//! (`SleeperId`, [`Parker`]) pair from the slot buffer — the pool thread
//! contexts lease from too — and returns it on drop, so the parker table
//! grows to the peak number of *concurrent* waiters, not the total number
//! of waits.
//!
//! Cancel-safety is load-bearing: dropping a gate (and therefore the
//! `acquire_async` future that owns it) with a claim pending releases the
//! claim, exactly like the sync gate's claim-leak-proof `Drop`.  A leaked
//! claim would permanently inflate `S − W` and shrink the controller's
//! working target.

use crate::config::LoadControlConfig;
use crate::controller::LoadControl;
use crate::slots::{ClaimOutcome, SleeperId};
use crate::time::{SlotWait, WaitPoll};
use lc_locks::Parker;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

/// The shared state of the async plane, owned by a [`LoadControl`]: the
/// timeout sweep list.
///
/// One instance exists per `LoadControl`; gates talk to it through
/// [`LoadControl::async_plane`].
pub(crate) struct AsyncPlane {
    /// Parked tasks' deadlines, swept by the controller each cycle.
    deadlines: Mutex<Vec<DeadlineEntry>>,
}

struct DeadlineEntry {
    /// The parked gate's leased sleeper id: unique while the lease lives,
    /// so it keys the entry.
    sleeper: SleeperId,
    /// Absolute deadline in the owning [`LoadControl`]'s
    /// [`TimeSource`](crate::time::TimeSource) timebase.
    deadline: Duration,
    parker: Arc<Parker>,
}

impl fmt::Debug for AsyncPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncPlane")
            .field("parked_tasks", &self.parked_tasks())
            .finish()
    }
}

impl AsyncPlane {
    pub(crate) fn new() -> Self {
        Self {
            deadlines: Mutex::new(Vec::new()),
        }
    }

    /// Enrolls a parked task in the timeout sweep.
    fn register_deadline(&self, sleeper: SleeperId, deadline: Duration, parker: &Arc<Parker>) {
        self.deadlines.lock().unwrap().push(DeadlineEntry {
            sleeper,
            deadline,
            parker: Arc::clone(parker),
        });
    }

    /// Removes a parked task from the timeout sweep (it woke or was
    /// cancelled).
    fn unregister(&self, sleeper: SleeperId) {
        self.deadlines
            .lock()
            .unwrap()
            .retain(|e| e.sleeper != sleeper);
    }

    /// Unparks every enrolled task whose deadline has passed.  Entries stay
    /// enrolled until the task itself unregisters, so a wake that races a
    /// waker registration is simply retried next cycle — the sweep can never
    /// strand a task.  Called by [`LoadControl::run_cycle`].
    pub(crate) fn wake_expired(&self, now: Duration) -> usize {
        let expired: Vec<Arc<Parker>> = {
            let deadlines = self.deadlines.lock().unwrap();
            deadlines
                .iter()
                .filter(|e| now >= e.deadline)
                .map(|e| Arc::clone(&e.parker))
                .collect()
        };
        // Unpark outside the lock: a waker may synchronously re-enqueue the
        // task into an executor.
        for parker in &expired {
            parker.unpark();
        }
        expired.len()
    }

    /// Number of async tasks currently parked (enrolled in the sweep).
    pub(crate) fn parked_tasks(&self) -> usize {
        self.deadlines.lock().unwrap().len()
    }
}

/// The waiter-side gate for **async** waiting loops — the
/// [`crate::LoadGate`] of the future world.
///
/// A gate is created per waiting episode (inside an `acquire_async` future,
/// which owns it).  The polling loop calls [`AsyncLoadGate::try_claim`]
/// every [`LoadControlConfig::SLOT_CHECK_PERIOD`] polls; when it returns
/// `true` the gate holds a sleep-slot claim, and the caller either releases
/// it with [`AsyncLoadGate::cancel`] (the resource arrived in the
/// claim-to-park window) or suspends through [`AsyncLoadGate::poll_park`]
/// (returning `Pending` to the executor) until the controller clears the
/// slot — the task's [`Waker`](std::task::Waker) rides in the slot's parker,
/// so the controller-side wake code is byte-for-byte the code that wakes
/// threads.
///
/// There is no holds-locks refusal here, unlike the sync gate, because a
/// *task's* resource holds are not observable from the worker thread its
/// poll happens to run on.  The async primitive built on this gate only
/// waits while holding nothing.
///
/// Unlike the sync gate, an `AsyncLoadGate` is `Send`: the task that owns it
/// may be polled from any worker thread of its executor.
///
/// Dropping the gate releases any pending claim (never strands `S − W`).
pub struct AsyncLoadGate {
    control: Arc<LoadControl>,
    /// The sleeper identity, leased lazily on the first claim attempt that
    /// finds open slots — the common fast path (no overload, or the resource
    /// arrives before the first slot check) never touches the lease pool.
    lease: Option<(SleeperId, Arc<Parker>)>,
    /// A claim that has not parked yet: its slot index.
    claimed: Option<usize>,
    /// A claim that has parked: its wait episode.
    wait: Option<SlotWait>,
}

impl fmt::Debug for AsyncLoadGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncLoadGate")
            .field("sleeper", &self.lease.as_ref().map(|(id, _)| *id))
            .field("claimed", &self.claimed)
            .field("wait", &self.wait)
            .finish()
    }
}

impl AsyncLoadGate {
    /// Creates a gate on `control`.  No sleeper identity is leased until the
    /// gate first finds claimable slots, so constructing (and dropping) a
    /// gate that never needs to sleep is free of shared-state traffic.
    pub fn new(control: &Arc<LoadControl>) -> Self {
        Self {
            control: Arc::clone(control),
            lease: None,
            claimed: None,
            wait: None,
        }
    }

    /// Attempts to claim a sleep slot right now.  Returns `true` if a claim
    /// is held; the caller resolves it by driving
    /// [`AsyncLoadGate::poll_park`] to completion or calling
    /// [`AsyncLoadGate::cancel`].
    pub fn try_claim(&mut self) -> bool {
        if self.claimed.is_some() || self.wait.is_some() {
            return true;
        }
        // Before the first lease, pre-filter on the global target: a gate
        // under a quiet controller (the common case) never acquires a
        // sleeper identity at all, keeping the fast path free of the lease
        // pool's mutex.
        if self.lease.is_none() && !self.control.buffer().has_space() {
            return false;
        }
        let buffer = self.control.buffer();
        let sleeper = self.lease.get_or_insert_with(|| buffer.lease_sleeper()).0;
        if !buffer.has_space_for(sleeper) {
            return false;
        }
        match buffer.try_claim(sleeper) {
            ClaimOutcome::Claimed(idx) => {
                self.claimed = Some(idx);
                true
            }
            ClaimOutcome::NoSpace | ClaimOutcome::Raced => false,
        }
    }

    /// The async park point: suspends the task in its claimed slot until the
    /// controller clears it or the sleep timeout expires.
    ///
    /// Returns `Ready(false)` immediately when no claim is held, `Pending`
    /// while parked (the task's waker is registered with the slot's parker),
    /// and `Ready(true)` once the episode ends.  Poll this from a `Future`'s
    /// `poll`.
    pub fn poll_park(&mut self, cx: &mut Context<'_>) -> Poll<bool> {
        let Some((sleeper, parker)) = self.lease.as_ref() else {
            return Poll::Ready(false);
        };
        let time = self.control.time();
        if let Some(idx) = self.claimed.take() {
            // Episode start: drain any stale permit, then enroll in the
            // controller's timeout sweep (tasks cannot `park_timeout`).
            parker.try_consume_permit();
            let timeout = self.control.config().sleep_timeout;
            let wait = SlotWait::begin(idx, *sleeper, time.now(), timeout);
            self.control
                .async_plane()
                .register_deadline(*sleeper, wait.deadline(), parker);
            self.wait = Some(wait);
        }
        let Some(wait) = self.wait.as_ref() else {
            return Poll::Ready(false);
        };
        let buffer = self.control.buffer();
        if let WaitPoll::Keep(_) = wait.poll(buffer, time.now()) {
            parker.set_waker(cx.waker());
            // Re-check after the waker is visible: a slot clear (or timeout
            // unpark) that landed before registration has already fired its
            // wake into nobody — without this check the task would sleep
            // forever.  Any unpark *after* registration wakes the waker we
            // just stored.
            if let WaitPoll::Keep(_) = wait.poll(buffer, time.now()) {
                if !parker.try_consume_permit() {
                    return Poll::Pending;
                }
            }
        }
        self.finish_episode();
        Poll::Ready(true)
    }

    /// Releases a pending claim without sleeping (the caller obtained the
    /// awaited resource between claiming and parking, paper §3.1.2); a no-op
    /// without a claim.
    pub fn cancel(&mut self) {
        self.finish_episode();
    }

    /// Ends a parked episode through [`SlotWait::finish`] (which records the
    /// wait and releases the claim) after leaving the timeout sweep, or
    /// releases a claim that never parked with a bare `leave`; then clears
    /// waker/permit state so the pooled parker is pristine for its next
    /// lease.  A gate without a claim has nothing to clean.
    fn finish_episode(&mut self) {
        let Some((sleeper, parker)) = self.lease.as_ref() else {
            return;
        };
        let buffer = self.control.buffer();
        if let Some(idx) = self.claimed.take() {
            buffer.leave(idx, *sleeper);
        } else if let Some(wait) = self.wait.take() {
            self.control.async_plane().unregister(*sleeper);
            wait.finish(buffer, self.control.time().now());
        } else {
            return;
        }
        parker.clear_waker();
        parker.try_consume_permit();
    }
}

impl Drop for AsyncLoadGate {
    fn drop(&mut self) {
        // A claim must never leak, no matter where the owning future was
        // dropped: an unresolved claim would permanently inflate `S − W`.
        self.finish_episode();
        if let Some((sleeper, _)) = self.lease.take() {
            self.control.buffer().return_sleeper(sleeper);
        }
    }
}

/// The poll-based acquisition protocol of
/// [`crate::LcSemaphore::acquire_async`]: drive any in-progress park, try
/// the resource, consult the gate every
/// [`LoadControlConfig::SLOT_CHECK_PERIOD`] polls (with one more try in the
/// claim-to-park window, paper §3.1.2), otherwise self-wake and yield.
///
/// The gate — and with it the sleeper lease and the `Arc<LoadControl>`
/// clone — is created lazily at the first slot-check boundary, so an
/// acquisition that succeeds before `SLOT_CHECK_PERIOD` polls (the
/// uncontended fast path) touches no shared load-control state at all.
#[derive(Debug, Default)]
pub(crate) struct AsyncAcquire {
    gate: Option<AsyncLoadGate>,
    spins: u64,
}

impl AsyncAcquire {
    /// One poll of the acquisition protocol; `Ready(())` means `try_acquire`
    /// succeeded and any pending claim was released.
    pub(crate) fn poll(
        &mut self,
        cx: &mut Context<'_>,
        control: &Arc<LoadControl>,
        mut try_acquire: impl FnMut() -> bool,
    ) -> Poll<()> {
        loop {
            // Drive an in-progress park to completion first: while the slot
            // is claimed the task must stay suspended (that is the point).
            if let Some(gate) = self.gate.as_mut() {
                if gate.poll_park(cx).is_pending() {
                    return Poll::Pending;
                }
            }
            if try_acquire() {
                return Poll::Ready(());
            }
            self.spins += 1;
            if LoadControlConfig::is_slot_check_due(self.spins) {
                let gate = self.gate.get_or_insert_with(|| AsyncLoadGate::new(control));
                if gate.try_claim() {
                    // One more try between claim and park, mirroring the
                    // sync policy's `on_acquired` cancellation window.
                    if try_acquire() {
                        gate.cancel();
                        return Poll::Ready(());
                    }
                    match gate.poll_park(cx) {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready(_) => continue,
                    }
                }
            }
            // Poll-spin: stay runnable but hand the worker thread to sibling
            // tasks — the oversubscription behaviour load control manages.
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::spec_control;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
    use std::task::Waker;
    use std::time::Duration;

    fn manual_control(capacity: usize) -> Arc<LoadControl> {
        spec_control(LoadControlConfig::for_capacity(capacity), "policy=fixed")
    }

    /// A waker that counts wakes, so tests can drive polls by hand.
    fn test_waker(counter: Arc<AtomicU64>) -> Waker {
        struct Counting(Arc<AtomicU64>);
        impl std::task::Wake for Counting {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
            fn wake_by_ref(self: &Arc<Self>) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }
        Waker::from(Arc::new(Counting(counter)))
    }

    #[test]
    fn gate_does_not_claim_without_target() {
        let lc = manual_control(2);
        let mut gate = AsyncLoadGate::new(&lc);
        for _ in 0..1_000 {
            assert!(!gate.try_claim());
        }
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn gate_claims_parks_and_wakes_on_slot_clear() {
        let lc = manual_control(1);
        lc.set_sleep_target(1);
        let mut gate = AsyncLoadGate::new(&lc);
        assert!(gate.try_claim());
        assert_eq!(lc.sleepers(), 1);

        let wakes = Arc::new(AtomicU64::new(0));
        let waker = test_waker(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        assert_eq!(gate.poll_park(&mut cx), Poll::Pending);
        assert_eq!(lc.async_parked_tasks(), 1);

        // The controller clears the slot: the stored waker must fire and the
        // next poll must complete the episode.
        lc.set_sleep_target(0);
        assert_eq!(wakes.load(AtomicOrdering::SeqCst), 1);
        assert_eq!(gate.poll_park(&mut cx), Poll::Ready(true));
        assert_eq!(lc.sleepers(), 0);
        assert_eq!(lc.async_parked_tasks(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn controller_sweep_wakes_timed_out_tasks() {
        let lc = spec_control(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(5)),
            "policy=fixed",
        );
        lc.set_sleep_target(1);
        let mut gate = AsyncLoadGate::new(&lc);
        assert!(gate.try_claim());
        let wakes = Arc::new(AtomicU64::new(0));
        let waker = test_waker(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        assert_eq!(gate.poll_park(&mut cx), Poll::Pending);

        // Past the deadline, a manual controller cycle must unpark the task
        // (the daemon would do this every update interval).
        std::thread::sleep(Duration::from_millis(10));
        lc.run_cycle();
        assert_eq!(wakes.load(AtomicOrdering::SeqCst), 1);
        assert_eq!(gate.poll_park(&mut cx), Poll::Ready(true));
        assert_eq!(lc.sleepers(), 0);
        assert_eq!(lc.async_parked_tasks(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        assert_eq!(stats.wait.count, 1, "a timed-out episode records its wait");
    }

    #[test]
    fn cancel_releases_without_parking() {
        let lc = manual_control(1);
        lc.set_sleep_target(1);
        let mut gate = AsyncLoadGate::new(&lc);
        assert!(gate.try_claim());
        assert_eq!(lc.sleepers(), 1);
        gate.cancel();
        assert_eq!(lc.sleepers(), 0);
        // Released with a bare `leave`: no episode, so no wait recorded.
        assert_eq!(lc.buffer().stats().wait.count, 0);
        assert_eq!(
            gate.poll_park(&mut Context::from_waker(Waker::noop())),
            Poll::Ready(false)
        );
    }

    #[test]
    fn dropping_a_parked_gate_never_leaks_a_claim() {
        let lc = manual_control(1);
        lc.set_sleep_target(1);
        {
            let mut gate = AsyncLoadGate::new(&lc);
            assert!(gate.try_claim());
            let wakes = Arc::new(AtomicU64::new(0));
            let waker = test_waker(wakes);
            let mut cx = Context::from_waker(&waker);
            assert_eq!(gate.poll_park(&mut cx), Poll::Pending);
            assert_eq!(lc.sleepers(), 1);
            assert_eq!(lc.async_parked_tasks(), 1);
            // Dropped mid-park: the future owning this gate was cancelled.
        }
        assert_eq!(lc.sleepers(), 0);
        assert_eq!(lc.async_parked_tasks(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn sleeper_leases_are_pooled_and_reused() {
        let lc = manual_control(1);
        lc.set_sleep_target(2);
        let first = {
            let mut gate = AsyncLoadGate::new(&lc);
            assert!(gate.try_claim());
            let id = gate.lease.as_ref().unwrap().0;
            gate.cancel();
            id
        };
        // The lease went back to the pool; a new gate must reuse it instead
        // of registering a fresh parker.
        let second = {
            let mut gate = AsyncLoadGate::new(&lc);
            assert!(gate.try_claim());
            let id = gate.lease.as_ref().unwrap().0;
            gate.cancel();
            id
        };
        assert_eq!(first, second);
        // Two live gates need two distinct leases.
        let mut a = AsyncLoadGate::new(&lc);
        let mut b = AsyncLoadGate::new(&lc);
        assert!(a.try_claim());
        assert!(b.try_claim());
        assert_ne!(a.lease.as_ref().unwrap().0, b.lease.as_ref().unwrap().0);
        a.cancel();
        b.cancel();
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn gates_that_never_claim_never_lease() {
        let lc = manual_control(4);
        // Zero target: checks and drops must not touch the lease pool or
        // register any sleeper.
        {
            let mut gate = AsyncLoadGate::new(&lc);
            for _ in 0..1_000 {
                assert!(!gate.try_claim());
            }
            assert!(gate.lease.is_none(), "quiet gate acquired a lease");
        }
        assert_eq!(lc.buffer().stats().ever_slept, 0);
    }

    #[test]
    fn stale_permits_do_not_leak_across_leases() {
        let lc = manual_control(1);
        lc.set_sleep_target(1);
        {
            let mut gate = AsyncLoadGate::new(&lc);
            assert!(gate.try_claim());
            // Clear the slot (deposits a permit in the parker) but drop the
            // gate without ever polling.
            lc.set_sleep_target(0);
        }
        lc.set_sleep_target(1);
        let mut gate = AsyncLoadGate::new(&lc);
        assert!(gate.try_claim());
        let wakes = Arc::new(AtomicU64::new(0));
        let waker = test_waker(wakes);
        let mut cx = Context::from_waker(&waker);
        // A stale permit from the previous lease must not cause an instant
        // spurious wake-up.
        assert_eq!(gate.poll_park(&mut cx), Poll::Pending);
        gate.cancel();
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn park_episodes_feed_the_wait_histogram() {
        let lc = manual_control(1);
        lc.set_sleep_target(1);
        let mut gate = AsyncLoadGate::new(&lc);
        assert!(gate.try_claim());
        let wakes = Arc::new(AtomicU64::new(0));
        let waker = test_waker(wakes);
        let mut cx = Context::from_waker(&waker);
        assert_eq!(gate.poll_park(&mut cx), Poll::Pending);
        lc.set_sleep_target(0);
        assert_eq!(gate.poll_park(&mut cx), Poll::Ready(true));
        // The parked episode's duration was recorded (a cancelled claim that
        // never parked records nothing — see `cancel_releases_without_parking`,
        // whose gate leaves `wait.count` at zero).
        assert_eq!(lc.buffer().stats().wait.count, 1);
        // A slot cleared before the first poll ends the episode at that poll,
        // through the same exit.
        lc.set_sleep_target(1);
        assert!(gate.try_claim());
        lc.set_sleep_target(0);
        assert_eq!(gate.poll_park(&mut cx), Poll::Ready(true));
        assert_eq!(lc.async_parked_tasks(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.wait.count, 2);
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn async_gate_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AsyncLoadGate>();
    }
}
