//! Per-thread load-control state and the client-side algorithm
//! (paper Figure 7, right).
//!
//! Each thread that participates in load control has, per [`crate::LoadControl`]
//! instance, a small context holding its parker, its sleeper identity in the
//! slot buffer, and its registration in the thread registry.  The context is
//! created lazily the first time the thread touches a load-controlled lock
//! (the "drop-in library" deployment of the paper) or eagerly through
//! [`crate::LoadControl::register_worker`].  Its sleeper identity is leased
//! from the slot buffer's pool and given back when the context dies, so
//! short-lived threads do not grow the buffer's parker table.
//!
//! The client-side algorithm itself is one type, [`LoadGate`], which every
//! thread waits through.  As the [`SpinPolicy`] of an
//! [`lc_locks::AbortableLock`]'s waiting loop it checks the buffer every few
//! iterations, claims a slot when the controller wants threads to sleep,
//! aborts the lock attempt, parks until the slot is cleared or a timeout
//! expires, and then retries the lock.  A waiter past capacity (`T > 0`)
//! that has found no slot for sixteen checks *steps aside* instead: it
//! aborts, parks for 50 µs outside the slot buffer, and retries.
//!
//! A gate counts its claim in `lc_locks::delegation` from the claim until the
//! park or cancel that resolves it, so a thread holding a claim on any control
//! refuses the flat-combining combiner role.  A combiner takes no claim
//! (`may_leave`), so the controller never finds one asleep.
//!
//! The `Lc*` wrappers go through `acquire` / `release`, which hand the
//! backend a gate over the context they already borrow: an acquisition pays
//! for nothing load-control-specific — no reference count, no list probe,
//! nothing to drop — until its backend has polled for a whole slot-check
//! period.

use crate::config::LoadControlConfig;
use crate::controller::LoadControl;
use crate::slots::{ClaimOutcome, SleeperId};
use crate::time::{SlotWait, WaitPoll};
use lc_accounting::{ThreadHandle, ThreadState};
use lc_locks::delegation;
use lc_locks::{Parker, SpinDecision, SpinPolicy};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ptr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Per-(thread, [`LoadControl`]) state.
pub(crate) struct ThreadCtx {
    control: Arc<LoadControl>,
    parker: Arc<Parker>,
    sleeper: SleeperId,
    handle: ThreadHandle,
    /// Number of load-controlled locks this thread currently holds; used to
    /// refuse sleeping while holding a lock (the nested-critical-section
    /// hazard of paper §6.1.2).
    hold_count: Cell<u32>,
    /// Number of times this thread has been put to sleep by load control.
    sleeps: Cell<u64>,
}

impl fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("sleeper", &self.sleeper)
            .field("hold_count", &self.hold_count.get())
            .field("sleeps", &self.sleeps.get())
            .finish()
    }
}

impl ThreadCtx {
    fn new(control: Arc<LoadControl>) -> Self {
        let (sleeper, parker) = control.buffer().lease_sleeper();
        let handle = control.registry().register();
        Self {
            control,
            parker,
            sleeper,
            handle,
            hold_count: Cell::new(0),
            sleeps: Cell::new(0),
        }
    }

    pub(crate) fn note_acquired(&self) {
        self.hold_count.set(self.hold_count.get() + 1);
    }

    pub(crate) fn note_released(&self) {
        let h = self.hold_count.get();
        debug_assert!(h > 0, "released a load-controlled lock that was not held");
        self.hold_count.set(h.saturating_sub(1));
    }

    /// Whether this thread may leave its wait for load control's sake, by a
    /// sleep or by a step-aside.
    fn may_leave(&self) -> bool {
        // Never while holding another load-controlled lock (extension of
        // paper §6.1.2: avoids creating our own priority inversion).  Nor
        // while acting as a delegation-lock combiner: the combiner is
        // executing *other* threads' critical sections, so parking it stalls
        // every publisher at once — the delegation analogue of the same
        // hazard.
        self.hold_count.get() == 0 && !delegation::is_combining()
    }

    /// Total times this thread slept at load control's request.
    pub(crate) fn sleep_count(&self) -> u64 {
        self.sleeps.get()
    }

    /// The paper's sleep procedure: block while the slot is still ours, up
    /// to the configured timeout, then release the claim.  A park ends on
    /// one of those two exits only.
    ///
    /// The wait protocol itself is [`SlotWait`] — the same state machine the
    /// `lc-des` simulator polls at event times — driven here against the
    /// control instance's [`TimeSource`](crate::time::TimeSource) and
    /// [`ParkOps`](crate::time::ParkOps).
    fn sleep_in_slot(&self, slot_idx: usize) {
        self.sleeps.set(self.sleeps.get() + 1);
        let buffer = self.control.buffer();
        let time = Arc::clone(self.control.time());
        let park_ops = Arc::clone(self.control.park_ops());
        let previous = self.handle.set_state(ThreadState::ParkedByLoadControl);
        let timeout = self.control.config().sleep_timeout;
        let wait = SlotWait::begin(slot_idx, self.sleeper, time.now(), timeout);
        loop {
            match wait.poll(buffer, time.now()) {
                WaitPoll::Done(_) => break,
                WaitPoll::Keep(remaining) => {
                    let _ = park_ops.park(&self.parker, remaining);
                }
            }
        }
        wait.finish(buffer, time.now());
        // Go back to spinning (or whatever we were doing before).
        self.handle
            .set_state(if previous == ThreadState::ParkedByLoadControl {
                ThreadState::Spinning
            } else {
                previous
            });
    }

    /// This thread's parker (the controller-facing wake handle registered in
    /// the slot buffer).
    #[cfg(test)]
    fn parker(&self) -> &Arc<Parker> {
        &self.parker
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        self.control.buffer().return_sleeper(self.sleeper);
    }
}

/// This thread's contexts keyed by [`LoadControl`] address, most recently
/// used first: the owner of every context and the miss path of [`with_ctx`].
/// A thread touches one or two controls, so the first probe almost always
/// hits.  (A context keeps its control alive, so an address is never reused
/// while its entry exists.)
struct CtxList(RefCell<Vec<(usize, Rc<ThreadCtx>)>>);

impl Drop for CtxList {
    fn drop(&mut self) {
        // Runs before the entries are freed: a lock taken from a thread-local
        // destructor that runs after this one must miss, not find them.
        LAST.set((0, ptr::null()));
    }
}

thread_local! {
    static CTXS: CtxList = const { CtxList(RefCell::new(Vec::new())) };
    /// The entry of `CTXS` this thread looked up last, as (control address,
    /// context): what makes the lookup on an acquisition one load and one
    /// compare.  Written only by [`current_ctx`] and `CtxList::drop`.
    static LAST: Cell<(usize, *const ThreadCtx)> = const { Cell::new((0, ptr::null())) };
}

/// Runs `f` on the calling thread's context for `control`, creating the
/// context if necessary.  No thread-local borrow is held while `f` runs, so
/// `f` may take other load-controlled locks — a delegation backend does, when
/// it runs other threads' critical sections inside an acquisition.
#[inline]
pub(crate) fn with_ctx<T>(control: &Arc<LoadControl>, f: impl FnOnce(&ThreadCtx) -> T) -> T {
    let (key, last) = LAST.get();
    let looked_up;
    let ctx = if key == Arc::as_ptr(control) as usize {
        // SAFETY: `LAST` holds a non-zero key only between `current_ctx`
        // storing the address of a context owned by an entry of this
        // thread's `CTXS` and `CtxList::drop` clearing it, which happens
        // before any entry is dropped.  Entries are never removed while the
        // list lives, and reordering or growing the list moves `Rc`s, not the
        // contexts they point to.  The list is destroyed on this thread, by
        // its thread-local destructor, which cannot start while this frame is
        // running; so the context outlives `f`.  Only shared references to a
        // context are ever made (its mutable state is in `Cell`s).
        unsafe { &*last }
    } else {
        looked_up = current_ctx(control);
        &*looked_up
    };
    f(ctx)
}

/// The calling thread's context for `control`, as an owned handle (for state
/// that outlives one call: a gate, a worker registration).  Also the miss
/// path of [`with_ctx`]: finds or creates the list entry, moves it to the
/// front and remembers it in `LAST`.
pub(crate) fn current_ctx(control: &Arc<LoadControl>) -> Rc<ThreadCtx> {
    let key = Arc::as_ptr(control) as usize;
    CTXS.try_with(|list| {
        let mut ctxs = list.0.borrow_mut();
        match ctxs.iter().position(|(k, _)| *k == key) {
            Some(0) => {}
            Some(i) => ctxs.swap(0, i),
            None => ctxs.insert(0, (key, Rc::new(ThreadCtx::new(Arc::clone(control))))),
        }
        let ctx = Rc::clone(&ctxs[0].1);
        LAST.set((key, Rc::as_ptr(&ctx)));
        ctx
    })
    .unwrap_or_else(|_| {
        // The list is already destroyed: a lock taken from a thread-local
        // destructor that runs after ours.  Serve the call from a context of
        // its own.  It cannot carry a hold from an acquisition to its
        // release, so it starts as if holding: the thread never volunteers
        // to sleep through it, and a release finds a hold to give back.
        let ctx = Rc::new(ThreadCtx::new(Arc::clone(control)));
        ctx.note_acquired();
        ctx
    })
}

/// One load-controlled acquisition: `wait` runs the backend's abortable
/// waiting loop through a gate over the thread's context.  Shared by every
/// sync `Lc*` primitive.  An acquisition whose backend never polls does
/// nothing here but mark the thread `Running` (a load and a compare when it
/// already is) and count the hold.
#[inline]
pub(crate) fn acquire(control: &Arc<LoadControl>, wait: impl FnOnce(&mut LoadGate<'_>)) {
    with_ctx(control, |ctx| {
        wait(&mut LoadGate::over(Ctx::Borrowed(ctx)));
        ctx.note_acquired();
    });
}

/// The non-waiting form of [`acquire`]: counts the hold if `attempt` won.
#[inline]
pub(crate) fn try_acquire(control: &Arc<LoadControl>, attempt: impl FnOnce() -> bool) -> bool {
    let won = attempt();
    if won {
        with_ctx(control, ThreadCtx::note_acquired);
    }
    won
}

/// Releases what [`acquire`] or [`try_acquire`] took.  `unlock` runs first:
/// the thread-local bookkeeping must not extend the hold time the next
/// waiter sees.
#[inline]
pub(crate) fn release(control: &Arc<LoadControl>, unlock: impl FnOnce()) {
    unlock();
    with_ctx(control, ThreadCtx::note_released);
}

/// Handle returned by [`LoadControl::register_worker`].
///
/// While it is alive the calling thread is counted as a runnable worker by
/// the controller; dropping it marks the thread idle.  (Lock operations on
/// this thread re-activate accounting automatically.)
pub struct WorkerRegistration {
    ctx: Rc<ThreadCtx>,
}

impl WorkerRegistration {
    pub(crate) fn new(ctx: Rc<ThreadCtx>) -> Self {
        ctx.handle.set_state(ThreadState::Running);
        Self { ctx }
    }

    /// Publishes a thread-state transition for this worker (used by workload
    /// drivers to report I/O waits, think time, database-lock blocking, …).
    pub fn set_state(&self, state: ThreadState) -> ThreadState {
        self.ctx.handle.set_state(state)
    }

    /// The worker's current state.
    pub fn state(&self) -> ThreadState {
        self.ctx.handle.state()
    }

    /// How many times load control has put this thread to sleep.
    pub fn sleep_count(&self) -> u64 {
        self.ctx.sleep_count()
    }
}

impl fmt::Debug for WorkerRegistration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerRegistration")
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl Drop for WorkerRegistration {
    fn drop(&mut self) {
        self.ctx.handle.set_state(ThreadState::Idle);
    }
}

/// The waiter-side gate of the load-control mechanism: the one type every
/// thread waits through, per waiting episode or across many (it is
/// per-thread state, deliberately `!Send`).  Three faces run one
/// claim/park/cancel protocol against the slot buffer:
///
/// * **[`SpinPolicy`]**, handed to [`lc_locks::AbortableLock::lock_with`]
///   (every `Lc*` acquisition does).  It answers `Abort` to sleep in a
///   claimed slot or to step aside, does either in `on_aborted`, and gives
///   back a claim the lock beat in `on_acquired`.  It counts no hold: a
///   `lock_with` caller's critical section is invisible to the nested-hold
///   sleep refusal.
/// * **[`LoadGate::pause`]**, once per iteration of a user spin loop.
/// * **[`LoadGate::check`]**, once per iteration of a loop with wait state
///   of its own: on `true` the caller abandons that state (leaves the lock
///   queue, withdraws a writer announcement, …) and calls
///   [`LoadGate::park`], which blocks until the controller clears the slot,
///   load drops, or the sleep timeout expires.  A caller that obtains the
///   awaited resource with a claim still pending calls [`LoadGate::cancel`]
///   instead (paper §3.1.2's lock-won-while-committing window).
///
/// A gate from [`LoadGate::new`] owns a handle to the thread's context
/// (`LoadGate<'static>`); the `Lc*` wrappers lend theirs for `'a`.
#[derive(Debug)]
pub struct LoadGate<'a> {
    ctx: Ctx<'a>,
    claimed: Option<usize>,
    sleeps: u64,
    /// Due slot checks of this acquisition since its first poll or its last
    /// step-aside (counted by `on_spin`, which `pause` runs too).
    checks: u64,
    /// An abort was answered to step aside rather than to sleep.
    stepping_aside: bool,
    /// Iterations of [`LoadGate::pause`] so far.
    pauses: u64,
}

/// The context a gate waits through: a handle of its own, or the one an
/// acquisition borrowed from [`with_ctx`].
#[derive(Debug)]
enum Ctx<'a> {
    Owned(Rc<ThreadCtx>),
    Borrowed(&'a ThreadCtx),
}

impl std::ops::Deref for Ctx<'_> {
    type Target = ThreadCtx;

    #[inline]
    fn deref(&self) -> &ThreadCtx {
        match self {
            Ctx::Owned(ctx) => ctx,
            Ctx::Borrowed(ctx) => ctx,
        }
    }
}

/// Due slot checks without a claim (1024 polls at the default period) after
/// which a waiter past capacity steps aside.  Each step-aside leaves one
/// abandoned queue entry and gives up the waiter's place, so the count bounds
/// how often a waiter can do either.
const STEP_ASIDE_AFTER_CHECKS: u64 = 16;

/// How long a step-aside parks.  What moves the waiter is the wake-up, which
/// the kernel places on an idle CPU; the length only has to be short next to
/// the scheduler tick (4 ms) a co-located holder and spinner would otherwise
/// lose.
const STEP_ASIDE_PARK: Duration = Duration::from_micros(50);

impl LoadGate<'static> {
    /// Creates a gate for the calling thread on `control`.
    pub fn new(control: &Arc<LoadControl>) -> Self {
        Self::over(Ctx::Owned(current_ctx(control)))
    }
}

impl<'a> LoadGate<'a> {
    #[inline]
    fn over(ctx: Ctx<'a>) -> Self {
        Self {
            ctx,
            claimed: None,
            sleeps: 0,
            checks: 0,
            stepping_aside: false,
            pauses: 0,
        }
    }

    /// Whether the gate currently holds a sleep-slot claim (the caller must
    /// resolve it with [`LoadGate::park`] or [`LoadGate::cancel`]).
    pub fn has_claim(&self) -> bool {
        self.claimed.is_some()
    }

    /// Number of times this gate has parked its thread in a sleep slot
    /// (a step-aside is not a sleep).
    pub fn sleeps(&self) -> u64 {
        self.sleeps
    }

    /// The per-iteration check of the client-side algorithm (Figure 7,
    /// right): every [`LoadControlConfig::SLOT_CHECK_PERIOD`] iterations,
    /// consult the slot buffer and claim a slot if the controller wants
    /// threads asleep.
    ///
    /// Returns `true` when a claim is held — the caller should abandon its
    /// wait and [`LoadGate::park`].
    pub fn check(&mut self, iteration: u64) -> bool {
        if self.claimed.is_some() {
            // Defensive: an earlier claim was never resolved by the caller.
            return true;
        }
        LoadControlConfig::is_slot_check_due(iteration) && self.try_claim()
    }

    /// Attempts to claim a sleep slot right now (the unconditioned form of
    /// [`LoadGate::check`]).  Returns `true` if a claim is held.
    pub fn try_claim(&mut self) -> bool {
        if self.claimed.is_some() {
            return true;
        }
        if !self.ctx.may_leave() {
            return false;
        }
        let buffer = self.ctx.control.buffer();
        // The cheap per-iteration check touches only the shards this thread's
        // claim could land on (its home shard and the overflow neighbour);
        // with a single shard this is exactly the paper's global check.
        if !buffer.has_space_for(self.ctx.sleeper) {
            return false;
        }
        // Drain a stale permit before publishing the new claim.  A controller
        // unpark that raced our previous `leave()` — the wake scan cleared the
        // old slot, we left on our own, and the batched unpark landed after —
        // deposits a permit aimed at the *previous* episode.  Any permit
        // present now predates the claim below (our slot is not yet visible
        // to the wake scan), so consuming it can never lose a wake meant for
        // this episode; left in place it would bounce the next park straight
        // back to the poll loop, a wasted wake/sleep round trip per stale
        // permit.
        self.ctx.parker.try_consume_permit();
        match buffer.try_claim(self.ctx.sleeper) {
            ClaimOutcome::Claimed(idx) => {
                self.claimed = Some(idx);
                delegation::note_sleep_claim();
                true
            }
            ClaimOutcome::NoSpace | ClaimOutcome::Raced => false,
        }
    }

    /// Parks the thread in its claimed slot until the controller clears it or
    /// the sleep timeout expires; a no-op without a claim.
    ///
    /// Returns `true` if the thread actually slept.
    pub fn park(&mut self) -> bool {
        match self.claimed.take() {
            Some(idx) => {
                // The claim is resolved the moment we commit to sleeping:
                // once parked this thread cannot be electing itself combiner
                // anyway, and the count must balance exactly once per claim.
                delegation::note_sleep_claim_resolved();
                self.sleeps += 1;
                self.ctx.sleep_in_slot(idx);
                true
            }
            None => false,
        }
    }

    /// Releases a pending claim without sleeping (the caller obtained the
    /// awaited resource between claiming and parking); a no-op without a
    /// claim.
    #[inline]
    pub fn cancel(&mut self) {
        if let Some(idx) = self.claimed.take() {
            delegation::note_sleep_claim_resolved();
            self.ctx.control.buffer().leave(idx, self.ctx.sleeper);
        }
    }

    /// One iteration of a user spin loop: usually a `spin_loop` hint; when
    /// the controller wants threads asleep, a claim, a park and the return
    /// once the thread is woken.  A wait past capacity that has found no slot
    /// for a long time steps aside for one short park, which is not a sleep.
    /// Once the awaited condition holds, [`SpinPolicy::on_acquired`] gives
    /// back a claim taken in the meantime and marks the thread running.
    ///
    /// Returns `true` if the thread slept in a slot.
    ///
    /// ```
    /// use lc_core::locks::SpinPolicy;
    /// use lc_core::{LoadControl, LoadControlConfig, LoadGate};
    /// use std::sync::atomic::{AtomicBool, Ordering};
    ///
    /// let control = LoadControl::new(LoadControlConfig::for_capacity(4));
    /// let flag = AtomicBool::new(true); // pretend another thread will clear it
    /// let mut gate = LoadGate::new(&control);
    /// let mut iterations = 0u32;
    /// while flag.load(Ordering::Acquire) {
    ///     assert!(!gate.pause(), "nothing is overloaded");
    ///     iterations += 1;
    ///     if iterations > 10 {
    ///         flag.store(false, Ordering::Release); // keep the example finite
    ///     }
    /// }
    /// gate.on_acquired(0);
    /// assert_eq!(gate.sleeps(), 0);
    /// ```
    pub fn pause(&mut self) -> bool {
        self.pauses += 1;
        match self.on_spin(self.pauses) {
            SpinDecision::Continue => {
                std::hint::spin_loop();
                false
            }
            SpinDecision::Abort => self.leave_wait(),
        }
    }

    /// The due-check half of [`SpinPolicy::on_spin`].
    fn due_check(&mut self) -> SpinDecision {
        // `Spinning` is published at the first due slot check, not at the
        // first poll: a hand-off shorter than one check period then costs no
        // registry transition at all (each is a clock read plus shared
        // stores).  `Running` and `Spinning` are both runnable, so the
        // controller's load signal does not move; repeating the call at later
        // checks is a load and a compare.
        self.ctx.handle.set_state(ThreadState::Spinning);
        self.checks += 1;
        if self.try_claim() {
            self.checks = 0;
            return SpinDecision::Abort;
        }
        // Past capacity (`T > 0`) with every slot taken, and the lock has not
        // come for sixteen periods: more threads are runnable than there are
        // CPUs, so its holder (or the waiter it was handed to) may share this
        // CPU and wait for us to be preempted.  Leave the queue for one short
        // park.  Within capacity every runnable thread has a CPU, and a long
        // wait is a long critical section or a deep queue, where leaving only
        // loses the waiter's place.
        if self.checks >= STEP_ASIDE_AFTER_CHECKS
            && self.ctx.control.buffer().target() > 0
            && self.ctx.may_leave()
        {
            self.checks = 0;
            self.stepping_aside = true;
            return SpinDecision::Abort;
        }
        SpinDecision::Continue
    }

    /// [`SpinPolicy::on_aborted`]: sleeps in the claimed slot or steps aside.
    /// Returns `true` if the thread slept in a slot.  Aborted without either
    /// (the lock skipped us while we looked preempted), it returns at once
    /// and the caller simply retries.
    fn leave_wait(&mut self) -> bool {
        if std::mem::take(&mut self.stepping_aside) {
            self.step_aside();
            return false;
        }
        self.park()
    }

    /// One bounded park on the thread's own parker, and nothing else: no
    /// claim, no `S`/`W`/`T` book and no registry transition (the thread stays
    /// `Spinning`, so the load signal does not move), and no sleep counted.
    /// Spinning or yielding would leave the waiter on the run-queue it shares
    /// with the thread it waits for; the wake-up that ends a park is placed
    /// by the kernel, on an idle CPU if there is one.
    fn step_aside(&self) {
        // No claim is outstanding, so nobody is waking this thread on
        // purpose: a permit here is stale and would turn the park into a
        // no-op.
        self.ctx.parker.try_consume_permit();
        let _ = self
            .ctx
            .control
            .park_ops()
            .park(&self.ctx.parker, STEP_ASIDE_PARK);
    }
}

impl SpinPolicy for LoadGate<'_> {
    #[inline]
    fn on_spin(&mut self, spins: u64) -> SpinDecision {
        if self.claimed.is_some() || self.stepping_aside {
            return SpinDecision::Abort;
        }
        if !LoadControlConfig::is_slot_check_due(spins) {
            return SpinDecision::Continue;
        }
        self.due_check()
    }

    fn on_aborted(&mut self) {
        self.leave_wait();
    }

    #[inline]
    fn on_acquired(&mut self, _spins: u64) {
        // We may have won the lock in the window between claiming a slot (or
        // deciding to step aside) and parking: clear the claim and proceed
        // (paper §3.1.2).
        self.cancel();
        self.stepping_aside = false;
        self.checks = 0;
        self.ctx.handle.set_state(ThreadState::Running);
    }
}

impl Drop for LoadGate<'_> {
    #[inline]
    fn drop(&mut self) {
        // A claim must never leak: an unresolved claim would permanently
        // inflate `S − W` and shrink the controller's working target.
        self.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::spec_control;
    use std::time::Instant;

    fn test_control(capacity: usize) -> Arc<LoadControl> {
        spec_control(LoadControlConfig::for_capacity(capacity), "policy=fixed")
    }

    #[test]
    fn ctx_is_reused_per_control() {
        let lc = test_control(2);
        let a = current_ctx(&lc);
        let b = current_ctx(&lc);
        assert!(Rc::ptr_eq(&a, &b));
        let other = test_control(2);
        let c = current_ctx(&other);
        assert!(!Rc::ptr_eq(&a, &c));
        // Alternating between two controls moves the front of the list back
        // and forth; each control must keep answering with its own context.
        for _ in 0..3 {
            assert!(Rc::ptr_eq(&current_ctx(&lc), &a));
            assert!(Rc::ptr_eq(&current_ctx(&other), &c));
        }
        assert!(Arc::ptr_eq(&a.control, &lc) && Arc::ptr_eq(&c.control, &other));
        // The one-load lookup answers with the same contexts as the list.
        for _ in 0..2 {
            with_ctx(&lc, |ctx| assert!(ptr::eq(ctx, &*a)));
            with_ctx(&lc, |ctx| assert!(ptr::eq(ctx, &*a)));
            with_ctx(&other, |ctx| assert!(ptr::eq(ctx, &*c)));
        }
    }

    #[test]
    fn the_remembered_context_is_forgotten_before_the_list_is_freed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.store(LAST.get().0, Ordering::SeqCst);
            }
        }
        thread_local! {
            static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
        }
        let lc = test_control(2);
        let key_at_exit = Arc::new(AtomicUsize::new(usize::MAX));
        let (lc2, key2) = (Arc::clone(&lc), Arc::clone(&key_at_exit));
        std::thread::spawn(move || {
            // First used before the context list, so destroyed after it.
            PROBE.with(|probe| *probe.borrow_mut() = Some(Probe(key2)));
            let ctx = current_ctx(&lc2);
            assert_eq!(LAST.get(), (Arc::as_ptr(&lc2) as usize, Rc::as_ptr(&ctx)));
        })
        .join()
        .unwrap();
        assert_eq!(key_at_exit.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn an_acquisition_does_no_load_control_work_before_its_first_due_slot_check() {
        let lc = test_control(2);
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        let ctx = current_ctx(&lc);
        let refs = Rc::strong_count(&ctx);
        // Granted without polling, before the first due check or at it: the
        // gate borrows the context `with_ctx` found, so it never clones a
        // handle or probes the context list, and leaves nothing to drop.
        for polls in [0, period - 1, period] {
            acquire(&lc, |gate| {
                assert!(matches!(gate.ctx, Ctx::Borrowed(_)));
                for spins in 1..=polls {
                    assert_eq!(gate.on_spin(spins), SpinDecision::Continue);
                }
                gate.on_acquired(polls);
                assert_eq!(Rc::strong_count(&ctx), refs);
                assert!(!gate.has_claim());
            });
        }
        // Each acquisition counted one hold on the one context.
        assert_eq!(ctx.hold_count.get(), 3);
        assert!(try_acquire(&lc, || true) && !try_acquire(&lc, || false));
        for remaining in (0..4).rev() {
            release(&lc, || {});
            assert_eq!(ctx.hold_count.get(), remaining);
        }
    }

    #[test]
    fn short_lived_threads_leave_the_sleeper_table_at_peak_concurrency() {
        const BATCH: usize = 4;
        let lc = test_control(2);
        let m = Arc::new(crate::LcMutex::<u32>::new_with(0, &lc));
        let refs_before = Arc::strong_count(&lc);
        for _ in 0..16 {
            let all_in = Arc::new(std::sync::Barrier::new(BATCH));
            let threads: Vec<_> = (0..BATCH)
                .map(|_| {
                    let (m, all_in) = (Arc::clone(&m), Arc::clone(&all_in));
                    std::thread::spawn(move || {
                        *m.lock() += 1;
                        all_in.wait();
                    })
                })
                .collect();
            for thread in threads {
                thread.join().unwrap();
            }
        }
        // Each context died with its thread: its registry record is closed,
        // it no longer keeps the control alive, and its id is back in the
        // pool, which a task leases from.
        assert_eq!(lc.registry().len(), 0);
        assert_eq!(Arc::strong_count(&lc), refs_before);
        lc.set_sleep_target(1);
        let mut task_gate = crate::AsyncLoadGate::new(&lc);
        assert!(task_gate.try_claim());
        drop(task_gate);
        // 64 threads, at most four at a time: the table holds four parkers.
        let next = lc.buffer().register_sleeper(Arc::new(Parker::new()));
        assert_eq!(next.index(), BATCH as u64);
        assert_eq!(*m.lock(), 64);
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn worker_registration_tracks_state() {
        let lc = test_control(2);
        let w = lc.register_worker();
        assert_eq!(w.state(), ThreadState::Running);
        assert_eq!(lc.registry().runnable_threads(), 1);
        w.set_state(ThreadState::BlockedOnIo);
        assert_eq!(lc.registry().runnable_threads(), 0);
        drop(w);
        // The context remains registered but idle.
        assert_eq!(lc.registry().runnable_threads(), 0);
    }

    /// Clears the sleep target of `lc` once the calling thread's parker has
    /// begun one more park: the waker waits on protocol state, not a clock.
    fn clear_once_parked(lc: &Arc<LoadControl>) -> std::thread::JoinHandle<()> {
        let parker = Arc::clone(current_ctx(lc).parker());
        let parks = parker.park_count();
        let lc = Arc::clone(lc);
        std::thread::spawn(move || {
            while parker.park_count() == parks {
                std::thread::yield_now();
            }
            lc.set_sleep_target(0);
        })
    }

    #[test]
    fn every_face_of_the_gate_sleeps_until_the_controller_clears_its_slot() {
        // A timeout far past any scheduling delay: only the clear ends a park.
        let lc = spec_control(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_secs(60)),
            "policy=fixed",
        );
        let parker = Arc::clone(current_ctx(&lc).parker());
        let timeouts = parker.timeout_count();
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;

        // As a spin policy: abort at the first due check, sleep in the abort.
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        for i in 1..period {
            assert_eq!(gate.on_spin(i), SpinDecision::Continue);
        }
        assert_eq!(gate.on_spin(period), SpinDecision::Abort);
        assert_eq!(lc.sleepers(), 1);
        let waker = clear_once_parked(&lc);
        gate.on_aborted();
        waker.join().unwrap();
        gate.on_acquired(period);
        assert_eq!((gate.sleeps(), lc.sleepers()), (1, 0));

        // Through check and park; off-period iterations never touch the
        // buffer.
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        assert!(!gate.check(period + 1));
        assert!(gate.check(period) && gate.has_claim());
        let waker = clear_once_parked(&lc);
        assert!(gate.park());
        waker.join().unwrap();
        assert!(!gate.has_claim());
        assert_eq!((gate.sleeps(), lc.sleepers()), (1, 0));

        // Through the pauses of a user spin loop.
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        let waker = clear_once_parked(&lc);
        assert!((0..2 * period).any(|_| gate.pause()), "never slept");
        waker.join().unwrap();
        gate.on_acquired(0);
        assert_eq!((gate.sleeps(), lc.sleepers()), (1, 0));

        assert_eq!(parker.timeout_count(), timeouts, "a park timed out");
        let stats = lc.buffer().stats();
        assert_eq!((stats.ever_slept, stats.woken_and_left), (3, 3));
    }

    #[test]
    fn gate_sleep_times_out_on_its_own() {
        let lc = spec_control(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(10)),
            "policy=fixed",
        );
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        for i in 1..=period {
            let _ = gate.on_spin(i);
        }
        let start = Instant::now();
        gate.on_aborted();
        assert!(start.elapsed() >= Duration::from_millis(9));
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn holding_a_lock_prevents_claiming() {
        let lc = test_control(1);
        lc.set_sleep_target(4);
        let ctx = current_ctx(&lc);
        ctx.note_acquired();
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        let mut gate = LoadGate::new(&lc);
        // Long enough for four step-asides, which the hold refuses too.
        for i in 1..=4 * STEP_ASIDE_AFTER_CHECKS * period {
            assert_eq!(gate.on_spin(i), SpinDecision::Continue);
        }
        ctx.note_released();
        let mut gate = LoadGate::new(&lc);
        let mut aborted = false;
        for i in 1..=period {
            aborted |= gate.on_spin(i) == SpinDecision::Abort;
        }
        assert!(aborted);
    }

    #[test]
    fn only_a_waiter_past_capacity_with_no_slot_steps_aside() {
        let lc = test_control(1);
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        let steps_aside_at = STEP_ASIDE_AFTER_CHECKS * period;
        // T = 0: within capacity a wait of any length stays in the queue,
        // and claims nothing.
        let mut gate = LoadGate::new(&lc);
        for i in 1..=4 * steps_aside_at {
            assert_eq!(gate.on_spin(i), SpinDecision::Continue);
            assert!(!gate.pause());
        }
        gate.on_acquired(4 * steps_aside_at);
        assert_eq!((gate.sleeps(), lc.sleepers()), (0, 0));

        // T = 1 with the one slot taken by another sleeper.
        lc.set_sleep_target(1);
        let other = lc.buffer().register_sleeper(Arc::new(Parker::new()));
        let ClaimOutcome::Claimed(idx) = lc.buffer().try_claim(other) else {
            panic!("the other sleeper found no slot");
        };
        let mut gate = LoadGate::new(&lc);
        for i in 1..steps_aside_at {
            assert_eq!(gate.on_spin(i), SpinDecision::Continue);
        }
        assert_eq!(gate.on_spin(steps_aside_at), SpinDecision::Abort);
        // One timed-out park of the step-aside's length on this thread's
        // own parker, and no sleep.
        let parker = Arc::clone(current_ctx(&lc).parker());
        let (parks, timeouts) = (parker.park_count(), parker.timeout_count());
        let start = Instant::now();
        gate.on_aborted();
        assert!(start.elapsed() >= STEP_ASIDE_PARK);
        assert_eq!(parker.park_count() - parks, 1);
        assert_eq!(parker.timeout_count() - timeouts, 1);
        assert_eq!(gate.sleeps(), 0);
        gate.on_acquired(steps_aside_at);
        lc.buffer().leave(idx, other);
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn gate_cancel_releases_without_sleeping() {
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        assert!(gate.try_claim());
        assert_eq!(lc.sleepers(), 1);
        gate.cancel();
        assert_eq!(lc.sleepers(), 0);
        // park without a claim is a no-op.
        assert!(!gate.park());
        // A lock won with a claim pending gives it back the same way.
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        assert_eq!(gate.on_spin(period), SpinDecision::Abort);
        assert_eq!(lc.sleepers(), 1);
        gate.on_acquired(period);
        assert_eq!((gate.sleeps(), lc.sleepers()), (0, 0));
        let stats = lc.buffer().stats();
        assert_eq!((stats.ever_slept, stats.woken_and_left), (2, 2));
    }

    #[test]
    fn dropping_a_gate_never_leaks_a_claim() {
        let lc = test_control(1);
        lc.set_sleep_target(1);
        {
            let mut gate = LoadGate::new(&lc);
            assert!(gate.try_claim());
            assert_eq!(lc.sleepers(), 1);
        }
        assert_eq!(lc.sleepers(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn gate_claims_on_the_home_shard_of_a_sharded_buffer() {
        let lc = spec_control(LoadControlConfig::for_capacity(1), "policy=fixed; shards=4");
        lc.set_sleep_target(8);
        let mut gate = LoadGate::new(&lc);
        assert!(gate.try_claim());
        let buffer = lc.buffer();
        // This thread registered first, so its home shard is 0 and the claim
        // must land there (the shard has room).
        assert_eq!(buffer.shard_sleepers(0), 1);
        gate.cancel();
        assert_eq!(lc.sleepers(), 0);
        let stats = buffer.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn late_unpark_after_leave_does_not_carry_into_the_next_episode() {
        // A controller wake that races a departing sleeper — the wake scan
        // cleared the old slot, the thread left on its own, and the batched
        // unpark landed after `leave()` — deposits a permit aimed at the
        // *previous* episode.  The next claim must drain it: the following
        // park then runs its full course in a single `park_timeout` call
        // instead of bouncing straight through on the stale permit.
        let lc = spec_control(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(60)),
            "policy=fixed",
        );
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        assert!(gate.try_claim());
        // Episode 1 resolves without sleeping (we "won the lock"), and THEN
        // the late unpark lands.
        gate.cancel();
        let ctx = current_ctx(&lc);
        ctx.parker().unpark();
        // Episode 2: the stale permit must be gone by the time the claim is
        // published...
        assert!(gate.try_claim());
        let parks_before = ctx.parker().park_count();
        let start = Instant::now();
        // ...so this park times out after one real block, not two (a stale
        // permit would end the first `park_timeout` instantly and force the
        // wait loop around again).
        assert!(gate.park());
        assert!(
            start.elapsed() >= Duration::from_millis(55),
            "stale permit cut the next sleep episode short"
        );
        assert_eq!(
            ctx.parker().park_count() - parks_before,
            1,
            "stale permit leaked into the episode and bounced the first park"
        );
        assert_eq!(lc.sleepers(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn slot_claim_vetoes_combiner_election() {
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        assert!(delegation::thread_may_self_elect());
        assert!(gate.try_claim());
        assert!(
            !delegation::thread_may_self_elect(),
            "a thread holding a sleep-slot claim must refuse the combiner role"
        );
        gate.cancel();
        assert!(delegation::thread_may_self_elect());
        // Parking resolves the claim too (counter balances either way).
        assert!(gate.try_claim());
        assert!(!delegation::thread_may_self_elect());
        lc.set_sleep_target(0);
        assert!(gate.park());
        assert!(delegation::thread_may_self_elect());
    }

    #[test]
    fn a_claim_on_any_control_vetoes_combiner_election() {
        let a = test_control(1);
        let b = test_control(1);
        a.set_sleep_target(1);
        let mut gate = LoadGate::new(&a);
        assert!(gate.try_claim());
        // The first lock on `b` creates this thread's latest context.
        drop(crate::LcMutex::<u32>::new_with(0, &b).lock());
        assert!(
            !delegation::thread_may_self_elect(),
            "a claim on another control must still refuse the combiner role"
        );
        gate.cancel();
        assert!(delegation::thread_may_self_elect());
    }

    #[test]
    fn combining_refuses_claims_and_never_steps_aside() {
        use lc_locks::{FlatCombiningLock, RawLock};
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let lock = <FlatCombiningLock as RawLock>::new();
        let lc2 = Arc::clone(&lc);
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        let mut observed = (false, true, true);
        lock.run_locked(|| {
            observed.0 = delegation::is_combining();
            let mut gate = LoadGate::new(&lc2);
            observed.1 = gate.try_claim();
            observed.2 = (1..=2 * STEP_ASIDE_AFTER_CHECKS * period)
                .any(|i| gate.on_spin(i) == SpinDecision::Abort);
        });
        assert!(observed.0, "direct run_locked must combine");
        assert!(!observed.1, "combiner claimed a sleep slot");
        assert!(!observed.2, "combiner stepped aside");
        assert_eq!(lc.sleepers(), 0);
    }
}
