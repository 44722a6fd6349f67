//! Per-thread load-control state and the client-side algorithm
//! (paper Figure 7, right).
//!
//! Each thread that participates in load control has, per [`crate::LoadControl`]
//! instance, a small context holding its parker, its sleeper identity in the
//! slot buffer, and its registration in the thread registry.  The context is
//! created lazily the first time the thread touches a load-controlled lock
//! (the "drop-in library" deployment of the paper) or eagerly through
//! [`crate::LoadControl::register_worker`].
//!
//! The client-side algorithm itself is packaged twice, at two altitudes:
//!
//! * [`LoadGate`] is the reusable waiter-side gate: *any* waiting loop — a
//!   lock's polling loop, a semaphore's CAS loop, a condition-variable wait,
//!   a custom barrier — calls [`LoadGate::check`] once per iteration and,
//!   when it returns `true`, abandons whatever wait state it holds and calls
//!   [`LoadGate::park`].  The gate owns the claim/park/leave protocol against
//!   the slot buffer.
//! * [`LoadControlPolicy`] adapts the gate to the [`SpinPolicy`] interface of
//!   [`lc_locks::AbortableLock`]: it checks the buffer every few iterations,
//!   claims a slot when the controller wants threads to sleep, aborts the
//!   lock attempt, parks until the slot is cleared or a timeout expires, and
//!   then retries the lock.  A waiter past capacity (`T > 0`) that has found
//!   no slot for sixteen checks *steps aside* instead: it aborts, parks for
//!   50 µs outside the slot buffer, and retries.
//!
//! The `Lc*` wrappers themselves go through `acquire` / `release`, whose
//! policy is the same algorithm built lazily: an acquisition pays for nothing
//! load-control-specific — no gate, no reference count, no list borrow — until
//! its backend has polled for a whole slot-check period.

use crate::controller::LoadControl;
use crate::slots::{ClaimOutcome, SleeperId};
use crate::time::{SlotWait, WaitPoll};
use lc_accounting::{ThreadHandle, ThreadState};
use lc_locks::delegation::{self, CombinerObserver};
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
    /// The two configuration values the waiter side reads, copied once per
    /// (thread, control): the configuration is immutable after build, and
    /// [`LoadGate::check`] reads the period on every polling iteration.
    slot_check_period: u64,
    sleep_timeout: Duration,
    /// Number of load-controlled locks this thread currently holds; used to
    /// refuse sleeping while holding a lock (the nested-critical-section
    /// hazard of paper §6.1.2).
    hold_count: Cell<u32>,
    /// Number of unresolved sleep-slot claims this thread holds (0 or 1 in
    /// practice — a gate resolves its claim before the next one).  The
    /// load-aware combiner-election strategy consults this: a thread that
    /// has committed to sleeping must not elect itself combiner.
    slot_claims: Cell<u32>,
    /// Number of times this thread has been put to sleep by load control.
    sleeps: Cell<u64>,
}

impl fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("sleeper", &self.sleeper)
            .field("hold_count", &self.hold_count.get())
            .field("slot_claims", &self.slot_claims.get())
            .field("sleeps", &self.sleeps.get())
            .finish()
    }
}

impl ThreadCtx {
    fn new(control: Arc<LoadControl>) -> Self {
        let parker = Arc::new(Parker::new());
        let sleeper = control.buffer().register_sleeper(Arc::clone(&parker));
        let handle = control.registry().register();
        let config = control.config();
        Self {
            control,
            parker,
            sleeper,
            handle,
            slot_check_period: u64::from(config.slot_check_period),
            sleep_timeout: config.sleep_timeout,
            hold_count: Cell::new(0),
            slot_claims: Cell::new(0),
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

    /// Whether `iteration` is one on which the slot buffer is consulted.
    fn is_due(&self, iteration: u64) -> bool {
        iteration.is_multiple_of(self.slot_check_period)
    }

    /// A sleep-slot claim was taken on behalf of this thread.
    fn note_slot_claimed(&self) {
        self.slot_claims.set(self.slot_claims.get() + 1);
    }

    /// A sleep-slot claim was resolved (parked, cancelled, or dropped).
    fn note_slot_released(&self) {
        let c = self.slot_claims.get();
        debug_assert!(c > 0, "released a sleep-slot claim that was not held");
        self.slot_claims.set(c.saturating_sub(1));
    }

    /// Whether this thread currently holds an unresolved sleep-slot claim.
    fn holds_slot_claim(&self) -> bool {
        self.slot_claims.get() > 0
    }

    /// Total times this thread slept at load control's request.
    pub(crate) fn sleep_count(&self) -> u64 {
        self.sleeps.get()
    }

    /// Publishes a registry state transition for this thread.
    pub(crate) fn set_registry_state(&self, state: ThreadState) -> ThreadState {
        self.handle.set_state(state)
    }

    /// The paper's sleep procedure — block while the slot is still ours, up
    /// to the configured timeout, then release the claim — with an extra
    /// caller-side condition: the thread also wakes (and releases its claim)
    /// as soon as `keep_parked` turns false after an unpark.  This is what
    /// lets a precise [`crate::LcCondvar::notify_one`] hand off to a
    /// load-parked waiter immediately instead of at slot clear or timeout.
    ///
    /// The wait protocol itself is [`SlotWait`] — the same state machine the
    /// `lc-des` simulator polls at event times — driven here against the
    /// control instance's [`TimeSource`](crate::time::TimeSource) and
    /// [`ParkOps`](crate::time::ParkOps).
    fn sleep_in_slot_while(&self, slot_idx: usize, keep_parked: &dyn Fn() -> bool) {
        self.sleeps.set(self.sleeps.get() + 1);
        let buffer = self.control.buffer();
        let time = Arc::clone(self.control.time());
        let park_ops = Arc::clone(self.control.park_ops());
        let previous = self.handle.set_state(ThreadState::ParkedByLoadControl);
        let wait = SlotWait::begin(slot_idx, self.sleeper, time.now(), self.sleep_timeout);
        loop {
            if !keep_parked() {
                break;
            }
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
    pub(crate) fn parker(&self) -> &Arc<Parker> {
        &self.parker
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

/// The per-thread combiner hook wiring `lc_locks::delegation` to load
/// control: election consults the sleep books, and combining toggles the
/// wake-scan exemption for this thread's slot.
struct CtxCombinerObserver {
    ctx: Rc<ThreadCtx>,
}

impl CombinerObserver for CtxCombinerObserver {
    fn combining_changed(&self, active: bool) {
        let buffer = self.ctx.control.buffer();
        if active {
            // A full exempt table refuses the exemption; combining proceeds
            // regardless (the combiner can then absorb a useless wake, which
            // is wasteful but safe).
            let _ = buffer.set_exempt(self.ctx.sleeper);
        } else {
            buffer.clear_exempt(self.ctx.sleeper);
        }
    }

    fn may_self_elect(&self) -> bool {
        // A thread that has committed to sleeping (holds an unresolved
        // sleep-slot claim) must not become the combiner: it is exactly the
        // thread the controller wants off the CPU.
        !self.ctx.holds_slot_claim()
    }
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
///
/// Context creation also installs the thread's [`CombinerObserver`], linking
/// the delegation lock plane (`flat-combining` / `ccsynch` with
/// `strategy=load-aware`) to this control instance's sleep books.  A thread
/// using several [`LoadControl`] instances keeps the observer of the instance
/// it touched most recently — per-thread delegation state is a single hook,
/// matching the one-control-plane-per-process deployment of the paper.
pub(crate) fn current_ctx(control: &Arc<LoadControl>) -> Rc<ThreadCtx> {
    let key = Arc::as_ptr(control) as usize;
    CTXS.try_with(|list| {
        let mut ctxs = list.0.borrow_mut();
        match ctxs.iter().position(|(k, _)| *k == key) {
            Some(0) => {}
            Some(i) => ctxs.swap(0, i),
            None => {
                let ctx = Rc::new(ThreadCtx::new(Arc::clone(control)));
                delegation::install_combiner_observer(Box::new(CtxCombinerObserver {
                    ctx: Rc::clone(&ctx),
                }));
                ctxs.insert(0, (key, ctx));
            }
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
/// waiting loop under the policy it is handed.  Shared by every sync `Lc*`
/// primitive.  An acquisition whose backend never polls does nothing here
/// but mark the thread `Running` (a load and a compare when it already is)
/// and count the hold.
#[inline]
pub(crate) fn acquire(control: &Arc<LoadControl>, wait: impl FnOnce(&mut AcquirePolicy<'_>)) {
    with_ctx(control, |ctx| {
        wait(&mut AcquirePolicy {
            control,
            ctx,
            gate: None,
        });
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

/// The reusable waiter-side gate of the load-control mechanism.
///
/// A `LoadGate` is created per waiting episode (it is per-thread state and is
/// deliberately `!Send`).  The waiting loop calls [`LoadGate::check`] once
/// per polling iteration; when it returns `true` the gate has claimed a sleep
/// slot and the caller should abandon its wait state (leave the lock queue,
/// withdraw a writer announcement, …) and call [`LoadGate::park`], which
/// blocks until the controller clears the slot, load drops, or the sleep
/// timeout expires.  A caller that obtains the awaited resource with a claim
/// still pending calls [`LoadGate::cancel`] instead (paper §3.1.2's
/// lock-won-while-committing window).
///
/// Everything load-controlled — [`crate::LcLock`], [`crate::LcRwLock`],
/// [`crate::LcSemaphore`], [`crate::LcCondvar`], [`crate::SpinHook`] — waits
/// through this one gate, which is what makes load management uniform across
/// heterogeneous primitives.
pub struct LoadGate {
    ctx: Rc<ThreadCtx>,
    claimed: Option<usize>,
    sleeps: u64,
    /// Due slot checks of this acquisition since its first poll or its last
    /// step-aside (counted by the [`SpinPolicy`] face only).
    checks: u64,
    /// An abort was answered to step aside rather than to sleep.
    stepping_aside: bool,
}

impl fmt::Debug for LoadGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadGate")
            .field("claimed", &self.claimed)
            .field("sleeps", &self.sleeps)
            .field("stepping_aside", &self.stepping_aside)
            .finish()
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

impl LoadGate {
    /// Creates a gate for the calling thread on `control`.
    pub fn new(control: &Arc<LoadControl>) -> Self {
        Self {
            ctx: current_ctx(control),
            claimed: None,
            sleeps: 0,
            checks: 0,
            stepping_aside: false,
        }
    }

    /// Whether the gate currently holds a sleep-slot claim (the caller must
    /// resolve it with [`LoadGate::park`] or [`LoadGate::cancel`]).
    pub fn has_claim(&self) -> bool {
        self.claimed.is_some()
    }

    /// Number of times this gate has parked its thread in a sleep slot.
    pub fn sleeps(&self) -> u64 {
        self.sleeps
    }

    /// The per-iteration check of the client-side algorithm (Figure 7,
    /// right): every `slot_check_period` iterations, consult the slot buffer
    /// and claim a slot if the controller wants threads asleep.
    ///
    /// Returns `true` when a claim is held — the caller should abandon its
    /// wait and [`LoadGate::park`].
    pub fn check(&mut self, iteration: u64) -> bool {
        if self.claimed.is_some() {
            // Defensive: an earlier claim was never resolved by the caller.
            return true;
        }
        self.ctx.is_due(iteration) && self.try_claim()
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
                self.ctx.note_slot_claimed();
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
        self.park_while(|| true)
    }

    /// [`LoadGate::park`] with an extra caller-side wake condition: after any
    /// unpark the thread re-evaluates `keep_parked` and, if it turned false,
    /// releases its claim and returns immediately — even though the slot is
    /// still claimed and the timeout has not expired.
    ///
    /// This is the waiter half of a *directed* wakeup: a notifier that knows
    /// this specific thread should resume (e.g.
    /// [`crate::LcCondvar::notify_one`]) flips the condition and unparks the
    /// thread's parker, and the sleeper leaves its slot at once instead of
    /// waiting for the controller or its timeout.  Returns `true` if the
    /// thread actually slept.
    pub fn park_while(&mut self, keep_parked: impl Fn() -> bool) -> bool {
        match self.claimed.take() {
            Some(idx) => {
                // The claim is resolved the moment we commit to sleeping:
                // once parked this thread cannot be electing itself combiner
                // anyway, and the counter must balance exactly once per
                // claim.
                self.ctx.note_slot_released();
                self.sleeps += 1;
                self.ctx.sleep_in_slot_while(idx, &keep_parked);
                true
            }
            None => false,
        }
    }

    /// Releases a pending claim without sleeping (the caller obtained the
    /// awaited resource between claiming and parking); a no-op without a
    /// claim.
    pub fn cancel(&mut self) {
        if let Some(idx) = self.claimed.take() {
            self.ctx.note_slot_released();
            self.ctx.control.buffer().leave(idx, self.ctx.sleeper);
        }
    }

    /// [`SpinPolicy::on_spin`] over this gate.
    fn spin(&mut self, spins: u64) -> SpinDecision {
        if self.has_claim() || self.stepping_aside {
            return SpinDecision::Abort;
        }
        if !self.ctx.is_due(spins) {
            return SpinDecision::Continue;
        }
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

    /// [`SpinPolicy::on_aborted`] over this gate: sleeps in the claimed slot
    /// or steps aside.  Returns `true` if the thread slept in a slot.
    fn aborted(&mut self) -> bool {
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

    /// [`SpinPolicy::on_acquired`] over this gate.
    fn acquired(&mut self) {
        // We may have won the lock in the window between claiming a slot (or
        // deciding to step aside) and parking: clear the claim and proceed
        // (paper §3.1.2).
        self.cancel();
        self.stepping_aside = false;
        self.checks = 0;
        self.ctx.handle.set_state(ThreadState::Running);
    }

    pub(crate) fn ctx(&self) -> &Rc<ThreadCtx> {
        &self.ctx
    }
}

impl Drop for LoadGate {
    fn drop(&mut self) {
        // A claim must never leak: an unresolved claim would permanently
        // inflate `S − W` and shrink the controller's working target.
        self.cancel();
    }
}

/// The client-side load-control algorithm, as a [`SpinPolicy`].
///
/// A thin adapter over [`LoadGate`] for any abort-capable waiting loop
/// outside the `Lc*` primitives ([`lc_locks::AbortableLock::lock_with`] on a
/// raw lock, [`crate::SpinHook`]).  It does not count a hold: the caller's
/// critical section is invisible to the nested-hold sleep refusal.
pub struct LoadControlPolicy {
    gate: LoadGate,
    /// Number of times this acquisition has slept (for tests/diagnostics).
    pub sleeps_this_acquire: u32,
}

impl fmt::Debug for LoadControlPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadControlPolicy")
            .field("gate", &self.gate)
            .field("sleeps_this_acquire", &self.sleeps_this_acquire)
            .finish()
    }
}

impl LoadControlPolicy {
    /// Creates the policy for the calling thread on `control`.
    pub fn new(control: &Arc<LoadControl>) -> Self {
        Self {
            gate: LoadGate::new(control),
            sleeps_this_acquire: 0,
        }
    }

    /// [`SpinPolicy::on_aborted`], returning `true` if the thread slept in a
    /// slot (a step-aside is not a sleep).
    pub(crate) fn aborted(&mut self) -> bool {
        let slept = self.gate.aborted();
        if slept {
            self.sleeps_this_acquire += 1;
        }
        slept
    }
}

impl SpinPolicy for LoadControlPolicy {
    fn on_spin(&mut self, spins: u64) -> SpinDecision {
        self.gate.spin(spins)
    }

    fn on_aborted(&mut self) {
        // If we were aborted without a claim or a step-aside (the lock
        // skipped us while we looked preempted) we simply retry immediately.
        self.aborted();
    }

    fn on_acquired(&mut self, _spins: u64) {
        self.gate.acquired();
    }
}

/// The [`SpinPolicy`] [`acquire`] hands a backend: [`LoadControlPolicy`]
/// with the gate built at the first due slot check instead of up front, so
/// an acquisition that is granted sooner owns nothing that needs dropping.
pub(crate) struct AcquirePolicy<'a> {
    control: &'a Arc<LoadControl>,
    ctx: &'a ThreadCtx,
    gate: Option<LoadGate>,
}

impl SpinPolicy for AcquirePolicy<'_> {
    #[inline]
    fn on_spin(&mut self, spins: u64) -> SpinDecision {
        if self.gate.is_none() && !self.ctx.is_due(spins) {
            return SpinDecision::Continue;
        }
        self.gate
            .get_or_insert_with(|| LoadGate::new(self.control))
            .spin(spins)
    }

    fn on_aborted(&mut self) {
        if let Some(gate) = &mut self.gate {
            gate.aborted();
        }
    }

    #[inline]
    fn on_acquired(&mut self, _spins: u64) {
        match &mut self.gate {
            Some(gate) => gate.acquired(),
            None => {
                self.ctx.handle.set_state(ThreadState::Running);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadControlConfig;
    use crate::policy::FixedPolicy;
    use std::time::Instant;

    fn test_control(capacity: usize) -> Arc<LoadControl> {
        LoadControl::with_policy(
            LoadControlConfig::for_capacity(capacity),
            Box::new(FixedPolicy::manual()),
        )
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
    fn acquire_builds_its_gate_at_the_first_due_slot_check() {
        let lc = test_control(2);
        let period = u64::from(lc.config().slot_check_period);
        // Granted without polling, or before the first due check: no gate.
        acquire(&lc, |policy| {
            policy.on_acquired(0);
            assert!(policy.gate.is_none());
        });
        acquire(&lc, |policy| {
            for spins in 1..period {
                assert_eq!(policy.on_spin(spins), SpinDecision::Continue);
            }
            policy.on_acquired(period - 1);
            assert!(policy.gate.is_none());
        });
        acquire(&lc, |policy| {
            assert_eq!(policy.on_spin(period), SpinDecision::Continue);
            assert!(policy.gate.is_some());
            policy.on_acquired(period);
        });
        // Each acquisition counted one hold on the one context.
        with_ctx(&lc, |ctx| assert_eq!(ctx.hold_count.get(), 3));
        assert!(try_acquire(&lc, || true) && !try_acquire(&lc, || false));
        for remaining in (0..4).rev() {
            release(&lc, || {});
            with_ctx(&lc, |ctx| assert_eq!(ctx.hold_count.get(), remaining));
        }
    }

    #[test]
    fn short_lived_thread_releases_its_registration() {
        let lc = test_control(2);
        let refs_before = Arc::strong_count(&lc);
        let lc2 = Arc::clone(&lc);
        std::thread::spawn(move || {
            let m = crate::LcMutex::<u32>::new_with(0, &lc2);
            *m.lock() += 1;
            assert_eq!(lc2.registry().len(), 1);
            assert_eq!(lc2.registry().runnable_threads(), 1);
        })
        .join()
        .unwrap();
        // The context died with the thread: its registry record is closed, it
        // left no claim behind, and it no longer keeps the control alive.
        assert_eq!(lc.registry().len(), 0);
        assert_eq!(lc.registry().runnable_threads(), 0);
        assert_eq!(lc.sleepers(), 0);
        assert_eq!(Arc::strong_count(&lc), refs_before);
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

    #[test]
    fn policy_does_not_claim_without_target() {
        let lc = test_control(2);
        let mut p = LoadControlPolicy::new(&lc);
        for i in 1..=1_000 {
            assert_eq!(p.on_spin(i), SpinDecision::Continue);
        }
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn policy_claims_and_sleeps_until_controller_clears() {
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let mut p = LoadControlPolicy::new(&lc);
        // First check period hits at slot_check_period iterations.
        let period = u64::from(lc.config().slot_check_period);
        let mut decision = SpinDecision::Continue;
        for i in 1..=period {
            decision = p.on_spin(i);
        }
        assert_eq!(decision, SpinDecision::Abort);
        assert_eq!(lc.sleepers(), 1);

        // Clear the claim from another thread shortly after we park.
        let lc2 = Arc::clone(&lc);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            lc2.set_sleep_target(0);
        });
        let start = Instant::now();
        p.on_aborted();
        waker.join().unwrap();
        assert!(lc.sleepers() == 0);
        assert_eq!(p.sleeps_this_acquire, 1);
        // Woken well before the 100 ms timeout.
        assert!(start.elapsed() < Duration::from_millis(90));
    }

    #[test]
    fn policy_sleep_times_out_on_its_own() {
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(10)),
            Box::new(FixedPolicy::manual()),
        );
        lc.set_sleep_target(1);
        let mut p = LoadControlPolicy::new(&lc);
        let period = u64::from(lc.config().slot_check_period);
        for i in 1..=period {
            let _ = p.on_spin(i);
        }
        let start = Instant::now();
        p.on_aborted();
        assert!(start.elapsed() >= Duration::from_millis(9));
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn acquiring_with_a_pending_claim_releases_it() {
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let mut p = LoadControlPolicy::new(&lc);
        let period = u64::from(lc.config().slot_check_period);
        for i in 1..=period {
            let _ = p.on_spin(i);
        }
        assert_eq!(lc.sleepers(), 1);
        p.on_acquired(period);
        assert_eq!(lc.sleepers(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn holding_a_lock_prevents_claiming() {
        let lc = test_control(1);
        lc.set_sleep_target(4);
        let ctx = current_ctx(&lc);
        ctx.note_acquired();
        let period = u64::from(lc.config().slot_check_period);
        let mut p = LoadControlPolicy::new(&lc);
        // Long enough for four step-asides, which the hold refuses too.
        for i in 1..=4 * STEP_ASIDE_AFTER_CHECKS * period {
            assert_eq!(p.on_spin(i), SpinDecision::Continue);
        }
        ctx.note_released();
        let mut p2 = LoadControlPolicy::new(&lc);
        let mut aborted = false;
        for i in 1..=period {
            aborted |= p2.on_spin(i) == SpinDecision::Abort;
        }
        assert!(aborted);
    }

    #[test]
    fn only_a_waiter_past_capacity_with_no_slot_steps_aside() {
        let lc = test_control(1);
        let period = u64::from(lc.config().slot_check_period);
        let steps_aside_at = STEP_ASIDE_AFTER_CHECKS * period;
        // T = 0: within capacity a wait of any length stays in the queue.
        let mut p = LoadControlPolicy::new(&lc);
        for i in 1..=4 * steps_aside_at {
            assert_eq!(p.on_spin(i), SpinDecision::Continue);
        }
        p.on_acquired(4 * steps_aside_at);

        // T = 1 with the one slot taken by another sleeper.
        lc.set_sleep_target(1);
        let other = lc.buffer().register_sleeper(Arc::new(Parker::new()));
        let ClaimOutcome::Claimed(idx) = lc.buffer().try_claim(other) else {
            panic!("the other sleeper found no slot");
        };
        let mut p = LoadControlPolicy::new(&lc);
        for i in 1..steps_aside_at {
            assert_eq!(p.on_spin(i), SpinDecision::Continue);
        }
        assert_eq!(p.on_spin(steps_aside_at), SpinDecision::Abort);
        // One timed-out park of the step-aside's length on this thread's
        // own parker, and no sleep.
        let parker = Arc::clone(current_ctx(&lc).parker());
        let (parks, timeouts) = (parker.park_count(), parker.timeout_count());
        let start = Instant::now();
        p.on_aborted();
        assert!(start.elapsed() >= STEP_ASIDE_PARK);
        assert_eq!(parker.park_count() - parks, 1);
        assert_eq!(parker.timeout_count() - timeouts, 1);
        assert_eq!(p.sleeps_this_acquire, 0);
        p.on_acquired(steps_aside_at);
        lc.buffer().leave(idx, other);
        assert_eq!(lc.sleepers(), 0);
    }

    #[test]
    fn gate_claims_parks_and_balances_the_buffer() {
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        let period = u64::from(lc.config().slot_check_period);
        // Off-period iterations never touch the buffer.
        assert!(!gate.check(period + 1));
        assert!(gate.check(period));
        assert!(gate.has_claim());
        assert_eq!(lc.sleepers(), 1);

        // Clear the claim from another thread shortly after we park.
        let lc2 = Arc::clone(&lc);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            lc2.set_sleep_target(0);
        });
        assert!(gate.park());
        waker.join().unwrap();
        assert_eq!(gate.sleeps(), 1);
        assert!(!gate.has_claim());
        assert_eq!(lc.sleepers(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
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
        assert_eq!(gate.sleeps(), 0);
        // park without a claim is a no-op.
        assert!(!gate.park());
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
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1).with_shards(4),
            Box::new(FixedPolicy::manual()),
        );
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
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(60)),
            Box::new(FixedPolicy::manual()),
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
    fn unpark_after_claim_is_not_eaten_by_the_drain() {
        // The drain runs *before* the claim is published, so a directed wake
        // that lands after `try_claim` (the notify_one handoff path) must
        // still cut the park short.
        use std::sync::atomic::{AtomicBool, Ordering};
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_secs(5)),
            Box::new(FixedPolicy::manual()),
        );
        lc.set_sleep_target(1);
        let mut gate = LoadGate::new(&lc);
        assert!(gate.try_claim());
        let keep = Arc::new(AtomicBool::new(true));
        let parker = Arc::clone(current_ctx(&lc).parker());
        let keep2 = Arc::clone(&keep);
        let notifier = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            keep2.store(false, Ordering::SeqCst);
            parker.unpark();
        });
        let start = Instant::now();
        assert!(gate.park_while(|| keep.load(Ordering::SeqCst)));
        notifier.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "a wake aimed at the live episode was lost"
        );
        assert_eq!(lc.sleepers(), 0);
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
    fn combining_refuses_claims_and_exempts_the_sleeper() {
        use lc_locks::{DelegationLock, FlatCombiningLock, RawLock};
        let lc = test_control(1);
        lc.set_sleep_target(1);
        let sleeper = current_ctx(&lc).sleeper;
        let lock = <FlatCombiningLock as RawLock>::new();
        let lc2 = Arc::clone(&lc);
        let period = u64::from(lc.config().slot_check_period);
        let mut observed = (false, false, true, true);
        lock.run_locked(|| {
            observed.0 = delegation::is_combining();
            observed.1 = lc2.buffer().is_exempt(sleeper);
            let mut gate = LoadGate::new(&lc2);
            observed.2 = gate.try_claim();
            let mut p = LoadControlPolicy::new(&lc2);
            observed.3 = (1..=2 * STEP_ASIDE_AFTER_CHECKS * period)
                .any(|i| p.on_spin(i) == SpinDecision::Abort);
        });
        assert!(observed.0, "direct run_locked must combine");
        assert!(observed.1, "combiner was not exempt from the wake scan");
        assert!(!observed.2, "combiner claimed a sleep slot");
        assert!(!observed.3, "combiner stepped aside");
        assert!(
            !lc.buffer().is_exempt(sleeper),
            "exemption must be cleared when combining ends"
        );
        assert_eq!(lc.combiner_exempt_ids(), Vec::<u64>::new());
    }
}
