//! Delegation locks: waiters publish critical sections, a combiner runs them.
//!
//! Every other family in this crate makes waiters *wait* — spin, yield or
//! park until the lock is free, then execute their own critical section.
//! Delegation inverts that: a waiter *publishes* its critical section as a
//! request record, and whichever thread currently owns the lock (the
//! **combiner**) executes batches of published requests on their owners'
//! behalf.  The shared data stays hot in one cache, and waiters never touch
//! it.  Two classic designs are implemented:
//!
//! * [`FlatCombiningLock`] — a fixed publication array that the combiner
//!   scans ([Hendler, Incze, Shavit, Tzafrir, SPAA'10]).  Simple, great under
//!   bursty contention, `scan_budget` bounds how many passes one combiner
//!   performs.
//! * [`CcSynchLock`] — a per-request node queue in arrival order
//!   ([Fatourou & Kallimanis, PPoPP'12]).  FIFO execution of requests,
//!   `max_combine` bounds how many requests one combiner executes.
//!
//! Both expose the delegated path through [`DelegationLock::run_locked`] and
//! *also* implement the crate-wide [`RawLock`]/[`RawTryLock`]/
//! [`AbortableLock`] contract, so they slot into [`crate::registry::DynMutex`],
//! the benchmark drivers, and — crucially — load control: **abort =
//! atomically withdrawing an unexecuted published request**, so
//! `LoadGate`/`LoadControlPolicy` in `lc-core` work unchanged on top.
//!
//! ## Combiner election and load control
//!
//! The combiner is exactly the thread the load controller must never put to
//! sleep: parking it stalls every published request behind it (the
//! scheduler-subversion effect, see ROADMAP).  [`CombinerStrategy`] decides
//! *which* waiter may elect itself combiner:
//!
//! * `first` — whoever wins the flag CAS combines (classic behaviour);
//! * `window` — self-elect only once enough requests are pending (window
//!   greedy scheduling), with a spin-count escape hatch for liveness;
//! * `load-aware` — consult the per-thread [`CombinerObserver`] installed by
//!   the load-control runtime: a thread that currently holds a sleep slot (or
//!   is about to be targeted) refuses the combiner role, and the observer is
//!   told when combining starts/stops so the controller's wake scan can
//!   exempt the active combiner.
//!
//! Strategies parse from the shared spec grammar via [`COMBINER_SPECS`]
//! (`combiner(strategy=window, window=8)`), and both lock families accept the
//! same `strategy`/`window` keys in their own specs
//! (`flat-combining(scan_budget=4, strategy=load-aware)`).
//!
//! ## Constraints
//!
//! Delegated closures run on *another* thread's stack frame, so
//! [`DelegationLock::run_locked`] requires `F: Send` and `R: Send`.  Delegated
//! closures must not panic: an unwind through a combiner would strand every
//! publisher behind it.

use crate::raw::{AbortableLock, NeverAbort, RawLock, RawTryLock, SpinDecision, SpinPolicy};
use lc_spec::{ParsedSpec, Registry, SpecEntry, SpecError};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared `Debug` body for the two delegation locks (they expose the same
/// diagnostic fields).
macro_rules! fmt_delegation_debug {
    ($name:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct($name)
                .field("locked", &self.is_locked())
                .field("pending", &self.pending_now())
                .field("strategy", &self.strategy)
                .finish_non_exhaustive()
        }
    };
}

// ---------------------------------------------------------------------------
// Request states
// ---------------------------------------------------------------------------

/// Publication-slot / queue-node states.  A request record moves
/// `FREE → CLAIMED → PENDING_* → (TAKEN → DONE | GRANTED | withdrawn)`.
const FREE: u32 = 0;
/// Slot won by a publisher, record not yet visible (flat combining only).
const CLAIMED: u32 = 1;
/// A published critical section awaiting a combiner.
const PENDING_JOB: u32 = 2;
/// A published request for plain lock ownership (the `lock()` path).
const PENDING_GRANT: u32 = 3;
/// A combiner is executing this request right now.
const TAKEN: u32 = 4;
/// The combiner finished executing the request.
const DONE: u32 = 5;
/// Lock ownership was handed to this waiter without a release in between.
const GRANTED: u32 = 6;
/// The publisher withdrew the request (CCSynch: node stays chained for the
/// combiner to reclaim; flat combining reuses the slot directly).
const WITHDRAWN: u32 = 7;
/// A CCSynch node that is the queue tail placeholder (nothing published yet).
const INIT: u32 = 8;

// ---------------------------------------------------------------------------
// Type-erased published critical sections
// ---------------------------------------------------------------------------

/// A type-erased published critical section.
///
/// Points into the publishing thread's stack frame ([`JobSlot`]); valid
/// because the publisher blocks until the job is `DONE` (or runs it itself,
/// or withdraws it unexecuted).
#[derive(Clone, Copy)]
struct ErasedJob {
    run: unsafe fn(*mut ()),
    data: *mut (),
}

/// Stack-resident closure + result cell behind an [`ErasedJob`].
struct JobSlot<F, R> {
    f: Option<F>,
    out: Option<R>,
}

/// Runs the closure in a [`JobSlot`] and stores its result.
///
/// # Safety
///
/// `data` must point to a live `JobSlot<F, R>` whose closure has not run yet,
/// and the caller must hold exclusive access to it (guaranteed by the
/// `PENDING_JOB → TAKEN` transition).
unsafe fn run_erased<F: FnOnce() -> R, R>(data: *mut ()) {
    let slot = &mut *(data as *mut JobSlot<F, R>);
    let f = slot.f.take().expect("delegated job ran twice");
    slot.out = Some(f());
}

/// Builds an [`ErasedJob`] over `f` on the current stack, hands it to `run`
/// (which must guarantee the job executes exactly once before returning), and
/// returns the result.
fn with_erased_job<R, F, G>(f: F, run: G) -> R
where
    F: FnOnce() -> R,
    G: FnOnce(ErasedJob),
{
    let mut slot = JobSlot {
        f: Some(f),
        out: None,
    };
    let job = ErasedJob {
        run: run_erased::<F, R>,
        data: &mut slot as *mut JobSlot<F, R> as *mut (),
    };
    run(job);
    slot.out.take().expect("delegated job did not run")
}

// ---------------------------------------------------------------------------
// Combiner election strategies
// ---------------------------------------------------------------------------

/// Default pending-request window for [`CombinerStrategy::Window`].
pub const DEFAULT_WINDOW: u32 = 4;

/// Spin count after which a `window` waiter elects itself regardless of the
/// pending count (liveness escape: without it, a lone waiter below the window
/// would poll forever).
const WINDOW_ESCAPE_SPINS: u64 = 4096;

/// Names of the combiner-election strategies, in a stable order (mirrors the
/// `strategy=` values accepted by [`COMBINER_SPECS`]).
pub const ALL_COMBINER_STRATEGY_NAMES: &[&str] = &["first", "window", "load-aware"];

/// Decides which waiter may elect itself combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombinerStrategy {
    /// Whoever wins the lock-flag CAS combines (classic flat combining).
    #[default]
    First,
    /// Self-elect only once at least `window` requests are pending, so each
    /// combining pass amortizes over a batch (window greedy scheduling).
    Window {
        /// Minimum pending requests before a waiter self-elects.
        window: u32,
    },
    /// Consult the installed [`CombinerObserver`]: a thread the load
    /// controller has targeted for sleep refuses the combiner role.
    LoadAware,
}

impl CombinerStrategy {
    /// Whether a waiter that has spun `spins` times with `pending` published
    /// requests outstanding may elect itself combiner.
    pub fn may_elect(&self, spins: u64, pending: usize) -> bool {
        match self {
            CombinerStrategy::First => true,
            CombinerStrategy::Window { window } => {
                pending >= *window as usize || spins >= WINDOW_ESCAPE_SPINS
            }
            CombinerStrategy::LoadAware => thread_may_self_elect(),
        }
    }

    /// The strategy's stable name (the `strategy=` spec value).
    pub fn name(&self) -> &'static str {
        match self {
            CombinerStrategy::First => "first",
            CombinerStrategy::Window { .. } => "window",
            CombinerStrategy::LoadAware => "load-aware",
        }
    }

    /// The canonical spec of this strategy in the shared `name(key=value)`
    /// grammar; feeding it back to [`COMBINER_SPECS`] reconstructs it.
    pub fn spec(&self) -> ParsedSpec {
        let spec = ParsedSpec::bare("combiner");
        match self {
            CombinerStrategy::First => spec,
            CombinerStrategy::Window { window } => {
                let spec = spec.with_param("strategy", "window");
                if *window == DEFAULT_WINDOW {
                    spec
                } else {
                    spec.with_param("window", *window)
                }
            }
            CombinerStrategy::LoadAware => spec.with_param("strategy", "load-aware"),
        }
    }
}

/// Reads the shared `strategy` / `window` keys out of `spec` (either a
/// `combiner(...)` spec or a lock spec that embeds them).
fn strategy_from_params(spec: &ParsedSpec) -> Result<CombinerStrategy, SpecError> {
    let strategy = match spec.get("strategy") {
        None => {
            if spec.get("window").is_some() {
                return Err(spec.invalid_value("window", "only valid with strategy=window"));
            }
            return Ok(CombinerStrategy::First);
        }
        Some(name) => name,
    };
    match strategy {
        "first" | "window" | "load-aware" => {}
        _ => {
            return Err(spec.invalid_value("strategy", "must be one of: first, window, load-aware"))
        }
    }
    if strategy != "window" && spec.get("window").is_some() {
        return Err(spec.invalid_value("window", "only valid with strategy=window"));
    }
    Ok(match strategy {
        "first" => CombinerStrategy::First,
        "window" => {
            let window = spec.param_or("window", DEFAULT_WINDOW)?;
            if window == 0 {
                return Err(spec.invalid_value("window", "must be at least 1"));
            }
            CombinerStrategy::Window { window }
        }
        _ => CombinerStrategy::LoadAware,
    })
}

/// Appends the non-default `strategy` / `window` parameters of `strategy` to
/// a lock's canonical spec (shared between the lock builders).
fn append_strategy_params(spec: ParsedSpec, strategy: &CombinerStrategy) -> ParsedSpec {
    match strategy {
        CombinerStrategy::First => spec,
        CombinerStrategy::Window { window } => {
            let spec = spec.with_param("strategy", "window");
            if *window == DEFAULT_WINDOW {
                spec
            } else {
                spec.with_param("window", *window)
            }
        }
        CombinerStrategy::LoadAware => spec.with_param("strategy", "load-aware"),
    }
}

/// Reads a [`CombinerStrategy`] from a *lock* spec that embeds the shared
/// `strategy` / `window` keys (e.g. `flat-combining(strategy=load-aware)`).
pub fn strategy_from_lock_spec(spec: &ParsedSpec) -> Result<CombinerStrategy, SpecError> {
    strategy_from_params(spec)
}

/// The combiner-election strategy plane, in the shared spec grammar.
///
/// ```
/// use lc_locks::delegation::{build_combiner_spec, CombinerStrategy};
///
/// assert_eq!(build_combiner_spec("combiner").unwrap(), CombinerStrategy::First);
/// let w = build_combiner_spec("combiner(strategy=window, window=8)").unwrap();
/// assert_eq!(w, CombinerStrategy::Window { window: 8 });
/// assert_eq!(w.spec().to_string(), "combiner(strategy=window, window=8)");
/// assert!(build_combiner_spec("combiner(strategy=bogus)").is_err());
/// ```
pub static COMBINER_SPECS: Registry<CombinerStrategy> = Registry::new(
    "combiner",
    &[SpecEntry {
        name: "combiner",
        keys: &["strategy", "window"],
        summary:
            "combiner election: first | window (batch threshold) | load-aware (sleep-book veto)",
        build: |_, spec| strategy_from_params(spec),
    }],
);

/// Constructs the [`CombinerStrategy`] described by `spec`
/// (`combiner(strategy=..., window=...)` or bare `combiner`).
pub fn build_combiner_spec(spec: &str) -> Result<CombinerStrategy, SpecError> {
    COMBINER_SPECS.build(spec)
}

// ---------------------------------------------------------------------------
// Per-thread combiner observer (the load-control hook)
// ---------------------------------------------------------------------------

/// Per-thread hook connecting combiner election to the load-control runtime.
///
/// `lc-core` installs one observer per registered worker thread:
/// [`CombinerObserver::may_self_elect`] consults the sleep books (a thread
/// holding a sleep-slot claim refuses the combiner role), and
/// [`CombinerObserver::combining_changed`] marks the thread exempt from the
/// controller's wake scan while it combines.
///
/// Callbacks run inside the delegation hot path and must not call
/// [`install_combiner_observer`] / [`clear_combiner_observer`] re-entrantly.
pub trait CombinerObserver {
    /// Called when this thread starts (`active = true`) or stops
    /// (`active = false`) acting as a combiner.  Transitions are counted per
    /// thread, so nested combining sections fire only the outermost pair.
    fn combining_changed(&self, active: bool) {
        let _ = active;
    }

    /// Whether this thread may currently elect itself combiner (used by
    /// [`CombinerStrategy::LoadAware`]).  Default: always.
    fn may_self_elect(&self) -> bool {
        true
    }
}

/// Per-thread tallies of combining work, for fairness accounting in drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombineTally {
    /// Combining passes this thread performed (times it became combiner).
    pub passes: u64,
    /// Delegated jobs this thread executed on behalf of other threads.
    pub jobs: u64,
}

thread_local! {
    static OBSERVER: RefCell<Option<Box<dyn CombinerObserver>>> = const { RefCell::new(None) };
    static COMBINING_DEPTH: Cell<u32> = const { Cell::new(0) };
    static TALLY: Cell<CombineTally> = const { Cell::new(CombineTally { passes: 0, jobs: 0 }) };
    static SLOT_HINT: Cell<usize> = const { Cell::new(0) };
}

/// Installs `observer` as the current thread's combiner observer, replacing
/// any previous one.
pub fn install_combiner_observer(observer: Box<dyn CombinerObserver>) {
    OBSERVER.with(|cell| *cell.borrow_mut() = Some(observer));
}

/// Removes the current thread's combiner observer, if any.
pub fn clear_combiner_observer() {
    OBSERVER.with(|cell| *cell.borrow_mut() = None);
}

/// Whether the current thread is acting as a combiner right now.
pub fn is_combining() -> bool {
    COMBINING_DEPTH.with(|depth| depth.get() > 0)
}

/// Whether the current thread's observer permits self-election (`true` when
/// no observer is installed).
pub fn thread_may_self_elect() -> bool {
    OBSERVER.with(|cell| {
        cell.borrow()
            .as_ref()
            .is_none_or(|observer| observer.may_self_elect())
    })
}

/// The current thread's combining tallies since the last
/// [`take_thread_combine_tally`].
pub fn thread_combine_tally() -> CombineTally {
    TALLY.with(|tally| tally.get())
}

/// Returns and resets the current thread's combining tallies.
pub fn take_thread_combine_tally() -> CombineTally {
    TALLY.with(|tally| tally.replace(CombineTally::default()))
}

fn notify_combining(active: bool) {
    OBSERVER.with(|cell| {
        if let Some(observer) = cell.borrow().as_ref() {
            observer.combining_changed(active);
        }
    });
}

fn tally_job() {
    TALLY.with(|tally| {
        let mut t = tally.get();
        t.jobs += 1;
        tally.set(t);
    });
}

/// RAII marker for "this thread is the combiner": maintains the per-thread
/// depth, fires [`CombinerObserver::combining_changed`] on the outermost
/// enter/exit, and counts a combining pass.
struct CombineGuard;

impl CombineGuard {
    fn enter() -> Self {
        COMBINING_DEPTH.with(|depth| {
            let d = depth.get();
            depth.set(d + 1);
            if d == 0 {
                notify_combining(true);
            }
        });
        TALLY.with(|tally| {
            let mut t = tally.get();
            t.passes += 1;
            tally.set(t);
        });
        CombineGuard
    }
}

impl Drop for CombineGuard {
    fn drop(&mut self) {
        COMBINING_DEPTH.with(|depth| {
            let d = depth.get();
            depth.set(d - 1);
            if d == 1 {
                notify_combining(false);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Delegation statistics
// ---------------------------------------------------------------------------

/// Aggregate delegation counters for one lock instance (relaxed atomics).
#[derive(Debug, Default)]
struct DelegationStats {
    combines: AtomicU64,
    combined_jobs: AtomicU64,
    grants: AtomicU64,
    withdrawals: AtomicU64,
    direct: AtomicU64,
}

/// A point-in-time copy of a delegation lock's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelegationStatsSnapshot {
    /// Combining passes performed (a thread took the combiner role once).
    pub combines: u64,
    /// Published jobs executed by a combiner on the publisher's behalf.
    pub combined_jobs: u64,
    /// Lock-ownership handoffs to `lock()`-path waiters without a release.
    pub grants: u64,
    /// Published requests withdrawn by an aborting publisher.
    pub withdrawals: u64,
    /// Jobs the publishing thread ran itself (uncontended or self-elected).
    pub direct: u64,
}

impl DelegationStats {
    fn record_combine(&self, jobs: u64) {
        self.combines.fetch_add(1, Ordering::Relaxed);
        if jobs > 0 {
            self.combined_jobs.fetch_add(jobs, Ordering::Relaxed);
        }
    }

    fn record_grant(&self) {
        self.grants.fetch_add(1, Ordering::Relaxed);
    }

    fn record_withdrawal(&self) {
        self.withdrawals.fetch_add(1, Ordering::Relaxed);
    }

    fn record_direct(&self) {
        self.direct.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> DelegationStatsSnapshot {
        DelegationStatsSnapshot {
            combines: self.combines.load(Ordering::Relaxed),
            combined_jobs: self.combined_jobs.load(Ordering::Relaxed),
            grants: self.grants.load(Ordering::Relaxed),
            withdrawals: self.withdrawals.load(Ordering::Relaxed),
            direct: self.direct.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The DelegationLock trait
// ---------------------------------------------------------------------------

/// A lock whose critical sections can be *delegated*: published as request
/// records and executed by the current combiner.
///
/// Also implements the full [`AbortableLock`] contract, where aborting a wait
/// atomically withdraws the unexecuted published request — which is what lets
/// `LoadGate`-style policies park delegation waiters exactly like spin
/// waiters.
pub trait DelegationLock: AbortableLock + RawTryLock {
    /// Executes `f` under the lock, consulting `policy` while waiting.
    ///
    /// `f` may run on another thread (the combiner), hence `Send` on both the
    /// closure and its result.  `f` must not panic.
    fn run_locked_with<R, F, P>(&self, policy: &mut P, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
        P: SpinPolicy + ?Sized;

    /// Executes `f` under the lock ([`run_locked_with`] with a non-aborting
    /// policy).
    ///
    /// [`run_locked_with`]: DelegationLock::run_locked_with
    fn run_locked<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.run_locked_with(&mut NeverAbort, f)
    }

    /// Number of currently published, unexecuted requests (racy; feeds the
    /// `window` election strategy and diagnostics).
    fn pending_requests(&self) -> usize;

    /// Snapshot of the lock's delegation counters.
    fn delegation_stats(&self) -> DelegationStatsSnapshot;
}

// ---------------------------------------------------------------------------
// Flat combining
// ---------------------------------------------------------------------------

/// Number of publication slots; publishers that find every slot taken retry
/// as a spin iteration, so this bounds concurrency, not correctness.
const FC_SLOTS: usize = 64;

/// One publication record in the flat-combining array.
struct PubRecord {
    state: AtomicU32,
    /// Owned by whoever last moved `state` out of `FREE` (the claimer, from
    /// `CLAIMED` until it publishes) or out of `PENDING_JOB` into `TAKEN`
    /// (the combiner).  A thread that stores or CASes `state` to `FREE` gives
    /// the cell up with that write and must not touch it afterwards: the next
    /// claimer may already be writing its own job.  A stale job left in a
    /// `FREE` slot is harmless — `claim_slot` overwrites the cell before it
    /// publishes `PENDING_JOB`, and `ErasedJob` has no destructor.
    job: UnsafeCell<Option<ErasedJob>>,
}

/// A flat-combining delegation lock: a publication array scanned by the
/// current combiner.
///
/// The exclusive flag doubles as the plain mutex for the
/// [`RawLock`]/[`RawTryLock`] surface; combining happens only while holding
/// it, so delegated jobs and `lock()`-path critical sections are mutually
/// exclusive.
///
/// ```
/// use lc_locks::delegation::{DelegationLock, FlatCombiningLock};
/// use lc_locks::RawLock;
///
/// let lock = <FlatCombiningLock as RawLock>::new();
/// let answer = lock.run_locked(|| 42);
/// assert_eq!(answer, 42);
/// ```
pub struct FlatCombiningLock {
    flag: AtomicBool,
    slots: Box<[PubRecord]>,
    scan_budget: u32,
    strategy: CombinerStrategy,
    pending: AtomicU32,
    stats: DelegationStats,
}

unsafe impl Send for FlatCombiningLock {}
unsafe impl Sync for FlatCombiningLock {}

/// Default number of scan passes one flat-combining pass performs.
pub const DEFAULT_SCAN_BUDGET: u32 = 2;

impl FlatCombiningLock {
    /// Creates a lock with the given scan budget (passes per combining
    /// session) and election strategy.
    pub fn with_config(scan_budget: u32, strategy: CombinerStrategy) -> Self {
        assert!(scan_budget >= 1, "scan_budget must be at least 1");
        let slots = (0..FC_SLOTS)
            .map(|_| PubRecord {
                state: AtomicU32::new(FREE),
                job: UnsafeCell::new(None),
            })
            .collect();
        Self {
            flag: AtomicBool::new(false),
            slots,
            scan_budget,
            strategy,
            pending: AtomicU32::new(0),
            stats: DelegationStats::default(),
        }
    }

    /// The configured election strategy.
    pub fn strategy(&self) -> CombinerStrategy {
        self.strategy
    }

    /// The configured scan budget.
    pub fn scan_budget(&self) -> u32 {
        self.scan_budget
    }

    #[inline]
    fn try_lock_flag(&self) -> bool {
        self.flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn pending_now(&self) -> usize {
        self.pending.load(Ordering::Relaxed) as usize
    }

    /// Claims a free slot and publishes `kind` (+ job for `PENDING_JOB`).
    /// Returns the slot index, or `None` when every slot is taken.
    fn claim_slot(&self, kind: u32, job: Option<ErasedJob>) -> Option<usize> {
        let start = SLOT_HINT.with(|hint| hint.get()) % FC_SLOTS;
        for offset in 0..FC_SLOTS {
            let idx = (start + offset) % FC_SLOTS;
            let slot = &self.slots[idx];
            if slot.state.load(Ordering::Relaxed) == FREE
                && slot
                    .state
                    .compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                if kind == PENDING_JOB {
                    unsafe { *slot.job.get() = job };
                }
                slot.state.store(kind, Ordering::Release);
                self.pending.fetch_add(1, Ordering::Relaxed);
                SLOT_HINT.with(|hint| hint.set(idx));
                return Some(idx);
            }
        }
        None
    }

    /// Runs up to `scan_budget` passes over the publication array, executing
    /// every published job found.  Caller must hold the flag.
    fn scan_jobs(&self) {
        let mut jobs_run = 0u64;
        for _ in 0..self.scan_budget {
            let mut progress = false;
            for slot in self.slots.iter() {
                if slot.state.load(Ordering::Acquire) == PENDING_JOB
                    && slot
                        .state
                        .compare_exchange(PENDING_JOB, TAKEN, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    let job = unsafe { (*slot.job.get()).take() }.expect("published job missing");
                    self.pending.fetch_sub(1, Ordering::Relaxed);
                    unsafe { (job.run)(job.data) };
                    slot.state.store(DONE, Ordering::Release);
                    jobs_run += 1;
                    tally_job();
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        self.stats.record_combine(jobs_run);
    }

    /// Hands the flag to a `lock()`-path waiter if one is published,
    /// otherwise releases it.  Caller must hold the flag.
    fn grant_or_release(&self) {
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::Acquire) == PENDING_GRANT
                && slot
                    .state
                    .compare_exchange(PENDING_GRANT, GRANTED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                self.stats.record_grant();
                // Ownership transferred: the flag stays set.
                return;
            }
        }
        self.flag.store(false, Ordering::Release);
    }

    /// The delegated execution path behind `run_locked_with`, monomorphic
    /// over [`ErasedJob`] to keep code size down.
    fn run_job_with(&self, policy: &mut dyn SpinPolicy, job: ErasedJob) {
        let mut spins = 0u64;
        'restart: loop {
            // Direct path: the flag is free, run the job in place.
            if self.try_lock_flag() {
                self.stats.record_direct();
                if self.strategy.may_elect(spins, self.pending_now()) {
                    let _guard = CombineGuard::enter();
                    unsafe { (job.run)(job.data) };
                    self.scan_jobs();
                    self.grant_or_release();
                } else {
                    unsafe { (job.run)(job.data) };
                    self.grant_or_release();
                }
                policy.on_acquired(spins);
                return;
            }

            // Publish and poll.
            let Some(idx) = self.claim_slot(PENDING_JOB, Some(job)) else {
                spins += 1;
                if policy.on_spin(spins) == SpinDecision::Abort {
                    // Nothing published, nothing to withdraw.
                    policy.on_aborted();
                }
                std::hint::spin_loop();
                continue 'restart;
            };
            let slot = &self.slots[idx];
            loop {
                match slot.state.load(Ordering::Acquire) {
                    DONE => {
                        slot.state.store(FREE, Ordering::Release);
                        policy.on_acquired(spins);
                        return;
                    }
                    TAKEN => std::hint::spin_loop(),
                    PENDING_JOB => {
                        if self.strategy.may_elect(spins, self.pending_now())
                            && self.try_lock_flag()
                        {
                            let _guard = CombineGuard::enter();
                            // Reclaim our own request first: under the flag
                            // no combiner runs, so the slot is PENDING_JOB
                            // or already DONE (raced the previous combiner).
                            match slot.state.compare_exchange(
                                PENDING_JOB,
                                FREE,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => {
                                    self.pending.fetch_sub(1, Ordering::Relaxed);
                                    self.stats.record_direct();
                                    unsafe { (job.run)(job.data) };
                                }
                                Err(DONE) => slot.state.store(FREE, Ordering::Release),
                                Err(state) => {
                                    unreachable!("own slot in state {state} under the flag")
                                }
                            }
                            self.scan_jobs();
                            self.grant_or_release();
                            policy.on_acquired(spins);
                            return;
                        }
                        spins += 1;
                        if policy.on_spin(spins) == SpinDecision::Abort
                            && slot
                                .state
                                .compare_exchange(
                                    PENDING_JOB,
                                    FREE,
                                    Ordering::AcqRel,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            // Withdrawn before any combiner took it; if the CAS
                            // lost instead, a combiner won the race and the job
                            // will run.
                            self.pending.fetch_sub(1, Ordering::Relaxed);
                            self.stats.record_withdrawal();
                            policy.on_aborted();
                            continue 'restart;
                        }
                        std::hint::spin_loop();
                    }
                    state => unreachable!("published job slot in state {state}"),
                }
            }
        }
    }

    /// The plain-ownership acquire path behind `lock`/`lock_with`.
    fn acquire_with(&self, policy: &mut dyn SpinPolicy) {
        let mut spins = 0u64;
        'restart: loop {
            if self.try_lock_flag() {
                policy.on_acquired(spins);
                return;
            }
            let Some(idx) = self.claim_slot(PENDING_GRANT, None) else {
                spins += 1;
                if policy.on_spin(spins) == SpinDecision::Abort {
                    policy.on_aborted();
                }
                std::hint::spin_loop();
                continue 'restart;
            };
            let slot = &self.slots[idx];
            loop {
                match slot.state.load(Ordering::Acquire) {
                    GRANTED => {
                        // The granter left the flag set for us.
                        slot.state.store(FREE, Ordering::Release);
                        policy.on_acquired(spins);
                        return;
                    }
                    PENDING_GRANT => {
                        if self.try_lock_flag() {
                            // Barged in; withdraw the grant request.  Grants
                            // only happen while the flag is held, and we just
                            // took it from free, so the CAS cannot lose.
                            match slot.state.compare_exchange(
                                PENDING_GRANT,
                                FREE,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => {
                                    self.pending.fetch_sub(1, Ordering::Relaxed);
                                }
                                Err(state) => {
                                    unreachable!("grant raced a successful try_lock ({state})")
                                }
                            }
                            if self.strategy.may_elect(spins, self.pending_now()) {
                                let _guard = CombineGuard::enter();
                                self.scan_jobs();
                            }
                            policy.on_acquired(spins);
                            return;
                        }
                        spins += 1;
                        if policy.on_spin(spins) == SpinDecision::Abort {
                            if slot
                                .state
                                .compare_exchange(
                                    PENDING_GRANT,
                                    FREE,
                                    Ordering::AcqRel,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                self.pending.fetch_sub(1, Ordering::Relaxed);
                                self.stats.record_withdrawal();
                                policy.on_aborted();
                                continue 'restart;
                            }
                            // Granted between the load and the CAS: acquired.
                            slot.state.store(FREE, Ordering::Release);
                            policy.on_acquired(spins);
                            return;
                        }
                        std::hint::spin_loop();
                    }
                    state => unreachable!("grant slot in state {state}"),
                }
            }
        }
    }
}

unsafe impl RawLock for FlatCombiningLock {
    fn new() -> Self {
        Self::with_config(DEFAULT_SCAN_BUDGET, CombinerStrategy::default())
    }

    fn lock(&self) {
        self.acquire_with(&mut NeverAbort);
    }

    unsafe fn unlock(&self) {
        self.flag.store(false, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn name(&self) -> &'static str {
        "flat-combining"
    }
}

unsafe impl RawTryLock for FlatCombiningLock {
    fn try_lock(&self) -> bool {
        self.try_lock_flag()
    }
}

unsafe impl AbortableLock for FlatCombiningLock {
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        self.acquire_with(&mut &mut *policy);
    }
}

impl DelegationLock for FlatCombiningLock {
    fn run_locked_with<R, F, P>(&self, policy: &mut P, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
        P: SpinPolicy + ?Sized,
    {
        with_erased_job(f, |job| self.run_job_with(&mut &mut *policy, job))
    }

    fn pending_requests(&self) -> usize {
        self.pending_now()
    }

    fn delegation_stats(&self) -> DelegationStatsSnapshot {
        self.stats.snapshot()
    }
}

impl fmt::Debug for FlatCombiningLock {
    fmt_delegation_debug!("FlatCombiningLock");
}

// ---------------------------------------------------------------------------
// CCSynch
// ---------------------------------------------------------------------------

/// One request node in the CCSynch queue.
struct CcNode {
    state: AtomicU32,
    job: UnsafeCell<Option<ErasedJob>>,
    next: AtomicPtr<CcNode>,
}

// SAFETY: nodes are shared between the publisher and the combiner, but every
// access to `job` is serialized by the `state` machine (a publisher writes it
// before the PENDING_JOB release-store; the combiner reads it only after the
// TAKEN acquire-CAS), and `state`/`next` are atomics.
unsafe impl Send for CcNode {}
unsafe impl Sync for CcNode {}

impl CcNode {
    fn new_init() -> *mut CcNode {
        Arc::into_raw(Arc::new(CcNode {
            state: AtomicU32::new(INIT),
            job: UnsafeCell::new(None),
            next: AtomicPtr::new(std::ptr::null_mut()),
        })) as *mut CcNode
    }
}

/// Default per-combining-session request cap for [`CcSynchLock`].
pub const DEFAULT_MAX_COMBINE: u32 = 64;

/// A CCSynch delegation lock: requests queue in arrival order and the
/// combiner walks the queue, executing up to `max_combine` of them.
///
/// Node lifetime uses a two-reference [`Arc`] scheme: every node holds one
/// *chain* reference (owned by the queue links, dropped by the combiner as it
/// walks past) and one *observer* reference (minted by the publisher when it
/// enqueues, dropped when it stops polling) — so neither side can free a node
/// the other still reads.  Withdrawn nodes stay chained until a later
/// combiner reclaims them (or the lock is dropped).
///
/// ```
/// use lc_locks::delegation::{CcSynchLock, DelegationLock};
/// use lc_locks::RawLock;
///
/// let lock = <CcSynchLock as RawLock>::new();
/// assert_eq!(lock.run_locked(|| 7), 7);
/// ```
pub struct CcSynchLock {
    flag: AtomicBool,
    tail: AtomicPtr<CcNode>,
    /// Next unexecuted node; only the flag holder dereferences it.
    cursor: UnsafeCell<*mut CcNode>,
    max_combine: u32,
    strategy: CombinerStrategy,
    pending: AtomicU32,
    stats: DelegationStats,
}

unsafe impl Send for CcSynchLock {}
unsafe impl Sync for CcSynchLock {}

impl CcSynchLock {
    /// Creates a lock with the given combining cap and election strategy.
    pub fn with_config(max_combine: u32, strategy: CombinerStrategy) -> Self {
        assert!(max_combine >= 1, "max_combine must be at least 1");
        let dummy = CcNode::new_init();
        Self {
            flag: AtomicBool::new(false),
            tail: AtomicPtr::new(dummy),
            cursor: UnsafeCell::new(dummy),
            max_combine,
            strategy,
            pending: AtomicU32::new(0),
            stats: DelegationStats::default(),
        }
    }

    /// The configured election strategy.
    pub fn strategy(&self) -> CombinerStrategy {
        self.strategy
    }

    /// The configured combining cap.
    pub fn max_combine(&self) -> u32 {
        self.max_combine
    }

    #[inline]
    fn try_lock_flag(&self) -> bool {
        self.flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn pending_now(&self) -> usize {
        self.pending.load(Ordering::Relaxed) as usize
    }

    /// Enqueues a request of `kind` and returns the node to poll on.
    ///
    /// Swaps a fresh `INIT` node in as the new tail placeholder and publishes
    /// into the previous one (classic CCSynch).  The returned node carries an
    /// extra *observer* reference the caller must drop via
    /// [`Self::drop_observer_ref`] when it stops polling.
    fn publish(&self, kind: u32, job: Option<ErasedJob>) -> *mut CcNode {
        let fresh = CcNode::new_init();
        let prev = self.tail.swap(fresh, Ordering::AcqRel);
        unsafe {
            // `prev` is still INIT, so no combiner frees it before this.
            Arc::increment_strong_count(prev as *const CcNode);
            *(*prev).job.get() = job;
            (*prev).next.store(fresh, Ordering::Release);
            (*prev).state.store(kind, Ordering::Release);
        }
        self.pending.fetch_add(1, Ordering::Relaxed);
        prev
    }

    /// Drops the observer reference minted by [`Self::publish`].
    ///
    /// # Safety
    ///
    /// Must be called exactly once per published node, after the caller has
    /// stopped reading it.
    unsafe fn drop_observer_ref(node: *mut CcNode) {
        drop(Arc::from_raw(node as *const CcNode));
    }

    /// Walks the queue from the cursor, executing published jobs.
    ///
    /// With `keep_flag` the walk stops at the first grant request and the
    /// flag is retained by the caller; otherwise the first grant request (or
    /// queue exhaustion) ends the walk and the flag is transferred
    /// (respectively released).  Returns whether `own` was executed.  Caller
    /// must hold the flag.
    fn combine_holding_flag(&self, keep_flag: bool, own: *mut CcNode) -> bool {
        let mut own_done = false;
        let mut executed = 0u64;
        unsafe {
            let cursor = self.cursor.get();
            let mut cur = *cursor;
            loop {
                match (*cur).state.load(Ordering::Acquire) {
                    INIT => break,
                    WITHDRAWN => {
                        let next = (*cur).next.load(Ordering::Acquire);
                        drop(Arc::from_raw(cur as *const CcNode)); // chain ref
                        cur = next;
                    }
                    PENDING_JOB => {
                        if executed >= self.max_combine as u64 {
                            break;
                        }
                        if (*cur)
                            .state
                            .compare_exchange(
                                PENDING_JOB,
                                TAKEN,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            let job = (*(*cur).job.get()).take().expect("published job missing");
                            // Read the link before DONE: the publisher may
                            // drop its observer reference the moment it sees
                            // DONE, and ours goes with the chain ref below.
                            let next = (*cur).next.load(Ordering::Acquire);
                            self.pending.fetch_sub(1, Ordering::Relaxed);
                            (job.run)(job.data);
                            if cur == own {
                                own_done = true;
                            }
                            (*cur).state.store(DONE, Ordering::Release);
                            drop(Arc::from_raw(cur as *const CcNode)); // chain ref
                            executed += 1;
                            tally_job();
                            cur = next;
                        }
                        // CAS failure: withdrawn concurrently, re-examine.
                    }
                    PENDING_GRANT => {
                        if keep_flag {
                            break;
                        }
                        let next = (*cur).next.load(Ordering::Acquire);
                        let granted = (*cur)
                            .state
                            .compare_exchange(
                                PENDING_GRANT,
                                GRANTED,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok();
                        if granted {
                            self.pending.fetch_sub(1, Ordering::Relaxed);
                            self.stats.record_grant();
                        }
                        drop(Arc::from_raw(cur as *const CcNode)); // chain ref
                        *cursor = next;
                        if granted {
                            // Flag ownership transferred to the grantee.
                            self.stats.record_combine(executed);
                            return own_done;
                        }
                        cur = next;
                    }
                    state => unreachable!("queued request in state {state}"),
                }
            }
            *cursor = cur;
        }
        self.stats.record_combine(executed);
        if !keep_flag {
            self.flag.store(false, Ordering::Release);
        }
        own_done
    }

    /// The delegated execution path behind `run_locked_with`.
    fn run_job_with(&self, policy: &mut dyn SpinPolicy, job: ErasedJob) {
        let mut spins = 0u64;
        'restart: loop {
            // Direct path: nothing published yet, run in place.
            if self.try_lock_flag() {
                self.stats.record_direct();
                if self.strategy.may_elect(spins, self.pending_now()) {
                    let _guard = CombineGuard::enter();
                    unsafe { (job.run)(job.data) };
                    self.combine_holding_flag(false, std::ptr::null_mut());
                } else {
                    unsafe { (job.run)(job.data) };
                    self.flag.store(false, Ordering::Release);
                }
                policy.on_acquired(spins);
                return;
            }

            let own = self.publish(PENDING_JOB, Some(job));
            loop {
                match unsafe { (*own).state.load(Ordering::Acquire) } {
                    DONE => {
                        unsafe { Self::drop_observer_ref(own) };
                        policy.on_acquired(spins);
                        return;
                    }
                    TAKEN => std::hint::spin_loop(),
                    PENDING_JOB => {
                        if self.strategy.may_elect(spins, self.pending_now())
                            && self.try_lock_flag()
                        {
                            let _guard = CombineGuard::enter();
                            // Requests execute in queue order, so service the
                            // queue from the cursor; our own job runs when
                            // the walk reaches it (it may not, if the cap or
                            // a grant handoff ends the walk first).
                            if self.combine_holding_flag(false, own) {
                                unsafe { Self::drop_observer_ref(own) };
                                policy.on_acquired(spins);
                                return;
                            }
                            continue;
                        }
                        spins += 1;
                        if policy.on_spin(spins) == SpinDecision::Abort
                            && unsafe {
                                (*own)
                                    .state
                                    .compare_exchange(
                                        PENDING_JOB,
                                        WITHDRAWN,
                                        Ordering::AcqRel,
                                        Ordering::Relaxed,
                                    )
                                    .is_ok()
                            }
                        {
                            // Withdrawn before any combiner took it; if the CAS
                            // lost instead, a combiner won the race and the job
                            // will run.
                            self.pending.fetch_sub(1, Ordering::Relaxed);
                            self.stats.record_withdrawal();
                            unsafe { Self::drop_observer_ref(own) };
                            policy.on_aborted();
                            continue 'restart;
                        }
                        std::hint::spin_loop();
                    }
                    state => unreachable!("own job node in state {state}"),
                }
            }
        }
    }

    /// The plain-ownership acquire path behind `lock`/`lock_with`.
    fn acquire_with(&self, policy: &mut dyn SpinPolicy) {
        let mut spins = 0u64;
        'restart: loop {
            if self.try_lock_flag() {
                policy.on_acquired(spins);
                return;
            }
            let own = self.publish(PENDING_GRANT, None);
            loop {
                match unsafe { (*own).state.load(Ordering::Acquire) } {
                    GRANTED => {
                        unsafe { Self::drop_observer_ref(own) };
                        policy.on_acquired(spins);
                        return;
                    }
                    PENDING_GRANT => {
                        if self.try_lock_flag() {
                            // Barged in; withdraw the queued request (grants
                            // only happen while the flag is held, and we just
                            // took it from free, so the CAS cannot lose).
                            match unsafe {
                                (*own).state.compare_exchange(
                                    PENDING_GRANT,
                                    WITHDRAWN,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                            } {
                                Ok(_) => {
                                    self.pending.fetch_sub(1, Ordering::Relaxed);
                                }
                                Err(state) => {
                                    unreachable!("grant raced a successful try_lock ({state})")
                                }
                            }
                            unsafe { Self::drop_observer_ref(own) };
                            if self.strategy.may_elect(spins, self.pending_now()) {
                                let _guard = CombineGuard::enter();
                                self.combine_holding_flag(true, std::ptr::null_mut());
                            }
                            policy.on_acquired(spins);
                            return;
                        }
                        spins += 1;
                        if policy.on_spin(spins) == SpinDecision::Abort {
                            if unsafe {
                                (*own)
                                    .state
                                    .compare_exchange(
                                        PENDING_GRANT,
                                        WITHDRAWN,
                                        Ordering::AcqRel,
                                        Ordering::Relaxed,
                                    )
                                    .is_ok()
                            } {
                                self.pending.fetch_sub(1, Ordering::Relaxed);
                                self.stats.record_withdrawal();
                                unsafe { Self::drop_observer_ref(own) };
                                policy.on_aborted();
                                continue 'restart;
                            }
                            // Granted between the load and the CAS: acquired.
                            unsafe { Self::drop_observer_ref(own) };
                            policy.on_acquired(spins);
                            return;
                        }
                        std::hint::spin_loop();
                    }
                    state => unreachable!("own grant node in state {state}"),
                }
            }
        }
    }
}

impl Drop for CcSynchLock {
    fn drop(&mut self) {
        // Exclusive access: no publishers or combiners are in flight, so
        // every node from the cursor to the tail holds exactly its chain
        // reference (plus no observer references).
        let mut cur = unsafe { *self.cursor.get() };
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { drop(Arc::from_raw(cur as *const CcNode)) };
            cur = next;
        }
    }
}

unsafe impl RawLock for CcSynchLock {
    fn new() -> Self {
        Self::with_config(DEFAULT_MAX_COMBINE, CombinerStrategy::default())
    }

    fn lock(&self) {
        self.acquire_with(&mut NeverAbort);
    }

    unsafe fn unlock(&self) {
        self.flag.store(false, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn name(&self) -> &'static str {
        "ccsynch"
    }
}

unsafe impl RawTryLock for CcSynchLock {
    fn try_lock(&self) -> bool {
        self.try_lock_flag()
    }
}

unsafe impl AbortableLock for CcSynchLock {
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        self.acquire_with(&mut &mut *policy);
    }
}

impl DelegationLock for CcSynchLock {
    fn run_locked_with<R, F, P>(&self, policy: &mut P, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
        P: SpinPolicy + ?Sized,
    {
        with_erased_job(f, |job| self.run_job_with(&mut &mut *policy, job))
    }

    fn pending_requests(&self) -> usize {
        self.pending_now()
    }

    fn delegation_stats(&self) -> DelegationStatsSnapshot {
        self.stats.snapshot()
    }
}

impl fmt::Debug for CcSynchLock {
    fmt_delegation_debug!("CcSynchLock");
}

// ---------------------------------------------------------------------------
// Spec builders shared with the lock registry
// ---------------------------------------------------------------------------

/// Builds a [`FlatCombiningLock`] plus its canonical spec from a parsed
/// `flat-combining(scan_budget=..., strategy=..., window=...)` spec.
pub(crate) fn flat_combining_from_spec(
    spec: &ParsedSpec,
) -> Result<(FlatCombiningLock, ParsedSpec), SpecError> {
    let scan_budget = spec.param_or("scan_budget", DEFAULT_SCAN_BUDGET)?;
    if scan_budget == 0 {
        return Err(spec.invalid_value("scan_budget", "must be at least 1"));
    }
    if scan_budget > 1024 {
        return Err(spec.invalid_value("scan_budget", "must be at most 1024"));
    }
    let strategy = strategy_from_lock_spec(spec)?;
    let mut canonical = ParsedSpec::bare("flat-combining");
    if scan_budget != DEFAULT_SCAN_BUDGET {
        canonical = canonical.with_param("scan_budget", scan_budget);
    }
    canonical = append_strategy_params(canonical, &strategy);
    Ok((
        FlatCombiningLock::with_config(scan_budget, strategy),
        canonical,
    ))
}

/// Builds a [`CcSynchLock`] plus its canonical spec from a parsed
/// `ccsynch(max_combine=..., strategy=..., window=...)` spec.
pub(crate) fn ccsynch_from_spec(spec: &ParsedSpec) -> Result<(CcSynchLock, ParsedSpec), SpecError> {
    let max_combine = spec.param_or("max_combine", DEFAULT_MAX_COMBINE)?;
    if max_combine == 0 {
        return Err(spec.invalid_value("max_combine", "must be at least 1"));
    }
    if max_combine > 1 << 16 {
        return Err(spec.invalid_value("max_combine", "must be at most 65536"));
    }
    let strategy = strategy_from_lock_spec(spec)?;
    let mut canonical = ParsedSpec::bare("ccsynch");
    if max_combine != DEFAULT_MAX_COMBINE {
        canonical = canonical.with_param("max_combine", max_combine);
    }
    canonical = append_strategy_params(canonical, &strategy);
    Ok((CcSynchLock::with_config(max_combine, strategy), canonical))
}

// ---------------------------------------------------------------------------
// DelegationMutex: typed data + delegation lock
// ---------------------------------------------------------------------------

/// Wraps a `*mut T` so a delegated closure (which may run on the combiner's
/// thread) can capture it; safe because the closure runs under the lock.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}

/// A value protected by a [`DelegationLock`], accessed by *delegating*
/// closures over it.
///
/// The delegation counterpart of [`crate::Mutex`]: [`DelegationMutex::run_locked`]
/// publishes the closure for the combiner to execute (or runs it in place
/// when uncontended), and the guard API ([`DelegationMutex::lock`]) provides
/// the classic own-the-lock path for code that needs a reference across
/// statements.
///
/// ```
/// use lc_locks::delegation::{DelegationMutex, FlatCombiningLock};
/// use std::sync::Arc;
/// use std::thread;
///
/// let counter = Arc::new(DelegationMutex::<u64, FlatCombiningLock>::new(0));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let counter = Arc::clone(&counter);
///     handles.push(thread::spawn(move || {
///         for _ in 0..1000 {
///             counter.run_locked(|n| *n += 1);
///         }
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(counter.run_locked(|n| *n), 4000);
/// ```
pub struct DelegationMutex<T, L: DelegationLock = FlatCombiningLock> {
    raw: L,
    data: UnsafeCell<T>,
}

unsafe impl<T: Send, L: DelegationLock> Send for DelegationMutex<T, L> {}
unsafe impl<T: Send, L: DelegationLock> Sync for DelegationMutex<T, L> {}

impl<T, L: DelegationLock> DelegationMutex<T, L> {
    /// Wraps `value` behind a default-configured lock.
    pub fn new(value: T) -> Self {
        Self::with_lock(<L as RawLock>::new(), value)
    }

    /// Wraps `value` behind the given lock instance.
    pub fn with_lock(lock: L, value: T) -> Self {
        Self {
            raw: lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying delegation lock.
    pub fn raw(&self) -> &L {
        &self.raw
    }
}

impl<T: Send, L: DelegationLock> DelegationMutex<T, L> {
    /// Executes `f` over the protected value under the lock, possibly on the
    /// combiner's thread.  `f` must not panic.
    pub fn run_locked<R, F>(&self, f: F) -> R
    where
        F: FnOnce(&mut T) -> R + Send,
        R: Send,
    {
        self.run_locked_with(&mut NeverAbort, f)
    }

    /// [`Self::run_locked`], consulting `policy` while waiting.
    pub fn run_locked_with<R, F, P>(&self, policy: &mut P, f: F) -> R
    where
        F: FnOnce(&mut T) -> R + Send,
        R: Send,
        P: SpinPolicy + ?Sized,
    {
        let data = SendPtr(self.data.get());
        self.raw.run_locked_with(policy, move || {
            let data = data;
            f(unsafe { &mut *data.0 })
        })
    }
}

impl<T, L: DelegationLock> DelegationMutex<T, L> {
    /// Acquires the lock for the classic guard-based access path.
    pub fn lock(&self) -> DelegationMutexGuard<'_, T, L> {
        self.raw.lock();
        DelegationMutexGuard { mutex: self }
    }

    /// Acquires the lock, consulting `policy` while waiting.
    pub fn lock_with<P: SpinPolicy + ?Sized>(
        &self,
        policy: &mut P,
    ) -> DelegationMutexGuard<'_, T, L> {
        self.raw.lock_with(policy);
        DelegationMutexGuard { mutex: self }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<DelegationMutexGuard<'_, T, L>> {
        if self.raw.try_lock() {
            Some(DelegationMutexGuard { mutex: self })
        } else {
            None
        }
    }
}

impl<T: fmt::Debug, L: DelegationLock> fmt::Debug for DelegationMutex<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f
                .debug_struct("DelegationMutex")
                .field("data", &&*g)
                .finish(),
            None => f
                .debug_struct("DelegationMutex")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// RAII guard returned by [`DelegationMutex::lock`]; releases on drop.
pub struct DelegationMutexGuard<'a, T, L: DelegationLock> {
    mutex: &'a DelegationMutex<T, L>,
}

impl<T, L: DelegationLock> Deref for DelegationMutexGuard<'_, T, L> {
    type Target = T;

    fn deref(&self) -> &T {
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T, L: DelegationLock> DerefMut for DelegationMutexGuard<'_, T, L> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T, L: DelegationLock> Drop for DelegationMutexGuard<'_, T, L> {
    fn drop(&mut self) {
        unsafe { self.mutex.raw.unlock() };
    }
}

impl<T: fmt::Debug, L: DelegationLock> fmt::Debug for DelegationMutexGuard<'_, T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{AbortAfter, BoundedAbort};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    fn hammer<L: DelegationLock + 'static>() {
        let m = Arc::new(DelegationMutex::<u64, L>::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..2_000 {
                    m.run_locked(|n| *n += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.run_locked(|n| *n), 12_000);
        assert!(!m.raw().is_locked());
        assert_eq!(m.raw().pending_requests(), 0);
    }

    #[test]
    fn flat_combining_counts_correctly() {
        hammer::<FlatCombiningLock>();
    }

    #[test]
    fn ccsynch_counts_correctly() {
        hammer::<CcSynchLock>();
    }

    fn mixed_paths<L: DelegationLock + 'static>() {
        // run_locked, lock()/unlock and lock_with interleaved.
        let m = Arc::new(DelegationMutex::<u64, L>::new(0));
        let mut handles = Vec::new();
        for worker in 0..6 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..1_000 {
                    match (worker + i) % 3 {
                        0 => m.run_locked(|n| *n += 1),
                        1 => *m.lock() += 1,
                        _ => {
                            let mut policy = BoundedAbort::new(64, 4);
                            *m.lock_with(&mut policy) += 1;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 6_000);
        assert_eq!(m.raw().pending_requests(), 0);
    }

    #[test]
    fn flat_combining_mixed_paths() {
        mixed_paths::<FlatCombiningLock>();
    }

    #[test]
    fn ccsynch_mixed_paths() {
        mixed_paths::<CcSynchLock>();
    }

    fn withdrawn_jobs_never_execute<L: DelegationLock + 'static>() {
        let m = Arc::new(DelegationMutex::<u64, L>::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        // Hold the lock so published jobs sit unexecuted.
        let guard = m.lock();
        let mut pollers = Vec::new();
        for _ in 0..3 {
            let m = Arc::clone(&m);
            let executed = Arc::clone(&executed);
            pollers.push(thread::spawn(move || {
                // Abort every attempt a few times, then give up aborting and
                // wait for real execution.
                let mut policy = BoundedAbort::new(100, 5);
                m.run_locked_with(&mut policy, |n| {
                    *n += 1;
                });
                executed.fetch_add(1, Ordering::SeqCst);
                policy.aborts
            }));
        }
        thread::sleep(std::time::Duration::from_millis(30));
        drop(guard);
        let mut total_aborts = 0;
        for p in pollers {
            total_aborts += p.join().unwrap();
        }
        // Every closure ran exactly once despite the withdrawals.
        assert_eq!(executed.load(Ordering::SeqCst), 3);
        assert_eq!(m.run_locked(|n| *n), 3);
        assert!(total_aborts > 0, "no abort was exercised");
        let stats = m.raw().delegation_stats();
        assert_eq!(stats.withdrawals, total_aborts);
        assert_eq!(m.raw().pending_requests(), 0);
    }

    #[test]
    fn flat_combining_withdraws_cleanly() {
        withdrawn_jobs_never_execute::<FlatCombiningLock>();
    }

    #[test]
    fn ccsynch_withdraws_cleanly() {
        withdrawn_jobs_never_execute::<CcSynchLock>();
    }

    #[test]
    fn combiner_executes_waiting_jobs() {
        // One slow direct job + waiters published behind it: the combiner
        // (whoever ends up with the flag) must execute them all.
        let m = Arc::new(DelegationMutex::<Vec<u64>, CcSynchLock>::new(Vec::new()));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..500 {
                    m.run_locked(move |v| v.push(worker * 1_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = m.raw().delegation_stats();
        assert_eq!(stats.combined_jobs + stats.direct, 2_000);
        let len = m.run_locked(|v| v.len());
        assert_eq!(len, 2_000);
    }

    #[test]
    fn window_strategy_defers_until_batch() {
        let strategy = CombinerStrategy::Window { window: 4 };
        assert!(!strategy.may_elect(0, 1));
        assert!(strategy.may_elect(0, 4));
        // Liveness escape after enough spins.
        assert!(strategy.may_elect(WINDOW_ESCAPE_SPINS, 0));
    }

    struct VetoObserver {
        vetoed: Arc<AtomicBool>,
        active: Arc<AtomicBool>,
    }

    impl CombinerObserver for VetoObserver {
        fn combining_changed(&self, active: bool) {
            self.active.store(active, Ordering::SeqCst);
        }

        fn may_self_elect(&self) -> bool {
            !self.vetoed.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn load_aware_strategy_consults_observer() {
        let vetoed = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicBool::new(false));
        install_combiner_observer(Box::new(VetoObserver {
            vetoed: Arc::clone(&vetoed),
            active: Arc::clone(&active),
        }));
        let strategy = CombinerStrategy::LoadAware;
        assert!(strategy.may_elect(0, 0));
        vetoed.store(true, Ordering::SeqCst);
        assert!(!strategy.may_elect(u64::MAX, usize::MAX));
        vetoed.store(false, Ordering::SeqCst);

        // Combining fires the observer transition on a direct run.
        let lock = FlatCombiningLock::with_config(1, CombinerStrategy::LoadAware);
        let mut saw_active = false;
        lock.run_locked(|| {
            saw_active = true;
        });
        assert!(saw_active);
        assert!(
            !active.load(Ordering::SeqCst),
            "combining never deactivated"
        );
        assert!(!is_combining());
        clear_combiner_observer();
    }

    #[test]
    fn tally_counts_combining_work() {
        let _ = take_thread_combine_tally();
        let lock = <FlatCombiningLock as RawLock>::new();
        lock.run_locked(|| {});
        let tally = take_thread_combine_tally();
        assert!(tally.passes >= 1, "direct run did not count a pass");
        assert_eq!(thread_combine_tally(), CombineTally::default());
    }

    #[test]
    fn combiner_spec_round_trips() {
        for spec in [
            "combiner",
            "combiner(strategy=window)",
            "combiner(strategy=window, window=8)",
            "combiner(strategy=load-aware)",
        ] {
            let strategy = build_combiner_spec(spec).unwrap();
            let rendered = strategy.spec().to_string();
            let rebuilt = build_combiner_spec(&rendered).unwrap();
            assert_eq!(strategy, rebuilt, "{spec}");
        }
        assert_eq!(
            build_combiner_spec("combiner(strategy=window)").unwrap(),
            CombinerStrategy::Window {
                window: DEFAULT_WINDOW
            }
        );
    }

    #[test]
    fn combiner_spec_rejects_malformed_input() {
        assert!(matches!(
            build_combiner_spec("combiner(strategy=bogus)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build_combiner_spec("combiner(window=8)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build_combiner_spec("combiner(strategy=first, window=8)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            build_combiner_spec("combiner(strategy=window, window=0)"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(build_combiner_spec("combiner(bogus=1)").is_err());
        assert!(build_combiner_spec("no-such-plane").is_err());
    }

    #[test]
    fn strategy_names_match_registry() {
        assert_eq!(COMBINER_SPECS.names(), vec!["combiner"]);
        for &name in ALL_COMBINER_STRATEGY_NAMES {
            let spec = format!("combiner(strategy={name})");
            let strategy = build_combiner_spec(&spec).unwrap();
            assert_eq!(strategy.name(), name);
        }
    }

    #[test]
    fn lock_spec_builders_render_canonical_specs() {
        let (lock, spec) = flat_combining_from_spec(&ParsedSpec::bare("flat-combining")).unwrap();
        assert_eq!(spec, ParsedSpec::bare("flat-combining"));
        assert_eq!(lock.scan_budget(), DEFAULT_SCAN_BUDGET);
        let parsed = ParsedSpec::bare("flat-combining")
            .with_param("scan_budget", 4u32)
            .with_param("strategy", "load-aware");
        let (lock, spec) = flat_combining_from_spec(&parsed).unwrap();
        assert_eq!(
            spec.to_string(),
            "flat-combining(scan_budget=4, strategy=load-aware)"
        );
        assert_eq!(lock.strategy(), CombinerStrategy::LoadAware);

        let parsed = ParsedSpec::bare("ccsynch")
            .with_param("max_combine", 8u32)
            .with_param("strategy", "window")
            .with_param("window", 2u32);
        let (lock, spec) = ccsynch_from_spec(&parsed).unwrap();
        assert_eq!(
            spec.to_string(),
            "ccsynch(max_combine=8, strategy=window, window=2)"
        );
        assert_eq!(lock.max_combine(), 8);
        assert_eq!(lock.strategy(), CombinerStrategy::Window { window: 2 });
    }

    #[test]
    fn abort_with_nothing_published_is_harmless() {
        let lock = <CcSynchLock as RawLock>::new();
        let mut policy = AbortAfter::new(0);
        // Uncontended: acquires directly, no aborts consulted.
        lock.run_locked_with(&mut policy, || {});
        assert_eq!(policy.aborts, 0);
    }
}
