//! Flat combining: waiters publish critical sections, a combiner runs them.
//!
//! Every other family in this crate makes waiters *wait* — spin, yield or
//! park until the lock is free, then execute their own critical section.
//! Delegation inverts that: a waiter *publishes* its critical section as a
//! request record, and whichever thread currently owns the lock (the
//! **combiner**) executes batches of published requests on their owners'
//! behalf.  The shared data stays hot in one cache, and waiters never touch
//! it.  [`FlatCombiningLock`] is the one design implemented: a fixed
//! publication array that the combiner scans ([Hendler, Incze, Shavit,
//! Tzafrir, SPAA'10]).
//!
//! The delegated path is [`FlatCombiningLock::run_locked`]; the lock *also*
//! implements the crate-wide [`RawLock`]/[`RawTryLock`]/[`AbortableLock`]
//! contract, so it slots into [`crate::Mutex`], the benchmark
//! drivers, and — crucially — load control: **abort = atomically withdrawing
//! an unexecuted published request**, so `lc-core`'s `LoadGate` works
//! unchanged on top.
//!
//! ## Combiner election and load control
//!
//! The combiner is exactly the thread the load controller must never put to
//! sleep: parking it stalls every published request behind it (the
//! scheduler-subversion effect, see ROADMAP).  The thread that wins the lock
//! flag combines, unless it holds an unresolved sleep-slot claim: the
//! load-control runtime counts this thread's claims here
//! ([`note_sleep_claim`]), and a thread whose count is not zero does not take
//! the combiner role.  The other half of the rule lives in the runtime: a
//! thread that [`is_combining`] takes no claim.  So a combiner never sleeps
//! in a slot, and the controller's wake scan needs no exception for it.
//!
//! ## Constraints
//!
//! Delegated closures run on *another* thread's stack frame, so
//! [`FlatCombiningLock::run_locked`] requires `F: Send` and `R: Send`.
//! Delegated closures must not panic: an unwind through a combiner would
//! strand every publisher behind it.

use crate::raw::{AbortableLock, NeverAbort, RawLock, RawTryLock, SpinDecision, SpinPolicy};
use crate::Mutex;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Request states
// ---------------------------------------------------------------------------

/// Publication-slot states.  A slot moves `FREE → CLAIMED → PENDING_*`, then
/// `TAKEN → DONE` or `GRANTED`, or straight back to `FREE` when its publisher
/// withdraws the request.
const FREE: u32 = 0;
/// Slot won by a publisher, record not yet visible.
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
// Per-thread combiner state (the load-control hook)
// ---------------------------------------------------------------------------

thread_local! {
    /// This thread's unresolved sleep-slot claims, on any load control.
    static SLEEP_CLAIMS: Cell<u32> = const { Cell::new(0) };
    static COMBINING_DEPTH: Cell<u32> = const { Cell::new(0) };
    static SLOT_HINT: Cell<usize> = const { Cell::new(0) };
}

/// Records a sleep-slot claim taken by the current thread (`lc-core`'s
/// `LoadGate` calls this; until [`note_sleep_claim_resolved`] the thread
/// refuses the combiner role).
pub fn note_sleep_claim() {
    SLEEP_CLAIMS.set(SLEEP_CLAIMS.get() + 1);
}

/// Records that one of the current thread's sleep-slot claims was resolved
/// (parked, cancelled or dropped).
pub fn note_sleep_claim_resolved() {
    let claims = SLEEP_CLAIMS.get();
    debug_assert!(claims > 0, "resolved a sleep-slot claim that was not held");
    SLEEP_CLAIMS.set(claims.saturating_sub(1));
}

/// Whether the current thread is acting as a combiner right now.
pub fn is_combining() -> bool {
    COMBINING_DEPTH.get() > 0
}

/// Whether the current thread may elect itself combiner: only while it holds
/// no sleep-slot claim.  A thread that has committed to sleeping is exactly
/// the one the controller wants off the CPU.
pub fn thread_may_self_elect() -> bool {
    SLEEP_CLAIMS.get() == 0
}

/// RAII marker for "this thread is the combiner": maintains the per-thread
/// depth that [`is_combining`] reads.
struct CombineGuard;

impl CombineGuard {
    fn enter() -> Self {
        COMBINING_DEPTH.set(COMBINING_DEPTH.get() + 1);
        CombineGuard
    }
}

impl Drop for CombineGuard {
    fn drop(&mut self) {
        COMBINING_DEPTH.set(COMBINING_DEPTH.get() - 1);
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

/// Passes one combining session makes over the publication array: the
/// second picks up requests published while the first ran, and a pass that
/// finds nothing ends the session early.
const SCAN_PASSES: u32 = 2;

/// A flat-combining delegation lock: a publication array scanned by the
/// current combiner.
///
/// The exclusive flag doubles as the plain mutex for the
/// [`RawLock`]/[`RawTryLock`] surface; combining happens only while holding
/// it, so delegated jobs and `lock()`-path critical sections are mutually
/// exclusive.
///
/// ```
/// use lc_locks::delegation::FlatCombiningLock;
/// use lc_locks::RawLock;
///
/// let lock = <FlatCombiningLock as RawLock>::new();
/// let answer = lock.run_locked(|| 42);
/// assert_eq!(answer, 42);
/// ```
pub struct FlatCombiningLock {
    flag: AtomicBool,
    slots: Box<[PubRecord]>,
    pending: AtomicU32,
    stats: DelegationStats,
}

unsafe impl Send for FlatCombiningLock {}
unsafe impl Sync for FlatCombiningLock {}

impl FlatCombiningLock {
    /// Executes `f` under the lock, consulting `policy` while waiting.
    ///
    /// `f` may run on another thread (the combiner), hence `Send` on both the
    /// closure and its result.  `f` must not panic.  An abort answered by
    /// `policy` withdraws the published request unexecuted.
    pub fn run_locked_with<R, F, P>(&self, policy: &mut P, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
        P: SpinPolicy + ?Sized,
    {
        with_erased_job(f, |job| self.run_job_with(&mut &mut *policy, job))
    }

    /// Executes `f` under the lock ([`Self::run_locked_with`] with a
    /// non-aborting policy).
    pub fn run_locked<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.run_locked_with(&mut NeverAbort, f)
    }

    /// Number of currently published, unexecuted requests (racy;
    /// diagnostics).
    pub fn pending_requests(&self) -> usize {
        self.pending.load(Ordering::Relaxed) as usize
    }

    /// Snapshot of the lock's delegation counters.
    pub fn delegation_stats(&self) -> DelegationStatsSnapshot {
        self.stats.snapshot()
    }

    #[inline]
    fn try_lock_flag(&self) -> bool {
        self.flag
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
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

    /// Runs up to [`SCAN_PASSES`] passes over the publication array,
    /// executing every published job found.  Caller must hold the flag.
    fn scan_jobs(&self) {
        let mut jobs_run = 0u64;
        for _ in 0..SCAN_PASSES {
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
                if thread_may_self_elect() {
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
                        if thread_may_self_elect() && self.try_lock_flag() {
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
                            if thread_may_self_elect() {
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
        let slots = (0..FC_SLOTS)
            .map(|_| PubRecord {
                state: AtomicU32::new(FREE),
                job: UnsafeCell::new(None),
            })
            .collect();
        Self {
            flag: AtomicBool::new(false),
            slots,
            pending: AtomicU32::new(0),
            stats: DelegationStats::default(),
        }
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

impl fmt::Debug for FlatCombiningLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatCombiningLock")
            .field("locked", &self.is_locked())
            .field("pending", &self.pending_requests())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// DelegationMutex: typed data + flat combining
// ---------------------------------------------------------------------------

/// Wraps a `*mut T` so a delegated closure (which may run on the combiner's
/// thread) can capture it; safe because the closure runs under the lock.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}

/// A value protected by a [`FlatCombiningLock`], accessed by *delegating*
/// closures over it: a [`Mutex`] over flat combining.
///
/// [`DelegationMutex::run_locked`] publishes the closure for the combiner to
/// execute (or runs it in place when uncontended), and the guard API
/// ([`Mutex::lock`]) provides the classic own-the-lock path for code that
/// needs a reference across statements.
///
/// ```
/// use lc_locks::delegation::DelegationMutex;
/// use std::sync::Arc;
/// use std::thread;
///
/// let counter = Arc::new(DelegationMutex::new(0u64));
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
pub type DelegationMutex<T> = Mutex<T, FlatCombiningLock>;

impl<T: Send> DelegationMutex<T> {
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
        self.raw().run_locked_with(policy, move || {
            let data = data;
            // SAFETY: the closure runs under the lock, on whichever one
            // thread runs it, so this is the only reference to the data.
            f(unsafe { &mut *data.0 })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{AbortAfter, BoundedAbort};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn flat_combining_counts_correctly() {
        let m = Arc::new(DelegationMutex::new(0u64));
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
    fn flat_combining_mixed_paths() {
        // run_locked, lock()/unlock and lock_with interleaved.
        let m = Arc::new(DelegationMutex::new(0u64));
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
    fn flat_combining_withdraws_cleanly() {
        let m = Arc::new(DelegationMutex::new(0u64));
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
    fn combiner_executes_waiting_jobs() {
        // Every published job runs exactly once: in place (direct) or on
        // whichever thread is combining.
        let m = Arc::new(DelegationMutex::new(Vec::new()));
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
    fn election_consults_the_claim_count() {
        let lock = <FlatCombiningLock as RawLock>::new();
        // With no claim a direct run combines, and the depth unwinds.
        assert!(thread_may_self_elect());
        assert!(lock.run_locked(is_combining));
        assert!(!is_combining(), "combining never ended");
        // Under a claim it runs its own job without taking the combiner role.
        note_sleep_claim();
        assert!(!thread_may_self_elect());
        assert!(!lock.run_locked(is_combining));
        assert!(!is_combining());
        note_sleep_claim_resolved();
        assert!(thread_may_self_elect());
    }

    #[test]
    fn abort_with_nothing_published_is_harmless() {
        let lock = <FlatCombiningLock as RawLock>::new();
        let mut policy = AbortAfter::new(0);
        // Uncontended: acquires directly, no aborts consulted.
        lock.run_locked_with(&mut policy, || {});
        assert_eq!(policy.aborts, 0);
    }
}
