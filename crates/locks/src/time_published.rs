//! A time-published FIFO queue lock — the suite's stand-in for TP-MCS
//! (He, Scherer & Scott, HiPC 2005; reference \[15\] in the paper).
//!
//! # What "time-published" buys
//!
//! Strict-FIFO spinlocks (MCS, ticket) hand the lock to the oldest waiter no
//! matter what, so a single preempted waiter stalls everyone behind it.  A
//! *time-published* lock has each waiter periodically publish a timestamp
//! while it spins; at release time the holder walks the queue and **skips**
//! waiters whose timestamp is stale (they are almost certainly not on a CPU),
//! handing the lock to the first waiter that is demonstrably running.  Skipped
//! waiters notice when they next run and re-enqueue.
//!
//! # Implementation notes
//!
//! The published TP-MCS algorithm unlinks nodes from an MCS list, which
//! requires delicate node-lifetime management.  This implementation keeps the
//! same externally visible properties — FIFO handoff among running threads,
//! local-ish spinning, per-waiter heartbeats, preempted waiters skipped at
//! release, and *abortable* waiting (needed by load control) — but organizes
//! the queue as a ticket sequence over a fixed ring of waiter slots, which
//! makes skipping and aborting straightforward and allocation-free:
//!
//! * an arrival takes a ticket `t` (`next_ticket.fetch_add(1)`), publishes
//!   its first heartbeat and claims ring slot `t % SLOTS`, storing the packed
//!   word `(t, WAITING)`;
//! * the releaser scans tickets upward from its own, granting the first fresh
//!   `WAITING` slot via CAS to `(t, GRANTED)`, marking stale ones `SKIPPED`
//!   and cleaning `ABANDONED` ones;
//! * a waiter may abort (CAS to `(t, ABANDONED)`) at the request of a
//!   [`SpinPolicy`] — the hook used by load control to pull spinning threads
//!   out of the system;
//! * if the queue drains, the releaser publishes `serving = next_ticket` and a
//!   later arrival whose ticket equals `serving` grants itself.
//!
//! A hand-off costs three atomic RMWs: the ticket `fetch_add`, the slot claim
//! CAS and the releaser's grant CAS.  Every cross-thread transition is a CAS
//! on a single packed word per slot, so there is no ABA between ticket
//! generations; the one plain store is a granted waiter vacating its own
//! `GRANTED` word, which nobody else ever moves.  The ring bounds the number
//! of *concurrently waiting* threads to [`SLOTS`] (4096), which is far beyond
//! the thread counts the paper (or any sane deployment) uses.

use crate::raw::NeverAbort;
use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinDecision, SpinPolicy};
use crate::stats::{LockStats, LockStatsSnapshot};
use crossbeam_utils::CachePadded;
use std::fmt;
use std::hint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use std::time::Instant;

/// Maximum number of threads that may be simultaneously waiting for one lock.
pub const SLOTS: usize = 4096;

const STATE_EMPTY: u64 = 0;
const STATE_WAITING: u64 = 1;
const STATE_GRANTED: u64 = 2;
const STATE_ABANDONED: u64 = 3;
const STATE_SKIPPED: u64 = 4;
const STATE_MASK: u64 = 0x7;

#[inline]
fn pack(ticket: u64, state: u64) -> u64 {
    (ticket << 3) | state
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word >> 3, word & STATE_MASK)
}

/// Monotonic nanoseconds since the first call in this process: the one
/// process clock.  The heartbeats here and `lc_core::RealClock` read it.
#[inline]
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Tuning knobs for [`TimePublishedLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpConfig {
    /// How stale a waiter's heartbeat may be before the releaser assumes it
    /// has been preempted and skips it.
    pub patience: Duration,
    /// Publish a fresh heartbeat every this many polling iterations.
    pub publish_every: u32,
    /// If `false`, the releaser never skips anyone and the lock degenerates
    /// into a plain FIFO queue lock (useful as the "MCS" ablation point).
    pub time_publishing: bool,
}

impl Default for TpConfig {
    fn default() -> Self {
        Self {
            patience: Duration::from_micros(300),
            publish_every: 32,
            time_publishing: true,
        }
    }
}

impl TpConfig {
    /// A configuration with time publishing disabled (strict FIFO handoff).
    pub fn strict_fifo() -> Self {
        Self {
            time_publishing: false,
            ..Self::default()
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// `(ticket << 3) | state`.
    word: AtomicU64,
    /// Heartbeat: `now_ns()` at the waiter's last publish.
    published: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            word: AtomicU64::new(pack(0, STATE_EMPTY)),
            published: AtomicU64::new(0),
        }
    }

    /// Turns the owner's own `(ticket, GRANTED)` word back to `EMPTY`.  A
    /// store, not a CAS: only the owner ever moves a `GRANTED` word — scans,
    /// aborts and the wrap helper all CAS from `WAITING`, `ABANDONED` or
    /// `SKIPPED`.
    #[inline]
    fn vacate(&self, ticket: u64) {
        self.word
            .store(pack(ticket, STATE_EMPTY), Ordering::Release);
    }
}

/// Outcome of a single waiting attempt, internal to `lock_with`.
enum Attempt {
    Acquired(u64),
    Aborted,
}

/// The time-published, abortable FIFO queue lock.
///
/// ```
/// use lc_locks::{RawLock, TimePublishedLock};
/// let lock = TimePublishedLock::new();
/// lock.lock();
/// assert!(lock.is_locked());
/// unsafe { lock.unlock() };
/// ```
pub struct TimePublishedLock {
    next_ticket: CachePadded<AtomicU64>,
    /// The ticket the last drain declared free.  A grant does not move it, so
    /// between drains it lags the holder (see `release_scan`) and spinners,
    /// which poll it, keep a shared copy of its line.
    serving: CachePadded<AtomicU64>,
    owner_ticket: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<Slot>]>,
    config: TpConfig,
    /// `config.patience` in nanoseconds, converted once: the releaser compares
    /// against it inside the hand-off.
    patience_ns: u64,
    /// Aborts and skips only; acquisitions are derived (see
    /// [`TimePublishedLock::stats`]), so no holder writes this line.
    stats: LockStats,
}

impl fmt::Debug for TimePublishedLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimePublishedLock")
            .field("next_ticket", &self.next_ticket.load(Ordering::Relaxed))
            .field("serving", &self.serving.load(Ordering::Relaxed))
            .field("config", &self.config)
            .finish()
    }
}

impl Default for TimePublishedLock {
    fn default() -> Self {
        <Self as RawLock>::new()
    }
}

impl TimePublishedLock {
    /// Creates a lock with a custom configuration.
    pub fn with_config(config: TpConfig) -> Self {
        let slots = (0..SLOTS)
            .map(|_| CachePadded::new(Slot::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            next_ticket: CachePadded::new(AtomicU64::new(0)),
            serving: CachePadded::new(AtomicU64::new(0)),
            owner_ticket: CachePadded::new(AtomicU64::new(u64::MAX)),
            slots,
            config,
            patience_ns: u64::try_from(config.patience.as_nanos()).unwrap_or(u64::MAX),
            stats: LockStats::new(),
        }
    }

    /// The configuration this lock was built with.
    pub fn config(&self) -> TpConfig {
        self.config
    }

    /// Snapshot of this lock's statistics counters.
    ///
    /// `acquisitions` is derived rather than counted: every ticket ends in
    /// exactly one acquisition or one recorded abort, so it is
    /// `next_ticket − aborts` — exact whenever the lock is quiescent, and
    /// ahead by the tickets still waiting while it is not.
    pub fn stats(&self) -> LockStatsSnapshot {
        let snapshot = self.stats.snapshot();
        LockStatsSnapshot {
            acquisitions: self
                .next_ticket
                .load(Ordering::SeqCst)
                .saturating_sub(snapshot.aborts),
            ..snapshot
        }
    }

    #[inline]
    fn slot(&self, ticket: u64) -> &Slot {
        &self.slots[(ticket as usize) % SLOTS]
    }

    #[inline]
    fn is_stale(&self, slot: &Slot) -> bool {
        let published = slot.published.load(Ordering::Relaxed);
        let age = now_ns().saturating_sub(published);
        age > self.patience_ns
    }

    /// Attempts the uncontended fast path: if nobody is queued, take the next
    /// ticket and own the lock without touching a slot.
    #[inline]
    fn try_fast_path(&self) -> bool {
        let s = self.serving.load(Ordering::SeqCst);
        if s != self.next_ticket.load(Ordering::SeqCst) {
            return false;
        }
        if self
            .next_ticket
            .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.owner_ticket.store(s, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// One enqueue-and-wait attempt.  Returns when granted, self-granted, or
    /// aborted at the policy's request.
    fn wait_one_attempt<P: SpinPolicy + ?Sized>(
        &self,
        policy: &mut P,
        total_spins: &mut u64,
    ) -> Attempt {
        // Read before the ticket is taken: from the ticket on, the releaser
        // may be waiting for this slot's claim.
        let mut heartbeat = now_ns();
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let slot = self.slot(ticket);

        // Claim the ring slot for this ticket generation.  The first heartbeat
        // goes out *before* the claim: the CAS's release orders it ahead of
        // the `WAITING` word, so a releaser whose (acquire) load reads
        // `WAITING` reads this heartbeat or a later one — never the previous
        // generation's, which would make a live waiter look stale.  It is on
        // the word's line, so it costs no extra miss.
        loop {
            let w = slot.word.load(Ordering::SeqCst);
            let (_, state) = unpack(w);
            if state == STATE_EMPTY {
                slot.published.store(heartbeat, Ordering::Relaxed);
                if slot
                    .word
                    .compare_exchange(
                        w,
                        pack(ticket, STATE_WAITING),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    break;
                }
            } else {
                // A previous generation still holds the slot (only with more
                // than `SLOTS` waiters): keep the heartbeat current meanwhile.
                hint::spin_loop();
                heartbeat = now_ns();
            }
        }

        let mut local_spins: u32 = 0;
        loop {
            let w = slot.word.load(Ordering::SeqCst);
            if (w >> 3) != ticket {
                // Our claim was resolved (skipped and cleaned) and the slot
                // has already been recycled by a later ticket; re-enqueue.
                return Attempt::Aborted;
            }
            if w == pack(ticket, STATE_GRANTED) {
                // A releaser handed us the lock; vacate the slot and go.
                slot.vacate(ticket);
                return Attempt::Acquired(ticket);
            }
            if w == pack(ticket, STATE_SKIPPED) {
                // We were passed over while apparently off-CPU: re-enqueue.
                let _ = slot.word.compare_exchange(
                    w,
                    pack(ticket, STATE_EMPTY),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                return Attempt::Aborted;
            }
            if self.serving.load(Ordering::SeqCst) == ticket {
                // The queue drained up to us: grant ourselves.
                if slot
                    .word
                    .compare_exchange(
                        pack(ticket, STATE_WAITING),
                        pack(ticket, STATE_GRANTED),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    slot.vacate(ticket);
                    return Attempt::Acquired(ticket);
                }
                continue;
            }

            *total_spins += 1;
            local_spins = local_spins.wrapping_add(1);
            if local_spins.is_multiple_of(self.config.publish_every) {
                slot.published.store(now_ns(), Ordering::Relaxed);
            }

            match policy.on_spin(*total_spins) {
                SpinDecision::Continue => {
                    hint::spin_loop();
                }
                SpinDecision::Abort => {
                    match slot.word.compare_exchange(
                        pack(ticket, STATE_WAITING),
                        pack(ticket, STATE_ABANDONED),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            // If the lock drained to exactly our ticket, we are
                            // responsible for passing it on: whoever turns our
                            // ABANDONED word back to EMPTY continues the scan.
                            if self.serving.load(Ordering::SeqCst) == ticket
                                && slot
                                    .word
                                    .compare_exchange(
                                        pack(ticket, STATE_ABANDONED),
                                        pack(ticket, STATE_EMPTY),
                                        Ordering::SeqCst,
                                        Ordering::SeqCst,
                                    )
                                    .is_ok()
                            {
                                self.release_scan(ticket);
                            }
                            return Attempt::Aborted;
                        }
                        Err(w2) => {
                            if w2 == pack(ticket, STATE_GRANTED) {
                                // Too late to abort: we already own the lock.
                                slot.vacate(ticket);
                                return Attempt::Acquired(ticket);
                            }
                            if w2 == pack(ticket, STATE_SKIPPED) {
                                let _ = slot.word.compare_exchange(
                                    w2,
                                    pack(ticket, STATE_EMPTY),
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                );
                                return Attempt::Aborted;
                            }
                            if (w2 >> 3) != ticket {
                                // Claim already resolved and slot recycled.
                                return Attempt::Aborted;
                            }
                            // Spurious failure; retry the outer loop.
                        }
                    }
                }
            }
        }
    }

    /// The release scan: starting just after `from_ticket`, hand the lock to
    /// the first fresh waiter, skipping preempted ones and cleaning abandoned
    /// ones.  If no waiter exists the lock is marked free.
    fn release_scan(&self, from_ticket: u64) {
        let mut s = from_ticket + 1;
        let mut skipped: u64 = 0;
        loop {
            if s == self.next_ticket.load(Ordering::SeqCst) {
                // Queue looks empty: declare the lock free at ticket `s`.
                // `fetch_max` keeps `serving` monotonic even if a preempted
                // releaser's update from an older scan lands late.
                self.serving.fetch_max(s, Ordering::SeqCst);
                if self.next_ticket.load(Ordering::SeqCst) == s {
                    break;
                }
                // Ticket `s` was issued concurrently.  Its owner will observe
                // `serving == s` and self-grant — unless it already abandoned
                // without seeing it, in which case we must carry the handoff
                // forward ourselves.  Exactly one party wins the CAS below.
                let slot = self.slot(s);
                let w = slot.word.load(Ordering::SeqCst);
                if w == pack(s, STATE_ABANDONED)
                    && slot
                        .word
                        .compare_exchange(
                            w,
                            pack(s, STATE_EMPTY),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                {
                    s += 1;
                    continue;
                }
                break;
            }

            let slot = self.slot(s);
            let w = slot.word.load(Ordering::SeqCst);
            let (wt, state) = unpack(w);

            if wt != s {
                // The owner of ticket `s` has not finished claiming its slot
                // yet (or a stale occupant from a previous generation remains,
                // which only happens with > SLOTS concurrent waiters).  Help a
                // little and retry.
                if state == STATE_ABANDONED || state == STATE_SKIPPED {
                    let _ = slot.word.compare_exchange(
                        w,
                        pack(wt, STATE_EMPTY),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                hint::spin_loop();
                continue;
            }

            match state {
                STATE_WAITING => {
                    if self.config.time_publishing && self.is_stale(slot) {
                        // Waiter looks preempted: pass over it.
                        if slot
                            .word
                            .compare_exchange(
                                w,
                                pack(s, STATE_SKIPPED),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                        {
                            skipped += 1;
                            s += 1;
                        }
                        continue;
                    }
                    if slot
                        .word
                        .compare_exchange(
                            w,
                            pack(s, STATE_GRANTED),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        // `serving` stays where the last drain left it, below
                        // `s` (a drain to `d` is followed by grants to
                        // tickets past `d` only).  That lag is exact for all
                        // its readers: every ticket still waiting, and every
                        // ticket yet to be issued, is above `s`, so none
                        // equals `serving` (no self-grant, no abort-carry),
                        // and `next_ticket` stays above it (no fast path;
                        // `is_locked()` holds).  Only the next drain, which
                        // sets it to `next_ticket`, makes any of them fire.
                        break;
                    }
                    // Lost a race with an abort; re-examine the same ticket.
                }
                STATE_ABANDONED => {
                    let _ = slot.word.compare_exchange(
                        w,
                        pack(s, STATE_EMPTY),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    s += 1;
                }
                STATE_SKIPPED => {
                    // Should only be reachable if a previous scan skipped this
                    // ticket and the waiter has not yet noticed; move on.
                    s += 1;
                }
                STATE_GRANTED => {
                    // A handoff to this ticket already happened; nothing to do.
                    break;
                }
                _ => {
                    // EMPTY with a matching ticket: the waiter vacated; move on.
                    s += 1;
                }
            }
        }
        self.stats.record_skipped(skipped);
    }
}

unsafe impl AbortableLock for TimePublishedLock {
    /// Acquires the lock, consulting `policy` on every polling iteration.
    ///
    /// The policy may abort an attempt ([`SpinDecision::Abort`]); the waiter
    /// then leaves the queue, the policy's `on_aborted` hook runs (this is
    /// where load control parks the thread), and the acquisition restarts from
    /// scratch.  The call only returns once the lock is actually held.
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        if self.try_fast_path() {
            policy.on_acquired(0);
            return;
        }
        let mut total_spins: u64 = 0;
        loop {
            match self.wait_one_attempt(policy, &mut total_spins) {
                Attempt::Acquired(ticket) => {
                    self.owner_ticket.store(ticket, Ordering::Relaxed);
                    policy.on_acquired(total_spins);
                    return;
                }
                Attempt::Aborted => {
                    self.stats.record_abort();
                    policy.on_aborted();
                    // Retry from scratch (fast path may now succeed).
                    if self.try_fast_path() {
                        policy.on_acquired(total_spins);
                        return;
                    }
                }
            }
        }
    }
}

unsafe impl RawLock for TimePublishedLock {
    fn new() -> Self {
        Self::with_config(TpConfig::default())
    }

    #[inline]
    fn lock(&self) {
        self.lock_with(&mut NeverAbort);
    }

    unsafe fn unlock(&self) {
        let ticket = self.owner_ticket.load(Ordering::Relaxed);
        debug_assert_ne!(ticket, u64::MAX, "unlock without a matching lock");
        self.owner_ticket.store(u64::MAX, Ordering::Relaxed);
        self.release_scan(ticket);
    }

    fn is_locked(&self) -> bool {
        self.serving.load(Ordering::Relaxed) < self.next_ticket.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "tp-queue"
    }
}

unsafe impl RawTryLock for TimePublishedLock {
    #[inline]
    fn try_lock(&self) -> bool {
        self.try_fast_path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::AbortAfter;
    use std::sync::atomic::AtomicU64 as StdU64;
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;

    #[test]
    fn basic_lock_unlock() {
        let l = TimePublishedLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        unsafe { l.unlock() };
        assert!(!l.is_locked());
        assert_eq!(l.name(), "tp-queue");
        assert_eq!(l.stats().acquisitions, 1);
    }

    #[test]
    fn try_lock_behaviour() {
        let l = TimePublishedLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        unsafe { l.unlock() };
        assert!(l.try_lock());
        unsafe { l.unlock() };
    }

    #[test]
    fn repeated_acquire_release_single_thread() {
        let l = TimePublishedLock::new();
        for _ in 0..50_000 {
            l.lock();
            unsafe { l.unlock() };
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for t in [0u64, 1, 4095, 4096, 1 << 40] {
            for s in [
                STATE_EMPTY,
                STATE_WAITING,
                STATE_GRANTED,
                STATE_ABANDONED,
                STATE_SKIPPED,
            ] {
                assert_eq!(unpack(pack(t, s)), (t, s));
            }
        }
    }

    fn hammer(lock: Arc<TimePublishedLock>, threads: usize, iters: u64) -> u64 {
        let counter = Arc::new(StdU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    unsafe { lock.unlock() };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(TimePublishedLock::new());
        assert_eq!(hammer(Arc::clone(&lock), 8, 3_000), 24_000);
        assert_eq!(lock.stats().acquisitions, 24_000);
    }

    #[test]
    fn a_live_waiter_is_never_skipped_for_a_heartbeat_it_has_not_published() {
        // No live waiter goes a whole second without a heartbeat, so with
        // this patience every skip is a releaser that read a `WAITING` word
        // before the waiter's first heartbeat: it saw the slot's previous
        // timestamp, 0 on a slot no ticket has used, stale once the clock is
        // past the patience.
        let patience = Duration::from_secs(1);
        let patience_ns = patience.as_nanos() as u64;
        let now = now_ns();
        if now <= patience_ns {
            thread::sleep(Duration::from_nanos(patience_ns + 1 - now));
        }
        let lock = Arc::new(TimePublishedLock::with_config(TpConfig {
            patience,
            ..TpConfig::default()
        }));
        // Two threads hand the lock back and forth; fewer tickets than ring
        // slots, so every queued ticket claims a never-used slot.
        const ITERS: u64 = 1_500;
        let start = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    for _ in 0..ITERS {
                        lock.lock();
                        unsafe { lock.unlock() };
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let stats = lock.stats();
        assert_eq!(stats.skipped_waiters, 0, "{stats:?}");
        assert_eq!(stats.acquisitions, 2 * ITERS);
        assert!(lock.next_ticket.load(Ordering::Relaxed) < SLOTS as u64);
    }

    #[test]
    fn is_locked_holds_through_a_chain_of_grants_and_clears_on_drain() {
        // Grants leave `serving` behind the holder; only the drain moves it.
        // Strict FIFO, so a descheduled waiter is not skipped out of order.
        let lock = Arc::new(TimePublishedLock::with_config(TpConfig::strict_fifo()));
        lock.lock();
        let (acquired_tx, acquired_rx) = mpsc::channel();
        let mut releases = Vec::new();
        let mut waiters = Vec::new();
        for ticket in 1..=2u64 {
            let (release_tx, release_rx) = mpsc::channel::<()>();
            releases.push(release_tx);
            let waiter_lock = Arc::clone(&lock);
            let acquired = acquired_tx.clone();
            waiters.push(thread::spawn(move || {
                waiter_lock.lock();
                acquired.send(ticket).unwrap();
                release_rx.recv().unwrap();
                unsafe { waiter_lock.unlock() };
            }));
            // Queue the waiters in ticket order.
            while lock.slot(ticket).word.load(Ordering::SeqCst) != pack(ticket, STATE_WAITING) {
                thread::yield_now();
            }
        }
        unsafe { lock.unlock() };
        for (ticket, release) in (1..=2u64).zip(&releases) {
            assert_eq!(acquired_rx.recv().unwrap(), ticket);
            assert!(lock.is_locked(), "ticket {ticket} holds the lock");
            assert_eq!(
                lock.serving.load(Ordering::SeqCst),
                0,
                "a grant moved serving"
            );
            release.send(()).unwrap();
        }
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert!(!lock.is_locked());
        assert_eq!(lock.serving.load(Ordering::SeqCst), 3);
        assert_eq!(lock.stats().acquisitions, 3);
    }

    #[test]
    fn mutual_exclusion_with_zero_patience_forces_skips() {
        // With zero patience every waiter looks preempted, so the releaser
        // constantly skips and waiters constantly re-enqueue.  Exclusion and
        // progress must still hold.
        let cfg = TpConfig {
            patience: Duration::from_nanos(0),
            publish_every: 1024,
            time_publishing: true,
        };
        let lock = Arc::new(TimePublishedLock::with_config(cfg));
        assert_eq!(hammer(Arc::clone(&lock), 6, 2_000), 12_000);
        assert_eq!(lock.stats().acquisitions, 12_000);
    }

    #[test]
    fn strict_fifo_mode_never_skips() {
        let lock = Arc::new(TimePublishedLock::with_config(TpConfig::strict_fifo()));
        assert_eq!(hammer(Arc::clone(&lock), 6, 2_000), 12_000);
        assert_eq!(lock.stats().skipped_waiters, 0);
    }

    #[test]
    fn aborting_policy_eventually_acquires() {
        let lock = Arc::new(TimePublishedLock::new());
        lock.lock();
        let l2 = Arc::clone(&lock);
        let h = thread::spawn(move || {
            let mut policy = AbortAfter::new(50);
            l2.lock_with(&mut policy);
            unsafe { l2.unlock() };
            policy.aborts
        });
        thread::sleep(Duration::from_millis(30));
        unsafe { lock.unlock() };
        let aborts = h.join().unwrap();
        assert!(aborts >= 1, "the waiter should have aborted at least once");
        assert!(lock.stats().aborts >= 1);
        assert_eq!(lock.stats().acquisitions, 2);
    }
}
