//! The clock/park seam: one wait protocol over real or virtual time.
//!
//! The paper's mechanism has exactly two places where *time* enters the data
//! plane — the controller's timeout sweep for parked async tasks and the
//! waiter's bounded park in its sleep slot — and exactly one place where a
//! thread actually *blocks* (the parker).  This module abstracts both behind
//! traits so the same controller, gate and slot-buffer code runs against the
//! machine clock in production and against a discrete-event virtual clock in
//! the `lc-des` simulator, with no simulation-only forks:
//!
//! * [`TimeSource`] supplies a monotonic "now" as a [`Duration`] since the
//!   source's epoch.  [`RealClock`] reads the process clock,
//!   [`lc_locks::now_ns`]; [`VirtualClock`] is a counter advanced by a
//!   simulator.
//! * [`ParkOps`] performs the bounded block on a [`Parker`].  [`ThreadPark`]
//!   really blocks the calling thread; a simulator never calls it (its
//!   waiters are event-driven), but tests can substitute a non-blocking park
//!   to drive the sync path deterministically.
//! * [`SlotWait`] is the wait protocol itself — "stay parked while the slot
//!   is still claimed and the deadline has not passed, then leave exactly
//!   once" — extracted from the park loop so that a blocking thread
//!   ([`crate::LoadGate::park`]), a suspended task
//!   ([`crate::AsyncLoadGate::poll_park`]) and a simulated waiter (`lc-des`)
//!   poll the *same* state machine against the *same* [`SleepSlotBuffer`].

use crate::slots::{SleepSlotBuffer, SleeperId};
use lc_locks::{now_ns, ParkResult, Parker};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonic clock: the seam through which the control plane reads time.
///
/// Implementations report a [`Duration`] since their own fixed epoch (a
/// process cannot fabricate [`std::time::Instant`]s, which is exactly why the
/// seam exists).  Values must be monotonically non-decreasing.
pub trait TimeSource: Send + Sync + fmt::Debug {
    /// The current time, as a duration since this source's epoch.
    fn now(&self) -> Duration;
}

/// The production clock: the process clock, [`lc_locks::now_ns`].  Every
/// `RealClock` shares its epoch, the first read in the process.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealClock;

impl RealClock {
    /// The process clock.
    pub fn new() -> Self {
        Self
    }
}

impl TimeSource for RealClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(now_ns())
    }
}

/// A clock that only moves when told to: the timebase of the `lc-des`
/// discrete-event simulator (and of deterministic tests).
///
/// Stored as nanoseconds; [`VirtualClock::set`] uses a monotonic max so a
/// racing reader can never observe time running backwards.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at its epoch (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `by`, returning the new now.
    pub fn advance(&self, by: Duration) -> Duration {
        let nanos = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        let previous = self.nanos.fetch_add(nanos, Ordering::AcqRel);
        Duration::from_nanos(previous.saturating_add(nanos))
    }

    /// Moves the clock to `to` if that is later than the current reading
    /// (monotonic set: an earlier value is ignored).
    pub fn set(&self, to: Duration) {
        let nanos = u64::try_from(to.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_max(nanos, Ordering::AcqRel);
    }
}

impl TimeSource for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }
}

/// The blocking primitive behind [`crate::LoadGate::park`]: how a waiter
/// actually suspends for (at most) a bounded interval.
pub trait ParkOps: Send + Sync + fmt::Debug {
    /// Blocks on `parker` for at most `timeout` (or until unparked).
    fn park(&self, parker: &Parker, timeout: Duration) -> ParkResult;
}

/// The production park: really block the calling thread on its parker.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadPark;

impl ParkOps for ThreadPark {
    fn park(&self, parker: &Parker, timeout: Duration) -> ParkResult {
        parker.park_timeout(timeout)
    }
}

/// The slot store a [`SlotWait`] episode runs against.
///
/// [`SleepSlotBuffer`] is the in-process implementation; the `lc-shm` crate
/// implements it for its shared-memory slot buffer so that *cross-process*
/// waiters drive the very same wait state machine.  Claims are keyed by an
/// opaque `u64` — the raw [`SleeperId`] index in-process, the sleeper-cell
/// index in a shared segment — because a host valid across address spaces
/// cannot traffic in pointers.
pub trait SlotHost {
    /// Whether the slot at `idx` still holds the claim identified by `key`
    /// (i.e. the controller has not cleared it yet).
    fn wait_still_claimed(&self, idx: usize, key: u64) -> bool;

    /// Records one completed sleep episode of `elapsed` into the host's
    /// wait-time histogram.
    fn wait_record(&self, elapsed: Duration);

    /// Releases the claim at `idx` held by `key` — exactly once per claim.
    fn wait_leave(&self, idx: usize, key: u64);
}

impl SlotHost for SleepSlotBuffer {
    fn wait_still_claimed(&self, idx: usize, key: u64) -> bool {
        self.still_claimed(idx, SleeperId::from_raw(key))
    }

    fn wait_record(&self, elapsed: Duration) {
        self.record_wait(elapsed);
    }

    fn wait_leave(&self, idx: usize, key: u64) {
        self.leave(idx, SleeperId::from_raw(key));
    }
}

/// What a [`SlotWait::poll`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPoll {
    /// The slot is still claimed and the deadline has not passed: keep
    /// waiting, for at most the contained remaining time.
    Keep(Duration),
    /// The episode is over; call [`SlotWait::finish`].
    Done(WaitOutcome),
}

/// Why a sleep episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The controller cleared the slot (load dropped, or the thread was
    /// explicitly woken).
    Cleared,
    /// The sleep timeout expired before the slot was cleared.
    TimedOut,
}

/// One sleep-slot wait episode, as an explicit poll-style state machine.
///
/// This is the paper's sleep procedure (§3.1.1: *sleep while the slot is
/// still ours, up to a timeout, then clear the slot on the way out*) with
/// the blocking separated from the protocol.  A thread waiter drives it as
///
/// ```text
/// let wait = SlotWait::begin(idx, sleeper, time.now(), timeout);
/// loop {
///     match wait.poll(buffer, time.now()) {
///         WaitPoll::Done(_) => break,
///         WaitPoll::Keep(remaining) => { park_ops.park(&parker, remaining); }
///     }
/// }
/// wait.finish(buffer, time.now());
/// ```
///
/// while a suspended task polls it once per wake
/// ([`crate::AsyncLoadGate::poll_park`]) and the `lc-des` simulator polls it
/// at event times.  In every world the wait ends through [`SlotWait::finish`],
/// which releases the claim exactly once — the `S − W` balance cannot be corrupted by a waiter
/// that mixes the two styles — and records the episode's duration into the
/// buffer's wait-time histogram, on whatever clock drives the episode.
#[derive(Debug)]
pub struct SlotWait {
    idx: usize,
    key: u64,
    started: Duration,
    deadline: Duration,
}

impl SlotWait {
    /// Starts an episode for a claim at slot `idx` held by `sleeper`,
    /// deadline `now + timeout`.
    pub fn begin(idx: usize, sleeper: SleeperId, now: Duration, timeout: Duration) -> Self {
        Self::begin_keyed(idx, sleeper.index(), now, timeout)
    }

    /// [`SlotWait::begin`] with a raw claim key, for [`SlotHost`]s whose
    /// sleeper identities are not in-process [`SleeperId`]s (the `lc-shm`
    /// cross-process buffer keys claims by sleeper-cell index).
    pub fn begin_keyed(idx: usize, key: u64, now: Duration, timeout: Duration) -> Self {
        Self {
            idx,
            key,
            started: now,
            deadline: now.saturating_add(timeout),
        }
    }

    /// The slot index this episode occupies.
    pub fn slot(&self) -> usize {
        self.idx
    }

    /// The absolute deadline ([`TimeSource`] timebase) of this episode.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Evaluates the wait condition at time `now`.
    pub fn poll<H: SlotHost + ?Sized>(&self, host: &H, now: Duration) -> WaitPoll {
        if !host.wait_still_claimed(self.idx, self.key) {
            return WaitPoll::Done(WaitOutcome::Cleared);
        }
        if now >= self.deadline {
            return WaitPoll::Done(WaitOutcome::TimedOut);
        }
        WaitPoll::Keep(self.deadline - now)
    }

    /// The time ([`TimeSource`] timebase) this episode began.
    pub fn started(&self) -> Duration {
        self.started
    }

    /// Ends the episode at time `now`: records the episode's wait time into
    /// the host's histogram, then releases the slot claim (exactly once —
    /// `finish` consumes the wait).
    pub fn finish<H: SlotHost + ?Sized>(self, host: &H, now: Duration) {
        host.wait_record(now.saturating_sub(self.started));
        host.wait_leave(self.idx, self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::ClaimOutcome;
    use std::sync::Arc;

    #[test]
    fn real_clock_is_monotonic() {
        let clock = RealClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_moves_only_when_driven() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(7));
        assert_eq!(clock.now(), Duration::from_millis(7));
        // `set` is monotonic: an earlier value is ignored.
        clock.set(Duration::from_millis(3));
        assert_eq!(clock.now(), Duration::from_millis(7));
        clock.set(Duration::from_millis(20));
        assert_eq!(clock.now(), Duration::from_millis(20));
    }

    #[test]
    fn slot_wait_polls_through_a_full_episode() {
        let buf = SleepSlotBuffer::new(4);
        let sleeper = buf.register_sleeper(Arc::new(Parker::new()));
        buf.set_target(1);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(sleeper) else {
            panic!("claim failed with open target");
        };
        let t0 = Duration::from_millis(5);
        let wait = SlotWait::begin(idx, sleeper, t0, Duration::from_millis(100));
        // Still claimed and before the deadline: keep waiting.
        match wait.poll(&buf, t0 + Duration::from_millis(40)) {
            WaitPoll::Keep(remaining) => assert_eq!(remaining, Duration::from_millis(60)),
            other => panic!("expected Keep, got {other:?}"),
        }
        // Past the deadline: timed out.
        assert_eq!(
            wait.poll(&buf, t0 + Duration::from_millis(100)),
            WaitPoll::Done(WaitOutcome::TimedOut)
        );
        assert_eq!(wait.started(), t0);
        wait.finish(&buf, t0 + Duration::from_millis(100));
        assert_eq!(buf.sleepers(), 0);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        // The episode's duration (100 ms on the virtual timebase) landed in
        // the buffer's wait histogram.
        assert_eq!(stats.wait.count, 1);
        assert!(stats.wait.p99_ns >= 100_000_000);
        assert!(stats.wait.p99_ns as f64 <= 100_000_000.0 * 1.25);
    }

    #[test]
    fn slot_wait_sees_a_cleared_slot() {
        let buf = SleepSlotBuffer::new(4);
        let sleeper = buf.register_sleeper(Arc::new(Parker::new()));
        buf.set_target(1);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(sleeper) else {
            panic!("claim failed with open target");
        };
        let wait = SlotWait::begin(idx, sleeper, Duration::ZERO, Duration::from_secs(1));
        buf.set_target(0); // controller clears the slot
        assert_eq!(
            wait.poll(&buf, Duration::from_millis(1)),
            WaitPoll::Done(WaitOutcome::Cleared)
        );
        wait.finish(&buf, Duration::from_millis(1));
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn thread_park_blocks_until_unparked() {
        let parker = Parker::new();
        parker.unpark();
        assert_eq!(
            ThreadPark.park(&parker, Duration::from_secs(5)),
            ParkResult::Unparked
        );
        assert_eq!(
            ThreadPark.park(&parker, Duration::from_millis(5)),
            ParkResult::TimedOut
        );
    }
}
