//! The sleep slot buffer (paper §3.1.1 and §3.2.2, Figure 7 centre),
//! generalised into a **sharded ring**.
//!
//! The buffer is the single point of communication between the controller
//! daemon and spinning threads:
//!
//! * the controller publishes the **sleep target** `T` — how many threads
//!   should currently be asleep;
//! * spinning threads that find room (`S − W < T`) claim the next slot with a
//!   CAS on `S`, write their identity into the slot, and block;
//! * the controller wakes sleepers by clearing their slots (and unparking
//!   them) when the target shrinks; threads also wake on their own after a
//!   timeout;
//! * every thread that leaves — woken, timed out, or because it acquired the
//!   lock before actually sleeping — increments `W` exactly once, so
//!   `S − W` is always the number of outstanding claims.
//!
//! `S` (threads that have ever slept) doubles as the buffer's head pointer,
//! exactly as in the paper; there is no tail pointer because sleepers leave
//! in arbitrary order and the ring simply contains gaps.
//!
//! ## Sharding
//!
//! At many hundreds of hardware contexts a single `S` word turns the head CAS
//! in [`SleepSlotBuffer::try_claim`] — and the controller's linear wake scan —
//! into the very contention hotspot the mechanism exists to remove.  The
//! buffer is therefore split into a power-of-two number of **shards**, each
//! with its own cache-padded `S`/`W`/`T` triple and slot ring:
//!
//! * every registered sleeper has a **home shard** — its stable registration
//!   id `mod N` — so a thread always contends on the same shard's head word;
//! * a claim that finds its home shard full or loses the home CAS makes one
//!   overflow probe to the *neighbour* shard (`home + 1 mod N`) so a raced or
//!   saturated home shard cannot strand a sleeper; if neither local shard
//!   takes the claim while the global target is non-zero (a target smaller
//!   than the shard count, or a skewed split that closed or saturated the
//!   local pair), the probe widens to the remaining shards — no partition can
//!   make the global target unreachable, and the wider scan only runs when
//!   the local fast path already failed;
//! * the global target is **partitioned** across shards
//!   (`sum(T_i) = T`, see [`crate::policy::TargetSplitter`]); shrinking a
//!   shard's target wakes excess sleepers by scanning *only that shard's*
//!   ring.
//!
//! The paper's invariants hold per shard and therefore globally: each shard's
//! `S_i − W_i` is its outstanding-claim count, every claim is balanced by
//! exactly one [`SleepSlotBuffer::leave`], and with `N = 1` (the default) the
//! buffer is behaviourally identical to the unsharded original.

use crate::config::WakeOrder;
use crossbeam_utils::CachePadded;
use lc_locks::stats::{WaitHistogram, WaitObservation, WaitSnapshot};
use lc_locks::Parker;
use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identity of a thread registered as a potential sleeper.
///
/// Ids are handed out sequentially by [`SleepSlotBuffer::register_sleeper`],
/// which makes them **shard-stable**: a sleeper's home shard
/// (`id mod shard_count`) never changes for the lifetime of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SleeperId(u64);

impl SleeperId {
    /// The raw index of this sleeper in the buffer's parker table.
    pub fn index(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw index — in-crate plumbing for the
    /// [`crate::time::SlotHost`] impl, which keys episodes by the raw index.
    pub(crate) fn from_raw(index: u64) -> Self {
        Self(index)
    }

    fn slot_value(self) -> u64 {
        self.0 + 1
    }
}

/// Result of a claim attempt ([`SleepSlotBuffer::try_claim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// A slot was claimed; the caller must eventually call
    /// [`SleepSlotBuffer::leave`] with this index exactly once.  The index is
    /// global (`shard * shard_capacity + slot`), so it also records which
    /// shard the claim landed on.
    Claimed(usize),
    /// `S − W ≥ T`: no thread needs to sleep right now (the common case).
    NoSpace,
    /// Another thread won the race for the head slot (in the home shard and,
    /// when sharded, in the neighbour probed next); per the paper the caller
    /// just keeps polling the lock.
    Raced,
}

/// Counters describing the buffer's activity (aggregated over all shards).
///
/// Field meanings, in the paper's terms:
///
/// * `ever_slept` is **`S`** — cumulative successful slot claims.  It only
///   ever grows, and a snapshot always satisfies
///   `ever_slept >= woken_and_left` (each shard loads `W` before `S`, and a
///   departure is recorded only after its matching claim), so
///   `ever_slept − woken_and_left` is the outstanding-claim count.
/// * `woken_and_left` is **`W`** — cumulative departures: woken by the
///   controller, timed out, or cancelled before sleeping.  A quiesced buffer
///   has `W == S`.
/// * `target` is **`T`** — how many waiters the controller currently wants
///   asleep (`sum(T_i)` over shards).
/// * `controller_wakes` counts claims cleared *by the controller* (early
///   wakes), a subset of the departures in `woken_and_left`.
/// * `claim_races` counts claim attempts that lost a head-`S` CAS.  This is
///   the buffer's contention signal: per-shard race counts (via
///   [`SleepSlotBuffer::shard_stats`] / the buffer's `Debug` output) rising
///   on specific shards is the cue to raise the shard count or switch to the
///   `load-weighted` splitter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotBufferStats {
    /// Total successful claims (`sum S_i`).
    pub ever_slept: u64,
    /// Total departures (`sum W_i`); never exceeds `ever_slept` in a
    /// snapshot.
    pub woken_and_left: u64,
    /// Current sleep target (`sum T_i`).
    pub target: u64,
    /// Claims cleared by the controller (threads woken early).
    pub controller_wakes: u64,
    /// Claim attempts that lost a head CAS (contention on the claim path).
    pub claim_races: u64,
    /// Sleepers currently exempt from the wake scan (active combiners).
    /// This is a buffer-global property; per-shard snapshots
    /// ([`SleepSlotBuffer::shard_stats`]) report it as 0 so summing shard
    /// stats never double-counts it.
    pub exempt: u64,
    /// Wait-time summary of every completed sleep episode (count, p50/p99
    /// bucket upper bounds and max, in nanoseconds) from the buffer's
    /// [`lc_locks::stats::WaitHistogram`].  Buffer-global like `exempt`:
    /// per-shard snapshots report the default (all-zero) observation.
    pub wait: WaitObservation,
}

impl fmt::Display for SlotBufferStats {
    /// Renders the paper's letters directly: `S=.. W=.. T=..` plus the
    /// derived diagnostics (`sleeping = S − W`, controller wakes, races,
    /// wake-scan exemptions).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} W={} T={} sleeping={} controller_wakes={} claim_races={} exempt={} \
             wait_count={} wait_p50_ns={} wait_p99_ns={} wait_max_ns={}",
            self.ever_slept,
            self.woken_and_left,
            self.target,
            self.ever_slept.saturating_sub(self.woken_and_left),
            self.controller_wakes,
            self.claim_races,
            self.exempt,
            self.wait.count,
            self.wait.p50_ns,
            self.wait.p99_ns,
            self.wait.max_ns,
        )
    }
}

/// One shard's counters as seen by a target splitter
/// ([`crate::policy::TargetSplitter`]) at the start of a controller cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Outstanding claims in this shard (`S_i − W_i`).
    pub sleepers: u64,
    /// Cumulative successful claims in this shard (`S_i`).
    pub ever_slept: u64,
    /// Cumulative lost head CASes in this shard.
    pub claim_races: u64,
    /// The shard's currently published target (`T_i`).
    pub target: u64,
}

/// Splits `total` as evenly as possible over `shards` shards, each capped at
/// `shard_capacity`; the first `total mod shards` shards receive the extra
/// unit.  The returned targets always sum to
/// `min(total, shards * shard_capacity)`.
pub fn even_split(total: u64, shards: usize, shard_capacity: u64) -> Vec<u64> {
    let n = shards.max(1) as u64;
    let total = total.min(n * shard_capacity);
    let base = total / n;
    let rem = total % n;
    (0..n)
        .map(|i| if i < rem { base + 1 } else { base })
        .collect()
}

/// Maximum number of sleepers that can be wake-scan exempt at once.
///
/// Exemptions mark *active combiners* (delegation locks, see
/// `lc_locks::delegation`): at most one combiner per delegation lock can be
/// active at a time, so 16 concurrent exemptions is far above any realistic
/// lock population per control instance.
pub const MAX_EXEMPT: usize = 16;

/// A small lock-free set of slot values (`SleeperId + 1`) the controller's
/// wake scan must skip.
///
/// The wake scan clears occupied slots to wake sleepers; a slot owned by a
/// thread that is currently *combining* (executing other threads' critical
/// sections in a delegation lock) should not absorb one of those wakes — the
/// combiner is running, so clearing its slot wastes the wake on a thread
/// that cannot respond and leaves an actual sleeper parked.
struct ExemptSet {
    entries: [AtomicU64; MAX_EXEMPT],
    skips: AtomicU64,
}

impl ExemptSet {
    fn new() -> Self {
        Self {
            entries: std::array::from_fn(|_| AtomicU64::new(0)),
            skips: AtomicU64::new(0),
        }
    }

    /// Adds `value`; `true` on success or if already present, `false` when
    /// all entries are taken.
    fn insert(&self, value: u64) -> bool {
        if self.contains(value) {
            return true;
        }
        for entry in &self.entries {
            if entry
                .compare_exchange(0, value, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    fn remove(&self, value: u64) {
        for entry in &self.entries {
            let _ = entry.compare_exchange(value, 0, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    fn contains(&self, value: u64) -> bool {
        value != 0
            && self
                .entries
                .iter()
                .any(|e| e.load(Ordering::Acquire) == value)
    }

    fn clear_all(&self) {
        for entry in &self.entries {
            entry.store(0, Ordering::Release);
        }
    }

    fn ids(&self) -> Vec<u64> {
        self.entries
            .iter()
            .filter_map(|e| {
                let v = e.load(Ordering::Acquire);
                (v != 0).then(|| v - 1)
            })
            .collect()
    }
}

/// One shard: a private `S`/`W`/`T` triple plus its slice of the slot ring.
struct Shard {
    /// `S_i`: number of threads that ever claimed a slot here; also the head.
    ever_slept: CachePadded<AtomicU64>,
    /// `W_i`: number of threads that have since left.
    woken: CachePadded<AtomicU64>,
    /// `T_i`: how many threads the controller wants asleep in this shard.
    target: CachePadded<AtomicU64>,
    /// Ring of slots; `0` = empty, otherwise `SleeperId + 1`.
    slots: Box<[AtomicU64]>,
    /// Claim stamp of each slot: the head-`S` value the claim committed at,
    /// plus one (so 0 = never claimed).  Monotonic per shard, which gives
    /// the window wake order its oldest-claim-first key.  A stamp is stored
    /// *before* its slot value, so an occupied slot always has a current
    /// stamp; a stale stamp under an empty slot is harmless (occupancy is
    /// checked first).
    stamps: Box<[AtomicU64]>,
    controller_wakes: AtomicU64,
    claim_races: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let stamps = (0..capacity)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            ever_slept: CachePadded::new(AtomicU64::new(0)),
            woken: CachePadded::new(AtomicU64::new(0)),
            target: CachePadded::new(AtomicU64::new(0)),
            slots,
            stamps,
            controller_wakes: AtomicU64::new(0),
            claim_races: AtomicU64::new(0),
        }
    }

    /// Outstanding claims (`S_i − W_i`).
    ///
    /// `W` is read *before* `S`: a departure is only ever recorded after its
    /// matching claim (by the same thread), so this order can never observe
    /// `W > S` — at worst it overcounts sleepers by claims that landed
    /// between the two loads, which only makes callers more conservative.
    fn sleepers(&self) -> u64 {
        let w = self.woken.load(Ordering::Acquire);
        let s = self.ever_slept.load(Ordering::Acquire);
        s.saturating_sub(w)
    }

    /// Whether a claim could succeed in this shard right now.
    #[inline]
    fn has_space(&self) -> bool {
        let t = self.target.load(Ordering::Relaxed);
        t != 0 && self.sleepers() < t
    }

    /// First half of a claim: load `T`/`S`/`W` and decide whether a claim
    /// may proceed.  Returns the observed head `S` the second half must CAS
    /// against, or `None` when there is no space (`T = 0` or `S − W ≥ T`).
    fn begin_claim(&self) -> Option<u64> {
        let t = self.target.load(Ordering::Acquire);
        let s = self.ever_slept.load(Ordering::Acquire);
        let w = self.woken.load(Ordering::Acquire);
        if t == 0 || s.saturating_sub(w) >= t {
            return None;
        }
        Some(s)
    }

    /// Second half of a claim: the head CAS against the `S` observed by
    /// [`Shard::begin_claim`], the slot write, then a re-check of the
    /// admission.
    ///
    /// `S` advances before the slot is written, so a wake scan that runs in
    /// between (the target shrank) counts this claim among the sleepers but
    /// finds no slot to clear — and the controller republishes on change
    /// only, so nobody would wake this thread before its sleep timeout.  The
    /// claimer therefore re-reads `T` and `S − W` after publishing its slot
    /// and backs out if the shard is now over target.
    fn commit_claim(&self, sleeper: SleeperId, observed: u64) -> ClaimOutcome {
        if self
            .ever_slept
            .compare_exchange(observed, observed + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.claim_races.fetch_add(1, Ordering::Relaxed);
            return ClaimOutcome::Raced;
        }
        let idx = (observed as usize) % self.slots.len();
        // Stamp before the slot write: once the slot reads occupied, its
        // claim-order key is already in place for the window wake scan.
        self.stamps[idx].store(observed + 1, Ordering::Release);
        self.slots[idx].store(sleeper.slot_value(), Ordering::Release);
        // Pairs with the fence in `SleepSlotBuffer::publish_locked` /
        // `wake_all` (store `T`; fence; scan slots): of a claimer's slot
        // store and a publisher's target store, at least one is seen by the
        // other side, so either the scan clears this slot or the loads below
        // see the shrunk target.
        fence(Ordering::SeqCst);
        if self.sleepers() > self.target.load(Ordering::Acquire) {
            self.leave(idx, sleeper);
            return ClaimOutcome::NoSpace;
        }
        ClaimOutcome::Claimed(idx)
    }

    /// Releases the claim in slot `idx`: clears the slot if it is still
    /// `sleeper`'s (a lost CAS means the wake scan cleared it first) and
    /// records the departure in `W`.
    fn leave(&self, idx: usize, sleeper: SleeperId) {
        let _ = self.slots[idx].compare_exchange(
            sleeper.slot_value(),
            0,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        self.woken.fetch_add(1, Ordering::AcqRel);
    }

    /// One claim attempt on this shard's head — a single CAS, exactly as in
    /// the paper; a lost CAS reports [`ClaimOutcome::Raced`] and the caller
    /// goes back to polling.
    fn try_claim(&self, sleeper: SleeperId) -> ClaimOutcome {
        match self.begin_claim() {
            Some(s) => self.commit_claim(sleeper, s),
            None => ClaimOutcome::NoSpace,
        }
    }

    /// Clears up to `count` occupied slots in this shard, skipping any slot
    /// whose owner is in `exempt` (the active-combiner exemption), and
    /// appends the owners' parker indices to `wakes` — the caller unparks
    /// the whole batch once, instead of a per-slot round trip through the
    /// parker table.  Returns how many slots were cleared.
    ///
    /// `order` picks which occupants a *partial* wake reaches:
    /// [`WakeOrder::Fifo`] walks the ring in array order (the paper's scan),
    /// [`WakeOrder::Window`] visits occupied slots oldest claim first (by
    /// claim stamp), so no sleeper's age can grow unboundedly across
    /// repeated partial scans.
    fn collect_wakes(
        &self,
        count: usize,
        order: WakeOrder,
        exempt: &ExemptSet,
        wakes: &mut Vec<u64>,
    ) -> usize {
        if count == 0 {
            return 0;
        }
        match order {
            WakeOrder::Fifo => {
                let mut cleared = 0;
                for slot in self.slots.iter() {
                    if cleared >= count {
                        break;
                    }
                    cleared += self.try_clear(slot, exempt, wakes);
                }
                cleared
            }
            WakeOrder::Window => {
                // Gather the occupied slots' (stamp, index) pairs, then
                // clear in stamp order.  The claim stamp is stored before
                // the slot value, so every slot observed occupied here has
                // a current stamp; a slot that empties (or is re-claimed)
                // between the gather and the clear just loses its CAS — the
                // scan stays lock-free and never wakes anyone twice.
                let mut occupied: Vec<(u64, usize)> = Vec::with_capacity(self.slots.len());
                for (idx, slot) in self.slots.iter().enumerate() {
                    if slot.load(Ordering::Acquire) != 0 {
                        occupied.push((self.stamps[idx].load(Ordering::Acquire), idx));
                    }
                }
                occupied.sort_unstable();
                let mut cleared = 0;
                for (_, idx) in occupied {
                    if cleared >= count {
                        break;
                    }
                    cleared += self.try_clear(&self.slots[idx], exempt, wakes);
                }
                cleared
            }
        }
    }

    /// One wake-scan visit of `slot`: skip if empty or exempt, else CAS it
    /// clear and record the owner.  Returns 1 if the slot was cleared.
    #[inline]
    fn try_clear(&self, slot: &AtomicU64, exempt: &ExemptSet, wakes: &mut Vec<u64>) -> usize {
        let v = slot.load(Ordering::Acquire);
        if v == 0 {
            return 0;
        }
        if exempt.contains(v) {
            exempt.skips.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        if slot
            .compare_exchange(v, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            wakes.push(v - 1);
            self.controller_wakes.fetch_add(1, Ordering::Relaxed);
            1
        } else {
            0
        }
    }
}

/// The shared sleep slot buffer: one or more shards plus the global
/// parker table.
pub struct SleepSlotBuffer {
    /// The shards; the set is fixed at construction (a power of two).
    shards: Box<[Shard]>,
    /// Slots per shard (`capacity / shard count`, rounded up).
    shard_capacity: usize,
    /// `shard count − 1`: a sleeper's home shard is `id & mask`.
    mask: usize,
    /// The capacity the caller asked for.  Per-shard rounding can make the
    /// physical slot count ([`SleepSlotBuffer::capacity`]) larger; the
    /// global target cap stays at the *requested* value so a sharded buffer
    /// never admits more simultaneous sleepers than an unsharded one built
    /// with the same argument.
    requested_capacity: u64,
    /// Cached `sum(T_i)`, so the global target is one load on read paths.
    total_target: CachePadded<AtomicU64>,
    /// Serializes target publication: a partition is `shard_count + 1`
    /// stores, and two concurrent publishers (the controller daemon and a
    /// `set_sleep_target` caller) interleaving them could otherwise leave
    /// the shard targets a mix of two partitions with the cached total out
    /// of sync — permanently, since the controller republishes on change
    /// only.  The claim path never takes this lock.
    publish: Mutex<()>,
    /// Registered sleepers' parkers, indexed by `SleeperId`.
    parkers: Mutex<Vec<Arc<Parker>>>,
    /// Sleepers the wake scan must skip (active combiners; see
    /// [`SleepSlotBuffer::set_exempt`]).
    exempt: ExemptSet,
    /// Order of the controller's batched wake scan within each shard
    /// (see [`WakeOrder`]; set at construction via
    /// [`SleepSlotBuffer::with_wake_order`]).
    wake_order: WakeOrder,
    /// Wait-time histogram of completed sleep episodes, fed by
    /// [`SleepSlotBuffer::record_wait`] from both waiter kinds (thread and
    /// async) through the [`crate::time::TimeSource`] seam — so it works on
    /// real and virtual time alike.
    wait: WaitHistogram,
}

impl fmt::Debug for SleepSlotBuffer {
    /// Shows the aggregate `S`/`W`/`T` books **and** the per-shard claim-race
    /// counters: an aggregate race count that looks healthy can hide one hot
    /// shard absorbing all the CAS losses, which is exactly the signal that
    /// decides shard-count and splitter tuning.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("SleepSlotBuffer")
            .field("S", &stats.ever_slept)
            .field("W", &stats.woken_and_left)
            .field("T", &stats.target)
            .field("claim_races", &stats.claim_races)
            .field("claim_races_per_shard", &self.claim_races_per_shard())
            .field("exempt", &stats.exempt)
            .field("capacity", &self.capacity())
            .field("shards", &self.shard_count())
            .finish()
    }
}

impl SleepSlotBuffer {
    /// Creates a single-shard buffer able to hold up to `capacity`
    /// simultaneous sleepers — behaviourally identical to the paper's
    /// unsharded `S`/`W`/`T` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Creates a buffer with `shards` shards (a non-zero power of two) whose
    /// total capacity is at least `capacity` (`capacity / shards` slots per
    /// shard, rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `shards` is not a non-zero power of
    /// two.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "sleep slot buffer capacity must be non-zero");
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a non-zero power of two (got {shards})"
        );
        let shard_capacity = capacity.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Shard::new(shard_capacity)).collect(),
            shard_capacity,
            mask: shards - 1,
            requested_capacity: capacity as u64,
            total_target: CachePadded::new(AtomicU64::new(0)),
            publish: Mutex::new(()),
            parkers: Mutex::new(Vec::new()),
            exempt: ExemptSet::new(),
            wake_order: WakeOrder::Fifo,
            wait: WaitHistogram::new(),
        }
    }

    /// Returns `self` with the wake scan running in `order` (construction
    /// knob; [`WakeOrder::Fifo`] is the default and the paper's behavior).
    pub fn with_wake_order(mut self, order: WakeOrder) -> Self {
        self.wake_order = order;
        self
    }

    /// The wake-scan order this buffer was built with.
    pub fn wake_order(&self) -> WakeOrder {
        self.wake_order
    }

    /// Records one completed sleep episode of `elapsed` into the buffer's
    /// wait-time histogram.  Called by [`crate::time::SlotWait::finish`] (the
    /// shared sync/DES wait machine) and by the async plane's episode
    /// teardown, with durations measured on this instance's
    /// [`crate::time::TimeSource`].
    #[inline]
    pub fn record_wait(&self, elapsed: Duration) {
        self.wait.record(elapsed);
    }

    /// A snapshot of the wait-time histogram (all completed episodes since
    /// construction; windows via [`WaitSnapshot::since`]).
    pub fn wait_snapshot(&self) -> WaitSnapshot {
        self.wait.snapshot()
    }

    /// Total number of slots across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Number of shards (always a power of two; 1 for the unsharded
    /// default), fixed at construction.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of slots in each shard's ring.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Registers a thread (by its parker) as a potential sleeper.
    pub fn register_sleeper(&self, parker: Arc<Parker>) -> SleeperId {
        let mut table = self.parkers.lock().unwrap();
        table.push(parker);
        SleeperId(table.len() as u64 - 1)
    }

    /// The home shard of `sleeper`: `id & (shard_count − 1)`, stable for the
    /// buffer's lifetime.
    #[inline]
    pub fn home_shard(&self, sleeper: SleeperId) -> usize {
        sleeper.0 as usize & self.mask
    }

    /// The current global sleep target (`sum(T_i)`).
    pub fn target(&self) -> u64 {
        self.total_target.load(Ordering::Relaxed)
    }

    /// The target currently assigned to shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_target(&self, shard: usize) -> u64 {
        self.shards[shard].target.load(Ordering::Relaxed)
    }

    /// Number of outstanding claims (`sum(S_i − W_i)`): threads asleep or
    /// about to be.
    pub fn sleepers(&self) -> u64 {
        self.shards.iter().map(Shard::sleepers).sum()
    }

    /// Outstanding claims in shard `shard` (`S_i − W_i`).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_sleepers(&self, shard: usize) -> u64 {
        self.shards[shard].sleepers()
    }

    /// Whether a spinning thread should try to claim a slot right now,
    /// globally (`sum(S_i − W_i) < sum(T_i)`).
    ///
    /// With more than one shard prefer [`SleepSlotBuffer::has_space_for`],
    /// which touches only the shards a claim could actually land on.
    #[inline]
    pub fn has_space(&self) -> bool {
        let t = self.target();
        if t == 0 {
            return false;
        }
        self.sleepers() < t
    }

    /// The cheap polling-path check for a specific sleeper: does its home
    /// shard — or, when sharded, the neighbour it would overflow-probe —
    /// currently have room?  When neither local shard can take a claim but
    /// the global target is non-zero (a small or skewed target split left
    /// the local pair closed or full), the check widens to the remaining
    /// shards so no spinner is blind to open slots.  Equivalent to
    /// [`SleepSlotBuffer::has_space`] when there is a single shard.
    #[inline]
    pub fn has_space_for(&self, sleeper: SleeperId) -> bool {
        let home = self.home_shard(sleeper);
        if self.shards[home].has_space() {
            return true;
        }
        if self.mask == 0 {
            return false;
        }
        let neighbour = (home + 1) & self.mask;
        if self.shards[neighbour].has_space() {
            return true;
        }
        // The wide scan (home and neighbour already answered) runs only when
        // the local fast path failed, and the check itself only runs once
        // per slot-check period — the cost of not stranding spinners behind
        // a closed or saturated local pair is a bounded, period-amortized
        // walk of the remaining shards in the saturated steady state.
        self.target() > 0
            && self
                .shards
                .iter()
                .enumerate()
                .any(|(idx, shard)| idx != home && idx != neighbour && shard.has_space())
    }

    /// Attempts to claim a slot for `sleeper`: one CAS attempt on the home
    /// shard's head and, if that shard is full or the CAS is lost, one
    /// overflow probe of the neighbour shard (so a raced or saturated home
    /// shard does not strand a sleeper).  If *neither* local shard takes the
    /// claim while the buffer globally still wants sleepers — a target
    /// smaller than the shard count, or a skewed split that saturated the
    /// local pair — the probe widens to the remaining shards so no partition
    /// can make the global target unreachable.  Losing everywhere just means
    /// going back to polling, as in the paper.
    pub fn try_claim(&self, sleeper: SleeperId) -> ClaimOutcome {
        let home = self.home_shard(sleeper);
        let first = match self.shards[home].try_claim(sleeper) {
            ClaimOutcome::Claimed(idx) => {
                return ClaimOutcome::Claimed(home * self.shard_capacity + idx)
            }
            other => other,
        };
        if self.mask == 0 {
            return first;
        }
        let neighbour = (home + 1) & self.mask;
        let second = match self.shards[neighbour].try_claim(sleeper) {
            ClaimOutcome::Claimed(idx) => {
                return ClaimOutcome::Claimed(neighbour * self.shard_capacity + idx)
            }
            other => other,
        };
        let mut raced = first == ClaimOutcome::Raced || second == ClaimOutcome::Raced;
        if self.target() > 0 {
            for (idx, shard) in self.shards.iter().enumerate() {
                if idx == home || idx == neighbour {
                    continue;
                }
                match shard.try_claim(sleeper) {
                    ClaimOutcome::Claimed(slot) => {
                        return ClaimOutcome::Claimed(idx * self.shard_capacity + slot)
                    }
                    ClaimOutcome::Raced => raced = true,
                    ClaimOutcome::NoSpace => {}
                }
            }
        }
        if raced {
            ClaimOutcome::Raced
        } else {
            ClaimOutcome::NoSpace
        }
    }

    /// Whether the slot at `idx` still belongs to `sleeper` (i.e. the
    /// controller has not cleared it yet).
    pub fn still_claimed(&self, idx: usize, sleeper: SleeperId) -> bool {
        let (shard, slot) = self.locate(idx);
        self.shards[shard].slots[slot].load(Ordering::Acquire) == sleeper.slot_value()
    }

    /// Releases a claim: clears the slot if it is still ours and increments
    /// the owning shard's `W`.  Must be called exactly once per successful
    /// claim — whether the thread slept and woke, timed out, or acquired the
    /// lock before ever sleeping.
    pub fn leave(&self, idx: usize, sleeper: SleeperId) {
        let (shard, slot) = self.locate(idx);
        self.shards[shard].leave(slot, sleeper);
    }

    #[inline]
    fn locate(&self, idx: usize) -> (usize, usize) {
        (idx / self.shard_capacity, idx % self.shard_capacity)
    }

    /// Sets the global sleep target, partitioned evenly across shards and
    /// capped at the capacity the buffer was built with (the *requested*
    /// capacity — per-shard rounding never widens the cap).  If a shard's
    /// target shrank below its current sleepers, wakes the excess in that
    /// shard immediately (the controller side of Figure 7).  Returns how
    /// many sleepers were woken.
    ///
    /// The controller publishes load-aware partitions through
    /// [`SleepSlotBuffer::set_shard_targets`]; this even split is the manual
    /// / single-shard entry point.
    pub fn set_target(&self, new_target: u64) -> usize {
        let capped = new_target.min(self.requested_capacity);
        let split = even_split(capped, self.shard_count(), self.shard_capacity as u64);
        let _publish = self.publish.lock().unwrap();
        self.publish_locked(&split)
    }

    /// Publishes one target per shard (`targets.len()` must equal
    /// [`SleepSlotBuffer::shard_count`]; each entry is capped at the shard
    /// capacity).  The wake scan then walks **only** the shards whose target
    /// shrank below their outstanding claims.  Returns the total number of
    /// sleepers woken.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != shard_count()`.
    pub fn set_shard_targets(&self, targets: &[u64]) -> usize {
        assert_eq!(
            targets.len(),
            self.shard_count(),
            "one target per shard required"
        );
        // One publisher at a time: a partition is many stores, and two
        // interleaved publishers would leave the shard targets a mix of two
        // partitions with the cached total out of sync.
        let _publish = self.publish.lock().unwrap();
        self.publish_locked(targets)
    }

    /// Publishes `targets` only if the global target still equals
    /// `expected_total` — the controller's *rebalance* path, which
    /// repartitions an unchanged total and must not clobber a target that an
    /// external [`SleepSlotBuffer::set_target`] caller changed since the
    /// cycle read it.  Returns `None` (nothing published) when the total
    /// moved or `targets` does not hold one entry per shard.
    pub fn set_shard_targets_if(&self, targets: &[u64], expected_total: u64) -> Option<usize> {
        if targets.len() != self.shard_count() {
            return None;
        }
        let _publish = self.publish.lock().unwrap();
        if self.total_target.load(Ordering::Relaxed) != expected_total {
            return None;
        }
        Some(self.publish_locked(targets))
    }

    /// The publication body; the caller holds the `publish` lock.
    ///
    /// The shrink pass is **batched**: every shard whose target fell below
    /// its outstanding claims contributes its wake candidates to one list,
    /// and the whole list is unparked in a single pass over the parker
    /// table — one lock round trip instead of one per slot.
    fn publish_locked(&self, targets: &[u64]) -> usize {
        let mut total = 0u64;
        for (shard, &target) in self.shards.iter().zip(targets) {
            let capped = target.min(self.shard_capacity as u64);
            total += capped;
            shard.target.store(capped, Ordering::Release);
        }
        self.total_target.store(total, Ordering::Release);
        // Pairs with the fence in `Shard::commit_claim` (store slot; fence;
        // re-read `T`): a claim whose slot this scan misses sees the targets
        // stored above and backs out on its own.
        fence(Ordering::SeqCst);
        let mut wakes = Vec::new();
        for shard in self.shards.iter() {
            let target = shard.target.load(Ordering::Relaxed);
            let sleepers = shard.sleepers();
            if sleepers > target {
                shard.collect_wakes(
                    (sleepers - target) as usize,
                    self.wake_order,
                    &self.exempt,
                    &mut wakes,
                );
            }
        }
        self.unpark_batch(&wakes);
        wakes.len()
    }

    /// Unparks every collected wake candidate in one pass over the parker
    /// table (the batch half of the two-phase wake scan).
    fn unpark_batch(&self, wakes: &[u64]) {
        if wakes.is_empty() {
            return;
        }
        let table = self.parkers.lock().unwrap();
        for &idx in wakes {
            if let Some(p) = table.get(idx as usize) {
                p.unpark();
            }
        }
    }

    /// Clears up to `count` occupied slots (scanning the shards in order) and
    /// unparks their owners in one batch.  Returns how many were actually
    /// woken.
    pub fn wake(&self, count: usize) -> usize {
        if count == 0 {
            return 0;
        }
        let mut wakes = Vec::new();
        let mut remaining = count;
        for shard in self.shards.iter() {
            if remaining == 0 {
                break;
            }
            remaining -= shard.collect_wakes(remaining, self.wake_order, &self.exempt, &mut wakes);
        }
        self.unpark_batch(&wakes);
        wakes.len()
    }

    /// Wakes every sleeper and resets all targets to zero (shutdown path).
    ///
    /// Exemptions are cleared first: shutdown must release *everyone*,
    /// including a combiner whose slot the ordinary wake scan would skip.
    pub fn wake_all(&self) -> usize {
        {
            let _publish = self.publish.lock().unwrap();
            for shard in self.shards.iter() {
                shard.target.store(0, Ordering::Release);
            }
            self.total_target.store(0, Ordering::Release);
        }
        self.exempt.clear_all();
        // As in `publish_locked`: a claim this scan misses sees the zero
        // target and backs out.
        fence(Ordering::SeqCst);
        self.wake(self.capacity())
    }

    /// Marks `sleeper` exempt from the controller's wake scan — the
    /// active-combiner exemption of the delegation lock plane: while a
    /// thread executes other threads' critical sections, clearing its sleep
    /// slot would waste a wake on a thread that is already running.
    ///
    /// Returns `false` when the exempt table is full ([`MAX_EXEMPT`]
    /// concurrent exemptions) — the caller simply proceeds without the
    /// exemption, which is safe (a skipped exemption only means the combiner
    /// can absorb a wake it does not need).
    pub fn set_exempt(&self, sleeper: SleeperId) -> bool {
        self.exempt.insert(sleeper.slot_value())
    }

    /// Removes `sleeper`'s wake-scan exemption, if present.
    pub fn clear_exempt(&self, sleeper: SleeperId) {
        self.exempt.remove(sleeper.slot_value());
    }

    /// Whether `sleeper` is currently exempt from the wake scan.
    pub fn is_exempt(&self, sleeper: SleeperId) -> bool {
        self.exempt.contains(sleeper.slot_value())
    }

    /// Raw registration indices ([`SleeperId::index`]) of every currently
    /// exempt sleeper, for introspection and tests.
    pub fn exempt_ids(&self) -> Vec<u64> {
        self.exempt.ids()
    }

    /// Number of wake-scan encounters with an exempt slot (each one skipped
    /// and redirected to the next occupied slot).
    pub fn exempt_skips(&self) -> u64 {
        self.exempt.skips.load(Ordering::Relaxed)
    }

    /// Snapshot of the buffer's counters, aggregated over all shards.
    ///
    /// Within each shard `W` is loaded *before* `S`: a departure is recorded
    /// only after its matching claim by the same thread, so per shard — and
    /// therefore in the sum — a snapshot always satisfies
    /// `ever_slept >= woken_and_left`.
    pub fn stats(&self) -> SlotBufferStats {
        let mut stats = SlotBufferStats {
            target: self.target(),
            exempt: self.exempt.ids().len() as u64,
            wait: self.wait.snapshot().observation(),
            ..SlotBufferStats::default()
        };
        for shard in self.shards.iter() {
            let w = shard.woken.load(Ordering::Acquire);
            let s = shard.ever_slept.load(Ordering::Acquire);
            stats.ever_slept += s;
            stats.woken_and_left += w;
            stats.controller_wakes += shard.controller_wakes.load(Ordering::Relaxed);
            stats.claim_races += shard.claim_races.load(Ordering::Relaxed);
        }
        stats
    }

    /// Counters for one shard (`target` is the shard's own `T_i`).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_stats(&self, shard: usize) -> SlotBufferStats {
        let shard = &self.shards[shard];
        let w = shard.woken.load(Ordering::Acquire);
        let s = shard.ever_slept.load(Ordering::Acquire);
        SlotBufferStats {
            ever_slept: s,
            woken_and_left: w,
            target: shard.target.load(Ordering::Relaxed),
            controller_wakes: shard.controller_wakes.load(Ordering::Relaxed),
            claim_races: shard.claim_races.load(Ordering::Relaxed),
            // Exemption and wait stats are buffer-global; defaults here keep
            // shard sums honest.
            exempt: 0,
            wait: WaitObservation::default(),
        }
    }

    /// Lost head-CAS counts per shard, in shard order.
    ///
    /// The per-shard breakdown of [`SlotBufferStats::claim_races`]: a single
    /// hot shard (skewed home-shard assignment, or too few shards for the
    /// waiter population) shows up here while the aggregate still looks
    /// flat.
    pub fn claim_races_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.claim_races.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-shard snapshots for the controller's target splitter.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|shard| {
                let w = shard.woken.load(Ordering::Acquire);
                let s = shard.ever_slept.load(Ordering::Acquire);
                ShardSnapshot {
                    sleepers: s.saturating_sub(w),
                    ever_slept: s,
                    claim_races: shard.claim_races.load(Ordering::Relaxed),
                    target: shard.target.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper(buf: &SleepSlotBuffer) -> SleeperId {
        buf.register_sleeper(Arc::new(Parker::new()))
    }

    #[test]
    fn no_space_when_target_is_zero() {
        let buf = SleepSlotBuffer::new(8);
        let id = sleeper(&buf);
        assert!(!buf.has_space());
        assert!(!buf.has_space_for(id));
        assert_eq!(buf.try_claim(id), ClaimOutcome::NoSpace);
        assert_eq!(buf.sleepers(), 0);
    }

    #[test]
    fn claim_and_leave_balance_s_and_w() {
        let buf = SleepSlotBuffer::new(8);
        let id = sleeper(&buf);
        buf.set_target(2);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        assert_eq!(buf.sleepers(), 1);
        assert!(buf.still_claimed(idx, id));
        buf.leave(idx, id);
        assert_eq!(buf.sleepers(), 0);
        assert!(!buf.still_claimed(idx, id));
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, 1);
        assert_eq!(stats.woken_and_left, 1);
    }

    #[test]
    fn claims_stop_at_target() {
        let buf = SleepSlotBuffer::new(16);
        buf.set_target(2);
        let a = sleeper(&buf);
        let b = sleeper(&buf);
        let c = sleeper(&buf);
        assert!(matches!(buf.try_claim(a), ClaimOutcome::Claimed(_)));
        assert!(matches!(buf.try_claim(b), ClaimOutcome::Claimed(_)));
        assert_eq!(buf.try_claim(c), ClaimOutcome::NoSpace);
        assert_eq!(buf.sleepers(), 2);
    }

    #[test]
    fn shrinking_target_wakes_excess_sleepers() {
        let buf = SleepSlotBuffer::new(16);
        buf.set_target(3);
        let parkers: Vec<Arc<Parker>> = (0..3).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        let mut claims = Vec::new();
        for id in &ids {
            match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => claims.push(idx),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(buf.sleepers(), 3);

        // Shrink the target: two sleepers must be cleared and unparked.
        let woken = buf.set_target(1);
        assert_eq!(woken, 2);
        let cleared = ids
            .iter()
            .zip(&claims)
            .filter(|(id, idx)| !buf.still_claimed(**idx, **id))
            .count();
        assert_eq!(cleared, 2);
        // Two parkers received permits.
        let permits: u64 = parkers.iter().map(|p| p.unpark_count()).sum();
        assert_eq!(permits, 2);
        assert_eq!(buf.stats().controller_wakes, 2);

        // Every claimant still leaves exactly once.
        for (id, idx) in ids.iter().zip(&claims) {
            buf.leave(*idx, *id);
        }
        assert_eq!(buf.sleepers(), 0);
    }

    /// Builds the slot layout where fifo and window wake order disagree:
    /// a ring of 4 where the oldest claim sits at slot 1 and the *newest*
    /// wrapped around into slot 0.  Returns `(buffer, ids, claims)` with
    /// ids[0] already departed.
    fn wrapped_ring(order: WakeOrder) -> (SleepSlotBuffer, Vec<SleeperId>, Vec<usize>) {
        let buf = SleepSlotBuffer::new(4).with_wake_order(order);
        buf.set_target(4);
        let ids: Vec<_> = (0..5).map(|_| sleeper(&buf)).collect();
        let mut claims: Vec<usize> = ids[..4]
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(claims, vec![0, 1, 2, 3]);
        // The first claimant leaves; the next claim wraps into its slot.
        buf.leave(claims[0], ids[0]);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(ids[4]) else {
            panic!("wrap-around claim failed");
        };
        assert_eq!(idx, 0, "head must wrap into the vacated slot");
        claims.push(idx);
        (buf, ids, claims)
    }

    #[test]
    fn fifo_wake_order_favors_low_slot_indices() {
        let (buf, ids, claims) = wrapped_ring(WakeOrder::Fifo);
        assert_eq!(buf.wake_order(), WakeOrder::Fifo);
        assert_eq!(buf.wake(1), 1);
        // Array order visits slot 0 first — the *newest* claim (ids[4]).
        assert!(!buf.still_claimed(claims[4], ids[4]));
        assert!(buf.still_claimed(claims[1], ids[1]), "oldest left parked");
    }

    #[test]
    fn window_wake_order_clears_the_oldest_claim_first() {
        let (buf, ids, claims) = wrapped_ring(WakeOrder::Window);
        assert_eq!(buf.wake_order(), WakeOrder::Window);
        assert_eq!(buf.wake(1), 1);
        // Stamp order finds the oldest outstanding claim (ids[1], slot 1)
        // even though a newer claim occupies a lower array index.
        assert!(!buf.still_claimed(claims[1], ids[1]));
        assert!(buf.still_claimed(claims[4], ids[4]), "newest left parked");
        // Waking the rest drains oldest-first with no double wakes.
        assert_eq!(buf.wake(8), 3);
        assert_eq!(buf.stats().controller_wakes, 4);
    }

    #[test]
    fn record_wait_feeds_the_buffer_histogram() {
        let buf = SleepSlotBuffer::new(4);
        assert_eq!(
            buf.stats().wait,
            lc_locks::stats::WaitObservation::default()
        );
        buf.record_wait(Duration::from_micros(10));
        buf.record_wait(Duration::from_micros(10));
        let wait = buf.stats().wait;
        assert_eq!(wait.count, 2);
        assert!(wait.p99_ns >= 10_000, "p99 below a recorded value");
        assert!(wait.p99_ns <= 12_500, "p99 outside the 25% error bound");
        let snap = buf.wait_snapshot();
        assert_eq!(snap.count(), 2);
    }

    #[test]
    fn growing_target_wakes_nobody() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(1);
        let id = sleeper(&buf);
        assert!(matches!(buf.try_claim(id), ClaimOutcome::Claimed(_)));
        assert_eq!(buf.set_target(4), 0);
        assert_eq!(buf.sleepers(), 1);
    }

    #[test]
    fn wake_all_clears_everything() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(4);
        let ids: Vec<_> = (0..4).map(|_| sleeper(&buf)).collect();
        let claims: Vec<_> = ids
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(buf.wake_all(), 4);
        assert_eq!(buf.target(), 0);
        for (id, idx) in ids.iter().zip(&claims) {
            assert!(!buf.still_claimed(*idx, *id));
            buf.leave(*idx, *id);
        }
        assert_eq!(buf.sleepers(), 0);
    }

    #[test]
    fn target_is_capped_by_capacity() {
        let buf = SleepSlotBuffer::new(4);
        buf.set_target(100);
        assert_eq!(buf.target(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = SleepSlotBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panic() {
        let _ = SleepSlotBuffer::with_shards(16, 3);
    }

    #[test]
    fn concurrent_claims_never_exceed_target_by_much() {
        use std::sync::atomic::AtomicU64 as StdU64;
        use std::thread;
        let buf = Arc::new(SleepSlotBuffer::new(64));
        buf.set_target(8);
        let claimed = Arc::new(StdU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let buf = Arc::clone(&buf);
            let claimed = Arc::clone(&claimed);
            handles.push(thread::spawn(move || {
                let id = buf.register_sleeper(Arc::new(Parker::new()));
                for _ in 0..200 {
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        claimed.fetch_add(1, Ordering::Relaxed);
                        buf.leave(idx, id);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // S and W must balance after everyone left.  (A mid-run `sleepers()`
        // snapshot is deliberately not bounded here: the documented
        // W-before-S read order overcounts by however many claim/leave
        // cycles complete while the reader is stalled between the loads.)
        assert_eq!(buf.sleepers(), 0);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        // `>=`, not `==`: the post-claim re-check reads `S − W` through the
        // same conservative snapshot, so a stalled claimer may back out of a
        // claim that was in fact within target — `S` advanced, nothing
        // reported.
        assert!(stats.ever_slept >= claimed.load(Ordering::Relaxed));
        // Admission soundness, checked deterministically now that the herd
        // is gone: exactly `target` further claims fit, never one more.
        let ids: Vec<SleeperId> = (0..10)
            .map(|_| buf.register_sleeper(Arc::new(Parker::new())))
            .collect();
        let mut held = Vec::new();
        for &id in &ids {
            if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                held.push((idx, id));
            }
        }
        assert_eq!(held.len(), 8, "exactly the target may be outstanding");
        for (idx, id) in held {
            buf.leave(idx, id);
        }
    }

    // -- sharded-specific behaviour --------------------------------------

    #[test]
    fn sharded_capacity_rounds_up_per_shard() {
        let buf = SleepSlotBuffer::with_shards(10, 4);
        assert_eq!(buf.shard_count(), 4);
        assert_eq!(buf.shard_capacity(), 3);
        assert_eq!(buf.capacity(), 12);
        // The target cap stays at the requested capacity, not the rounded-up
        // physical slot count.
        buf.set_target(100);
        assert_eq!(buf.target(), 10);
    }

    #[test]
    fn home_shard_is_stable_and_registration_order_based() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        let ids: Vec<_> = (0..8).map(|_| sleeper(&buf)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(buf.home_shard(*id), i % 4);
            // Stable on repeated queries.
            assert_eq!(buf.home_shard(*id), i % 4);
        }
    }

    #[test]
    fn claims_land_on_the_home_shard_when_it_has_room() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_shard_targets(&[2, 2, 2, 2]);
        let ids: Vec<_> = (0..4).map(|_| sleeper(&buf)).collect();
        for (i, id) in ids.iter().enumerate() {
            let ClaimOutcome::Claimed(idx) = buf.try_claim(*id) else {
                panic!("expected a claim for sleeper {i}");
            };
            assert_eq!(idx / buf.shard_capacity(), i, "claim left its home shard");
        }
        assert_eq!(buf.sleepers(), 4);
        for i in 0..4 {
            assert_eq!(buf.shard_sleepers(i), 1);
        }
    }

    #[test]
    fn full_home_shard_overflows_to_the_neighbour() {
        let buf = SleepSlotBuffer::with_shards(8, 2);
        // Room in shard 1 only.
        buf.set_shard_targets(&[1, 1]);
        let a = sleeper(&buf); // id 0 → home shard 0
        let c = sleeper(&buf); // id 1 → home shard 1
        let b = {
            let _skip = sleeper(&buf); // id 2 → keep ids aligned
            sleeper(&buf) // id 3 → home shard 1
        };
        let _ = c;
        let ClaimOutcome::Claimed(idx_a) = buf.try_claim(a) else {
            panic!("first claim must land in the home shard");
        };
        assert_eq!(idx_a / buf.shard_capacity(), 0);
        // Shard 1's one slot goes to `b`…
        let ClaimOutcome::Claimed(idx_b) = buf.try_claim(b) else {
            panic!("expected a claim");
        };
        assert_eq!(idx_b / buf.shard_capacity(), 1);
        // …so a second shard-0 sleeper cannot claim anywhere (both full)…
        let d = {
            let _skip = sleeper(&buf); // id 4
            let e = sleeper(&buf); // id 5
            let _ = e;
            let f = buf.register_sleeper(Arc::new(Parker::new())); // id 6 → home 0
            f
        };
        assert_eq!(buf.try_claim(d), ClaimOutcome::NoSpace);
        // …until shard 0 frees up; but with shard 0 full and room in shard 1,
        // a shard-0 sleeper overflows one hop.
        buf.set_shard_targets(&[1, 2]);
        let ClaimOutcome::Claimed(idx_d) = buf.try_claim(d) else {
            panic!("overflow probe must rescue a full home shard");
        };
        assert_eq!(idx_d / buf.shard_capacity(), 1, "expected neighbour shard");
        for (idx, id) in [(idx_a, a), (idx_b, b), (idx_d, d)] {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn zero_target_shard_pair_falls_back_to_populated_shards() {
        // A global target smaller than the shard count leaves shards at
        // target 0; threads homed on a zero-target pair must still be able
        // to see and claim the open slots elsewhere.
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_shard_targets(&[1, 0, 0, 0]);
        // Sleeper with id 1: home shard 1 (target 0), neighbour shard 2
        // (target 0) — only the fallback can reach shard 0.
        let _a = sleeper(&buf); // id 0
        let b = sleeper(&buf); // id 1
        assert!(buf.has_space_for(b));
        let ClaimOutcome::Claimed(idx) = buf.try_claim(b) else {
            panic!("zero-target pair stranded the sleeper");
        };
        assert_eq!(
            idx / buf.shard_capacity(),
            0,
            "expected the populated shard"
        );
        // With shard 0 now full, nothing is claimable anywhere.
        let c = {
            let _skip = sleeper(&buf); // id 2
            let _skip = sleeper(&buf); // id 3
            let _skip = sleeper(&buf); // id 4
            sleeper(&buf) // id 5 → home shard 1 again
        };
        assert!(!buf.has_space_for(c));
        assert_eq!(buf.try_claim(c), ClaimOutcome::NoSpace);
        buf.leave(idx, b);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn saturated_local_pair_falls_back_to_open_shards() {
        // Review scenario: home shard closed (target 0), neighbour populated
        // but already full — the wider probe must still reach the other open
        // shard instead of leaving the global target unreachable.
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_shard_targets(&[1, 1, 0, 0]);
        let ids: Vec<_> = (0..8).map(|_| sleeper(&buf)).collect();
        // id 3: home shard 3 (target 0) → neighbour shard 0 takes it.
        let ClaimOutcome::Claimed(first) = buf.try_claim(ids[3]) else {
            panic!("expected the neighbour to take the claim");
        };
        assert_eq!(first / buf.shard_capacity(), 0);
        // id 7: home shard 3 (target 0), neighbour shard 0 now full — only
        // the widened probe can reach shard 1's open slot.
        let ClaimOutcome::Claimed(second) = buf.try_claim(ids[7]) else {
            panic!("saturated local pair stranded the sleeper");
        };
        assert_eq!(second / buf.shard_capacity(), 1);
        // Global target reached: nothing further is claimable.
        assert_eq!(buf.sleepers(), buf.target());
        assert!(!buf.has_space_for(ids[3]));
        assert_eq!(buf.try_claim(ids[0]), ClaimOutcome::NoSpace);
        buf.leave(first, ids[3]);
        buf.leave(second, ids[7]);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn shard_targets_sum_to_the_global_target() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_target(7);
        let per_shard: Vec<u64> = (0..4).map(|i| buf.shard_target(i)).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 7);
        assert_eq!(buf.target(), 7);
        // Even split: first `rem` shards carry the extra unit.
        assert_eq!(per_shard, vec![2, 2, 2, 1]);
    }

    #[test]
    fn set_shard_targets_caps_each_shard_and_wakes_only_shrunk_shards() {
        let buf = SleepSlotBuffer::with_shards(8, 2); // 4 slots per shard
        let parkers: Vec<Arc<Parker>> = (0..4).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        buf.set_shard_targets(&[2, 2]);
        let mut claims = Vec::new();
        for id in &ids {
            match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => claims.push((idx, *id)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(buf.shard_sleepers(0), 2);
        assert_eq!(buf.shard_sleepers(1), 2);
        // Shrink only shard 0; shard 1 requests far above capacity (capped).
        let woken = buf.set_shard_targets(&[0, 100]);
        assert_eq!(woken, 2, "only shard 0's excess may be woken");
        assert_eq!(buf.shard_target(1), 4, "target capped at shard capacity");
        assert_eq!(buf.target(), 4);
        // The two cleared slots both belong to shard 0.
        let cleared: Vec<usize> = claims
            .iter()
            .filter(|(idx, id)| !buf.still_claimed(*idx, *id))
            .map(|(idx, _)| idx / buf.shard_capacity())
            .collect();
        assert_eq!(cleared, vec![0, 0]);
        for (idx, id) in claims {
            buf.leave(idx, id);
        }
        assert_eq!(buf.sleepers(), 0);
    }

    #[test]
    fn even_split_sums_and_caps() {
        assert_eq!(even_split(7, 4, 4), vec![2, 2, 2, 1]);
        assert_eq!(even_split(0, 4, 4), vec![0, 0, 0, 0]);
        assert_eq!(even_split(16, 4, 4), vec![4, 4, 4, 4]);
        // Over-capacity requests are clamped to the total capacity.
        assert_eq!(even_split(100, 4, 4), vec![4, 4, 4, 4]);
        assert_eq!(even_split(5, 1, 8), vec![5]);
    }

    #[test]
    fn single_shard_buffer_reports_one_shard() {
        let buf = SleepSlotBuffer::new(8);
        assert_eq!(buf.shard_count(), 1);
        assert_eq!(buf.shard_capacity(), 8);
        let id = sleeper(&buf);
        assert_eq!(buf.home_shard(id), 0);
    }

    #[test]
    fn shard_stats_aggregate_to_global_stats() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_target(8);
        let ids: Vec<_> = (0..8).map(|_| sleeper(&buf)).collect();
        let claims: Vec<_> = ids
            .iter()
            .filter_map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => Some((idx, *id)),
                _ => None,
            })
            .collect();
        for (idx, id) in &claims {
            buf.leave(*idx, *id);
        }
        let global = buf.stats();
        let summed: u64 = (0..4).map(|i| buf.shard_stats(i).ever_slept).sum();
        assert_eq!(global.ever_slept, summed);
        let targets: u64 = (0..4).map(|i| buf.shard_stats(i).target).sum();
        assert_eq!(global.target, targets);
    }

    #[test]
    fn stats_display_and_debug_surface_the_books_and_races() {
        let buf = SleepSlotBuffer::with_shards(8, 2);
        buf.set_target(2);
        let id = sleeper(&buf);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        let shown = buf.stats().to_string();
        assert!(shown.contains("S=1"), "missing S in {shown:?}");
        assert!(shown.contains("W=0"), "missing W in {shown:?}");
        assert!(shown.contains("T=2"), "missing T in {shown:?}");
        assert!(shown.contains("sleeping=1"), "missing S−W in {shown:?}");
        assert!(shown.contains("claim_races=0"));
        let debugged = format!("{buf:?}");
        assert!(
            debugged.contains("claim_races_per_shard: [0, 0]"),
            "per-shard races missing from {debugged:?}"
        );
        buf.leave(idx, id);
        assert_eq!(buf.claim_races_per_shard(), vec![0, 0]);
    }

    #[test]
    fn exempt_sleepers_survive_the_wake_scan() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(2);
        let parkers: Vec<Arc<Parker>> = (0..2).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        let claims: Vec<usize> = ids
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(buf.set_exempt(ids[0]));
        assert!(buf.is_exempt(ids[0]));
        assert!(!buf.is_exempt(ids[1]));
        assert_eq!(buf.exempt_ids(), vec![ids[0].index()]);
        // Shrink the target to zero: the scan wants both slots cleared but
        // must skip the exempt one and wake only the other sleeper.
        let woken = buf.set_target(0);
        assert_eq!(woken, 1);
        assert!(
            buf.still_claimed(claims[0], ids[0]),
            "exempt slot was cleared by the wake scan"
        );
        assert!(!buf.still_claimed(claims[1], ids[1]));
        assert!(buf.exempt_skips() >= 1);
        // Clearing the exemption lets the scan reach the slot again.
        buf.clear_exempt(ids[0]);
        assert!(!buf.is_exempt(ids[0]));
        assert_eq!(buf.wake(1), 1);
        for (idx, id) in claims.iter().zip(&ids) {
            buf.leave(*idx, *id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn wake_all_overrides_exemptions() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(1);
        let id = sleeper(&buf);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        assert!(buf.set_exempt(id));
        // Shutdown must release everyone, exemptions included.
        assert_eq!(buf.wake_all(), 1);
        assert!(!buf.is_exempt(id));
        assert!(!buf.still_claimed(idx, id));
        buf.leave(idx, id);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn exempt_table_fills_gracefully_and_is_idempotent() {
        let buf = SleepSlotBuffer::new(8);
        let ids: Vec<_> = (0..=MAX_EXEMPT).map(|_| sleeper(&buf)).collect();
        for id in &ids[..MAX_EXEMPT] {
            assert!(buf.set_exempt(*id));
            assert!(buf.set_exempt(*id), "re-exempting must be idempotent");
        }
        assert_eq!(buf.exempt_ids().len(), MAX_EXEMPT);
        assert!(
            !buf.set_exempt(ids[MAX_EXEMPT]),
            "a full exempt table must refuse, not panic"
        );
        buf.clear_exempt(ids[0]);
        assert!(
            buf.set_exempt(ids[MAX_EXEMPT]),
            "freed entry must be reusable"
        );
    }

    #[test]
    fn stats_snapshot_never_shows_w_above_s_under_concurrency() {
        use std::thread;
        let buf = Arc::new(SleepSlotBuffer::with_shards(32, 4));
        buf.set_target(16);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let buf = Arc::clone(&buf);
            handles.push(thread::spawn(move || {
                let id = buf.register_sleeper(Arc::new(Parker::new()));
                for _ in 0..2_000 {
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        buf.leave(idx, id);
                    }
                }
            }));
        }
        // Snapshot continuously while the hammering runs.
        for _ in 0..20_000 {
            let stats = buf.stats();
            assert!(
                stats.ever_slept >= stats.woken_and_left,
                "snapshot saw W ({}) above S ({})",
                stats.woken_and_left,
                stats.ever_slept
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn exempt_count_surfaces_in_stats_and_display() {
        let buf = SleepSlotBuffer::new(8);
        let id = sleeper(&buf);
        assert_eq!(buf.stats().exempt, 0);
        assert!(buf.set_exempt(id));
        let stats = buf.stats();
        assert_eq!(stats.exempt, 1);
        assert!(stats.to_string().contains("exempt=1"), "{stats}");
        let debugged = format!("{buf:?}");
        assert!(debugged.contains("exempt: 1"), "{debugged}");
        buf.clear_exempt(id);
        assert_eq!(buf.stats().exempt, 0);
    }

    #[test]
    fn split_claim_halves_run_the_real_protocol() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(4);
        let a = sleeper(&buf);
        let b = sleeper(&buf);
        let shard = &buf.shards[0];
        // Two claimers observe the same head; the commit order decides the
        // winner, and the loser's CAS failure is a *real* claim race.
        let sa = shard.begin_claim().expect("space available");
        let sb = shard.begin_claim().expect("space available");
        assert_eq!(sa, sb);
        let ClaimOutcome::Claimed(idx_a) = shard.commit_claim(a, sa) else {
            panic!("first committer must win");
        };
        assert_eq!(shard.commit_claim(b, sb), ClaimOutcome::Raced);
        assert_eq!(buf.stats().claim_races, 1);
        // The loser re-begins against the fresh head and succeeds.
        let sb2 = shard.begin_claim().expect("space available");
        assert_ne!(sb2, sb);
        let ClaimOutcome::Claimed(idx_b) = shard.commit_claim(b, sb2) else {
            panic!("reloaded commit must win");
        };
        buf.leave(idx_a, a);
        buf.leave(idx_b, b);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        assert_eq!(stats.claim_races, 1);
    }

    #[test]
    fn a_claim_that_straddles_a_target_shrink_backs_out() {
        // The wake scan of `set_target(0)` runs between the two halves of a
        // claim: it finds no slot to clear, so the claimer itself must notice
        // the shrunk target instead of parking until its timeout.
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(2);
        let id = sleeper(&buf);
        let shard = &buf.shards[0];
        let observed = shard.begin_claim().expect("space available");
        assert_eq!(buf.set_target(0), 0, "nothing is parked yet");
        assert_eq!(shard.commit_claim(id, observed), ClaimOutcome::NoSpace);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        assert!(shard.slots.iter().all(|s| s.load(Ordering::Acquire) == 0));
    }
}
