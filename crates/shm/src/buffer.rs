//! The cross-process sleep-slot buffer: S/W/T books, slot ring, sleeper
//! cells, and member table, all living in a mapped segment.
//!
//! [`ShmSlotBuffer`] is the shared-memory analogue of
//! [`lc_core::SleepSlotBuffer`] and keeps its invariants:
//!
//! * `S` (ever slept) counts successful claims, `W` (woken and left)
//!   counts completed episodes, `S − W` is the live sleeper count, and `T`
//!   is the published target — per shard, exactly as in the paper.
//! * `leave` runs **exactly once per claim**: by the sleeper itself on
//!   timeout/wake, or by the controller's reclamation sweep on behalf of a
//!   sleeper whose pid died.  Either way `W` advances once, so a SIGKILLed
//!   worker can never strand `S − W` above the target.
//! * Slot words hold a sleeper-cell *index* (+1), never a pointer, so any
//!   process mapping the segment interprets them identically.
//!
//! Identity is pid+generation **leases**: a sleeper registers a cell by
//! CASing its lease from 0, and every claim stamps the owning cell into
//! the slot word.  The reclamation sweep follows slot → cell → lease →
//! pid and probes `/proc/<pid>`; generations make a recycled cell
//! distinguishable from its dead predecessor.

use crate::layout::{self, Geometry};
use crate::segment::ShmSegment;
use crate::sys::{self, FutexWait};
use lc_core::{ShardSnapshot, SlotHost};
use lc_locks::stats::WaitObservation;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sharded slot buffer over a mapped segment.
#[derive(Debug, Clone)]
pub struct ShmSlotBuffer {
    seg: Arc<ShmSegment>,
}

/// Point-in-time totals over every shard, for `lcctl stat` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShmBufferStats {
    /// Cumulative successful claims (`ΣS`).
    pub ever_slept: u64,
    /// Cumulative completed episodes (`ΣW`).
    pub woken_and_left: u64,
    /// Live sleepers (`Σ(S−W)`).
    pub sleeping: u64,
    /// Fleet-wide published target.
    pub total_target: u64,
    /// Sleepers woken early by the controller.
    pub controller_wakes: u64,
    /// Lost claim CASes.
    pub claim_races: u64,
    /// Slots swept back from dead pids.
    pub reclaimed_slots: u64,
}

impl ShmSlotBuffer {
    /// Wraps a mapped segment.
    pub fn new(seg: Arc<ShmSegment>) -> Self {
        ShmSlotBuffer { seg }
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<ShmSegment> {
        &self.seg
    }

    /// The segment's fixed geometry.
    pub fn geometry(&self) -> Geometry {
        self.seg.geometry()
    }

    // ---- offset helpers --------------------------------------------------

    fn shard_field(&self, shard: usize, field: usize) -> &AtomicU64 {
        let g = self.geometry();
        debug_assert!(shard < g.shards);
        self.seg
            .u64_at(g.shards_off() + shard * layout::SHARD_BYTES + field)
    }

    fn slot_field(&self, slot: usize, field: usize) -> &AtomicU64 {
        let g = self.geometry();
        debug_assert!(slot < g.total_slots());
        self.seg
            .u64_at(g.slots_off() + slot * layout::SLOT_BYTES + field)
    }

    fn cell_lease(&self, cell: usize) -> &AtomicU64 {
        let g = self.geometry();
        debug_assert!(cell < g.max_sleepers);
        self.seg
            .u64_at(g.sleepers_off() + cell * layout::SLEEPER_BYTES + layout::SLEEPER_LEASE)
    }

    fn cell_futex(&self, cell: usize) -> &AtomicU32 {
        let g = self.geometry();
        self.seg
            .u32_at(g.sleepers_off() + cell * layout::SLEEPER_BYTES + layout::SLEEPER_FUTEX)
    }

    fn member_field(&self, member: usize, field: usize) -> &AtomicU64 {
        let g = self.geometry();
        debug_assert!(member < g.max_members);
        self.seg
            .u64_at(g.members_off() + member * layout::MEMBER_BYTES + field)
    }

    // ---- sleeper cells ---------------------------------------------------

    /// Registers a sleeper cell under a fresh pid+generation lease.
    /// Returns the cell index, or `None` when the table is full.
    pub fn register_sleeper(&self, pid: u32) -> Option<usize> {
        let lease = layout::lease(pid, self.seg.next_generation());
        for cell in 0..self.geometry().max_sleepers {
            if self
                .cell_lease(cell)
                .compare_exchange(0, lease, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // A recycled cell may hold a permit a late wake posted to
                // its dead predecessor; a fresh registrant must not
                // inherit it (the cross-process copy of the Parker
                // stale-permit rule).
                self.cell_futex(cell).store(0, Ordering::Release);
                return Some(cell);
            }
        }
        None
    }

    /// Releases a sleeper cell's lease.
    pub fn release_sleeper(&self, cell: usize) {
        self.cell_lease(cell).store(0, Ordering::Release);
    }

    /// The lease word currently held by `cell` (0 when free).
    pub fn sleeper_lease(&self, cell: usize) -> u64 {
        self.cell_lease(cell).load(Ordering::Acquire)
    }

    // ---- members ---------------------------------------------------------

    /// Registers a worker process in the member table.
    pub fn register_member(&self, pid: u32) -> Option<usize> {
        let lease = layout::lease(pid, self.seg.next_generation());
        for m in 0..self.geometry().max_members {
            if self
                .member_field(m, layout::MEMBER_LEASE)
                .compare_exchange(0, lease, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.member_field(m, layout::MEMBER_RUNNABLE)
                    .store(0, Ordering::Release);
                return Some(m);
            }
        }
        None
    }

    /// Releases a member entry and zeroes its load contribution.
    pub fn release_member(&self, member: usize) {
        self.member_field(member, layout::MEMBER_RUNNABLE)
            .store(0, Ordering::Release);
        self.member_field(member, layout::MEMBER_LEASE)
            .store(0, Ordering::Release);
    }

    /// The lease word of member entry `member` (0 when free).
    pub fn member_lease(&self, member: usize) -> u64 {
        self.member_field(member, layout::MEMBER_LEASE)
            .load(Ordering::Acquire)
    }

    /// Publishes this member's runnable-thread count into fleet load.
    pub fn set_member_runnable(&self, member: usize, runnable: u64) {
        self.member_field(member, layout::MEMBER_RUNNABLE)
            .store(runnable, Ordering::Release);
    }

    /// Adjusts this member's runnable count by `delta` (two's-complement
    /// wrapping add, so gates can decrement around a park without a CAS
    /// loop; the count never legitimately crosses zero downward).
    pub fn member_runnable_add(&self, member: usize, delta: i64) {
        self.member_field(member, layout::MEMBER_RUNNABLE)
            .fetch_add(delta as u64, Ordering::AcqRel);
    }

    /// Member `member`'s last published runnable count.
    pub fn member_runnable(&self, member: usize) -> u64 {
        self.member_field(member, layout::MEMBER_RUNNABLE)
            .load(Ordering::Acquire)
    }

    /// Forcibly clears a member entry whose pid died (reclamation sweep).
    pub fn reclaim_member(&self, member: usize) {
        self.release_member(member);
        self.seg
            .u64_at(layout::OFF_RECLAIMED_MEMBERS)
            .fetch_add(1, Ordering::AcqRel);
    }

    // ---- claims ----------------------------------------------------------

    /// The home shard of a sleeper cell (static striping; the controller's
    /// splitter balances targets across shards on top).
    pub fn home_shard(&self, cell: usize) -> usize {
        cell % self.geometry().shards
    }

    /// Whether `shard` currently wants more sleepers (`S − W < T`) and the
    /// segment is not draining.
    pub fn should_sleep(&self, shard: usize) -> bool {
        !self.draining() && self.shard_sleepers(shard) < self.shard_target(shard)
    }

    /// Claims a free slot in `shard` for sleeper `cell`.
    ///
    /// On success the slot's owner word holds `cell + 1`, `S` has
    /// advanced, and the returned value is the **global** slot index used
    /// by [`Self::still_claimed`] / [`Self::leave`].
    pub fn try_claim(&self, shard: usize, cell: usize) -> Option<usize> {
        let g = self.geometry();
        let base = shard * g.shard_capacity;
        for i in 0..g.shard_capacity {
            let slot = base + i;
            match self.slot_field(slot, layout::SLOT_OWNER).compare_exchange(
                0,
                cell as u64 + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.slot_field(slot, layout::SLOT_STAMP)
                        .store(self.seg.next_generation() as u64, Ordering::Relaxed);
                    self.shard_field(shard, layout::SHARD_EVER_SLEPT)
                        .fetch_add(1, Ordering::AcqRel);
                    return Some(slot);
                }
                Err(_) => {
                    self.shard_field(shard, layout::SHARD_CLAIM_RACES)
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        None
    }

    /// Whether `slot` still belongs to sleeper `cell` (the controller has
    /// not cleared or reclaimed it).
    pub fn still_claimed(&self, slot: usize, cell: usize) -> bool {
        self.slot_field(slot, layout::SLOT_OWNER)
            .load(Ordering::Acquire)
            == cell as u64 + 1
    }

    /// Ends sleeper `cell`'s episode on `slot`: self-clears the slot if
    /// the controller has not already, and advances `W` exactly once.
    pub fn leave(&self, slot: usize, cell: usize) {
        let _ = self.slot_field(slot, layout::SLOT_OWNER).compare_exchange(
            cell as u64 + 1,
            0,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        let shard = slot / self.geometry().shard_capacity;
        self.shard_field(shard, layout::SHARD_WOKEN)
            .fetch_add(1, Ordering::AcqRel);
    }

    /// Controller-side wake: clears one occupied slot in `shard` and posts
    /// a futex wake to its (former) owner.  Returns whether a sleeper was
    /// found.
    pub fn wake_one(&self, shard: usize) -> bool {
        let g = self.geometry();
        let base = shard * g.shard_capacity;
        for i in 0..g.shard_capacity {
            let slot = base + i;
            let owner = self
                .slot_field(slot, layout::SLOT_OWNER)
                .load(Ordering::Acquire);
            if owner == 0 {
                continue;
            }
            if self
                .slot_field(slot, layout::SLOT_OWNER)
                .compare_exchange(owner, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.shard_field(shard, layout::SHARD_CONTROLLER_WAKES)
                    .fetch_add(1, Ordering::Relaxed);
                self.unpark_cell(owner as usize - 1);
                return true;
            }
        }
        false
    }

    /// Reclaims `slot` from the dead sleeper `cell`: clears the slot,
    /// advances `W` on the dead sleeper's behalf, counts the reclamation,
    /// and frees the cell lease for reuse.
    ///
    /// Returns `false` (and does nothing) if the slot changed hands before
    /// the CAS — i.e. the "dead" sleeper's slot was already cleared.
    pub fn reclaim_slot(&self, slot: usize, cell: usize) -> bool {
        if self
            .slot_field(slot, layout::SLOT_OWNER)
            .compare_exchange(cell as u64 + 1, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let shard = slot / self.geometry().shard_capacity;
        self.shard_field(shard, layout::SHARD_WOKEN)
            .fetch_add(1, Ordering::AcqRel);
        self.shard_field(shard, layout::SHARD_RECLAIMED)
            .fetch_add(1, Ordering::Relaxed);
        self.seg
            .u64_at(layout::OFF_RECLAIMED_SLOTS)
            .fetch_add(1, Ordering::AcqRel);
        self.release_sleeper(cell);
        true
    }

    /// The owner cell of `slot` (`None` when free).
    pub fn slot_owner(&self, slot: usize) -> Option<usize> {
        match self
            .slot_field(slot, layout::SLOT_OWNER)
            .load(Ordering::Acquire)
        {
            0 => None,
            owner => Some(owner as usize - 1),
        }
    }

    // ---- futex park path -------------------------------------------------

    /// Blocks sleeper `cell` for at most `timeout`, consuming a permit if
    /// one is already posted.  Returns how the wait ended; spurious wakes
    /// surface as [`FutexWait::Woken`] and callers re-poll their slot.
    pub fn park_cell(&self, cell: usize, timeout: Duration) -> FutexWait {
        let word = self.cell_futex(cell);
        if word
            .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return FutexWait::Woken;
        }
        let outcome = sys::futex_wait(word, 0, timeout);
        // Consume the permit (if the waker posted one) so it cannot leak
        // into the next episode.
        word.store(0, Ordering::Release);
        outcome
    }

    /// Posts a wake permit to sleeper `cell` and futex-wakes it.
    pub fn unpark_cell(&self, cell: usize) {
        let word = self.cell_futex(cell);
        if word.swap(1, Ordering::AcqRel) == 0 {
            sys::futex_wake(word, 1);
        }
    }

    /// Drops any stale permit on `cell` — called right before a claim is
    /// published, mirroring the in-process `Parker` drain: a permit
    /// present now belongs to a previous episode (the new slot is not yet
    /// visible to any wake scan), so consuming it can never lose a wake.
    pub fn drain_cell_permit(&self, cell: usize) {
        self.cell_futex(cell).store(0, Ordering::Release);
    }

    // ---- books and targets -----------------------------------------------

    /// `S − W` for one shard.
    pub fn shard_sleepers(&self, shard: usize) -> u64 {
        // W first: read in this order, `S − W` can only over-estimate
        // (same reasoning as the in-process buffer's stats path).
        let w = self
            .shard_field(shard, layout::SHARD_WOKEN)
            .load(Ordering::Acquire);
        let s = self
            .shard_field(shard, layout::SHARD_EVER_SLEPT)
            .load(Ordering::Acquire);
        s.saturating_sub(w)
    }

    /// The shard's published target `T`.
    pub fn shard_target(&self, shard: usize) -> u64 {
        self.shard_field(shard, layout::SHARD_TARGET)
            .load(Ordering::Acquire)
    }

    /// Publishes one shard's target.
    pub fn set_shard_target(&self, shard: usize, target: u64) {
        self.shard_field(shard, layout::SHARD_TARGET)
            .store(target, Ordering::Release);
    }

    /// The fleet-wide target last published.
    pub fn total_target(&self) -> u64 {
        self.seg
            .u64_at(layout::OFF_TOTAL_TARGET)
            .load(Ordering::Acquire)
    }

    /// Records the fleet-wide target.
    pub fn set_total_target(&self, target: u64) {
        self.seg
            .u64_at(layout::OFF_TOTAL_TARGET)
            .store(target, Ordering::Release);
    }

    /// Whether the segment is draining (no new claims allowed).
    pub fn draining(&self) -> bool {
        self.seg.u64_at(layout::OFF_DRAIN).load(Ordering::Acquire) != 0
    }

    /// Sets or clears the drain flag.
    pub fn set_draining(&self, drain: bool) {
        self.seg
            .u64_at(layout::OFF_DRAIN)
            .store(drain as u64, Ordering::Release);
    }

    /// Per-shard snapshots in the shape the `lc_core` splitters consume.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        (0..self.geometry().shards)
            .map(|shard| ShardSnapshot {
                sleepers: self.shard_sleepers(shard),
                ever_slept: self
                    .shard_field(shard, layout::SHARD_EVER_SLEPT)
                    .load(Ordering::Acquire),
                claim_races: self
                    .shard_field(shard, layout::SHARD_CLAIM_RACES)
                    .load(Ordering::Acquire),
                target: self.shard_target(shard),
            })
            .collect()
    }

    /// Totals over every shard.
    pub fn stats(&self) -> ShmBufferStats {
        let g = self.geometry();
        let mut out = ShmBufferStats {
            total_target: self.total_target(),
            reclaimed_slots: self
                .seg
                .u64_at(layout::OFF_RECLAIMED_SLOTS)
                .load(Ordering::Acquire),
            ..ShmBufferStats::default()
        };
        for shard in 0..g.shards {
            // W before S, as in `shard_sleepers`.
            let w = self
                .shard_field(shard, layout::SHARD_WOKEN)
                .load(Ordering::Acquire);
            let s = self
                .shard_field(shard, layout::SHARD_EVER_SLEPT)
                .load(Ordering::Acquire);
            out.woken_and_left += w;
            out.ever_slept += s;
            out.sleeping += s.saturating_sub(w);
            out.controller_wakes += self
                .shard_field(shard, layout::SHARD_CONTROLLER_WAKES)
                .load(Ordering::Acquire);
            out.claim_races += self
                .shard_field(shard, layout::SHARD_CLAIM_RACES)
                .load(Ordering::Acquire);
        }
        out
    }

    // ---- command mailbox -------------------------------------------------
    //
    // `lcctl` is the only writer of the command area and the elected
    // controller the only reader; the `cmd_seq`/`cmd_ack` pair serializes
    // them (a racing second `lcctl` can at worst overwrite an unconsumed
    // command, which is last-writer-wins by design).  Spec text crosses the
    // boundary as plain spec grammar (`lc_core::spec`) — the wire format
    // *is* the configuration language.

    fn read_spec_area(&self, off: usize) -> String {
        let len = (self.seg.u64_at(off).load(Ordering::Acquire) as usize)
            .min(layout::SPEC_AREA_BYTES - 8);
        String::from_utf8(self.seg.read_bytes(off + 8, len)).unwrap_or_default()
    }

    fn write_spec_area(&self, off: usize, spec: &str) {
        let bytes = &spec.as_bytes()[..spec.len().min(layout::SPEC_AREA_BYTES - 8)];
        self.seg.write_bytes(off + 8, bytes);
        self.seg
            .u64_at(off)
            .store(bytes.len() as u64, Ordering::Release);
    }

    /// Posts a command spec for the controller and returns its sequence
    /// number; poll [`Self::command_state`] for the acknowledgement.
    pub fn post_command(&self, spec: &str) -> u64 {
        self.write_spec_area(layout::OFF_CMD_SPEC, spec);
        self.seg
            .u64_at(layout::OFF_CMD_SEQ)
            .fetch_add(1, Ordering::AcqRel)
            + 1
    }

    /// `(seq, ack, err)` of the command mailbox: the command `ack` is
    /// consumed, with `err != 0` meaning the controller rejected it.
    pub fn command_state(&self) -> (u64, u64, u64) {
        (
            self.seg.u64_at(layout::OFF_CMD_SEQ).load(Ordering::Acquire),
            self.seg.u64_at(layout::OFF_CMD_ACK).load(Ordering::Acquire),
            self.seg.u64_at(layout::OFF_CMD_ERR).load(Ordering::Acquire),
        )
    }

    /// Controller side: the pending command, if any (`seq` to ack later).
    pub fn pending_command(&self) -> Option<(u64, String)> {
        let (seq, ack, _) = self.command_state();
        (seq != ack).then(|| (seq, self.read_spec_area(layout::OFF_CMD_SPEC)))
    }

    /// Controller side: acknowledges command `seq` (`ok = false` marks it
    /// rejected).
    pub fn ack_command(&self, seq: u64, ok: bool) {
        self.seg
            .u64_at(layout::OFF_CMD_ERR)
            .store(u64::from(!ok), Ordering::Release);
        self.seg
            .u64_at(layout::OFF_CMD_ACK)
            .store(seq, Ordering::Release);
    }

    /// Publishes the canonical spec of the policy the controller is
    /// actually running (what `lcctl stat` reports back).
    pub fn set_applied_spec(&self, spec: &str) {
        self.write_spec_area(layout::OFF_APPLIED_SPEC, spec);
    }

    /// The canonical applied-policy spec (empty before first election).
    pub fn applied_spec(&self) -> String {
        self.read_spec_area(layout::OFF_APPLIED_SPEC)
    }

    // ---- wait histogram --------------------------------------------------

    fn hist_bucket(&self, idx: usize) -> &AtomicU64 {
        debug_assert!(idx < layout::WAIT_HIST_BUCKETS);
        self.seg.u64_at(layout::OFF_WAIT_HIST + idx * 8)
    }

    /// Records one completed sleep episode into the segment histogram
    /// (power-of-two buckets: bucket `i` holds episodes with
    /// `2^i ≤ ns < 2^(i+1)`; sub-microsecond episodes land in bucket 0).
    pub fn record_wait(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(layout::WAIT_HIST_BUCKETS - 1);
        self.hist_bucket(idx).fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the raw histogram buckets.
    pub fn wait_buckets(&self) -> Vec<u64> {
        (0..layout::WAIT_HIST_BUCKETS)
            .map(|i| self.hist_bucket(i).load(Ordering::Relaxed))
            .collect()
    }

    /// Quantile summary of a bucket snapshot (pass the delta of two
    /// [`Self::wait_buckets`] snapshots for a per-cycle window).  Reports
    /// bucket **upper bounds**, like the in-process histogram.
    pub fn observe(buckets: &[u64]) -> WaitObservation {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return WaitObservation::default();
        }
        let quantile = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return upper_bound(i);
                }
            }
            upper_bound(buckets.len() - 1)
        };
        let max_idx = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        WaitObservation {
            count,
            p50_ns: quantile(0.50),
            p99_ns: quantile(0.99),
            max_ns: upper_bound(max_idx),
        }
    }
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (bucket + 1)) - 1
    }
}

impl SlotHost for ShmSlotBuffer {
    fn wait_still_claimed(&self, idx: usize, key: u64) -> bool {
        self.still_claimed(idx, key as usize)
    }

    fn wait_record(&self, elapsed: Duration) {
        self.record_wait(elapsed);
    }

    fn wait_leave(&self, idx: usize, key: u64) {
        self.leave(idx, key as usize);
    }
}
