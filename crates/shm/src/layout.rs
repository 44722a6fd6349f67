//! Byte layout of a load-control segment.
//!
//! Everything a process needs to participate lives at *fixed offsets* from
//! the mapping base — there is not a single pointer in the segment, only
//! indices, so the same bytes are valid in every address space that maps
//! them.  The layout is:
//!
//! ```text
//! offset 0      header          (4 KiB: magic, version, geometry, leases,
//!                                books totals, command mailbox, histogram)
//! MEMBERS_OFF   member table    (64 B × max_members: pid+gen lease,
//!                                runnable count, heartbeat)
//! SLEEPERS_OFF  sleeper cells   (64 B × max_sleepers: pid+gen lease,
//!                                futex word)
//! SHARDS_OFF    shard books     (192 B × shards: S | W,wakes,races,
//!                                reclaimed | T — one cache line each)
//! SLOTS_OFF     slot ring       (16 B × shards × shard_capacity:
//!                                owner word, claim stamp)
//! ```
//!
//! The header is versioned: [`MAGIC`] identifies the file as a segment at
//! all, [`VERSION`] gates layout compatibility, and attach refuses both
//! mismatches loudly rather than interpreting foreign bytes.

/// Identifies a file as a load-control segment ("LCSHMSEG" in ASCII).
pub const MAGIC: u64 = 0x4c43_5348_4d53_4547;

/// Layout revision; bump on any offset or field change.
pub const VERSION: u64 = 1;

/// Fixed size of the header block.
pub const HEADER_BYTES: usize = 4096;

/// Bytes per member-table entry (one cache line).
pub const MEMBER_BYTES: usize = 64;

/// Bytes per sleeper cell (one cache line, so two processes futex-waiting
/// on neighboring cells never false-share).
pub const SLEEPER_BYTES: usize = 64;

/// Bytes per shard book group (three cache lines: S alone, the W/counter
/// line, T alone — the same S/W/T isolation the in-process buffer uses).
pub const SHARD_BYTES: usize = 192;

/// Bytes per slot (owner word + claim stamp).
pub const SLOT_BYTES: usize = 16;

// ---- header field offsets (all u64 unless noted) -------------------------

/// Segment magic ([`MAGIC`]).
pub const OFF_MAGIC: usize = 0;
/// Layout version ([`VERSION`]).
pub const OFF_VERSION: usize = 8;
/// Number of shards.
pub const OFF_SHARDS: usize = 16;
/// Slots per shard.
pub const OFF_SHARD_CAPACITY: usize = 24;
/// Member-table length.
pub const OFF_MAX_MEMBERS: usize = 32;
/// Sleeper-cell table length.
pub const OFF_MAX_SLEEPERS: usize = 40;
/// Fleet-wide sleep target last published by the controller.
pub const OFF_TOTAL_TARGET: usize = 48;
/// Controller lease: `pid << 32 | generation`, 0 when vacant.
pub const OFF_CONTROLLER_LEASE: usize = 56;
/// Controller heartbeat: cycle counter bumped every controller cycle.
pub const OFF_CONTROLLER_HEARTBEAT: usize = 64;
/// Monotonic generation counter feeding every lease in the segment.
pub const OFF_GENERATION: usize = 72;
/// Command mailbox sequence (bumped by `lcctl`, acked by the controller).
pub const OFF_CMD_SEQ: usize = 80;
/// Command mailbox acknowledgement (last sequence the controller consumed).
pub const OFF_CMD_ACK: usize = 88;
/// Result of the last consumed command: 0 = applied, 1 = rejected.
pub const OFF_CMD_ERR: usize = 96;
/// Drain flag: non-zero forbids new claims and wakes every sleeper.
pub const OFF_DRAIN: usize = 104;
/// Slots swept back from dead pids.
pub const OFF_RECLAIMED_SLOTS: usize = 112;
/// Member entries swept back from dead pids.
pub const OFF_RECLAIMED_MEMBERS: usize = 120;
/// Controller lease takeovers (elections won over a dead holder).
pub const OFF_TAKEOVERS: usize = 128;
/// Completed controller cycles.
pub const OFF_CYCLES: usize = 136;
/// Fleet runnable-thread count as of the last controller sample.
pub const OFF_FLEET_RUNNABLE: usize = 144;

/// Wait histogram: 64 power-of-two buckets (bucket `i` counts episodes with
/// `ns < 2^(i+1)`), preceded by nothing — count is the bucket sum.
pub const OFF_WAIT_HIST: usize = 256;
/// Number of histogram buckets.
pub const WAIT_HIST_BUCKETS: usize = 64;

/// Command spec area: u64 length followed by UTF-8 spec text.
pub const OFF_CMD_SPEC: usize = 1024;
/// Capacity of each spec area, including the length word.
pub const SPEC_AREA_BYTES: usize = 256;
/// Applied-spec area: canonical policy spec the controller last installed.
pub const OFF_APPLIED_SPEC: usize = 1536;

/// Fixed geometry of one segment, decided at creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of shards in the slot ring.
    pub shards: usize,
    /// Slots per shard.
    pub shard_capacity: usize,
    /// Maximum simultaneously attached worker processes.
    pub max_members: usize,
    /// Maximum simultaneously registered sleeper threads, fleet-wide.
    pub max_sleepers: usize,
}

impl Geometry {
    /// A small default plenty for tests and the example fleet.
    pub const DEFAULT: Geometry = Geometry {
        shards: 4,
        shard_capacity: 64,
        max_members: 64,
        max_sleepers: 512,
    };

    /// Byte offset of the member table.
    pub fn members_off(&self) -> usize {
        HEADER_BYTES
    }

    /// Byte offset of the sleeper-cell table.
    pub fn sleepers_off(&self) -> usize {
        self.members_off() + self.max_members * MEMBER_BYTES
    }

    /// Byte offset of the shard books.
    pub fn shards_off(&self) -> usize {
        self.sleepers_off() + self.max_sleepers * SLEEPER_BYTES
    }

    /// Byte offset of the slot ring.
    pub fn slots_off(&self) -> usize {
        self.shards_off() + self.shards * SHARD_BYTES
    }

    /// Total slots in the ring.
    pub fn total_slots(&self) -> usize {
        self.shards * self.shard_capacity
    }

    /// Total segment size, rounded up to whole pages.
    pub fn segment_bytes(&self) -> usize {
        let raw = self.slots_off() + self.total_slots() * SLOT_BYTES;
        (raw + 4095) & !4095
    }
}

// Member entry field offsets (relative to the entry base).
/// Member lease: `pid << 32 | generation`, 0 when free.
pub const MEMBER_LEASE: usize = 0;
/// Runnable threads this member currently contributes to fleet load.
pub const MEMBER_RUNNABLE: usize = 8;
/// Member heartbeat (free-running counter the worker bumps).
pub const MEMBER_HEARTBEAT: usize = 16;

// Sleeper cell field offsets (relative to the cell base).
/// Sleeper lease: `pid << 32 | generation`, 0 when free.
pub const SLEEPER_LEASE: usize = 0;
/// Futex word (u32): 0 = no permit, 1 = permit posted.
pub const SLEEPER_FUTEX: usize = 8;

// Shard book field offsets (relative to the book base).
/// `S`: cumulative successful claims (ever slept).
pub const SHARD_EVER_SLEPT: usize = 0;
/// `W`: cumulative completed sleep episodes (woken and left).
pub const SHARD_WOKEN: usize = 64;
/// Sleepers woken early by the controller.
pub const SHARD_CONTROLLER_WAKES: usize = 72;
/// Lost claim CASes.
pub const SHARD_CLAIM_RACES: usize = 80;
/// Slots reclaimed from dead pids in this shard.
pub const SHARD_RECLAIMED: usize = 88;
/// `T`: the shard's published sleep target.
pub const SHARD_TARGET: usize = 128;

// Slot field offsets (relative to the slot base).
/// Owner word: sleeper-cell index + 1, or 0 when free.
pub const SLOT_OWNER: usize = 0;
/// Claim stamp: segment generation at claim time (diagnostic).
pub const SLOT_STAMP: usize = 8;

/// Packs a pid + generation into a lease word.
pub fn lease(pid: u32, generation: u32) -> u64 {
    ((pid as u64) << 32) | generation as u64
}

/// The pid half of a lease word.
pub fn lease_pid(lease: u64) -> u32 {
    (lease >> 32) as u32
}
