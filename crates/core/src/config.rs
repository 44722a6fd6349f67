//! Configuration of the load-control mechanism.

use std::time::Duration;

/// Order in which the controller's batched wake scan clears excess slots
/// within a shard.
///
/// The paper's scan ([`WakeOrder::Fifo`]) walks the slot array from index 0,
/// which under partial wakes favors low ring indices: an old sleeper parked
/// at a high index can survive scan after scan and only leave at its sleep
/// timeout, so the wait-time p99 degenerates to the timeout under sustained
/// overload.  [`WakeOrder::Window`] wakes the *oldest claims first* (by each
/// slot's claim stamp — the head-`S` value its claim committed at), bounding
/// any sleeper's age at the cost of a per-scan sort of the occupied slots.
/// A latency-targeting policy ([`crate::policy::LatencyPolicy`]) needs
/// window order to actually move the tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WakeOrder {
    /// Slot-array order (index 0 upward): the paper's scan, the default.
    #[default]
    Fifo,
    /// Oldest claim first, by per-slot claim stamp.
    Window,
}

impl WakeOrder {
    /// The stable spec-string name of this order (`fifo` / `window`).
    pub fn as_str(&self) -> &'static str {
        match self {
            WakeOrder::Fifo => "fifo",
            WakeOrder::Window => "window",
        }
    }

    /// Parses a spec-string name; `None` for anything but `fifo` / `window`.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "fifo" => Some(WakeOrder::Fifo),
            "window" => Some(WakeOrder::Window),
            _ => None,
        }
    }
}

impl std::fmt::Display for WakeOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning parameters for [`crate::LoadControl`].
///
/// The defaults follow the paper's evaluation (§4–§5): a controller update
/// interval of 7 ms (Figure 10 shows 3–10 ms is the sweet spot) and a sleep
/// timeout of 100 ms (§3.1.2).  The slot check every few dozen polling
/// iterations (§3.2.3) is the fixed [`LoadControlConfig::SLOT_CHECK_PERIOD`].
/// The control plane's choices — policy, splitter, shard count, sampler and
/// wake order — are a [`crate::spec::LoadControlSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadControlConfig {
    /// Number of hardware contexts the process should aim to keep busy.
    ///
    /// The paper assumes an admission controller keeps long-term average load
    /// near (but not hugely above) this value; load control manages the
    /// millisecond-scale excursions around it.
    pub capacity: usize,
    /// How often the controller daemon re-measures load and updates the sleep
    /// target.
    pub update_interval: Duration,
    /// Maximum time a thread sleeps in a slot before it wakes on its own.
    ///
    /// Roughly one scheduler time slice in the paper (100 ms).
    pub sleep_timeout: Duration,
    /// Upper bound on the sleep target (and on the slot ring size in use).
    pub max_sleepers: usize,
    /// Extra runnable threads tolerated above `capacity` before the
    /// controller starts removing threads (0 reproduces the paper exactly).
    pub overload_headroom: usize,
    /// Number of sleep-slot-buffer shards, used when the spec names none.
    ///
    /// `1` (the default) reproduces the paper's single `S`/`W`/`T` buffer
    /// exactly; larger values split the claim path and the wake scan per
    /// core group, with the global target partitioned across shards by the
    /// controller's [`crate::policy::TargetSplitter`].  The constructor
    /// rounds the count up to a power of two and rejects one that leaves a
    /// shard without a slot.
    pub shards: usize,
}

impl LoadControlConfig {
    /// The paper's controller update interval.
    pub const DEFAULT_UPDATE_INTERVAL: Duration = Duration::from_millis(7);
    /// The paper's sleep timeout (about one scheduler time slice).
    pub const DEFAULT_SLEEP_TIMEOUT: Duration = Duration::from_millis(100);
    /// Polling-loop iterations between slot-buffer checks: often enough to
    /// notice a target within microseconds, rarely enough that the common
    /// no-space case stays off the handoff path (§3.2.3).  A power of two,
    /// so the per-poll check is a mask.
    pub const SLOT_CHECK_PERIOD: u64 = 64;
    /// Default cap on simultaneous sleepers.
    pub const DEFAULT_MAX_SLEEPERS: usize = 1024;
    /// Default slot-buffer shard count (1 = the paper's unsharded buffer).
    pub const DEFAULT_SHARDS: usize = 1;

    /// A configuration for a machine (or partition) with `capacity` hardware
    /// contexts and paper-default tuning.
    pub fn for_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            update_interval: Self::DEFAULT_UPDATE_INTERVAL,
            sleep_timeout: Self::DEFAULT_SLEEP_TIMEOUT,
            max_sleepers: Self::DEFAULT_MAX_SLEEPERS,
            overload_headroom: 0,
            shards: Self::DEFAULT_SHARDS,
        }
    }

    /// A configuration sized from `std::thread::available_parallelism`.
    pub fn for_this_machine() -> Self {
        let capacity = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::for_capacity(capacity)
    }

    /// Returns `self` with a different controller update interval.
    pub fn with_update_interval(mut self, interval: Duration) -> Self {
        self.update_interval = interval;
        self
    }

    /// Returns `self` with a different sleep timeout.
    pub fn with_sleep_timeout(mut self, timeout: Duration) -> Self {
        self.sleep_timeout = timeout;
        self
    }

    /// Returns `self` with a different overload headroom.
    pub fn with_overload_headroom(mut self, headroom: usize) -> Self {
        self.overload_headroom = headroom;
        self
    }

    /// Returns `self` with `shards` slot-buffer shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Whether polling iteration `iteration` is one on which a waiter
    /// consults the slot buffer.
    pub(crate) const fn is_slot_check_due(iteration: u64) -> bool {
        iteration & (Self::SLOT_CHECK_PERIOD - 1) == 0
    }

    /// The sleep target implied by a measurement of `runnable` threads:
    /// the number of threads that should be asleep so that runnable load
    /// returns to `capacity` (the paper's `T = load − 100 %`).
    ///
    /// Delegates to [`crate::policy::PaperPolicy`] — the one place the
    /// paper's rule is written down — then applies this configuration's
    /// `max_sleepers` clamp, exactly as the controller does each cycle.
    pub fn target_for_load(&self, runnable: usize) -> usize {
        use crate::policy::{PaperPolicy, PolicyInputs};
        let target = PaperPolicy.target(&PolicyInputs {
            load: runnable,
            capacity: self.capacity,
            headroom: self.overload_headroom,
            current_target: 0,
            stats: crate::controller::ControllerStats::default(),
            wait: lc_locks::stats::WaitObservation::default(),
            interval: self.update_interval,
        });
        (target as usize).min(self.max_sleepers)
    }
}

const _: () = assert!(LoadControlConfig::SLOT_CHECK_PERIOD.is_power_of_two());

impl Default for LoadControlConfig {
    fn default() -> Self {
        Self::for_this_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = LoadControlConfig::for_capacity(64);
        assert_eq!(c.capacity, 64);
        assert_eq!(c.update_interval, Duration::from_millis(7));
        assert_eq!(c.sleep_timeout, Duration::from_millis(100));
        assert_eq!(c.overload_headroom, 0);
    }

    #[test]
    fn capacity_is_at_least_one() {
        assert_eq!(LoadControlConfig::for_capacity(0).capacity, 1);
    }

    #[test]
    fn target_for_load_is_excess_over_capacity() {
        let c = LoadControlConfig::for_capacity(64);
        assert_eq!(c.target_for_load(32), 0);
        assert_eq!(c.target_for_load(64), 0);
        assert_eq!(c.target_for_load(96), 32);
        assert_eq!(c.target_for_load(192), 128);
    }

    #[test]
    fn headroom_shifts_the_threshold() {
        let c = LoadControlConfig::for_capacity(64).with_overload_headroom(8);
        assert_eq!(c.target_for_load(70), 0);
        assert_eq!(c.target_for_load(80), 8);
    }

    #[test]
    fn target_is_capped_by_max_sleepers() {
        let mut c = LoadControlConfig::for_capacity(1);
        c.max_sleepers = 4;
        assert_eq!(c.target_for_load(1000), 4);
    }

    #[test]
    fn builder_helpers() {
        let c = LoadControlConfig::for_capacity(8)
            .with_update_interval(Duration::from_millis(3))
            .with_sleep_timeout(Duration::from_millis(50));
        assert_eq!(c.update_interval, Duration::from_millis(3));
        assert_eq!(c.sleep_timeout, Duration::from_millis(50));
    }

    #[test]
    fn this_machine_config_is_sane() {
        let c = LoadControlConfig::for_this_machine();
        assert!(c.capacity >= 1);
        assert_eq!(c.shards, 1, "sharding must be opt-in");
    }

    #[test]
    fn wake_order_defaults_to_fifo_and_round_trips_names() {
        assert_eq!(WakeOrder::default(), WakeOrder::Fifo);
        for order in [WakeOrder::Fifo, WakeOrder::Window] {
            assert_eq!(WakeOrder::parse(order.as_str()), Some(order));
            assert_eq!(order.to_string(), order.as_str());
        }
        assert_eq!(WakeOrder::parse("lifo"), None);
    }
}
