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
/// interval of 7 ms (Figure 10 shows 3–10 ms is the sweet spot), a sleep
/// timeout of 100 ms (§3.1.2), and a slot check every few dozen polling
/// iterations so the common no-space case stays off the handoff path
/// (§3.2.3).
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
    /// A spinning thread consults the sleep-slot buffer once every this many
    /// polling iterations.
    pub slot_check_period: u32,
    /// Upper bound on the sleep target (and on the slot ring size in use).
    pub max_sleepers: usize,
    /// Extra runnable threads tolerated above `capacity` before the
    /// controller starts removing threads (0 reproduces the paper exactly).
    pub overload_headroom: usize,
    /// Number of sleep-slot-buffer shards (a non-zero power of two).
    ///
    /// `1` (the default) reproduces the paper's single `S`/`W`/`T` buffer
    /// exactly; larger values split the claim path and the wake scan per
    /// core group, with the global target partitioned across shards by the
    /// controller's [`crate::policy::TargetSplitter`].
    pub shards: usize,
    /// Order of the controller's batched wake scan within a shard
    /// ([`WakeOrder::Fifo`], the paper's array-order scan, by default).
    pub wake_order: WakeOrder,
}

impl LoadControlConfig {
    /// The paper's controller update interval.
    pub const DEFAULT_UPDATE_INTERVAL: Duration = Duration::from_millis(7);
    /// The paper's sleep timeout (about one scheduler time slice).
    pub const DEFAULT_SLEEP_TIMEOUT: Duration = Duration::from_millis(100);
    /// Default polling-loop iterations between slot-buffer checks.
    pub const DEFAULT_SLOT_CHECK_PERIOD: u32 = 64;
    /// Default cap on simultaneous sleepers.
    pub const DEFAULT_MAX_SLEEPERS: usize = 1024;
    /// Default slot-buffer shard count (1 = the paper's unsharded buffer).
    pub const DEFAULT_SHARDS: usize = 1;
    /// Environment variable consulted by
    /// [`LoadControlConfig::with_shards_from_env`].
    pub const SHARDS_ENV: &'static str = "LC_SHARDS";

    /// A configuration for a machine (or partition) with `capacity` hardware
    /// contexts and paper-default tuning.
    pub fn for_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            update_interval: Self::DEFAULT_UPDATE_INTERVAL,
            sleep_timeout: Self::DEFAULT_SLEEP_TIMEOUT,
            slot_check_period: Self::DEFAULT_SLOT_CHECK_PERIOD,
            max_sleepers: Self::DEFAULT_MAX_SLEEPERS,
            overload_headroom: 0,
            shards: Self::DEFAULT_SHARDS,
            wake_order: WakeOrder::Fifo,
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

    /// Returns `self` with a different slot-check period.
    pub fn with_slot_check_period(mut self, period: u32) -> Self {
        self.slot_check_period = period.max(1);
        self
    }

    /// Returns `self` with a different overload headroom.
    pub fn with_overload_headroom(mut self, headroom: usize) -> Self {
        self.overload_headroom = headroom;
        self
    }

    /// Returns `self` with `shards` slot-buffer shards, rounded up to the
    /// next power of two (and at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1).next_power_of_two();
        self
    }

    /// Returns `self` with the controller's wake scan running in `order`
    /// ([`WakeOrder::Fifo`] restores the paper's array-order scan).
    pub fn with_wake_order(mut self, order: WakeOrder) -> Self {
        self.wake_order = order;
        self
    }

    /// Returns `self` with the shard count taken from the `LC_SHARDS`
    /// environment variable, unchanged when the variable is unset or empty.
    /// This is how the CI acceptance runs re-exercise the whole suite over a
    /// sharded buffer without editing each test.
    ///
    /// # Panics
    ///
    /// Panics when `LC_SHARDS` is set but malformed (not a positive
    /// integer).  A typo in the environment must abort the run, not silently
    /// fall back to the default shard count; use
    /// [`LoadControlConfig::try_with_shards_from_env`] to handle the error.
    pub fn with_shards_from_env(self) -> Self {
        match self.try_with_shards_from_env() {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Returns `self` with the shard count taken from the `LC_SHARDS`
    /// environment variable, unchanged when the variable is unset or empty,
    /// and an explicit [`lc_spec::SpecError`] when it is set but malformed.
    pub fn try_with_shards_from_env(self) -> Result<Self, lc_spec::SpecError> {
        match std::env::var(Self::SHARDS_ENV) {
            Ok(v) if !v.trim().is_empty() => {
                let shards = crate::spec::parse_shards_value(Self::SHARDS_ENV, &v)?;
                Ok(self.with_shards(shards))
            }
            _ => Ok(self),
        }
    }

    /// The sleep target implied by a measurement of `runnable` threads:
    /// the number of threads that should be asleep so that runnable load
    /// returns to `capacity` (the paper's `T = load − 100 %`).
    ///
    /// Delegates to [`crate::policy::PaperPolicy`] — the one place the
    /// paper's rule is written down — then applies this configuration's
    /// `max_sleepers` clamp, exactly as the controller does each cycle.
    pub fn target_for_load(&self, runnable: usize) -> usize {
        use crate::policy::{ControlPolicy, PaperPolicy, PolicyInputs};
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
            .with_sleep_timeout(Duration::from_millis(50))
            .with_slot_check_period(0);
        assert_eq!(c.update_interval, Duration::from_millis(3));
        assert_eq!(c.sleep_timeout, Duration::from_millis(50));
        assert_eq!(c.slot_check_period, 1);
    }

    #[test]
    fn this_machine_config_is_sane() {
        let c = LoadControlConfig::for_this_machine();
        assert!(c.capacity >= 1);
        assert_eq!(c.shards, 1, "sharding must be opt-in");
    }

    #[test]
    fn shards_round_up_to_a_power_of_two() {
        let c = LoadControlConfig::for_capacity(8);
        assert_eq!(c.with_shards(0).shards, 1);
        assert_eq!(c.with_shards(1).shards, 1);
        assert_eq!(c.with_shards(3).shards, 4);
        assert_eq!(c.with_shards(4).shards, 4);
        assert_eq!(c.with_shards(9).shards, 16);
    }

    #[test]
    fn wake_order_defaults_to_fifo_and_round_trips_names() {
        let c = LoadControlConfig::for_capacity(8);
        assert_eq!(c.wake_order, WakeOrder::Fifo);
        assert_eq!(
            c.with_wake_order(WakeOrder::Window).wake_order,
            WakeOrder::Window
        );
        for order in [WakeOrder::Fifo, WakeOrder::Window] {
            assert_eq!(WakeOrder::parse(order.as_str()), Some(order));
            assert_eq!(order.to_string(), order.as_str());
        }
        assert_eq!(WakeOrder::parse("lifo"), None);
    }

    #[test]
    fn shards_from_env_parses_or_errors_explicitly() {
        let _env = crate::spec::ENV_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Process-wide env mutation: use a dedicated variable value and
        // restore it afterwards so parallel tests are unaffected.
        let key = LoadControlConfig::SHARDS_ENV;
        let previous = std::env::var(key).ok();
        std::env::set_var(key, "4");
        assert_eq!(
            LoadControlConfig::for_capacity(2)
                .with_shards_from_env()
                .shards,
            4
        );
        // Unset or empty keeps the default.
        std::env::remove_var(key);
        assert_eq!(
            LoadControlConfig::for_capacity(2)
                .with_shards_from_env()
                .shards,
            1
        );
        std::env::set_var(key, "  ");
        assert_eq!(
            LoadControlConfig::for_capacity(2)
                .with_shards_from_env()
                .shards,
            1
        );
        // Malformed values are explicit errors (the panicking variant aborts;
        // the try variant names the variable), never a silent default.
        for bad in ["not-a-number", "0", "-2", "4.5"] {
            std::env::set_var(key, bad);
            let err = LoadControlConfig::for_capacity(2)
                .try_with_shards_from_env()
                .expect_err("malformed LC_SHARDS must error");
            assert!(err.to_string().contains("LC_SHARDS"), "{err}");
        }
        match previous {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
}
