//! The load controller: a daemon thread that measures load and steers the
//! sleep slot buffer (paper §3.1.1, Figure 7 left).
//!
//! The controller is pure *data plane*: every update interval it samples
//! load, asks its [`Policy`] for the next sleep target, and publishes the
//! answer in the slot buffer.  The decision rule itself is a [`Policy`]
//! variant (see [`crate::policy`]); a [`LoadControlSpec`] picks it — the
//! paper's `T = load − capacity` rule
//! ([`PaperPolicy`](crate::policy::PaperPolicy)) by default — together with
//! the target splitter, shard count, load sampler and wake order, and
//! [`LoadControl::from_spec`] is the one constructor that reads it.

use crate::async_gate::AsyncPlane;
use crate::config::{LoadControlConfig, WakeOrder};
use crate::policy::{Policy, PolicyInputs, TargetSplitter};
use crate::slots::{even_split, SleepSlotBuffer};
use crate::spec::{LoadControlSpec, SamplerSpec, SpecError};
use crate::thread_ctx::{current_ctx, WorkerRegistration};
use crate::time::{ParkOps, RealClock, ThreadPark, TimeSource};
use lc_accounting::{LoadSampler, ThreadRegistry};
use lc_locks::stats::WaitSnapshot;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Counters describing the controller's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Number of measure-and-adjust cycles completed.
    pub cycles: u64,
    /// Last measured runnable-thread count.
    pub last_runnable: usize,
    /// Last sleep target published.
    pub last_target: u64,
    /// Total threads woken early by the controller.
    pub controller_wakes: u64,
    /// Total sleepers that have completed a sleep episode (the buffer's `W`
    /// book): the wake-churn signal meta-policies optimize against.
    pub woken_and_left: u64,
}

/// The process-wide load-control facility.
///
/// One `LoadControl` owns the sleep slot buffer, the thread registry, the
/// control policy and the controller daemon.  It is built from a
/// [`LoadControlConfig`] and a [`LoadControlSpec`] by
/// [`LoadControl::from_spec`] ([`LoadControl::new`] takes the default spec,
/// [`LoadControl::start`] also starts the daemon), and its choices are fixed
/// from then on.  Locks created with
/// [`crate::LcLock::new_with`] — and the rest of the sync surface
/// ([`crate::LcRwLock`], [`crate::LcSemaphore`], and [`crate::LoadGate`] for
/// spin loops of the caller's own) — share it; worker threads register through
/// [`LoadControl::register_worker`] so the controller can see them.
pub struct LoadControl {
    config: LoadControlConfig,
    buffer: SleepSlotBuffer,
    registry: Arc<ThreadRegistry>,
    sampler: Box<dyn LoadSampler>,
    /// The spec this instance was built from, as [`LoadControl::spec`]
    /// reports it.
    spec: LoadControlSpec,
    policy: Mutex<Policy>,
    splitter: Mutex<Box<dyn TargetSplitter>>,
    /// Wait-histogram snapshot as of the previous cycle: each cycle hands the
    /// policy the *delta* window (waits recorded since the last decision), so
    /// latency-aware policies react to current conditions rather than the
    /// run's whole history.
    last_wait: Mutex<WaitSnapshot>,
    /// The async waiting plane: the parked tasks' timeout sweep (see
    /// [`crate::async_gate`]).
    async_plane: AsyncPlane,
    /// The clock every time-dependent path of this instance reads (the
    /// controller's timeout sweep, the waiters' sleep deadlines).  Real by
    /// default; virtual under the `lc-des` simulator.
    time: Arc<dyn TimeSource>,
    /// How waiter threads block in their slots (see [`crate::time::ParkOps`]).
    park_ops: Arc<dyn ParkOps>,
    running: AtomicBool,
    cycles: AtomicU64,
    last_runnable: AtomicUsize,
    daemon: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for LoadControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadControl")
            .field("config", &self.config)
            .field("spec", &self.spec().to_string())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The parts of a [`LoadControl`] that a simulator or a test puts in place
/// of the real machine: the clock, the load sampler with the thread registry
/// it reads, and how waiter threads block.  `Substitutes::default()` is the
/// real machine; [`LoadControl::with_substitutes`] takes the rest.
pub struct Substitutes {
    /// The clock every time-dependent path reads — the controller's async
    /// timeout sweep and the waiters' sleep deadlines (default: a fresh
    /// [`RealClock`]).  The `lc-des` simulator runs the whole control plane
    /// on virtual time through this.
    pub time: Arc<dyn TimeSource>,
    /// A load sampler and the thread registry it reads, in place of the
    /// spec's sampler (default: `None`, the spec's).  The control reports
    /// it by its [`LoadSampler::name`] ([`SamplerSpec::Substitute`]).
    pub sampler: Option<(Arc<ThreadRegistry>, Box<dyn LoadSampler>)>,
    /// How waiter threads block in their slots (default: [`ThreadPark`],
    /// which really blocks).
    pub park_ops: Arc<dyn ParkOps>,
}

impl Default for Substitutes {
    fn default() -> Self {
        Self {
            time: Arc::new(RealClock::new()),
            sampler: None,
            park_ops: Arc::new(ThreadPark),
        }
    }
}

impl fmt::Debug for Substitutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Substitutes")
            .field("time", &self.time)
            .field("sampler", &self.sampler.as_ref().map(|(_, s)| s.name()))
            .field("park_ops", &self.park_ops)
            .finish()
    }
}

/// The slot-buffer shard count that `requested` stands for: rounded up to a
/// power of two (at least 1), and no more shards than `max_sleepers` has
/// slots, so that every shard holds at least one.
fn shard_count(requested: usize, max_sleepers: usize) -> Result<usize, SpecError> {
    let bound = max_sleepers.max(1);
    let reason = match requested.max(1).checked_next_power_of_two() {
        Some(shards) if shards <= bound => return Ok(shards),
        Some(shards) => format!(
            "shard count {requested} rounds up to {shards} shards, more than the \
             {bound} slots of max_sleepers"
        ),
        None => format!("shard count {requested} overflows when rounded up to a power of two"),
    };
    Err(SpecError::Config {
        source: "shards".to_string(),
        reason,
    })
}

impl LoadControl {
    /// Creates a load-control instance with the default spec (the paper's
    /// policy, even splitting, the configuration's shard count, the registry
    /// sampler), *without* starting the controller daemon (useful for tests
    /// and for manually driven experiments).
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is out of range, with the error
    /// [`LoadControl::from_spec`] would return.
    pub fn new(config: LoadControlConfig) -> Arc<Self> {
        Self::from_spec(config, &LoadControlSpec::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a load-control instance and starts its controller daemon.
    ///
    /// # Panics
    ///
    /// As [`LoadControl::new`].
    pub fn start(config: LoadControlConfig) -> Arc<Self> {
        let control = Self::new(config);
        control.start_controller();
        control
    }

    /// Creates a load-control instance from a declarative
    /// [`LoadControlSpec`] (policy, splitter, shard count, sampler, wake
    /// order), daemon not started.
    ///
    /// The spec's shard count, when it names one, replaces the
    /// configuration's; either is rounded up to a power of two, and one that
    /// overflows or leaves a shard without a slot of `max_sleepers` is a
    /// [`SpecError::Config`].
    ///
    /// ```
    /// use lc_core::spec::LoadControlSpec;
    /// use lc_core::{LoadControl, LoadControlConfig};
    ///
    /// let spec: LoadControlSpec =
    ///     "policy=pid(kp=0.8, ki=0.2); splitter=load-weighted; shards=2"
    ///         .parse()
    ///         .unwrap();
    /// let control =
    ///     LoadControl::from_spec(LoadControlConfig::for_capacity(4), &spec).unwrap();
    /// assert_eq!(control.buffer().shard_count(), 2);
    /// // The control reports the spec it was built from, as a spec string
    /// // that reconstructs it.
    /// let reported = control.spec();
    /// assert_eq!(reported.policy.to_string(), "pid(kp=0.8, ki=0.2)");
    /// assert_eq!(
    ///     reported.to_string().parse::<LoadControlSpec>().unwrap(),
    ///     reported
    /// );
    /// ```
    pub fn from_spec(
        config: LoadControlConfig,
        spec: &LoadControlSpec,
    ) -> Result<Arc<Self>, SpecError> {
        Self::with_substitutes(config, spec, Substitutes::default())
    }

    /// [`LoadControl::from_spec`] with a simulated or instrumented clock,
    /// sampler or park primitive in place of the real one.
    pub fn with_substitutes(
        mut config: LoadControlConfig,
        spec: &LoadControlSpec,
        substitutes: Substitutes,
    ) -> Result<Arc<Self>, SpecError> {
        config.shards = shard_count(spec.shards.unwrap_or(config.shards), config.max_sleepers)?;
        let (registry, sampler, sampler_spec) = match substitutes.sampler {
            Some((registry, sampler)) => {
                let reported = SamplerSpec::Substitute(sampler.name());
                (registry, sampler, reported)
            }
            None => {
                let registry = Arc::new(ThreadRegistry::new());
                let sampler_spec = spec.sampler.clone().unwrap_or_default();
                let sampler = sampler_spec.build(&registry)?;
                (registry, sampler, sampler_spec)
            }
        };
        let wake_order = spec.wake_order.unwrap_or_default();
        let spec = LoadControlSpec {
            shards: Some(config.shards),
            sampler: Some(sampler_spec),
            // Leave the default out, so spec strings (and the artifacts that
            // embed them) stay byte-stable.
            wake_order: (wake_order != WakeOrder::Fifo).then_some(wake_order),
            ..spec.clone()
        };
        Ok(Arc::new(LoadControl {
            buffer: SleepSlotBuffer::with_shards(config.max_sleepers, config.shards)
                .with_wake_order(wake_order),
            config,
            registry,
            sampler,
            policy: Mutex::new(spec.policy.build()),
            splitter: Mutex::new(spec.splitter.build()),
            spec,
            last_wait: Mutex::new(WaitSnapshot::default()),
            async_plane: AsyncPlane::new(),
            time: substitutes.time,
            park_ops: substitutes.park_ops,
            running: AtomicBool::new(false),
            cycles: AtomicU64::new(0),
            last_runnable: AtomicUsize::new(0),
            daemon: Mutex::new(None),
        }))
    }

    /// The process-wide default instance (capacity = available parallelism),
    /// with its controller running.  This is what [`crate::LcLock`]'s `RawLock::new` uses,
    /// mirroring the paper's "drop-in library" deployment model.
    pub fn global() -> Arc<Self> {
        static GLOBAL: std::sync::OnceLock<Arc<LoadControl>> = std::sync::OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| LoadControl::start(LoadControlConfig::for_this_machine())))
    }

    /// The configuration in effect.
    pub fn config(&self) -> LoadControlConfig {
        self.config
    }

    /// The thread registry used for load measurement.
    pub fn registry(&self) -> &Arc<ThreadRegistry> {
        &self.registry
    }

    /// The sleep slot buffer (exposed for instrumentation and tests).
    pub fn buffer(&self) -> &SleepSlotBuffer {
        &self.buffer
    }

    /// The async waiting plane shared by every [`crate::AsyncLoadGate`] on
    /// this instance.
    pub(crate) fn async_plane(&self) -> &AsyncPlane {
        &self.async_plane
    }

    /// The clock this instance runs on (see [`Substitutes::time`]).
    pub fn time(&self) -> &Arc<dyn TimeSource> {
        &self.time
    }

    /// The blocking primitive waiter threads park through (see
    /// [`Substitutes::park_ops`]).
    pub fn park_ops(&self) -> &Arc<dyn ParkOps> {
        &self.park_ops
    }

    /// Number of async tasks currently parked by load control (diagnostics;
    /// these tasks also appear in [`LoadControl::sleepers`], which counts
    /// claims of both waiter kinds).
    pub fn async_parked_tasks(&self) -> usize {
        self.async_plane.parked_tasks()
    }

    /// Registers the calling thread as a load-controlled worker: it is added
    /// to the thread registry (so the controller can count it) and given a
    /// sleeper identity in the slot buffer.
    ///
    /// Dropping the returned registration marks the thread idle again.
    pub fn register_worker(self: &Arc<Self>) -> WorkerRegistration {
        WorkerRegistration::new(current_ctx(self))
    }

    /// The spec this instance was built from, in canonical form: the
    /// policy, the splitter, the shard count in effect, the sampler (a
    /// substituted one by its name) and, when not the default, the wake
    /// order.  A name is `spec().policy.name()`.
    ///
    /// The rendered string (`spec().to_string()`) parses back to an equal
    /// [`LoadControlSpec`] unless a sampler was substituted, so logs and
    /// bench labels can record the exact control plane a measurement ran
    /// under.
    pub fn spec(&self) -> LoadControlSpec {
        self.spec.clone()
    }

    /// Manually sets the sleep target.
    ///
    /// Under a load-following policy the next controller cycle will overwrite
    /// it; combined with [`crate::policy::FixedPolicy::manual`] the value
    /// persists across cycles (the bump-test / experiment-driving setup that
    /// used to be `ControllerMode::Manual`).
    pub fn set_sleep_target(&self, target: u64) -> usize {
        self.buffer.set_target(target)
    }

    /// The current sleep target.
    pub fn sleep_target(&self) -> u64 {
        self.buffer.target()
    }

    /// Number of threads currently asleep (or committed to sleeping).
    pub fn sleepers(&self) -> u64 {
        self.buffer.sleepers()
    }

    /// Whether the controller currently considers the process overloaded.
    pub fn is_overloaded(&self) -> bool {
        self.buffer.target() > 0
    }

    /// Runs one controller cycle immediately: measure load, consult the
    /// policy, publish the target.
    ///
    /// This is what the daemon does every `update_interval`; tests and the
    /// simulator-driven experiments call it directly.
    pub fn run_cycle(&self) -> ControllerStats {
        let runnable = self.sampler.sample();
        self.last_runnable.store(runnable, Ordering::Relaxed);
        // Demand = runnable threads plus the ones currently asleep in the
        // slot buffer; using total demand keeps the target stable instead
        // of mass-waking sleepers whenever runnable load dips briefly.
        let load = runnable + self.buffer.sleepers() as usize;
        // The wait observation handed to the policy is this cycle's *delta*
        // window: episodes recorded since the previous decision.
        let wait = {
            let snapshot = self.buffer.wait_snapshot();
            let mut last = self.last_wait.lock().unwrap();
            let delta = snapshot.since(&last);
            *last = snapshot;
            delta.observation()
        };
        let inputs = PolicyInputs {
            load,
            capacity: self.config.capacity,
            headroom: self.config.overload_headroom,
            current_target: self.buffer.target(),
            stats: self.stats(),
            wait,
            interval: self.config.update_interval,
        };
        let target = self.policy.lock().unwrap().target(&inputs);
        let target = target.min(self.config.max_sleepers as u64);
        // Publish only on change: re-publishing the value we just read would
        // turn this cycle into a read-modify-write that can silently revert a
        // concurrent `set_sleep_target` (the externally steered
        // `FixedPolicy::manual` setup), and a policy that holds the target
        // steady must behave like the old skip-entirely manual mode.
        // A splitter that `rebalances()` opts out of the skip while the
        // target is non-zero: it re-partitions the *same* total every cycle
        // (so per-shard shares track claim traffic), which preserves the
        // externally steered total up to that same benign race.
        {
            let mut splitter = self.splitter.lock().unwrap();
            let changed = target != inputs.current_target;
            if changed || (target > 0 && splitter.rebalances()) {
                let shard_capacity = self.buffer.shard_capacity() as u64;
                let mut split =
                    splitter.split(target, &self.buffer.shard_snapshots(), shard_capacity);
                // A custom splitter returning the wrong number of shares
                // must degrade (to the even split), not panic the daemon
                // thread — a dead controller strands every parked sleeper
                // until its timeout and silently disables load control.
                if split.len() != self.buffer.shard_count() {
                    split = even_split(target, self.buffer.shard_count(), shard_capacity);
                }
                if changed {
                    self.buffer.set_shard_targets(&split);
                } else {
                    // Rebalance of an *unchanged* total: publish only if no
                    // external `set_sleep_target` landed since this cycle
                    // read the target, so a steered value is never clobbered
                    // by the repartition of a stale total (the rebalance
                    // simply waits for the next cycle).
                    let _ = self.buffer.set_shard_targets_if(&split, target);
                }
            }
        }
        // Async sleepers cannot wake themselves at their deadline the way a
        // thread's `park_timeout` does, so the controller sweeps them: any
        // parked task whose sleep timeout has passed is unparked (its waker
        // fires through the very same parker a thread wake would use).
        self.async_plane.wake_expired(self.time.now());
        self.cycles.fetch_add(1, Ordering::Relaxed);
        self.stats()
    }

    /// Starts the controller daemon if it is not already running.
    pub fn start_controller(self: &Arc<Self>) {
        let mut guard = self.daemon.lock().unwrap();
        if guard.is_some() {
            return;
        }
        self.running.store(true, Ordering::SeqCst);
        // The daemon holds the control only for the length of a cycle, so a
        // control dropped without `stop_controller` is freed, and its daemon
        // exits at its next wake-up.  Whoever stops it wakes the sleepers.
        let control = Arc::downgrade(self);
        let interval = self.config.update_interval;
        let handle = std::thread::Builder::new()
            .name("lc-controller".to_string())
            .spawn(move || {
                while let Some(this) = control.upgrade() {
                    if !this.running.load(Ordering::SeqCst) {
                        break;
                    }
                    this.run_cycle();
                    drop(this);
                    std::thread::sleep(interval);
                }
            })
            .expect("failed to spawn load-control daemon");
        *guard = Some(handle);
    }

    /// Stops the controller daemon (idempotent) and wakes all sleepers.
    pub fn stop_controller(&self) {
        self.running.store(false, Ordering::SeqCst);
        let handle = self.daemon.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.buffer.wake_all();
    }

    /// Whether the daemon is currently running.
    pub fn controller_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Controller activity counters.
    pub fn stats(&self) -> ControllerStats {
        let buffer = self.buffer.stats();
        ControllerStats {
            cycles: self.cycles.load(Ordering::Relaxed),
            last_runnable: self.last_runnable.load(Ordering::Relaxed),
            last_target: self.buffer.target(),
            controller_wakes: buffer.controller_wakes,
            woken_and_left: buffer.woken_and_left,
        }
    }
}

impl Drop for LoadControl {
    fn drop(&mut self) {
        // Nothing to join: a daemon still running finds the control gone at
        // its next wake-up, and this drop may run on the daemon itself.
        self.buffer.wake_all();
    }
}

/// A control on `config` built from the spec string `spec`, daemon not
/// started: how the unit tests of every module build theirs.
#[cfg(test)]
pub(crate) fn spec_control(config: LoadControlConfig, spec: &str) -> Arc<LoadControl> {
    let parsed = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    LoadControl::from_spec(config, &parsed).unwrap_or_else(|e| panic!("{spec}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_accounting::ThreadState;
    use std::time::Duration;

    #[test]
    fn manual_target_controls_buffer() {
        let lc = spec_control(LoadControlConfig::for_capacity(4), "policy=fixed");
        assert_eq!(lc.sleep_target(), 0);
        lc.set_sleep_target(3);
        assert_eq!(lc.sleep_target(), 3);
        assert!(lc.is_overloaded());
        lc.set_sleep_target(0);
        assert!(!lc.is_overloaded());
    }

    #[test]
    fn automatic_cycle_tracks_registry_load() {
        let lc = LoadControl::new(LoadControlConfig::for_capacity(2));
        assert_eq!(lc.spec().policy.to_string(), "paper");
        assert_eq!(lc.spec().sampler.unwrap().to_string(), "registry");
        // Register four runnable threads directly with the registry.
        let handles: Vec<_> = (0..4).map(|_| lc.registry().register()).collect();
        let stats = lc.run_cycle();
        assert_eq!(stats.last_runnable, 4);
        assert_eq!(stats.last_target, 2);
        // Block two of them: the target must fall back to zero.
        handles[0].set_state(ThreadState::BlockedOnIo);
        handles[1].set_state(ThreadState::BlockedOnIo);
        let stats = lc.run_cycle();
        assert_eq!(stats.last_runnable, 2);
        assert_eq!(stats.last_target, 0);
        assert_eq!(stats.cycles, 2);
    }

    #[test]
    fn fixed_policy_ignores_measurements() {
        let lc = spec_control(LoadControlConfig::for_capacity(1), "policy=fixed");
        let _h: Vec<_> = (0..5).map(|_| lc.registry().register()).collect();
        lc.set_sleep_target(2);
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 2);
        assert_eq!(lc.spec().policy.name(), "fixed");
    }

    #[test]
    fn pinned_policy_overrides_manual_bumps() {
        let lc = spec_control(LoadControlConfig::for_capacity(1), "policy=fixed(target=3)");
        lc.set_sleep_target(7);
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 3);
    }

    #[test]
    fn hysteresis_policy_damps_target_flapping() {
        let lc = spec_control(
            LoadControlConfig::for_capacity(2),
            "policy=hysteresis(alpha=0.5, up=1, down=2)",
        );
        let handles: Vec<_> = (0..6).map(|_| lc.registry().register()).collect();
        lc.run_cycle();
        let settled = lc.sleep_target();
        assert!(settled > 0, "sustained overload must produce a target");
        // One thread briefly blocks: the smoothed, deadbanded target holds.
        handles[0].set_state(ThreadState::BlockedOnIo);
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), settled, "one-sample dip must not flap");
        handles[0].set_state(ThreadState::Running);
    }

    #[test]
    fn from_spec_builds_the_whole_control_plane() {
        let spec: LoadControlSpec =
            "policy=pid(kp=0.8, ki=0.2); splitter=load-weighted(ewma=0.25); shards=2; sampler=fixed(runnable=9)"
                .parse()
                .unwrap();
        let lc = LoadControl::from_spec(LoadControlConfig::for_capacity(4), &spec).unwrap();
        assert_eq!(lc.buffer().shard_count(), 2);
        let stats = lc.run_cycle();
        assert_eq!(stats.last_runnable, 9, "spec sampler not wired");
        // The live spec reports every plane and round-trips through parse.
        let reported = lc.spec();
        assert_eq!(reported.policy.to_string(), "pid(kp=0.8, ki=0.2)");
        assert_eq!(reported.splitter.to_string(), "load-weighted(ewma=0.25)");
        assert_eq!(reported.shards, Some(2));
        assert_eq!(
            reported.sampler.as_ref().unwrap().to_string(),
            "fixed(runnable=9)"
        );
        let reparsed: LoadControlSpec = reported.to_string().parse().unwrap();
        assert_eq!(reparsed, reported);
        // And the reported spec reconstructs an equivalent instance.
        let rebuilt =
            LoadControl::from_spec(LoadControlConfig::for_capacity(4), &reported).unwrap();
        assert_eq!(rebuilt.spec(), reported);

        // Parameters reach the policy and the sampler.
        let lc = spec_control(LoadControlConfig::for_capacity(2), "policy=fixed(target=5)");
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 5);
        let lc = spec_control(
            LoadControlConfig::for_capacity(2),
            "sampler=fixed(runnable=6)",
        );
        let stats = lc.run_cycle();
        assert_eq!((stats.last_runnable, stats.last_target), (6, 4));
        // Names and keys the sets do not have are errors.
        for bad in [
            "policy=no-such-policy",
            "splitter=no-such-splitter",
            "sampler=fixed(bogus=1)",
        ] {
            assert!(bad.parse::<LoadControlSpec>().is_err(), "{bad}");
        }
        // A substituted sampler is reported by name and builds nothing.
        let unbuildable = LoadControlSpec {
            sampler: Some(SamplerSpec::Substitute("des")),
            ..LoadControlSpec::default()
        };
        assert!(LoadControl::from_spec(LoadControlConfig::for_capacity(2), &unbuildable).is_err());
    }

    #[test]
    fn daemon_starts_and_stops() {
        let lc = LoadControl::new(
            LoadControlConfig::for_capacity(2).with_update_interval(Duration::from_millis(1)),
        );
        lc.start_controller();
        assert!(lc.controller_running());
        // Give it a few cycles.
        std::thread::sleep(Duration::from_millis(20));
        lc.stop_controller();
        assert!(!lc.controller_running());
        assert!(lc.stats().cycles >= 2);
    }

    #[test]
    fn a_control_dropped_with_its_daemon_running_is_freed() {
        let interval = Duration::from_millis(1);
        let lc =
            LoadControl::new(LoadControlConfig::for_capacity(2).with_update_interval(interval));
        lc.start_controller();
        let weak = Arc::downgrade(&lc);
        drop(lc);
        // The daemon holds the control only for the length of a cycle, so
        // the last strong reference is gone within an interval or two.
        for _ in 0..1_000 {
            if weak.upgrade().is_none() {
                return;
            }
            std::thread::sleep(interval);
        }
        panic!("a dropped control is still alive after 1000 update intervals");
    }

    #[test]
    fn start_controller_is_idempotent() {
        let lc = LoadControl::new(
            LoadControlConfig::for_capacity(2).with_update_interval(Duration::from_millis(1)),
        );
        lc.start_controller();
        lc.start_controller();
        lc.stop_controller();
    }

    #[test]
    fn global_instance_is_shared() {
        let a = LoadControl::global();
        let b = LoadControl::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.config().capacity >= 1);
    }

    #[test]
    fn sharded_controller_partitions_the_target() {
        let mut config = LoadControlConfig::for_capacity(2).with_shards(4);
        config.max_sleepers = 16;
        let lc = LoadControl::new(config);
        assert_eq!(lc.buffer().shard_count(), 4);
        assert_eq!(lc.spec().splitter.name(), "even");
        let _handles: Vec<_> = (0..9).map(|_| lc.registry().register()).collect();
        let stats = lc.run_cycle();
        assert_eq!(stats.last_target, 7, "T = load − capacity");
        let per_shard: Vec<u64> = (0..4).map(|i| lc.buffer().shard_target(i)).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 7, "sum(T_i) must equal T");
        assert_eq!(per_shard, vec![2, 2, 2, 1]);
    }

    #[test]
    fn rebalancing_splitter_runs_every_cycle_under_a_steady_target() {
        use crate::policy::TargetSplitter;
        use crate::slots::{even_split, ShardSnapshot};
        use std::sync::atomic::AtomicU64 as Counter;

        #[derive(Debug)]
        struct CountingSplitter(Arc<Counter>);
        impl TargetSplitter for CountingSplitter {
            fn rebalances(&self) -> bool {
                true
            }
            fn split(&mut self, total: u64, shards: &[ShardSnapshot], cap: u64) -> Vec<u64> {
                self.0.fetch_add(1, Ordering::Relaxed);
                even_split(total, shards.len(), cap)
            }
        }

        let calls = Arc::new(Counter::new(0));
        let lc = spec_control(LoadControlConfig::for_capacity(1), "shards=2");
        *lc.splitter.lock().unwrap() = Box::new(CountingSplitter(Arc::clone(&calls)));
        let _h: Vec<_> = (0..4).map(|_| lc.registry().register()).collect();
        // Constant load → the target settles at 3 and stops changing, but a
        // rebalancing splitter must still be consulted every cycle.
        for _ in 0..5 {
            lc.run_cycle();
        }
        assert_eq!(lc.sleep_target(), 3);
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        // A zero target skips the re-split entirely.
        drop(_h);
        lc.run_cycle(); // target changes 3 → 0: one more call
        lc.run_cycle(); // steady at 0: no call
        assert_eq!(calls.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn default_even_splitter_splits_only_on_target_changes() {
        // The even splitter does not rebalance: a steady target leaves the
        // published partition untouched (preserving the manual-steering
        // publish-on-change semantics verified elsewhere); the partition
        // still follows every target change.
        let lc = spec_control(LoadControlConfig::for_capacity(1), "shards=2");
        let handles: Vec<_> = (0..5).map(|_| lc.registry().register()).collect();
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 4);
        assert_eq!(lc.buffer().shard_target(0), 2);
        drop(handles);
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 0);
        assert_eq!(lc.buffer().shard_target(0), 0);
        assert_eq!(lc.buffer().shard_target(1), 0);
    }

    #[test]
    fn rebalance_never_clobbers_a_concurrent_manual_target() {
        use crate::policy::SplitterSpec;

        // The rebalance path republishes an *unchanged* total; if an
        // external set_sleep_target landed since the cycle read it, the
        // conditional publish must skip rather than revert it.
        let lc = spec_control(
            LoadControlConfig::for_capacity(1),
            "policy=fixed; splitter=load-weighted; shards=2",
        );
        assert!("load-weighted"
            .parse::<SplitterSpec>()
            .unwrap()
            .build()
            .rebalances());
        lc.set_sleep_target(4);
        lc.run_cycle(); // manual policy keeps 4; rebalance republishes 4
        assert_eq!(lc.sleep_target(), 4);
        // Simulate the race directly at the buffer layer: a repartition of
        // the stale total 4 must not land once the target moved to 6.
        lc.set_sleep_target(6);
        assert_eq!(lc.buffer().set_shard_targets_if(&[2, 2], 4), None);
        assert_eq!(lc.sleep_target(), 6, "stale rebalance clobbered the target");
        // With the matching expectation it publishes normally.
        assert!(lc.buffer().set_shard_targets_if(&[3, 3], 6).is_some());
        assert_eq!(lc.sleep_target(), 6);
    }

    #[test]
    fn hand_set_shard_counts_are_normalized_not_panicked_on() {
        let lc = LoadControl::new(LoadControlConfig::for_capacity(4).with_shards(6));
        assert_eq!(lc.buffer().shard_count(), 8);
        // The retained config agrees with the buffer.
        assert_eq!(lc.config().shards, 8);
        let lc = LoadControl::new(LoadControlConfig::for_capacity(4).with_shards(0));
        assert_eq!(lc.buffer().shard_count(), 1);
        assert_eq!(lc.config().shards, 1);
        // The spec's count replaces the configuration's, rounded the same way.
        let lc = spec_control(
            LoadControlConfig::for_capacity(4).with_shards(2),
            "shards=3",
        );
        assert_eq!((lc.buffer().shard_count(), lc.config().shards), (4, 4));
    }

    #[test]
    #[should_panic(expected = "more than the 2 slots of max_sleepers")]
    fn a_hand_set_shard_count_past_max_sleepers_panics_in_new() {
        let mut config = LoadControlConfig::for_capacity(1).with_shards(3);
        config.max_sleepers = 2;
        LoadControl::new(config);
    }

    #[test]
    fn manual_target_respects_max_sleepers_despite_shard_rounding() {
        // max_sleepers = 10 over 4 shards rounds the physical ring up to 12
        // slots, but an externally steered target must still cap at 10.
        let mut config = LoadControlConfig::for_capacity(2).with_shards(4);
        config.max_sleepers = 10;
        let lc = spec_control(config, "policy=fixed");
        assert_eq!(lc.buffer().capacity(), 12);
        lc.set_sleep_target(100);
        assert_eq!(lc.sleep_target(), 10);
    }

    #[test]
    fn malformed_splitter_output_degrades_to_the_even_split() {
        use crate::policy::TargetSplitter;
        use crate::slots::ShardSnapshot;

        #[derive(Debug)]
        struct BrokenSplitter;
        impl TargetSplitter for BrokenSplitter {
            fn split(&mut self, _total: u64, _shards: &[ShardSnapshot], _cap: u64) -> Vec<u64> {
                Vec::new() // wrong length: would panic set_shard_targets
            }
        }

        let lc = spec_control(LoadControlConfig::for_capacity(1), "shards=2");
        *lc.splitter.lock().unwrap() = Box::new(BrokenSplitter);
        let _h: Vec<_> = (0..5).map(|_| lc.registry().register()).collect();
        // The cycle must survive and publish the even split instead.
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 4);
        assert_eq!(lc.buffer().shard_target(0), 2);
        assert_eq!(lc.buffer().shard_target(1), 2);
    }

    #[test]
    fn concurrent_target_publishers_never_tear_the_partition() {
        // set_sleep_target racing the controller's own publication must end
        // with *some* whole partition — never a mix of two with the cached
        // total out of sync (`sum(T_i) == target()` is the invariant every
        // reader relies on).
        let lc = spec_control(LoadControlConfig::for_capacity(1), "policy=fixed; shards=4");
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for worker in 0..2u64 {
            let lc = Arc::clone(&lc);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut t = worker;
                while !stop.load(Ordering::Relaxed) {
                    t = (t + 3) % 9;
                    lc.set_sleep_target(t);
                }
            }));
        }
        for _ in 0..5_000 {
            // A lock-free reader between a publisher's stores may see a mix
            // of two partitions, but every individual value it sees must be
            // one some publisher actually wrote: per-shard targets within
            // the shard capacity, the cached total within the buffer
            // capacity.
            for i in 0..4 {
                assert!(lc.buffer().shard_target(i) <= lc.buffer().shard_capacity() as u64);
            }
            assert!(lc.sleep_target() <= lc.buffer().capacity() as u64);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        // Quiesced: the last full publication must be self-consistent.
        let total: u64 = (0..4).map(|i| lc.buffer().shard_target(i)).sum();
        assert_eq!(
            lc.sleep_target(),
            total,
            "cached global target diverged from sum(T_i) after racing publishers"
        );
    }

    #[test]
    fn manual_target_even_splits_across_shards() {
        let lc = spec_control(LoadControlConfig::for_capacity(4), "policy=fixed; shards=2");
        lc.set_sleep_target(5);
        assert_eq!(lc.sleep_target(), 5);
        assert_eq!(lc.buffer().shard_target(0), 3);
        assert_eq!(lc.buffer().shard_target(1), 2);
    }
}
