//! The load controller: a daemon thread that measures load and steers the
//! sleep slot buffer (paper §3.1.1, Figure 7 left).
//!
//! The controller is pure *data plane*: every update interval it samples
//! load, asks its [`ControlPolicy`] for the next sleep target, and publishes
//! the answer in the slot buffer.  The decision rule itself lives behind the
//! [`ControlPolicy`] trait (see [`crate::policy`]) so deployments can swap it
//! — the paper's `T = load − capacity` rule ([`PaperPolicy`]) is simply the
//! default.

use crate::async_gate::AsyncPlane;
use crate::config::{LoadControlConfig, WakeOrder};
use crate::policy::{
    ControlPolicy, EvenSplitter, PaperPolicy, PolicyInputs, TargetSplitter, POLICY_SPECS,
    SPLITTER_SPECS,
};
use crate::slots::{even_split, SleepSlotBuffer};
use crate::spec::{LoadControlSpec, SpecError};
use crate::thread_ctx::{current_ctx, WorkerRegistration};
use crate::time::{ParkOps, RealClock, ThreadPark, TimeSource};
use lc_accounting::{LoadSampler, RegistryLoadSampler, ThreadRegistry, SAMPLER_SPECS};
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

struct Shared {
    config: LoadControlConfig,
    buffer: SleepSlotBuffer,
    registry: Arc<ThreadRegistry>,
    sampler: Box<dyn LoadSampler>,
    policy: Mutex<Box<dyn ControlPolicy>>,
    splitter: Mutex<Box<dyn TargetSplitter>>,
    /// Wait-histogram snapshot as of the previous cycle: each cycle hands the
    /// policy the *delta* window (waits recorded since the last decision), so
    /// latency-aware policies react to current conditions rather than the
    /// run's whole history.
    last_wait: Mutex<WaitSnapshot>,
    /// The async waiting plane: pooled task sleeper leases plus the parked
    /// tasks' timeout sweep (see [`crate::async_gate`]).
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
}

/// The process-wide load-control facility.
///
/// One `LoadControl` owns the sleep slot buffer, the thread registry, the
/// control policy and the controller daemon.  Locks created with
/// [`crate::LcLock::new_with`] — and the rest of the sync surface
/// ([`crate::LcRwLock`], [`crate::LcSemaphore`], [`crate::LcCondvar`]) —
/// share it; worker threads register through
/// [`LoadControl::register_worker`] so the controller can see them.
pub struct LoadControl {
    shared: Arc<Shared>,
    daemon: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for LoadControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadControl")
            .field("config", &self.shared.config)
            .field("policy", &self.policy_name())
            .field("splitter", &self.splitter_name())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Builder-style construction of a [`LoadControl`]: pick the control policy
/// (by value or by spec string), optionally a custom sampler, and whether
/// the controller daemon starts immediately.
///
/// ```
/// use lc_core::{LoadControl, LoadControlConfig};
///
/// let control = LoadControl::builder(LoadControlConfig::for_capacity(4))
///     .policy_spec("hysteresis(alpha=0.3, deadband=2)")
///     .expect("registered policy")
///     .build();
/// assert_eq!(control.policy_name(), "hysteresis");
/// // The live spec reports the non-default parameters back.
/// assert_eq!(control.spec().policy.to_string(), "hysteresis(alpha=0.3, up=2)");
/// ```
pub struct LoadControlBuilder {
    config: LoadControlConfig,
    policy: Box<dyn ControlPolicy>,
    splitter: Box<dyn TargetSplitter>,
    sampler: Option<(Arc<ThreadRegistry>, Box<dyn LoadSampler>)>,
    time: Option<Arc<dyn TimeSource>>,
    park_ops: Option<Arc<dyn ParkOps>>,
    start: bool,
}

impl fmt::Debug for LoadControlBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadControlBuilder")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("splitter", &self.splitter.name())
            .field("start", &self.start)
            .finish()
    }
}

impl LoadControlBuilder {
    fn new(config: LoadControlConfig) -> Self {
        Self {
            config,
            policy: Box::new(PaperPolicy),
            splitter: Box::new(EvenSplitter),
            sampler: None,
            time: None,
            park_ops: None,
            start: false,
        }
    }

    /// Uses `policy` as the control policy (default: [`PaperPolicy`]).
    pub fn policy(mut self, policy: impl ControlPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Uses an already-boxed control policy.
    pub fn boxed_policy(mut self, policy: Box<dyn ControlPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the control policy from the registry by spec string — a bare
    /// name from [`crate::policy::ALL_POLICY_NAMES`] or a parameterized
    /// `name(key=value, ...)` spec such as `pid(kp=0.5, ki=0.1)`.
    pub fn policy_spec(self, spec: &str) -> Result<Self, SpecError> {
        Ok(self.boxed_policy(POLICY_SPECS.build(spec)?))
    }

    /// Uses `splitter` to partition the sleep target across slot-buffer
    /// shards (default: [`EvenSplitter`]; irrelevant with a single shard).
    pub fn splitter(mut self, splitter: impl TargetSplitter + 'static) -> Self {
        self.splitter = Box::new(splitter);
        self
    }

    /// Uses an already-boxed target splitter.
    pub fn boxed_splitter(mut self, splitter: Box<dyn TargetSplitter>) -> Self {
        self.splitter = splitter;
        self
    }

    /// Selects the target splitter from the registry by spec string — a bare
    /// name from [`crate::policy::ALL_SPLITTER_NAMES`] or a parameterized
    /// spec such as `load-weighted(ewma=0.25)`.
    pub fn splitter_spec(self, spec: &str) -> Result<Self, SpecError> {
        Ok(self.boxed_splitter(SPLITTER_SPECS.build(spec)?))
    }

    /// Uses a caller-supplied thread registry and load sampler instead of the
    /// default registry-backed sampler.
    pub fn sampler(mut self, registry: Arc<ThreadRegistry>, sampler: Box<dyn LoadSampler>) -> Self {
        self.sampler = Some((registry, sampler));
        self
    }

    /// Selects the load sampler from the registry by spec string — a bare
    /// name from [`lc_accounting::ALL_SAMPLER_NAMES`] or a parameterized
    /// spec such as `fixed(runnable=9)`.  A fresh thread registry is created
    /// as the sampler's context (and becomes this instance's registry),
    /// exactly as the default construction path does.
    pub fn sampler_spec(self, spec: &str) -> Result<Self, SpecError> {
        let registry = Arc::new(ThreadRegistry::new());
        let sampler = SAMPLER_SPECS.build_in(&registry, spec)?;
        Ok(self.sampler(registry, sampler))
    }

    /// Applies a declarative [`LoadControlSpec`] — policy, splitter, shard
    /// count and (when present) sampler — on top of the current
    /// builder state.  A spec that never mentioned `shards` keeps the
    /// configuration's shard count instead of silently resetting it.
    pub fn apply_spec(mut self, spec: &LoadControlSpec) -> Result<Self, SpecError> {
        if let Some(shards) = spec.shards {
            self.config = self.config.with_shards(shards);
        }
        if let Some(order) = spec.wake_order {
            self.config = self.config.with_wake_order(order);
        }
        self = self.policy_spec(&spec.policy.to_string())?;
        self = self.splitter_spec(&spec.splitter.to_string())?;
        if let Some(sampler) = &spec.sampler {
            self = self.sampler_spec(&sampler.to_string())?;
        }
        Ok(self)
    }

    /// Uses `time` as this instance's clock (default: a fresh
    /// [`RealClock`]).  Every time-dependent path — the controller's async
    /// timeout sweep and the waiters' sleep deadlines — reads this source,
    /// which is how the `lc-des` simulator runs the whole control plane on
    /// virtual time with no code forks.
    pub fn time_source(mut self, time: Arc<dyn TimeSource>) -> Self {
        self.time = Some(time);
        self
    }

    /// Uses `park_ops` as the blocking primitive for waiter threads
    /// (default: [`ThreadPark`], which really blocks).
    pub fn park_ops(mut self, park_ops: Arc<dyn ParkOps>) -> Self {
        self.park_ops = Some(park_ops);
        self
    }

    /// Starts the controller daemon as part of [`LoadControlBuilder::build`].
    pub fn start_daemon(mut self) -> Self {
        self.start = true;
        self
    }

    /// Constructs the [`LoadControl`] instance.
    pub fn build(mut self) -> Arc<LoadControl> {
        // `shards` is a pub config field, so normalize exactly as
        // `with_shards` does — into the retained config too, keeping
        // `LoadControl::config().shards` in agreement with
        // `buffer().shard_count()` — rather than letting the buffer
        // constructor panic on a hand-set non-power-of-two.
        self.config.shards = self.config.shards.max(1).next_power_of_two();
        let (registry, sampler) = match self.sampler {
            Some((registry, sampler)) => (registry, sampler),
            None => {
                let registry = Arc::new(ThreadRegistry::new());
                let sampler: Box<dyn LoadSampler> =
                    Box::new(RegistryLoadSampler::new(Arc::clone(&registry)));
                (registry, sampler)
            }
        };
        let shared = Arc::new(Shared {
            buffer: SleepSlotBuffer::with_shards(self.config.max_sleepers, self.config.shards)
                .with_wake_order(self.config.wake_order),
            config: self.config,
            registry,
            sampler,
            policy: Mutex::new(self.policy),
            splitter: Mutex::new(self.splitter),
            last_wait: Mutex::new(WaitSnapshot::default()),
            async_plane: AsyncPlane::new(),
            time: self
                .time
                .unwrap_or_else(|| Arc::new(RealClock::new()) as Arc<dyn TimeSource>),
            park_ops: self
                .park_ops
                .unwrap_or_else(|| Arc::new(ThreadPark) as Arc<dyn ParkOps>),
            running: AtomicBool::new(false),
            cycles: AtomicU64::new(0),
            last_runnable: AtomicUsize::new(0),
        });
        let lc = Arc::new(LoadControl {
            shared,
            daemon: Mutex::new(None),
        });
        if self.start {
            lc.start_controller();
        }
        lc
    }
}

impl LoadControl {
    /// Creates a load-control instance with the default [`PaperPolicy`],
    /// *without* starting the controller daemon (useful for tests and for
    /// manually driven experiments).
    pub fn new(config: LoadControlConfig) -> Arc<Self> {
        Self::builder(config).build()
    }

    /// Begins builder-style construction (policy selection, custom sampler,
    /// daemon autostart).
    pub fn builder(config: LoadControlConfig) -> LoadControlBuilder {
        LoadControlBuilder::new(config)
    }

    /// Creates a load-control instance steered by `policy`, daemon not
    /// started.
    pub fn with_policy(config: LoadControlConfig, policy: Box<dyn ControlPolicy>) -> Arc<Self> {
        Self::builder(config).boxed_policy(policy).build()
    }

    /// Creates a load-control instance from a declarative
    /// [`LoadControlSpec`] (policy, splitter, shard count, sampler), daemon
    /// not started.
    ///
    /// The spec's shard count is applied on top of `config` exactly like
    /// [`LoadControlConfig::with_shards`].
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
    /// assert_eq!(control.policy_name(), "pid");
    /// assert_eq!(control.buffer().shard_count(), 2);
    /// // The live configuration reports back as a spec string that
    /// // reconstructs it.
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
        Ok(Self::builder(config).apply_spec(spec)?.build())
    }

    /// Creates a load-control instance and starts its controller daemon.
    pub fn start(config: LoadControlConfig) -> Arc<Self> {
        Self::builder(config).start_daemon().build()
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
        self.shared.config
    }

    /// The thread registry used for load measurement.
    pub fn registry(&self) -> &Arc<ThreadRegistry> {
        &self.shared.registry
    }

    /// The sleep slot buffer (exposed for instrumentation and tests).
    pub fn buffer(&self) -> &SleepSlotBuffer {
        &self.shared.buffer
    }

    /// The async waiting plane shared by every [`crate::AsyncLoadGate`] on
    /// this instance.
    pub(crate) fn async_plane(&self) -> &AsyncPlane {
        &self.shared.async_plane
    }

    /// The clock this instance runs on (see
    /// [`LoadControlBuilder::time_source`]).
    pub fn time(&self) -> &Arc<dyn TimeSource> {
        &self.shared.time
    }

    /// The blocking primitive waiter threads park through (see
    /// [`LoadControlBuilder::park_ops`]).
    pub fn park_ops(&self) -> &Arc<dyn ParkOps> {
        &self.shared.park_ops
    }

    /// Number of async tasks currently parked by load control (diagnostics;
    /// these tasks also appear in [`LoadControl::sleepers`], which counts
    /// claims of both waiter kinds).
    pub fn async_parked_tasks(&self) -> usize {
        self.shared.async_plane.parked_tasks()
    }

    /// Registers the calling thread as a load-controlled worker: it is added
    /// to the thread registry (so the controller can count it) and given a
    /// sleeper identity in the slot buffer.
    ///
    /// Dropping the returned registration marks the thread idle again.
    pub fn register_worker(self: &Arc<Self>) -> WorkerRegistration {
        WorkerRegistration::new(current_ctx(self))
    }

    /// Replaces the control policy; takes effect on the next cycle.
    pub fn set_policy(&self, policy: Box<dyn ControlPolicy>) {
        *self.shared.policy.lock().unwrap() = policy;
    }

    /// The registry name of the current control policy.
    pub fn policy_name(&self) -> &'static str {
        self.shared.policy.lock().unwrap().name()
    }

    /// Replaces the target splitter; takes effect the next time the global
    /// target changes.
    pub fn set_splitter(&self, splitter: Box<dyn TargetSplitter>) {
        *self.shared.splitter.lock().unwrap() = splitter;
    }

    /// The registry name of the current target splitter.
    pub fn splitter_name(&self) -> &'static str {
        self.shared.splitter.lock().unwrap().name()
    }

    /// The canonical spec of the **live** configuration: current policy
    /// (with parameters), current splitter, shard count and sampler.
    ///
    /// The rendered string (`spec().to_string()`) parses back to an
    /// equivalent [`LoadControlSpec`], so logs and bench labels can record
    /// the exact control plane a measurement ran under.  Runtime swaps
    /// ([`LoadControl::set_policy`], [`LoadControl::set_splitter`]) are
    /// reflected immediately.
    pub fn spec(&self) -> LoadControlSpec {
        LoadControlSpec {
            policy: self.shared.policy.lock().unwrap().spec(),
            splitter: self.shared.splitter.lock().unwrap().spec(),
            shards: Some(self.shared.buffer.shard_count()),
            sampler: Some(self.shared.sampler.spec()),
            // Elide the default so existing spec strings (and artifacts that
            // embed them) are byte-stable.
            wake_order: (self.shared.buffer.wake_order() != WakeOrder::Fifo)
                .then(|| self.shared.buffer.wake_order()),
        }
    }

    /// Manually sets the sleep target.
    ///
    /// Under a load-following policy the next controller cycle will overwrite
    /// it; combined with [`crate::policy::FixedPolicy::manual`] the value
    /// persists across cycles (the bump-test / experiment-driving setup that
    /// used to be `ControllerMode::Manual`).
    pub fn set_sleep_target(&self, target: u64) -> usize {
        self.shared.buffer.set_target(target)
    }

    /// The current sleep target.
    pub fn sleep_target(&self) -> u64 {
        self.shared.buffer.target()
    }

    /// Number of threads currently asleep (or committed to sleeping).
    pub fn sleepers(&self) -> u64 {
        self.shared.buffer.sleepers()
    }

    /// Raw registration indices of sleepers currently exempt from the
    /// controller's wake scan — the active delegation-lock combiners (see
    /// `lc_locks::delegation`).  Empty unless a combiner is running right
    /// now, so tests assert over a window of samples.
    pub fn combiner_exempt_ids(&self) -> Vec<u64> {
        self.shared.buffer.exempt_ids()
    }

    /// Whether the controller currently considers the process overloaded.
    pub fn is_overloaded(&self) -> bool {
        self.shared.buffer.target() > 0
    }

    /// Runs one controller cycle immediately: measure load, consult the
    /// policy, publish the target.
    ///
    /// This is what the daemon does every `update_interval`; tests and the
    /// simulator-driven experiments call it directly.
    pub fn run_cycle(&self) -> ControllerStats {
        let sample = self.shared.sampler.sample();
        self.shared
            .last_runnable
            .store(sample.runnable, Ordering::Relaxed);
        // Demand = runnable threads plus the ones currently asleep in the
        // slot buffer; using total demand keeps the target stable instead
        // of mass-waking sleepers whenever runnable load dips briefly.
        let load = sample.runnable + self.shared.buffer.sleepers() as usize;
        // The wait observation handed to the policy is this cycle's *delta*
        // window: episodes recorded since the previous decision.
        let wait = {
            let snapshot = self.shared.buffer.wait_snapshot();
            let mut last = self.shared.last_wait.lock().unwrap();
            let delta = snapshot.since(&last);
            *last = snapshot;
            delta.observation()
        };
        let inputs = PolicyInputs {
            load,
            capacity: self.shared.config.capacity,
            headroom: self.shared.config.overload_headroom,
            current_target: self.shared.buffer.target(),
            stats: self.stats(),
            wait,
            interval: self.shared.config.update_interval,
        };
        let target = self.shared.policy.lock().unwrap().target(&inputs);
        let target = target.min(self.shared.config.max_sleepers as u64);
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
            let mut splitter = self.shared.splitter.lock().unwrap();
            let changed = target != inputs.current_target;
            if changed || (target > 0 && splitter.rebalances()) {
                let shard_capacity = self.shared.buffer.shard_capacity() as u64;
                let mut split = splitter.split(
                    target,
                    &self.shared.buffer.shard_snapshots(),
                    shard_capacity,
                );
                // A custom splitter returning the wrong number of shares
                // must degrade (to the even split), not panic the daemon
                // thread — a dead controller strands every parked sleeper
                // until its timeout and silently disables load control.
                if split.len() != self.shared.buffer.shard_count() {
                    split = even_split(target, self.shared.buffer.shard_count(), shard_capacity);
                }
                if changed {
                    self.shared.buffer.set_shard_targets(&split);
                } else {
                    // Rebalance of an *unchanged* total: publish only if no
                    // external `set_sleep_target` landed since this cycle
                    // read the target, so a steered value is never clobbered
                    // by the repartition of a stale total (the rebalance
                    // simply waits for the next cycle).
                    let _ = self.shared.buffer.set_shard_targets_if(&split, target);
                }
            }
        }
        // Async sleepers cannot wake themselves at their deadline the way a
        // thread's `park_timeout` does, so the controller sweeps them: any
        // parked task whose sleep timeout has passed is unparked (its waker
        // fires through the very same parker a thread wake would use).
        self.shared.async_plane.wake_expired(self.shared.time.now());
        self.shared.cycles.fetch_add(1, Ordering::Relaxed);
        self.stats()
    }

    /// Starts the controller daemon if it is not already running.
    pub fn start_controller(self: &Arc<Self>) {
        let mut guard = self.daemon.lock().unwrap();
        if guard.is_some() {
            return;
        }
        self.shared.running.store(true, Ordering::SeqCst);
        let this = Arc::clone(self);
        let interval = self.shared.config.update_interval;
        let handle = std::thread::Builder::new()
            .name("lc-controller".to_string())
            .spawn(move || {
                while this.shared.running.load(Ordering::SeqCst) {
                    this.run_cycle();
                    std::thread::sleep(interval);
                }
                // On shutdown, release anyone still parked.
                this.shared.buffer.wake_all();
            })
            .expect("failed to spawn load-control daemon");
        *guard = Some(handle);
    }

    /// Stops the controller daemon (idempotent) and wakes all sleepers.
    pub fn stop_controller(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        let handle = self.daemon.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.shared.buffer.wake_all();
    }

    /// Whether the daemon is currently running.
    pub fn controller_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Controller activity counters.
    pub fn stats(&self) -> ControllerStats {
        let buffer = self.shared.buffer.stats();
        ControllerStats {
            cycles: self.shared.cycles.load(Ordering::Relaxed),
            last_runnable: self.shared.last_runnable.load(Ordering::Relaxed),
            last_target: self.shared.buffer.target(),
            controller_wakes: buffer.controller_wakes,
            woken_and_left: buffer.woken_and_left,
        }
    }
}

impl Drop for LoadControl {
    fn drop(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Ok(mut guard) = self.daemon.lock() {
            if let Some(h) = guard.take() {
                let _ = h.join();
            }
        }
        self.shared.buffer.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, HysteresisPolicy};
    use lc_accounting::ThreadState;
    use std::time::Duration;

    #[test]
    fn manual_target_controls_buffer() {
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(4),
            Box::new(FixedPolicy::manual()),
        );
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
        assert_eq!(lc.policy_name(), "paper");
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
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1),
            Box::new(FixedPolicy::manual()),
        );
        let _h: Vec<_> = (0..5).map(|_| lc.registry().register()).collect();
        lc.set_sleep_target(2);
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 2);
        assert_eq!(lc.policy_name(), "fixed");
    }

    #[test]
    fn pinned_policy_overrides_manual_bumps() {
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1),
            Box::new(FixedPolicy::pinned(3)),
        );
        lc.set_sleep_target(7);
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 3);
    }

    #[test]
    fn hysteresis_policy_damps_target_flapping() {
        let lc = LoadControl::builder(LoadControlConfig::for_capacity(2))
            .policy(HysteresisPolicy::with_params(0.5, 1.0, 2.0))
            .build();
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
    fn policy_can_be_swapped_at_runtime() {
        let lc = LoadControl::new(LoadControlConfig::for_capacity(1));
        assert_eq!(lc.policy_name(), "paper");
        let _h: Vec<_> = (0..4).map(|_| lc.registry().register()).collect();
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 3);
        lc.set_policy(Box::new(FixedPolicy::pinned(1)));
        assert_eq!(lc.policy_name(), "fixed");
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 1);
    }

    #[test]
    fn builder_selects_policies_by_spec() {
        for &name in crate::policy::ALL_POLICY_NAMES {
            let lc = LoadControl::builder(LoadControlConfig::for_capacity(2))
                .policy_spec(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .build();
            assert_eq!(lc.policy_name(), name);
        }
        assert!(LoadControl::builder(LoadControlConfig::for_capacity(2))
            .policy_spec("no-such-policy")
            .is_err());
        // Parameterized specs reach the policy.
        let lc = LoadControl::builder(LoadControlConfig::for_capacity(2))
            .policy_spec("fixed(target=5)")
            .unwrap()
            .build();
        lc.run_cycle();
        assert_eq!(lc.sleep_target(), 5);
    }

    #[test]
    fn builder_selects_samplers_by_spec() {
        let lc = LoadControl::builder(LoadControlConfig::for_capacity(2))
            .sampler_spec("fixed(runnable=6)")
            .expect("registered sampler")
            .build();
        let stats = lc.run_cycle();
        assert_eq!(stats.last_runnable, 6);
        assert_eq!(stats.last_target, 4);
        assert!(LoadControl::builder(LoadControlConfig::for_capacity(2))
            .sampler_spec("fixed(bogus=1)")
            .is_err());
    }

    #[test]
    fn from_spec_builds_the_whole_control_plane() {
        let spec: LoadControlSpec =
            "policy=pid(kp=0.8, ki=0.2); splitter=load-weighted(ewma=0.25); shards=2; sampler=fixed(runnable=9)"
                .parse()
                .unwrap();
        let lc = LoadControl::from_spec(LoadControlConfig::for_capacity(4), &spec).unwrap();
        assert_eq!(lc.policy_name(), "pid");
        assert_eq!(lc.splitter_name(), "load-weighted");
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
    }

    #[test]
    fn live_spec_tracks_runtime_policy_swaps() {
        let lc = LoadControl::new(LoadControlConfig::for_capacity(2));
        assert_eq!(lc.spec().policy.to_string(), "paper");
        assert_eq!(lc.spec().sampler.as_ref().unwrap().to_string(), "registry");
        lc.set_policy(Box::new(crate::policy::PidPolicy::with_gains(
            0.8, 0.2, 0.0,
        )));
        assert_eq!(lc.spec().policy.to_string(), "pid(kp=0.8, ki=0.2)");
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
        assert_eq!(lc.splitter_name(), "even");
        let _handles: Vec<_> = (0..9).map(|_| lc.registry().register()).collect();
        let stats = lc.run_cycle();
        assert_eq!(stats.last_target, 7, "T = load − capacity");
        let per_shard: Vec<u64> = (0..4).map(|i| lc.buffer().shard_target(i)).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 7, "sum(T_i) must equal T");
        assert_eq!(per_shard, vec![2, 2, 2, 1]);
    }

    #[test]
    fn builder_selects_splitters_by_spec() {
        for &name in crate::policy::ALL_SPLITTER_NAMES {
            let lc = LoadControl::builder(LoadControlConfig::for_capacity(2).with_shards(2))
                .splitter_spec(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .build();
            assert_eq!(lc.splitter_name(), name);
        }
        assert!(LoadControl::builder(LoadControlConfig::for_capacity(2))
            .splitter_spec("no-such-splitter")
            .is_err());
    }

    #[test]
    fn splitter_can_be_swapped_at_runtime() {
        let lc = LoadControl::new(LoadControlConfig::for_capacity(1).with_shards(2));
        assert_eq!(lc.splitter_name(), "even");
        lc.set_splitter(Box::new(crate::policy::LoadWeightedSplitter::new()));
        assert_eq!(lc.splitter_name(), "load-weighted");
        let _h: Vec<_> = (0..5).map(|_| lc.registry().register()).collect();
        lc.run_cycle();
        let total: u64 = (0..2).map(|i| lc.buffer().shard_target(i)).sum();
        assert_eq!(total, 4, "load-weighted shares must still sum to T");
    }

    #[test]
    fn rebalancing_splitter_runs_every_cycle_under_a_steady_target() {
        use crate::policy::TargetSplitter;
        use crate::slots::{even_split, ShardSnapshot};
        use std::sync::atomic::AtomicU64 as Counter;

        #[derive(Debug)]
        struct CountingSplitter(Arc<Counter>);
        impl TargetSplitter for CountingSplitter {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn rebalances(&self) -> bool {
                true
            }
            fn split(&mut self, total: u64, shards: &[ShardSnapshot], cap: u64) -> Vec<u64> {
                self.0.fetch_add(1, Ordering::Relaxed);
                even_split(total, shards.len(), cap)
            }
        }

        let calls = Arc::new(Counter::new(0));
        let lc = LoadControl::builder(LoadControlConfig::for_capacity(1).with_shards(2))
            .splitter(CountingSplitter(Arc::clone(&calls)))
            .build();
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
        let lc = LoadControl::new(LoadControlConfig::for_capacity(1).with_shards(2));
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
        use crate::policy::{LoadWeightedSplitter, TargetSplitter};

        // The rebalance path republishes an *unchanged* total; if an
        // external set_sleep_target landed since the cycle read it, the
        // conditional publish must skip rather than revert it.
        let lc = LoadControl::builder(LoadControlConfig::for_capacity(1).with_shards(2))
            .boxed_policy(Box::new(FixedPolicy::manual()))
            .splitter(LoadWeightedSplitter::new())
            .build();
        assert!(LoadWeightedSplitter::new().rebalances());
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
        let mut config = LoadControlConfig::for_capacity(4);
        config.shards = 6; // pub field set directly, bypassing with_shards
        let lc = LoadControl::new(config);
        assert_eq!(lc.buffer().shard_count(), 8);
        // The retained config agrees with the buffer.
        assert_eq!(lc.config().shards, 8);
        let mut zero = LoadControlConfig::for_capacity(4);
        zero.shards = 0;
        let lc = LoadControl::new(zero);
        assert_eq!(lc.buffer().shard_count(), 1);
        assert_eq!(lc.config().shards, 1);
    }

    #[test]
    fn manual_target_respects_max_sleepers_despite_shard_rounding() {
        // max_sleepers = 10 over 4 shards rounds the physical ring up to 12
        // slots, but an externally steered target must still cap at 10.
        let mut config = LoadControlConfig::for_capacity(2).with_shards(4);
        config.max_sleepers = 10;
        let lc = LoadControl::with_policy(config, Box::new(FixedPolicy::manual()));
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
            fn name(&self) -> &'static str {
                "broken"
            }
            fn split(&mut self, _total: u64, _shards: &[ShardSnapshot], _cap: u64) -> Vec<u64> {
                Vec::new() // wrong length: would panic set_shard_targets
            }
        }

        let lc = LoadControl::builder(LoadControlConfig::for_capacity(1).with_shards(2))
            .splitter(BrokenSplitter)
            .build();
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
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1).with_shards(4),
            Box::new(FixedPolicy::manual()),
        );
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
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(4).with_shards(2),
            Box::new(FixedPolicy::manual()),
        );
        lc.set_sleep_target(5);
        assert_eq!(lc.sleep_target(), 5);
        assert_eq!(lc.buffer().shard_target(0), 3);
        assert_eq!(lc.buffer().shard_target(1), 2);
    }
}
