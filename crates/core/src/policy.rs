//! Control-plane policies: *how* the controller turns a load measurement
//! into a sleep target.
//!
//! Paper §3.1.1 describes one decision rule — every update interval the
//! controller measures the number of runnable threads and publishes
//! `T = load − 100 %` (excess over capacity) as the sleep target.  That rule
//! is a *policy*, and nothing else in the mechanism depends on it: the slot
//! buffer, the waiter-side gate and the primitives only consume the published
//! target.  The set of policies is closed: [`Policy`] is an enum with one
//! variant per rule, dispatched by `match`, and [`PolicySpec`] names a
//! variant with its parameters.
//!
//! Six policies ship with the suite, each mapping back to §3.1.1:
//!
//! * [`PaperPolicy`] — the exact rule of the paper, `T = load − capacity`
//!   (with the configured headroom subtracted as well).  The default; under
//!   it the controller behaves identically to the original hard-coded rule.
//! * [`HysteresisPolicy`] — the paper's rule applied to an EWMA-smoothed
//!   load, with configurable up/down deadbands.  §3.1.1 notes the controller
//!   must respond within milliseconds yet the raw runnable count is noisy;
//!   smoothing plus a deadband stops the target from flapping (and threads
//!   from being parked/woken) on one-sample excursions.
//! * [`FixedPolicy`] — a target that does not follow load at all: either
//!   pinned at construction or steered externally through
//!   [`crate::LoadControl::set_sleep_target`].  This replaces the old
//!   `ControllerMode::Manual` and drives the paper's Figure 8 bump test.
//! * [`PidPolicy`] — a proportional–integral(–derivative) controller on the
//!   *target error* `(load − threshold) − T`: the integrator walks the target
//!   toward the excess instead of jumping there, giving smoother convergence
//!   at large capacities than the paper's direct rule.
//! * [`LatencyPolicy`] — the paper's rule with a **latency SLO governor** on
//!   top: when the observed p99 sleep-slot wait (fed back through
//!   [`PolicyInputs::wait`]) exceeds `target_p99`, the policy trades some
//!   throughput protection for latency by sawtoothing the target below the
//!   excess, forcing the controller to cycle the oldest sleepers out.
//! * [`AutotunePolicy`] — a meta-policy: wraps an inner [`PidPolicy`] or
//!   [`HysteresisPolicy`] and sweeps its parameters online by seeded
//!   coordinate descent against a configurable objective (throughput
//!   deviation, wake churn, or p99 wait).
//!
//! A policy is chosen by spec string in the `name(key=value)` grammar of
//! [`crate::spec`], parameters included: `hysteresis(alpha=0.3,
//! deadband=2)`, `fixed(target=8)`, `pid(kp=0.5, ki=0.1)`.  Adding a policy
//! is adding a variant to [`PolicySpec`] and [`Policy`] and their match arms.
//!
//! ## Target partitioning
//!
//! With a sharded [`crate::SleepSlotBuffer`] the control plane makes a
//! *second* decision each cycle: how to partition the global sleep target `T`
//! across shards so that `sum(T_i) = T`.  That decision is the
//! [`TargetSplitter`] trait — [`EvenSplitter`] (the default; uniform shares)
//! and [`LoadWeightedSplitter`] (shares proportional to each shard's recent
//! claim and claim-race activity, `load-weighted(ewma=0.25)`) ship with the
//! suite, named by [`SplitterSpec`] exactly like the control policies above.

use crate::controller::ControllerStats;
use crate::slots::{even_split, ShardSnapshot};
use crate::spec::{non_default, write_spec, ParsedSpec, SpecError};
use lc_locks::stats::WaitObservation;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Everything a policy may consult when computing the next sleep target.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInputs {
    /// Measured demand: runnable threads plus threads currently parked in the
    /// sleep slot buffer (total demand keeps the target stable instead of
    /// mass-waking sleepers whenever runnable load dips briefly).
    pub load: usize,
    /// Hardware contexts the process should keep busy
    /// ([`crate::LoadControlConfig::capacity`]).
    pub capacity: usize,
    /// Extra runnable threads tolerated above capacity
    /// ([`crate::LoadControlConfig::overload_headroom`]).
    pub headroom: usize,
    /// The sleep target currently published in the slot buffer.
    pub current_target: u64,
    /// The controller's cycle period
    /// ([`crate::LoadControlConfig::update_interval`]): how much wall (or
    /// virtual) time passes between consecutive [`Policy::target`]
    /// calls.  Lets latency-aware policies convert time SLOs into per-cycle
    /// rates.
    pub interval: Duration,
    /// Controller activity counters as of the start of this cycle.
    pub stats: ControllerStats,
    /// Wait-time quantiles of the sleep episodes recorded since the previous
    /// cycle (the *delta* window, not the run's whole history), from the slot
    /// buffer's wait histogram.  `count == 0` when no episode ended this
    /// cycle; latency-aware policies must treat that as "no news", not "no
    /// waiting".
    pub wait: WaitObservation,
}

impl PolicyInputs {
    /// The load level above which threads should start sleeping
    /// (`capacity + headroom`).
    pub fn threshold(&self) -> usize {
        self.capacity + self.headroom
    }
}

/// A control-plane policy: turns one cycle's measurements into the next
/// sleep target.
///
/// A policy may keep state across cycles (smoothing, integrators, scripted
/// schedules); the controller calls [`Policy::target`] exactly once per
/// cycle, under its own synchronization, and clamps the returned value to
/// [`crate::LoadControlConfig::max_sleepers`] before publishing it.  Built
/// from a [`PolicySpec`].
#[derive(Debug)]
pub enum Policy {
    /// The paper's rule.
    Paper(PaperPolicy),
    /// The paper's rule on a smoothed load, with deadbands.
    Hysteresis(HysteresisPolicy),
    /// A pinned or externally steered target.
    Fixed(FixedPolicy),
    /// A PID integrator on the target error.
    Pid(PidPolicy),
    /// The paper's rule with a p99-wait SLO governor.
    Latency(LatencyPolicy),
    /// Online coordinate descent over an inner policy's parameters.
    Autotune(AutotunePolicy),
}

impl Policy {
    /// Computes the sleep target for this cycle.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        match self {
            Policy::Paper(policy) => policy.target(inputs),
            Policy::Hysteresis(policy) => policy.target(inputs),
            Policy::Fixed(policy) => policy.target(inputs),
            Policy::Pid(policy) => policy.target(inputs),
            Policy::Latency(policy) => policy.target(inputs),
            Policy::Autotune(policy) => policy.target(inputs),
        }
    }
}

/// The paper's decision rule: `T = load − capacity` (§3.1.1, Figure 7 left),
/// with the configured overload headroom widening the tolerated band.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperPolicy;

impl PaperPolicy {
    /// `T = load − (capacity + headroom)`, floored at zero.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        inputs.load.saturating_sub(inputs.threshold()) as u64
    }
}

/// The paper's rule on an EWMA-smoothed load, with deadbands.
///
/// Each cycle the measured load is folded into an exponentially weighted
/// moving average (`ewma ← α·load + (1−α)·ewma`); the candidate target is the
/// smoothed excess over `capacity + headroom`.  The published target only
/// *rises* when the candidate exceeds the current target by at least
/// `up_deadband` and only *falls* when it is below by at least
/// `down_deadband`; inside the band the current target is kept.  With
/// `α = 1` and both deadbands zero this degenerates to [`PaperPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct HysteresisPolicy {
    /// EWMA weight of the newest sample, in `(0, 1]`.
    alpha: f64,
    /// How far above the current target the smoothed excess must rise before
    /// the target is raised.
    up_deadband: f64,
    /// How far below the current target the smoothed excess must fall before
    /// the target is lowered.
    down_deadband: f64,
    /// Smoothed load (`None` until the first sample seeds it).
    ewma: Option<f64>,
}

impl HysteresisPolicy {
    /// Default EWMA weight: half the estimate renews each cycle, so at the
    /// paper's 7 ms update interval the smoothed load tracks a step change
    /// within a few tens of milliseconds.
    pub const DEFAULT_ALPHA: f64 = 0.5;
    /// Default rise deadband (one thread).
    pub const DEFAULT_UP_DEADBAND: f64 = 1.0;
    /// Default fall deadband (two threads: releasing sleepers is the cheaper
    /// direction to be slow in, since a parked thread times out on its own).
    pub const DEFAULT_DOWN_DEADBAND: f64 = 2.0;

    /// A policy with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1` and both deadbands are non-negative.
    pub fn with_params(alpha: f64, up_deadband: f64, down_deadband: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(
            up_deadband >= 0.0 && down_deadband >= 0.0,
            "deadbands must be non-negative"
        );
        Self {
            alpha,
            up_deadband,
            down_deadband,
            ewma: None,
        }
    }

    /// The current smoothed load estimate, if any sample has been folded in.
    pub fn smoothed_load(&self) -> Option<f64> {
        self.ewma
    }

    /// Swaps the parameters while keeping the smoothed-load estimate — the
    /// online-retuning entry ([`AutotunePolicy`] adjusts a live policy
    /// without resetting its accumulated control state).
    ///
    /// # Panics
    ///
    /// Same validation as [`HysteresisPolicy::with_params`].
    pub fn retune(&mut self, alpha: f64, up_deadband: f64, down_deadband: f64) {
        let fresh = Self::with_params(alpha, up_deadband, down_deadband);
        self.alpha = fresh.alpha;
        self.up_deadband = fresh.up_deadband;
        self.down_deadband = fresh.down_deadband;
    }
}

impl HysteresisPolicy {
    /// Folds this cycle's load into the average and moves the target only
    /// outside the deadband.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        let sample = inputs.load as f64;
        let ewma = match self.ewma {
            Some(prev) => self.alpha * sample + (1.0 - self.alpha) * prev,
            None => sample,
        };
        self.ewma = Some(ewma);
        let candidate = (ewma - inputs.threshold() as f64).max(0.0);
        let current = inputs.current_target as f64;
        // The fall deadband must never pin a small target forever: the
        // candidate is clamped to ≥ 0, so `candidate ≤ current − deadband` is
        // unsatisfiable once `current < deadband` and a target of 1 would
        // outlive the overload indefinitely.  Floor the fall threshold at
        // 0.5 — when the smoothed excess rounds to zero there is no overload
        // left to manage and decay is always allowed.
        let fall_threshold = (current - self.down_deadband).max(0.5);
        let outside_deadband =
            candidate >= current + self.up_deadband || candidate <= fall_threshold;
        if outside_deadband {
            candidate.round() as u64
        } else {
            inputs.current_target
        }
    }
}

/// A target that ignores load measurements.
///
/// [`FixedPolicy::pinned`] republishes one constant target every cycle;
/// [`FixedPolicy::manual`] keeps whatever target is currently in the buffer,
/// so [`crate::LoadControl::set_sleep_target`] steers it even while the
/// controller daemon is running — the replacement for the old
/// `ControllerMode::Manual` and the driver of the Figure 8 bump test.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FixedPolicy {
    pinned: Option<u64>,
}

impl FixedPolicy {
    /// A policy that publishes `target` every cycle.
    pub fn pinned(target: u64) -> Self {
        Self {
            pinned: Some(target),
        }
    }

    /// A policy that keeps the currently published target (externally steered
    /// through [`crate::LoadControl::set_sleep_target`]).
    pub fn manual() -> Self {
        Self { pinned: None }
    }
}

impl FixedPolicy {
    /// The pinned target, or the one currently published.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        self.pinned.unwrap_or(inputs.current_target)
    }
}

/// A proportional–integral(–derivative) controller on the target error.
///
/// Where [`PaperPolicy`] jumps the target straight to the measured excess,
/// the PID policy treats the published target as the actuator of a feedback
/// loop: each cycle it computes the error
/// `e = (load − threshold) − current_target` — how far the target is from
/// absorbing the excess — and moves the target by
/// `kp·e + ki·∫e (+ kd·Δe)`.  The integrator is what converges: at steady
/// state `e = 0` and the target sits exactly at the excess, while `kp`
/// controls how aggressively single-cycle swings are chased.  Small `ki`
/// therefore gives the smoother convergence at large capacities the ROADMAP
/// asks for; `kp = 1, ki → ∞` degenerates toward the paper's rule.
///
/// The integral is clamped to `[0, `[`PidPolicy::INTEGRAL_CAP`]`]` so a long
/// overload cannot wind it up past any reachable target (anti-windup), and
/// negative errors drain it, so the target decays to zero when the overload
/// ends.
#[derive(Debug, Clone, Copy)]
pub struct PidPolicy {
    /// Proportional gain on the target error.
    kp: f64,
    /// Integral gain (must be positive: the integrator is what converges).
    ki: f64,
    /// Derivative gain on the error delta (0 = disabled, the default).
    kd: f64,
    /// Accumulated error, clamped to `[0, INTEGRAL_CAP]`.
    integral: f64,
    /// Previous cycle's error (`None` until the first sample).
    last_error: Option<f64>,
}

impl PidPolicy {
    /// Default proportional gain.
    pub const DEFAULT_KP: f64 = 0.5;
    /// Default integral gain.
    pub const DEFAULT_KI: f64 = 0.1;
    /// Default derivative gain (disabled).
    pub const DEFAULT_KD: f64 = 0.0;
    /// Anti-windup bound on the accumulated error.
    pub const INTEGRAL_CAP: f64 = 1e9;

    /// A policy with explicit gains.
    ///
    /// # Panics
    ///
    /// Panics unless `kp ≥ 0`, `ki > 0` and `kd ≥ 0` are all finite.
    pub fn with_gains(kp: f64, ki: f64, kd: f64) -> Self {
        assert!(kp.is_finite() && kp >= 0.0, "kp must be non-negative");
        assert!(ki.is_finite() && ki > 0.0, "ki must be positive");
        assert!(kd.is_finite() && kd >= 0.0, "kd must be non-negative");
        Self {
            kp,
            ki,
            kd,
            integral: 0.0,
            last_error: None,
        }
    }

    /// The current accumulated (clamped) error integral.
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Swaps the proportional and integral gains while keeping the
    /// integrator and error memory — the online-retuning entry
    /// ([`AutotunePolicy`] adjusts a live policy without resetting its
    /// accumulated control state; rebuilding would collapse the target and
    /// mass-wake every sleeper the integral was holding down).
    ///
    /// # Panics
    ///
    /// Same validation as [`PidPolicy::with_gains`].
    pub fn retune(&mut self, kp: f64, ki: f64) {
        let fresh = Self::with_gains(kp, ki, self.kd);
        self.kp = fresh.kp;
        self.ki = fresh.ki;
    }
}

impl PidPolicy {
    /// Moves the target by `kp·e + ki·∫e + kd·Δe` on this cycle's error.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        let excess = inputs.load as f64 - inputs.threshold() as f64;
        let error = excess - inputs.current_target as f64;
        let delta = error - self.last_error.unwrap_or(error);
        self.last_error = Some(error);
        self.integral = (self.integral + error).clamp(0.0, Self::INTEGRAL_CAP);
        let output = self.kp * error + self.ki * self.integral + self.kd * delta;
        output.round().max(0.0) as u64
    }
}

/// The paper's rule with a **latency-SLO governor** on top: recycle parked
/// sleepers fast enough that no wait can exceed the SLO.
///
/// The base target is [`PaperPolicy`]'s excess over threshold.  On top of
/// it the policy maintains a *cut* with two parts:
///
/// * a **rate base**, computed each cycle from first principles: to bound
///   every sleeper's age below the SLO, the whole standing excess must
///   rotate through the buffer within the SLO window.  The policy aims at
///   *half* the window (so even the wait histogram's one-sided bucket error
///   stays inside the SLO) and converts that into a per-tooth wake count
///   using the controller period ([`PolicyInputs::interval`]).  This part
///   is deliberately **not** feedback-driven: the waits the histogram
///   records are the short ones recycling causes, while the sleepers that
///   threaten the SLO are the ones still parked — steering on completed
///   waits alone decays the cut exactly when it is doing its job
///   (survivorship bias).
/// * an **evidence boost**: the delta-window p99 wait
///   ([`PolicyInputs::wait`]) folds into an EWMA; while the smoothed p99
///   exceeds `target_p99` the boost grows, and while it sits below a
///   quarter of the SLO it decays again.  `count == 0` cycles are "no
///   news" and leave the estimate alone.
///
/// A non-zero cut is applied as a **sawtooth**, not a constant offset: the
/// policy alternates between publishing the full excess and publishing
/// `excess − cut`.  The shrink edge of each tooth forces the controller to
/// wake `cut` sleepers *right now* (a steady lower target would only wake
/// once and then let everyone else sit to their timeout); the restore edge
/// lets fresh waiters claim the vacated slots.  The oscillation converts the
/// cut into a continuous **recycling rate** of the sleeper population —
/// which bounds how long any one thread can remain parked, and therefore the
/// p99.  Pair it with `wake_order=window`
/// ([`crate::config::WakeOrder::Window`]) so each tooth evicts the *oldest*
/// claims; under FIFO order the wakes land on low ring indices and old
/// high-index sleepers still strand until their timeout.
///
/// `floor` optionally keeps a minimum sleep target while shedding, bounding
/// how much throughput protection the SLO chase may give up.
#[derive(Debug, Clone, Copy)]
pub struct LatencyPolicy {
    /// The p99 wait-time SLO, in milliseconds.
    target_p99_ms: f64,
    /// Minimum sleep target kept while shedding (clamped to the excess).
    floor: u64,
    /// Current shed depth: rate base plus evidence boost, as of the last
    /// cycle.
    cut: u64,
    /// Evidence-driven extra shed, grown/decayed against the smoothed p99.
    boost: u64,
    /// Sawtooth phase: `true` = next non-zero-cut cycle publishes the full
    /// excess (restore edge), `false` = publishes `excess − cut` (shrink).
    restore: bool,
    /// EWMA of the observed delta-window p99 wait, in nanoseconds.
    ewma_p99: Option<f64>,
}

impl LatencyPolicy {
    /// Default p99 SLO: 50 ms — a few controller update intervals at the
    /// paper's 7 ms cadence, and well under the default sleep timeout.
    pub const DEFAULT_TARGET_P99_MS: f64 = 50.0;
    /// Default shed floor: none (the policy may shed the whole target).
    pub const DEFAULT_FLOOR: u64 = 0;
    /// EWMA weight of the newest p99 sample.
    const EWMA_ALPHA: f64 = 0.5;

    /// A policy with an explicit p99 SLO (milliseconds) and shed floor.
    ///
    /// # Panics
    ///
    /// Panics unless `target_p99_ms` is finite and positive.
    pub fn with_params(target_p99_ms: f64, floor: u64) -> Self {
        assert!(
            target_p99_ms.is_finite() && target_p99_ms > 0.0,
            "target_p99 must be positive"
        );
        Self {
            target_p99_ms,
            floor,
            cut: 0,
            boost: 0,
            restore: false,
            ewma_p99: None,
        }
    }

    /// The shed depth published by the last cycle (0 only while there is no
    /// excess to shed, or the floor swallows the whole excess).
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// The smoothed p99 wait estimate in nanoseconds, if any episode has
    /// been observed.
    pub fn smoothed_p99_ns(&self) -> Option<f64> {
        self.ewma_p99
    }
}

impl LatencyPolicy {
    /// The excess, sawtoothed below by the current cut.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        if inputs.wait.count > 0 {
            let sample = inputs.wait.p99_ns as f64;
            self.ewma_p99 = Some(match self.ewma_p99 {
                Some(prev) => Self::EWMA_ALPHA * sample + (1.0 - Self::EWMA_ALPHA) * prev,
                None => sample,
            });
        }
        let excess = inputs.load.saturating_sub(inputs.threshold()) as u64;
        if excess == 0 {
            // Overload over: nothing to shed.  The p99 estimate is kept (the
            // next overload burst starts from recent evidence).
            self.cut = 0;
            self.boost = 0;
            self.restore = false;
            return 0;
        }
        let target_ns = self.target_p99_ms * 1e6;
        // Rate base: rotate the whole standing excess through the buffer
        // within half the SLO window.  A tooth fires every other cycle, so
        // the per-tooth count is twice the per-cycle rate.
        let interval_ns = (inputs.interval.as_nanos() as f64).max(1.0);
        let budget_ns = (target_ns / 2.0).max(interval_ns);
        let base = ((excess as f64) * 2.0 * interval_ns / budget_ns).ceil() as u64;
        // One boost step moves a fraction of the excess (never zero, so
        // small overloads still react), and the cut never bites below the
        // floor.
        let step = excess / 8 + 1;
        let max_cut = excess.saturating_sub(self.floor.min(excess));
        match self.ewma_p99 {
            Some(p99) if p99 > target_ns => self.boost = (self.boost + step).min(max_cut),
            Some(p99) if p99 < budget_ns / 2.0 => self.boost = self.boost.saturating_sub(step),
            _ => {}
        }
        self.cut = base.saturating_add(self.boost).min(max_cut);
        if self.cut == 0 {
            self.restore = false;
            return excess;
        }
        self.restore = !self.restore;
        if self.restore {
            excess
        } else {
            excess - self.cut
        }
    }
}

/// Which policy family an [`AutotunePolicy`] tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutotuneInner {
    /// Tune [`PidPolicy`] gains (`kp`, `ki`).
    Pid,
    /// Tune [`HysteresisPolicy`] parameters (`alpha`, `up`, `down`).
    Hysteresis,
}

impl AutotuneInner {
    /// The spec-grammar spelling of this inner kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Pid => "pid",
            Self::Hysteresis => "hysteresis",
        }
    }

    /// Parses the spec-grammar spelling; `None` for unknown names.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "pid" => Some(Self::Pid),
            "hysteresis" => Some(Self::Hysteresis),
            _ => None,
        }
    }
}

/// What an [`AutotunePolicy`] minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutotuneObjective {
    /// Mean absolute deviation of the runnable count from the threshold —
    /// the load-control objective itself (neither overcommitted nor idle).
    Throughput,
    /// Mean sleepers recycled per cycle (the `W` book's delta): penalizes
    /// park/unpark churn.
    WakeChurn,
    /// Count-weighted mean of the per-cycle p99 wait.
    P99,
}

impl AutotuneObjective {
    /// The spec-grammar spelling of this objective.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Throughput => "throughput",
            Self::WakeChurn => "wake_churn",
            Self::P99 => "p99",
        }
    }

    /// Parses the spec-grammar spelling; `None` for unknown names.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "throughput" => Some(Self::Throughput),
            "wake_churn" => Some(Self::WakeChurn),
            "p99" => Some(Self::P99),
            _ => None,
        }
    }
}

/// One tunable dimension of an [`AutotunePolicy`]'s search space.
#[derive(Debug, Clone, Copy)]
struct ParamRange {
    lo: f64,
    hi: f64,
    init: f64,
}

/// A meta-policy: seeded online coordinate descent over an inner policy's
/// parameters.
///
/// The inner policy ([`PidPolicy`] or [`HysteresisPolicy`]) makes every
/// per-cycle target decision; the autotuner only *observes*.  Cycles are
/// grouped into fixed-size windows; within a window the per-cycle cost of
/// the configured [`AutotuneObjective`] is accumulated, and at each window
/// boundary the tuner:
///
/// 1. adopts the candidate parameter vector iff its mean window cost beat
///    the best seen so far (otherwise the candidate is reverted — the tuned
///    configuration can only improve, which makes
///    [`AutotunePolicy::objective_history`] monotone non-increasing by
///    construction);
/// 2. proposes the next candidate: one coordinate (round-robin) of the best
///    vector nudged by a step whose sign comes from a seeded xorshift64*
///    stream and whose magnitude decays as evaluations accumulate, clamped
///    to the coordinate's range.
///
/// The search starts at the inner policy's default parameters, so the tuned
/// policy is never worse than the hand-configured default one under the
/// measured objective.  A window with no objective samples (e.g. `p99` with
/// no completed sleep episodes) discards the candidate without judging it.
///
/// Everything is deterministic given the `seed` — the same simulated run
/// replays the same parameter trajectory.
#[derive(Debug)]
pub struct AutotunePolicy {
    objective: AutotuneObjective,
    window: u64,
    /// xorshift64* state (never zero).
    rng: u64,
    space: &'static [ParamRange],
    inner: InnerPolicy,
    /// Best-known parameter vector (adopted candidates only).
    best: Vec<f64>,
    /// Parameter vector currently being evaluated.
    candidate: Vec<f64>,
    best_cost: f64,
    /// Round-robin coordinate cursor.
    coord: usize,
    cost_sum: f64,
    samples: u64,
    cycles_in_window: u64,
    last_woken: Option<u64>,
    history: Vec<f64>,
}

impl AutotunePolicy {
    /// Default evaluation window, in controller cycles.
    pub const DEFAULT_WINDOW: u64 = 16;
    /// Default seed of the coordinate-descent sign stream.
    pub const DEFAULT_SEED: u64 = 0;

    const PID_SPACE: &'static [ParamRange] = &[
        // kp
        ParamRange {
            lo: 0.05,
            hi: 2.0,
            init: PidPolicy::DEFAULT_KP,
        },
        // ki
        ParamRange {
            lo: 0.01,
            hi: 0.5,
            init: PidPolicy::DEFAULT_KI,
        },
    ];
    const HYSTERESIS_SPACE: &'static [ParamRange] = &[
        // alpha
        ParamRange {
            lo: 0.05,
            hi: 1.0,
            init: HysteresisPolicy::DEFAULT_ALPHA,
        },
        // up deadband
        ParamRange {
            lo: 0.0,
            hi: 4.0,
            init: HysteresisPolicy::DEFAULT_UP_DEADBAND,
        },
        // down deadband
        ParamRange {
            lo: 0.0,
            hi: 4.0,
            init: HysteresisPolicy::DEFAULT_DOWN_DEADBAND,
        },
    ];

    /// A tuner with explicit inner kind, objective, window and seed.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_params(
        inner: AutotuneInner,
        objective: AutotuneObjective,
        window: u64,
        seed: u64,
    ) -> Self {
        assert!(window > 0, "window must be at least 1");
        let space = match inner {
            AutotuneInner::Pid => Self::PID_SPACE,
            AutotuneInner::Hysteresis => Self::HYSTERESIS_SPACE,
        };
        let init: Vec<f64> = space.iter().map(|r| r.init).collect();
        let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
        if rng == 0 {
            rng = 0x9E37_79B9_7F4A_7C15;
        }
        Self {
            objective,
            window,
            rng,
            space,
            inner: InnerPolicy::build(inner, &init),
            best: init.clone(),
            candidate: init,
            best_cost: f64::INFINITY,
            coord: 0,
            cost_sum: 0.0,
            samples: 0,
            cycles_in_window: 0,
            last_woken: None,
            history: Vec::new(),
        }
    }

    /// The best mean window cost after each completed evaluation window —
    /// monotone non-increasing by construction (candidates that did not
    /// improve were reverted).
    pub fn objective_history(&self) -> &[f64] {
        &self.history
    }

    /// The best-known parameter vector, in the order of the inner policy's
    /// search space (`pid`: `[kp, ki]`; `hysteresis`: `[alpha, up, down]`).
    pub fn best_params(&self) -> &[f64] {
        &self.best
    }

    /// The best mean window cost seen so far (`INFINITY` before the first
    /// judged window).
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// xorshift64* (the same generator as the slot claim backoff): cheap,
    /// decent equidistribution, and dependency-free.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Folds one cycle's observations into the current window.
    fn observe(&mut self, inputs: &PolicyInputs) {
        match self.objective {
            AutotuneObjective::Throughput => {
                let deviation =
                    (inputs.stats.last_runnable as f64 - inputs.threshold() as f64).abs();
                self.cost_sum += deviation;
                self.samples += 1;
            }
            AutotuneObjective::WakeChurn => {
                let woken = inputs.stats.woken_and_left;
                if let Some(last) = self.last_woken {
                    self.cost_sum += woken.saturating_sub(last) as f64;
                    self.samples += 1;
                }
                self.last_woken = Some(woken);
            }
            AutotuneObjective::P99 => {
                if inputs.wait.count > 0 {
                    self.cost_sum += inputs.wait.p99_ns as f64 * inputs.wait.count as f64;
                    self.samples += inputs.wait.count;
                }
            }
        }
        self.cycles_in_window += 1;
        if self.cycles_in_window >= self.window {
            self.evaluate_window();
        }
    }

    /// Judges the finished window and proposes the next candidate.
    fn evaluate_window(&mut self) {
        let cost = (self.samples > 0).then(|| self.cost_sum / self.samples as f64);
        self.cost_sum = 0.0;
        self.samples = 0;
        self.cycles_in_window = 0;
        if let Some(cost) = cost {
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best.clone_from(&self.candidate);
            }
        }
        self.history.push(self.best_cost);
        // Next candidate: nudge one coordinate of the best vector.  The step
        // decays as evaluations accumulate (coarse exploration first, fine
        // tuning later) and clamps to the coordinate's range.
        self.candidate.clone_from(&self.best);
        let coord = self.coord % self.space.len();
        self.coord += 1;
        let range = self.space[coord];
        let sign = if self.next_rand() & 1 == 0 { 1.0 } else { -1.0 };
        let step = (range.hi - range.lo) * 0.25 / (1.0 + self.history.len() as f64 / 8.0);
        self.candidate[coord] = (self.candidate[coord] + sign * step).clamp(range.lo, range.hi);
        // Retune in place: the inner policy keeps its accumulated control
        // state (PID integral, hysteresis EWMA) across the parameter swap.
        // Rebuilding from scratch would collapse the published target every
        // window and mass-wake the sleepers the accumulated state was
        // holding down — the churn would drown the very signal the window
        // is trying to judge.
        self.inner.retune(&self.candidate);
    }
}

/// The tuned inner policy, held concretely so [`AutotunePolicy`] can swap
/// parameters in place without discarding accumulated control state.
#[derive(Debug)]
enum InnerPolicy {
    Pid(PidPolicy),
    Hysteresis(HysteresisPolicy),
}

impl InnerPolicy {
    fn build(kind: AutotuneInner, params: &[f64]) -> Self {
        match kind {
            AutotuneInner::Pid => Self::Pid(PidPolicy::with_gains(params[0], params[1], 0.0)),
            AutotuneInner::Hysteresis => Self::Hysteresis(HysteresisPolicy::with_params(
                params[0], params[1], params[2],
            )),
        }
    }

    fn retune(&mut self, params: &[f64]) {
        match self {
            Self::Pid(pid) => pid.retune(params[0], params[1]),
            Self::Hysteresis(hys) => hys.retune(params[0], params[1], params[2]),
        }
    }

    fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        match self {
            Self::Pid(pid) => pid.target(inputs),
            Self::Hysteresis(hys) => hys.target(inputs),
        }
    }
}

impl AutotunePolicy {
    /// Scores this cycle against the objective, then lets the inner policy
    /// decide.
    pub fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        self.observe(inputs);
        self.inner.target(inputs)
    }
}

/// How the controller partitions the global sleep target `T` across the
/// shards of a sharded [`crate::SleepSlotBuffer`].
///
/// The controller invokes [`TargetSplitter::split`] under its own
/// synchronization, after the [`Policy`] chose the global target:
/// always when the target *changed*, and — for splitters that report
/// [`TargetSplitter::rebalances`] — on every cycle with a non-zero target,
/// so activity-driven partitions keep tracking where the claim traffic
/// actually is.  Implementations may keep state across cycles (activity
/// counters, EWMAs).  The returned vector must have one entry per shard;
/// the buffer clamps each entry to the shard capacity when publishing.
pub trait TargetSplitter: Send + fmt::Debug {
    /// Whether [`TargetSplitter::split`] should run every cycle even when
    /// the global target is unchanged.  Static partitions (the even split)
    /// return `false` and are only recomputed on target changes — which
    /// also preserves the publish-on-change guarantee that an externally
    /// steered target (`set_sleep_target` under `FixedPolicy::manual`) is
    /// never overwritten by an idle cycle.  Rebalancing splitters trade a
    /// little wake churn (shifting a shard's share can wake its excess
    /// sleepers) for shares that follow the load.
    fn rebalances(&self) -> bool {
        false
    }

    /// Partitions `total` over `shards.len()` shards, each able to hold at
    /// most `shard_capacity` sleepers.  The result must sum to
    /// `min(total, shards.len() * shard_capacity)`.
    fn split(&mut self, total: u64, shards: &[ShardSnapshot], shard_capacity: u64) -> Vec<u64>;
}

/// Uniform partitioning: every shard receives `T / N`, with the remainder
/// spread one unit at a time over the first shards.  The default — and, with
/// one shard, the identity, which keeps the unsharded buffer's behaviour
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvenSplitter;

impl TargetSplitter for EvenSplitter {
    fn split(&mut self, total: u64, shards: &[ShardSnapshot], shard_capacity: u64) -> Vec<u64> {
        even_split(total, shards.len(), shard_capacity)
    }
}

/// Activity-proportional partitioning: each shard's share of `T` follows its
/// recent claim traffic.
///
/// Every cycle the splitter takes the per-shard deltas of successful claims
/// (`S_i`) and lost head CASes since the previous cycle, folds them into an
/// EWMA, and apportions the target by largest remainder over those weights
/// (one unit of baseline weight per shard keeps an idle shard reachable and
/// degenerates to the even split when no shard has seen traffic).  Shares are
/// clamped to the shard capacity with the spillover redistributed to shards
/// that still have room, so the published targets always sum to
/// `min(T, N * shard_capacity)`.
#[derive(Debug, Clone)]
pub struct LoadWeightedSplitter {
    /// EWMA weight of the newest activity sample, in `(0, 1]`.
    alpha: f64,
    /// Smoothed per-shard activity; resized on first sight of the shard set.
    activity: Vec<f64>,
    /// Last observed `(ever_slept, claim_races)` per shard.
    last: Vec<(u64, u64)>,
}

impl LoadWeightedSplitter {
    /// Default EWMA weight: half the activity estimate renews each cycle.
    pub const DEFAULT_ALPHA: f64 = 0.5;

    /// A splitter with an explicit EWMA weight.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            alpha,
            activity: Vec::new(),
            last: Vec::new(),
        }
    }
}

/// Largest-remainder apportionment of `total` over weighted bins with
/// per-bin capacities: floors first, then one unit at a time by largest
/// remainder, then round-robin over bins with room (clamping can leave more
/// spillover than one unit per bin).  The result sums to
/// `min(total, sum(caps))`.
fn apportion(total: u64, weights: &[f64], caps: &[u64]) -> Vec<u64> {
    let n = weights.len();
    let total = total.min(caps.iter().sum());
    let weight_sum: f64 = weights.iter().sum();
    let mut out = vec![0u64; n];
    if n == 0 || weight_sum <= 0.0 {
        return out;
    }
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for i in 0..n {
        let ideal = total as f64 * weights[i] / weight_sum;
        let floor = (ideal.floor() as u64).min(caps[i]);
        out[i] = floor;
        assigned += floor;
        remainders.push((i, ideal - floor as f64));
    }
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = total - assigned;
    let mut cursor = 0usize;
    while leftover > 0 {
        let i = remainders[cursor % n].0;
        if out[i] < caps[i] {
            out[i] += 1;
            leftover -= 1;
        } else if !out.iter().zip(caps).any(|(&t, &c)| t < c) {
            break; // every bin full; total was clamped so unreachable
        }
        cursor += 1;
    }
    out
}

impl TargetSplitter for LoadWeightedSplitter {
    /// Re-splits every cycle: the whole point is to track shifting claim
    /// traffic under a *steady* target, and per-cycle invocation is what
    /// gives the EWMA its per-cycle delta semantics.
    fn rebalances(&self) -> bool {
        true
    }

    fn split(&mut self, total: u64, shards: &[ShardSnapshot], shard_capacity: u64) -> Vec<u64> {
        let n = shards.len();
        if self.last.len() != n {
            // First cycle (or a different buffer): seed the baselines and
            // fall back to the even split until deltas exist.
            self.last = shards
                .iter()
                .map(|s| (s.ever_slept, s.claim_races))
                .collect();
            self.activity = vec![0.0; n];
            return even_split(total, n, shard_capacity);
        }
        for (i, shard) in shards.iter().enumerate() {
            let (last_s, last_r) = self.last[i];
            let delta =
                shard.ever_slept.saturating_sub(last_s) + shard.claim_races.saturating_sub(last_r);
            self.last[i] = (shard.ever_slept, shard.claim_races);
            self.activity[i] = self.alpha * delta as f64 + (1.0 - self.alpha) * self.activity[i];
        }
        let total = total.min(n as u64 * shard_capacity);
        // One unit of baseline weight per shard: idle shards stay reachable
        // and zero traffic degenerates to the even split.
        let weights: Vec<f64> = self.activity.iter().map(|a| a + 1.0).collect();
        apportion(total, &weights, &vec![shard_capacity; n])
    }
}

/// Names of every control policy, in the order of [`PolicySpec::ALL`] (a
/// test checks the two agree).
pub const ALL_POLICY_NAMES: &[&str] =
    &["paper", "hysteresis", "fixed", "pid", "latency", "autotune"];

/// A control policy by name and parameters: the closed set of decision
/// rules, spelled in the `name(key=value)` grammar of [`crate::spec`].
///
/// `FromStr` refuses unknown names, unknown keys (listing the accepted
/// ones) and out-of-range values; `hysteresis(deadband=D)` is shorthand for
/// `up=D, down=D`.  `Display` prints the canonical text, with default
/// parameters left out, and [`PolicySpec::build`] makes the policy.
///
/// ```
/// use lc_core::policy::PolicySpec;
///
/// let spec: PolicySpec = "pid(kp=0.8, ki=0.2)".parse().unwrap();
/// assert_eq!(spec, PolicySpec::Pid { kp: 0.8, ki: 0.2, kd: 0.0 });
/// assert_eq!(spec.to_string(), "pid(kp=0.8, ki=0.2)");
/// assert!("pid(gain=1)".parse::<PolicySpec>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PolicySpec {
    /// `paper`: [`PaperPolicy`].
    #[default]
    Paper,
    /// `hysteresis(alpha, up, down)`: [`HysteresisPolicy`].
    Hysteresis {
        /// EWMA weight of the newest sample, in `(0, 1]`.
        alpha: f64,
        /// Rise deadband.
        up: f64,
        /// Fall deadband.
        down: f64,
    },
    /// `fixed` ([`FixedPolicy::manual`]) or `fixed(target=N)`
    /// ([`FixedPolicy::pinned`]).
    Fixed {
        /// The pinned target, or `None` to keep the published one.
        target: Option<u64>,
    },
    /// `pid(kp, ki, kd)`: [`PidPolicy`].
    Pid {
        /// Proportional gain.
        kp: f64,
        /// Integral gain.
        ki: f64,
        /// Derivative gain.
        kd: f64,
    },
    /// `latency(target_p99, floor)`: [`LatencyPolicy`].
    Latency {
        /// The p99 wait SLO, in milliseconds.
        target_p99: f64,
        /// Minimum sleep target kept while shedding.
        floor: u64,
    },
    /// `autotune(inner, objective, window, seed)`: [`AutotunePolicy`].
    Autotune {
        /// The tuned policy family.
        inner: AutotuneInner,
        /// What the tuner minimizes.
        objective: AutotuneObjective,
        /// Evaluation window, in controller cycles.
        window: u64,
        /// Seed of the coordinate-descent sign stream.
        seed: u64,
    },
}

impl PolicySpec {
    /// Every policy, each with its default parameters.
    pub const ALL: [PolicySpec; 6] = [
        PolicySpec::Paper,
        PolicySpec::Hysteresis {
            alpha: HysteresisPolicy::DEFAULT_ALPHA,
            up: HysteresisPolicy::DEFAULT_UP_DEADBAND,
            down: HysteresisPolicy::DEFAULT_DOWN_DEADBAND,
        },
        PolicySpec::Fixed { target: None },
        PolicySpec::Pid {
            kp: PidPolicy::DEFAULT_KP,
            ki: PidPolicy::DEFAULT_KI,
            kd: PidPolicy::DEFAULT_KD,
        },
        PolicySpec::Latency {
            target_p99: LatencyPolicy::DEFAULT_TARGET_P99_MS,
            floor: LatencyPolicy::DEFAULT_FLOOR,
        },
        PolicySpec::Autotune {
            inner: AutotuneInner::Pid,
            objective: AutotuneObjective::Throughput,
            window: AutotunePolicy::DEFAULT_WINDOW,
            seed: AutotunePolicy::DEFAULT_SEED,
        },
    ];

    /// The policy's name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Paper => "paper",
            PolicySpec::Hysteresis { .. } => "hysteresis",
            PolicySpec::Fixed { .. } => "fixed",
            PolicySpec::Pid { .. } => "pid",
            PolicySpec::Latency { .. } => "latency",
            PolicySpec::Autotune { .. } => "autotune",
        }
    }

    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics on a value `FromStr` refuses (see each policy's constructor).
    pub fn build(&self) -> Policy {
        match *self {
            PolicySpec::Paper => Policy::Paper(PaperPolicy),
            PolicySpec::Hysteresis { alpha, up, down } => {
                Policy::Hysteresis(HysteresisPolicy::with_params(alpha, up, down))
            }
            PolicySpec::Fixed { target } => Policy::Fixed(FixedPolicy { pinned: target }),
            PolicySpec::Pid { kp, ki, kd } => Policy::Pid(PidPolicy::with_gains(kp, ki, kd)),
            PolicySpec::Latency { target_p99, floor } => {
                Policy::Latency(LatencyPolicy::with_params(target_p99, floor))
            }
            PolicySpec::Autotune {
                inner,
                objective,
                window,
                seed,
            } => Policy::Autotune(AutotunePolicy::with_params(inner, objective, window, seed)),
        }
    }
}

fn parse_hysteresis(spec: &ParsedSpec) -> Result<PolicySpec, SpecError> {
    let alpha = spec.param_or("alpha", HysteresisPolicy::DEFAULT_ALPHA)?;
    // `deadband` is shorthand for setting both directions; `up` / `down`
    // override it individually.
    let deadband = spec.param::<f64>("deadband")?;
    let up = spec
        .param("up")?
        .or(deadband)
        .unwrap_or(HysteresisPolicy::DEFAULT_UP_DEADBAND);
    let down = spec
        .param("down")?
        .or(deadband)
        .unwrap_or(HysteresisPolicy::DEFAULT_DOWN_DEADBAND);
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(spec.invalid_value("alpha", "must be in (0, 1]"));
    }
    if up < 0.0 {
        return Err(spec.invalid_value("up", "must be non-negative"));
    }
    if down < 0.0 {
        return Err(spec.invalid_value("down", "must be non-negative"));
    }
    Ok(PolicySpec::Hysteresis { alpha, up, down })
}

fn parse_pid(spec: &ParsedSpec) -> Result<PolicySpec, SpecError> {
    let kp = spec.param_or("kp", PidPolicy::DEFAULT_KP)?;
    let ki = spec.param_or("ki", PidPolicy::DEFAULT_KI)?;
    let kd = spec.param_or("kd", PidPolicy::DEFAULT_KD)?;
    if !(kp.is_finite() && kp >= 0.0) {
        return Err(spec.invalid_value("kp", "must be non-negative"));
    }
    if !(ki.is_finite() && ki > 0.0) {
        return Err(spec.invalid_value("ki", "must be positive"));
    }
    if !(kd.is_finite() && kd >= 0.0) {
        return Err(spec.invalid_value("kd", "must be non-negative"));
    }
    Ok(PolicySpec::Pid { kp, ki, kd })
}

fn parse_latency(spec: &ParsedSpec) -> Result<PolicySpec, SpecError> {
    let target_p99 = spec.param_or("target_p99", LatencyPolicy::DEFAULT_TARGET_P99_MS)?;
    let floor = spec.param_or("floor", LatencyPolicy::DEFAULT_FLOOR)?;
    if !(target_p99.is_finite() && target_p99 > 0.0) {
        return Err(spec.invalid_value("target_p99", "must be positive (milliseconds)"));
    }
    Ok(PolicySpec::Latency { target_p99, floor })
}

fn parse_autotune(spec: &ParsedSpec) -> Result<PolicySpec, SpecError> {
    let inner = match spec.param::<String>("inner")? {
        Some(value) => AutotuneInner::parse(&value)
            .ok_or_else(|| spec.invalid_value("inner", "must be pid or hysteresis"))?,
        None => AutotuneInner::Pid,
    };
    let objective = match spec.param::<String>("objective")? {
        Some(value) => AutotuneObjective::parse(&value).ok_or_else(|| {
            spec.invalid_value("objective", "must be throughput, wake_churn or p99")
        })?,
        None => AutotuneObjective::Throughput,
    };
    let window = spec.param_or("window", AutotunePolicy::DEFAULT_WINDOW)?;
    if window == 0 {
        return Err(spec.invalid_value("window", "must be at least 1"));
    }
    let seed = spec.param_or("seed", AutotunePolicy::DEFAULT_SEED)?;
    Ok(PolicySpec::Autotune {
        inner,
        objective,
        window,
        seed,
    })
}

impl FromStr for PolicySpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const KIND: &str = "policy";
        let spec = ParsedSpec::parse(s)?;
        match spec.name() {
            "paper" => {
                spec.expect_keys(KIND, &[])?;
                Ok(PolicySpec::Paper)
            }
            "hysteresis" => {
                spec.expect_keys(KIND, &["alpha", "up", "down", "deadband"])?;
                parse_hysteresis(&spec)
            }
            "fixed" => {
                spec.expect_keys(KIND, &["target"])?;
                Ok(PolicySpec::Fixed {
                    target: spec.param("target")?,
                })
            }
            "pid" => {
                spec.expect_keys(KIND, &["kp", "ki", "kd"])?;
                parse_pid(&spec)
            }
            "latency" => {
                spec.expect_keys(KIND, &["target_p99", "floor"])?;
                parse_latency(&spec)
            }
            "autotune" => {
                spec.expect_keys(KIND, &["inner", "objective", "window", "seed"])?;
                parse_autotune(&spec)
            }
            name => Err(SpecError::unknown_name(KIND, name, ALL_POLICY_NAMES)),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name();
        match *self {
            PolicySpec::Paper => write_spec(f, name, []),
            PolicySpec::Hysteresis { alpha, up, down } => write_spec(
                f,
                name,
                [
                    non_default("alpha", alpha, HysteresisPolicy::DEFAULT_ALPHA),
                    non_default("up", up, HysteresisPolicy::DEFAULT_UP_DEADBAND),
                    non_default("down", down, HysteresisPolicy::DEFAULT_DOWN_DEADBAND),
                ],
            ),
            PolicySpec::Fixed { target } => {
                write_spec(f, name, [target.map(|t| ("target", t.to_string()))])
            }
            PolicySpec::Pid { kp, ki, kd } => write_spec(
                f,
                name,
                [
                    non_default("kp", kp, PidPolicy::DEFAULT_KP),
                    non_default("ki", ki, PidPolicy::DEFAULT_KI),
                    non_default("kd", kd, PidPolicy::DEFAULT_KD),
                ],
            ),
            PolicySpec::Latency { target_p99, floor } => write_spec(
                f,
                name,
                [
                    non_default(
                        "target_p99",
                        target_p99,
                        LatencyPolicy::DEFAULT_TARGET_P99_MS,
                    ),
                    non_default("floor", floor, LatencyPolicy::DEFAULT_FLOOR),
                ],
            ),
            PolicySpec::Autotune {
                inner,
                objective,
                window,
                seed,
            } => write_spec(
                f,
                name,
                [
                    non_default("inner", inner.as_str(), "pid"),
                    non_default("objective", objective.as_str(), "throughput"),
                    non_default("window", window, AutotunePolicy::DEFAULT_WINDOW),
                    non_default("seed", seed, AutotunePolicy::DEFAULT_SEED),
                ],
            ),
        }
    }
}

/// Builds the control policy described by `spec` (a bare name or a
/// parameterized `name(key=value, ...)` spec).  Unknown names, unknown keys
/// and malformed values are explicit errors.
pub fn build_policy_spec(spec: &str) -> Result<Policy, SpecError> {
    Ok(spec.parse::<PolicySpec>()?.build())
}

/// Names of every target splitter, in the order of [`SplitterSpec::ALL`] (a
/// test checks the two agree).
pub const ALL_SPLITTER_NAMES: &[&str] = &["even", "load-weighted"];

/// A target splitter by name and parameters: `even` or
/// `load-weighted(ewma=W)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SplitterSpec {
    /// `even`: [`EvenSplitter`].
    #[default]
    Even,
    /// `load-weighted(ewma)`: [`LoadWeightedSplitter`].
    LoadWeighted {
        /// EWMA weight of the newest activity sample, in `(0, 1]`.
        ewma: f64,
    },
}

impl SplitterSpec {
    /// Every splitter, each with its default parameters.
    pub const ALL: [SplitterSpec; 2] = [
        SplitterSpec::Even,
        SplitterSpec::LoadWeighted {
            ewma: LoadWeightedSplitter::DEFAULT_ALPHA,
        },
    ];

    /// The splitter's name.
    pub fn name(&self) -> &'static str {
        match self {
            SplitterSpec::Even => "even",
            SplitterSpec::LoadWeighted { .. } => "load-weighted",
        }
    }

    /// Builds the splitter.
    ///
    /// # Panics
    ///
    /// Panics on an `ewma` outside `(0, 1]`, which `FromStr` refuses.
    pub fn build(&self) -> Box<dyn TargetSplitter> {
        match *self {
            SplitterSpec::Even => Box::new(EvenSplitter),
            SplitterSpec::LoadWeighted { ewma } => Box::new(LoadWeightedSplitter::with_alpha(ewma)),
        }
    }
}

impl FromStr for SplitterSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const KIND: &str = "splitter";
        let spec = ParsedSpec::parse(s)?;
        match spec.name() {
            "even" => {
                spec.expect_keys(KIND, &[])?;
                Ok(SplitterSpec::Even)
            }
            "load-weighted" => {
                spec.expect_keys(KIND, &["ewma"])?;
                let ewma = spec.param_or("ewma", LoadWeightedSplitter::DEFAULT_ALPHA)?;
                if !(ewma > 0.0 && ewma <= 1.0) {
                    return Err(spec.invalid_value("ewma", "must be in (0, 1]"));
                }
                Ok(SplitterSpec::LoadWeighted { ewma })
            }
            name => Err(SpecError::unknown_name(KIND, name, ALL_SPLITTER_NAMES)),
        }
    }
}

impl fmt::Display for SplitterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ewma = match *self {
            SplitterSpec::Even => None,
            SplitterSpec::LoadWeighted { ewma } => {
                non_default("ewma", ewma, LoadWeightedSplitter::DEFAULT_ALPHA)
            }
        };
        write_spec(f, self.name(), [ewma])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(load: usize, capacity: usize, current_target: u64) -> PolicyInputs {
        PolicyInputs {
            load,
            capacity,
            headroom: 0,
            current_target,
            stats: ControllerStats::default(),
            wait: WaitObservation::default(),
            interval: Duration::from_millis(1),
        }
    }

    /// `inputs` with a wait observation attached: `count` episodes with the
    /// given p99 (p50/max set to the same value — the policies under test
    /// only consult p99).
    fn inputs_with_wait(
        load: usize,
        capacity: usize,
        current_target: u64,
        p99_ns: u64,
        count: u64,
    ) -> PolicyInputs {
        PolicyInputs {
            wait: WaitObservation {
                count,
                p50_ns: p99_ns,
                p99_ns,
                max_ns: p99_ns,
            },
            ..inputs(load, capacity, current_target)
        }
    }

    #[test]
    fn paper_policy_is_excess_over_capacity() {
        let mut p = PaperPolicy;
        assert_eq!(p.target(&inputs(32, 64, 0)), 0);
        assert_eq!(p.target(&inputs(64, 64, 0)), 0);
        assert_eq!(p.target(&inputs(96, 64, 0)), 32);
        let mut with_headroom = inputs(70, 64, 0);
        with_headroom.headroom = 8;
        assert_eq!(p.target(&with_headroom), 0);
    }

    #[test]
    fn hysteresis_smooths_and_holds_inside_the_deadband() {
        let mut p = HysteresisPolicy::with_params(0.5, 1.0, 2.0);
        // First sample seeds the EWMA: 8 over capacity 4 → target 4.
        assert_eq!(p.target(&inputs(8, 4, 0)), 4);
        // A one-cycle dip to 7 smooths to 7.5 → candidate 3.5, within the
        // down deadband of the current target 4 → held.
        assert_eq!(p.target(&inputs(7, 4, 4)), 4);
        // Sustained drop to zero load: candidate falls through the deadband.
        assert_eq!(p.target(&inputs(0, 4, 4)), 0);
        assert!(p.smoothed_load().unwrap() < 4.0);
    }

    #[test]
    fn hysteresis_small_target_decays_fully_once_overload_ends() {
        // Regression: a target of 1 sits below the default fall deadband of
        // 2, so without the 0.5 floor it could never decay to 0.
        let mut p = HysteresisPolicy::with_params(
            HysteresisPolicy::DEFAULT_ALPHA,
            HysteresisPolicy::DEFAULT_UP_DEADBAND,
            HysteresisPolicy::DEFAULT_DOWN_DEADBAND,
        );
        // Sustained load of capacity + 1 drives the target to 1.
        let mut target = 0;
        for _ in 0..8 {
            target = p.target(&inputs(5, 4, target));
        }
        assert_eq!(target, 1);
        // Load returns to (or below) capacity: the target must reach 0.
        for _ in 0..16 {
            target = p.target(&inputs(4, 4, target));
        }
        assert_eq!(target, 0, "sleep target pinned above zero after idle");
    }

    #[test]
    fn hysteresis_rises_only_past_the_up_deadband() {
        let mut p = HysteresisPolicy::with_params(1.0, 2.0, 2.0);
        // Candidate 1 over a current target of 0: inside the up deadband.
        assert_eq!(p.target(&inputs(5, 4, 0)), 0);
        // Candidate 3: past it.
        assert_eq!(p.target(&inputs(7, 4, 0)), 3);
    }

    #[test]
    fn fixed_policy_pins_or_follows_the_buffer() {
        let mut pinned = FixedPolicy::pinned(3);
        assert_eq!(pinned.target(&inputs(100, 1, 0)), 3);
        assert_eq!(pinned.target(&inputs(0, 1, 7)), 3);
        let mut manual = FixedPolicy::manual();
        assert_eq!(manual.target(&inputs(100, 1, 7)), 7);
        assert_eq!(manual.target(&inputs(0, 1, 0)), 0);
    }

    #[test]
    fn pid_policy_converges_to_the_excess_and_decays() {
        let mut p = PidPolicy::with_gains(PidPolicy::DEFAULT_KP, PidPolicy::DEFAULT_KI, 0.0);
        // Sustained demand of 8 over capacity 4: the integrator must walk the
        // target to the excess (4) and hold it there.
        let mut target = 0;
        for _ in 0..200 {
            target = p.target(&inputs(8, 4, target));
        }
        assert_eq!(target, 4, "PID did not converge to the excess");
        for _ in 0..5 {
            target = p.target(&inputs(8, 4, target));
            assert_eq!(target, 4, "PID did not hold at steady state");
        }
        // Load returns to capacity: the target must drain back to zero.
        for _ in 0..400 {
            target = p.target(&inputs(4, 4, target));
        }
        assert_eq!(target, 0, "PID target pinned above zero after idle");
    }

    #[test]
    fn pid_policy_moves_gradually_not_in_one_jump() {
        let mut p = PidPolicy::with_gains(PidPolicy::DEFAULT_KP, PidPolicy::DEFAULT_KI, 0.0);
        // First cycle of a big overload: the paper rule would jump to 60;
        // the PID output must be a fraction of it.
        let first = p.target(&inputs(64, 4, 0));
        assert!(first > 0, "no initial response");
        assert!(first < 60, "PID jumped straight to the excess ({first})");
    }

    #[test]
    fn latency_policy_matches_paper_while_the_slo_is_met() {
        let mut p = LatencyPolicy::with_params(50.0, 0);
        // No wait evidence yet: parked waiters age unobserved, so the
        // governor recycles proactively — never above the paper rule, and
        // periodically dipping below it.
        let mut dipped = false;
        for _ in 0..10 {
            let t = p.target(&inputs(96, 64, 0));
            assert!(t <= 32);
            dipped |= t < 32;
        }
        assert!(dipped, "no-evidence base rate never recycled");
        // Waits well under the SLO decay the evidence boost to zero, but the
        // rate base keeps rotating: completed-wait feedback only sees the
        // sleepers that left, so a healthy-looking histogram must not stop
        // the rotation that keeps it healthy.  For excess 32, a 1 ms cycle
        // and a 25 ms budget the base is ceil(32·2·1/25) = 3.
        for _ in 0..40 {
            p.target(&inputs_with_wait(96, 64, 32, 1_000_000, 4));
        }
        assert_eq!(p.cut(), 3);
        for _ in 0..10 {
            let t = p.target(&inputs_with_wait(96, 64, 32, 1_000_000, 4));
            assert!(
                t == 32 || t == 29,
                "target strayed from the base sawtooth: {t}"
            );
        }
    }

    #[test]
    fn latency_policy_sawtooths_below_the_excess_on_slo_violation() {
        let mut p = LatencyPolicy::with_params(50.0, 0);
        // p99 of 200 ms against a 50 ms SLO: the cut must grow and the
        // published target must oscillate between the excess and below it.
        let over = 200_000_000;
        let mut saw_shrink = false;
        let mut saw_restore = false;
        for _ in 0..20 {
            let t = p.target(&inputs_with_wait(96, 64, 32, over, 8));
            assert!(t <= 32);
            if t < 32 {
                saw_shrink = true;
            } else {
                saw_restore = true;
            }
        }
        assert!(saw_shrink, "SLO violation never shrank the target");
        assert!(saw_restore, "sawtooth never restored the full excess");
        assert!(p.cut() > 0);
        assert!(p.smoothed_p99_ns().unwrap() > 50.0 * 1e6);
    }

    #[test]
    fn latency_policy_floor_bounds_the_shed_depth() {
        let mut p = LatencyPolicy::with_params(50.0, 24);
        let over = 500_000_000;
        for _ in 0..40 {
            let t = p.target(&inputs_with_wait(96, 64, 32, over, 8));
            assert!(t >= 24, "shed below the floor: {t}");
        }
        // Without the floor the same pressure sheds (almost) everything.
        let mut unfloored = LatencyPolicy::with_params(50.0, 0);
        let mut min_seen = u64::MAX;
        for _ in 0..40 {
            min_seen = min_seen.min(unfloored.target(&inputs_with_wait(96, 64, 32, over, 8)));
        }
        assert_eq!(min_seen, 0);
    }

    #[test]
    fn latency_policy_recovers_when_the_p99_falls() {
        let mut p = LatencyPolicy::with_params(50.0, 0);
        for _ in 0..10 {
            p.target(&inputs_with_wait(96, 64, 32, 400_000_000, 8));
        }
        assert!(p.cut() > 3, "violation never grew the cut past the base");
        // Sustained waits below half the budget decay the evidence boost;
        // the cut settles back at the rate base (3 for these inputs), never
        // at zero — the governor keeps rotating even when healthy.
        for _ in 0..40 {
            p.target(&inputs_with_wait(96, 64, 32, 1_000_000, 8));
        }
        assert_eq!(p.cut(), 3);
        // And a vanished overload zeroes everything.
        assert_eq!(p.target(&inputs(4, 64, 0)), 0);
        assert_eq!(p.cut(), 0);
    }

    #[test]
    fn autotune_objective_history_is_monotone_non_increasing() {
        let mut p =
            AutotunePolicy::with_params(AutotuneInner::Pid, AutotuneObjective::Throughput, 8, 0);
        let mut target = 0;
        for _ in 0..400usize {
            let mut i = inputs(12, 4, target);
            // A crude plant: the better the target absorbs the excess, the
            // closer the runnable count sits to the threshold.
            i.stats.last_runnable = 12usize.saturating_sub(target as usize);
            target = p.target(&i);
        }
        let history = p.objective_history();
        assert_eq!(history.len(), 400 / 8);
        for pair in history.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "objective history regressed: {history:?}"
            );
        }
        assert!(p.best_cost().is_finite());
        assert_eq!(p.best_params().len(), 2);
    }

    #[test]
    fn autotune_is_deterministic_for_a_fixed_seed() {
        let run = |seed: u64| {
            let mut p = AutotunePolicy::with_params(
                AutotuneInner::Hysteresis,
                AutotuneObjective::WakeChurn,
                4,
                seed,
            );
            let mut targets = Vec::new();
            for cycle in 0..100u64 {
                let mut i = inputs(10, 4, 0);
                i.stats.woken_and_left = cycle * 3;
                targets.push(p.target(&i));
            }
            (targets, p.best_params().to_vec())
        };
        assert_eq!(run(7), run(7));
        // A different seed explores a different trajectory (sanity check
        // that the seed actually reaches the sign stream).
        let (_, a) = run(7);
        let (_, b) = run(8);
        // Both remain within the hysteresis search space.
        for params in [&a, &b] {
            assert_eq!(params.len(), 3);
            assert!(params[0] > 0.0 && params[0] <= 1.0);
        }
    }

    #[test]
    fn autotune_p99_objective_skips_empty_windows() {
        let mut p = AutotunePolicy::with_params(AutotuneInner::Pid, AutotuneObjective::P99, 4, 0);
        // Four windows with no wait evidence: judged costs stay infinite.
        for _ in 0..16 {
            p.target(&inputs(8, 4, 0));
        }
        assert_eq!(p.objective_history().len(), 4);
        assert!(p.best_cost().is_infinite());
        // Evidence arrives: the next window is judged.
        for _ in 0..4 {
            p.target(&inputs_with_wait(8, 4, 0, 5_000_000, 2));
        }
        assert!(p.best_cost().is_finite());
    }

    #[test]
    fn default_built_policies_behave_like_their_types() {
        // "paper" from its spec must reproduce the hard-coded rule.
        let mut p = build_policy_spec("paper").unwrap();
        assert_eq!(p.target(&inputs(96, 64, 0)), 32);
        // "fixed" from its spec is the manual variant, and pins a target
        // when given one.
        let mut f = build_policy_spec("fixed").unwrap();
        assert_eq!(f.target(&inputs(96, 64, 5)), 5);
        let mut f = build_policy_spec("fixed(target=8)").unwrap();
        assert_eq!(f.target(&inputs(0, 1, 3)), 8, "pinned target ignored");
    }

    // -- target splitters --------------------------------------------------

    fn snapshots(activity: &[(u64, u64)]) -> Vec<ShardSnapshot> {
        activity
            .iter()
            .map(|&(ever_slept, claim_races)| ShardSnapshot {
                sleepers: 0,
                ever_slept,
                claim_races,
                target: 0,
            })
            .collect()
    }

    #[test]
    fn even_splitter_matches_the_buffer_arithmetic() {
        let mut s = EvenSplitter;
        let shards = snapshots(&[(0, 0); 4]);
        assert_eq!(s.split(7, &shards, 4), vec![2, 2, 2, 1]);
        assert_eq!(s.split(0, &shards, 4), vec![0, 0, 0, 0]);
        assert_eq!(s.split(100, &shards, 4), vec![4, 4, 4, 4]);
    }

    #[test]
    fn load_weighted_splitter_first_cycle_is_even() {
        let mut s = LoadWeightedSplitter::with_alpha(LoadWeightedSplitter::DEFAULT_ALPHA);
        let shards = snapshots(&[(50, 5), (0, 0), (0, 0), (0, 0)]);
        // No deltas exist yet, so the first cycle cannot weight anything.
        assert_eq!(s.split(8, &shards, 8), vec![2, 2, 2, 2]);
    }

    #[test]
    fn load_weighted_splitter_follows_claim_activity() {
        let mut s = LoadWeightedSplitter::with_alpha(1.0);
        let before = snapshots(&[(0, 0), (0, 0)]);
        s.split(4, &before, 16);
        // Shard 0 saw 60 claims + 20 races since; shard 1 stayed idle.
        let after = snapshots(&[(60, 20), (0, 0)]);
        let split = s.split(10, &after, 16);
        assert_eq!(split.iter().sum::<u64>(), 10, "shares must sum to T");
        assert!(
            split[0] > split[1],
            "the busy shard must receive the larger share (got {split:?})"
        );
    }

    #[test]
    fn load_weighted_splitter_clamps_and_redistributes() {
        let mut s = LoadWeightedSplitter::with_alpha(1.0);
        let before = snapshots(&[(0, 0), (0, 0)]);
        s.split(0, &before, 4);
        // All activity on shard 0, but its capacity is only 4: the excess
        // share must spill to shard 1 so the sum still equals T.
        let after = snapshots(&[(1_000, 0), (0, 0)]);
        let split = s.split(6, &after, 4);
        assert_eq!(split.iter().sum::<u64>(), 6);
        assert!(split.iter().all(|&t| t <= 4), "share exceeded capacity");
    }

    #[test]
    fn load_weighted_splitter_sum_is_exact_over_many_cases() {
        let mut s = LoadWeightedSplitter::with_alpha(LoadWeightedSplitter::DEFAULT_ALPHA);
        for round in 0u64..50 {
            let shards = snapshots(&[
                (round * 13, round % 7),
                (round * 5, round % 3),
                (round * 29, 0),
                (0, round),
            ]);
            for total in [0u64, 1, 3, 7, 8, 15, 16, 31, 32] {
                let split = s.split(total, &shards, 8);
                assert_eq!(split.len(), 4);
                assert_eq!(
                    split.iter().sum::<u64>(),
                    total.min(32),
                    "round {round}, total {total}: {split:?}"
                );
                assert!(split.iter().all(|&t| t <= 8));
            }
        }
    }
}
