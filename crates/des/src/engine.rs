//! The discrete-event engine: megascale populations against the real
//! control plane on virtual time.
//!
//! # What is real and what is modelled
//!
//! Real (the production types, unmodified):
//!
//! * [`LoadControl`] — built by spec string, driven by calling
//!   [`LoadControl::run_cycle`] at virtual controller ticks, reading time
//!   from a [`VirtualClock`] through the `lc_core::time` seam;
//! * the [`SleepSlotBuffer`](lc_core::SleepSlotBuffer) — simulated workers
//!   are registered sleepers,
//!   claim slots through `try_claim`, wait through [`SlotWait`] (the same
//!   state machine `LoadGate::park` drives), and are woken by the
//!   controller through their real [`Parker`]s;
//! * the [`ControlPolicy`](lc_core::ControlPolicy) /
//!   [`TargetSplitter`](lc_core::TargetSplitter) implementations and the
//!   spec grammar that selects them.
//!
//! Modelled (the workload layer, [`crate::workload`]):
//!
//! * a single contended lock with FIFO handoff — spinning waiters are queue
//!   entries and consume **no events**, which is what keeps a 1M-worker run
//!   at a few million events total;
//! * capacity sharing: a critical section of nominal length `d` takes
//!   `d × max(1, runnable / capacity)` of virtual time, the first-order
//!   effect of overload (and the feedback loop the controller closes by
//!   parking spinners);
//! * think time between operations, open/closed-loop arrivals and phase
//!   shifts.
//!
//! # Event discipline
//!
//! Events order by `(virtual time, seeded tie, sequence)`.  The tie word is
//! drawn from the run's seed at schedule time, so simultaneous events (e.g.
//! a million park timeouts from the same claim burst) pop in a seeded,
//! reproducible shuffle: the same seed replays bit-identically, a different
//! seed explores a different interleaving.  [`Perturb`] adds optional
//! scheduling jitter and critical-section preemption injection on top.
//!
//! Workers observe a changed target at the next controller tick (claims are
//! matched in a deterministic batch after each cycle), which corresponds to
//! a real spinner noticing the target within one spin-hook check period.

use crate::discipline::WaiterDiscipline;
use crate::metrics::{convergence_cycle, CycleRow, RunReport};
use crate::workload::{Arrivals, Dist, WorkloadSpec};
use lc_accounting::{LoadSample, LoadSampler, ThreadRegistry};
use lc_core::{
    ClaimOutcome, LoadControl, LoadControlConfig, SleeperId, SlotWait, SpecError, TimeSource,
    VirtualClock, WaitOutcome, WaitPoll, WakeOrder,
};
use lc_locks::Parker;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};
use std::time::Duration;

/// Randomized perturbation: scheduling jitter and preemption injection.
///
/// Off by default; turning it on keeps runs deterministic per seed but
/// explores harsher interleavings (events displaced by random delays, lock
/// holders losing their CPU mid-critical-section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturb {
    /// Maximum extra delay added to every scheduled event (uniform draw).
    pub event_jitter: Duration,
    /// Probability that a critical section suffers a preemption.
    pub preempt_chance: f64,
    /// Maximum length of an injected preemption (uniform draw).
    pub preempt_max: Duration,
}

impl Perturb {
    /// A mild default: up to 10 µs of jitter, 1 % preemption chance of up
    /// to 1 ms.
    pub fn light() -> Self {
        Self {
            event_jitter: Duration::from_micros(10),
            preempt_chance: 0.01,
            preempt_max: Duration::from_millis(1),
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesConfig {
    /// Worker population (each worker is a registered sleeper in the real
    /// slot buffer).
    pub workers: usize,
    /// Simulated hardware contexts.
    pub capacity: usize,
    /// Slot-buffer shards.
    pub shards: usize,
    /// Control-policy spec string (e.g. `"paper"` or
    /// `"hysteresis(alpha=0.3)"`).
    pub policy: String,
    /// Target-splitter spec string (e.g. `"even"`).
    pub splitter: String,
    /// Controller wake order within a shard: array-order `fifo` (default)
    /// or oldest-claim-first `window`.
    pub wake_order: WakeOrder,
    /// Controller cycle period (virtual).
    pub tick: Duration,
    /// Sleep timeout for parked workers (virtual).
    pub sleep_timeout: Duration,
    /// Virtual run length.
    pub horizon: Duration,
    /// Seed for every random draw in the run.
    pub seed: u64,
    /// The workload model.
    pub workload: WorkloadSpec,
    /// Optional randomized reordering / preemption injection.
    pub perturb: Option<Perturb>,
    /// How contended waiters of the modelled lock behave.
    ///
    /// The engine's native model is load-controlled spinning
    /// ([`WaiterDiscipline::LoadControlledSpin`], the default).
    /// [`WaiterDiscipline::Combining`] switches the lock to a delegation
    /// model: waiters *publish* their critical sections and poll, and on
    /// each acquisition the combiner executes up to [`COMBINE_BATCH`]
    /// published requests in one burst before releasing.  Publishers whose
    /// requests are claimed by the combiner leave the withdrawable queue —
    /// only still-queued publishers can be parked by load control, which is
    /// exactly the real abort/withdraw boundary.  Any other discipline value
    /// falls back to the native spin model.
    pub discipline: WaiterDiscipline,
}

impl DesConfig {
    /// A run over `workers` simulated threads on `capacity` contexts with
    /// the paper's policy, even splitting and the default contended
    /// workload.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self {
            workers,
            capacity,
            shards: 1,
            policy: "paper".to_string(),
            splitter: "even".to_string(),
            wake_order: WakeOrder::Fifo,
            tick: Duration::from_millis(1),
            sleep_timeout: Duration::from_millis(250),
            horizon: Duration::from_millis(500),
            seed: crate::DEFAULT_TEST_SEED,
            workload: WorkloadSpec::contended(),
            perturb: None,
            discipline: WaiterDiscipline::LoadControlledSpin,
        }
    }
}

/// How many published requests (including the combiner's own) one combiner
/// pass executes under [`WaiterDiscipline::Combining`]; mirrors the default
/// combining caps of the real delegation backends in `lc_locks::delegation`.
pub const COMBINE_BATCH: usize = 8;

/// The load sampler of the simulated machine: reports the engine's runnable
/// counter on the virtual clock's timebase.
#[derive(Debug)]
struct DesSampler {
    clock: Arc<VirtualClock>,
    runnable: Arc<AtomicUsize>,
}

impl LoadSampler for DesSampler {
    fn sample(&self) -> LoadSample {
        LoadSample {
            at_ns: u64::try_from(self.clock.now().as_nanos()).unwrap_or(u64::MAX),
            runnable: self.runnable.load(Ordering::Relaxed),
        }
    }

    fn name(&self) -> &'static str {
        "des"
    }
}

/// The waker registered on each simulated worker's parker: a controller
/// unpark pushes the worker id onto the engine's wake queue — the event-loop
/// edge of the real wake path.
#[derive(Debug)]
struct QueueWaker {
    queue: Arc<Mutex<Vec<u32>>>,
    id: u32,
}

impl Wake for QueueWaker {
    fn wake(self: Arc<Self>) {
        self.queue.lock().unwrap().push(self.id);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    /// Not yet activated (open-loop pool).
    Idle,
    /// Executing think time; a `StartWork` event is pending.
    Thinking,
    /// Spinning in the lock queue (runnable, no events).
    Spinning,
    /// In the critical section; a `Release` event is pending.
    Holding,
    /// Parked in a sleep slot.
    Parked,
}

struct Worker {
    sleeper: SleeperId,
    parker: Arc<Parker>,
    waker: Waker,
    state: WState,
    /// Park-episode generation: a `ParkTimeout` event is valid only if its
    /// recorded epoch matches (stale timeouts from earlier episodes no-op).
    epoch: u32,
    wait: Option<SlotWait>,
    completed: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// One controller cycle: `run_cycle`, drain wakes, match claims.
    ControllerTick,
    /// A worker finished thinking and requests the lock.
    StartWork(u32),
    /// The lock holder finishes its critical section.
    Release(u32),
    /// A parked worker's sleep timeout expires (worker, epoch).
    ParkTimeout(u32, u32),
    /// Open-loop arrival: activate the next idle worker.
    Arrival,
    /// Workload phase shift (index into `WorkloadSpec::phases`).
    PhaseShift(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: u64,
    tie: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tie, self.seq).cmp(&(other.at, other.tie, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event engine.  Build with [`Engine::new`], run with
/// [`Engine::run`].
pub struct Engine {
    config: DesConfig,
    clock: Arc<VirtualClock>,
    control: Arc<LoadControl>,
    runnable: Arc<AtomicUsize>,
    wake_queue: Arc<Mutex<Vec<u32>>>,
    workers: Vec<Worker>,
    lock_queue: VecDeque<u32>,
    holder: Option<u32>,
    /// Publishers whose requests the current combiner has claimed (only
    /// non-empty under [`WaiterDiscipline::Combining`]); they complete with
    /// the combiner's release and cannot be parked meanwhile.
    combined: Vec<u32>,
    heap: BinaryHeap<Reverse<Event>>,
    rng: StdRng,
    seq: u64,
    events: u64,
    completed_total: u64,
    critical: Dist,
    think: Dist,
    next_arrival: u32,
    trace: Vec<CycleRow>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("events", &self.events)
            .field("queued", &self.heap.len())
            .finish()
    }
}

impl Engine {
    /// Builds the engine: constructs the real control plane from the spec
    /// strings, registers every worker as a sleeper in the real buffer, and
    /// seeds the initial event population.
    pub fn new(config: DesConfig) -> Result<Self, SpecError> {
        let clock = Arc::new(VirtualClock::new());
        let runnable = Arc::new(AtomicUsize::new(0));
        let mut lc_config = LoadControlConfig::for_capacity(config.capacity)
            .with_shards(config.shards)
            .with_update_interval(config.tick)
            .with_sleep_timeout(config.sleep_timeout)
            .with_wake_order(config.wake_order);
        lc_config.max_sleepers = config.workers;
        let registry = Arc::new(ThreadRegistry::new());
        let sampler = Box::new(DesSampler {
            clock: Arc::clone(&clock),
            runnable: Arc::clone(&runnable),
        });
        let control = LoadControl::builder(lc_config)
            .policy_spec(&config.policy)?
            .splitter_spec(&config.splitter)?
            .time_source(Arc::clone(&clock) as Arc<dyn TimeSource>)
            .sampler(registry, sampler)
            .build();

        let wake_queue = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::with_capacity(config.workers);
        for id in 0..config.workers as u32 {
            let parker = Arc::new(Parker::new());
            let sleeper = control.buffer().register_sleeper(Arc::clone(&parker));
            let waker = Waker::from(Arc::new(QueueWaker {
                queue: Arc::clone(&wake_queue),
                id,
            }));
            workers.push(Worker {
                sleeper,
                parker,
                waker,
                state: WState::Idle,
                epoch: 0,
                wait: None,
                completed: 0,
            });
        }

        let mut engine = Self {
            rng: StdRng::seed_from_u64(config.seed),
            critical: config.workload.critical,
            think: config.workload.think,
            clock,
            control,
            runnable,
            wake_queue,
            workers,
            lock_queue: VecDeque::new(),
            holder: None,
            combined: Vec::new(),
            heap: BinaryHeap::with_capacity(config.workers + 16),
            seq: 0,
            events: 0,
            completed_total: 0,
            next_arrival: 0,
            trace: Vec::new(),
            config,
        };
        engine.seed_initial_events();
        Ok(engine)
    }

    fn seed_initial_events(&mut self) {
        match self.config.workload.arrivals {
            Arrivals::Closed => {
                // Everyone starts mid-think, staggered by a think-time draw.
                for id in 0..self.config.workers as u32 {
                    self.workers[id as usize].state = WState::Thinking;
                    let offset = self.think.sample(&mut self.rng);
                    self.schedule(offset, EventKind::StartWork(id));
                }
                self.runnable.store(self.config.workers, Ordering::Relaxed);
            }
            Arrivals::Open { .. } => {
                self.schedule(Duration::ZERO, EventKind::Arrival);
            }
        }
        self.schedule(self.config.tick, EventKind::ControllerTick);
        let phase_times: Vec<u64> = self
            .config
            .workload
            .phases
            .iter()
            .map(|phase| ns(phase.at))
            .collect();
        for (i, at) in phase_times.into_iter().enumerate() {
            self.push_event(at, EventKind::PhaseShift(i));
        }
    }

    /// Schedules `kind` at `delay` after now (plus perturbation jitter).
    fn schedule(&mut self, delay: Duration, kind: EventKind) {
        let mut at = ns(self.clock.now()) + ns(delay);
        if let Some(perturb) = self.config.perturb {
            let jitter = ns(perturb.event_jitter);
            if jitter > 0 {
                at += self.rng.random_range(0..=jitter);
            }
        }
        self.push_event(at, kind);
    }

    fn push_event(&mut self, at: u64, kind: EventKind) {
        // Events past the horizon are never popped (the run loop stops
        // there), so keeping them out of the heap is free — at megascale it
        // skips ~1M dead `ParkTimeout` insertions per run.
        if at > ns(self.config.horizon) {
            return;
        }
        let tie = self.rng.random_range(0..=u64::MAX);
        self.seq += 1;
        self.heap.push(Reverse(Event {
            at,
            tie,
            seq: self.seq,
            kind,
        }));
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> RunReport {
        let horizon = ns(self.config.horizon);
        while let Some(Reverse(event)) = self.heap.pop() {
            if event.at > horizon {
                break;
            }
            self.clock.set(Duration::from_nanos(event.at));
            self.events += 1;
            match event.kind {
                EventKind::ControllerTick => self.on_tick(),
                EventKind::StartWork(w) => self.on_start_work(w),
                EventKind::Release(w) => self.on_release(w),
                EventKind::ParkTimeout(w, epoch) => self.on_park_timeout(w, epoch),
                EventKind::Arrival => self.on_arrival(),
                EventKind::PhaseShift(i) => {
                    let phase = self.config.workload.phases[i];
                    self.critical = phase.critical;
                    self.think = phase.think;
                }
            }
            self.drain_wakes();
        }
        self.report()
    }

    /// One controller cycle: the real `run_cycle`, then the wake and claim
    /// edges of the simulated waiters.
    fn on_tick(&mut self) {
        self.control.run_cycle();
        // Wakes first: the cycle may have lowered targets and unparked
        // sleepers through their real parkers.
        self.drain_wakes();
        // Claim matching: spinning workers observe the published target and
        // claim slots until the buffer reports no more space — the batched
        // equivalent of every spinner's next spin-hook check.
        self.match_claims();
        self.record_row();
        self.schedule(self.config.tick, EventKind::ControllerTick);
    }

    fn match_claims(&mut self) {
        while let Some(&candidate) = self.lock_queue.back() {
            debug_assert_eq!(self.workers[candidate as usize].state, WState::Spinning);
            let sleeper = self.workers[candidate as usize].sleeper;
            match self.control.buffer().try_claim(sleeper) {
                ClaimOutcome::Claimed(idx) => {
                    self.lock_queue.pop_back();
                    let now = self.clock.now();
                    let worker = &mut self.workers[candidate as usize];
                    worker.state = WState::Parked;
                    worker.epoch = worker.epoch.wrapping_add(1);
                    let wait = SlotWait::begin(idx, worker.sleeper, now, self.config.sleep_timeout);
                    let deadline = wait.deadline();
                    worker.wait = Some(wait);
                    // Arm the real wake path: consume any stale permit, then
                    // register our waker for the controller's next unpark.
                    worker.parker.try_consume_permit();
                    worker.parker.set_waker(&worker.waker);
                    let epoch = worker.epoch;
                    self.runnable.fetch_sub(1, Ordering::Relaxed);
                    let at = ns(deadline);
                    self.push_event(at, EventKind::ParkTimeout(candidate, epoch));
                }
                ClaimOutcome::NoSpace => break,
                // Single-threaded engine: a lost CAS cannot happen, but the
                // honest response (per the paper) is to keep polling.
                ClaimOutcome::Raced => break,
            }
        }
    }

    /// Applies every pending controller unpark: poll the worker's real
    /// `SlotWait` and let it leave if its slot was cleared.
    fn drain_wakes(&mut self) {
        loop {
            let pending: Vec<u32> = {
                let mut queue = self.wake_queue.lock().unwrap();
                std::mem::take(&mut *queue)
            };
            if pending.is_empty() {
                return;
            }
            for id in pending {
                if self.workers[id as usize].state != WState::Parked {
                    continue; // stale unpark; permit drained at next claim
                }
                let wait = self.workers[id as usize]
                    .wait
                    .take()
                    .expect("parked worker without wait");
                match wait.poll(self.control.buffer(), self.clock.now()) {
                    WaitPoll::Done(_) => {
                        wait.finish(self.control.buffer(), self.clock.now());
                        self.workers[id as usize].parker.try_consume_permit();
                        self.resume_spinning(id);
                    }
                    WaitPoll::Keep(_) => {
                        // Spurious unpark: stay parked, re-arm the waker
                        // (unpark consumed it).
                        let worker = &mut self.workers[id as usize];
                        worker.parker.try_consume_permit();
                        worker.parker.set_waker(&worker.waker);
                        worker.wait = Some(wait);
                    }
                }
            }
        }
    }

    fn on_park_timeout(&mut self, id: u32, epoch: u32) {
        {
            let worker = &self.workers[id as usize];
            if worker.state != WState::Parked || worker.epoch != epoch {
                return; // stale timeout from an earlier episode
            }
        }
        let wait = self.workers[id as usize]
            .wait
            .take()
            .expect("parked worker without wait");
        match wait.poll(self.control.buffer(), self.clock.now()) {
            WaitPoll::Done(outcome) => {
                wait.finish(self.control.buffer(), self.clock.now());
                self.workers[id as usize].parker.try_consume_permit();
                debug_assert!(matches!(
                    outcome,
                    WaitOutcome::TimedOut | WaitOutcome::Cleared
                ));
                self.resume_spinning(id);
            }
            WaitPoll::Keep(_) => {
                // Cannot happen (the event fires at the deadline), but the
                // protocol answer is to keep waiting.
                self.workers[id as usize].wait = Some(wait);
            }
        }
    }

    /// A worker returns from its sleep slot to the lock queue.
    fn resume_spinning(&mut self, id: u32) {
        self.workers[id as usize].state = WState::Spinning;
        self.runnable.fetch_add(1, Ordering::Relaxed);
        self.lock_queue.push_back(id);
        self.try_grant();
    }

    fn on_start_work(&mut self, id: u32) {
        debug_assert_eq!(self.workers[id as usize].state, WState::Thinking);
        self.workers[id as usize].state = WState::Spinning;
        self.lock_queue.push_back(id);
        self.try_grant();
    }

    fn on_release(&mut self, id: u32) {
        debug_assert_eq!(self.holder, Some(id));
        self.holder = None;
        // Under combining, every publisher whose request rode in the
        // combiner's burst completes with this release.
        let combined = std::mem::take(&mut self.combined);
        for w in combined {
            let worker = &mut self.workers[w as usize];
            debug_assert_eq!(worker.state, WState::Spinning);
            worker.completed += 1;
            self.completed_total += 1;
            worker.state = WState::Thinking;
            let think = self.think.sample(&mut self.rng);
            self.schedule(think, EventKind::StartWork(w));
        }
        let worker = &mut self.workers[id as usize];
        worker.completed += 1;
        self.completed_total += 1;
        worker.state = WState::Thinking;
        let think = self.think.sample(&mut self.rng);
        self.schedule(think, EventKind::StartWork(id));
        self.try_grant();
    }

    /// FIFO handoff: if the lock is free, the oldest spinner takes it.
    /// Under [`WaiterDiscipline::Combining`] the taker is a *combiner*: it
    /// also claims up to [`COMBINE_BATCH`]` - 1` further published requests
    /// and executes them in one burst before releasing.
    fn try_grant(&mut self) {
        if self.holder.is_some() {
            return;
        }
        let Some(next) = self.lock_queue.pop_front() else {
            return;
        };
        self.holder = Some(next);
        self.workers[next as usize].state = WState::Holding;
        let mut critical = self.critical.sample(&mut self.rng);
        if self.config.discipline == WaiterDiscipline::Combining {
            debug_assert!(self.combined.is_empty());
            while self.combined.len() + 1 < COMBINE_BATCH {
                let Some(w) = self.lock_queue.pop_front() else {
                    break;
                };
                // The combiner takes this request: it can no longer be
                // withdrawn (so load control cannot park its publisher),
                // and its critical section joins the burst.
                critical += self.critical.sample(&mut self.rng);
                self.combined.push(w);
            }
        }
        if let Some(perturb) = self.config.perturb {
            if self.rng.random_range(0.0..1.0) < perturb.preempt_chance {
                let max = ns(perturb.preempt_max);
                if max > 0 {
                    critical += Duration::from_nanos(self.rng.random_range(0..=max));
                }
            }
        }
        // Capacity sharing: past 100 % load every CPU burst stretches by the
        // overcommit factor — the collapse the controller exists to prevent.
        let runnable = self.runnable.load(Ordering::Relaxed);
        let slowdown = (runnable as f64 / self.config.capacity.max(1) as f64).max(1.0);
        let effective = Duration::from_secs_f64(critical.as_secs_f64() * slowdown);
        self.schedule(effective, EventKind::Release(next));
    }

    fn on_arrival(&mut self) {
        let Arrivals::Open { mean_interarrival } = self.config.workload.arrivals else {
            return;
        };
        if (self.next_arrival as usize) < self.config.workers {
            let id = self.next_arrival;
            self.next_arrival += 1;
            self.workers[id as usize].state = WState::Thinking;
            self.runnable.fetch_add(1, Ordering::Relaxed);
            let think = self.think.sample(&mut self.rng);
            self.schedule(think, EventKind::StartWork(id));
            let gap = Dist::Exp {
                mean: mean_interarrival,
            }
            .sample(&mut self.rng);
            self.schedule(gap, EventKind::Arrival);
        }
    }

    fn record_row(&mut self) {
        let stats = self.control.buffer().stats();
        let completed = self.completed_total;
        self.trace.push(CycleRow {
            at_ns: ns(self.clock.now()),
            runnable: self.runnable.load(Ordering::Relaxed) as u64,
            sleepers: self.control.buffer().sleepers(),
            target: stats.target,
            ever_slept: stats.ever_slept,
            woken_and_left: stats.woken_and_left,
            controller_wakes: stats.controller_wakes,
            completed,
            wait_p50_ns: stats.wait.p50_ns,
            wait_p99_ns: stats.wait.p99_ns,
            wait_max_ns: stats.wait.max_ns,
        });
    }

    fn report(self) -> RunReport {
        // Censored episodes: a worker still parked at the horizon has waited
        // at least its current age.  Recording that age keeps the final wait
        // quantiles honest — a policy that parks sleepers forever must not
        // report a spotless p99 just because no episode ever *finished*.
        let now = self.clock.now();
        for worker in &self.workers {
            if let Some(wait) = &worker.wait {
                self.control
                    .buffer()
                    .record_wait(now.saturating_sub(wait.started()));
            }
        }
        let stats = self.control.buffer().stats();
        let completed = self.completed_total;
        let counts: Vec<u32> = self.workers.iter().map(|w| w.completed).collect();
        let horizon_ns = ns(self.config.horizon);
        let convergence = convergence_cycle(&self.trace, self.config.capacity as u64, 5);
        let mut spec = self.control.spec().to_string();
        if self.config.discipline != WaiterDiscipline::LoadControlledSpin {
            // Keep non-default disciplines distinguishable in sweep output.
            spec.push_str("; discipline=");
            spec.push_str(self.config.discipline.canonical_name());
        }
        RunReport {
            spec,
            seed: self.config.seed,
            workers: self.config.workers as u64,
            capacity: self.config.capacity as u64,
            horizon_ns,
            events: self.events,
            completed,
            throughput_per_vsec: completed as f64 / (horizon_ns as f64 / 1e9),
            timeout_wakes: stats.woken_and_left.saturating_sub(stats.controller_wakes),
            controller_wakes: stats.controller_wakes,
            wait_count: stats.wait.count,
            wait_p50_ns: stats.wait.p50_ns,
            wait_p99_ns: stats.wait.p99_ns,
            wait_max_ns: stats.wait.max_ns,
            convergence_cycle: convergence,
            fairness: crate::metrics::jains_index(&counts),
            trace: self.trace,
        }
    }
}

/// Builds and runs one simulation; the one-call entry point.
pub fn run(config: DesConfig) -> Result<RunReport, SpecError> {
    Ok(Engine::new(config)?.run())
}

#[inline]
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: &str, seed: u64) -> DesConfig {
        let mut config = DesConfig::new(400, 4);
        config.policy = policy.to_string();
        config.seed = seed;
        config.horizon = Duration::from_millis(100);
        config.sleep_timeout = Duration::from_millis(40);
        config
    }

    #[test]
    fn paper_policy_parks_the_excess_and_converges() {
        let report = run(small("paper", 1)).expect("valid spec");
        assert!(report.completed > 0, "no work completed");
        let last = report.trace.last().expect("trace recorded");
        assert!(last.sleepers > 300, "excess load was not parked: {last:?}");
        assert!(
            report.convergence_cycle.is_some(),
            "runnable never settled near capacity"
        );
        // Buffer accounting stayed balanced.
        assert_eq!(last.ever_slept - last.woken_and_left, last.sleepers);
    }

    #[test]
    fn uncontrolled_baseline_stays_overcommitted() {
        // `fixed` with no target parameter keeps the manual target (zero):
        // nothing parks, runnable stays at the population.
        let report = run(small("fixed", 1)).expect("valid spec");
        let last = report.trace.last().expect("trace recorded");
        assert_eq!(last.sleepers, 0);
        assert_eq!(last.runnable, 400);
        assert!(report.convergence_cycle.is_none());
    }

    #[test]
    fn load_control_beats_the_uncontrolled_baseline() {
        let controlled = run(small("paper", 2)).expect("valid spec");
        let baseline = run(small("fixed", 2)).expect("valid spec");
        assert!(
            controlled.completed > baseline.completed,
            "load control ({}) did not beat the baseline ({})",
            controlled.completed,
            baseline.completed
        );
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let a = run(small("paper", 7)).expect("valid spec");
        let b = run(small("paper", 7)).expect("valid spec");
        assert_eq!(a, b);
        assert_eq!(a.to_json(usize::MAX), b.to_json(usize::MAX));
        let c = run(small("paper", 8)).expect("valid spec");
        assert_ne!(a.to_json(usize::MAX), c.to_json(usize::MAX));
    }

    #[test]
    fn combining_discipline_batches_and_stays_deterministic() {
        let combining = |seed| {
            let mut config = small("paper", seed);
            config.discipline = WaiterDiscipline::Combining;
            run(config).expect("valid spec")
        };
        let report = combining(9);
        assert!(
            report.spec.contains("discipline=flat-combining"),
            "combining runs must be labelled: {}",
            report.spec
        );
        assert!(report.completed > 0, "no combined work completed");
        // Load control still parks the excess publishers: only still-queued
        // (withdrawable) requests are claimable, but with 400 workers on 4
        // contexts the queue never runs dry.
        assert!(
            report.trace.iter().any(|row| row.sleepers > 0),
            "no publisher was ever parked under combining"
        );
        assert_eq!(report, combining(9), "combining runs must be bit-identical");
        // The default-discipline label is unchanged (no suffix).
        let baseline = run(small("paper", 9)).expect("valid spec");
        assert!(!baseline.spec.contains("discipline="));
    }

    #[test]
    fn sharded_and_weighted_planes_run() {
        let mut config = small("hysteresis(alpha=0.4)", 3);
        config.shards = 4;
        config.splitter = "load-weighted".to_string();
        let report = run(config).expect("valid spec");
        assert!(report.spec.contains("load-weighted"));
        assert!(report.completed > 0);
    }

    #[test]
    fn open_loop_arrivals_ramp_the_population() {
        let mut config = small("paper", 4);
        config.workload.arrivals = Arrivals::Open {
            mean_interarrival: Duration::from_micros(100),
        };
        let report = run(config).expect("valid spec");
        let first = report.trace.first().expect("trace recorded");
        let last = report.trace.last().expect("trace recorded");
        assert!(first.runnable + first.sleepers < last.runnable + last.sleepers);
    }

    #[test]
    fn perturbation_changes_the_interleaving_not_the_determinism() {
        let mut config = small("paper", 5);
        config.perturb = Some(Perturb::light());
        let a = run(config.clone()).expect("valid spec");
        let b = run(config).expect("valid spec");
        assert_eq!(a.to_json(usize::MAX), b.to_json(usize::MAX));
    }

    #[test]
    fn park_waits_feed_the_histogram_columns() {
        let report = run(small("paper", 1)).expect("valid spec");
        assert!(report.wait_count > 0, "no park episode was recorded");
        assert!(report.wait_p50_ns <= report.wait_p99_ns);
        assert!(report.wait_p99_ns <= report.wait_max_ns.saturating_mul(2));
        let last = report.trace.last().expect("trace recorded");
        assert!(last.wait_max_ns > 0, "cumulative row columns never filled");
        // Rows are cumulative: quantiles never shrink along the trace.
        for pair in report.trace.windows(2) {
            assert!(pair[0].wait_max_ns <= pair[1].wait_max_ns);
        }
    }

    #[test]
    fn window_wake_order_runs_and_is_deterministic() {
        let windowed = |seed| {
            let mut config = small("paper", seed);
            config.wake_order = WakeOrder::Window;
            run(config).expect("valid spec")
        };
        let report = windowed(11);
        assert!(
            report.spec.contains("wake_order=window"),
            "window runs must be labelled: {}",
            report.spec
        );
        assert!(report.completed > 0);
        assert_eq!(report, windowed(11), "window runs must be bit-identical");
        // The default order keeps the spec string unchanged.
        let baseline = run(small("paper", 11)).expect("valid spec");
        assert!(!baseline.spec.contains("wake_order="));
    }

    #[test]
    fn phase_shift_swaps_the_workload() {
        let mut config = small("paper", 6);
        config.workload = WorkloadSpec::bump(Duration::from_millis(50));
        let report = run(config).expect("valid spec");
        assert!(report.completed > 0);
    }
}
