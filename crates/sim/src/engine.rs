//! The discrete-event scheduler/lock engine.
//!
//! See the crate-level documentation for the model.  The engine tracks a set
//! of threads multiplexed onto `N` hardware contexts by a round-robin
//! scheduler with a fixed time slice, and a set of locks whose contention
//! management policy determines what waiting threads do (spin, block, back
//! off, or participate in load control).

use crate::config::SimConfig;
use crate::metrics::{LockReport, MicroState, SimReport, ThreadReport, MICROSTATE_COUNT};
use crate::program::{Step, TransactionMix};
use crate::SimTime;
use lc_des::discipline::WaiterDiscipline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Identifies a simulated lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub usize);

/// Identifies a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// The contention-management policy of one simulated lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LockPolicy {
    /// FIFO spinning with strict handoff order (MCS/ticket behaviour): the
    /// oldest waiter gets the lock even if it has been preempted.
    SpinFifo,
    /// Time-published spinning (TP-MCS behaviour): the releaser skips waiters
    /// that are not currently on a CPU.
    SpinTimePublished,
    /// Every contended acquisition blocks; every release wakes one waiter
    /// (heavyweight mutex behaviour).
    Blocking,
    /// Spin for a budget, then block (Solaris adaptive mutex / futex).
    Adaptive {
        /// How long a waiter spins before blocking.
        spin_budget: SimTime,
    },
    /// Time-published spinning whose waiters participate in load control.
    LoadControlled,
    /// Load-triggered backoff (the authors' earlier scheme, §2.3): when the
    /// process is overloaded, spinning waiters sleep for an exponentially
    /// distributed time and cannot be woken early.
    LoadBackoff {
        /// Mean of the exponential sleep distribution.
        mean_sleep: SimTime,
    },
    /// Delegation (flat combining / CCSynch): waiters publish their critical
    /// sections and poll for completion while one combiner executes them.
    /// In the scheduler model this behaves like time-published spinning — the
    /// handoff (of the combiner role) favours waiters on a CPU — but the
    /// label keeps delegation runs distinguishable in reports.
    Combining,
}

impl LockPolicy {
    /// Plain preemption-resistant spinning (the paper's TP-MCS baseline).
    pub fn spin() -> Self {
        LockPolicy::SpinTimePublished
    }

    /// Strict FIFO spinning (plain MCS).
    pub fn spin_fifo() -> Self {
        LockPolicy::SpinFifo
    }

    /// Pure blocking.
    pub fn blocking() -> Self {
        LockPolicy::Blocking
    }

    /// Spin-then-block with the default 30 µs spin budget.
    pub fn adaptive() -> Self {
        LockPolicy::Adaptive {
            spin_budget: 30 * crate::MICROS,
        }
    }

    /// Load-controlled spinning (the paper's contribution).
    pub fn load_controlled() -> Self {
        LockPolicy::LoadControlled
    }

    /// Load-triggered backoff with a 10 ms mean sleep.
    pub fn load_backoff() -> Self {
        LockPolicy::LoadBackoff {
            mean_sleep: 10 * crate::MILLIS,
        }
    }

    /// Delegation-style combining (flat combining / CCSynch waiters).
    pub fn combining() -> Self {
        LockPolicy::Combining
    }

    /// The stable label of this policy, aligned with the lock-registry names
    /// in `lc-locks` where a real implementation exists.
    pub fn name(&self) -> &'static str {
        match self {
            LockPolicy::SpinFifo => "mcs",
            LockPolicy::SpinTimePublished => "tp-queue",
            LockPolicy::Blocking => "blocking",
            LockPolicy::Adaptive { .. } => "adaptive",
            LockPolicy::LoadControlled => "load-control",
            LockPolicy::LoadBackoff { .. } => "load-backoff",
            LockPolicy::Combining => "flat-combining",
        }
    }

    /// Constructs the policy labelled `name` with its default parameters, or
    /// `None` for an unknown label.
    ///
    /// The name→model alias table (every label produced by
    /// [`LockPolicy::name`] *plus* every lock name in
    /// `lc_locks::ALL_LOCK_NAMES`) now lives in
    /// [`lc_des::discipline::WaiterDiscipline`], the single source of truth
    /// shared with the discrete-event simulator; this shim only maps the
    /// discipline onto this crate's scheduler model.
    #[deprecated(
        since = "0.6.0",
        note = "resolve names through `lc_des::discipline::WaiterDiscipline::for_lock` and \
                convert with `LockPolicy::from`"
    )]
    pub fn from_name(name: &str) -> Option<Self> {
        WaiterDiscipline::for_lock(name).map(LockPolicy::from)
    }
}

impl From<WaiterDiscipline> for LockPolicy {
    /// The scheduler model implementing a waiter discipline, with this
    /// crate's default parameters for the parameterized models.
    fn from(discipline: WaiterDiscipline) -> Self {
        match discipline {
            WaiterDiscipline::FifoSpin => LockPolicy::spin_fifo(),
            WaiterDiscipline::UnorderedSpin => LockPolicy::spin(),
            WaiterDiscipline::Block => LockPolicy::blocking(),
            WaiterDiscipline::SpinThenBlock => LockPolicy::adaptive(),
            WaiterDiscipline::LoadControlledSpin => LockPolicy::load_controlled(),
            WaiterDiscipline::LoadBackoff => LockPolicy::load_backoff(),
            WaiterDiscipline::Combining => LockPolicy::combining(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    Running,
    Spinning,
    SpinPreempted,
    BlockedOnLock,
    ParkedLc,
    BackoffSleep,
    Io,
    Think,
}

#[derive(Debug)]
struct SimThread {
    group: usize,
    mix: Arc<TransactionMix>,
    state: TState,
    on_cpu: bool,
    tx_index: usize,
    step_index: usize,
    remaining_work: SimTime,
    holding: Option<LockId>,
    waiting_for: Option<LockId>,
    completed: u64,
    slice_end: SimTime,
    cpu_gen: u64,
    work_gen: u64,
    wait_gen: u64,
    spin_started: SimTime,
    pending_overhead: SimTime,
    micro: [u64; MICROSTATE_COUNT],
    micro_since: SimTime,
    micro_kind: MicroState,
}

#[derive(Debug)]
struct SimLock {
    policy: LockPolicy,
    holder: Option<usize>,
    reserved_for: Option<usize>,
    waiters: VecDeque<usize>,
    stats: LockReport,
}

#[derive(Debug)]
struct Group {
    capacity: usize,
    update_interval: SimTime,
    sleep_timeout: SimTime,
    manual_targets: Vec<(SimTime, usize)>,
    load_control_enabled: bool,
    target: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    StepDone { t: usize, generation: u64 },
    SliceExpire { t: usize, generation: u64 },
    WaitTimer { t: usize, generation: u64 },
    ControllerTick { group: usize },
    ManualTarget { group: usize, target: usize },
    Sample,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    threads: Vec<SimThread>,
    locks: Vec<SimLock>,
    groups: Vec<Group>,
    run_queue: VecDeque<usize>,
    busy_cpus: usize,
    context_switches: u64,
    preempted_holders: u64,
    lc_parks: u64,
    lc_wakes: u64,
    load_timeline: Vec<(SimTime, usize)>,
    parked_timeline: Vec<(SimTime, usize)>,
    finished: bool,
}

impl Simulation {
    /// Creates an empty simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let seed = config.seed;
        let group0 = Group {
            capacity: config.load_control.capacity,
            update_interval: config.load_control.update_interval,
            sleep_timeout: config.load_control.sleep_timeout,
            manual_targets: config.load_control.manual_targets.clone(),
            load_control_enabled: true,
            target: 0,
        };
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            threads: Vec::new(),
            locks: Vec::new(),
            groups: vec![group0],
            run_queue: VecDeque::new(),
            busy_cpus: 0,
            context_switches: 0,
            preempted_holders: 0,
            lc_parks: 0,
            lc_wakes: 0,
            load_timeline: Vec::new(),
            parked_timeline: Vec::new(),
            finished: false,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Adds a lock with the given policy and returns its id.
    pub fn add_lock(&mut self, policy: LockPolicy) -> LockId {
        self.locks.push(SimLock {
            policy,
            holder: None,
            reserved_for: None,
            waiters: VecDeque::new(),
            stats: LockReport::default(),
        });
        LockId(self.locks.len() - 1)
    }

    /// Configures an additional process group (group 0 always exists).
    ///
    /// `load_control_enabled = false` models a process that does not use the
    /// mechanism (the "other" process of Figure 12).
    pub fn configure_group(&mut self, group: usize, capacity: usize, load_control_enabled: bool) {
        while self.groups.len() <= group {
            self.groups.push(Group {
                capacity: self.config.load_control.capacity,
                update_interval: self.config.load_control.update_interval,
                sleep_timeout: self.config.load_control.sleep_timeout,
                manual_targets: Vec::new(),
                load_control_enabled: true,
                target: 0,
            });
        }
        let g = &mut self.groups[group];
        g.capacity = capacity;
        g.load_control_enabled = load_control_enabled;
    }

    /// Spawns one thread running `mix` in group 0.
    pub fn spawn(&mut self, mix: &TransactionMix) -> ThreadId {
        self.spawn_in_group(mix, 0)
    }

    /// Spawns `n` threads running `mix` in group 0.
    pub fn spawn_n(&mut self, n: usize, mix: &TransactionMix) -> Vec<ThreadId> {
        (0..n).map(|_| self.spawn(mix)).collect()
    }

    /// Spawns one thread running `mix` in the given process group.
    pub fn spawn_in_group(&mut self, mix: &TransactionMix, group: usize) -> ThreadId {
        if group >= self.groups.len() {
            self.configure_group(group, self.config.load_control.capacity, true);
        }
        let id = self.threads.len();
        self.threads.push(SimThread {
            group,
            mix: Arc::new(mix.clone()),
            state: TState::Ready,
            on_cpu: false,
            tx_index: 0,
            step_index: 0,
            remaining_work: 0,
            holding: None,
            waiting_for: None,
            completed: 0,
            slice_end: 0,
            cpu_gen: 0,
            work_gen: 0,
            wait_gen: 0,
            spin_started: 0,
            pending_overhead: 0,
            micro: [0; MICROSTATE_COUNT],
            micro_since: 0,
            micro_kind: MicroState::RunQueue,
        });
        self.run_queue.push_back(id);
        ThreadId(id)
    }

    // ---- event plumbing ----------------------------------------------------

    fn push_event(&mut self, at: SimTime, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            at,
            seq: self.seq,
            kind,
        }));
    }

    // ---- microstate accounting ---------------------------------------------

    fn close_accrual(&mut self, t: usize) {
        let now = self.now;
        let th = &mut self.threads[t];
        let elapsed = now.saturating_sub(th.micro_since);
        th.micro[th.micro_kind as usize] += elapsed;
        th.micro_since = now;
    }

    fn set_micro(&mut self, t: usize, kind: MicroState) {
        self.close_accrual(t);
        self.threads[t].micro_kind = kind;
    }

    /// Classification of a spinning thread's CPU time right now: contention if
    /// whoever is responsible for the lock is on a CPU, priority inversion
    /// otherwise.
    fn spin_kind(&self, lock: LockId) -> MicroState {
        let l = &self.locks[lock.0];
        let responsible = l.holder.or(l.reserved_for);
        match responsible {
            Some(r) if self.threads[r].on_cpu => MicroState::SpinContention,
            Some(_) => MicroState::SpinPreempted,
            None => MicroState::SpinContention,
        }
    }

    /// Re-close the accrual interval of every on-CPU spinner of `lock` so the
    /// contention/priority-inversion split reflects the holder's status up to
    /// now (called just before the holder's on-CPU status changes).
    fn reclassify_spinners(&mut self, lock: LockId) {
        let waiters: Vec<usize> = self.locks[lock.0]
            .waiters
            .iter()
            .copied()
            .filter(|&w| self.threads[w].state == TState::Spinning)
            .collect();
        let kind = self.spin_kind(lock);
        for w in waiters {
            self.set_micro(w, kind);
        }
    }

    // ---- scheduler ---------------------------------------------------------

    fn enqueue_ready(&mut self, t: usize) {
        self.run_queue.push_back(t);
        if self.busy_cpus >= self.config.contexts {
            // Wakeup preemption: a time-share scheduler boosts the priority of
            // a thread that just finished sleeping (I/O completion, think-time
            // expiry, park wake-up), so it preempts a running thread instead
            // of waiting out a whole quantum.  This is the mechanism by which
            // load spikes preempt lock holders (paper §2.4).
            self.preempt_for_wakeup();
        }
        self.dispatch_if_possible();
    }

    /// Preempts one arbitrarily chosen on-CPU thread to make room for a
    /// freshly woken one.
    fn preempt_for_wakeup(&mut self) {
        use rand::Rng;
        let candidates: Vec<usize> = (0..self.threads.len())
            .filter(|&i| {
                self.threads[i].on_cpu
                    && matches!(self.threads[i].state, TState::Running | TState::Spinning)
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let victim = candidates[self.rng.random_range(0..candidates.len())];
        if self.threads[victim].holding.is_some() {
            self.preempted_holders += 1;
        }
        match self.threads[victim].state {
            TState::Running => {
                let done = self.now.saturating_sub(self.threads[victim].spin_started);
                let th = &mut self.threads[victim];
                th.remaining_work = th.remaining_work.saturating_sub(done);
                self.vacate_cpu(victim);
                self.set_micro(victim, MicroState::RunQueue);
                self.threads[victim].state = TState::Ready;
            }
            TState::Spinning => {
                self.vacate_cpu(victim);
                self.set_micro(victim, MicroState::RunQueue);
                self.threads[victim].state = TState::SpinPreempted;
            }
            _ => return,
        }
        self.run_queue.push_back(victim);
    }

    fn dispatch_if_possible(&mut self) {
        while self.busy_cpus < self.config.contexts {
            let Some(t) = self.run_queue.pop_front() else {
                break;
            };
            // The queue may contain stale entries for threads whose state was
            // changed by a racing wake-up/park/preemption in the same event
            // cascade; only genuinely runnable, off-CPU threads are dispatched.
            if self.threads[t].on_cpu
                || !matches!(self.threads[t].state, TState::Ready | TState::SpinPreempted)
            {
                continue;
            }
            self.dispatch(t);
        }
    }

    fn dispatch(&mut self, t: usize) {
        let switch = self.config.context_switch;
        self.context_switches += 1;
        self.busy_cpus += 1;
        self.set_micro(t, MicroState::Switch);
        if let Some(lock) = self.threads[t].holding {
            // Close the spinners' priority-inversion interval before the
            // holder's on-CPU status changes.
            self.reclassify_spinners(lock);
        }
        {
            let th = &mut self.threads[t];
            th.on_cpu = true;
            th.cpu_gen += 1;
            th.slice_end = self.now + switch + self.config.time_slice;
        }
        if let Some(lock) = self.threads[t].holding {
            // A preempted lock holder is back: spinners now accrue plain
            // contention again.
            self.reclassify_spinners(lock);
        }
        let generation = self.threads[t].cpu_gen;
        self.push_event(
            self.threads[t].slice_end,
            EvKind::SliceExpire { t, generation },
        );
        // The thread resumes what it was doing after the switch cost.
        let resume_at = self.now + switch;
        let th = &self.threads[t];
        match th.state {
            TState::Ready => {
                self.begin_cpu_burst(t, resume_at);
            }
            TState::SpinPreempted => {
                self.resume_waiting(t, resume_at);
            }
            other => unreachable!("dispatched a thread in state {other:?}"),
        }
    }

    /// Takes the thread off its CPU (without putting it anywhere); the caller
    /// decides its next state.  Frees the context for the next ready thread.
    fn vacate_cpu(&mut self, t: usize) {
        debug_assert!(self.threads[t].on_cpu);
        if let Some(lock) = self.threads[t].holding {
            // Close the spinners' contention interval while the holder is
            // still counted as on-CPU...
            self.reclassify_spinners(lock);
        }
        {
            let th = &mut self.threads[t];
            th.on_cpu = false;
            th.cpu_gen += 1;
            th.work_gen += 1;
        }
        self.busy_cpus -= 1;
        if let Some(lock) = self.threads[t].holding {
            // ...and reclassify the upcoming interval as priority inversion.
            self.reclassify_spinners(lock);
        }
    }

    /// Starts (or resumes) on-CPU execution of the current step at `start`.
    fn begin_cpu_burst(&mut self, t: usize, start: SimTime) {
        // Charge any pending overhead (e.g. wake-up syscalls) as extra work.
        let overhead = std::mem::take(&mut self.threads[t].pending_overhead);
        if self.threads[t].remaining_work == 0 && overhead == 0 {
            self.start_next_step(t, start);
            return;
        }
        let th = &mut self.threads[t];
        th.state = TState::Running;
        th.remaining_work += overhead;
        th.work_gen += 1;
        let generation = th.work_gen;
        let done_at = start + th.remaining_work;
        let kind = MicroState::Work;
        self.set_micro(t, kind);
        // Record when this burst started so a preemption can compute progress.
        self.threads[t].spin_started = start;
        self.push_event(done_at, EvKind::StepDone { t, generation });
    }

    /// Advances the thread's program to its next step, starting at `start`.
    fn start_next_step(&mut self, t: usize, start: SimTime) {
        // Guard against pathological zero-length programs.
        let mut zero_progress_steps = 0;
        loop {
            let (step, tx_len) = {
                let th = &self.threads[t];
                let tx = &th.mix.transactions[th.tx_index];
                (tx.steps.get(th.step_index).copied(), tx.steps.len())
            };
            match step {
                None => {
                    // Transaction complete.
                    let next_tx = {
                        let th = &mut self.threads[t];
                        th.completed += 1;
                        th.step_index = 0;
                        th.mix.draw(&mut self.rng)
                    };
                    self.threads[t].tx_index = next_tx;
                    zero_progress_steps += 1;
                    if tx_len == 0 && zero_progress_steps > 4 {
                        // An empty transaction: model it as a 1 µs no-op so the
                        // simulation always makes forward progress.
                        self.threads[t].remaining_work = crate::MICROS;
                        self.begin_cpu_burst(t, start);
                        return;
                    }
                    continue;
                }
                Some(Step::Compute { ns }) => {
                    let d = ns.sample(&mut self.rng).max(1);
                    let th = &mut self.threads[t];
                    th.step_index += 1;
                    th.remaining_work = d;
                    self.begin_cpu_burst(t, start);
                    return;
                }
                Some(Step::Critical { lock, hold }) => {
                    let d = hold.sample(&mut self.rng).max(1);
                    self.threads[t].step_index += 1;
                    self.attempt_acquire(t, lock, d, start);
                    return;
                }
                Some(Step::Io { ns }) => {
                    let d = ns.sample(&mut self.rng).max(1);
                    self.threads[t].step_index += 1;
                    self.go_off_cpu_waiting(t, TState::Io, MicroState::Io, start + d);
                    return;
                }
                Some(Step::Think { ns }) => {
                    let d = ns.sample(&mut self.rng).max(1);
                    // Think-time wakeups are quantized to the scheduler tick
                    // (paper §6.1.1).
                    let raw = start + d;
                    let tick = self.config.time_slice;
                    let wake = raw.div_ceil(tick) * tick;
                    self.threads[t].step_index += 1;
                    self.go_off_cpu_waiting(t, TState::Think, MicroState::Think, wake);
                    return;
                }
            }
        }
    }

    /// Moves an on-CPU thread off CPU into a timed wait (I/O, think, block,
    /// park, backoff) and schedules its wake-up if `wake_at > 0`.
    fn go_off_cpu_waiting(&mut self, t: usize, state: TState, micro: MicroState, wake_at: SimTime) {
        self.vacate_cpu(t);
        self.set_micro(t, micro);
        let th = &mut self.threads[t];
        th.state = state;
        th.wait_gen += 1;
        let generation = th.wait_gen;
        if wake_at > 0 {
            self.push_event(wake_at.max(self.now), EvKind::WaitTimer { t, generation });
        }
        self.dispatch_if_possible();
    }

    // ---- locks --------------------------------------------------------------

    fn attempt_acquire(&mut self, t: usize, lock: LockId, hold: SimTime, start: SimTime) {
        let free_for_us = {
            let l = &self.locks[lock.0];
            l.holder.is_none() && l.reserved_for.is_none_or(|r| r == t)
        };
        if free_for_us {
            let was_waiting = {
                let l = &mut self.locks[lock.0];
                l.holder = Some(t);
                l.reserved_for = None;
                l.stats.acquisitions += 1;
                let pos = l.waiters.iter().position(|&w| w == t);
                if let Some(p) = pos {
                    l.waiters.remove(p);
                    l.stats.contended += 1;
                    true
                } else {
                    false
                }
            };
            let handoff = if was_waiting {
                self.config.spin_handoff
            } else {
                0
            };
            let th = &mut self.threads[t];
            th.holding = Some(lock);
            th.waiting_for = None;
            th.remaining_work = hold + handoff;
            self.begin_cpu_burst(t, start);
            return;
        }

        // Contended: join the waiters and behave per the lock's policy.
        {
            let l = &mut self.locks[lock.0];
            if !l.waiters.contains(&t) {
                l.waiters.push_back(t);
            }
        }
        {
            let th = &mut self.threads[t];
            th.waiting_for = Some(lock);
            // Remember the critical-section length we will execute once we
            // finally acquire the lock.
            th.remaining_work = hold;
        }
        self.enter_wait(t, lock, start);
    }

    /// Puts a thread (currently on CPU) into the waiting behaviour dictated by
    /// the lock's policy.
    fn enter_wait(&mut self, t: usize, lock: LockId, start: SimTime) {
        let policy = self.locks[lock.0].policy;
        match policy {
            LockPolicy::SpinFifo | LockPolicy::SpinTimePublished | LockPolicy::Combining => {
                self.start_spinning(t, lock, start);
            }
            LockPolicy::LoadControlled => {
                // Fast path of the paper's client algorithm: if the controller
                // currently wants more sleepers, go to sleep instead of
                // spinning at all.
                if self.lc_wants_sleeper(self.threads[t].group) {
                    self.park_by_lc(t);
                } else {
                    self.start_spinning(t, lock, start);
                }
            }
            LockPolicy::LoadBackoff { mean_sleep } => {
                let group = self.threads[t].group;
                if self.groups[group].target > 0 {
                    self.backoff_sleep(t, mean_sleep);
                } else {
                    self.start_spinning(t, lock, start);
                }
            }
            LockPolicy::Blocking => {
                self.block_on_lock(t);
            }
            LockPolicy::Adaptive { spin_budget } => {
                self.start_spinning(t, lock, start);
                let th = &mut self.threads[t];
                th.wait_gen += 1;
                let generation = th.wait_gen;
                self.push_event(start + spin_budget, EvKind::WaitTimer { t, generation });
            }
        }
    }

    fn start_spinning(&mut self, t: usize, lock: LockId, start: SimTime) {
        let kind = self.spin_kind(lock);
        self.set_micro(t, kind);
        let th = &mut self.threads[t];
        th.state = TState::Spinning;
        th.spin_started = start;
    }

    fn block_on_lock(&mut self, t: usize) {
        // Blocking costs a context switch on the way out.
        self.go_off_cpu_waiting(t, TState::BlockedOnLock, MicroState::Blocked, 0);
    }

    fn backoff_sleep(&mut self, t: usize, mean_sleep: SimTime) {
        let d = crate::program::Dist::Exponential(mean_sleep)
            .sample(&mut self.rng)
            .max(1);
        self.go_off_cpu_waiting(t, TState::BackoffSleep, MicroState::Parked, self.now + d);
    }

    fn lc_wants_sleeper(&self, group: usize) -> bool {
        let g = &self.groups[group];
        if !g.load_control_enabled || g.target == 0 {
            return false;
        }
        let parked = self.count_parked(group);
        parked < g.target
    }

    fn count_parked(&self, group: usize) -> usize {
        self.threads
            .iter()
            .filter(|th| th.group == group && th.state == TState::ParkedLc)
            .count()
    }

    fn count_runnable(&self, group: usize) -> usize {
        self.threads
            .iter()
            .filter(|th| {
                th.group == group
                    && matches!(
                        th.state,
                        TState::Running | TState::Spinning | TState::Ready | TState::SpinPreempted
                    )
            })
            .count()
    }

    fn park_by_lc(&mut self, t: usize) {
        self.lc_parks += 1;
        let timeout = self.groups[self.threads[t].group].sleep_timeout;
        if self.threads[t].on_cpu {
            self.go_off_cpu_waiting(t, TState::ParkedLc, MicroState::Parked, self.now + timeout);
        } else {
            // Parked from the run queue (was preempted while spinning).
            if let Some(pos) = self.run_queue.iter().position(|&x| x == t) {
                self.run_queue.remove(pos);
            }
            self.set_micro(t, MicroState::Parked);
            let th = &mut self.threads[t];
            th.state = TState::ParkedLc;
            th.wait_gen += 1;
            let generation = th.wait_gen;
            self.push_event(self.now + timeout, EvKind::WaitTimer { t, generation });
        }
    }

    /// Resumes a thread that is back on CPU and still wants a lock.
    fn resume_waiting(&mut self, t: usize, start: SimTime) {
        let Some(lock) = self.threads[t].waiting_for else {
            // It was not actually waiting (e.g. raced with a wake); continue.
            self.begin_cpu_burst(t, start);
            return;
        };
        let hold = self.threads[t].remaining_work;
        // Re-attempt the acquisition: if the lock is free or reserved for us,
        // take it; otherwise fall back to the policy's waiting behaviour.
        let l = &self.locks[lock.0];
        let can_take = l.holder.is_none() && l.reserved_for.is_none_or(|r| r == t);
        if can_take {
            // Remove ourselves from the waiters before re-acquiring.
            self.attempt_acquire(t, lock, hold, start);
        } else {
            self.enter_wait(t, lock, start);
        }
    }

    fn release_lock(&mut self, t: usize, lock: LockId) {
        self.reclassify_spinners(lock);
        {
            let l = &mut self.locks[lock.0];
            debug_assert_eq!(l.holder, Some(t));
            l.holder = None;
        }
        self.threads[t].holding = None;
        let policy = self.locks[lock.0].policy;
        match policy {
            LockPolicy::SpinFifo => {
                // Strict FIFO: the oldest waiter is next no matter what.
                if let Some(&w) = self.locks[lock.0].waiters.front() {
                    self.locks[lock.0].reserved_for = Some(w);
                    if self.threads[w].on_cpu && self.threads[w].state == TState::Spinning {
                        self.grant_to_spinner(w, lock);
                    }
                    // Otherwise: convoy — the lock waits for `w` to be
                    // scheduled again.
                }
            }
            LockPolicy::SpinTimePublished
            | LockPolicy::LoadControlled
            | LockPolicy::LoadBackoff { .. }
            | LockPolicy::Combining => {
                // Skip waiters that are not on CPU.
                let candidate = {
                    let l = &self.locks[lock.0];
                    let mut skipped = 0u64;
                    let mut chosen = None;
                    for &w in &l.waiters {
                        if self.threads[w].on_cpu && self.threads[w].state == TState::Spinning {
                            chosen = Some(w);
                            break;
                        }
                        skipped += 1;
                    }
                    (chosen, skipped)
                };
                if let (Some(w), skipped) = candidate {
                    self.locks[lock.0].stats.skipped_waiters += skipped;
                    self.locks[lock.0].reserved_for = Some(w);
                    self.grant_to_spinner(w, lock);
                }
                // No running waiter: the lock stays free; off-CPU waiters
                // retry when they are scheduled again.
            }
            LockPolicy::Blocking => {
                if let Some(&w) = self.locks[lock.0].waiters.front() {
                    self.locks[lock.0].reserved_for = Some(w);
                    self.locks[lock.0].stats.blocking_handoffs += 1;
                    // The releaser pays for the wake-up syscall.
                    self.threads[t].pending_overhead += self.config.wake_syscall;
                    self.wake_blocked(w);
                }
            }
            LockPolicy::Adaptive { .. } => {
                let spinner = {
                    let l = &self.locks[lock.0];
                    l.waiters.iter().copied().find(|&w| {
                        self.threads[w].on_cpu && self.threads[w].state == TState::Spinning
                    })
                };
                if let Some(w) = spinner {
                    self.locks[lock.0].reserved_for = Some(w);
                    self.grant_to_spinner(w, lock);
                } else {
                    let blocked = {
                        let l = &self.locks[lock.0];
                        l.waiters
                            .iter()
                            .copied()
                            .find(|&w| self.threads[w].state == TState::BlockedOnLock)
                    };
                    if let Some(w) = blocked {
                        self.locks[lock.0].reserved_for = Some(w);
                        self.locks[lock.0].stats.blocking_handoffs += 1;
                        self.threads[t].pending_overhead += self.config.wake_syscall;
                        self.wake_blocked(w);
                    }
                }
            }
        }
    }

    /// Hands the lock to a waiter that is currently spinning on a CPU.
    fn grant_to_spinner(&mut self, w: usize, lock: LockId) {
        debug_assert_eq!(self.threads[w].state, TState::Spinning);
        let hold = self.threads[w].remaining_work;
        self.attempt_acquire(w, lock, hold, self.now);
    }

    /// Wakes a thread blocked inside a blocking/adaptive lock.
    fn wake_blocked(&mut self, w: usize) {
        debug_assert_eq!(self.threads[w].state, TState::BlockedOnLock);
        self.set_micro(w, MicroState::RunQueue);
        let th = &mut self.threads[w];
        th.state = TState::SpinPreempted; // "wants its lock, waiting for CPU"
        th.wait_gen += 1;
        self.enqueue_ready(w);
    }

    // ---- load control -------------------------------------------------------

    fn controller_adjust(&mut self, group: usize, target: usize) {
        self.groups[group].target = target;
        let parked = self.count_parked(group);
        if parked > target {
            // Wake the excess immediately (this is the two-sided control that
            // load-triggered backoff lacks).
            let mut to_wake = parked - target;
            let ids: Vec<usize> = (0..self.threads.len())
                .filter(|&i| {
                    self.threads[i].group == group && self.threads[i].state == TState::ParkedLc
                })
                .collect();
            for t in ids {
                if to_wake == 0 {
                    break;
                }
                self.lc_wakes += 1;
                self.wake_parked(t);
                to_wake -= 1;
            }
        } else if parked < target {
            let mut needed = target - parked;
            // Park currently spinning threads that wait on load-controlled
            // locks (they cannot make progress anyway).
            let ids: Vec<usize> = (0..self.threads.len())
                .filter(|&i| {
                    let th = &self.threads[i];
                    th.group == group
                        && matches!(th.state, TState::Spinning | TState::SpinPreempted)
                        && th
                            .waiting_for
                            .map(|l| matches!(self.locks[l.0].policy, LockPolicy::LoadControlled))
                            .unwrap_or(false)
                })
                .collect();
            for t in ids {
                if needed == 0 {
                    break;
                }
                self.park_by_lc(t);
                needed -= 1;
            }
        }
    }

    fn wake_parked(&mut self, t: usize) {
        debug_assert_eq!(self.threads[t].state, TState::ParkedLc);
        self.set_micro(t, MicroState::RunQueue);
        let th = &mut self.threads[t];
        th.state = TState::SpinPreempted;
        th.wait_gen += 1;
        self.enqueue_ready(t);
    }

    // ---- event handlers ------------------------------------------------------

    fn on_step_done(&mut self, t: usize, generation: u64) {
        if self.threads[t].work_gen != generation || !self.threads[t].on_cpu {
            return;
        }
        self.threads[t].remaining_work = 0;
        if let Some(lock) = self.threads[t].holding {
            self.release_lock(t, lock);
        }
        self.start_next_step(t, self.now);
    }

    fn on_slice_expire(&mut self, t: usize, generation: u64) {
        if self.threads[t].cpu_gen != generation || !self.threads[t].on_cpu {
            return;
        }
        if self.run_queue.is_empty() {
            // Nobody is waiting for a CPU: renew the slice in place.
            let th = &mut self.threads[t];
            th.cpu_gen += 1;
            th.slice_end = self.now + self.config.time_slice;
            let generation = th.cpu_gen;
            let at = th.slice_end;
            self.push_event(at, EvKind::SliceExpire { t, generation });
            return;
        }
        // Preempt.
        if self.threads[t].holding.is_some() {
            self.preempted_holders += 1;
        }
        match self.threads[t].state {
            TState::Running => {
                // Account for the work already done in this burst.
                let done = self.now.saturating_sub(self.threads[t].spin_started);
                let th = &mut self.threads[t];
                th.remaining_work = th.remaining_work.saturating_sub(done);
                // Track the partial burst so the next dispatch resumes it.
                self.vacate_cpu(t);
                self.set_micro(t, MicroState::RunQueue);
                self.threads[t].state = TState::Ready;
            }
            TState::Spinning => {
                self.vacate_cpu(t);
                self.set_micro(t, MicroState::RunQueue);
                self.threads[t].state = TState::SpinPreempted;
            }
            other => unreachable!("slice expired in state {other:?}"),
        }
        self.run_queue.push_back(t);
        self.dispatch_if_possible();
    }

    fn on_wait_timer(&mut self, t: usize, generation: u64) {
        if self.threads[t].wait_gen != generation {
            return;
        }
        match self.threads[t].state {
            TState::Io | TState::Think => {
                self.set_micro(t, MicroState::RunQueue);
                let th = &mut self.threads[t];
                th.state = TState::Ready;
                th.wait_gen += 1;
                self.enqueue_ready(t);
            }
            TState::ParkedLc | TState::BackoffSleep => {
                self.set_micro(t, MicroState::RunQueue);
                let th = &mut self.threads[t];
                th.state = TState::SpinPreempted;
                th.wait_gen += 1;
                self.enqueue_ready(t);
            }
            TState::Spinning => {
                // Adaptive lock: the spin budget expired while still waiting.
                let lock = self.threads[t].waiting_for;
                if let Some(l) = lock {
                    if matches!(self.locks[l.0].policy, LockPolicy::Adaptive { .. }) {
                        self.block_on_lock(t);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_controller_tick(&mut self, group: usize) {
        let g = &self.groups[group];
        if g.load_control_enabled && g.manual_targets.is_empty() {
            let runnable = self.count_runnable(group);
            let capacity = self.groups[group].capacity;
            let target = runnable.saturating_sub(capacity);
            self.controller_adjust(group, target);
        }
        let interval = self.groups[group].update_interval;
        if self.now + interval <= self.config.duration {
            self.push_event(self.now + interval, EvKind::ControllerTick { group });
        }
    }

    fn on_sample(&mut self) {
        let runnable = self.count_runnable(0);
        let parked = self.count_parked(0);
        self.load_timeline.push((self.now, runnable));
        self.parked_timeline.push((self.now, parked));
        let next = self.now + self.config.sample_interval;
        if next <= self.config.duration {
            self.push_event(next, EvKind::Sample);
        }
    }

    // ---- main loop ----------------------------------------------------------

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if called twice on the same simulation or if no threads were
    /// spawned.
    pub fn run(&mut self) -> SimReport {
        assert!(!self.finished, "Simulation::run may only be called once");
        assert!(!self.threads.is_empty(), "no threads were spawned");
        self.finished = true;

        // Prime the machine: dispatch as many threads as there are contexts.
        self.dispatch_if_possible();
        // Controller ticks, manual target schedule, load sampling.
        for g in 0..self.groups.len() {
            let interval = self.groups[g].update_interval;
            self.push_event(interval, EvKind::ControllerTick { group: g });
            let manual = self.groups[g].manual_targets.clone();
            for (at, target) in manual {
                self.push_event(at, EvKind::ManualTarget { group: g, target });
            }
        }
        self.push_event(self.config.sample_interval, EvKind::Sample);

        while let Some(Reverse(ev)) = self.events.pop() {
            if ev.at > self.config.duration {
                break;
            }
            self.now = ev.at;
            match ev.kind {
                EvKind::StepDone { t, generation } => self.on_step_done(t, generation),
                EvKind::SliceExpire { t, generation } => self.on_slice_expire(t, generation),
                EvKind::WaitTimer { t, generation } => self.on_wait_timer(t, generation),
                EvKind::ControllerTick { group } => self.on_controller_tick(group),
                EvKind::ManualTarget { group, target } => self.controller_adjust(group, target),
                EvKind::Sample => self.on_sample(),
            }
        }
        self.now = self.config.duration;
        for t in 0..self.threads.len() {
            self.close_accrual(t);
        }
        self.build_report()
    }

    fn build_report(&self) -> SimReport {
        let mut per_thread = Vec::with_capacity(self.threads.len());
        let mut micro_total = [0u64; MICROSTATE_COUNT];
        let mut tx_by_group = vec![0u64; self.groups.len()];
        let mut total_tx = 0u64;
        for (i, th) in self.threads.iter().enumerate() {
            for (j, v) in th.micro.iter().enumerate() {
                micro_total[j] += v;
            }
            total_tx += th.completed;
            tx_by_group[th.group] += th.completed;
            per_thread.push(ThreadReport {
                thread: i,
                group: th.group,
                transactions: th.completed,
                micro_ns: th.micro,
            });
        }
        SimReport {
            duration_ns: self.config.duration,
            contexts: self.config.contexts,
            threads: self.threads.len(),
            transactions: total_tx,
            transactions_by_group: tx_by_group,
            context_switches: self.context_switches,
            preempted_holders: self.preempted_holders,
            lc_parks: self.lc_parks,
            lc_wakes: self.lc_wakes,
            micro_ns: micro_total,
            per_thread,
            per_lock: self.locks.iter().map(|l| l.stats).collect(),
            load_timeline: self.load_timeline.clone(),
            parked_timeline: self.parked_timeline.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Dist, Step, TransactionMix, TransactionSpec};
    use crate::{MICROS, MILLIS};

    fn compute_only_mix(ns: u64) -> TransactionMix {
        TransactionMix::single(TransactionSpec::new(
            "compute",
            vec![Step::Compute {
                ns: Dist::Const(ns),
            }],
        ))
    }

    fn lock_mix(lock: LockId, hold: u64, delay: u64) -> TransactionMix {
        TransactionMix::single(TransactionSpec::new(
            "locked",
            vec![
                Step::Critical {
                    lock,
                    hold: Dist::Const(hold),
                },
                Step::Compute {
                    ns: Dist::Const(delay),
                },
            ],
        ))
    }

    #[test]
    fn single_thread_compute_throughput_is_deterministic() {
        let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(10));
        sim.spawn(&compute_only_mix(10 * MICROS));
        let report = sim.run();
        // 10 ms / 10 µs = ~1000 transactions (minus the initial dispatch cost).
        assert!(
            report.transactions >= 950 && report.transactions <= 1_000,
            "got {}",
            report.transactions
        );
        assert_eq!(report.threads, 1);
        assert!(report.micro_ns[MicroState::Work as usize] > 9 * MILLIS);
    }

    #[test]
    #[allow(deprecated)]
    fn policy_names_round_trip_through_from_name() {
        let policies = [
            LockPolicy::spin_fifo(),
            LockPolicy::spin(),
            LockPolicy::blocking(),
            LockPolicy::adaptive(),
            LockPolicy::load_controlled(),
            LockPolicy::load_backoff(),
            LockPolicy::combining(),
        ];
        for policy in policies {
            let rebuilt = LockPolicy::from_name(policy.name())
                .unwrap_or_else(|| panic!("{} must be constructible by name", policy.name()));
            assert_eq!(rebuilt, policy);
        }
        // The real ticket lock maps onto the simulator's FIFO-spin model.
        assert_eq!(
            LockPolicy::from_name("ticket"),
            Some(LockPolicy::spin_fifo())
        );
        assert_eq!(LockPolicy::from_name("no-such-policy"), None);
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let run = |seed| {
            let mut sim = Simulation::new(SimConfig::new(8).with_duration_ms(20).with_seed(seed));
            let lock = sim.add_lock(LockPolicy::spin());
            sim.spawn_n(12, &lock_mix(lock, 2 * MICROS, 20 * MICROS));
            sim.run().transactions
        };
        assert_eq!(run(7), run(7));
        // Different seed gives a (very likely) different interleaving, but the
        // run must still complete.
        let _ = run(8);
    }

    #[test]
    fn underloaded_machine_scales_with_threads() {
        let throughput = |threads: usize| {
            let mut sim = Simulation::new(SimConfig::new(16).with_duration_ms(20));
            sim.spawn_n(threads, &compute_only_mix(10 * MICROS));
            sim.run().throughput_tps()
        };
        let one = throughput(1);
        let eight = throughput(8);
        assert!(eight > one * 6.0, "1 thread: {one}, 8 threads: {eight}");
    }

    #[test]
    fn oversubscription_causes_preemption_and_queueing() {
        let mut sim = Simulation::new(SimConfig::new(2).with_duration_ms(100));
        sim.spawn_n(6, &compute_only_mix(30 * MILLIS));
        let report = sim.run();
        assert!(
            report.context_switches > 4,
            "switches: {}",
            report.context_switches
        );
        assert!(report.micro_ns[MicroState::RunQueue as usize] > 0);
    }

    #[test]
    fn contended_spin_lock_serializes_critical_sections() {
        let mut sim = Simulation::new(SimConfig::new(8).with_duration_ms(50));
        let lock = sim.add_lock(LockPolicy::spin());
        sim.spawn_n(8, &lock_mix(lock, 10 * MICROS, 1));
        let report = sim.run();
        // The lock is the bottleneck: at ~10 µs per critical section the
        // maximum is ~5000 in 50 ms; allow scheduling slack.
        assert!(report.transactions <= 5_100, "tx = {}", report.transactions);
        assert!(report.transactions >= 3_000, "tx = {}", report.transactions);
        assert!(report.per_lock[0].contended > 0);
        assert!(report.micro_ns[MicroState::SpinContention as usize] > 0);
    }

    #[test]
    fn preempted_holders_cause_priority_inversion_for_fifo_spin() {
        // 4 contexts, 12 threads with long critical sections: holders are
        // regularly caught by slice expirations and FIFO spinning convoys
        // behind them.
        let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(300));
        let lock = sim.add_lock(LockPolicy::spin_fifo());
        sim.spawn_n(12, &lock_mix(lock, 2 * MILLIS, MILLIS));
        let report = sim.run();
        assert!(report.preempted_holders > 0);
        assert!(report.micro_ns[MicroState::SpinPreempted as usize] > 0);
    }

    #[test]
    fn blocking_lock_counts_blocking_handoffs_and_switches() {
        let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(50));
        let lock = sim.add_lock(LockPolicy::blocking());
        sim.spawn_n(8, &lock_mix(lock, 5 * MICROS, 5 * MICROS));
        let report = sim.run();
        assert!(report.per_lock[0].blocking_handoffs > 0);
        assert!(report.micro_ns[MicroState::Blocked as usize] > 0);
        assert!(report.context_switches > 100);
    }

    #[test]
    fn load_control_parks_threads_under_overload() {
        let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(200).with_lc_capacity(4));
        let lock = sim.add_lock(LockPolicy::load_controlled());
        sim.spawn_n(12, &lock_mix(lock, 5 * MICROS, 10 * MICROS));
        let report = sim.run();
        assert!(report.lc_parks > 0, "load control never parked anyone");
        assert!(report.micro_ns[MicroState::Parked as usize] > 0);
    }

    #[test]
    fn load_control_beats_fifo_spinning_under_overload() {
        let run = |policy: LockPolicy| {
            let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(300));
            let lock = sim.add_lock(policy);
            sim.spawn_n(12, &lock_mix(lock, 3 * MICROS, 15 * MICROS));
            sim.run().throughput_tps()
        };
        let fifo = run(LockPolicy::spin_fifo());
        let lc = run(LockPolicy::load_controlled());
        assert!(
            lc > fifo,
            "load control ({lc:.0} tps) should beat FIFO spinning ({fifo:.0} tps) at 300% load"
        );
    }

    #[test]
    fn manual_target_schedule_reduces_running_threads() {
        // Bump-test style: 8 compute threads on 8 contexts, then demand that 4
        // of them sleep.  Requires a lock so threads are eligible; use a
        // lightly-contended LC lock.
        let mut sim = Simulation::new(
            SimConfig::new(8)
                .with_duration_ms(60)
                .with_manual_targets(vec![(20 * MILLIS, 4), (40 * MILLIS, 0)]),
        );
        let lock = sim.add_lock(LockPolicy::load_controlled());
        sim.spawn_n(8, &lock_mix(lock, 2 * MICROS, 5 * MICROS));
        let report = sim.run();
        // At some point threads were parked, and by the end they were woken.
        let max_parked = report
            .parked_timeline
            .iter()
            .map(|(_, p)| *p)
            .max()
            .unwrap_or(0);
        assert!(max_parked > 0, "the manual target never parked anyone");
        let final_parked = report.parked_timeline.last().map(|(_, p)| *p).unwrap_or(0);
        assert_eq!(
            final_parked, 0,
            "everyone should be awake after the target drops"
        );
    }

    #[test]
    fn io_and_think_steps_take_threads_off_cpu() {
        let mix = TransactionMix::single(TransactionSpec::new(
            "io",
            vec![
                Step::Compute {
                    ns: Dist::Const(5 * MICROS),
                },
                Step::Io {
                    ns: Dist::Const(MILLIS),
                },
                Step::Think {
                    ns: Dist::Const(2 * MILLIS),
                },
            ],
        ));
        let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(100));
        sim.spawn_n(2, &mix);
        let report = sim.run();
        assert!(report.micro_ns[MicroState::Io as usize] > 0);
        assert!(report.micro_ns[MicroState::Think as usize] > 0);
        assert!(report.transactions > 0);
    }

    #[test]
    fn two_groups_report_separate_throughput() {
        let mut sim = Simulation::new(SimConfig::new(4).with_duration_ms(50));
        sim.configure_group(1, 4, false);
        let mix = compute_only_mix(10 * MICROS);
        sim.spawn_n(2, &mix);
        for _ in 0..2 {
            sim.spawn_in_group(&mix, 1);
        }
        let report = sim.run();
        assert_eq!(report.transactions_by_group.len(), 2);
        assert!(report.transactions_by_group[0] > 0);
        assert!(report.transactions_by_group[1] > 0);
        assert_eq!(
            report.transactions,
            report.transactions_by_group.iter().sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn running_without_threads_panics() {
        let mut sim = Simulation::new(SimConfig::new(2));
        let _ = sim.run();
    }
}
