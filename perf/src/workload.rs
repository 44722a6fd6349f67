//! The closed-loop workloads: worker threads repeat acquire → critical
//! section → release → think against one lock, in windows the main thread
//! opens and closes.  Every window ends with all workers parked and the
//! lock's contents checked against the workers' own completion counts.

use crate::gen::{burn, thread_plan, ThreadPlan, CS_STEPS, TABLE};
use crate::stats::Hist;
use crate::trace::{self, CycleSpan, Span};
use lc_accounting::ThreadState;
use lc_core::{LcMutex, LcRwLock, LoadControl, LoadControlConfig, SlotBufferStats};
use lc_locks::{Mutex as RawMutex, TimePublishedLock};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rigs a pass spreads its rounds over.
pub const RIGS: usize = 4;
/// Rounds per rig; a round is one reference window and one measured window.
pub const ROUNDS_PER_RIG: usize = 5;
/// Windows per rig: the warm-up, then two per round.
const WINDOWS: usize = 1 + 2 * ROUNDS_PER_RIG;
/// Every window has an uncounted settling part and a counted part.
const PHASES: usize = 2 * WINDOWS;
/// One acquisition in this many is timed, so timing costs under 1 ns/op.
pub const SAMPLE_EVERY: u64 = 64;
/// Operations all workers of a rig complete, between them, before the rig
/// counts as set up.  Thread start-up alone takes 0.2 or 0.4 ms depending on
/// whether the other core was asleep; a few milliseconds of first operations
/// make `setup_s` a cold-start time that repeats.
const FIRST_OPS: usize = 4096;
/// Traced operations kept per thread and per measured window.
const SPAN_OPS_PER_WINDOW: usize = 128;

const QUIESCE: u32 = u32::MAX - 1;
const STOP: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Uncontended,
    Handoff,
    OversubMutex,
    OversubRw,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Uncontended,
        Kind::Handoff,
        Kind::OversubMutex,
        Kind::OversubRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Uncontended => "uncontended",
            Kind::Handoff => "handoff",
            Kind::OversubMutex => "oversub_mutex",
            Kind::OversubRw => "oversub_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Threads in measured windows and in reference windows, on a machine
    /// with `nproc` hardware contexts.
    pub fn threads(self, nproc: usize) -> (usize, usize) {
        let oversub = (4 * nproc).min(16).max(nproc + 1);
        match self {
            Kind::Uncontended => (1, 1),
            Kind::Handoff => (nproc, nproc),
            Kind::OversubMutex | Kind::OversubRw => (oversub, nproc),
        }
    }

    fn acquire_span(self, write: bool) -> &'static str {
        match (self, write) {
            (Kind::OversubRw, true) => "write_acquire",
            (Kind::OversubRw, false) => "read_acquire",
            _ => "acquire",
        }
    }
}

/// The lock a window runs against.
enum Subject {
    Raw(RawMutex<u64, TimePublishedLock>),
    Lc(LcMutex<u64>),
    Rw(LcRwLock<(u64, u64)>),
}

trait Clock {
    fn now(&self) -> u64;
}

/// Untimed operations read no clock at all.
struct ClockOff;

impl Clock for ClockOff {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
}

struct ClockOn(Instant);

impl Clock for ClockOn {
    #[inline(always)]
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Clock readings of one operation: acquired, end of hold, released.
struct OpStamps {
    acquired: u64,
    held: u64,
    released: u64,
    /// A reader saw the two halves of the tuple differ.
    torn: bool,
}

impl Subject {
    #[inline(always)]
    fn operate<C: Clock>(&self, write: bool, x: &mut u64, clock: &C) -> OpStamps {
        let mut torn = false;
        let (acquired, held);
        match self {
            Subject::Raw(m) => {
                let mut guard = m.lock();
                acquired = clock.now();
                *guard += 1;
                *x = burn(*x, CS_STEPS);
                held = clock.now();
            }
            Subject::Lc(m) => {
                let mut guard = m.lock();
                acquired = clock.now();
                *guard += 1;
                *x = burn(*x, CS_STEPS);
                held = clock.now();
            }
            Subject::Rw(l) if write => {
                let mut guard = l.write();
                acquired = clock.now();
                guard.0 += 1;
                *x = burn(*x, CS_STEPS);
                guard.1 += 1;
                held = clock.now();
            }
            Subject::Rw(l) => {
                let guard = l.read();
                acquired = clock.now();
                let (a, b) = *guard;
                *x = burn(*x ^ a, CS_STEPS);
                torn = a != b;
                held = clock.now();
            }
        }
        OpStamps {
            acquired,
            held,
            released: clock.now(),
            torn,
        }
    }

    /// The protected value, read under the lock: (counter, second half).
    fn read(&self) -> (u64, u64) {
        match self {
            Subject::Raw(m) => {
                let v = *m.lock();
                (v, v)
            }
            Subject::Lc(m) => {
                let v = *m.lock();
                (v, v)
            }
            Subject::Rw(l) => *l.read(),
        }
    }
}

/// What one worker publishes; one cache line group per worker.
#[repr(align(128))]
struct Cell {
    /// Operations started in each phase.
    counts: [AtomicU64; PHASES],
    /// Operations completed on the reference and on the measured subject.
    done: [AtomicU64; 2],
    /// Exclusive operations completed (`oversub_rw`).
    writes: AtomicU64,
    torn: AtomicU64,
}

/// Single-writer increment: a plain load and store, no locked instruction.
#[inline(always)]
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

struct Shared {
    /// `2 * window` while the window settles, `2 * window + 1` while it
    /// counts, `QUIESCE` between windows, `STOP` at the end.
    phase: AtomicU32,
    /// Workers with an index below this run; the rest stay parked.
    active: AtomicUsize,
    parked: Mutex<usize>,
    wake_workers: Condvar,
    wake_main: Condvar,
    cells: Vec<Cell>,
    epoch: Instant,
}

impl Shared {
    fn must_wait(&self, tid: usize) -> bool {
        match self.phase.load(Ordering::Acquire) {
            QUIESCE => true,
            STOP => false,
            _ => tid >= self.active.load(Ordering::Relaxed),
        }
    }

    /// Worker side: park until this worker is wanted again.
    fn pause(&self, tid: usize) {
        let mut parked = self.parked.lock().expect("gate mutex");
        *parked += 1;
        self.wake_main.notify_one();
        while self.must_wait(tid) {
            parked = self.wake_workers.wait(parked).expect("gate mutex");
        }
        *parked -= 1;
    }

    /// Main side: publish a phase and the active-worker count, wake workers.
    fn release(&self, phase: u32, active: usize) {
        let _parked = self.parked.lock().expect("gate mutex");
        self.active.store(active, Ordering::Relaxed);
        self.phase.store(phase, Ordering::Release);
        self.wake_workers.notify_all();
    }

    /// Main side: close the window and wait until every worker is parked.
    fn quiesce(&self) {
        let mut parked = self.parked.lock().expect("gate mutex");
        self.phase.store(QUIESCE, Ordering::Release);
        while *parked < self.cells.len() {
            parked = self.wake_main.wait(parked).expect("gate mutex");
        }
    }
}

/// Odd windows are reference windows.
fn is_reference(window: usize) -> bool {
    window % 2 == 1
}

struct WorkerArgs {
    tid: usize,
    kind: Kind,
    plan: ThreadPlan,
    traced: bool,
    shared: Arc<Shared>,
    control: Arc<LoadControl>,
    reference: Arc<Subject>,
    measured: Arc<Subject>,
}

fn worker(args: WorkerArgs) -> RigOutput {
    let WorkerArgs {
        tid,
        kind,
        plan,
        traced,
        shared,
        control,
        reference,
        measured,
    } = args;
    let registration = control.register_worker();
    let cell = &shared.cells[tid];
    let clock = ClockOn(shared.epoch);
    let mut hists = [Hist::new(), Hist::new()];
    let mut spans = Vec::with_capacity(if traced {
        5 * SPAN_OPS_PER_WINDOW * ROUNDS_PER_RIG
    } else {
        0
    });
    let mut x = tid as u64;
    let mut seq: u64 = 0;
    let mut span_window = usize::MAX;
    let mut span_budget = 0;

    // The first operations belong to set-up: a rig is ready when its
    // workers have completed `FIRST_OPS` operations between them.
    for slot in 0..FIRST_OPS / shared.cells.len() {
        let write = plan.write[slot % TABLE];
        measured.operate(write, &mut x, &ClockOff);
        x = burn(x, plan.think[slot % TABLE]);
        bump(&cell.done[1]);
        if write {
            bump(&cell.writes);
        }
    }

    loop {
        let phase = shared.phase.load(Ordering::Acquire);
        if phase >= QUIESCE || tid >= shared.active.load(Ordering::Relaxed) {
            if phase == STOP {
                break;
            }
            registration.set_state(ThreadState::Idle);
            shared.pause(tid);
            registration.set_state(ThreadState::Running);
            continue;
        }
        let window = (phase / 2) as usize;
        let reference_window = is_reference(window);
        let subject = if reference_window {
            &*reference
        } else {
            &*measured
        };
        let slot = seq as usize % TABLE;
        let write = plan.write[slot];
        let timed = seq.is_multiple_of(SAMPLE_EVERY) && phase % 2 == 1 && window > 0;
        let (start, op) = if timed {
            (clock.now(), subject.operate(write, &mut x, &clock))
        } else {
            (0, subject.operate(write, &mut x, &ClockOff))
        };
        x = burn(x, plan.think[slot]);
        if timed {
            hists[usize::from(!reference_window)].record(op.acquired - start);
            if traced && !reference_window {
                if span_window != window {
                    span_window = window;
                    span_budget = SPAN_OPS_PER_WINDOW;
                }
                if span_budget > 0 {
                    span_budget -= 1;
                    trace::push_op(
                        &mut spans,
                        (tid as u32, seq),
                        kind.acquire_span(write),
                        [start, op.acquired, op.held, op.released, clock.now()],
                    );
                }
            }
        }
        bump(&cell.counts[phase as usize]);
        bump(&cell.done[usize::from(!reference_window)]);
        if write {
            bump(&cell.writes);
        }
        if op.torn {
            bump(&cell.torn);
        }
        seq += 1;
    }
    black_box(x);
    RigOutput {
        acquire: hists,
        spans,
        sleeps: registration.sleep_count(),
        ..RigOutput::default()
    }
}

/// The harness-driven controller of a traced run: the daemon's loop, with a
/// span around each cycle.
fn cycle_thread(
    control: Arc<LoadControl>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
) -> Vec<CycleSpan> {
    let interval = control.config().update_interval;
    let mut cycles = Vec::with_capacity(8192);
    let mut wakes_before = control.stats().controller_wakes;
    let mut due_ns = None;
    while !stop.load(Ordering::Acquire) {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let stats = control.run_cycle();
        let end_ns = epoch.elapsed().as_nanos() as u64;
        cycles.push(CycleSpan {
            seq: stats.cycles,
            start_ns,
            end_ns,
            late_ns: due_ns.map_or(0, |due| start_ns.saturating_sub(due)),
            runnable: stats.last_runnable as u64,
            target: stats.last_target,
            wakes: stats.controller_wakes - wakes_before,
        });
        wakes_before = stats.controller_wakes;
        due_ns = Some(end_ns + interval.as_nanos() as u64);
        std::thread::sleep(interval);
    }
    cycles
}

/// Reads the subjects on request from a thread of its own, so that the main
/// thread never becomes a registered (and runnable) worker.
fn checker_thread(
    control: Arc<LoadControl>,
    subjects: [Arc<Subject>; 2],
    requests: Receiver<()>,
    replies: Sender<[(u64, u64); 2]>,
) {
    let registration = control.register_worker();
    registration.set_state(ThreadState::Idle);
    while requests.recv().is_ok() {
        let values = [subjects[0].read(), subjects[1].read()];
        registration.set_state(ThreadState::Idle);
        if replies.send(values).is_err() {
            break;
        }
    }
}

/// The instant every span of this process counts from.
fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One set-up of a workload: control plane, locks, parked workers.
pub struct Rig {
    kind: Kind,
    threads: usize,
    ref_threads: usize,
    control: Arc<LoadControl>,
    shared: Arc<Shared>,
    /// Reference and measured subject are one lock on the oversubscribed
    /// workloads.
    same_subject: bool,
    workers: Vec<JoinHandle<RigOutput>>,
    checker: JoinHandle<()>,
    check_requests: Sender<()>,
    check_replies: Receiver<[(u64, u64); 2]>,
    cycle_stop: Arc<AtomicBool>,
    cycles: Option<JoinHandle<Vec<CycleSpan>>>,
    /// Lost updates and torn reads found so far.
    failed: u64,
    /// The latest calibration, taken with every worker parked.
    speed: f64,
    /// How long building the control plane, the locks and the workers took.
    pub set_up_seconds: f64,
}

/// One counted window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    pub seconds: f64,
    pub per_thread: Vec<u64>,
    /// The machine's speed around this window, in calibration steps per
    /// second: the mean of the calibrations just before and just after.
    pub speed: f64,
}

impl WindowResult {
    pub fn ops(&self) -> u64 {
        self.per_thread.iter().sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.seconds
    }

    /// Operations per second on a machine of nominal speed.
    pub fn norm_ops_per_s(&self) -> f64 {
        self.ops_per_s() * NOMINAL_SPEED / self.speed
    }
}

/// The speed all `norm_` metrics are scaled to, in calibration steps per
/// second (one step every 2 ns, about what the reference box does).
pub const NOMINAL_SPEED: f64 = 5e8;

/// Times a fixed run of the critical-section arithmetic on the calling
/// thread, with every worker parked: steps per second.  Shared virtual
/// machines run a few percent faster or slower from one minute to the next;
/// dividing by this takes that out of the time-based metrics.
fn calibrate() -> f64 {
    const STEPS: u32 = 2_000_000;
    let start = Instant::now();
    black_box(burn(1, STEPS));
    f64::from(STEPS) / start.elapsed().as_secs_f64()
}

/// What tearing rigs down returns; outputs of several rigs add up.
#[derive(Default)]
pub struct RigOutput {
    /// Acquisition times in reference and in measured windows.
    pub acquire: [Hist; 2],
    pub spans: Vec<Span>,
    pub cycles: Vec<CycleSpan>,
    pub sleeps: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The slot buffer's books at the end, one entry per rig.
    pub buffers: Vec<SlotBufferStats>,
}

impl RigOutput {
    pub fn absorb(&mut self, other: RigOutput) {
        for (mine, theirs) in self.acquire.iter_mut().zip(&other.acquire) {
            mine.merge(theirs);
        }
        self.spans.extend(other.spans);
        self.cycles.extend(other.cycles);
        self.sleeps += other.sleeps;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.buffers.extend(other.buffers);
    }
}

impl Rig {
    /// Builds the control plane the way a user gets it — library defaults
    /// sized for this machine, daemon started — then the locks and the
    /// workers, and returns once every worker has registered, completed its
    /// share of `FIRST_OPS` and parked.  A traced rig has no daemon: the
    /// harness drives `run_cycle` itself so that it can time each cycle.
    pub fn set_up(kind: Kind, seed: u64, traced: bool) -> Rig {
        // Generating inputs is the harness's work, not the system's set-up.
        let (threads, ref_threads) = kind.threads(crate::machine::nproc());
        let plans: Vec<ThreadPlan> = (0..threads).map(|tid| thread_plan(seed, tid)).collect();

        let start = Instant::now();
        let config = LoadControlConfig::for_this_machine();
        let control = if traced {
            LoadControl::new(config)
        } else {
            LoadControl::start(config)
        };
        let (reference, measured) = match kind {
            Kind::Uncontended | Kind::Handoff => (
                Arc::new(Subject::Raw(RawMutex::new(0))),
                Arc::new(Subject::Lc(LcMutex::new_with(0, &control))),
            ),
            Kind::OversubMutex => {
                let lock = Arc::new(Subject::Lc(LcMutex::new_with(0, &control)));
                (Arc::clone(&lock), lock)
            }
            Kind::OversubRw => {
                let lock = Arc::new(Subject::Rw(LcRwLock::new_with((0, 0), &control)));
                (Arc::clone(&lock), lock)
            }
        };
        let epoch = epoch();
        let shared = Arc::new(Shared {
            phase: AtomicU32::new(QUIESCE),
            active: AtomicUsize::new(threads),
            parked: Mutex::new(0),
            wake_workers: Condvar::new(),
            wake_main: Condvar::new(),
            cells: (0..threads)
                .map(|_| Cell {
                    counts: std::array::from_fn(|_| AtomicU64::new(0)),
                    done: [AtomicU64::new(0), AtomicU64::new(0)],
                    writes: AtomicU64::new(0),
                    torn: AtomicU64::new(0),
                })
                .collect(),
            epoch,
        });
        let cycle_stop = Arc::new(AtomicBool::new(false));
        let cycles = traced.then(|| {
            let (control, stop) = (Arc::clone(&control), Arc::clone(&cycle_stop));
            std::thread::spawn(move || cycle_thread(control, stop, epoch))
        });
        let workers = plans
            .into_iter()
            .enumerate()
            .map(|(tid, plan)| {
                let args = WorkerArgs {
                    tid,
                    kind,
                    plan,
                    traced,
                    shared: Arc::clone(&shared),
                    control: Arc::clone(&control),
                    reference: Arc::clone(&reference),
                    measured: Arc::clone(&measured),
                };
                std::thread::spawn(move || worker(args))
            })
            .collect();
        // Ready when every worker has done its first operations and parked.
        shared.quiesce();
        let set_up_seconds = start.elapsed().as_secs_f64();

        // The checker belongs to the harness too.
        let (check_requests, requests) = channel();
        let (replies, check_replies) = channel();
        let checker = {
            let control = Arc::clone(&control);
            let subjects = [Arc::clone(&reference), Arc::clone(&measured)];
            std::thread::spawn(move || checker_thread(control, subjects, requests, replies))
        };
        let mut rig = Rig {
            kind,
            threads,
            ref_threads,
            control,
            same_subject: Arc::ptr_eq(&reference, &measured),
            shared,
            workers,
            checker,
            check_requests,
            check_replies,
            cycle_stop,
            cycles,
            failed: 0,
            speed: 0.0,
            set_up_seconds,
        };
        rig.check();
        rig
    }

    /// With every worker parked: the lock's contents must equal what the
    /// workers say they completed.
    fn check(&mut self) {
        self.check_requests.send(()).expect("checker thread alive");
        let [reference, measured] = self.check_replies.recv().expect("checker thread alive");
        let sum = |f: &dyn Fn(&Cell) -> u64| self.shared.cells.iter().map(f).sum::<u64>();
        let done_ref = sum(&|c| c.done[0].load(Ordering::Relaxed));
        let done_meas = sum(&|c| c.done[1].load(Ordering::Relaxed));
        let lost = if self.kind == Kind::OversubRw {
            let writes = sum(&|c| c.writes.load(Ordering::Relaxed));
            measured.0.abs_diff(writes) + measured.1.abs_diff(writes)
        } else if self.same_subject {
            measured.0.abs_diff(done_ref + done_meas)
        } else {
            reference.0.abs_diff(done_ref) + measured.0.abs_diff(done_meas)
        };
        self.failed = self
            .failed
            .max(lost + sum(&|c| c.torn.load(Ordering::Relaxed)));
    }

    /// Runs window `window`: `settle` uncounted, then `length` counted, then
    /// all workers parked and the contents checked.
    pub fn window(&mut self, window: usize, settle: Duration, length: Duration) -> WindowResult {
        assert!(window < WINDOWS, "window {window} out of range");
        let active = if is_reference(window) {
            self.ref_threads
        } else {
            self.threads
        };
        let phase = 2 * window as u32;
        if window == 0 {
            self.speed = calibrate();
        }
        let speed_before = self.speed;
        self.shared.release(phase, active);
        std::thread::sleep(settle);
        self.shared.phase.store(phase + 1, Ordering::Release);
        let start = Instant::now();
        std::thread::sleep(length);
        let seconds = start.elapsed().as_secs_f64();
        self.shared.quiesce();
        self.check();
        self.speed = calibrate();
        WindowResult {
            seconds,
            speed: (speed_before + self.speed) / 2.0,
            per_thread: self.shared.cells[..active]
                .iter()
                .map(|c| c.counts[phase as usize + 1].load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// How many workers are not parked right now (for the watchdog's report).
    pub fn watch(&self) -> impl Fn() -> usize + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.cells.len() - *shared.parked.lock().expect("gate mutex")
    }

    /// Stops and joins every thread of the rig.
    pub fn tear_down(self) -> RigOutput {
        self.shared.release(STOP, self.threads);
        let mut out = RigOutput::default();
        for handle in self.workers {
            out.absorb(handle.join().expect("worker thread panicked"));
        }
        drop(self.check_requests);
        self.checker.join().expect("checker thread panicked");
        self.cycle_stop.store(true, Ordering::Release);
        if let Some(cycles) = self.cycles {
            out.cycles = cycles.join().expect("cycle thread panicked");
        }
        // Joins the daemon, if any, and wakes whoever is still parked.
        self.control.stop_controller();
        out.attempted = self
            .shared
            .cells
            .iter()
            .map(|c| c.done[0].load(Ordering::Relaxed) + c.done[1].load(Ordering::Relaxed))
            .sum();
        out.failed = self.failed;
        out.buffers = vec![self.control.buffer().stats()];
        out
    }
}
