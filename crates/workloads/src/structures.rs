//! dlock2-style real-structure benchmark suite.
//!
//! Three sequential data structures — a bucketed hash map, a FIFO queue and
//! a proportional counter — each protected by **one** lock and driven by a
//! closed loop of worker threads.  The point of the suite is the comparison
//! the delegation plane exists for: the same structure behind
//!
//! * a delegation lock ([`FlatCombiningLock`] / [`CcSynchLock`]), where the
//!   critical section is *published* and may execute on a combiner, and
//! * a classic spin lock (any [`lc_locks::ALL_LOCK_NAMES`] family via
//!   [`DynMutex`]), where every thread executes its own critical section,
//!
//! with and without the load controller, under oversubscription.  Every run
//! reports completed operations over the measured window **and** per-thread
//! usage ([`ThreadUsageRow`]): raw ops per thread, plus — for delegation locks — how many *other* threads'
//! requests each thread executed while combining, so combiner monopolization
//! shows up as a fairness number instead of an anecdote.
//!
//! The structures self-check while they measure (exact op accounting, FIFO
//! order per producer, counter balance), so every bench run doubles as a
//! linearizability smoke test of the delegated execution path.

use crate::drivers::oversubscribed_control;
use lc_core::spec::SpecError;
use lc_core::thread_ctx::LoadControlPolicy;
use lc_core::LoadControl;
use lc_locks::delegation::{build_combiner_spec, DEFAULT_MAX_COMBINE, DEFAULT_SCAN_BUDGET};
use lc_locks::registry::DynMutex;
use lc_locks::{
    jains_index, take_thread_combine_tally, CcSynchLock, CombinerStrategy, DelegationLock,
    DelegationMutex, FlatCombiningLock, ThreadUsageRow, ThreadUsageTable,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The structures
// ---------------------------------------------------------------------------

/// A fixed-bucket chained hash map (the dlock-suite `hashmap` structure):
/// deliberately sequential — the lock under test provides all the
/// concurrency control.
#[derive(Debug)]
pub struct BucketMap {
    buckets: Vec<Vec<(u64, u64)>>,
    len: usize,
}

impl BucketMap {
    /// An empty map with `buckets` chains.
    pub fn with_buckets(buckets: usize) -> Self {
        Self {
            buckets: (0..buckets.max(1)).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    fn chain(&mut self, key: u64) -> &mut Vec<(u64, u64)> {
        let index = (key % self.buckets.len() as u64) as usize;
        &mut self.buckets[index]
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let chain = self.chain(key);
        for slot in chain.iter_mut() {
            if slot.0 == key {
                return Some(std::mem::replace(&mut slot.1, value));
            }
        }
        chain.push((key, value));
        self.len += 1;
        None
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.chain(key).iter().find(|e| e.0 == key).map(|e| e.1)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let chain = self.chain(key);
        let index = chain.iter().position(|e| e.0 == key)?;
        let (_, value) = chain.swap_remove(index);
        self.len -= 1;
        Some(value)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A FIFO queue that *verifies* its own ordering (the dlock-suite `queue`
/// structure): producers enqueue per-thread sequence numbers, and every
/// dequeue checks that each producer's numbers come back in order — exactly
/// the invariant a delegation lock could break by reordering or double-running
/// published requests.
#[derive(Debug)]
pub struct FifoQueue {
    items: VecDeque<u64>,
    next_expected: Vec<u64>,
    violations: u64,
}

impl FifoQueue {
    /// An empty queue fed by `producers` producer threads.
    pub fn new(producers: usize) -> Self {
        Self {
            items: VecDeque::new(),
            next_expected: vec![0; producers],
            violations: 0,
        }
    }

    /// Enqueues producer `producer`'s item number `seq` (each producer must
    /// use consecutive numbers starting at 0).
    pub fn enqueue(&mut self, producer: usize, seq: u64) {
        self.items.push_back(((producer as u64) << 32) | seq);
    }

    /// Dequeues the oldest item, checking per-producer FIFO order; returns
    /// `(producer, seq)`.
    pub fn dequeue(&mut self) -> Option<(usize, u64)> {
        let tag = self.items.pop_front()?;
        let producer = (tag >> 32) as usize;
        let seq = tag & 0xffff_ffff;
        if seq != self.next_expected[producer] {
            self.violations += 1;
        }
        self.next_expected[producer] = seq + 1;
        Some((producer, seq))
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// FIFO-order violations observed so far (must stay 0).
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

/// A counter whose increments are proportional to the caller's thread index
/// (the dlock-suite `counter` structure): the aggregate must equal the sum
/// of the per-thread ledgers, so lost or duplicated delegated increments are
/// arithmetic, not probabilistic.
#[derive(Debug)]
pub struct ProportionalCounter {
    value: u64,
    ledger: Vec<u64>,
}

impl ProportionalCounter {
    /// A zeroed counter for `threads` incrementing threads.
    pub fn new(threads: usize) -> Self {
        Self {
            value: 0,
            ledger: vec![0; threads],
        }
    }

    /// Adds `thread`'s proportional weight (`thread + 1`) to the counter.
    pub fn add(&mut self, thread: usize) {
        let weight = thread as u64 + 1;
        self.value += weight;
        self.ledger[thread] += weight;
    }

    /// The aggregate value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Whether the aggregate equals the sum of the per-thread ledgers.
    pub fn balanced(&self) -> bool {
        self.value == self.ledger.iter().sum::<u64>()
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Names of the structures in the suite, in report order.
pub const ALL_STRUCTURE_NAMES: &[&str] = &["hashmap", "queue", "counter"];

/// Which structure a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// [`BucketMap`]: 2 inserts / 1 get / 1 remove per op batch.
    Hashmap,
    /// [`FifoQueue`]: enqueue + dequeue per op.
    Queue,
    /// [`ProportionalCounter`]: one weighted increment per op.
    Counter,
}

impl StructureKind {
    /// Parses a name from [`ALL_STRUCTURE_NAMES`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "hashmap" => Some(StructureKind::Hashmap),
            "queue" => Some(StructureKind::Queue),
            "counter" => Some(StructureKind::Counter),
            _ => None,
        }
    }

    /// The stable report label.
    pub fn name(&self) -> &'static str {
        match self {
            StructureKind::Hashmap => "hashmap",
            StructureKind::Queue => "queue",
            StructureKind::Counter => "counter",
        }
    }
}

/// Configuration of one structure-bench run.
#[derive(Debug, Clone)]
pub struct DlockBenchConfig {
    /// Worker threads (oversubscribe: more threads than `capacity`).
    pub threads: usize,
    /// Pretend hardware capacity for controller runs.
    pub capacity: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Combiner-election strategy for the delegation locks, in the
    /// `combiner(...)` spec grammar.
    pub combiner_spec: String,
}

impl Default for DlockBenchConfig {
    fn default() -> Self {
        Self {
            threads: 8,
            capacity: 2,
            duration: Duration::from_millis(100),
            combiner_spec: "combiner".to_string(),
        }
    }
}

/// Result of one structure-bench run.
#[derive(Debug, Clone)]
pub struct DlockRunResult {
    /// Structure label (from [`ALL_STRUCTURE_NAMES`]).
    pub structure: String,
    /// Lock label (registry name, plus the combiner strategy for delegation
    /// locks).
    pub lock: String,
    /// Whether a load controller was running.
    pub controller: bool,
    /// Total completed operations across all threads.
    pub ops: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Per-thread usage rows, in thread order.
    pub per_thread: Vec<ThreadUsageRow>,
    /// Jain's fairness index over per-thread completed operations.
    pub fairness: f64,
    /// Sleep-slot claims that actually slept during the run (0 without a
    /// controller).
    pub ever_slept: u64,
}

/// How the driver reaches a critical section on the shared structure.
trait StructureCell<S>: Send + Sync + 'static {
    /// Runs `f` on the structure under the lock, consulting the load-control
    /// policy when `control` is given.  Returns the number of requests this
    /// thread executed in combining passes while inside (0 for ownership
    /// locks).
    fn with_structure(
        &self,
        control: Option<&Arc<LoadControl>>,
        f: &mut (dyn FnMut(&mut S) + Send),
    ) -> u64;
}

struct SpinCell<S>(DynMutex<S>);

impl<S: Send + 'static> StructureCell<S> for SpinCell<S> {
    fn with_structure(
        &self,
        control: Option<&Arc<LoadControl>>,
        f: &mut (dyn FnMut(&mut S) + Send),
    ) -> u64 {
        match control {
            Some(lc) => {
                let mut policy = LoadControlPolicy::new(lc);
                f(&mut self.0.lock_with(&mut policy));
            }
            None => f(&mut self.0.lock()),
        }
        0
    }
}

struct DelegationCell<S, L: DelegationLock>(DelegationMutex<S, L>);

impl<S: Send + 'static, L: DelegationLock + 'static> StructureCell<S> for DelegationCell<S, L> {
    fn with_structure(
        &self,
        control: Option<&Arc<LoadControl>>,
        f: &mut (dyn FnMut(&mut S) + Send),
    ) -> u64 {
        let _ = take_thread_combine_tally();
        match control {
            Some(lc) => {
                let mut policy = LoadControlPolicy::new(lc);
                self.0.run_locked_with(&mut policy, |s| f(s));
            }
            None => self.0.run_locked(|s| f(s)),
        }
        // Requests executed during this thread's combining passes for this
        // op (flat combining tallies others' jobs; CCSynch routes the
        // combiner's own job through the same loop, so its tally includes
        // it).  Either way the column measures who shoulders the combining
        // work.
        take_thread_combine_tally().jobs
    }
}

/// Builds the lock cell for `lock_spec` over structure `S`: the delegation
/// families get concrete [`DelegationMutex`] backends honouring
/// `combiner_spec`; every other registered lock goes through [`DynMutex`].
fn build_cell<S: Send + 'static>(
    lock_spec: &str,
    combiner_spec: &str,
    structure: S,
) -> Result<(Box<dyn StructureCell<S>>, String), SpecError> {
    let strategy: CombinerStrategy = build_combiner_spec(combiner_spec)?;
    match lock_spec {
        "flat-combining" => {
            let lock = FlatCombiningLock::with_config(DEFAULT_SCAN_BUDGET, strategy);
            let label = format!("flat-combining[{}]", strategy.name());
            Ok((
                Box::new(DelegationCell(DelegationMutex::with_lock(lock, structure))),
                label,
            ))
        }
        "ccsynch" => {
            let lock = CcSynchLock::with_config(DEFAULT_MAX_COMBINE, strategy);
            let label = format!("ccsynch[{}]", strategy.name());
            Ok((
                Box::new(DelegationCell(DelegationMutex::with_lock(lock, structure))),
                label,
            ))
        }
        other => {
            let mutex = DynMutex::build(other, structure).ok_or_else(|| SpecError::Config {
                source: format!("lock spec {other:?}"),
                reason: "not a registered lock".to_string(),
            })?;
            let label = other.to_string();
            Ok((Box::new(SpinCell(mutex)), label))
        }
    }
}

/// Runs one structure bench: `config.threads` workers hammer `structure`
/// behind `lock_spec` for `config.duration`, with a live load controller
/// when `controller` is set.
///
/// Structure invariants are asserted after the run — a violation is a bug in
/// the lock under test, so it panics rather than skewing the numbers.
pub fn run_structure_bench(
    structure: StructureKind,
    lock_spec: &str,
    controller: bool,
    config: &DlockBenchConfig,
) -> Result<DlockRunResult, SpecError> {
    match structure {
        StructureKind::Hashmap => {
            let map = BucketMap::with_buckets(64);
            drive(
                structure,
                lock_spec,
                controller,
                config,
                map,
                hashmap_op,
                |map, usage| {
                    let expected: usize = usage.iter().map(|row| row.acquisitions as usize).sum();
                    assert_eq!(
                        map.len(),
                        expected,
                        "hashmap lost or duplicated delegated inserts"
                    );
                },
            )
        }
        StructureKind::Queue => {
            let queue = FifoQueue::new(config.threads);
            drive(
                structure,
                lock_spec,
                controller,
                config,
                queue,
                queue_op,
                |queue, _| {
                    assert_eq!(queue.violations(), 0, "FIFO order violated");
                    assert!(queue.is_empty(), "enqueue/dequeue pairs left residue");
                },
            )
        }
        StructureKind::Counter => {
            let counter = ProportionalCounter::new(config.threads);
            drive(
                structure,
                lock_spec,
                controller,
                config,
                counter,
                counter_op,
                |counter, usage| {
                    assert!(counter.balanced(), "counter lost delegated increments");
                    let expected: u64 = usage
                        .iter()
                        .enumerate()
                        .map(|(t, row)| row.acquisitions * (t as u64 + 1))
                        .sum();
                    assert_eq!(counter.value(), expected, "counter total is wrong");
                },
            )
        }
    }
}

/// One hashmap op: insert two keys in the thread's stripe, read one back,
/// remove one — net +1 live entry per op.
fn hashmap_op(map: &mut BucketMap, thread: usize, i: u64) {
    let base = ((thread as u64) << 40) | (i << 1);
    map.insert(base, i);
    map.insert(base + 1, i);
    debug_assert_eq!(map.get(base), Some(i));
    map.remove(base + 1);
}

/// One queue op: enqueue this thread's next item, then dequeue the global
/// oldest — net zero queued items per op.
fn queue_op(queue: &mut FifoQueue, thread: usize, i: u64) {
    queue.enqueue(thread, i);
    queue.dequeue();
}

/// One counter op: one proportional increment.
fn counter_op(counter: &mut ProportionalCounter, thread: usize, _i: u64) {
    counter.add(thread);
}

/// The generic closed-loop driver behind [`run_structure_bench`].
fn drive<S: Send + 'static>(
    structure: StructureKind,
    lock_spec: &str,
    controller: bool,
    config: &DlockBenchConfig,
    initial: S,
    op: fn(&mut S, usize, u64),
    verify: impl FnOnce(&S, &[ThreadUsageRow]) + Send,
) -> Result<DlockRunResult, SpecError> {
    let (cell, label) = build_cell(lock_spec, &config.combiner_spec, initial)?;
    let cell: Arc<dyn StructureCell<S>> = Arc::from(cell);
    let control = controller.then(|| oversubscribed_control(config.capacity, 1));
    let usage = Arc::new(ThreadUsageTable::new(config.threads));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::with_capacity(config.threads);
    for thread in 0..config.threads {
        let cell = Arc::clone(&cell);
        let control = control.clone();
        let usage = Arc::clone(&usage);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            let mut combined = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut body = |s: &mut S| op(s, thread, i);
                combined += cell.with_structure(control.as_ref(), &mut body);
                i += 1;
            }
            usage.record_acquisitions(thread, i);
            usage.record_combines(thread, combined);
        }));
    }

    let start = Instant::now();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().expect("structure bench worker panicked");
    }
    let elapsed = start.elapsed();

    let ever_slept = control.as_ref().map_or(0, |lc| {
        let ever_slept = lc.buffer().stats().ever_slept;
        lc.stop_controller();
        ever_slept
    });

    let per_thread = usage.snapshot();
    let counts: Vec<u64> = per_thread.iter().map(|row| row.acquisitions).collect();
    let ops: u64 = counts.iter().sum();
    verify_cell(&cell, &per_thread, verify);

    Ok(DlockRunResult {
        structure: structure.name().to_string(),
        lock: label,
        controller,
        ops,
        elapsed,
        per_thread: per_thread.clone(),
        fairness: jains_index(&counts),
        ever_slept,
    })
}

/// Runs `verify` on the final structure state under the (now uncontended)
/// lock.
fn verify_cell<S: Send + 'static>(
    cell: &Arc<dyn StructureCell<S>>,
    usage: &[ThreadUsageRow],
    verify: impl FnOnce(&S, &[ThreadUsageRow]) + Send,
) {
    let mut verify = Some(verify);
    let mut body = |s: &mut S| {
        if let Some(verify) = verify.take() {
            verify(s, usage);
        }
    };
    cell.with_structure(None, &mut body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DlockBenchConfig {
        DlockBenchConfig {
            threads: 4,
            capacity: 2,
            duration: Duration::from_millis(40),
            combiner_spec: "combiner".to_string(),
        }
    }

    #[test]
    fn bucket_map_basics() {
        let mut map = BucketMap::with_buckets(4);
        assert!(map.is_empty());
        assert_eq!(map.insert(1, 10), None);
        assert_eq!(map.insert(1, 11), Some(10));
        assert_eq!(map.insert(5, 50), None);
        assert_eq!(map.get(1), Some(11));
        assert_eq!(map.get(2), None);
        assert_eq!(map.remove(5), Some(50));
        assert_eq!(map.remove(5), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn fifo_queue_checks_order() {
        let mut queue = FifoQueue::new(2);
        queue.enqueue(0, 0);
        queue.enqueue(1, 0);
        queue.enqueue(0, 1);
        assert_eq!(queue.dequeue(), Some((0, 0)));
        assert_eq!(queue.dequeue(), Some((1, 0)));
        assert_eq!(queue.dequeue(), Some((0, 1)));
        assert_eq!(queue.dequeue(), None);
        assert_eq!(queue.violations(), 0);
        // An out-of-order sequence is detected, not silently accepted.
        queue.enqueue(0, 7);
        queue.dequeue();
        assert_eq!(queue.violations(), 1);
    }

    #[test]
    fn proportional_counter_balances() {
        let mut counter = ProportionalCounter::new(3);
        counter.add(0);
        counter.add(2);
        counter.add(2);
        assert_eq!(counter.value(), 1 + 3 + 3);
        assert!(counter.balanced());
    }

    /// The structure × lock × controller matrix at smoke size; the driver
    /// asserts each structure's invariants after every run.  ccsynch is
    /// missing from the lock column on purpose: its combiner can still walk
    /// onto an already-granted node and panic (ROADMAP item 1(a)), so its
    /// cells stay at `ccsynch_under_controller_parks_and_completes` until
    /// that is fixed.
    #[test]
    fn every_structure_runs_on_a_delegation_lock() {
        for &name in ALL_STRUCTURE_NAMES {
            let structure = StructureKind::from_name(name).expect("listed structure");
            for lock in ["flat-combining", "tp-queue", "mcs"] {
                for controller in [false, true] {
                    let r = run_structure_bench(structure, lock, controller, &quick())
                        .expect("valid spec");
                    let cell = format!("{name}/{lock}/controller={controller}");
                    assert!(r.ops > 0, "{cell}: no progress");
                    assert_eq!(r.per_thread.len(), 4, "{cell}");
                    assert!(r.fairness > 0.0 && r.fairness <= 1.0, "{cell}");
                    if !controller {
                        assert_eq!(r.ever_slept, 0, "{cell}: slept without a controller");
                    }
                }
            }
        }
    }

    #[test]
    fn ccsynch_under_controller_parks_and_completes() {
        let r = run_structure_bench(StructureKind::Counter, "ccsynch", true, &quick())
            .expect("valid spec");
        assert!(r.ops > 0);
        assert!(r.controller);
        assert!(r.lock.starts_with("ccsynch["), "label: {}", r.lock);
    }

    #[test]
    fn spin_locks_drive_the_same_suite() {
        let r = run_structure_bench(StructureKind::Queue, "tp-queue", false, &quick())
            .expect("valid spec");
        assert!(r.ops > 0);
        assert!(
            r.per_thread.iter().all(|row| row.combines == 0),
            "ownership locks cannot combine"
        );
    }

    #[test]
    fn unknown_specs_are_rejected() {
        assert!(run_structure_bench(StructureKind::Counter, "bogus", false, &quick()).is_err());
        let mut config = quick();
        config.combiner_spec = "combiner(strategy=bogus)".to_string();
        assert!(
            run_structure_bench(StructureKind::Counter, "flat-combining", false, &config).is_err()
        );
    }

    #[test]
    fn load_aware_combiner_strategy_runs_end_to_end() {
        let mut config = quick();
        config.combiner_spec = "combiner(strategy=load-aware)".to_string();
        let r = run_structure_bench(StructureKind::Hashmap, "flat-combining", true, &config)
            .expect("valid spec");
        assert!(r.ops > 0);
        assert!(r.lock.contains("load-aware"), "label: {}", r.lock);
    }
}
