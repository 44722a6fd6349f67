//! The fleet controller: election, sampling, policy drive, reclamation,
//! and the `lcctl` command intake.
//!
//! Exactly one controller runs per segment.  Election is a CAS on the
//! header's controller lease (`pid << 32 | generation`); every candidate
//! that finds the lease held probes the holder's pid through the same
//! `/proc` seam reclamation uses and takes over when the holder died —
//! so a SIGKILLed controller is replaced by the next candidate's cycle,
//! not by an operator.
//!
//! The elected controller's [`ShmController::run_cycle`] is the shared-
//! memory twin of the in-process controller daemon: sample fleet load
//! (runnable counts published by members + live sleepers), feed the
//! unmodified [`ControlPolicy`] / [`TargetSplitter`] stack, publish
//! per-shard targets, futex-wake the excess — plus the two duties only a
//! cross-process plane needs: sweep claims and member entries owned by
//! dead pids back into the books, and consume `lcctl` commands from the
//! segment mailbox.

use crate::buffer::ShmSlotBuffer;
use crate::sys;
use lc_core::policy::{build_policy_spec, build_splitter_spec};
use lc_core::{ControlPolicy, ControllerStats, ParsedSpec, PolicyInputs, TargetSplitter};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::layout::{self, lease_pid};

/// Pid liveness probe — the reclamation seam.
///
/// Production uses [`ProcLiveness`] over `/proc`; tests and the
/// deterministic bench inject fakes to script crashes.
pub trait PidLiveness: Send + Sync + fmt::Debug {
    /// Whether `pid` refers to a live (non-zombie) process.
    fn alive(&self, pid: u32) -> bool;
}

/// `/proc/<pid>` probe with an injectable root, mirroring
/// `lc_accounting::ProcfsLoadSampler::with_root`.
#[derive(Debug, Clone)]
pub struct ProcLiveness {
    root: PathBuf,
}

impl ProcLiveness {
    /// Probes the real `/proc`.
    pub fn new() -> Self {
        Self::with_root("/proc")
    }

    /// Probes `<root>/<pid>` — point at a fixture tree in tests.
    pub fn with_root(root: impl Into<PathBuf>) -> Self {
        ProcLiveness { root: root.into() }
    }
}

impl Default for ProcLiveness {
    fn default() -> Self {
        Self::new()
    }
}

impl PidLiveness for ProcLiveness {
    fn alive(&self, pid: u32) -> bool {
        sys::pid_alive(&self.root, pid)
    }
}

/// The per-segment controller (candidate until elected).
#[derive(Debug)]
pub struct ShmController {
    buffer: ShmSlotBuffer,
    policy: Box<dyn ControlPolicy>,
    splitter: Box<dyn TargetSplitter>,
    liveness: Box<dyn PidLiveness>,
    capacity: usize,
    headroom: usize,
    interval: Duration,
    pid: u32,
    lease: u64,
    manual_target: Option<u64>,
    last_hist: Vec<u64>,
    last_runnable: usize,
}

impl ShmController {
    /// A candidate controller over `buffer`, driving the paper policy and
    /// even splitter for a machine with `capacity` hardware contexts.
    pub fn new(buffer: ShmSlotBuffer, capacity: usize) -> Self {
        ShmController {
            buffer,
            policy: build_policy_spec("paper").expect("paper policy is registered"),
            splitter: build_splitter_spec("even").expect("even splitter is registered"),
            liveness: Box::new(ProcLiveness::new()),
            capacity,
            headroom: 0,
            interval: Duration::from_millis(5),
            pid: std::process::id(),
            lease: 0,
            manual_target: None,
            last_hist: Vec::new(),
            last_runnable: 0,
        }
    }

    /// Injects a liveness probe (tests, deterministic bench).
    pub fn with_liveness(mut self, liveness: Box<dyn PidLiveness>) -> Self {
        self.liveness = liveness;
        self
    }

    /// Overrides the pid used for the controller lease (bench scripting).
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = pid;
        self
    }

    /// Sets the overload headroom fed to the policy.
    pub fn with_headroom(mut self, headroom: usize) -> Self {
        self.headroom = headroom;
        self
    }

    /// Sets the cycle interval fed to the policy (and used by
    /// [`ShmControlDaemon`] as its period).
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// The shared buffer this controller drives.
    pub fn buffer(&self) -> &ShmSlotBuffer {
        &self.buffer
    }

    /// The configured cycle interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Whether this candidate currently holds the controller lease.
    pub fn elected(&self) -> bool {
        self.lease != 0
            && self
                .buffer
                .segment()
                .u64_at(layout::OFF_CONTROLLER_LEASE)
                .load(Ordering::Acquire)
                == self.lease
    }

    /// Attempts to take the controller lease: wins a vacant lease
    /// outright, and *takes over* a lease whose holder pid is dead.
    pub fn try_elect(&mut self) -> bool {
        if self.elected() {
            return true;
        }
        let seg = self.buffer.segment();
        let lease_word = seg.u64_at(layout::OFF_CONTROLLER_LEASE);
        let current = lease_word.load(Ordering::Acquire);
        if current != 0 && self.liveness.alive(lease_pid(current)) {
            return false;
        }
        let mine = layout::lease(self.pid, seg.next_generation());
        if lease_word
            .compare_exchange(current, mine, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.lease = mine;
        if current != 0 {
            seg.u64_at(layout::OFF_TAKEOVERS)
                .fetch_add(1, Ordering::AcqRel);
        }
        // Publish what we are actually running, so `lcctl stat` answers
        // from the segment even before the first command arrives.
        self.buffer
            .set_applied_spec(&self.policy.spec().to_string());
        self.last_hist = self.buffer.wait_buckets();
        true
    }

    /// Releases the lease (clean shutdown; a dead controller skips this
    /// and is replaced by takeover).
    pub fn resign(&mut self) {
        if self.elected() {
            let _ = self
                .buffer
                .segment()
                .u64_at(layout::OFF_CONTROLLER_LEASE)
                .compare_exchange(self.lease, 0, Ordering::AcqRel, Ordering::Relaxed);
        }
        self.lease = 0;
    }

    /// One controller cycle.  Returns `false` when this candidate is not
    /// (and could not become) the elected controller.
    pub fn run_cycle(&mut self) -> bool {
        if !self.try_elect() {
            return false;
        }
        let seg = Arc::clone(self.buffer.segment());
        seg.u64_at(layout::OFF_CONTROLLER_HEARTBEAT)
            .fetch_add(1, Ordering::AcqRel);

        // Commands first: a freshly posted `lcctl set policy` must steer
        // *this* cycle's target, not the next one's.
        self.consume_command();

        // Reclamation sweep: slots, then members.  Slot → cell → lease →
        // pid; a dead pid's claim is left exactly as if the sleeper had
        // woken and left (W advances once), so S − W can never strand.
        let g = self.buffer.geometry();
        for slot in 0..g.total_slots() {
            let Some(cell) = self.buffer.slot_owner(slot) else {
                continue;
            };
            let lease = self.buffer.sleeper_lease(cell);
            if lease == 0 || !self.liveness.alive(lease_pid(lease)) {
                self.buffer.reclaim_slot(slot, cell);
            }
        }
        for member in 0..g.max_members {
            let lease = self.buffer.member_lease(member);
            if lease != 0 && !self.liveness.alive(lease_pid(lease)) {
                self.buffer.reclaim_member(member);
            }
        }

        // Fleet-wide sample: runnable threads published by live members
        // plus everyone currently parked in the segment.
        let runnable: u64 = (0..g.max_members)
            .filter(|&m| self.buffer.member_lease(m) != 0)
            .map(|m| self.buffer.member_runnable(m))
            .sum();
        seg.u64_at(layout::OFF_FLEET_RUNNABLE)
            .store(runnable, Ordering::Release);
        let stats = self.buffer.stats();
        let load = (runnable + stats.sleeping) as usize;

        // Wait-histogram delta window since the previous cycle.
        let hist = self.buffer.wait_buckets();
        let delta: Vec<u64> = hist
            .iter()
            .zip(self.last_hist.iter().chain(std::iter::repeat(&0)))
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let wait = ShmSlotBuffer::observe(&delta);
        self.last_hist = hist;

        let cycles = seg
            .u64_at(layout::OFF_CYCLES)
            .fetch_add(1, Ordering::AcqRel);
        let target = if self.buffer.draining() {
            0
        } else if let Some(manual) = self.manual_target {
            manual
        } else {
            let inputs = PolicyInputs {
                load,
                capacity: self.capacity,
                headroom: self.headroom,
                current_target: self.buffer.total_target(),
                interval: self.interval,
                stats: ControllerStats {
                    cycles,
                    last_runnable: self.last_runnable,
                    last_target: self.buffer.total_target(),
                    controller_wakes: stats.controller_wakes,
                    woken_and_left: stats.woken_and_left,
                },
                wait,
            };
            self.policy.target(&inputs)
        };
        self.last_runnable = runnable as usize;

        // Split, publish, and wake whatever each shard no longer wants.
        let snapshots = self.buffer.shard_snapshots();
        let shares = self
            .splitter
            .split(target, &snapshots, g.shard_capacity as u64);
        let mut published = 0u64;
        for (shard, &share) in shares.iter().enumerate().take(g.shards) {
            self.buffer.set_shard_target(shard, share);
            published += share;
            let excess = self.buffer.shard_sleepers(shard).saturating_sub(share);
            for _ in 0..excess {
                if !self.buffer.wake_one(shard) {
                    break;
                }
            }
        }
        self.buffer.set_total_target(published);
        true
    }

    fn consume_command(&mut self) {
        let Some((seq, text)) = self.buffer.pending_command() else {
            return;
        };
        let ok = self.apply_command(&text);
        self.buffer.ack_command(seq, ok);
    }

    fn apply_command(&mut self, text: &str) -> bool {
        let Ok(spec) = ParsedSpec::parse(text) else {
            return false;
        };
        match spec.name() {
            // `drain()`: stop claiming, wake everyone, hold the fleet at
            // target 0 until `resume()`.
            "drain" => {
                self.buffer.set_draining(true);
                true
            }
            "resume" => {
                self.buffer.set_draining(false);
                true
            }
            // `target(value=N)`: manual steering — pin the fleet target,
            // bypassing the policy until a policy command replaces it.
            "target" => match spec.param::<u64>("value") {
                Ok(Some(v)) => {
                    self.manual_target = Some(v);
                    self.buffer.set_applied_spec(&format!("target(value={v})"));
                    true
                }
                _ => false,
            },
            // Anything else is a policy spec in the shared registry.
            _ => match build_policy_spec(text) {
                Ok(policy) => {
                    self.policy = policy;
                    self.manual_target = None;
                    self.buffer
                        .set_applied_spec(&self.policy.spec().to_string());
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// A background thread running [`ShmController::run_cycle`] on its
/// configured interval until stopped.
#[derive(Debug)]
pub struct ShmControlDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ShmControlDaemon {
    /// Spawns the controller loop.
    pub fn start(mut controller: ShmController) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lc-shm-controller".into())
            .spawn(move || {
                let interval = controller.interval();
                while !stop2.load(Ordering::Acquire) {
                    controller.run_cycle();
                    std::thread::sleep(interval);
                }
                controller.resign();
            })
            .expect("spawn lc-shm controller daemon");
        ShmControlDaemon {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the loop, resigns the lease, and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShmControlDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}
