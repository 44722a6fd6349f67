//! OS-backed load sampling via `/proc/self/task` (Linux only).
//!
//! This is the closest portable analogue of Solaris microstate accounting:
//! it counts the process's tasks whose scheduler state is `R` (running or
//! runnable).  It observes *every* thread in the process — including ones
//! that never registered with [`crate::ThreadRegistry`] — at the cost of a
//! filesystem walk per sample, which mirrors the paper's observation
//! (§5.3, §6.2.2) that the OS facility gets more expensive as the thread
//! count grows.
//!
//! `/proc` formatting is kernel-controlled, not contractual: containers,
//! seccomp filters and procfs hardening patches have all shipped truncated
//! or oddly shaped `stat` lines.  The raw [`ProcfsLoadSampler`] therefore
//! treats malformed input as data loss, never as a reason to panic, and
//! [`HardenedProcfsSampler`] wraps it with the production posture: degrade
//! to a fallback sampler (normally the in-process registry) on any procfs
//! failure, and rate-limit re-probes of the failing procfs so a broken
//! mount is not re-walked on every controller cycle.

use crate::sampler::LoadSampler;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Samples runnable-thread counts from `/proc/self/task/*/stat`.
#[derive(Debug, Clone, Default)]
pub struct ProcfsLoadSampler {
    /// Override of the proc root, for tests.
    proc_root: Option<PathBuf>,
}

impl ProcfsLoadSampler {
    /// Creates a sampler reading from `/proc/self/task`.
    pub fn new() -> Self {
        Self { proc_root: None }
    }

    /// Creates a sampler reading task directories under `root` (testing).
    pub fn with_root(root: impl Into<PathBuf>) -> Self {
        Self {
            proc_root: Some(root.into()),
        }
    }

    /// Whether the proc interface is available on this system.
    pub fn is_available(&self) -> bool {
        self.task_dir().is_dir()
    }

    fn task_dir(&self) -> PathBuf {
        self.proc_root
            .clone()
            .unwrap_or_else(|| PathBuf::from("/proc/self/task"))
    }

    /// Counts tasks in state `R`.
    ///
    /// Errors if `/proc` is missing — or if task entries were listed but
    /// **no** stat file could be read and parsed, which means the interface
    /// is present but unusable (hidepid-style access policies, or a garbled
    /// format; both must degrade rather than be mistaken for an idle
    /// process).  Individual failures among successes are skipped: tasks
    /// exit between `readdir` and `read`, and a torn read of one file is
    /// normal.
    pub fn try_count_runnable(&self) -> io::Result<usize> {
        let mut runnable = 0;
        let mut read = 0usize;
        let mut failed = 0usize;
        let mut parsed = 0usize;
        for entry in fs::read_dir(self.task_dir())? {
            let entry = entry?;
            let stat_path = entry.path().join("stat");
            let Ok(contents) = fs::read_to_string(&stat_path) else {
                // Tasks may exit between readdir and read; skip them, but
                // remember the failure — a directory where *every* read
                // fails is an unusable procfs, not an idle process.
                failed += 1;
                continue;
            };
            read += 1;
            if let Some(state) = parse_task_state(&contents) {
                parsed += 1;
                if state == 'R' {
                    runnable += 1;
                }
            }
        }
        if parsed == 0 && (read > 0 || failed > 0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{read} stat file(s) read ({failed} unreadable), none parseable"),
            ));
        }
        Ok(runnable)
    }
}

/// Extracts the single-character task state from a `/proc/<pid>/stat` line.
///
/// The state is the field immediately after the parenthesised command name;
/// the command name itself may contain spaces and parentheses, so parsing
/// must search for the *last* closing parenthesis.  Returns `None` — never
/// panics — for truncated or garbled input.
pub fn parse_task_state(stat_line: &str) -> Option<char> {
    let close = stat_line.rfind(')')?;
    stat_line[close + 1..]
        .split_whitespace()
        .next()
        .and_then(|s| s.chars().next())
}

impl LoadSampler for ProcfsLoadSampler {
    fn sample(&self) -> usize {
        self.try_count_runnable().unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "procfs"
    }
}

/// A [`ProcfsLoadSampler`] with a fallback and a failure cooldown: the
/// deployment-grade way to use OS-backed sampling.
///
/// Each [`LoadSampler::sample`] call:
///
/// 1. **inside the cooldown window** after a procfs failure, reads the
///    fallback sampler directly (no procfs walk at all — a broken or
///    unmounted `/proc` is not re-read on every controller cycle);
/// 2. otherwise attempts the procfs walk; on success that is the sample,
///    on *any* error (missing mount, permission, garbled stat format) the
///    failure is recorded, the cooldown starts, and the fallback answers.
///
/// The fallback is typically a [`crate::RegistryLoadSampler`] over the same
/// registry the controller would otherwise use, so degradation costs
/// visibility into unregistered threads but never correctness.
pub struct HardenedProcfsSampler {
    procfs: ProcfsLoadSampler,
    fallback: Box<dyn LoadSampler>,
    cooldown: Duration,
    last_failure: Mutex<Option<Instant>>,
    procfs_errors: AtomicU64,
    fallback_samples: AtomicU64,
}

impl std::fmt::Debug for HardenedProcfsSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HardenedProcfsSampler")
            .field("procfs", &self.procfs)
            .field("fallback", &self.fallback.name())
            .field("cooldown", &self.cooldown)
            .field("procfs_errors", &self.procfs_errors.load(Ordering::Relaxed))
            .field(
                "fallback_samples",
                &self.fallback_samples.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl HardenedProcfsSampler {
    /// Default cooldown between procfs re-probes after a failure.
    pub const DEFAULT_COOLDOWN: Duration = Duration::from_secs(1);

    /// Wraps `procfs` with `fallback` and the default cooldown.
    pub fn new(procfs: ProcfsLoadSampler, fallback: Box<dyn LoadSampler>) -> Self {
        Self::with_cooldown(procfs, fallback, Self::DEFAULT_COOLDOWN)
    }

    /// Wraps `procfs` with `fallback` and an explicit failure cooldown.
    pub fn with_cooldown(
        procfs: ProcfsLoadSampler,
        fallback: Box<dyn LoadSampler>,
        cooldown: Duration,
    ) -> Self {
        Self {
            procfs,
            fallback,
            cooldown,
            last_failure: Mutex::new(None),
            procfs_errors: AtomicU64::new(0),
            fallback_samples: AtomicU64::new(0),
        }
    }

    /// Number of procfs walks that have failed so far.
    pub fn procfs_errors(&self) -> u64 {
        self.procfs_errors.load(Ordering::Relaxed)
    }

    /// Number of samples answered by the fallback sampler.
    pub fn fallback_samples(&self) -> u64 {
        self.fallback_samples.load(Ordering::Relaxed)
    }

    /// Whether the sampler is currently inside a failure cooldown (and thus
    /// answering from the fallback without touching procfs).
    pub fn in_cooldown(&self) -> bool {
        self.last_failure
            .lock()
            .unwrap()
            .map(|at| at.elapsed() < self.cooldown)
            .unwrap_or(false)
    }

    fn fallback_sample(&self) -> usize {
        self.fallback_samples.fetch_add(1, Ordering::Relaxed);
        self.fallback.sample()
    }
}

impl LoadSampler for HardenedProcfsSampler {
    fn sample(&self) -> usize {
        if self.in_cooldown() {
            return self.fallback_sample();
        }
        match self.procfs.try_count_runnable() {
            Ok(runnable) => {
                *self.last_failure.lock().unwrap() = None;
                runnable
            }
            Err(_) => {
                self.procfs_errors.fetch_add(1, Ordering::Relaxed);
                *self.last_failure.lock().unwrap() = Some(Instant::now());
                self.fallback_sample()
            }
        }
    }

    fn name(&self) -> &'static str {
        "procfs-hardened"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ThreadRegistry, ThreadState};
    use crate::sampler::{FixedLoadSampler, RegistryLoadSampler};
    use std::path::Path;
    use std::sync::Arc;

    #[test]
    fn parse_simple_stat_line() {
        let line = "12345 (myprog) R 1 12345 12345 0 -1 4194304";
        assert_eq!(parse_task_state(line), Some('R'));
    }

    #[test]
    fn parse_stat_line_with_tricky_comm() {
        // Command names may contain spaces and parentheses.
        let line = "42 (a (weird) name) S 1 42 42 0 -1";
        assert_eq!(parse_task_state(line), Some('S'));
    }

    #[test]
    fn parse_garbage_returns_none() {
        assert_eq!(parse_task_state("not a stat line"), None);
        assert_eq!(parse_task_state(""), None);
        // Truncated mid-comm: the closing parenthesis never arrives.
        assert_eq!(parse_task_state("12345 (myprog"), None);
        // Closing parenthesis present but the line ends there.
        assert_eq!(parse_task_state("12345 (myprog)"), None);
        assert_eq!(parse_task_state("12345 (myprog)   "), None);
    }

    #[test]
    fn missing_root_is_reported_as_unavailable() {
        let s = ProcfsLoadSampler::with_root("/definitely/not/a/dir");
        assert!(!s.is_available());
        assert!(s.try_count_runnable().is_err());
        // LoadSampler::sample degrades to zero rather than panicking.
        assert_eq!(s.sample(), 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_sampler_sees_at_least_this_thread() {
        let s = ProcfsLoadSampler::new();
        if s.is_available() {
            // The calling thread is running, so at least one task is `R`.
            assert!(s.try_count_runnable().unwrap() >= 1);
            assert_eq!(s.name(), "procfs");
        }
    }

    /// Builds a fake `/proc/self/task`-shaped tree under a unique temp dir:
    /// one sub-directory per entry, each holding a `stat` file with the given
    /// contents.  Returns the root (leaked into the temp dir; the OS cleans
    /// up).
    fn fixture(tag: &str, stats: &[&str]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("lc-procfs-fixture-{}-{tag}", std::process::id()));
        // Re-create from scratch so reruns are deterministic.
        let _ = fs::remove_dir_all(&root);
        for (i, contents) in stats.iter().enumerate() {
            let task = root.join(format!("{}", 1000 + i));
            fs::create_dir_all(&task).expect("fixture mkdir");
            fs::write(task.join("stat"), contents).expect("fixture write");
        }
        if stats.is_empty() {
            fs::create_dir_all(&root).expect("fixture mkdir");
        }
        root
    }

    fn assert_fixture_counts(root: &Path, expected: usize) {
        let s = ProcfsLoadSampler::with_root(root);
        assert!(s.is_available());
        assert_eq!(s.try_count_runnable().unwrap(), expected);
    }

    #[test]
    fn fixture_with_well_formed_stats_counts_runnable_tasks() {
        let root = fixture(
            "ok",
            &[
                "1000 (worker) R 1 1000 1000 0 -1 4194304",
                "1001 (worker) S 1 1000 1000 0 -1 4194304",
                "1002 (a (tricky) name) R 1 1000 1000 0 -1",
            ],
        );
        assert_fixture_counts(&root, 2);
    }

    #[test]
    fn truncated_lines_are_skipped_not_panicked_on() {
        // A mix of readable and truncated lines: the truncated ones are
        // treated as lost samples, the rest still count.
        let root = fixture(
            "truncated",
            &[
                "1000 (worker) R 1 1000",
                "1001 (work", // truncated mid-comm
                "",           // empty file
            ],
        );
        assert_fixture_counts(&root, 1);
    }

    #[test]
    fn fully_garbled_fixture_is_an_error_not_zero_load() {
        let root = fixture("garbled", &["<<<>>>", "no parens at all", "\0\0\0\0"]);
        let s = ProcfsLoadSampler::with_root(&root);
        let err = s
            .try_count_runnable()
            .expect_err("garbled procfs must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The raw sampler still degrades to zero instead of panicking…
        assert_eq!(s.sample(), 0);
    }

    #[test]
    fn fully_unreadable_stats_are_an_error_not_zero_load() {
        // hidepid-style policies leave the task directory listable but every
        // stat file unreadable; that must degrade, not report an idle
        // process.  Simulated by making `stat` a directory (read fails).
        let root = fixture("unreadable", &[]);
        for i in 0..3 {
            fs::create_dir_all(root.join(format!("{}", 2000 + i)).join("stat"))
                .expect("fixture mkdir");
        }
        let s = ProcfsLoadSampler::with_root(&root);
        let err = s
            .try_count_runnable()
            .expect_err("unreadable procfs must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // …and the hardened wrapper therefore falls back.
        let h = HardenedProcfsSampler::new(
            ProcfsLoadSampler::with_root(&root),
            Box::new(FixedLoadSampler { runnable: 5 }),
        );
        assert_eq!(h.sample(), 5);
        assert_eq!(h.procfs_errors(), 1);
    }

    #[test]
    fn hardened_sampler_prefers_procfs_when_healthy() {
        let root = fixture(
            "healthy",
            &[
                "1000 (worker) R 1 1000 1000 0 -1",
                "1001 (worker) R 1 1000 1000 0 -1",
            ],
        );
        let s = HardenedProcfsSampler::new(
            ProcfsLoadSampler::with_root(&root),
            Box::new(FixedLoadSampler { runnable: 99 }),
        );
        assert_eq!(s.sample(), 2);
        assert_eq!(s.procfs_errors(), 0);
        assert_eq!(s.fallback_samples(), 0);
        assert!(!s.in_cooldown());
        assert_eq!(s.name(), "procfs-hardened");
    }

    #[test]
    fn hardened_sampler_degrades_to_the_registry_on_garbled_input() {
        let root = fixture("degrade", &["total garbage", "more garbage"]);
        let registry = Arc::new(ThreadRegistry::new());
        let h1 = registry.register();
        let _h2 = registry.register();
        h1.set_state(ThreadState::Running);
        let s = HardenedProcfsSampler::new(
            ProcfsLoadSampler::with_root(&root),
            Box::new(RegistryLoadSampler::new(Arc::clone(&registry))),
        );
        // Garbled procfs → the registry answers (2 runnable threads).
        assert_eq!(s.sample(), 2);
        assert_eq!(s.procfs_errors(), 1);
        assert_eq!(s.fallback_samples(), 1);
        assert!(s.in_cooldown());
    }

    #[test]
    fn hardened_sampler_rate_limits_procfs_re_reads() {
        let root = fixture("ratelimit", &["garbage"]);
        let s = HardenedProcfsSampler::with_cooldown(
            ProcfsLoadSampler::with_root(&root),
            Box::new(FixedLoadSampler { runnable: 7 }),
            Duration::from_secs(3600),
        );
        // First sample probes procfs, fails, starts the cooldown.
        assert_eq!(s.sample(), 7);
        assert_eq!(s.procfs_errors(), 1);
        // Many more samples: all served by the fallback, procfs untouched.
        for _ in 0..100 {
            assert_eq!(s.sample(), 7);
        }
        assert_eq!(s.procfs_errors(), 1, "cooldown must prevent re-probing");
        assert_eq!(s.fallback_samples(), 101);
    }

    #[test]
    fn hardened_sampler_recovers_after_the_cooldown() {
        let root = fixture("recover", &["garbage"]);
        let s = HardenedProcfsSampler::with_cooldown(
            ProcfsLoadSampler::with_root(&root),
            Box::new(FixedLoadSampler { runnable: 7 }),
            Duration::from_millis(1),
        );
        assert_eq!(s.sample(), 7);
        assert_eq!(s.procfs_errors(), 1);
        // Repair the fixture and wait out the cooldown: procfs answers again.
        fs::write(
            root.join("1000").join("stat"),
            "1000 (worker) R 1 1000 1000 0 -1",
        )
        .expect("fixture rewrite");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(s.sample(), 1);
        assert!(!s.in_cooldown());
        assert_eq!(s.procfs_errors(), 1);
    }

    #[test]
    fn hardened_sampler_handles_a_missing_mount() {
        let s = HardenedProcfsSampler::new(
            ProcfsLoadSampler::with_root("/definitely/not/a/dir"),
            Box::new(FixedLoadSampler { runnable: 3 }),
        );
        assert_eq!(s.sample(), 3);
        assert_eq!(s.procfs_errors(), 1);
    }
}
