//! What the root tests that drive real threads share: a controller tuned to
//! force overload, one way to run N threads on a body, one rule for runs
//! whose condition depends on scheduling, and one check of the sleep books.
//!
//! Every test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

pub mod pool;

use load_control_suite::core::slots::SlotBufferStats;
use load_control_suite::core::{LoadControl, LoadControlConfig, LoadControlSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A control on `config` built from the spec string `spec`, daemon not
/// started.
pub fn control(config: LoadControlConfig, spec: &str) -> Arc<LoadControl> {
    let parsed: LoadControlSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    LoadControl::from_spec(config, &parsed).unwrap_or_else(|e| panic!("{e}"))
}

/// A running controller on a pretend `capacity`-context machine with 1 ms
/// cycles and a 5 ms sleep timeout, so a handful of threads is sustained
/// overload.
pub fn aggressive_control(capacity: usize) -> Arc<LoadControl> {
    let control = control(
        LoadControlConfig::for_capacity(capacity)
            .with_update_interval(Duration::from_millis(1))
            .with_sleep_timeout(Duration::from_millis(5)),
        "",
    );
    control.start_controller();
    control
}

/// Runs `body(thread)` on `threads` threads, each registered as a worker with
/// `control` when one is given, and joins them all.  A panic on any thread
/// fails the caller once every thread has finished.
pub fn run_threads<F>(threads: usize, control: Option<&Arc<LoadControl>>, body: F)
where
    F: Fn(usize) + Sync,
{
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let body = &body;
            scope.spawn(move || {
                let _worker = control.map(|control| control.register_worker());
                body(thread);
            });
        }
    });
}

/// About `iters` iterations of busy work: a critical section or think time
/// long enough that waiters spin past the slot-check period and meet the
/// gate (a release build on one CPU otherwise finishes before any contention
/// window opens).
pub fn spin(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Checks `control`'s sleep books and returns them: every claim was given
/// back (`S == W`), no more waits were recorded than claims (a claim
/// cancelled because the lock was won before the park records none), and
/// the wait quantiles are ordered.
pub fn check_books(control: &LoadControl) -> SlotBufferStats {
    let stats = control.buffer().stats();
    assert_eq!(
        stats.ever_slept, stats.woken_and_left,
        "unbalanced sleep books: {stats}"
    );
    let wait = stats.wait;
    assert!(
        wait.count <= stats.ever_slept,
        "{} waits recorded for {} claims",
        wait.count,
        stats.ever_slept
    );
    assert!(
        wait.p50_ns <= wait.p99_ns && wait.p99_ns <= wait.max_ns,
        "disordered wait quantiles: {wait:?}"
    );
    stats
}

/// Repeats `run` — one short drive, answering whether its counter has met
/// the test's condition — until it has, checking `books` after every run.
/// How soon a condition that depends on scheduling is met is luck, so
/// passing 5 s only reports, once; 60 s is a failure.
pub fn run_until(books: Option<&LoadControl>, mut run: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut reported = false;
    let mut runs = 0;
    loop {
        let done = run();
        runs += 1;
        let stats = books.map(check_books);
        if done {
            return;
        }
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(60),
            "not done after {runs} runs: {stats:?}"
        );
        if waited > Duration::from_secs(5) && !reported {
            eprintln!("still waiting after {runs} runs: {stats:?}");
            reported = true;
        }
    }
}
