//! The paper's load-control figures as claims on the discrete-event
//! simulator, which runs the real control plane (`Policy`,
//! `SleepSlotBuffer`, the controller cycle) on virtual time.
//!
//! Each test pins a figure's qualitative claim, not its numbers: the DES is
//! not calibrated against a machine, so absolute throughputs differ from the
//! paper's plots while the shapes must not.
//!
//! * Figs. 1 and 9 — uncontrolled spinning collapses past 100 % load, load
//!   control stays flat, and the two curves part at capacity.
//! * Fig. 8 — the controller holds the runnable count at the sleep target it
//!   publishes.
//! * Fig. 10 — a 1–10 ms update interval is good enough; 100 ms costs
//!   throughput.
//!
//! `fixed` with no target is the uncontrolled baseline: it publishes a sleep
//! target of zero, so nobody parks.  All cells run under `LC_TEST_SEED`
//! (default `0xdecaf000`), the suite-wide reproducibility knob.

use load_control_suite::des::engine::{run, DesConfig};
use load_control_suite::des::metrics::RunReport;
use load_control_suite::des::workload::{Arrivals, Dist, WorkloadSpec};
use std::time::Duration;

/// Hardware contexts of the simulated machine.
const CONTEXTS: usize = 8;

/// One closed-loop cell: `workers` threads on [`CONTEXTS`] contexts, each
/// looping over a 2 µs critical section and an exponential 12 µs think
/// time, with a 100 ms sleep timeout.
fn cell(policy: &str, workers: usize, tick: Duration, horizon: Duration) -> RunReport {
    let mut config = DesConfig::new(workers, CONTEXTS);
    config.spec.policy = policy.parse().unwrap_or_else(|e| panic!("{e}"));
    config.tick = tick;
    config.sleep_timeout = Duration::from_millis(100);
    config.horizon = horizon;
    config.seed = lc_des::test_seed();
    config.workload = WorkloadSpec {
        arrivals: Arrivals::Closed,
        critical: Dist::Fixed(Duration::from_micros(2)),
        think: Dist::Exp {
            mean: Duration::from_micros(12),
        },
        phases: Vec::new(),
    };
    run(config).unwrap_or_else(|e| panic!("cell {policy}/{workers}: {e}"))
}

/// Completions of `policy` at each worker count, over a 200 ms horizon with
/// a 1 ms controller tick.
fn load_sweep(policy: &str, workers: &[usize]) -> Vec<u64> {
    workers
        .iter()
        .map(|&w| {
            cell(
                policy,
                w,
                Duration::from_millis(1),
                Duration::from_millis(200),
            )
            .completed
        })
        .collect()
}

#[test]
fn figs_1_and_9_spinning_collapses_past_capacity_and_load_control_stays_flat() {
    let workers = [4, 8, 16, 32, 64];
    let fixed = load_sweep("fixed", &workers);
    let paper = load_sweep("paper", &workers);
    for ((&w, &f), &p) in workers.iter().zip(&fixed).zip(&paper) {
        if w <= CONTEXTS {
            // Within capacity the target is zero: the controller changes
            // nothing, down to the last completion.
            assert_eq!(p, f, "{w} workers: load control moved an unloaded run");
        } else {
            assert!(
                p > f,
                "{w} workers: load control ({p}) did not beat spinning ({f})"
            );
        }
    }
    // Completions at 64 workers (800 % load) over those at 8 (100 %).
    let kept = |counts: &[u64]| counts[4] as f64 / counts[1] as f64;
    let collapse = kept(&fixed);
    assert!(
        collapse <= 0.25,
        "spinning kept {collapse:.3} of its peak at 8x load; it no longer collapses ({fixed:?})"
    );
    let flat = kept(&paper);
    assert!(
        flat >= 0.95,
        "load control kept only {flat:.3} of its peak at 8x load ({paper:?})"
    );
}

#[test]
fn fig_8_running_threads_track_a_pinned_sleep_target() {
    let workers = 32;
    for target in [4u64, 16, 24] {
        let report = cell(
            &format!("fixed(target={target})"),
            workers,
            Duration::from_millis(1),
            Duration::from_millis(200),
        );
        // The first cycle publishes the target, and only the waiters queued
        // at that instant can claim; from the second cycle on, the books
        // must sit at the target.
        assert!(report.trace.len() > 100, "trace too short");
        for row in &report.trace[1..] {
            assert_eq!(
                (row.sleepers, row.runnable),
                (target, workers as u64 - target),
                "target {target}: row at {} ns left the target",
                row.at_ns
            );
        }
    }
}

#[test]
fn fig_10_a_1_to_10_ms_update_interval_is_good_enough_and_100_ms_is_not() {
    let throughput = |tick_ms: u64| {
        cell(
            "paper",
            12,
            Duration::from_millis(tick_ms),
            Duration::from_millis(400),
        )
        .completed as f64
    };
    let fast = throughput(1);
    let seven = throughput(7);
    for (tick_ms, t) in [(7, seven), (10, throughput(10))] {
        assert!(
            t >= 0.97 * fast,
            "a {tick_ms} ms interval kept only {:.3} of the 1 ms throughput",
            t / fast
        );
    }
    let slow = throughput(100);
    assert!(
        slow <= 0.95 * seven,
        "a 100 ms interval kept {:.3} of the 7 ms throughput; it no longer costs anything",
        slow / seven
    );
}
