//! Latency-SLO regression suite: deterministic DES cells proving the
//! `latency(target_p99=..)` governor's contract end to end.
//!
//! The paper's controller (and a PID around the same rule) parks the excess
//! until the sleep timeout, so the p99 park wait *is* the timeout — a missed
//! 50 ms SLO with a 100 ms timeout.  The latency governor recycles the
//! oldest sleepers through the slot buffer fast enough that no one ages past
//! the target; it needs `wake_order=window` to do so, because FIFO wake
//! order strands the high-index sleepers it never reaches.  These tests pin
//! both halves of that story on a small deterministic population, plus the
//! autotune meta-policy's convergence guarantee.
//!
//! All cells run under `LC_TEST_SEED` (default `0xdecaf000`), the suite-wide
//! reproducibility knob.

use load_control_suite::core::policy::{AutotuneInner, AutotuneObjective, AutotunePolicy};
use load_control_suite::core::WakeOrder;
use load_control_suite::des::engine::{run, DesConfig};
use load_control_suite::des::metrics::RunReport;
use load_control_suite::des::workload::WorkloadSpec;
use std::time::Duration;

const TARGET_P99_NS: u64 = 50_000_000;

/// One deterministic contended cell: 4000 workers on 16 contexts, a 100 ms
/// sleep timeout inside a 300 ms horizon (so timeout departures happen and
/// the histogram sees them).
fn cell(policy: &str, order: WakeOrder) -> RunReport {
    let mut config = DesConfig::new(4000, 16);
    config.spec = format!("policy={policy}; shards=4; wake_order={order}")
        .parse()
        .unwrap_or_else(|e| panic!("cell {policy}/{order}: {e}"));
    config.horizon = Duration::from_millis(300);
    config.sleep_timeout = Duration::from_millis(100);
    config.seed = lc_des::test_seed();
    config.workload = WorkloadSpec::contended();
    run(config).unwrap_or_else(|e| panic!("cell {policy}/{order}: {e}"))
}

#[test]
fn latency_policy_meets_the_p99_target_where_paper_misses() {
    let paper = cell("paper", WakeOrder::Fifo);
    let latency = cell("latency(target_p99=50)", WakeOrder::Window);

    // The baseline parks the excess until the timeout: its p99 is the
    // timeout, far over the target.
    assert!(
        paper.wait_p99_ns > TARGET_P99_NS,
        "paper unexpectedly met the SLO (p99={}); the cell no longer \
         exercises the miss the governor exists to fix",
        paper.wait_p99_ns
    );
    // The governor holds the one-sided p99 estimate under the target.
    assert!(
        latency.wait_p99_ns <= TARGET_P99_NS,
        "latency governor missed its own SLO: p99={} > {TARGET_P99_NS}",
        latency.wait_p99_ns
    );
    // The recycling is not free — but the cost is bounded: the governor
    // keeps at least a fifth of the baseline's completions.
    assert!(
        latency.completed * 5 >= paper.completed,
        "latency SLO cost unbounded: {} completions vs paper's {}",
        latency.completed,
        paper.completed
    );
    // And both sides made real progress (guards against a vacuous cell).
    assert!(paper.completed > 1000, "baseline cell did no work");
    assert!(latency.wait_count > 0, "no wait evidence recorded");
}

#[test]
fn latency_policy_needs_window_wake_order_to_reach_old_sleepers() {
    // Same governor, FIFO wake order: wakes start at slot 0 every time, so
    // the oldest claims (wherever they sit in the ring) can age past the
    // target.  This is the cell that motivates `wake_order=window`.
    let fifo = cell("latency(target_p99=50)", WakeOrder::Fifo);
    let window = cell("latency(target_p99=50)", WakeOrder::Window);
    assert!(
        window.wait_p99_ns <= TARGET_P99_NS,
        "window order missed: p99={}",
        window.wait_p99_ns
    );
    assert!(
        fifo.wait_p99_ns > window.wait_p99_ns,
        "FIFO wake order did not age sleepers worse than window order \
         (fifo p99={}, window p99={}) — the wake_order knob lost its story",
        fifo.wait_p99_ns,
        window.wait_p99_ns
    );
}

#[test]
fn autotune_converges_within_the_hand_tuned_pid_objective() {
    // The meta-policy judged on p99 must not end up worse than the fixed
    // gains it started from (25 % slack: the p99 estimate is bucketed).
    let pid = cell("pid(kp=0.5, ki=0.1)", WakeOrder::Window);
    let tuned = cell("autotune(inner=pid, objective=p99)", WakeOrder::Window);
    assert!(
        tuned.wait_p99_ns <= pid.wait_p99_ns + pid.wait_p99_ns / 4,
        "autotune diverged: p99={} vs hand-tuned pid's {}",
        tuned.wait_p99_ns,
        pid.wait_p99_ns
    );
    assert!(tuned.completed > 0, "autotune cell did no work");
}

#[test]
fn autotune_objective_history_improves_monotonically_under_test_seed() {
    // Directly on the policy (no simulator): the adopt-iff-better rule makes
    // the per-window best-so-far history non-increasing by construction; a
    // regression here means candidate judging broke.  Seeded by LC_TEST_SEED
    // so a failure names its reproduction.
    let seed = lc_des::test_seed();
    let mut policy =
        AutotunePolicy::with_params(AutotuneInner::Pid, AutotuneObjective::P99, 8, seed);
    let mut target = 0u64;
    for cycle in 0..400u64 {
        let mut inputs = lc_core::policy::PolicyInputs {
            load: 48,
            capacity: 16,
            headroom: 0,
            current_target: target,
            stats: lc_core::controller::ControllerStats::default(),
            wait: lc_locks::stats::WaitObservation::default(),
            interval: Duration::from_millis(1),
        };
        // A crude plant: waits shrink as the target absorbs the excess.
        let absorbed = (target as f64 / 32.0).min(1.0);
        inputs.wait.count = 4 + cycle % 3;
        inputs.wait.p99_ns = (80_000_000.0 * (1.0 - 0.9 * absorbed)) as u64;
        target = policy.target(&inputs);
    }
    let history = policy.objective_history();
    assert_eq!(history.len(), 400 / 8, "window count drifted");
    for pair in history.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "objective history regressed under seed {seed:#x}: {history:?}"
        );
    }
    assert!(
        policy.best_cost().is_finite(),
        "seed {seed:#x}: no window was ever judged"
    );
}
