//! Reproductions of every figure in the paper's evaluation.
//!
//! Each `figNN` function runs the corresponding experiment on the simulator
//! (64 hardware contexts, like the paper's Niagara II) and returns the data
//! series the paper plots.  Pass `quick = true` for smoke-test-sized runs
//! (used by the test suite); `quick = false` runs the full-size experiment.

use lc_sim::{LockPolicy, MicroState, SimConfig, SimReport, Simulation, MICROS, MILLIS};
use lc_workloads::scenarios::{self, ScenarioKind};

/// The data behind one reproduced figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig01"`.
    pub id: &'static str,
    /// Human-readable title (matches the paper's caption).
    pub title: &'static str,
    /// Column names.
    pub header: Vec<String>,
    /// Numeric rows.
    pub rows: Vec<Vec<f64>>,
    /// Shape observations derived from the data (what EXPERIMENTS.md records).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Prints the figure as CSV plus its notes, to stdout.
    pub fn print(&self) {
        println!("# {} — {}", self.id, self.title);
        println!("{}", self.header.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| crate::fmt(*v)).collect();
            println!("{}", cells.join(","));
        }
        for note in &self.notes {
            println!("# note: {note}");
        }
        println!();
    }

    /// Looks up a column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }
}

/// A figure-reproduction entry point: `quick` selects smoke-test sizing.
pub type FigureRunner = fn(bool) -> FigureResult;

/// The registry of all reproduced figures: `(id, runner)`.
pub const FIGURES: &[(&str, FigureRunner)] = &[
    ("fig01", fig01_motivation),
    ("fig03", fig03_priority_inversion),
    ("fig04", fig04_blocking_overload),
    ("fig05", fig05_backoff_variability),
    ("fig06", fig06_workload_variability),
    ("fig08", fig08_bump_test),
    ("fig09", fig09_contention_sweep),
    ("fig10", fig10_update_interval),
    ("fig11", fig11_applications),
    ("fig12", fig12_interference),
];

const CONTEXTS: usize = 64;

fn duration(quick: bool, full_ms: u64) -> u64 {
    if quick {
        (full_ms / 5).max(10)
    } else {
        full_ms
    }
}

/// Runs one application scenario with `threads` clients and the given latch
/// policy on the 64-context machine.
fn run_app(
    kind: ScenarioKind,
    policy: LockPolicy,
    threads: usize,
    duration_ms: u64,
    lc_capacity: usize,
) -> SimReport {
    let config = SimConfig::new(CONTEXTS)
        .with_duration_ms(duration_ms)
        .with_lc_capacity(lc_capacity)
        .with_seed(0xA5_u64.wrapping_mul(threads as u64 + 1));
    let mut sim = Simulation::new(config);
    let scenario = scenarios::AppScenario::build(kind, &mut sim, policy);
    sim.spawn_n(threads, &scenario.mix);
    sim.run()
}

// ---------------------------------------------------------------------------
// Figure 1 — motivation: blocking vs spinning vs ideal as load grows.
// ---------------------------------------------------------------------------

/// Figure 1: throughput of TM-1 under a blocking (pthread-style adaptive)
/// mutex and a preemption-resistant spinlock as the thread count grows from
/// underload to 300 % load; the "ideal" series scales linearly to 64 threads
/// and stays flat.
pub fn fig01_motivation(quick: bool) -> FigureResult {
    let dur = duration(quick, 100);
    let points: &[usize] = if quick {
        &[8, 64, 128]
    } else {
        &[1, 8, 16, 32, 48, 64, 80, 96, 128, 160, 192]
    };
    let mut rows = Vec::new();
    let mut per_thread_peak = 0.0f64;
    for &n in points {
        let blocking = run_app(ScenarioKind::Tm1, LockPolicy::adaptive(), n, dur, CONTEXTS);
        let spinning = run_app(ScenarioKind::Tm1, LockPolicy::spin(), n, dur, CONTEXTS);
        let spin_tps = spinning.throughput_tps();
        if n <= CONTEXTS {
            per_thread_peak = per_thread_peak.max(spin_tps / n as f64);
        }
        rows.push(vec![n as f64, blocking.throughput_tps(), spin_tps, 0.0]);
    }
    for row in &mut rows {
        let n = row[0];
        row[3] = per_thread_peak * n.min(CONTEXTS as f64);
    }
    let mut notes = Vec::new();
    if let (Some(last), Some(best)) = (rows.last(), rows.iter().map(|r| r[2]).reduce(f64::max)) {
        notes.push(format!(
            "spinning retains {:.0}% of its peak at the highest load (paper: collapses past 100% load)",
            last[2] / best * 100.0
        ));
    }
    if let (Some(last), Some(best)) = (rows.last(), rows.iter().map(|r| r[1]).reduce(f64::max)) {
        notes.push(format!(
            "blocking retains {:.0}% of its peak at the highest load (paper: collapses once waiters block)",
            last[1] / best * 100.0
        ));
    }
    FigureResult {
        id: "fig01",
        title: "Weaknesses of blocking and spinning synchronization (TM-1, 64 contexts)",
        header: vec![
            "threads".into(),
            "blocking_tps".into(),
            "spinning_tps".into(),
            "ideal_tps".into(),
        ],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 3 — CPU-time breakdown of the spinning run.
// ---------------------------------------------------------------------------

/// Figure 3: fraction of on-CPU time spent doing useful work, spinning on a
/// running lock holder (true contention), and spinning on a preempted holder
/// (priority inversion), for TM-1 under the preemption-resistant spinlock.
pub fn fig03_priority_inversion(quick: bool) -> FigureResult {
    let dur = duration(quick, 100);
    let points: &[usize] = if quick {
        &[31, 95]
    } else {
        &[15, 31, 47, 63, 71, 95, 127, 159, 191]
    };
    let mut rows = Vec::new();
    for &n in points {
        let r = run_app(ScenarioKind::Tm1, LockPolicy::spin(), n, dur, CONTEXTS);
        rows.push(vec![
            n as f64,
            r.cpu_fraction(MicroState::Work) * 100.0,
            r.cpu_fraction(MicroState::SpinContention) * 100.0,
            r.cpu_fraction(MicroState::SpinPreempted) * 100.0,
        ]);
    }
    let over = rows
        .iter()
        .filter(|r| r[0] > CONTEXTS as f64)
        .map(|r| r[3])
        .fold(0.0f64, f64::max);
    let under = rows
        .iter()
        .filter(|r| r[0] < CONTEXTS as f64)
        .map(|r| r[3])
        .fold(0.0f64, f64::max);
    let notes = vec![format!(
        "max priority-inversion share: {under:.0}% below 100% load vs {over:.0}% above (paper: negligible vs up to 85%)"
    )];
    FigureResult {
        id: "fig03",
        title: "Spinning: priority inversion breakdown (TM-1, TP spinlock)",
        header: vec![
            "threads".into(),
            "work_pct".into(),
            "contention_pct".into(),
            "prio_inversion_pct".into(),
        ],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 4 — blocking mutex: throughput and context-switch rate.
// ---------------------------------------------------------------------------

/// Figure 4: TM-1 under the adaptive (spin-then-block) mutex — throughput
/// stalls and the context-switch rate explodes once waiters start blocking.
pub fn fig04_blocking_overload(quick: bool) -> FigureResult {
    let dur = duration(quick, 100);
    let points: &[usize] = if quick {
        &[16, 96]
    } else {
        &[1, 8, 16, 24, 32, 40, 48, 64, 80, 96, 112, 128]
    };
    let mut rows = Vec::new();
    for &n in points {
        let r = run_app(ScenarioKind::Tm1, LockPolicy::adaptive(), n, dur, CONTEXTS);
        rows.push(vec![
            n as f64,
            r.throughput_tps(),
            r.switch_rate_per_sec() / 1_000.0,
        ]);
    }
    let low = rows.first().map(|r| r[2]).unwrap_or(0.0);
    let high = rows.last().map(|r| r[2]).unwrap_or(0.0);
    let notes = vec![format!(
        "context-switch rate grows from {low:.1}k/s to {high:.1}k/s as load rises (paper: every handoff eventually costs a switch)"
    )];
    FigureResult {
        id: "fig04",
        title: "Blocking: scheduler overload (TM-1, adaptive mutex)",
        header: vec![
            "threads".into(),
            "throughput_tps".into(),
            "switch_rate_k_per_s".into(),
        ],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 5 — load-triggered backoff variability.
// ---------------------------------------------------------------------------

/// Figure 5: number of active (runnable) threads over time when the earlier
/// load-triggered backoff scheme targets 32 of 64 contexts with 63 clients —
/// load oscillates widely because sleepers cannot be woken early.
pub fn fig05_backoff_variability(quick: bool) -> FigureResult {
    let dur = duration(quick, 1_000);
    let config = SimConfig::new(CONTEXTS)
        .with_duration_ms(dur)
        .with_lc_capacity(32)
        .with_seed(51);
    let mut sim = Simulation::new(config);
    let scenario =
        scenarios::AppScenario::build(ScenarioKind::Tm1, &mut sim, LockPolicy::load_backoff());
    sim.spawn_n(63, &scenario.mix);
    let report = sim.run();
    let rows: Vec<Vec<f64>> = report
        .load_timeline
        .iter()
        .map(|(t, n)| vec![*t as f64 / 1e9, *n as f64])
        .collect();
    let notes = vec![format!(
        "runnable threads: mean {:.1}, stddev {:.1} around the 32-context target (paper: wild oscillation)",
        report.mean_runnable(),
        report.runnable_stddev()
    )];
    FigureResult {
        id: "fig05",
        title: "Blocking backoff: load variability (TM-1, 63 clients, target 32)",
        header: vec!["time_s".into(), "active_threads".into()],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — workload variability at short time scales.
// ---------------------------------------------------------------------------

/// Figure 6: instantaneous runnable-thread count of TPC-C with 32 clients on
/// a 64-context machine over a half-second window.
pub fn fig06_workload_variability(quick: bool) -> FigureResult {
    let dur = duration(quick, 500);
    let mut config = SimConfig::new(CONTEXTS).with_duration_ms(dur).with_seed(66);
    config.sample_interval = MILLIS;
    let mut sim = Simulation::new(config);
    let scenario = scenarios::AppScenario::build(ScenarioKind::Tpcc, &mut sim, LockPolicy::spin());
    sim.spawn_n(32, &scenario.mix);
    let report = sim.run();
    let rows: Vec<Vec<f64>> = report
        .load_timeline
        .iter()
        .map(|(t, n)| vec![*t as f64 / 1e9, *n as f64])
        .collect();
    let notes = vec![format!(
        "runnable threads vary between {} and {} (mean {:.1}) although 32 clients are connected (paper: 12-24, mean ~16)",
        report.load_timeline.iter().map(|(_, n)| *n).min().unwrap_or(0),
        report.load_timeline.iter().map(|(_, n)| *n).max().unwrap_or(0),
        report.mean_runnable()
    )];
    FigureResult {
        id: "fig06",
        title: "Workload variability at short time scales (TPC-C, 32 clients)",
        header: vec!["time_s".into(), "runnable_threads".into()],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — bump test.
// ---------------------------------------------------------------------------

/// Figure 8: response of the number of running threads to a scripted pattern
/// of sleep-target changes, on the global-lock microbenchmark.
pub fn fig08_bump_test(quick: bool) -> FigureResult {
    let dur = duration(quick, 75);
    // The paper steps the target between 0 and ~40 sleepers over 75 ms.
    let schedule = vec![
        (5 * MILLIS, 8usize),
        (15 * MILLIS, 24),
        (30 * MILLIS, 16),
        (45 * MILLIS, 32),
        (60 * MILLIS, 4),
    ];
    let mut config = SimConfig::new(CONTEXTS)
        .with_duration_ms(dur)
        .with_manual_targets(schedule.clone())
        .with_seed(88);
    config.sample_interval = 250 * MICROS;
    let mut sim = Simulation::new(config);
    let scenario =
        scenarios::microbenchmark(&mut sim, LockPolicy::load_controlled(), 80, 2 * MICROS);
    sim.spawn_n(CONTEXTS, &scenario.mix);
    let report = sim.run();
    let target_at = |t_ns: u64| -> usize {
        let mut current = 0usize;
        for (at, target) in &schedule {
            if *at <= t_ns {
                current = *target;
            }
        }
        current
    };
    let rows: Vec<Vec<f64>> = report
        .load_timeline
        .iter()
        .map(|(t, n)| {
            vec![
                *t as f64 / 1e6,
                (CONTEXTS - target_at(*t)) as f64,
                *n as f64,
            ]
        })
        .collect();
    // Quantify tracking error between target and measured running threads.
    let err: f64 = rows.iter().map(|r| (r[1] - r[2]).abs()).sum::<f64>() / rows.len().max(1) as f64;
    let notes = vec![format!(
        "mean |target - measured| = {err:.1} threads (paper: settles within ~200 µs of each step)"
    )];
    FigureResult {
        id: "fig08",
        title: "Bump test: running threads track the sleep target (microbenchmark)",
        header: vec![
            "time_ms".into(),
            "target_running".into(),
            "measured_running".into(),
        ],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — effectiveness as contention varies.
// ---------------------------------------------------------------------------

/// Figure 9: microbenchmark throughput vs the delay between lock requests at
/// 95 % load, 150 % load, and 150 % load with load control.
pub fn fig09_contention_sweep(quick: bool) -> FigureResult {
    let dur = duration(quick, 80);
    let delays: &[u64] = if quick {
        &[12, 100]
    } else {
        &[12, 25, 50, 100, 200]
    };
    let mut rows = Vec::new();
    for &delay_us in delays {
        let run = |threads: usize, policy: LockPolicy| {
            let config = SimConfig::new(CONTEXTS)
                .with_duration_ms(dur)
                .with_seed(delay_us * 7 + threads as u64);
            let mut sim = Simulation::new(config);
            let scenario = scenarios::microbenchmark(&mut sim, policy, 60, delay_us * MICROS);
            sim.spawn_n(threads, &scenario.mix);
            sim.run().throughput_tps() / 1_000.0
        };
        let load95 = run(61, LockPolicy::spin());
        let load150 = run(96, LockPolicy::spin());
        let load150_lc = run(96, LockPolicy::load_controlled());
        rows.push(vec![delay_us as f64, load95, load150, load150_lc]);
    }
    let gain: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}µs: LC {:.1}x over uncontrolled spinning at 150% load",
                r[0],
                r[3] / r[2].max(1e-9)
            )
        })
        .collect();
    FigureResult {
        id: "fig09",
        title: "Impact of varying contention for 95% and 150% load (microbenchmark)",
        header: vec![
            "delay_us".into(),
            "ktps_95pct".into(),
            "ktps_150pct".into(),
            "ktps_150pct_lc".into(),
        ],
        rows,
        notes: gain,
    }
}

// ---------------------------------------------------------------------------
// Figure 10 — controller update interval sensitivity.
// ---------------------------------------------------------------------------

/// Figure 10: TM-1 throughput under load control as the controller update
/// interval sweeps from 100 µs to 100 ms, for 98 %, 110 % and 150 % load.
pub fn fig10_update_interval(quick: bool) -> FigureResult {
    let dur = duration(quick, 80);
    let intervals_us: &[u64] = if quick {
        &[1_000, 10_000]
    } else {
        &[100, 300, 1_000, 3_000, 7_000, 10_000, 30_000, 100_000]
    };
    let loads = [(63usize, "98%"), (72, "110%"), (96, "150%")];
    let mut rows = Vec::new();
    for &interval in intervals_us {
        let mut row = vec![interval as f64];
        for (threads, _) in loads {
            let config = SimConfig::new(CONTEXTS)
                .with_duration_ms(dur)
                .with_controller_interval(interval * MICROS)
                .with_seed(interval + threads as u64);
            let mut sim = Simulation::new(config);
            let scenario = scenarios::AppScenario::build(
                ScenarioKind::Tm1,
                &mut sim,
                LockPolicy::load_controlled(),
            );
            sim.spawn_n(threads, &scenario.mix);
            row.push(sim.run().throughput_tps() / 1_000.0);
        }
        rows.push(row);
    }
    FigureResult {
        id: "fig10",
        title: "Effect of the load-controller update interval (TM-1)",
        header: vec![
            "update_interval_us".into(),
            "ktps_98pct".into(),
            "ktps_110pct".into(),
            "ktps_150pct".into(),
        ],
        rows,
        notes: vec![
            "the paper picks 7 ms: long enough to be cheap, short enough to stay current".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — application performance across thread counts.
// ---------------------------------------------------------------------------

/// Figure 11: normalized throughput of Raytrace, TM-1 and TPC-C for the
/// pthread-style adaptive mutex, the TP spinlock, and load control, from 1 to
/// 127 threads (64 = 100 % load).
pub fn fig11_applications(quick: bool) -> FigureResult {
    let dur = duration(quick, 80);
    let points: &[usize] = if quick {
        &[31, 95]
    } else {
        &[1, 15, 31, 63, 71, 95, 127]
    };
    let apps = [
        ScenarioKind::Raytrace,
        ScenarioKind::Tm1,
        ScenarioKind::Tpcc,
    ];
    let policies: [(&str, LockPolicy); 3] = [
        ("pthread", LockPolicy::adaptive()),
        ("tp-mcs", LockPolicy::spin()),
        ("lc", LockPolicy::load_controlled()),
    ];
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (app_idx, app) in apps.iter().enumerate() {
        let mut raw: Vec<Vec<f64>> = Vec::new();
        for &n in points {
            let mut row = vec![app_idx as f64, n as f64];
            for (_, policy) in policies {
                let r = run_app(*app, policy, n, dur, CONTEXTS);
                row.push(r.throughput_tps());
            }
            raw.push(row);
        }
        // Normalize by the best observed throughput for this application.
        let peak = raw
            .iter()
            .flat_map(|r| r[2..].iter().copied())
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        for r in &mut raw {
            for v in &mut r[2..] {
                *v = *v / peak * 100.0;
            }
        }
        // Shape note: retention of LC vs TP at the highest load point.
        if let Some(last) = raw.last() {
            notes.push(format!(
                "{}: at {} threads lc retains {:.0}% of peak vs {:.0}% for tp-mcs and {:.0}% for pthread",
                app.label(),
                last[1],
                last[4],
                last[3],
                last[2]
            ));
        }
        rows.extend(raw);
    }
    FigureResult {
        id: "fig11",
        title:
            "Application performance as thread count varies (normalized, 64 threads = 100% load)",
        header: vec![
            "app_index".into(),
            "threads".into(),
            "pthread_norm_pct".into(),
            "tpmcs_norm_pct".into(),
            "lc_norm_pct".into(),
        ],
        rows,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — interference between processes.
// ---------------------------------------------------------------------------

/// Figure 12: two TM-1 instances share the machine.  "Self" always uses load
/// control and offers 100 % load; "other" offers 0–150 % extra load, with and
/// without load control of its own.
pub fn fig12_interference(quick: bool) -> FigureResult {
    let dur = duration(quick, 80);
    let extra_loads: &[usize] = if quick { &[64] } else { &[0, 32, 64, 96] };
    let mut rows = Vec::new();
    for &extra in extra_loads {
        let run_pair = |other_uses_lc: bool| -> (f64, f64) {
            let config = SimConfig::new(CONTEXTS)
                .with_duration_ms(dur)
                .with_seed(1200 + extra as u64 + other_uses_lc as u64);
            let mut sim = Simulation::new(config);
            sim.configure_group(1, CONTEXTS, other_uses_lc);
            let self_scenario = scenarios::AppScenario::build(
                ScenarioKind::Tm1,
                &mut sim,
                LockPolicy::load_controlled(),
            );
            let other_policy = if other_uses_lc {
                LockPolicy::load_controlled()
            } else {
                LockPolicy::spin()
            };
            let other_scenario =
                scenarios::AppScenario::build(ScenarioKind::Tm1, &mut sim, other_policy);
            sim.spawn_n(CONTEXTS, &self_scenario.mix);
            for _ in 0..extra {
                sim.spawn_in_group(&other_scenario.mix, 1);
            }
            let report = sim.run();
            (
                report.group_throughput_tps(0) / 1_000.0,
                report.group_throughput_tps(1) / 1_000.0,
            )
        };
        let (self_tps_nolc, other_tps_nolc) = run_pair(false);
        let (self_tps_lc, other_tps_lc) = run_pair(true);
        rows.push(vec![
            (extra as f64 / CONTEXTS as f64) * 100.0,
            self_tps_nolc,
            other_tps_nolc,
            self_tps_lc,
            other_tps_lc,
        ]);
    }
    let notes = vec![
        "self uses load control in every configuration; columns compare an uncontrolled vs load-controlled competitor".into(),
    ];
    FigureResult {
        id: "fig12",
        title: "Cost of interference from other processes (two TM-1 instances)",
        header: vec![
            "other_extra_load_pct".into(),
            "self_ktps_vs_uncontrolled_other".into(),
            "other_ktps_uncontrolled".into(),
            "self_ktps_vs_lc_other".into(),
            "other_ktps_lc".into(),
        ],
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_every_figure_once() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 10);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        for (id, runner) in FIGURES {
            let f = runner(true);
            assert_eq!(f.id, *id);
            assert!(!f.rows.is_empty(), "{id}: no rows");
            for row in &f.rows {
                assert_eq!(row.len(), f.header.len(), "{id}: ragged row {row:?}");
            }
        }
    }

    #[test]
    fn quick_fig01_has_expected_columns_and_monotone_ideal() {
        let f = fig01_motivation(true);
        assert_eq!(f.header.len(), 4);
        assert!(!f.rows.is_empty());
        let ideal: Vec<f64> = f.rows.iter().map(|r| r[3]).collect();
        for w in ideal.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "ideal series must be non-decreasing");
        }
    }

    #[test]
    fn quick_fig03_fractions_are_percentages() {
        let f = fig03_priority_inversion(true);
        for row in &f.rows {
            let sum: f64 = row[1..].iter().sum();
            assert!(sum <= 101.0, "breakdown exceeds 100%: {row:?}");
            for v in &row[1..] {
                assert!(*v >= 0.0);
            }
        }
    }

    #[test]
    fn quick_fig08_tracks_target_direction() {
        let f = fig08_bump_test(true);
        assert!(f.column("measured_running").is_some());
        assert!(!f.rows.is_empty());
    }

    #[test]
    fn quick_fig09_lc_beats_uncontrolled_overload() {
        let f = fig09_contention_sweep(true);
        // At the longer delays LC at 150% load must beat plain spinning at
        // 150% load (the whole point of the paper).
        let last = f.rows.last().unwrap();
        assert!(
            last[3] >= last[2] * 0.9,
            "LC ({}) should not be worse than uncontrolled spinning ({}) at 150% load",
            last[3],
            last[2]
        );
    }

    #[test]
    fn quick_fig12_reports_both_processes() {
        let f = fig12_interference(true);
        assert_eq!(f.header.len(), 5);
        for row in &f.rows {
            assert!(row[1] > 0.0, "self must keep making progress");
        }
    }
}
