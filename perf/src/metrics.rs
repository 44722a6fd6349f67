//! The benchmark's contract as data: workloads, metrics, units, directions
//! and bounds.  `BENCHMARK.json` is generated from these tables, and a test
//! keeps the committed file equal to them.

use crate::workload::Kind;

/// Seconds one run measures (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u32 = 24;

pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::Uncontended => "one thread, T = 0: the wrapper's cost when nothing contends and nothing is overloaded; reference is the raw tp-queue lock",
        Kind::Handoff => "nproc threads on one lock, load = capacity so T = 0: lock hand-off and the gate poll in the spin loop; nobody parks; reference is the raw tp-queue lock",
        Kind::OversubMutex => "min(4*nproc,16) threads on one LcMutex: claim, park/wake, controller and sampler decide throughput; reference is nproc threads on the same lock",
        Kind::OversubRw => "same thread count on one LcRwLock, 90% reads: the same gate and slot buffer used by shared-mode waiters; reference is nproc threads on the same lock",
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    gated("setup_s", "s", "lower", 0.25),
    gated("norm_ops_per_s", "1/s", "higher", 0.10),
    gated("vs_reference_ratio", "ratio", "higher", 0.10),
    gated("acquire_p50_ratio", "ratio", "lower", 0.15),
    gated("jain_fairness", "ratio", "higher", 0.05),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: "lower",
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    ns("perf.timer.now_ns"),
    ns("locks.tp-queue.uncontended_ns"),
    ns("locks.mcs.uncontended_ns"),
    ns("locks.ticket.uncontended_ns"),
    ns("locks.tas.uncontended_ns"),
    ns("locks.blocking.uncontended_ns"),
    ns("locks.flat-combining.uncontended_ns"),
    ns("locks.rwlock.read_uncontended_ns"),
    ns("locks.rwlock.write_uncontended_ns"),
    ns("locks.tp-queue.handoff_ns"),
    ns("locks.mcs.handoff_ns"),
    ns("locks.ticket.handoff_ns"),
    ns("locks.parker.park_unpark_rtt_ns"),
    ns("locks.stats.wait_record_ns"),
    layer("locks.tp-queue.oversub_raw_ops_per_s", "1/s", "higher"),
    layer("locks.mcs.oversub_raw_ops_per_s", "1/s", "higher"),
    layer("locks.blocking.oversub_raw_ops_per_s", "1/s", "higher"),
    layer("locks.tp-queue.lc_on_off_ratio", "ratio", "higher"),
    layer("locks.mcs.lc_on_off_ratio", "ratio", "higher"),
    ns("core.lc_lock.lock_ns"),
    ns("core.lc_lock.unlock_ns"),
    ns("core.lc_rwlock.read_uncontended_ns"),
    ns("core.lc_rwlock.write_uncontended_ns"),
    ns("core.lc_semaphore.uncontended_ns"),
    ns("core.thread_ctx.register_worker_ns"),
    ns("core.thread_ctx.gate_check_ns"),
    ns("core.thread_ctx.gate_check_full_ns"),
    ns("core.thread_ctx.claim_cancel_ns"),
    ns("core.thread_ctx.claim_park_resume_rtt_ns"),
    ns("core.async_gate.suspend_resume_rtt_ns"),
    ns("core.slots.try_claim_ns"),
    ns("core.slots.leave_ns"),
    ns("core.slots.wake_ns_per_sleeper.s8"),
    ns("core.slots.wake_ns_per_sleeper.s64"),
    ns("core.slots.set_shard_targets_ns"),
    ns("core.slots.stats_ns"),
    ns("core.controller.run_cycle_ns.s0"),
    ns("core.controller.run_cycle_ns.s8"),
    ns("core.controller.run_cycle_ns.s64"),
    ns("core.controller.run_cycle_ns.s64x4"),
    ns("core.policy.paper.target_ns"),
    ns("core.policy.pid.target_ns"),
    ns("core.policy.hysteresis.target_ns"),
    ns("core.policy.latency.target_ns"),
    ns("core.policy.autotune.target_ns"),
    ns("core.spec.from_spec_ns"),
    ns("accounting.registry.sample_ns.t8"),
    ns("accounting.registry.sample_ns.t64"),
    ns("accounting.registry.set_state_ns"),
    ns("accounting.procfs.sample_ns"),
    ns("accounting.procfs-hardened.sample_ns"),
    ns("shm.buffer.try_claim_ns"),
    ns("shm.buffer.leave_ns"),
    ns("shm.buffer.park_unpark_rtt_ns"),
    ns("shm.buffer.post_ack_ns"),
    ns("shm.gate.maybe_sleep_idle_ns"),
    ns("shm.controller.run_cycle_ns.s8"),
    layer("des.engine.events_per_s", "1/s", "higher"),
    // From the traced pass over the run's workload.
    layer("core.thread_ctx.sleeps", "count", "lower"),
    layer("core.thread_ctx.sleeps_per_kop", "1/kop", "lower"),
    layer("core.slots.claim_races", "count", "lower"),
    layer("core.slots.claim_success_ratio", "ratio", "higher"),
    layer("core.slots.park_wait_p50_ms", "ms", "lower"),
    layer("core.slots.park_wait_p99_ms", "ms", "lower"),
    layer("core.controller.cycles", "count", "higher"),
    layer("core.controller.wakes", "count", "lower"),
    layer("core.controller.busy_share", "ratio", "lower"),
    layer("core.controller.cycle_lateness_p99_us", "us", "lower"),
    layer("perf.trace.overhead_ratio", "ratio", "higher"),
    layer("perf.trace.acquire_share", "ratio", "lower"),
    layer("perf.trace.hold_share", "ratio", "higher"),
    layer("perf.trace.release_share", "ratio", "lower"),
    layer("perf.trace.think_share", "ratio", "higher"),
    layer("perf.first_window_ratio", "ratio", "higher"),
    // The raw numbers of the traced run's untraced pass: reported, never
    // gated (A/A spread on the reference box: 5-11 %, the tail ratio 2-15 %).
    layer("perf.ops_per_s", "1/s", "higher"),
    layer("perf.norm_ops_per_s", "1/s", "higher"),
    ns("perf.acquire_p50_ns"),
    ns("perf.acquire_p99_ns"),
    layer("perf.acquire_p99_ratio", "ratio", "lower"),
    layer("perf.speed_factor", "ratio", "higher"),
    layer("perf.peak_rss_kb", "kB", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|&k| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                k.name(),
                why(k)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: lc-perf --benchmark-json"
        );
    }

    #[test]
    fn the_tables_stay_inside_the_contract() {
        let names: Vec<&str> = Kind::ALL
            .iter()
            .map(|k| k.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(Kind::ALL
            .iter()
            .all(|&k| why(k).len() <= 200 && !why(k).contains('\n')));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
