//! Megascale policy sweep: every registered control policy, one
//! million-ish simulated waiters, one deterministic `BENCH_*.json`.
//!
//! ```text
//! cargo run --release -p lc-des --bin des_policy_sweep -- \
//!     --workers 1000000 --capacity 64 --out BENCH_des_policy_sweep.json
//! ```
//!
//! The output is bit-identical for a given seed (`--seed`, or the
//! `LC_TEST_SEED` environment variable): CI runs the sweep twice and diffs
//! the files to prove it.

use lc_core::policy::ALL_POLICY_NAMES;
use lc_des::discipline::WaiterDiscipline;
use lc_des::engine::{run, DesConfig};
use lc_des::workload::WorkloadSpec;
use std::time::{Duration, Instant};

struct Args {
    workers: usize,
    capacity: usize,
    shards: usize,
    horizon: Duration,
    seed: u64,
    out: Option<String>,
    policies: Vec<String>,
    trace_rows: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: 1_000_000,
        capacity: 64,
        shards: 8,
        horizon: Duration::from_millis(300),
        seed: lc_des::test_seed(),
        out: None,
        policies: ALL_POLICY_NAMES.iter().map(|s| s.to_string()).collect(),
        trace_rows: 64,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workers" => args.workers = num(&value("--workers")?)? as usize,
            "--capacity" => args.capacity = num(&value("--capacity")?)? as usize,
            "--shards" => args.shards = num(&value("--shards")?)? as usize,
            "--horizon-ms" => args.horizon = Duration::from_millis(num(&value("--horizon-ms")?)?),
            "--seed" => args.seed = num(&value("--seed")?)?,
            "--out" => args.out = Some(value("--out")?),
            "--policies" => args.policies = split_specs(&value("--policies")?),
            "--trace-rows" => args.trace_rows = num(&value("--trace-rows")?)? as usize,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn num(raw: &str) -> Result<u64, String> {
    lc_des::parse_seed(raw).ok_or_else(|| format!("not a number: {raw}"))
}

/// Splits a comma-separated spec list, ignoring commas inside parameter
/// parentheses so `paper,pid(kp=0.5, ki=0.1)` is two specs, not three.
fn split_specs(raw: &str) -> Vec<String> {
    let mut specs = Vec::new();
    let mut current = String::new();
    let mut depth = 0usize;
    for c in raw.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                specs.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(c);
    }
    specs.push(current);
    specs
        .into_iter()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("des_policy_sweep: {message}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "des_policy_sweep: workers={} capacity={} shards={} horizon={:?} seed={:#x}",
        args.workers, args.capacity, args.shards, args.horizon, args.seed
    );

    // One row per control policy with the native spin discipline, plus one
    // delegation row (the paper's policy over flat-combining publish-then-
    // poll waiters, so the sweep shows load control composing with a
    // delegation lock plane), plus the shards dimension: the paper's policy
    // re-run single-sharded, so the buffer layout's effect on the same
    // workload sits in the same artifact.
    let mut rows: Vec<(String, WaiterDiscipline, usize)> = args
        .policies
        .iter()
        .map(|p| (p.clone(), WaiterDiscipline::LoadControlledSpin, args.shards))
        .collect();
    rows.push((
        "paper".to_string(),
        WaiterDiscipline::Combining,
        args.shards,
    ));
    if args.shards != 1 {
        rows.push(("paper".to_string(), WaiterDiscipline::LoadControlledSpin, 1));
    }

    let mut bodies = Vec::new();
    for (policy, discipline, shards) in &rows {
        let mut config = DesConfig::new(args.workers, args.capacity);
        config.spec.shards = Some(*shards);
        config.discipline = *discipline;
        config.horizon = args.horizon;
        config.seed = args.seed;
        config.sleep_timeout = Duration::from_millis(200);
        config.workload = WorkloadSpec::contended();
        let wall = Instant::now();
        let report = match policy.parse().and_then(|policy| {
            config.spec.policy = policy;
            run(config)
        }) {
            Ok(report) => report,
            Err(error) => {
                eprintln!("des_policy_sweep: policy `{policy}` failed: {error}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "  {:<32} completed={:>9} events={:>9} conv={:<6} fairness={:.4} wall={:?}",
            report.spec,
            report.completed,
            report.events,
            report
                .convergence_cycle
                .map(|c| c.to_string())
                .unwrap_or_else(|| "never".to_string()),
            report.fairness,
            wall.elapsed()
        );
        bodies.push(indent(&report.to_json(args.trace_rows), "    "));
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"des_policy_sweep\",\n");
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"workers\": {},\n", args.workers));
    out.push_str(&format!("  \"capacity\": {},\n", args.capacity));
    out.push_str(&format!("  \"shards\": {},\n", args.shards));
    out.push_str(&format!("  \"horizon_ns\": {},\n", args.horizon.as_nanos()));
    out.push_str("  \"runs\": [\n");
    for (i, body) in bodies.iter().enumerate() {
        out.push_str(body);
        out.push_str(if i + 1 == bodies.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");

    match &args.out {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &out) {
                eprintln!("des_policy_sweep: cannot write {path}: {error}");
                std::process::exit(1);
            }
            eprintln!("des_policy_sweep: wrote {path}");
        }
        None => print!("{out}"),
    }
}

/// Indents every line of a JSON body (keeps the nested report readable in
/// the combined document).
fn indent(body: &str, pad: &str) -> String {
    body.lines()
        .map(|line| format!("{pad}{line}"))
        .collect::<Vec<_>>()
        .join("\n")
}
