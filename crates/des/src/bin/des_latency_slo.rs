//! Latency-SLO bench: the `latency(target_p99=..)` governor and the
//! `autotune` meta-policy against `paper` and `pid`, under both wake orders,
//! at megascale — one deterministic `BENCH_latency_slo.json`.
//!
//! ```text
//! cargo run --release -p lc-des --bin des_latency_slo -- \
//!     --workers 1000000 --capacity 64 --out BENCH_latency_slo.json
//! ```
//!
//! Each cell is one policy × wake-order pair over the same seeded contended
//! workload.  The per-cell `slo` block compares the run's p99 park wait
//! (slot-buffer histogram, bucket upper bound — never an underestimate)
//! against the target: `paper` and `pid` park the excess until the sleep
//! timeout, so their p99 sits at the timeout; `latency` recycles the oldest
//! sleepers and holds p99 under the target at a bounded completion cost.
//! The output is bit-identical for a given seed (`--seed`, or the
//! `LC_TEST_SEED` environment variable): CI runs the bench twice and diffs
//! the files to prove it.

use lc_core::WakeOrder;
use lc_des::engine::{run, DesConfig};
use lc_des::metrics::RunReport;
use lc_des::workload::WorkloadSpec;
use std::time::{Duration, Instant};

struct Args {
    workers: usize,
    capacity: usize,
    shards: usize,
    horizon: Duration,
    sleep_timeout: Duration,
    target_p99_ms: u64,
    seed: u64,
    out: Option<String>,
    trace_rows: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: 1_000_000,
        capacity: 64,
        shards: 8,
        horizon: Duration::from_millis(300),
        // Shorter than the horizon so timeout departures actually happen:
        // the baselines' p99 sits at this timeout, which is the miss the
        // latency governor exists to fix.
        sleep_timeout: Duration::from_millis(100),
        target_p99_ms: 50,
        seed: lc_des::test_seed(),
        out: None,
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
            "--sleep-timeout-ms" => {
                args.sleep_timeout = Duration::from_millis(num(&value("--sleep-timeout-ms")?)?)
            }
            "--target-p99-ms" => args.target_p99_ms = num(&value("--target-p99-ms")?)?,
            "--seed" => args.seed = num(&value("--seed")?)?,
            "--out" => args.out = Some(value("--out")?),
            "--trace-rows" => args.trace_rows = num(&value("--trace-rows")?)? as usize,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn num(raw: &str) -> Result<u64, String> {
    lc_des::parse_seed(raw).ok_or_else(|| format!("not a number: {raw}"))
}

/// One cell's JSON body: the SLO verdict first, then the full run report.
fn cell_json(
    report: &RunReport,
    order: WakeOrder,
    target_p99_ns: u64,
    trace_rows: usize,
) -> String {
    let mut out = String::new();
    out.push_str("    {\n");
    out.push_str(&format!("      \"wake_order\": \"{order}\",\n"));
    out.push_str("      \"slo\": {\n");
    out.push_str(&format!("        \"target_p99_ns\": {target_p99_ns},\n"));
    out.push_str(&format!(
        "        \"wait_p99_ns\": {},\n",
        report.wait_p99_ns
    ));
    out.push_str(&format!(
        "        \"met\": {},\n",
        report.wait_p99_ns <= target_p99_ns
    ));
    out.push_str(&format!("        \"completed\": {}\n", report.completed));
    out.push_str("      },\n");
    out.push_str("      \"report\":\n");
    out.push_str(&indent(&report.to_json(trace_rows), "        "));
    out.push('\n');
    out.push_str("    }");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("des_latency_slo: {message}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "des_latency_slo: workers={} capacity={} shards={} horizon={:?} target_p99={}ms seed={:#x}",
        args.workers, args.capacity, args.shards, args.horizon, args.target_p99_ms, args.seed
    );

    let target_p99_ns = args.target_p99_ms * 1_000_000;
    let policies = [
        "paper".to_string(),
        "pid(kp=0.5, ki=0.1)".to_string(),
        format!("latency(target_p99={})", args.target_p99_ms),
        "autotune(inner=pid, objective=p99)".to_string(),
    ];
    let orders = [WakeOrder::Fifo, WakeOrder::Window];

    let mut bodies = Vec::new();
    for policy in &policies {
        for order in orders {
            let mut config = DesConfig::new(args.workers, args.capacity);
            config.spec.shards = Some(args.shards);
            config.spec.wake_order = Some(order);
            config.horizon = args.horizon;
            config.seed = args.seed;
            config.sleep_timeout = args.sleep_timeout;
            config.workload = WorkloadSpec::contended();
            let wall = Instant::now();
            let report = match policy.parse().and_then(|policy| {
                config.spec.policy = policy;
                run(config)
            }) {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("des_latency_slo: policy `{policy}` failed: {error}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "  {:<44} order={:<6} p99={:>11}ns met={:<5} completed={:>9} wall={:?}",
                report.spec,
                order.as_str(),
                report.wait_p99_ns,
                report.wait_p99_ns <= target_p99_ns,
                report.completed,
                wall.elapsed()
            );
            bodies.push(cell_json(&report, order, target_p99_ns, args.trace_rows));
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"latency_slo\",\n");
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"workers\": {},\n", args.workers));
    out.push_str(&format!("  \"capacity\": {},\n", args.capacity));
    out.push_str(&format!("  \"shards\": {},\n", args.shards));
    out.push_str(&format!("  \"horizon_ns\": {},\n", args.horizon.as_nanos()));
    out.push_str(&format!("  \"target_p99_ns\": {target_p99_ns},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, body) in bodies.iter().enumerate() {
        out.push_str(body);
        out.push_str(if i + 1 == bodies.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");

    match &args.out {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &out) {
                eprintln!("des_latency_slo: cannot write {path}: {error}");
                std::process::exit(1);
            }
            eprintln!("des_latency_slo: wrote {path}");
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
