//! `lc-perf`: the wall-clock benchmark of the load-control suite.
//!
//! `lc-perf --workload W --seed N --seconds S --trace 0|1` runs one workload
//! and prints its metrics by name; the last line of standard output is the
//! result object of the benchmark contract.  `--trace 0` measures the
//! end-to-end metrics.  `--trace 1` runs the per-layer cells, then the
//! workload once untraced and once traced, and reports the per-layer
//! metrics; no end-to-end number comes from it.  See `perf/README.md`.

mod cells;
mod compare;
mod gen;
mod machine;
mod metrics;
mod stats;
mod trace;
mod workload;

use stats::{quantile_sorted, summarize, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{Kind, Rig, RigOutput, WindowResult, RIGS, ROUNDS_PER_RIG};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 61;
/// The first window of every pass: run, checked and thrown away.
const WARMUP: Duration = Duration::from_secs(2);
/// Uncounted start of every later window, while woken workers get going.
const SETTLE: Duration = Duration::from_millis(50);
/// Rounds per pass.
const ROUNDS: usize = RIGS * ROUNDS_PER_RIG;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = f64::from(metrics::RUN_SECONDS);
    let mut traced = false;
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside 1..=600"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// Asks how many workers of the rig in use are not parked.
type Probe = Arc<Mutex<Option<Box<dyn Fn() -> usize + Send>>>>;

/// A benchmark that can hang measures nothing: past `deadline` the process
/// reports the workers that never finished and exits non-zero.
fn spawn_watchdog(deadline: Duration, probe: Probe) {
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        let stuck = probe.lock().ok().and_then(|p| p.as_ref().map(|f| f()));
        eprintln!(
            "lc-perf: watchdog: not finished after {:.0} s (3x the planned length); \
             unfinished workers: {}; each owes the operation it is stuck in, so the run fails",
            deadline.as_secs_f64(),
            stuck.map_or("unknown".to_string(), |n| n.to_string()),
        );
        std::process::exit(3);
    });
}

/// One pass over a workload: set-ups, then `ROUNDS` rounds of a reference
/// window and a measured window twice as long, spread over `RIGS` rigs.
struct Pass {
    threads: usize,
    setups: Vec<f64>,
    /// The first (warm-up) window of every rig: run, checked, not counted.
    warm: Vec<WindowResult>,
    reference: Vec<WindowResult>,
    measured: Vec<WindowResult>,
    /// From the first window's start to the last window's end.
    wall: Duration,
    out: RigOutput,
}

impl Pass {
    fn run(
        kind: Kind,
        seed: u64,
        seconds: f64,
        traced: bool,
        setups: usize,
        probe: &Probe,
    ) -> Pass {
        let watch = |rig: Option<&Rig>| {
            *probe.lock().expect("probe mutex") = rig.map(|r| Box::new(r.watch()) as _);
        };
        let mut times = Vec::with_capacity(setups + RIGS);
        let mut timed_set_up = || {
            let rig = Rig::set_up(kind, seed, traced);
            times.push(rig.set_up_seconds);
            rig
        };
        let mut out = RigOutput::default();
        let mut rig = timed_set_up();
        for _ in 1..setups {
            out.absorb(rig.tear_down());
            rig = timed_set_up();
        }
        let unit = Duration::from_secs_f64(seconds / (3 * ROUNDS) as f64);
        let (mut warm, mut reference, mut measured) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        for segment in 0..RIGS {
            if segment > 0 {
                // The next rig is built while this one still holds its
                // memory: how fast a lock runs depends on where its slot
                // ring landed, and a run should average over placements,
                // not inherit one.
                let fresh = timed_set_up();
                out.absorb(rig.tear_down());
                rig = fresh;
            }
            watch(Some(&rig));
            warm.push(rig.window(0, Duration::ZERO, WARMUP / RIGS as u32));
            for round in 0..ROUNDS_PER_RIG {
                reference.push(rig.window(1 + 2 * round, SETTLE, unit));
                measured.push(rig.window(2 + 2 * round, SETTLE, 2 * unit));
            }
            watch(None);
        }
        let wall = start.elapsed();
        let threads = kind.threads(machine::nproc()).0;
        out.absorb(rig.tear_down());
        Pass {
            threads,
            setups: times,
            warm,
            reference,
            measured,
            wall,
            out,
        }
    }

    fn ops_per_s(&self) -> Vec<f64> {
        self.measured.iter().map(WindowResult::ops_per_s).collect()
    }

    fn norm_ops_per_s(&self) -> Vec<f64> {
        self.measured
            .iter()
            .map(WindowResult::norm_ops_per_s)
            .collect()
    }

    /// The machine's speed over the pass, relative to nominal.
    fn speed_factor(&self) -> f64 {
        let speeds: Vec<f64> = self.measured.iter().map(|w| w.speed).collect();
        stats::median(&speeds) / workload::NOMINAL_SPEED
    }

    fn first_window_ops_per_s(&self) -> f64 {
        stats::median(
            &self
                .warm
                .iter()
                .map(WindowResult::ops_per_s)
                .collect::<Vec<_>>(),
        )
    }

    fn vs_reference(&self) -> Vec<f64> {
        self.measured
            .iter()
            .zip(&self.reference)
            .map(|(m, r)| m.ops_per_s() / r.ops_per_s())
            .collect()
    }

    /// Jain index of completions per worker index over all measured windows.
    /// Worker 3 of one rig is not worker 3 of the next, so this keeps the
    /// unfairness that follows the registration order (slot and wake-scan
    /// position) and averages out what is luck within one rig; per rig the
    /// index spread 2 % from run to run, summed 0.8 %.
    fn jain_fairness(&self) -> f64 {
        let mut totals = vec![0; self.threads];
        for window in &self.measured {
            for (total, n) in totals.iter_mut().zip(&window.per_thread) {
                *total += n;
            }
        }
        stats::jain(&totals)
    }
}

/// What a run reports: the metrics of one of the tables in `metrics`, as
/// (name, unit, value), and operations attempted and failed.
struct Outcome {
    values: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// Looks every metric of a table up in what was measured, so that a run
/// reports exactly the table, and prints it.
fn tabulate(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    measured: &[(String, f64)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    table
        .map(|(name, unit)| {
            let (_, value) = measured
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("no value for {name}"))?;
            show_one(name, unit, *value);
            Ok((name, unit, *value))
        })
        .collect()
}

fn show(name: &str, unit: &str, s: Summary) {
    println!(
        "{name:<44} {:>16.4} {unit:<6} p10 {:.4}  p90 {:.4}  n {}",
        s.median, s.p10, s.p90, s.n
    );
}

fn show_one(name: &str, unit: &str, value: f64) {
    println!("{name:<44} {value:>16.4} {unit}");
}

fn end_to_end(args: &Args, probe: &Probe) -> Result<Outcome, String> {
    let pass = Pass::run(args.kind, args.seed, args.seconds, false, SETUPS, probe);
    let ratios = pass.vs_reference();
    println!("over the set-ups and over the rounds (median, p10, p90, sample count):");
    show("setup_s", "s", summarize(&pass.setups));
    show("norm_ops_per_s", "1/s", summarize(&pass.norm_ops_per_s()));
    show("vs_reference_ratio", "ratio", summarize(&ratios));
    show(
        "lc_overhead_ratio (= 1 / vs_reference_ratio)",
        "ratio",
        summarize(&ratios.iter().map(|r| 1.0 / r).collect::<Vec<_>>()),
    );
    let [acquire_ref, acquire] = &pass.out.acquire;
    let (p50, p99) = (acquire.quantile(0.5), acquire.quantile(0.99));
    let (p50_ref, p99_ref) = (acquire_ref.quantile(0.5), acquire_ref.quantile(0.99));

    println!("not gated (raw numbers drift with the machine's speed; the tail ratio with where the lock landed):");
    show_one("acquire_p99_ratio", "ratio", p99 / p99_ref);
    show("ops_per_s", "1/s", summarize(&pass.ops_per_s()));
    show_one(
        "speed_factor (calibration / nominal)",
        "ratio",
        pass.speed_factor(),
    );
    println!(
        "{:<44} {p50:>16.4} ns     n {} (reference windows: {p50_ref:.4} ns, n {})",
        "acquire_p50_ns",
        acquire.count(),
        acquire_ref.count()
    );
    println!(
        "{:<44} {p99:>16.4} ns     (reference windows: {p99_ref:.4} ns)",
        "acquire_p99_ns"
    );
    if let Some(q) = stats::tail_quantile(acquire.count()) {
        println!(
            "{:<44} {:>16.4} ns     (highest percentile with >= 10 samples beyond it)",
            format!("acquire_p{}_ns", 100.0 * q),
            acquire.quantile(q)
        );
    }
    show_one(
        "first-window ops_per_s (warm-up, discarded)",
        "1/s",
        pass.first_window_ops_per_s(),
    );
    show_one("sleeps", "count", pass.out.sleeps as f64);
    show_one("peak_rss_kb", "kB", machine::peak_rss_kb().unwrap_or(0.0));

    println!("gated:");
    let measured = [
        ("setup_s", stats::median(&pass.setups)),
        ("norm_ops_per_s", stats::median(&pass.norm_ops_per_s())),
        ("vs_reference_ratio", stats::median(&ratios)),
        ("acquire_p50_ratio", p50 / p50_ref),
        ("jain_fairness", pass.jain_fairness()),
    ]
    .map(|(name, value)| (name.to_string(), value));
    Ok(Outcome {
        values: tabulate(
            metrics::END_TO_END.iter().map(|m| (m.name, m.unit)),
            &measured,
        )?,
        attempted: pass.out.attempted,
        failed: pass.out.failed,
    })
}

fn per_layer(args: &Args, probe: &Probe) -> Result<Outcome, String> {
    let mut out = cells::run_all().map_err(|e| format!("per-layer cells: {e}"))?;
    // A third of the time each for the cells, the untraced and the traced pass.
    let untraced = Pass::run(args.kind, args.seed, args.seconds / 3.0, false, 1, probe);
    let traced = Pass::run(args.kind, args.seed, args.seconds / 3.0, true, 1, probe);
    let ops = stats::median(&traced.ops_per_s());
    out.put(
        "perf.trace.overhead_ratio",
        ops / stats::median(&untraced.ops_per_s()),
    );
    out.put(
        "perf.first_window_ratio",
        traced.first_window_ops_per_s() / ops,
    );
    out.put("perf.ops_per_s", stats::median(&untraced.ops_per_s()));
    out.put(
        "perf.norm_ops_per_s",
        stats::median(&untraced.norm_ops_per_s()),
    );
    out.put("perf.acquire_p50_ns", untraced.out.acquire[1].quantile(0.5));
    out.put(
        "perf.acquire_p99_ns",
        untraced.out.acquire[1].quantile(0.99),
    );
    out.put(
        "perf.acquire_p99_ratio",
        untraced.out.acquire[1].quantile(0.99) / untraced.out.acquire[0].quantile(0.99),
    );
    out.put("perf.speed_factor", untraced.speed_factor());

    let selfs = trace::self_times(&traced.out.spans);
    let total: u64 = selfs.values().sum();
    for (metric, spans) in [
        (
            "perf.trace.acquire_share",
            &["acquire", "read_acquire", "write_acquire"][..],
        ),
        ("perf.trace.hold_share", &["hold"]),
        ("perf.trace.release_share", &["release"]),
        ("perf.trace.think_share", &["think"]),
    ] {
        let own: u64 = spans.iter().filter_map(|s| selfs.get(s)).sum();
        out.put(metric, own as f64 / total.max(1) as f64);
    }

    let kops = traced.out.attempted as f64 / 1000.0;
    out.put("core.thread_ctx.sleeps", traced.out.sleeps as f64);
    out.put(
        "core.thread_ctx.sleeps_per_kop",
        traced.out.sleeps as f64 / kops,
    );
    let buffers = &traced.out.buffers;
    let races: u64 = buffers.iter().map(|b| b.claim_races).sum();
    let claimed: u64 = buffers.iter().map(|b| b.ever_slept).sum();
    out.put("core.slots.claim_races", races as f64);
    out.put(
        "core.slots.claim_success_ratio",
        if claimed + races == 0 {
            1.0
        } else {
            claimed as f64 / (claimed + races) as f64
        },
    );
    // Over the rigs that parked anyone: the median of their medians, the
    // worst of their tails.
    let waits: Vec<_> = buffers
        .iter()
        .map(|b| b.wait)
        .filter(|w| w.count > 0)
        .collect();
    let p50s: Vec<f64> = waits.iter().map(|w| w.p50_ns as f64 / 1e6).collect();
    out.put(
        "core.slots.park_wait_p50_ms",
        if p50s.is_empty() {
            0.0
        } else {
            stats::median(&p50s)
        },
    );
    out.put(
        "core.slots.park_wait_p99_ms",
        waits
            .iter()
            .map(|w| w.p99_ns as f64 / 1e6)
            .fold(0.0, f64::max),
    );

    let cycles = &traced.out.cycles;
    let busy: u64 = cycles.iter().map(|c| c.end_ns - c.start_ns).sum();
    let mut lateness: Vec<f64> = cycles.iter().map(|c| c.late_ns as f64 / 1e3).collect();
    lateness.sort_by(f64::total_cmp);
    out.put("core.controller.cycles", cycles.len() as f64);
    out.put(
        "core.controller.wakes",
        cycles.iter().map(|c| c.wakes).sum::<u64>() as f64,
    );
    out.put(
        "core.controller.busy_share",
        busy as f64 / traced.wall.as_nanos() as f64,
    );
    out.put(
        "core.controller.cycle_lateness_p99_us",
        if lateness.is_empty() {
            0.0
        } else {
            quantile_sorted(&lateness, 0.99)
        },
    );

    let dir =
        std::env::var_os("PERF_OUT_DIR").map_or_else(|| PathBuf::from("perf/out"), PathBuf::from);
    let path = dir.join(format!("trace-{}.json", args.kind.name()));
    trace::write_json(&path, args.kind.name(), &traced.out.spans, cycles)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans, {} cycles -> {}",
        traced.out.spans.len(),
        cycles.len(),
        path.display()
    );

    out.put("perf.peak_rss_kb", machine::peak_rss_kb().unwrap_or(0.0));
    Ok(Outcome {
        values: tabulate(metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)), &out.0)?,
        attempted: untraced.out.attempted + traced.out.attempted,
        failed: untraced.out.failed + traced.out.failed,
    })
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    // Read what run.sh passed in, then drop every LC_* override: the control
    // plane under test is the one a user gets by default.
    let fingerprint = machine::fingerprint();
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LC_") {
            std::env::remove_var(key);
        }
    }
    let (threads, ref_threads) = args.kind.threads(machine::nproc());
    println!(
        "lc-perf workload {} seed {} seconds {} trace {} threads {threads} reference-threads {ref_threads}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for (key, value) in &fingerprint {
        println!("machine.{key} {value}");
    }
    let load_before = machine::load_average();
    let busy = load_before.is_some_and(|l| l > 0.5 * machine::nproc() as f64);
    println!(
        "machine.load_average_before {}{}",
        load_before.map_or("unknown".to_string(), |l| l.to_string()),
        if busy {
            "  ** noisy: load average above half the cores at start **"
        } else {
            ""
        }
    );

    // Planned length: set-ups and warm-ups, the measured time, the cells.
    let planned = Duration::from_secs_f64(20.0 + 1.5 * args.seconds);
    let probe: Probe = Arc::new(Mutex::new(None));
    spawn_watchdog(3 * planned, Arc::clone(&probe));

    let Outcome {
        values,
        attempted,
        failed,
    } = if args.traced {
        per_layer(&args, &probe)?
    } else {
        end_to_end(&args, &probe)?
    };
    println!(
        "machine.load_average_after {}",
        machine::load_average().map_or("unknown".to_string(), |l| l.to_string())
    );
    println!(
        "fail_share {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );

    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("--compare") => compare::run(&argv[1..]),
        _ => run(&argv),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("lc-perf: {message}");
        ExitCode::from(2)
    })
}
