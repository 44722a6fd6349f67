//! An oversubscribed "server": compares contention-management policies when
//! there are more worker threads than cores.
//!
//! The scenario is the paper's motivating one (Figure 1): a server whose
//! worker pool is sized for peak demand ends up with more runnable threads
//! than hardware contexts, and the choice of mutex decides whether throughput
//! collapses or degrades gracefully.  We run the same request loop under a
//! ticket spinlock, the time-published queue lock, the TTAS backoff lock, the
//! blocking mutex, the adaptive mutex, and the load-controlled lock, and
//! print a small table.
//!
//! Everything is constructed from **spec strings** in the shared
//! `name(key=value)` grammar — the comparison locks through
//! `lc_locks::registry::LOCK_SPECS` and the whole control plane through
//! `lc_core::spec::LoadControlSpec` — so this example is the end-to-end
//! demonstration of the parameterized construction path experiment
//! configurations use:
//!
//! ```text
//! cargo run --release --example oversubscribed_server [-- <policy-spec>]
//! cargo run --release --example oversubscribed_server -- --spec-file examples/server.lcspec
//! ```
//!
//! where `<policy-spec>` is a bare policy name (`paper`, `hysteresis`,
//! `fixed`, `pid`) or a parameterized spec such as `"pid(kp=0.5, ki=0.1)"`
//! or `"hysteresis(alpha=0.3, deadband=2)"`.  A `--spec-file` supplies the
//! full control plane (policy, splitter, shards, sampler) as
//! `key = value` lines; the `LC_POLICY` / `LC_SPLITTER` / `LC_SHARDS` /
//! `LC_SAMPLER` / `LC_WAKE_ORDER` environment variables layer on top of
//! either source, and a malformed spec anywhere fails loudly before the
//! measurement sweep.

use lc_core::policy::ALL_POLICY_NAMES;
use lc_core::spec::LoadControlSpec;
use lc_core::{LcMutex, LcRwLock, LoadControl, LoadControlConfig};
use lc_locks::registry::DynMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Busy-work iterations inside one request's critical section.
const CRITICAL_ITERS: u32 = 60;
/// Busy-work iterations between two requests.
const DELAY_ITERS: u32 = 400;

fn busy_work(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// The request loop: `threads` workers (registered with `control` when one is
/// given) each repeat `request(i)` followed by the think time until
/// `duration` has passed.  Returns completed requests per second.
fn serve(
    threads: usize,
    duration: Duration,
    control: Option<&Arc<LoadControl>>,
    request: impl Fn(u64) + Sync,
) -> f64 {
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..threads as u64 {
            let (stop, served, request) = (&stop, &served, &request);
            scope.spawn(move || {
                let _registration = control.map(|control| control.register_worker());
                // Offset per worker, so rwlock writers desynchronize.
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    request(i);
                    busy_work(DELAY_ITERS);
                    i += 1;
                }
                served.fetch_add(i - worker, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    served.into_inner() as f64 / start.elapsed().as_secs_f64()
}

/// Layering, lowest to highest precedence regardless of argument order:
/// defaults → `--spec-file` → positional policy spec → `LC_*` env vars.
/// Nothing is silently discarded; repeated sources are errors.
fn parse_cli() -> Result<LoadControlSpec, String> {
    let mut policy_arg: Option<String> = None;
    let mut spec_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec-file" => {
                let path = args
                    .next()
                    .ok_or_else(|| "--spec-file requires a path".to_string())?;
                if spec_file.replace(path).is_some() {
                    return Err("--spec-file given more than once".to_string());
                }
            }
            policy => {
                if policy_arg.replace(policy.to_string()).is_some() {
                    return Err("at most one policy spec argument is accepted".to_string());
                }
            }
        }
    }
    let mut spec = match spec_file {
        Some(path) => LoadControlSpec::from_config_file(&path).map_err(|e| e.to_string())?,
        None => LoadControlSpec::default(),
    };
    if let Some(policy) = policy_arg {
        spec.set("argv", "policy", &policy).map_err(|e| {
            format!(
                "{e}\nregistered policies: {} (parameterized specs like \
                 \"pid(kp=0.5, ki=0.1)\" are accepted)",
                ALL_POLICY_NAMES.join(", ")
            )
        })?;
    }
    // Environment variables override both the defaults and the config file.
    spec.apply_env().map_err(|e| e.to_string())
}

fn main() {
    let spec = match parse_cli() {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    };

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // The load-control facility is built from configuration plus the
    // declarative spec — up front, so a typo or an out-of-range shard count
    // fails before the measurement sweep — and started only when the sweep
    // needs it.
    let control = match LoadControl::from_spec(
        LoadControlConfig::for_capacity(host_cores)
            .with_update_interval(Duration::from_millis(3))
            .with_sleep_timeout(Duration::from_millis(50)),
        &spec,
    ) {
        Ok(control) => control,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    // Oversubscribe the host by 2x, exactly the paper's "200 % load" point.
    let threads = host_cores * 2;
    let duration = Duration::from_millis(400);

    println!("host contexts: {host_cores}, worker threads: {threads} (200% load)");
    println!("control plane: {spec}");
    println!();
    println!("{:<34} {:>16} {:>12}", "mutex", "requests/sec", "vs best");

    // Every comparison lock is constructed from its name through the
    // registry, so adding a family there adds it to this table.
    let mut results: Vec<(&str, f64)> =
        ["ticket", "tp-queue", "ttas-backoff", "blocking", "adaptive"]
            .into_iter()
            .map(|lock_spec| {
                let mutex = DynMutex::build(lock_spec, 0u64).expect("registered lock spec");
                let per_s = serve(threads, duration, None, |_| {
                    *mutex.lock() += 1;
                    busy_work(CRITICAL_ITERS);
                });
                (lock_spec, per_s)
            })
            .collect();

    control.start_controller();
    let mutex = LcMutex::<u64>::new_with(0, &control);
    let per_s = serve(threads, duration, Some(&control), |_| {
        *mutex.lock() += 1;
        busy_work(CRITICAL_ITERS);
    });
    results.push(("load-control", per_s));

    let best = results.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    for (name, tput) in &results {
        println!("{:<34} {:>16.0} {:>11.0}%", name, tput, tput / best * 100.0);
    }

    // The same controller also manages the rest of the sync surface: a
    // reader-heavy table (5 % writes) behind an rwlock, whose readers check
    // that no write is ever seen half done.
    let table = LcRwLock::new_with((0u64, 0u64), &control);
    let rw_per_s = serve(threads, Duration::from_millis(200), Some(&control), |i| {
        if i % 100 < 5 {
            let mut g = table.write();
            g.0 += 1;
            g.1 += 1;
            busy_work(CRITICAL_ITERS);
        } else {
            let g = table.read();
            assert_eq!(g.0, g.1, "readers observed a torn write");
            busy_work(CRITICAL_ITERS);
        }
    });

    let lc_stats = control.buffer().stats();
    // The live configuration reports back as a canonical spec string — the
    // label experiments should log next to their measurements.
    let live_spec = control.spec();
    control.stop_controller();

    println!();
    println!(
        "lc-rwlock (reader-heavy): {:.0} ops/sec ({} writes)",
        rw_per_s,
        table.read().0
    );
    println!(
        "load control put threads to sleep {} times and woke {} of them early",
        lc_stats.ever_slept, lc_stats.controller_wakes
    );
    println!("live control plane was: {live_spec}");
    println!("(absolute numbers depend on the host; the point is the relative ranking under oversubscription)");
}
