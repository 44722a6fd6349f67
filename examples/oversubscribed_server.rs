//! An oversubscribed "server": compares contention-management policies when
//! there are more worker threads than cores.
//!
//! The scenario is the paper's motivating one (Figure 1): a server whose
//! worker pool is sized for peak demand ends up with more runnable threads
//! than hardware contexts, and the choice of mutex decides whether throughput
//! collapses or degrades gracefully.  We run the same request loop under a
//! ticket spinlock, the time-published queue lock, a tuned TTAS lock, the
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
use lc_core::{LoadControl, LoadControlConfig};
use lc_workloads::drivers::{
    run_microbench_lc, run_microbench_named, run_rw_microbench_lc, MicrobenchConfig,
    RwMicrobenchConfig,
};
use std::time::Duration;

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
        spec = spec.with_policy(&policy).map_err(|e| {
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
    // declarative spec — validated up front so a typo fails before the
    // measurement sweep, started only when the sweep needs it.
    let lc_builder = match LoadControl::builder(
        LoadControlConfig::for_capacity(host_cores)
            .with_update_interval(Duration::from_millis(3))
            .with_sleep_timeout(Duration::from_millis(50)),
    )
    .apply_spec(&spec)
    {
        Ok(builder) => builder,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    // Oversubscribe the host by 2x, exactly the paper's "200 % load" point.
    let threads = host_cores * 2;
    let config = MicrobenchConfig {
        threads,
        critical_iters: 60,
        delay_iters: 400,
        duration: Duration::from_millis(400),
    };

    println!("host contexts: {host_cores}, worker threads: {threads} (200% load)");
    println!("control plane: {spec}");
    println!();
    println!("{:<34} {:>16} {:>12}", "mutex", "requests/sec", "vs best");

    // Every comparison lock is constructed from its spec string through the
    // registry, so adding a family there adds it to this table — including
    // parameterized variants of a family already present.
    let mut results: Vec<(&str, f64)> = [
        "ticket",
        "tp-queue",
        "ttas-backoff(max_spins=1024)",
        "blocking",
        "adaptive",
    ]
    .into_iter()
    .map(|lock_spec| {
        let result = run_microbench_named(lock_spec, config).expect("registered lock spec");
        (lock_spec, result.throughput())
    })
    .collect();

    let control = lc_builder.start_daemon().build();
    results.push((
        "load-control",
        run_microbench_lc(config, &control).throughput(),
    ));

    let best = results.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    for (name, tput) in &results {
        println!("{:<34} {:>16.0} {:>11.0}%", name, tput, tput / best * 100.0);
    }

    // The same controller also manages the rest of the sync surface: run the
    // reader-heavy rwlock scenario against it.
    let mut rw_cfg = RwMicrobenchConfig::reader_heavy(threads);
    rw_cfg.duration = Duration::from_millis(200);
    let rw = run_rw_microbench_lc(rw_cfg, &control);

    let lc_stats = control.buffer().stats();
    // The live configuration reports back as a canonical spec string — the
    // label experiments should log next to their measurements.
    let live_spec = control.spec();
    control.stop_controller();

    println!();
    println!(
        "lc-rwlock (reader-heavy): {:.0} ops/sec ({} reads, {} writes)",
        rw.throughput(),
        rw.reads,
        rw.writes
    );
    println!(
        "load control put threads to sleep {} times and woke {} of them early",
        lc_stats.ever_slept, lc_stats.controller_wakes
    );
    println!("live control plane was: {live_spec}");
    println!("(absolute numbers depend on the host; the point is the relative ranking under oversubscription)");
}
