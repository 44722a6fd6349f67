//! Consistency of the named sets: what the compiler cannot check.
//!
//! Every set a spec string chooses from is a closed enum — lock families
//! (`LockKind`), control policies (`PolicySpec`), target splitters
//! (`SplitterSpec`) and load samplers (`SamplerSpec`) — with a list of its
//! names beside it.  These tests check that each list matches its enum, that
//! specs round-trip through their text, that a refused spec's error names the
//! fix, and that every abortable lock reaches the `Lc*` dispatch.

mod support;

use load_control_suite::core::policy::{
    build_policy_spec, PolicySpec, SplitterSpec, ALL_POLICY_NAMES, ALL_SPLITTER_NAMES,
};
use load_control_suite::core::spec::{LoadControlSpec, SamplerSpec, SpecError, ALL_SAMPLER_NAMES};
use load_control_suite::core::{LoadControl, LoadControlConfig, LoadGate};
use load_control_suite::locks::registry::{DynMutex, LockKind, LockSpecError};
use load_control_suite::locks::{Mutex, ABORTABLE_LOCK_NAMES, ALL_LOCK_NAMES};
use std::fmt::Display;
use std::str::FromStr;

#[test]
fn every_lock_name_round_trips_through_the_registry() {
    let names: Vec<&str> = LockKind::ALL.iter().map(|kind| kind.name()).collect();
    assert_eq!(names, ALL_LOCK_NAMES);
    for kind in LockKind::ALL {
        assert_eq!(kind.name().parse::<LockKind>(), Ok(kind));
        assert_eq!(kind.to_string(), kind.name());
        let lock = kind.build();
        assert_eq!(lock.name(), kind.name(), "a mislabelled lock");
        // And the lock actually works as a mutex.
        lock.lock();
        assert!(lock.is_locked(), "{kind} does not report being held");
        unsafe { lock.unlock() };
        assert!(!lock.is_locked(), "{kind} does not report being free");
    }
    assert!("no-such-lock".parse::<LockKind>().is_err());
}

#[test]
fn every_control_policy_name_round_trips_through_its_registry() {
    let names: Vec<&str> = PolicySpec::ALL.iter().map(PolicySpec::name).collect();
    assert_eq!(names, ALL_POLICY_NAMES);
    for spec in PolicySpec::ALL {
        let name = spec.name();
        assert_eq!(name.parse::<PolicySpec>(), Ok(spec));
        // The one constructor accepts the same specs.
        let control = support::control(
            LoadControlConfig::for_capacity(2),
            &format!("policy={name}"),
        );
        assert_eq!(control.spec().policy, spec);
    }
    assert!(build_policy_spec("no-such-policy").is_err());
}

#[test]
fn every_splitter_name_round_trips_through_its_registry() {
    let names: Vec<&str> = SplitterSpec::ALL.iter().map(SplitterSpec::name).collect();
    assert_eq!(names, ALL_SPLITTER_NAMES);
    for spec in SplitterSpec::ALL {
        let name = spec.name();
        assert_eq!(name.parse::<SplitterSpec>(), Ok(spec));
        // The one constructor accepts the same specs.
        let control = support::control(
            LoadControlConfig::for_capacity(2),
            &format!("splitter={name}; shards=2"),
        );
        assert_eq!(control.spec().splitter, spec);
    }
    assert!("no-such-splitter".parse::<SplitterSpec>().is_err());
}

#[test]
fn every_sampler_name_round_trips_through_its_registry() {
    let names: Vec<&str> = SamplerSpec::ALL.iter().map(SamplerSpec::name).collect();
    assert_eq!(names, ALL_SAMPLER_NAMES);
    for spec in SamplerSpec::ALL {
        let name = spec.name();
        assert_eq!(name.parse::<SamplerSpec>().as_ref(), Ok(&spec));
        // The one constructor accepts the same specs.
        let control = support::control(
            LoadControlConfig::for_capacity(2),
            &format!("sampler={name}"),
        );
        assert_eq!(control.spec().sampler, Some(spec));
    }
    assert!("no-such-sampler".parse::<SamplerSpec>().is_err());
}

/// `name`, `name()` and `name(definitely_unknown_key=1)` for every name of a
/// spec'd set: the first two parse to the same value, the third is refused
/// with an error that names the key and what is accepted instead.
fn check_names_and_keys<T, E>(names: &[&str])
where
    T: FromStr<Err = E> + PartialEq + std::fmt::Debug,
    E: Display + PartialEq + std::fmt::Debug,
{
    for &name in names {
        let bare = name.parse::<T>();
        assert!(bare.is_ok(), "{name}: bare name refused: {bare:?}");
        assert_eq!(bare, format!("{name}()").parse::<T>(), "{name}()");
        let message = format!("{name}(definitely_unknown_key=1)")
            .parse::<T>()
            .expect_err("an unknown key must be refused")
            .to_string();
        assert!(message.contains("definitely_unknown_key"), "{message}");
        assert!(
            message.contains("accepted keys") || message.contains("no parameters"),
            "{message}"
        );
    }
}

/// Every name in every set parses both bare and with empty parens, and
/// refuses an unknown parameter key: the grammar-level guarantees of the
/// spec surface.
#[test]
fn every_registered_name_parses_with_and_without_parens_and_rejects_unknown_keys() {
    check_names_and_keys::<LockKind, _>(ALL_LOCK_NAMES);
    check_names_and_keys::<PolicySpec, _>(ALL_POLICY_NAMES);
    check_names_and_keys::<SplitterSpec, _>(ALL_SPLITTER_NAMES);
    check_names_and_keys::<SamplerSpec, _>(ALL_SAMPLER_NAMES);
    // An unknown name lists the names there are.
    let message = "warp(drive=9)"
        .parse::<PolicySpec>()
        .unwrap_err()
        .to_string();
    assert!(message.ends_with(&ALL_POLICY_NAMES.join(", ")), "{message}");
    let message = "no-such-lock".parse::<LockKind>().unwrap_err().to_string();
    assert!(message.ends_with(&ALL_LOCK_NAMES.join(", ")), "{message}");
}

/// `value → Display → parse` gives the value back.
fn assert_round_trips<T>(value: &T)
where
    T: FromStr<Err = SpecError> + Display + PartialEq + std::fmt::Debug,
{
    let text = value.to_string();
    let reparsed = text
        .parse::<T>()
        .unwrap_or_else(|e| panic!("{text}: canonical text does not parse: {e}"));
    assert_eq!(&reparsed, value, "{text}");
}

/// For every member of every set, with its default parameters: the
/// canonical text parses back to the same value.  A lock's text is its
/// name, which is its whole spec.
#[test]
fn every_registered_entry_spec_round_trips() {
    for kind in LockKind::ALL {
        assert_eq!(kind.to_string().parse::<LockKind>(), Ok(kind));
    }
    PolicySpec::ALL.iter().for_each(assert_round_trips);
    SplitterSpec::ALL.iter().for_each(assert_round_trips);
    SamplerSpec::ALL.iter().for_each(assert_round_trips);
}

/// Parameterized values round-trip too, across the policy, splitter and
/// sampler sets.  A lock family takes no keys: each one it used to take is
/// refused by name.
#[test]
fn parameterized_specs_round_trip_across_registries() {
    for (family, key) in [
        ("ttas-backoff", "max_spins"),
        ("tp-queue", "patience_us"),
        ("tp-queue", "publish_every"),
        ("tp-queue", "time_publishing"),
        ("adaptive", "spin_budget"),
        ("adaptive", "park_timeout_ms"),
    ] {
        let spec = format!("{family}({key}=1)");
        match spec.parse::<LockKind>() {
            Err(LockSpecError::TakesNoKeys { key: rejected, .. }) => assert_eq!(rejected, key),
            other => panic!("{spec}: expected a takes-no-keys error, got {other:?}"),
        }
    }
    for spec in [
        "hysteresis(alpha=0.3, up=2, down=3)",
        "fixed(target=8)",
        "pid(kp=0.8, ki=0.2)",
        "latency(target_p99=75, floor=4)",
        "autotune(inner=hysteresis, objective=wake_churn, window=12)",
    ] {
        let parsed: PolicySpec = spec.parse().unwrap();
        assert_eq!(parsed.to_string(), spec, "policy spelling drifted");
        assert_round_trips(&parsed);
    }
    let splitter: SplitterSpec = "load-weighted(ewma=0.25)".parse().unwrap();
    assert_eq!(splitter, SplitterSpec::LoadWeighted { ewma: 0.25 });
    assert_round_trips(&splitter);
    for (spec, value) in [
        ("fixed(runnable=9)", SamplerSpec::Fixed { runnable: 9 }),
        (
            "procfs-hardened(root=/tmp/proc, cooldown_ms=250)",
            SamplerSpec::ProcfsHardened {
                root: Some("/tmp/proc".to_string()),
                cooldown_ms: 250,
            },
        ),
    ] {
        assert_eq!(spec.parse::<SamplerSpec>().as_ref(), Ok(&value));
        assert_eq!(value.to_string(), spec);
        assert_round_trips(&value);
    }
}

/// The showcase parameterized entry: `pid(kp=.., ki=..)` selected by spec
/// string, end to end through `LoadControl::from_spec`, with
/// `LoadControl::spec` reporting it back.
#[test]
fn pid_policy_is_selectable_by_spec_string_end_to_end() {
    let control = support::control(
        LoadControlConfig::for_capacity(1),
        "policy=pid(kp=0.8, ki=0.2)",
    );
    assert_eq!(control.spec().policy.to_string(), "pid(kp=0.8, ki=0.2)");
    // The PID integrator actually steers the target under sustained load.
    let _handles: Vec<_> = (0..5).map(|_| control.registry().register()).collect();
    let mut target = 0;
    for _ in 0..200 {
        target = control.run_cycle().last_target;
    }
    assert_eq!(target, 4, "pid policy did not converge to the excess");
}

/// The latency-SLO policy plane is selectable end to end by spec string —
/// and refuses malformed parameters with grammar-level errors, so a typo'd
/// policy fails loudly instead of silently running the default.
#[test]
fn latency_and_autotune_specs_build_and_reject_malformed_params() {
    let control = support::control(
        LoadControlConfig::for_capacity(2),
        "policy=latency(target_p99=20, floor=1)",
    );
    assert_eq!(
        control.spec().policy.to_string(),
        "latency(target_p99=20, floor=1)"
    );
    let control = support::control(
        LoadControlConfig::for_capacity(2),
        "policy=autotune(inner=pid, objective=p99)",
    );
    assert_eq!(control.spec().policy.to_string(), "autotune(objective=p99)");
    for bad in [
        "latency(target_p99=0)",
        "latency(target_p99=-5)",
        "latency(target_p99=nan)",
        "autotune(inner=lstm)",
        "autotune(objective=vibes)",
        "autotune(window=0)",
        "latency(floor=1.5)",
    ] {
        match build_policy_spec(bad) {
            Err(e @ SpecError::InvalidValue { .. }) => {
                let message = e.to_string();
                assert!(message.contains("invalid value"), "{message}");
            }
            other => panic!("malformed spec {bad} not refused: {other:?}"),
        }
    }
}

/// A whole declarative `LoadControlSpec` round-trips: parse → build →
/// report → parse → build gives the same configuration.
#[test]
fn load_control_spec_round_trips_through_a_live_instance() {
    let spec: LoadControlSpec = "policy=hysteresis(alpha=0.3, up=3, down=4); \
                                 splitter=load-weighted(ewma=0.25); shards=4"
        .parse()
        .unwrap();
    let control = LoadControl::from_spec(LoadControlConfig::for_capacity(2), &spec).unwrap();
    let reported = control.spec();
    assert_eq!(
        reported.policy.to_string(),
        "hysteresis(alpha=0.3, up=3, down=4)"
    );
    assert_eq!(reported.splitter.to_string(), "load-weighted(ewma=0.25)");
    assert_eq!(reported.shards, Some(4));
    let reparsed: LoadControlSpec = reported.to_string().parse().unwrap();
    assert_eq!(reparsed, reported);
    let rebuilt = LoadControl::from_spec(LoadControlConfig::for_capacity(2), &reparsed).unwrap();
    assert_eq!(rebuilt.spec(), reported);
}

/// Every advertised abortable family runs under a `LoadGate` through
/// `Mutex::lock_with` over the boxed `DynLock` — the waiter-side algorithm
/// `LcMutex` monomorphizes, reached entirely through lock names — without
/// losing an update.
#[test]
fn every_abortable_spec_reaches_the_lc_dispatch() {
    let control = LoadControl::new(LoadControlConfig::for_capacity(8));
    for &spec in ABORTABLE_LOCK_NAMES {
        let lock = spec.parse::<LockKind>().expect("a lock family").build();
        assert!(
            lock.is_abortable(),
            "{spec} advertised as abortable but its adapter is not"
        );
        let mutex = Mutex::with_raw(0u64, lock);
        support::run_threads(2, Some(&control), |_| {
            let mut policy = LoadGate::new(&control);
            for _ in 0..1_000 {
                *mutex.lock_with(&mut policy) += 1;
            }
        });
        assert_eq!(mutex.into_inner(), 2_000, "{spec}");
        support::check_books(&control);
    }
}

// ---------------------------------------------------------------------------
// The spec-text table: what every spec string in the repository prints.
// ---------------------------------------------------------------------------

/// What a control built from `input` reports (`LoadControl::spec`), or the
/// error that parsing or building it returns.
fn spec_outcome(input: &str) -> String {
    match input.parse::<LoadControlSpec>() {
        Err(e) => format!("error: {e}"),
        Ok(spec) => match LoadControl::from_spec(LoadControlConfig::for_capacity(2), &spec) {
            Ok(control) => control.spec().to_string(),
            Err(e) => format!("error: {e}"),
        },
    }
}

/// The name of the lock `input` builds, or the error it is refused with.
fn lock_outcome(input: &str) -> String {
    match DynMutex::try_build(input, ()) {
        Ok(mutex) => mutex.raw().name().to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// Every control-plane spec string in the tests, the examples (with
/// `server.lcspec`), CI and the benchmark's cells, every bad spec a test or
/// CI refuses, and `name()` for every name of every set: each with the text
/// the live control reports for it or the error it is refused with.
const SPEC_TEXT: &[(&str, &str)] = &[
    ("", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("policy=paper", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("policy=hysteresis", "policy=hysteresis; splitter=even; shards=1; sampler=registry"),
    ("policy=fixed", "policy=fixed; splitter=even; shards=1; sampler=registry"),
    ("policy=pid", "policy=pid; splitter=even; shards=1; sampler=registry"),
    ("policy=latency", "policy=latency; splitter=even; shards=1; sampler=registry"),
    ("policy=autotune", "policy=autotune; splitter=even; shards=1; sampler=registry"),
    ("policy=paper()", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("policy=hysteresis()", "policy=hysteresis; splitter=even; shards=1; sampler=registry"),
    ("policy=fixed()", "policy=fixed; splitter=even; shards=1; sampler=registry"),
    ("policy=pid()", "policy=pid; splitter=even; shards=1; sampler=registry"),
    ("policy=latency()", "policy=latency; splitter=even; shards=1; sampler=registry"),
    ("policy=autotune()", "policy=autotune; splitter=even; shards=1; sampler=registry"),
    ("splitter=even; shards=2", "policy=paper; splitter=even; shards=2; sampler=registry"),
    ("splitter=load-weighted; shards=2", "policy=paper; splitter=load-weighted; shards=2; sampler=registry"),
    ("splitter=even()", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("splitter=load-weighted()", "policy=paper; splitter=load-weighted; shards=1; sampler=registry"),
    ("sampler=registry", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("sampler=fixed", "policy=paper; splitter=even; shards=1; sampler=fixed(runnable=0)"),
    ("sampler=procfs", "policy=paper; splitter=even; shards=1; sampler=procfs"),
    ("sampler=procfs-hardened", "policy=paper; splitter=even; shards=1; sampler=procfs-hardened"),
    ("sampler=registry()", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("sampler=fixed()", "policy=paper; splitter=even; shards=1; sampler=fixed(runnable=0)"),
    ("sampler=procfs()", "policy=paper; splitter=even; shards=1; sampler=procfs"),
    ("sampler=procfs-hardened()", "policy=paper; splitter=even; shards=1; sampler=procfs-hardened"),
    ("policy=pid(kp=0.8, ki=0.2)", "policy=pid(kp=0.8, ki=0.2); splitter=even; shards=1; sampler=registry"),
    ("policy=latency(target_p99=20, floor=1)", "policy=latency(target_p99=20, floor=1); splitter=even; shards=1; sampler=registry"),
    ("policy=autotune(inner=pid, objective=p99)", "policy=autotune(objective=p99); splitter=even; shards=1; sampler=registry"),
    ("policy=hysteresis(alpha=0.3, up=3, down=4); splitter=load-weighted(ewma=0.25); shards=4", "policy=hysteresis(alpha=0.3, up=3, down=4); splitter=load-weighted(ewma=0.25); shards=4; sampler=registry"),
    ("policy=paper; shards=4; wake_order=fifo", "policy=paper; splitter=even; shards=4; sampler=registry"),
    ("policy=paper; shards=4; wake_order=window", "policy=paper; splitter=even; shards=4; sampler=registry; wake_order=window"),
    ("policy=latency(target_p99=50); shards=4; wake_order=fifo", "policy=latency; splitter=even; shards=4; sampler=registry"),
    ("policy=latency(target_p99=50); shards=4; wake_order=window", "policy=latency; splitter=even; shards=4; sampler=registry; wake_order=window"),
    ("policy=pid(kp=0.5, ki=0.1); shards=4; wake_order=window", "policy=pid; splitter=even; shards=4; sampler=registry; wake_order=window"),
    ("policy=autotune(inner=pid, objective=p99); shards=4; wake_order=window", "policy=autotune(objective=p99); splitter=even; shards=4; sampler=registry; wake_order=window"),
    ("policy=fixed(target=4)", "policy=fixed(target=4); splitter=even; shards=1; sampler=registry"),
    ("policy=fixed(target=16)", "policy=fixed(target=16); splitter=even; shards=1; sampler=registry"),
    ("policy=fixed(target=24)", "policy=fixed(target=24); splitter=even; shards=1; sampler=registry"),
    ("policy=pid(kp=0.5, ki=0.1)", "policy=pid; splitter=even; shards=1; sampler=registry"),
    ("policy=latency(target_p99=20); wake_order=window", "policy=latency(target_p99=20); splitter=even; shards=1; sampler=registry; wake_order=window"),
    ("policy=pid(kp=0.9)", "policy=pid(kp=0.9); splitter=even; shards=1; sampler=registry"),
    ("policy=pid(kp=0.5, ki=0.1); splitter=load-weighted; shards=2", "policy=pid; splitter=load-weighted; shards=2; sampler=registry"),
    ("policy=hysteresis(alpha=0.3, deadband=2); shards=4", "policy=hysteresis(alpha=0.3, up=2); splitter=even; shards=4; sampler=registry"),
    ("policy=hysteresis(alpha=0.3, deadband=2); splitter=load-weighted(ewma=0.25); shards=2", "policy=hysteresis(alpha=0.3, up=2); splitter=load-weighted(ewma=0.25); shards=2; sampler=registry"),
    ("policy=hysteresis(alpha=0.25, up=1.5, down=3)", "policy=hysteresis(alpha=0.25, up=1.5, down=3); splitter=even; shards=1; sampler=registry"),
    ("policy=hysteresis(alpha=0.3, up=2, down=3)", "policy=hysteresis(alpha=0.3, up=2, down=3); splitter=even; shards=1; sampler=registry"),
    ("policy=fixed(target=8)", "policy=fixed(target=8); splitter=even; shards=1; sampler=registry"),
    ("policy=fixed(target=3)", "policy=fixed(target=3); splitter=even; shards=1; sampler=registry"),
    ("policy=fixed(target=5)", "policy=fixed(target=5); splitter=even; shards=1; sampler=registry"),
    ("policy=latency(target_p99=50, floor=0)", "policy=latency; splitter=even; shards=1; sampler=registry"),
    ("policy=latency(target_p99=5, floor=2)", "policy=latency(target_p99=5, floor=2); splitter=even; shards=1; sampler=registry"),
    ("policy=latency(target_p99=75, floor=4)", "policy=latency(target_p99=75, floor=4); splitter=even; shards=1; sampler=registry"),
    ("policy=autotune(inner=pid, window=16)", "policy=autotune; splitter=even; shards=1; sampler=registry"),
    ("policy=autotune(objective=wake_churn)", "policy=autotune(objective=wake_churn); splitter=even; shards=1; sampler=registry"),
    ("policy=autotune(inner=hysteresis, objective=p99, window=8, seed=7)", "policy=autotune(inner=hysteresis, objective=p99, window=8, seed=7); splitter=even; shards=1; sampler=registry"),
    ("policy=autotune(inner=hysteresis, objective=wake_churn, window=12)", "policy=autotune(inner=hysteresis, objective=wake_churn, window=12); splitter=even; shards=1; sampler=registry"),
    ("policy=hysteresis(alpha=0.5, up=1, down=2)", "policy=hysteresis; splitter=even; shards=1; sampler=registry"),
    ("policy=pid(kp=0.8, ki=0.2); splitter=load-weighted(ewma=0.25); shards=2; sampler=fixed(runnable=9)", "policy=pid(kp=0.8, ki=0.2); splitter=load-weighted(ewma=0.25); shards=2; sampler=fixed(runnable=9)"),
    ("policy=pid(kp=0.8, ki=0.2); splitter=load-weighted; shards=2", "policy=pid(kp=0.8, ki=0.2); splitter=load-weighted; shards=2; sampler=registry"),
    ("policy=hysteresis(alpha=0.3, deadband=2); shards=2; sampler=fixed(runnable=9)", "policy=hysteresis(alpha=0.3, up=2); splitter=even; shards=2; sampler=fixed(runnable=9)"),
    ("policy=autotune(inner=pid, objective=p99); shards=2; wake_order=fifo", "policy=autotune(objective=p99); splitter=even; shards=2; sampler=registry"),
    ("policy=fixed; splitter=load-weighted; shards=2", "policy=fixed; splitter=load-weighted; shards=2; sampler=registry"),
    ("policy=fixed; shards=4", "policy=fixed; splitter=even; shards=4; sampler=registry"),
    ("policy=fixed; shards=2", "policy=fixed; splitter=even; shards=2; sampler=registry"),
    ("shards=1", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("shards=2", "policy=paper; splitter=even; shards=2; sampler=registry"),
    ("shards=3", "policy=paper; splitter=even; shards=4; sampler=registry"),
    ("shards=4", "policy=paper; splitter=even; shards=4; sampler=registry"),
    ("sampler=fixed(runnable=6)", "policy=paper; splitter=even; shards=1; sampler=fixed(runnable=6)"),
    ("sampler=fixed(runnable=9)", "policy=paper; splitter=even; shards=1; sampler=fixed(runnable=9)"),
    ("sampler=procfs-hardened(cooldown_ms=250)", "policy=paper; splitter=even; shards=1; sampler=procfs-hardened(cooldown_ms=250)"),
    ("sampler=procfs(root=/tmp/proc)", "policy=paper; splitter=even; shards=1; sampler=procfs(root=/tmp/proc)"),
    ("wake_order=window", "policy=paper; splitter=even; shards=1; sampler=registry; wake_order=window"),
    ("wake_order=fifo", "policy=paper; splitter=even; shards=1; sampler=registry"),
    ("shards=4; wake_order=window", "policy=paper; splitter=even; shards=4; sampler=registry; wake_order=window"),
    ("# experiment: smooth convergence\n policy = pid(kp=0.5, ki=0.1)   # showcase parameterized entry\n\n splitter = load-weighted(ewma=0.25)\n shards = 4\n", "policy=pid; splitter=load-weighted(ewma=0.25); shards=4; sampler=registry"),
    (include_str!("../examples/server.lcspec"), "policy=pid; splitter=load-weighted(ewma=0.25); shards=2; sampler=registry"),
    // Refused, by the parser or by the constructor.
    ("policy=no-such-policy", "error: unknown policy \"no-such-policy\"; registered policies: paper, hysteresis, fixed, pid, latency, autotune"),
    ("policy=pid(gain=2)", "error: policy \"pid\" does not accept key \"gain\"; accepted keys: kp, ki, kd"),
    ("brightness=11", "error: spec: unknown key \"brightness\"; accepted keys: policy, splitter, shards, sampler, wake_order"),
    ("shards=zero", "error: spec: invalid shard count \"zero\": expected a positive integer"),
    ("shards=0", "error: spec: shard count must be at least 1"),
    ("policy=paper; policy=fixed", "error: spec: duplicate key \"policy\""),
    ("topology=mesh", "error: spec: unknown key \"topology\"; accepted keys: policy, splitter, shards, sampler, wake_order"),
    ("policy", "error: spec: expected key=value, got \"policy\""),
    ("pid(kp=0.5, ki=0.1)", "error: spec: expected key=value, got \"pid(kp=0.5, ki=0.1)\""),
    ("wake_order=lifo", "error: spec: invalid wake order \"lifo\": expected fifo or window"),
    ("shards=18446744073709551615", "error: shards: shard count 18446744073709551615 overflows when rounded up to a power of two"),
    ("shards=1048576", "error: shards: shard count 1048576 rounds up to 1048576 shards, more than the 1024 slots of max_sleepers"),
    ("shards=-2", "error: spec: invalid shard count \"-2\": expected a positive integer"),
    ("shards=4.5", "error: spec: invalid shard count \"4.5\": expected a positive integer"),
    ("policy=pid(bogus=1)", "error: policy \"pid\" does not accept key \"bogus\"; accepted keys: kp, ki, kd"),
    ("policy=pid(bogus_key=1)", "error: policy \"pid\" does not accept key \"bogus_key\"; accepted keys: kp, ki, kd"),
    ("policy=warp(drive=9)", "error: unknown policy \"warp\"; registered policies: paper, hysteresis, fixed, pid, latency, autotune"),
    ("splitter=no-such-splitter", "error: unknown splitter \"no-such-splitter\"; registered splitters: even, load-weighted"),
    ("sampler=no-such-sampler", "error: unknown sampler \"no-such-sampler\"; registered samplers: registry, fixed, procfs, procfs-hardened"),
    ("sampler=fixed(bogus=1)", "error: sampler \"fixed\" does not accept key \"bogus\"; accepted keys: runnable"),
    ("sampler=registry(runnable=2)", "error: sampler \"registry\" takes no parameters (got \"runnable\")"),
    ("sampler=fixed(runnable=many)", "error: fixed: invalid value \"many\" for runnable: expected a usize"),
    ("policy=paper(alpha=0.5)", "error: policy \"paper\" takes no parameters (got \"alpha\")"),
    ("policy=hysteresis(smoothing=0.5)", "error: policy \"hysteresis\" does not accept key \"smoothing\"; accepted keys: alpha, up, down, deadband"),
    ("policy=hysteresis(alpha=2)", "error: hysteresis: invalid value \"2\" for alpha: must be in (0, 1]"),
    ("policy=hysteresis(alpha=lots)", "error: hysteresis: invalid value \"lots\" for alpha: expected a f64"),
    ("policy=pid(ki=0)", "error: pid: invalid value \"0\" for ki: must be positive"),
    ("policy=fixed(target=-1)", "error: fixed: invalid value \"-1\" for target: expected a u64"),
    ("policy=latency(p99=50)", "error: policy \"latency\" does not accept key \"p99\"; accepted keys: target_p99, floor"),
    ("policy=latency(target_p99=0)", "error: latency: invalid value \"0\" for target_p99: must be positive (milliseconds)"),
    ("policy=latency(target_p99=-5)", "error: latency: invalid value \"-5\" for target_p99: must be positive (milliseconds)"),
    ("policy=latency(target_p99=nan)", "error: latency: invalid value \"nan\" for target_p99: must be positive (milliseconds)"),
    ("policy=latency(floor=1.5)", "error: latency: invalid value \"1.5\" for floor: expected a u64"),
    ("policy=autotune(inner=bogus)", "error: autotune: invalid value \"bogus\" for inner: must be pid or hysteresis"),
    ("policy=autotune(inner=lstm)", "error: autotune: invalid value \"lstm\" for inner: must be pid or hysteresis"),
    ("policy=autotune(objective=latency)", "error: autotune: invalid value \"latency\" for objective: must be throughput, wake_churn or p99"),
    ("policy=autotune(objective=vibes)", "error: autotune: invalid value \"vibes\" for objective: must be throughput, wake_churn or p99"),
    ("policy=autotune(window=0)", "error: autotune: invalid value \"0\" for window: must be at least 1"),
    ("policy=autotune(gain=2)", "error: policy \"autotune\" does not accept key \"gain\"; accepted keys: inner, objective, window, seed"),
    ("splitter=even(ewma=0.25)", "error: splitter \"even\" takes no parameters (got \"ewma\")"),
    ("splitter=load-weighted(ewma=0)", "error: load-weighted: invalid value \"0\" for ewma: must be in (0, 1]"),
    ("policy=paper(definitely_unknown_key=1)", "error: policy \"paper\" takes no parameters (got \"definitely_unknown_key\")"),
    ("policy=hysteresis(definitely_unknown_key=1)", "error: policy \"hysteresis\" does not accept key \"definitely_unknown_key\"; accepted keys: alpha, up, down, deadband"),
    ("policy=fixed(definitely_unknown_key=1)", "error: policy \"fixed\" does not accept key \"definitely_unknown_key\"; accepted keys: target"),
    ("policy=pid(definitely_unknown_key=1)", "error: policy \"pid\" does not accept key \"definitely_unknown_key\"; accepted keys: kp, ki, kd"),
    ("policy=latency(definitely_unknown_key=1)", "error: policy \"latency\" does not accept key \"definitely_unknown_key\"; accepted keys: target_p99, floor"),
    ("policy=autotune(definitely_unknown_key=1)", "error: policy \"autotune\" does not accept key \"definitely_unknown_key\"; accepted keys: inner, objective, window, seed"),
    ("splitter=even(definitely_unknown_key=1)", "error: splitter \"even\" takes no parameters (got \"definitely_unknown_key\")"),
    ("splitter=load-weighted(definitely_unknown_key=1)", "error: splitter \"load-weighted\" does not accept key \"definitely_unknown_key\"; accepted keys: ewma"),
    ("sampler=registry(definitely_unknown_key=1)", "error: sampler \"registry\" takes no parameters (got \"definitely_unknown_key\")"),
    ("sampler=fixed(definitely_unknown_key=1)", "error: sampler \"fixed\" does not accept key \"definitely_unknown_key\"; accepted keys: runnable"),
    ("sampler=procfs(definitely_unknown_key=1)", "error: sampler \"procfs\" does not accept key \"definitely_unknown_key\"; accepted keys: root"),
    ("sampler=procfs-hardened(definitely_unknown_key=1)", "error: sampler \"procfs-hardened\" does not accept key \"definitely_unknown_key\"; accepted keys: root, cooldown_ms"),
];

/// Every lock spec the tests name, bare, as `name()` and with a key.
const LOCK_TEXT: &[(&str, &str)] = &[
    ("tas", "tas"),
    ("ttas-backoff", "ttas-backoff"),
    ("ticket", "ticket"),
    ("mcs", "mcs"),
    ("tp-queue", "tp-queue"),
    ("spin-then-yield", "spin-then-yield"),
    ("rw-lock", "rw-lock"),
    ("semaphore", "semaphore"),
    ("blocking", "blocking"),
    ("adaptive", "adaptive"),
    ("flat-combining", "flat-combining"),
    ("tas()", "tas"),
    ("ttas-backoff()", "ttas-backoff"),
    ("ticket()", "ticket"),
    ("mcs()", "mcs"),
    ("tp-queue()", "tp-queue"),
    ("spin-then-yield()", "spin-then-yield"),
    ("rw-lock()", "rw-lock"),
    ("semaphore()", "semaphore"),
    ("blocking()", "blocking"),
    ("adaptive()", "adaptive"),
    ("flat-combining()", "flat-combining"),
    // Refused.
    ("no-such-lock", "error: unknown lock \"no-such-lock\"; registered locks: tas, ttas-backoff, ticket, mcs, tp-queue, spin-then-yield, rw-lock, semaphore, blocking, adaptive, flat-combining"),
    ("bogus", "error: unknown lock \"bogus\"; registered locks: tas, ttas-backoff, ticket, mcs, tp-queue, spin-then-yield, rw-lock, semaphore, blocking, adaptive, flat-combining"),
    ("ttas-backoff(max_spins=256)", "error: lock \"ttas-backoff\" takes no parameters (got \"max_spins\")"),
    ("tp-queue(patience_us=500)", "error: lock \"tp-queue\" takes no parameters (got \"patience_us\")"),
    ("ticket(max_spins=1)", "error: lock \"ticket\" takes no parameters (got \"max_spins\")"),
    ("flat-combining(strategy=first)", "error: lock \"flat-combining\" takes no parameters (got \"strategy\")"),
    ("ttas-backoff(shift=8)", "error: lock \"ttas-backoff\" takes no parameters (got \"shift\")"),
    ("tp-queue(publish_every=1)", "error: lock \"tp-queue\" takes no parameters (got \"publish_every\")"),
    ("tp-queue(time_publishing=1)", "error: lock \"tp-queue\" takes no parameters (got \"time_publishing\")"),
    ("adaptive(spin_budget=1)", "error: lock \"adaptive\" takes no parameters (got \"spin_budget\")"),
    ("adaptive(park_timeout_ms=1)", "error: lock \"adaptive\" takes no parameters (got \"park_timeout_ms\")"),
    ("tas(definitely_unknown_key=1)", "error: lock \"tas\" takes no parameters (got \"definitely_unknown_key\")"),
    ("ttas-backoff(definitely_unknown_key=1)", "error: lock \"ttas-backoff\" takes no parameters (got \"definitely_unknown_key\")"),
    ("ticket(definitely_unknown_key=1)", "error: lock \"ticket\" takes no parameters (got \"definitely_unknown_key\")"),
    ("mcs(definitely_unknown_key=1)", "error: lock \"mcs\" takes no parameters (got \"definitely_unknown_key\")"),
    ("tp-queue(definitely_unknown_key=1)", "error: lock \"tp-queue\" takes no parameters (got \"definitely_unknown_key\")"),
    ("spin-then-yield(definitely_unknown_key=1)", "error: lock \"spin-then-yield\" takes no parameters (got \"definitely_unknown_key\")"),
    ("rw-lock(definitely_unknown_key=1)", "error: lock \"rw-lock\" takes no parameters (got \"definitely_unknown_key\")"),
    ("semaphore(definitely_unknown_key=1)", "error: lock \"semaphore\" takes no parameters (got \"definitely_unknown_key\")"),
    ("blocking(definitely_unknown_key=1)", "error: lock \"blocking\" takes no parameters (got \"definitely_unknown_key\")"),
    ("adaptive(definitely_unknown_key=1)", "error: lock \"adaptive\" takes no parameters (got \"definitely_unknown_key\")"),
    ("flat-combining(definitely_unknown_key=1)", "error: lock \"flat-combining\" takes no parameters (got \"definitely_unknown_key\")"),
];

#[test]
fn every_spec_string_prints_its_canonical_text_or_its_error() {
    for (input, expected) in SPEC_TEXT {
        assert_eq!(spec_outcome(input), *expected, "{input:?}");
    }
    for (input, expected) in LOCK_TEXT {
        assert_eq!(lock_outcome(input), *expected, "{input:?}");
    }
}
