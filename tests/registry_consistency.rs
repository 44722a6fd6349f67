//! Registry-consistency tests: the string-keyed construction paths must stay
//! in lockstep.
//!
//! Four registries share one `name(key=value)` spec grammar and one
//! generic `Registry<T>` (`lc_spec`): the lock registry in
//! `lc_locks::registry`, the control-policy and target-splitter registries in
//! `lc_core::policy`, and the load-sampler registry in `lc_accounting`.
//! Benchmarks, tests and experiment configurations assume a spec accepted
//! by one is meaningful to the others; these tests fail the build the moment
//! any side drifts.

mod support;

use load_control_suite::accounting::{build_sampler_spec, ThreadRegistry, ALL_SAMPLER_NAMES};
use load_control_suite::core::policy::{
    self, build_policy_spec, build_splitter_spec, POLICY_SPECS, SPLITTER_SPECS,
};
use load_control_suite::core::spec::{LoadControlSpec, ParsedSpec, SpecError};
use load_control_suite::core::{LoadControl, LoadControlConfig, LoadGate};
use load_control_suite::locks::registry::{self, DynMutex, LOCK_SPECS};
use load_control_suite::locks::{ABORTABLE_LOCK_NAMES, ALL_LOCK_NAMES};
use std::sync::Arc;

#[test]
fn every_lock_name_round_trips_through_the_registry() {
    assert_eq!(LOCK_SPECS.names(), ALL_LOCK_NAMES);
    for &name in ALL_LOCK_NAMES {
        let lock = registry::build_spec(name)
            .unwrap_or_else(|e| panic!("{name} in ALL_LOCK_NAMES but not buildable: {e}"));
        assert_eq!(lock.name(), name, "registry returned a mislabelled lock");
        // And the lock actually works as a mutex.
        lock.lock();
        assert!(lock.is_locked(), "{name} does not report being held");
        unsafe { lock.unlock() };
        assert!(!lock.is_locked(), "{name} does not report being free");
    }
    assert!(registry::build_spec("no-such-lock").is_err());
}

#[test]
fn every_control_policy_name_round_trips_through_its_registry() {
    assert_eq!(POLICY_SPECS.names(), policy::ALL_POLICY_NAMES);
    for &name in policy::ALL_POLICY_NAMES {
        let built = build_policy_spec(name)
            .unwrap_or_else(|e| panic!("{name} in ALL_POLICY_NAMES but not buildable: {e}"));
        assert_eq!(built.name(), name, "policy registry mislabelled {name}");
        // The one constructor accepts the same specs.
        let control = support::control(
            LoadControlConfig::for_capacity(2),
            &format!("policy={name}"),
        );
        assert_eq!(control.spec().policy.name(), name);
    }
    assert!(build_policy_spec("no-such-policy").is_err());
}

#[test]
fn every_splitter_name_round_trips_through_its_registry() {
    assert_eq!(SPLITTER_SPECS.names(), policy::ALL_SPLITTER_NAMES);
    for &name in policy::ALL_SPLITTER_NAMES {
        let built = build_splitter_spec(name)
            .unwrap_or_else(|e| panic!("{name} in ALL_SPLITTER_NAMES but not buildable: {e}"));
        assert_eq!(built.name(), name, "splitter registry mislabelled {name}");
        // The one constructor accepts the same specs.
        let control = support::control(
            LoadControlConfig::for_capacity(2),
            &format!("splitter={name}; shards=2"),
        );
        assert_eq!(control.spec().splitter.name(), name);
    }
    assert!(build_splitter_spec("no-such-splitter").is_err());
}

#[test]
fn every_sampler_name_round_trips_through_its_registry() {
    let reg = Arc::new(ThreadRegistry::new());
    for &name in ALL_SAMPLER_NAMES {
        let built = build_sampler_spec(&reg, name)
            .unwrap_or_else(|e| panic!("{name} in ALL_SAMPLER_NAMES but not buildable: {e}"));
        assert_eq!(built.name(), name, "sampler registry mislabelled {name}");
        // The one constructor accepts the same specs.
        let control = support::control(
            LoadControlConfig::for_capacity(2),
            &format!("sampler={name}"),
        );
        assert_eq!(control.spec().sampler.unwrap().name(), name);
    }
    assert!(build_sampler_spec(&reg, "no-such-sampler").is_err());
}

/// Every registered entry in every registry must parse both bare and with
/// empty parens, and must reject an unknown parameter key — the grammar-level
/// guarantees of the unified spec surface.
#[test]
fn every_registered_name_parses_with_and_without_parens_and_rejects_unknown_keys() {
    let reg = Arc::new(ThreadRegistry::new());
    let mut checked = 0usize;
    let mut check = |kind: &str, name: &str, build: &dyn Fn(&str) -> Result<(), SpecError>| {
        build(name).unwrap_or_else(|e| panic!("{kind} {name}: bare name rejected: {e}"));
        build(&format!("{name}()"))
            .unwrap_or_else(|e| panic!("{kind} {name}(): empty parens rejected: {e}"));
        match build(&format!("{name}(definitely_unknown_key=1)")) {
            Err(SpecError::UnknownKey { key, .. }) => {
                assert_eq!(key, "definitely_unknown_key", "{kind} {name}");
            }
            other => panic!("{kind} {name}: unknown key not rejected (got {other:?})"),
        }
        checked += 1;
    };
    for &name in ALL_LOCK_NAMES {
        check("lock", name, &|s| registry::build_spec(s).map(|_| ()));
    }
    for &name in policy::ALL_POLICY_NAMES {
        check("policy", name, &|s| build_policy_spec(s).map(|_| ()));
    }
    for &name in policy::ALL_SPLITTER_NAMES {
        check("splitter", name, &|s| build_splitter_spec(s).map(|_| ()));
    }
    for &name in ALL_SAMPLER_NAMES {
        check("sampler", name, &|s| {
            build_sampler_spec(&reg, s).map(|_| ())
        });
    }
    assert_eq!(
        checked,
        ALL_LOCK_NAMES.len()
            + policy::ALL_POLICY_NAMES.len()
            + policy::ALL_SPLITTER_NAMES.len()
            + ALL_SAMPLER_NAMES.len()
    );
}

/// For every registered entry: `parse → Display → parse` is the identity on
/// the spec, and the spec a built plugin *reports* reconstructs an
/// identically configured plugin.
#[test]
fn every_registered_entry_spec_round_trips() {
    let reg = Arc::new(ThreadRegistry::new());
    for &name in ALL_LOCK_NAMES {
        let parsed = ParsedSpec::parse(name).unwrap();
        assert_eq!(ParsedSpec::parse(&parsed.to_string()).unwrap(), parsed);
        let built = registry::build_spec(name).unwrap();
        let rebuilt = registry::build_spec(&built.spec().to_string())
            .unwrap_or_else(|e| panic!("{name}: reported spec does not rebuild: {e}"));
        assert_eq!(rebuilt.spec(), built.spec(), "{name}");
    }
    for &name in policy::ALL_POLICY_NAMES {
        let built = build_policy_spec(name).unwrap();
        let rebuilt = build_policy_spec(&built.spec().to_string())
            .unwrap_or_else(|e| panic!("{name}: reported spec does not rebuild: {e}"));
        assert_eq!(rebuilt.spec(), built.spec(), "{name}");
    }
    for &name in policy::ALL_SPLITTER_NAMES {
        let built = build_splitter_spec(name).unwrap();
        let rebuilt = build_splitter_spec(&built.spec().to_string())
            .unwrap_or_else(|e| panic!("{name}: reported spec does not rebuild: {e}"));
        assert_eq!(rebuilt.spec(), built.spec(), "{name}");
    }
    for &name in ALL_SAMPLER_NAMES {
        let built = build_sampler_spec(&reg, name).unwrap();
        let rebuilt = build_sampler_spec(&reg, &built.spec().to_string())
            .unwrap_or_else(|e| panic!("{name}: reported spec does not rebuild: {e}"));
        assert_eq!(rebuilt.spec(), built.spec(), "{name}");
    }
}

/// Parameterized variants round-trip too, across all four registries.
#[test]
fn parameterized_specs_round_trip_across_registries() {
    let reg = Arc::new(ThreadRegistry::new());
    for spec in [
        "ttas-backoff(max_spins=256)",
        "tp-queue(patience_us=500, publish_every=16)",
        "adaptive(spin_budget=64)",
    ] {
        let built = registry::build_spec(spec).unwrap();
        assert_eq!(built.spec().to_string(), spec, "lock spelling drifted");
    }
    for spec in [
        "hysteresis(alpha=0.3, up=2, down=3)",
        "fixed(target=8)",
        "pid(kp=0.8, ki=0.2)",
        "latency(target_p99=75, floor=4)",
        "autotune(inner=hysteresis, objective=wake_churn, window=12)",
    ] {
        let built = build_policy_spec(spec).unwrap();
        assert_eq!(built.spec().to_string(), spec, "policy spelling drifted");
    }
    let built = build_splitter_spec("load-weighted(ewma=0.25)").unwrap();
    assert_eq!(built.spec().to_string(), "load-weighted(ewma=0.25)");
    let built = build_sampler_spec(&reg, "fixed(runnable=9)").unwrap();
    assert_eq!(built.spec().to_string(), "fixed(runnable=9)");
}

/// The showcase parameterized entry: `pid(kp=.., ki=..)` selected by spec
/// string, end to end through `LoadControl::from_spec`, with the live
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
/// and rejects malformed parameters with grammar-level errors, so a typo'd
/// `LC_POLICY` fails loudly instead of silently running the default.
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
        assert!(
            build_policy_spec(bad).is_err(),
            "malformed spec accepted: {bad}"
        );
    }
}

/// A whole declarative `LoadControlSpec` round-trips: parse → build →
/// live-report → parse → build gives the same configuration.
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

/// Every advertised abortable family, bare or parameterized, runs under
/// a `LoadGate` through the dynamically dispatched
/// `DynMutex::lock_with` — the waiter-side algorithm `LcMutex` monomorphizes,
/// reached entirely through spec strings — without losing an update.
#[test]
fn every_abortable_spec_reaches_the_lc_dispatch() {
    let control = LoadControl::new(LoadControlConfig::for_capacity(8));
    for spec in ABORTABLE_LOCK_NAMES
        .iter()
        .copied()
        .chain(["ttas-backoff(max_spins=128)"])
    {
        let lock = registry::build_spec(spec).expect("registered");
        assert!(
            lock.is_abortable(),
            "{spec} advertised as abortable but its adapter is not"
        );
        let mutex = DynMutex::new(lock, 0u64);
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
