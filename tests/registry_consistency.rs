//! Registry-consistency tests: the string-keyed construction paths must stay
//! in lockstep.
//!
//! Four registries share one `name(key=value)` spec grammar and one
//! generic `Registry<T>` (`lc_spec`): the lock registry in
//! `lc_locks::registry`, the control-policy and target-splitter registries in
//! `lc_core::policy`, and the load-sampler registry in `lc_accounting` —
//! plus the combiner strategies and the simulator policy labels in
//! `lc_sim::LockPolicy`.
//! Benchmarks, drivers and experiment configurations assume a spec accepted
//! by one is meaningful to the others; these tests fail the build the moment
//! any side drifts.

use load_control_suite::accounting::{build_sampler_spec, ThreadRegistry, ALL_SAMPLER_NAMES};
use load_control_suite::core::policy::{
    self, build_policy_spec, build_splitter_spec, POLICY_SPECS, SPLITTER_SPECS,
};
use load_control_suite::core::spec::{LoadControlSpec, ParsedSpec, SpecError};
use load_control_suite::core::{LoadControl, LoadControlConfig};
use load_control_suite::des::discipline::{self, WaiterDiscipline};
use load_control_suite::locks::delegation::{
    build_combiner_spec, ALL_COMBINER_STRATEGY_NAMES, COMBINER_SPECS,
};
use load_control_suite::locks::registry::{self, LOCK_SPECS};
use load_control_suite::locks::{ABORTABLE_LOCK_NAMES, ALL_LOCK_NAMES};
use load_control_suite::sim::LockPolicy;
use load_control_suite::workloads::drivers::{run_microbench_lc_spec, MicrobenchConfig};
use std::sync::Arc;
use std::time::Duration;

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
fn every_lock_name_is_a_valid_waiter_discipline() {
    // Both simulators accept every real lock name (aliasing families onto
    // the nearest waiter discipline), so experiment configs can drive all
    // sides with one string.  The alias table lives in `lc_des::discipline`
    // — the single source of truth both `lc-des` and `lc-sim` resolve
    // through.
    assert!(discipline::covers_lock_registry());
    for &name in ALL_LOCK_NAMES {
        let discipline = WaiterDiscipline::for_lock(name)
            .unwrap_or_else(|| panic!("{name} in ALL_LOCK_NAMES but has no waiter discipline"));
        // The canonical discipline labels keep round-tripping exactly.
        let canonical = discipline.canonical_name();
        assert_eq!(
            WaiterDiscipline::for_lock(canonical),
            Some(discipline),
            "canonical discipline label {canonical} does not round-trip"
        );
        // And the legacy scheduler model agrees with the shared table.
        assert_eq!(
            LockPolicy::from(discipline).name(),
            canonical,
            "lc_sim model for {name} is mislabelled"
        );
    }
    assert!(WaiterDiscipline::for_lock("no-such-policy").is_none());
}

#[test]
fn sim_canonical_labels_stay_known() {
    // Every label the legacy simulator itself produces is accepted back by
    // the shared discipline table.
    for policy in [
        LockPolicy::spin_fifo(),
        LockPolicy::spin(),
        LockPolicy::blocking(),
        LockPolicy::adaptive(),
        LockPolicy::load_controlled(),
        LockPolicy::load_backoff(),
        LockPolicy::combining(),
    ] {
        let discipline = WaiterDiscipline::for_lock(policy.name())
            .unwrap_or_else(|| panic!("sim label {} unknown to lc_des", policy.name()));
        assert_eq!(LockPolicy::from(discipline), policy);
    }
}

#[test]
fn every_control_policy_name_round_trips_through_its_registry() {
    assert_eq!(POLICY_SPECS.names(), policy::ALL_POLICY_NAMES);
    for &name in policy::ALL_POLICY_NAMES {
        let built = build_policy_spec(name)
            .unwrap_or_else(|e| panic!("{name} in ALL_POLICY_NAMES but not buildable: {e}"));
        assert_eq!(built.name(), name, "policy registry mislabelled {name}");
        // The builder-style constructor accepts the same specs.
        let control = LoadControl::builder(LoadControlConfig::for_capacity(2))
            .policy_spec(name)
            .unwrap_or_else(|e| panic!("builder rejected registered policy {name}: {e}"))
            .build();
        assert_eq!(control.policy_name(), name);
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
        // The builder-style constructor accepts the same specs.
        let control = LoadControl::builder(LoadControlConfig::for_capacity(2).with_shards(2))
            .splitter_spec(name)
            .unwrap_or_else(|e| panic!("builder rejected registered splitter {name}: {e}"))
            .build();
        assert_eq!(control.splitter_name(), name);
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
        // The builder-style constructor accepts the same specs.
        let control = LoadControl::builder(LoadControlConfig::for_capacity(2))
            .sampler_spec(name)
            .unwrap_or_else(|e| panic!("builder rejected registered sampler {name}: {e}"))
            .build();
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
    for name in COMBINER_SPECS.names() {
        check("combiner", name, &|s| build_combiner_spec(s).map(|_| ()));
    }
    assert_eq!(
        checked,
        ALL_LOCK_NAMES.len()
            + policy::ALL_POLICY_NAMES.len()
            + policy::ALL_SPLITTER_NAMES.len()
            + ALL_SAMPLER_NAMES.len()
            + COMBINER_SPECS.names().len()
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
    for name in COMBINER_SPECS.names() {
        let built = build_combiner_spec(name).unwrap();
        let rebuilt = build_combiner_spec(&built.spec().to_string())
            .unwrap_or_else(|e| panic!("{name}: reported spec does not rebuild: {e}"));
        assert_eq!(rebuilt, built, "{name}");
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
    let built = build_combiner_spec("combiner(strategy=window, window=8)").unwrap();
    assert_eq!(
        built.spec().to_string(),
        "combiner(strategy=window, window=8)"
    );
}

/// The delegation lock families and the combiner-strategy registry stay in
/// lockstep: every registered strategy value is accepted both standalone and
/// embedded in either lock's spec, and what the combiner registry rejects is
/// rejected there too.
#[test]
fn delegation_locks_accept_every_combiner_strategy() {
    for lock in ["flat-combining", "ccsynch"] {
        assert!(ALL_LOCK_NAMES.contains(&lock), "{lock} not registered");
        assert!(ABORTABLE_LOCK_NAMES.contains(&lock), "{lock} not abortable");
        for &strategy in ALL_COMBINER_STRATEGY_NAMES {
            let spec = format!("{lock}(strategy={strategy})");
            let built =
                registry::build_spec(&spec).unwrap_or_else(|e| panic!("{spec} rejected: {e}"));
            assert_eq!(built.name(), lock, "{spec} mislabelled");
            build_combiner_spec(&format!("combiner(strategy={strategy})")).unwrap_or_else(|e| {
                panic!("strategy {strategy} embeds in {lock} but not in combiner: {e}")
            });
        }
        assert!(
            registry::build_spec(&format!("{lock}(strategy=bogus)")).is_err(),
            "{lock} accepted a bogus strategy"
        );
        // `window=` without `strategy=window` is meaningless everywhere.
        assert!(registry::build_spec(&format!("{lock}(window=4)")).is_err());
    }
    assert!(build_combiner_spec("combiner(strategy=bogus)").is_err());
    assert!(build_combiner_spec("combiner(window=4)").is_err());
}

/// The legacy lc_sim name resolver keeps matching the shared discipline
/// table (the bare-name builder shims elsewhere are gone; specs are the one
/// construction path).
#[test]
#[allow(deprecated)]
fn sim_name_resolver_stays_in_lockstep() {
    for &name in ALL_LOCK_NAMES {
        assert_eq!(
            LockPolicy::from_name(name),
            WaiterDiscipline::for_lock(name).map(LockPolicy::from),
            "{name}"
        );
    }
    assert!(LockPolicy::from_name("no-such-policy").is_none());
}

/// The showcase parameterized entry: `pid(kp=.., ki=..)` selected by spec
/// string, end to end through the builder, with the live `LoadControl::spec`
/// reporting it back.
#[test]
fn pid_policy_is_selectable_by_spec_string_end_to_end() {
    let control = LoadControl::builder(LoadControlConfig::for_capacity(1))
        .policy_spec("pid(kp=0.8, ki=0.2)")
        .expect("pid spec")
        .build();
    assert_eq!(control.policy_name(), "pid");
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
    let control = LoadControl::builder(LoadControlConfig::for_capacity(2))
        .policy_spec("latency(target_p99=20, floor=1)")
        .expect("latency spec")
        .build();
    assert_eq!(control.policy_name(), "latency");
    assert_eq!(
        control.spec().policy.to_string(),
        "latency(target_p99=20, floor=1)"
    );
    let control = LoadControl::builder(LoadControlConfig::for_capacity(2))
        .policy_spec("autotune(inner=pid, objective=p99)")
        .expect("autotune spec")
        .build();
    assert_eq!(control.policy_name(), "autotune");
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

#[test]
fn every_abortable_spec_reaches_the_lc_dispatch() {
    // The spec-driven LC dispatch must cover exactly the advertised
    // abortable families — and reject the rest with an explicit error.
    let control = LoadControl::new(LoadControlConfig::for_capacity(8));
    let tiny = MicrobenchConfig {
        threads: 2,
        critical_iters: 5,
        delay_iters: 20,
        duration: Duration::from_millis(10),
    };
    for &name in ABORTABLE_LOCK_NAMES {
        assert!(
            registry::build_spec(name)
                .expect("registered")
                .is_abortable(),
            "{name} advertised as abortable but its adapter is not"
        );
        let r = run_microbench_lc_spec(name, tiny, &control)
            .unwrap_or_else(|e| panic!("{name} rejected by the LC dispatch: {e}"));
        assert!(r.acquisitions > 0, "{name}: no progress under load control");
    }
    for &name in ALL_LOCK_NAMES {
        if !ABORTABLE_LOCK_NAMES.contains(&name) {
            assert!(
                run_microbench_lc_spec(name, tiny, &control).is_err(),
                "{name} is not abortable but the LC dispatch accepted it"
            );
        }
    }
    // Parameterized backends flow through the same dispatch.
    let r = run_microbench_lc_spec("ttas-backoff(max_spins=128)", tiny, &control)
        .expect("parameterized backend");
    assert!(r.acquisitions > 0);
}
