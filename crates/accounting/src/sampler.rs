//! Load samplers: how the controller measures "demanded CPUs".
//!
//! A sample is the runnable-thread count and nothing else.  No sampler
//! stamps a time; only the hardened sampler reads a clock, for its failure
//! cooldown.
//!
//! Samplers are selected through the shared `name(key=value)` spec grammar
//! of [`lc_spec`] via [`SAMPLER_SPECS`] — the same parameterized construction
//! path used for control policies, target splitters and lock families.

use crate::procfs::{HardenedProcfsSampler, ProcfsLoadSampler};
use crate::registry::ThreadRegistry;
use lc_spec::{ParsedSpec, Registry, SpecEntry, SpecError};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A source of load measurements.
///
/// The controller is generic over this trait so experiments can swap the
/// in-process registry, the `/proc` sampler, or a scripted sequence (used by
/// the bump test of Figure 8).
pub trait LoadSampler: Send + Sync {
    /// The number of runnable threads (running + spinning) observed now.
    fn sample(&self) -> usize;

    /// A short name for reports.
    fn name(&self) -> &'static str {
        "sampler"
    }

    /// The canonical spec of this sampler's live configuration (name plus
    /// any parameters differing from the defaults), in the shared
    /// `name(key=value)` grammar.  The default is the bare name.
    fn spec(&self) -> ParsedSpec {
        ParsedSpec::bare(self.name())
    }
}

/// Samples load from the in-process [`ThreadRegistry`] (the default, precise
/// source).
pub struct RegistryLoadSampler {
    registry: Arc<ThreadRegistry>,
}

impl RegistryLoadSampler {
    /// Creates a sampler over `registry`.
    pub fn new(registry: Arc<ThreadRegistry>) -> Self {
        Self { registry }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<ThreadRegistry> {
        &self.registry
    }
}

impl fmt::Debug for RegistryLoadSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegistryLoadSampler")
            .field("runnable", &self.registry.runnable_threads())
            .finish()
    }
}

impl LoadSampler for RegistryLoadSampler {
    fn sample(&self) -> usize {
        self.registry.runnable_threads()
    }

    fn name(&self) -> &'static str {
        "registry"
    }
}

/// A sampler that replays a fixed value (tests, bump-test harness).
#[derive(Debug, Clone)]
pub struct FixedLoadSampler {
    /// The runnable-thread count every sample reports.
    pub runnable: usize,
}

impl LoadSampler for FixedLoadSampler {
    fn sample(&self) -> usize {
        self.runnable
    }

    fn name(&self) -> &'static str {
        "fixed"
    }

    fn spec(&self) -> ParsedSpec {
        ParsedSpec::bare("fixed").with_param("runnable", self.runnable)
    }
}

/// Names of every registered load sampler, in the stable order of
/// [`SAMPLER_SPECS`] (a test asserts the two stay in sync).
pub const ALL_SAMPLER_NAMES: &[&str] = &["registry", "fixed", "procfs", "procfs-hardened"];

fn build_procfs(spec: &ParsedSpec) -> ProcfsLoadSampler {
    match spec.get("root") {
        Some(root) => ProcfsLoadSampler::with_root(root),
        None => ProcfsLoadSampler::new(),
    }
}

/// Every load sampler in the suite, constructed from a spec string plus the
/// thread registry the controller samples (the construction context).
///
/// ```
/// use lc_accounting::sampler::SAMPLER_SPECS;
/// use lc_accounting::ThreadRegistry;
/// use std::sync::Arc;
///
/// let registry = Arc::new(ThreadRegistry::new());
/// let sampler = SAMPLER_SPECS.build_in(&registry, "fixed(runnable=7)").unwrap();
/// assert_eq!(sampler.sample(), 7);
/// assert_eq!(sampler.spec().to_string(), "fixed(runnable=7)");
/// assert!(SAMPLER_SPECS.build_in(&registry, "fixed(bogus=1)").is_err());
/// ```
pub static SAMPLER_SPECS: Registry<Box<dyn LoadSampler>, Arc<ThreadRegistry>> = Registry::new(
    "sampler",
    &[
        SpecEntry {
            name: "registry",
            keys: &[],
            summary: "reads the in-process thread registry (precise, cheap; the default)",
            build: |registry, _| Ok(Box::new(RegistryLoadSampler::new(Arc::clone(registry)))),
        },
        SpecEntry {
            name: "fixed",
            keys: &["runnable"],
            summary: "replays a constant runnable count (tests, bump harness)",
            build: |_, spec| {
                Ok(Box::new(FixedLoadSampler {
                    runnable: spec.param_or("runnable", 0usize)?,
                }))
            },
        },
        SpecEntry {
            name: "procfs",
            keys: &["root"],
            summary: "parses /proc task states (observes unregistered threads too)",
            build: |_, spec| Ok(Box::new(build_procfs(spec))),
        },
        SpecEntry {
            name: "procfs-hardened",
            keys: &["root", "cooldown_ms"],
            summary: "procfs with registry fallback and failure cooldown",
            build: |registry, spec| {
                let fallback: Box<dyn LoadSampler> =
                    Box::new(RegistryLoadSampler::new(Arc::clone(registry)));
                let cooldown_ms = spec.param_or(
                    "cooldown_ms",
                    HardenedProcfsSampler::DEFAULT_COOLDOWN.as_millis() as u64,
                )?;
                Ok(Box::new(HardenedProcfsSampler::with_cooldown(
                    build_procfs(spec),
                    fallback,
                    Duration::from_millis(cooldown_ms),
                )))
            },
        },
    ],
);

/// Constructs the sampler described by `spec` over `registry` (a bare name
/// or a parameterized `name(key=value, ...)` spec).  Unknown names, unknown
/// keys and malformed values are explicit errors.
pub fn build_sampler_spec(
    registry: &Arc<ThreadRegistry>,
    spec: &str,
) -> Result<Box<dyn LoadSampler>, SpecError> {
    SAMPLER_SPECS.build_in(registry, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ThreadState;

    #[test]
    fn registry_sampler_tracks_registry() {
        let reg = Arc::new(ThreadRegistry::new());
        let sampler = RegistryLoadSampler::new(Arc::clone(&reg));
        assert_eq!(sampler.sample(), 0);
        let h1 = reg.register();
        let h2 = reg.register();
        assert_eq!(sampler.sample(), 2);
        h1.set_state(ThreadState::ParkedByLoadControl);
        assert_eq!(sampler.sample(), 1);
        drop(h2);
        assert_eq!(sampler.sample(), 0);
        assert_eq!(sampler.name(), "registry");
    }

    #[test]
    fn fixed_sampler_is_constant() {
        let s = FixedLoadSampler { runnable: 7 };
        assert_eq!(s.sample(), 7);
        assert_eq!(s.sample(), 7);
        assert_eq!(s.name(), "fixed");
        assert_eq!(s.spec().to_string(), "fixed(runnable=7)");
    }

    #[test]
    fn sampler_registry_backs_all_names_exactly() {
        assert_eq!(SAMPLER_SPECS.names(), ALL_SAMPLER_NAMES);
        let reg = Arc::new(ThreadRegistry::new());
        for &name in ALL_SAMPLER_NAMES {
            let sampler = build_sampler_spec(&reg, name)
                .unwrap_or_else(|e| panic!("{name} not buildable: {e}"));
            assert_eq!(sampler.name(), name);
            assert_eq!(sampler.spec().name(), name);
            // The reported spec reconstructs an identically configured
            // sampler (`fixed` always reports its defining constant).
            let rebuilt = build_sampler_spec(&reg, &sampler.spec().to_string())
                .unwrap_or_else(|e| panic!("{name}: reported spec does not rebuild: {e}"));
            assert_eq!(rebuilt.spec(), sampler.spec());
        }
        assert!(build_sampler_spec(&reg, "no-such-sampler").is_err());
    }

    #[test]
    fn sampler_registry_builds_parameterized_specs() {
        let reg = Arc::new(ThreadRegistry::new());
        let _h = reg.register();
        let fixed = build_sampler_spec(&reg, "fixed(runnable=9)").unwrap();
        assert_eq!(fixed.sample(), 9);
        assert_eq!(fixed.spec().to_string(), "fixed(runnable=9)");
        // The registry sampler actually samples the context registry.
        let registry = build_sampler_spec(&reg, "registry").unwrap();
        assert_eq!(registry.sample(), 1);
        // The hardened sampler reports its non-default cooldown back.
        let hardened = build_sampler_spec(&reg, "procfs-hardened(cooldown_ms=250)").unwrap();
        assert_eq!(
            hardened.spec().to_string(),
            "procfs-hardened(cooldown_ms=250)"
        );
        // A procfs root the grammar cannot represent is omitted from the
        // reported spec (which must stay parseable) rather than breaking it.
        let unrepresentable = crate::procfs::ProcfsLoadSampler::with_root("/run(1)/proc");
        assert_eq!(unrepresentable.spec().to_string(), "procfs");
        let representable = crate::procfs::ProcfsLoadSampler::with_root("/tmp/proc");
        assert_eq!(representable.spec().to_string(), "procfs(root=/tmp/proc)");
        // Unknown keys and malformed values are explicit errors.
        assert!(matches!(
            build_sampler_spec(&reg, "registry(runnable=2)"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            build_sampler_spec(&reg, "fixed(runnable=many)"),
            Err(SpecError::InvalidValue { .. })
        ));
    }
}
