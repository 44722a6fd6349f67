//! Load samplers: how the controller measures "demanded CPUs".
//!
//! A sample is the runnable-thread count and nothing else.  No sampler
//! stamps a time; only the hardened sampler reads a clock, for its failure
//! cooldown.
//!
//! A load control names its sampler in its spec (`lc_core::SamplerSpec`:
//! `registry`, `fixed`, `procfs`, `procfs-hardened`) and builds it there.

use crate::registry::ThreadRegistry;
use std::fmt;
use std::sync::Arc;

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
    }
}
