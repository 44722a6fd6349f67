//! A generic participation hook for arbitrary spin loops.
//!
//! The paper integrates load control into the lock's own polling loop
//! (§3.2.3), but the mechanism is not lock-specific: *any* busy-wait — a
//! custom barrier, a sequence-lock retry loop, a spin on a flag set by
//! another thread — can donate its thread to load control when the machine is
//! overloaded.  [`SpinHook`] packages that: call [`SpinHook::pause`] once per
//! polling iteration and the hook takes care of checking the slot buffer,
//! claiming, parking and waking exactly like a load-controlled lock waiter.

use crate::controller::LoadControl;
use crate::thread_ctx::LoadControlPolicy;
use lc_locks::{SpinDecision, SpinPolicy};
use std::fmt;
use std::sync::Arc;

/// A load-control participation hook for user spin loops.
///
/// ```
/// use lc_core::{LoadControl, LoadControlConfig, SpinHook};
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let control = LoadControl::new(LoadControlConfig::for_capacity(4));
/// let flag = AtomicBool::new(true); // pretend another thread will clear it
/// let mut hook = SpinHook::new(&control);
/// let mut iterations = 0u32;
/// while flag.load(Ordering::Acquire) {
///     hook.pause();
///     iterations += 1;
///     if iterations > 10 {
///         flag.store(false, Ordering::Release); // keep the example finite
///     }
/// }
/// assert!(hook.spins() >= 10);
/// ```
pub struct SpinHook {
    policy: LoadControlPolicy,
    spins: u64,
}

impl fmt::Debug for SpinHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpinHook")
            .field("spins", &self.spins)
            .field("sleeps", &self.sleeps())
            .finish()
    }
}

impl SpinHook {
    /// Creates a hook for the calling thread on `control`.
    pub fn new(control: &Arc<LoadControl>) -> Self {
        Self {
            policy: LoadControlPolicy::new(control),
            spins: 0,
        }
    }

    /// One polling-iteration pause.  Usually just a `spin_loop` hint; when the
    /// controller wants threads asleep, this call claims a slot, parks, and
    /// returns once the thread has been woken.  A wait past capacity that has
    /// found no slot for a long time steps aside for one short park, which is
    /// not a sleep.
    ///
    /// Returns `true` if the thread slept.
    pub fn pause(&mut self) -> bool {
        self.spins += 1;
        match self.policy.on_spin(self.spins) {
            SpinDecision::Continue => {
                std::hint::spin_loop();
                false
            }
            SpinDecision::Abort => self.policy.aborted(),
        }
    }

    /// Signals that the condition being waited for arrived; releases any
    /// pending claim and marks the thread running again.
    pub fn finish(&mut self) {
        self.policy.on_acquired(self.spins);
    }

    /// Number of pauses so far.
    pub fn spins(&self) -> u64 {
        self.spins
    }

    /// Number of times the hook put this thread to sleep.
    pub fn sleeps(&self) -> u64 {
        u64::from(self.policy.sleeps_this_acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadControlConfig;
    use crate::policy::FixedPolicy;
    use std::time::Duration;

    #[test]
    fn pause_spins_when_not_overloaded() {
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(4),
            Box::new(FixedPolicy::manual()),
        );
        let mut hook = SpinHook::new(&lc);
        for _ in 0..500 {
            assert!(!hook.pause());
        }
        assert_eq!(hook.sleeps(), 0);
        assert_eq!(hook.spins(), 500);
        hook.finish();
    }

    #[test]
    fn pause_sleeps_under_overload_and_wakes_on_target_drop() {
        let lc = LoadControl::with_policy(
            LoadControlConfig::for_capacity(1).with_sleep_timeout(Duration::from_millis(20)),
            Box::new(FixedPolicy::manual()),
        );
        lc.set_sleep_target(1);
        let mut hook = SpinHook::new(&lc);
        let mut slept = false;
        for _ in 0..(lc.config().slot_check_period * 2) {
            slept |= hook.pause();
            if slept {
                break;
            }
        }
        assert!(slept, "the hook should have put the thread to sleep");
        assert_eq!(hook.sleeps(), 1);
        hook.finish();
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }
}
