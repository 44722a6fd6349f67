//! Simulated workloads: what the megascale population *does* between visits
//! to the lock.
//!
//! This is the one deliberately-modelled layer of the simulator (everything
//! on the control side is the real production code).  A workload is a
//! population shape ([`Arrivals`]), a pair of duration distributions
//! (critical section and think time), and an optional schedule of
//! [`Phase`] shifts that swap the distributions at virtual times — a bump
//! test, for instance.

use rand::{rngs::StdRng, Rng};
use std::time::Duration;

/// How the worker population presents load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Closed loop: every worker is always either thinking, spinning, in the
    /// critical section, or parked.  The population is the concurrency.
    Closed,
    /// Open loop: workers activate one at a time with exponentially
    /// distributed inter-arrival gaps (mean below) until the population is
    /// exhausted, then behave as in the closed loop.
    Open {
        /// Mean of the exponential inter-arrival distribution.
        mean_interarrival: Duration,
    },
}

/// A duration distribution, sampled with the engine's seeded generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every draw is the same value.
    Fixed(Duration),
    /// Exponential with the given mean (inverse-transform sampled).
    Exp {
        /// Mean of the distribution.
        mean: Duration,
    },
    /// Bounded Pareto — the heavy tail that makes critical sections
    /// interesting: most are near `min`, a few approach `cap`.
    Pareto {
        /// Scale (minimum value).
        min: Duration,
        /// Tail index; smaller is heavier.  Must be positive.
        alpha: f64,
        /// Upper truncation (keeps one draw from stalling the simulation).
        cap: Duration,
    },
}

impl Dist {
    /// Draws one duration.
    pub fn sample(&self, rng: &mut StdRng) -> Duration {
        match *self {
            Dist::Fixed(d) => d,
            Dist::Exp { mean } => {
                let u: f64 = rng.random_range(0.0..1.0);
                // Inverse transform; (1 - u) is in (0, 1] so ln is finite.
                let draw = -(1.0 - u).ln() * mean.as_secs_f64();
                Duration::from_secs_f64(draw)
            }
            Dist::Pareto { min, alpha, cap } => {
                let u: f64 = rng.random_range(0.0..1.0);
                let draw = min.as_secs_f64() / (1.0 - u).powf(1.0 / alpha.max(f64::EPSILON));
                Duration::from_secs_f64(draw.min(cap.as_secs_f64()))
            }
        }
    }
}

/// A scheduled change of workload character at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Virtual time at which the new distributions take effect.
    pub at: Duration,
    /// Critical-section distribution from this point on.
    pub critical: Dist,
    /// Think-time distribution from this point on.
    pub think: Dist,
}

/// A complete workload description for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Population shape.
    pub arrivals: Arrivals,
    /// Initial critical-section distribution.
    pub critical: Dist,
    /// Initial think-time distribution.
    pub think: Dist,
    /// Phase shifts, in ascending `at` order.
    pub phases: Vec<Phase>,
}

impl WorkloadSpec {
    /// The default contended workload: exponential think time around 200 µs
    /// and heavy-tailed (bounded-Pareto) critical sections — most 5 µs-ish,
    /// occasional 2 ms stragglers — which is the regime where lock-holder
    /// preemption collapses throughput without load control.
    pub fn contended() -> Self {
        Self {
            arrivals: Arrivals::Closed,
            critical: Dist::Pareto {
                min: Duration::from_micros(5),
                alpha: 1.5,
                cap: Duration::from_millis(2),
            },
            think: Dist::Exp {
                mean: Duration::from_micros(200),
            },
            phases: Vec::new(),
        }
    }

    /// A two-phase bump test: the contended workload, with think time cut to
    /// a quarter (load roughly quadrupled) from `bump_at` on.
    pub fn bump(bump_at: Duration) -> Self {
        let base = Self::contended();
        let bumped_think = Dist::Exp {
            mean: Duration::from_micros(50),
        };
        Self {
            phases: vec![Phase {
                at: bump_at,
                critical: base.critical,
                think: bumped_think,
            }],
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_are_deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let dist = Dist::Pareto {
            min: Duration::from_micros(5),
            alpha: 1.5,
            cap: Duration::from_millis(2),
        };
        for _ in 0..1_000 {
            let x = dist.sample(&mut a);
            assert_eq!(x, dist.sample(&mut b));
            assert!(x >= Duration::from_micros(5));
            assert!(x <= Duration::from_millis(2));
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = Dist::Exp {
            mean: Duration::from_micros(100),
        };
        let n = 20_000;
        let total: f64 = (0..n).map(|_| dist.sample(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((80e-6..120e-6).contains(&mean), "mean was {mean}");
    }

    #[test]
    fn fixed_is_fixed() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dist::Fixed(Duration::from_micros(10));
        assert_eq!(d.sample(&mut rng), Duration::from_micros(10));
    }
}
