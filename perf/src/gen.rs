//! Seeded input generation.  The program under test receives only what this
//! module generates: per-thread tables of think lengths and read/write
//! choices, fixed by `--seed` before the first thread starts.

/// Entries per table; a worker cycles through its table by operation number.
pub const TABLE: usize = 1024;

/// LCG steps inside the critical section.
pub const CS_STEPS: u32 = 64;
/// Mean LCG steps of think time between operations; jittered by ±25 %.
pub const THINK_STEPS: u32 = 256;
/// Share of `oversub_rw` operations that take the lock exclusively.
pub const WRITE_SHARE: f64 = 0.10;

/// SplitMix64: small, seedable, and good enough to draw tables from.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in 0..1.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One worker's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Think length in LCG steps, per operation.
    pub think: Vec<u32>,
    /// Whether the operation writes (only `oversub_rw` reads this).
    pub write: Vec<bool>,
}

/// The plan of worker `thread` under `seed`.
pub fn thread_plan(seed: u64, thread: usize) -> ThreadPlan {
    let mut rng = SplitMix::new(seed ^ (thread as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let think = (0..TABLE)
        .map(|_| (f64::from(THINK_STEPS) * (0.75 + 0.5 * rng.next_f64())).round() as u32)
        .collect();
    let write = (0..TABLE).map(|_| rng.next_f64() < WRITE_SHARE).collect();
    ThreadPlan { think, write }
}

/// A fixed number of dependent steps: the critical-section and think-time
/// work.  Instruction count is fixed, unlike `spin_loop`, whose length
/// depends on the CPU's `pause` latency.  A step is an LCG step and a
/// shift-xor; the bare LCG is affine, so the compiler folds unrolled steps
/// of it into one.
#[inline(always)]
pub fn burn(mut x: u64, steps: u32) -> u64 {
    for _ in 0..std::hint::black_box(steps) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        for thread in 0..4 {
            assert_eq!(thread_plan(7, thread), thread_plan(7, thread));
        }
        assert_ne!(thread_plan(7, 0), thread_plan(8, 0));
        assert_ne!(thread_plan(7, 0), thread_plan(7, 1));
    }

    #[test]
    fn think_jitter_stays_within_a_quarter() {
        let plan = thread_plan(3, 0);
        assert_eq!(plan.think.len(), TABLE);
        assert!(plan.think.iter().all(|&t| (192..=320).contains(&t)));
        let mean = plan.think.iter().map(|&t| f64::from(t)).sum::<f64>() / TABLE as f64;
        assert!((mean - f64::from(THINK_STEPS)).abs() < 8.0, "{mean}");
    }

    #[test]
    fn about_a_tenth_of_operations_write() {
        let writes = thread_plan(11, 2).write.iter().filter(|&&w| w).count();
        assert!((60..=150).contains(&writes), "{writes}");
    }

    #[test]
    fn burn_is_a_pure_function_of_its_inputs() {
        assert_eq!(burn(1, 64), burn(1, 64));
        assert_ne!(burn(1, 64), burn(1, 65));
        assert_eq!(burn(9, 0), 9);
    }
}
