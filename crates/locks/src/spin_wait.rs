//! The exponential backoff of the test-and-test-and-set lock.

use std::hint;

/// Exponential backoff for contended atomic operations.
///
/// Modeled on the classic test-and-test-and-set-with-backoff loop of Agarwal
/// and Cherian (ISCA 1989, reference \[1\] in the paper): the delay between
/// retries doubles up to a cap, which drains the "thundering herd" that forms
/// when many waiters observe a release simultaneously.
///
/// ```
/// use lc_locks::Backoff;
/// let mut b = Backoff::new();
/// for _ in 0..8 {
///     b.spin();
/// }
/// assert!(b.rounds() >= 8);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    shift: u32,
    max_shift: u32,
    rounds: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Default cap: 2^10 = 1024 `spin_loop` hints per round.
    pub const DEFAULT_MAX_SHIFT: u32 = 10;

    /// Creates a backoff helper with the default cap.
    pub fn new() -> Self {
        Self::with_max_shift(Self::DEFAULT_MAX_SHIFT)
    }

    /// Creates a backoff helper whose longest pause is `2^max_shift` hints.
    pub fn with_max_shift(max_shift: u32) -> Self {
        Self {
            shift: 0,
            max_shift: max_shift.min(20),
            rounds: 0,
        }
    }

    /// Pauses for the current backoff interval and doubles it (up to the cap).
    #[inline]
    pub fn spin(&mut self) {
        let iters = 1u64 << self.shift;
        for _ in 0..iters {
            hint::spin_loop();
        }
        if self.shift < self.max_shift {
            self.shift += 1;
        }
        self.rounds += 1;
    }

    /// Resets the backoff interval to its minimum.
    #[inline]
    pub fn reset(&mut self) {
        self.shift = 0;
    }

    /// Number of times [`Backoff::spin`] has been called.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether the backoff interval has reached its cap.
    pub fn is_saturated(&self) -> bool {
        self.shift >= self.max_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_saturates() {
        let mut b = Backoff::with_max_shift(3);
        assert!(!b.is_saturated());
        for _ in 0..3 {
            b.spin();
        }
        assert!(b.is_saturated());
        assert_eq!(b.rounds(), 3);
        b.reset();
        assert!(!b.is_saturated());
    }

    #[test]
    fn backoff_max_shift_is_clamped() {
        let b = Backoff::with_max_shift(64);
        assert_eq!(b.max_shift, 20);
    }
}
