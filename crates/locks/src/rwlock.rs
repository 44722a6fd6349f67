//! An abortable raw reader-writer spinlock with writer preference.
//!
//! The paper's mechanism needs exactly one property from a primitive to make
//! it load-controllable: a waiter must be able to *abort* its wait, park, and
//! retry from scratch (§3.1.2).  Mutexes got that in the form of
//! [`AbortableLock`]; this module extends the same contract to shared/
//! exclusive locking so that reader-heavy data structures (buffer-pool page
//! latches, catalog caches, configuration snapshots) can participate in load
//! control too.
//!
//! # Design
//!
//! The whole lock is one word ([`AtomicU64`]):
//!
//! * bit 63 — a writer holds the lock;
//! * bits 32–62 — count of writers currently *waiting* (writer preference:
//!   while non-zero, arriving readers do not enter);
//! * bits 0–31 — count of readers currently holding the lock.
//!
//! Writers announce themselves by incrementing the waiting count, which
//! immediately stops new readers from entering; once the reader count drains
//! to zero the writer converts one waiting unit into the writer bit with a
//! single CAS.  Readers enter with a CAS on the reader count whenever no
//! writer holds or awaits the lock.
//!
//! # Abortable waiting
//!
//! Both waiting loops consult a [`SpinPolicy`] every polling iteration:
//!
//! * an aborting **reader** holds no wait state at all, so its abort is just
//!   "stop polling, run [`SpinPolicy::on_aborted`], retry";
//! * an aborting **writer** first *withdraws its announcement* (decrements the
//!   waiting count) so that readers are not blocked by a parked writer —
//!   exactly the hazard the paper's nested-critical-section rule guards
//!   against — and re-announces when it retries.
//!
//! Writer preference means a steady stream of writers can starve readers;
//! that is the standard trade-off of this family (it avoids the converse,
//! more common, writer-starvation pathology) and is documented behaviour, not
//! a bug.  Recursive read acquisition can deadlock if a writer arrives
//! between the two reads — as in every writer-preference rwlock.

use crate::raw::{AbortableLock, RawLock, RawTryLock, SpinDecision, SpinPolicy};
use crossbeam_utils::CachePadded;
use std::hint;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writer-held flag (bit 63).
const WRITER: u64 = 1 << 63;
/// One waiting writer (bits 32–62).
const WAITING_UNIT: u64 = 1 << 32;
/// Mask of the waiting-writer count.
const WAITING_MASK: u64 = ((1 << 31) - 1) << 32;
/// Mask of the active-reader count (bits 0–31).
const READER_MASK: u64 = (1 << 32) - 1;

/// An abortable raw reader-writer spinlock with writer preference.
///
/// The exclusive side implements [`RawLock`]/[`AbortableLock`]/[`RawTryLock`]
/// (so the lock slots into the registry, the generic abort-semantics suite,
/// and `LcLock` as "a mutex that happens to also offer shared mode"); the
/// shared side is the `read_*` surface below.
///
/// ```
/// use lc_locks::RawRwLock;
/// let rw = RawRwLock::new();
/// rw.read();
/// rw.read();
/// assert_eq!(rw.readers(), 2);
/// assert!(!rw.try_write());
/// unsafe { rw.unlock_read() };
/// unsafe { rw.unlock_read() };
/// assert!(rw.try_write());
/// unsafe { rw.unlock_write() };
/// ```
#[derive(Debug)]
pub struct RawRwLock {
    state: CachePadded<AtomicU64>,
}

impl Default for RawRwLock {
    fn default() -> Self {
        <Self as RawLock>::new()
    }
}

impl RawRwLock {
    /// Creates an unlocked reader-writer lock.
    pub fn new() -> Self {
        <Self as RawLock>::new()
    }

    /// Number of readers currently holding the lock (racy, diagnostics only).
    pub fn readers(&self) -> u64 {
        self.state.load(Ordering::Relaxed) & READER_MASK
    }

    /// Number of writers currently waiting (racy, diagnostics only).
    pub fn waiting_writers(&self) -> u64 {
        (self.state.load(Ordering::Relaxed) & WAITING_MASK) >> 32
    }

    /// Whether a writer currently holds the lock (racy, diagnostics only).
    pub fn writer_held(&self) -> bool {
        self.state.load(Ordering::Relaxed) & WRITER != 0
    }

    /// Acquires the lock in shared mode, spinning until no writer holds or
    /// awaits it.
    pub fn read(&self) {
        self.read_with(&mut crate::raw::NeverAbort);
    }

    /// Acquires the lock in shared mode, consulting `policy` on every polling
    /// iteration (the [`AbortableLock`]-style waiting loop for readers).
    pub fn read_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        let mut spins = 0u64;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & (WRITER | WAITING_MASK) == 0 {
                debug_assert!(s & READER_MASK < READER_MASK, "reader count overflow");
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    policy.on_acquired(spins);
                    return;
                }
                // Lost a CAS race with another reader/writer: retry without
                // charging a polling iteration.
                continue;
            }
            spins += 1;
            match policy.on_spin(spins) {
                SpinDecision::Continue => hint::spin_loop(),
                // A waiting reader holds no state in the lock, so an abort is
                // simply "stop polling and let the policy park".
                SpinDecision::Abort => policy.on_aborted(),
            }
        }
    }

    /// Attempts to acquire the lock in shared mode without waiting.
    pub fn try_read(&self) -> bool {
        let s = self.state.load(Ordering::Acquire);
        s & (WRITER | WAITING_MASK) == 0
            && self
                .state
                .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// Releases one shared acquisition.
    ///
    /// # Safety
    ///
    /// Must only be called by a thread that currently holds a read lock, once
    /// per acquisition.
    pub unsafe fn unlock_read(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & READER_MASK > 0, "unlock_read without readers");
    }

    /// Acquires the lock in exclusive mode.
    pub fn write(&self) {
        self.write_with(&mut crate::raw::NeverAbort);
    }

    /// Acquires the lock in exclusive mode, consulting `policy` on every
    /// polling iteration.
    ///
    /// The waiter announces itself first (blocking new readers — writer
    /// preference); an abort withdraws the announcement before parking so a
    /// descheduled writer never gates readers, and re-announces on retry.
    pub fn write_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        let mut spins = 0u64;
        loop {
            // Announce: one waiting unit keeps new readers out.
            self.state.fetch_add(WAITING_UNIT, Ordering::AcqRel);
            loop {
                let s = self.state.load(Ordering::Acquire);
                if s & (WRITER | READER_MASK) == 0 {
                    // Convert our waiting unit into the held bit.
                    if self
                        .state
                        .compare_exchange_weak(
                            s,
                            (s - WAITING_UNIT) | WRITER,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        policy.on_acquired(spins);
                        return;
                    }
                    continue;
                }
                spins += 1;
                match policy.on_spin(spins) {
                    SpinDecision::Continue => hint::spin_loop(),
                    SpinDecision::Abort => {
                        // Withdraw the announcement so readers are not blocked
                        // by a parked writer, then park (on_aborted) and
                        // re-announce on the retry.
                        self.state.fetch_sub(WAITING_UNIT, Ordering::AcqRel);
                        policy.on_aborted();
                        break;
                    }
                }
            }
        }
    }

    /// Attempts to acquire the lock in exclusive mode without waiting.
    ///
    /// Does not announce (no waiting unit): a failed `try_write` leaves no
    /// trace and never blocks readers.
    pub fn try_write(&self) -> bool {
        let s = self.state.load(Ordering::Acquire);
        s & (WRITER | READER_MASK) == 0
            && self
                .state
                .compare_exchange(s, s | WRITER, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// Releases the exclusive acquisition.
    ///
    /// # Safety
    ///
    /// Must only be called by the thread that currently holds the write lock.
    pub unsafe fn unlock_write(&self) {
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        debug_assert!(prev & WRITER != 0, "unlock_write without a writer");
    }
}

unsafe impl RawLock for RawRwLock {
    fn new() -> Self {
        Self {
            state: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Exclusive acquire ([`RawRwLock::write`]): through the [`RawLock`]
    /// surface the rwlock behaves as a mutex.
    fn lock(&self) {
        self.write();
    }

    unsafe fn unlock(&self) {
        self.unlock_write();
    }

    fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & (WRITER | READER_MASK) != 0
    }

    fn name(&self) -> &'static str {
        "rw-lock"
    }
}

unsafe impl RawTryLock for RawRwLock {
    fn try_lock(&self) -> bool {
        self.try_write()
    }
}

unsafe impl AbortableLock for RawRwLock {
    fn lock_with<P: SpinPolicy + ?Sized>(&self, policy: &mut P) {
        self.write_with(policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::AbortAfter;
    use std::sync::atomic::AtomicU64 as StdU64;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn readers_share_writers_exclude() {
        let rw = RawRwLock::new();
        rw.read();
        rw.read();
        assert_eq!(rw.readers(), 2);
        assert!(!rw.try_write());
        assert!(rw.try_read());
        unsafe {
            rw.unlock_read();
            rw.unlock_read();
            rw.unlock_read();
        }
        assert!(rw.try_write());
        assert!(rw.writer_held());
        assert!(!rw.try_read());
        assert!(!rw.try_write());
        unsafe { rw.unlock_write() };
        assert!(!rw.is_locked());
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let rw = Arc::new(RawRwLock::new());
        rw.read();
        // A writer that announces and spins: readers must now be refused.
        let rw2 = Arc::clone(&rw);
        let writer = thread::spawn(move || {
            rw2.write();
            unsafe { rw2.unlock_write() };
        });
        // Wait until the announcement is visible.
        while rw.waiting_writers() == 0 {
            thread::yield_now();
        }
        assert!(!rw.try_read(), "writer preference must refuse new readers");
        unsafe { rw.unlock_read() };
        writer.join().unwrap();
        assert!(rw.try_read());
        unsafe { rw.unlock_read() };
    }

    /// [`AbortAfter`] whose abort count another thread can wait on.
    struct WatchedAborts {
        inner: AbortAfter,
        aborts: Arc<StdU64>,
    }

    impl SpinPolicy for WatchedAborts {
        fn on_spin(&mut self, spins: u64) -> SpinDecision {
            self.inner.on_spin(spins)
        }

        fn on_aborted(&mut self) {
            self.inner.on_aborted();
            self.aborts.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn aborting_writer_unblocks_readers() {
        let rw = Arc::new(RawRwLock::new());
        rw.read(); // keep the writer waiting
        let aborts = Arc::new(StdU64::new(0));
        let (rw2, aborts2) = (Arc::clone(&rw), Arc::clone(&aborts));
        let writer = thread::spawn(move || {
            // Abort every 16 polls, forever retrying.
            let mut policy = WatchedAborts {
                inner: AbortAfter::new(16),
                aborts: aborts2,
            };
            rw2.write_with(&mut policy);
            unsafe { rw2.unlock_write() };
        });
        // Our read keeps the writer out, so it must abort; only once it has
        // is there an abort/retry churn for a second reader to slip through.
        while aborts.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        // While the writer churns through abort/retry cycles there are
        // windows with no announcement; a reader must eventually get in.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got_read = false;
        while std::time::Instant::now() < deadline {
            if rw.try_read() {
                got_read = true;
                unsafe { rw.unlock_read() };
                break;
            }
        }
        assert!(got_read, "aborting writer kept readers out");
        unsafe { rw.unlock_read() };
        writer.join().unwrap();
        assert!(!rw.is_locked());
    }

    #[test]
    fn mixed_readers_and_writers_preserve_consistency() {
        // Writers keep two counters equal under the write lock; readers
        // assert they never observe them out of sync.
        let rw = Arc::new(RawRwLock::new());
        let a = Arc::new(StdU64::new(0));
        let b = Arc::new(StdU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (rw, a, b) = (Arc::clone(&rw), Arc::clone(&a), Arc::clone(&b));
            handles.push(thread::spawn(move || {
                for _ in 0..2_000 {
                    rw.write();
                    a.store(a.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                    b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                    unsafe { rw.unlock_write() };
                }
            }));
        }
        for _ in 0..4 {
            let (rw, a, b) = (Arc::clone(&rw), Arc::clone(&a), Arc::clone(&b));
            handles.push(thread::spawn(move || {
                for _ in 0..2_000 {
                    rw.read();
                    let (va, vb) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                    unsafe { rw.unlock_read() };
                    assert_eq!(va, vb, "readers saw a torn write");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 4_000);
        assert!(!rw.is_locked());
    }

    #[test]
    fn raw_lock_surface_is_the_exclusive_mode() {
        let rw = RawRwLock::new();
        assert_eq!(RawLock::name(&rw), "rw-lock");
        rw.lock();
        assert!(rw.is_locked());
        assert!(rw.writer_held());
        unsafe { rw.unlock() };
        assert!(!rw.is_locked());
    }
}
