//! The load-controlled counting semaphore.
//!
//! Bounds concurrency (connection pools, admission throttles, bounded work
//! queues) with permits while its spinning waiters participate in the shared
//! [`LoadControl`]: under overload, a thread waiting for a permit claims a
//! sleep slot through the waiter-side gate, parks, and retries — identical
//! load management to every other primitive in the surface.
//!
//! Holding a permit counts toward the thread's load-controlled hold count,
//! so a permit holder never volunteers to sleep (the nested-critical-section
//! rule of paper §6.1.2 applied to resource tokens: parking a thread that
//! gates others would convert overload into a pile-up).

use crate::async_gate::AsyncAcquire;
use crate::controller::LoadControl;
use crate::thread_ctx::{acquire, release, try_acquire};
use lc_locks::RawSemaphore;
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// A load-controlled counting semaphore.
///
/// ```
/// use lc_core::{LcSemaphore, LoadControl, LoadControlConfig};
///
/// let control = LoadControl::new(LoadControlConfig::for_capacity(2));
/// let pool = LcSemaphore::new_with(2, &control);
/// let a = pool.acquire();
/// let b = pool.acquire();
/// assert!(pool.try_acquire().is_none());
/// drop(a);
/// assert!(pool.try_acquire().is_some());
/// drop(b);
/// ```
pub struct LcSemaphore {
    control: Arc<LoadControl>,
    raw: RawSemaphore,
}

impl fmt::Debug for LcSemaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcSemaphore")
            .field("available", &self.raw.available())
            .field("initial", &self.raw.initial_permits())
            .finish()
    }
}

impl LcSemaphore {
    /// Creates a semaphore with `permits` permits, attached to the global
    /// [`LoadControl`].
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: u64) -> Self {
        Self::new_with(permits, &LoadControl::global())
    }

    /// Creates a semaphore with `permits` permits, attached to `control`.
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new_with(permits: u64, control: &Arc<LoadControl>) -> Self {
        Self {
            control: Arc::clone(control),
            raw: RawSemaphore::with_permits(permits),
        }
    }

    /// Acquires one permit, waiting (under load control) until one is
    /// available.  The permit is returned when the guard drops.
    pub fn acquire(&self) -> LcSemaphorePermit<'_> {
        acquire(&self.control, |policy| self.raw.acquire_with(policy));
        LcSemaphorePermit {
            semaphore: self,
            _not_send: PhantomData,
        }
    }

    /// Acquires one permit **without blocking the worker thread**: the
    /// returned future poll-spins for a free permit and participates in load
    /// control through an [`AsyncLoadGate`](crate::AsyncLoadGate) — under overload the task claims
    /// a sleep slot from the *same* buffer the sync waiters use, suspends
    /// (its waker rides in the slot's parker), and is woken by the
    /// controller's slot-clear exactly like a parked thread.
    ///
    /// Dropping the future mid-wait is safe and releases any pending
    /// sleep-slot claim (`S − W` stays balanced).
    ///
    /// Unlike the sync [`LcSemaphore::acquire`], the returned
    /// [`LcSemaphoreAsyncPermit`] is `Send` and does **not** count toward a
    /// thread's load-controlled hold count: a task's holds are not
    /// observable from whichever worker thread happens to poll it, so the
    /// nested-hold sleep refusal (paper §6.1.2) does not extend to async
    /// permit holders — structure tasks so they only await while holding
    /// nothing.
    ///
    /// ```
    /// use lc_core::{LcSemaphore, LoadControl, LoadControlConfig};
    /// # use std::future::Future;
    /// # use std::pin::pin;
    /// # use std::task::{Context, Poll, Waker};
    /// # fn block_on<F: Future>(fut: F) -> F::Output {
    /// #     let mut cx = Context::from_waker(Waker::noop());
    /// #     let mut fut = pin!(fut);
    /// #     loop {
    /// #         if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) { return out; }
    /// #     }
    /// # }
    ///
    /// let control = LoadControl::new(LoadControlConfig::for_capacity(2));
    /// let pool = LcSemaphore::new_with(1, &control);
    /// block_on(async {
    ///     let permit = pool.acquire_async().await;
    ///     assert_eq!(pool.available(), 0);
    ///     drop(permit);
    /// });
    /// assert_eq!(pool.available(), 1);
    /// ```
    pub fn acquire_async(&self) -> AcquireAsync<'_> {
        AcquireAsync {
            semaphore: self,
            acquire: AsyncAcquire::default(),
        }
    }

    /// Attempts to acquire one permit without waiting.
    pub fn try_acquire(&self) -> Option<LcSemaphorePermit<'_>> {
        try_acquire(&self.control, || self.raw.try_acquire()).then(|| LcSemaphorePermit {
            semaphore: self,
            _not_send: PhantomData,
        })
    }

    /// Permits currently available (racy, diagnostics only).
    pub fn available(&self) -> u64 {
        self.raw.available()
    }

    /// The number of permits the semaphore was created with.
    pub fn initial_permits(&self) -> u64 {
        self.raw.initial_permits()
    }

    /// The [`LoadControl`] instance this semaphore participates in.
    pub fn control(&self) -> &Arc<LoadControl> {
        &self.control
    }

    /// The underlying raw semaphore (diagnostics).
    pub fn raw(&self) -> &RawSemaphore {
        &self.raw
    }
}

/// RAII permit for [`LcSemaphore`]; returns the permit on drop.
///
/// Deliberately `!Send`: the hold count it maintains lives in the acquiring
/// thread's load-control context, so the permit must be released where it was
/// acquired.
pub struct LcSemaphorePermit<'a> {
    semaphore: &'a LcSemaphore,
    _not_send: PhantomData<*const ()>,
}

impl fmt::Debug for LcSemaphorePermit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcSemaphorePermit")
            .field("semaphore", self.semaphore)
            .finish()
    }
}

impl Drop for LcSemaphorePermit<'_> {
    fn drop(&mut self) {
        release(&self.semaphore.control, || unsafe {
            self.semaphore.raw.release()
        });
    }
}

/// Future returned by [`LcSemaphore::acquire_async`].
///
/// Each poll is one iteration of the client-side algorithm: try the permit
/// CAS; every [`crate::LoadControlConfig::SLOT_CHECK_PERIOD`] polls consult
/// the slot buffer; with a claim held, suspend until the controller clears
/// the slot (or the sleep timeout passes); otherwise yield cooperatively
/// and get re-polled — the async analogue of a spinning waiter.  Dropping
/// the future releases any pending sleep-slot claim.
#[derive(Debug)]
pub struct AcquireAsync<'a> {
    semaphore: &'a LcSemaphore,
    acquire: AsyncAcquire,
}

impl<'a> Future for AcquireAsync<'a> {
    type Output = LcSemaphoreAsyncPermit<'a>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let semaphore = this.semaphore;
        this.acquire
            .poll(cx, &semaphore.control, || semaphore.raw.try_acquire())
            .map(|()| LcSemaphoreAsyncPermit { semaphore })
    }
}

/// RAII permit returned by [`LcSemaphore::acquire_async`]; returns the permit
/// on drop.
///
/// Unlike [`LcSemaphorePermit`] this guard is `Send` (a task may migrate
/// between worker threads) and does not participate in the acquiring
/// *thread's* hold count — see [`LcSemaphore::acquire_async`].
pub struct LcSemaphoreAsyncPermit<'a> {
    semaphore: &'a LcSemaphore,
}

impl fmt::Debug for LcSemaphoreAsyncPermit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcSemaphoreAsyncPermit")
            .field("semaphore", self.semaphore)
            .finish()
    }
}

impl Drop for LcSemaphoreAsyncPermit<'_> {
    fn drop(&mut self) {
        unsafe { self.semaphore.raw.release() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoadControlConfig;
    use crate::controller::spec_control;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;
    use std::time::Duration;

    fn manual_control(capacity: usize) -> Arc<LoadControl> {
        spec_control(LoadControlConfig::for_capacity(capacity), "policy=fixed")
    }

    #[test]
    fn permits_are_returned_on_drop() {
        let lc = manual_control(2);
        let sem = LcSemaphore::new_with(2, &lc);
        assert_eq!(sem.available(), 2);
        let a = sem.acquire();
        let b = sem.acquire();
        assert_eq!(sem.available(), 0);
        assert!(sem.try_acquire().is_none());
        drop(a);
        assert_eq!(sem.available(), 1);
        drop(b);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn bound_holds_under_contention() {
        let lc = manual_control(64);
        let sem = Arc::new(LcSemaphore::new_with(3, &lc));
        let holders = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (sem, holders, peak, lc) = (
                Arc::clone(&sem),
                Arc::clone(&holders),
                Arc::clone(&peak),
                Arc::clone(&lc),
            );
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..1_000 {
                    let permit = sem.acquire();
                    let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    holders.fetch_sub(1, Ordering::SeqCst);
                    drop(permit);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "permit bound violated");
        assert_eq!(sem.available(), 3);
    }

    #[test]
    fn bound_holds_under_forced_overload() {
        let lc = LoadControl::start(
            LoadControlConfig::for_capacity(1)
                .with_update_interval(Duration::from_millis(1))
                .with_sleep_timeout(Duration::from_millis(5)),
        );
        let sem = Arc::new(LcSemaphore::new_with(2, &lc));
        let total = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let (sem, total, lc) = (Arc::clone(&sem), Arc::clone(&total), Arc::clone(&lc));
            handles.push(thread::spawn(move || {
                let _w = lc.register_worker();
                for _ in 0..500 {
                    let _permit = sem.acquire();
                    total.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        lc.stop_controller();
        assert_eq!(total.load(Ordering::Relaxed), 3_000);
        assert_eq!(sem.available(), 2);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    /// A minimal busy block_on for the async tests: the acquisition futures
    /// under test are self-waking poll-spinners (or woken through the slot
    /// parker, which these tests drive by steering the target), so a no-op
    /// waker plus a yielding re-poll loop suffices.
    fn block_on<F: Future>(fut: F) -> F::Output {
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                std::task::Poll::Ready(out) => return out,
                std::task::Poll::Pending => std::thread::yield_now(),
            }
        }
    }

    #[test]
    fn acquire_async_acquires_and_releases() {
        let lc = manual_control(2);
        let sem = LcSemaphore::new_with(2, &lc);
        block_on(async {
            let a = sem.acquire_async().await;
            let b = sem.acquire_async().await;
            assert_eq!(sem.available(), 0);
            assert!(sem.try_acquire().is_none());
            drop(a);
            drop(b);
        });
        assert_eq!(sem.available(), 2);
        assert_eq!(lc.buffer().stats().ever_slept, 0);
    }

    #[test]
    fn acquire_async_waits_for_a_sync_holder() {
        let lc = manual_control(4);
        let sem = Arc::new(LcSemaphore::new_with(1, &lc));
        let held = sem.acquire();
        let (sem2, lc2) = (Arc::clone(&sem), Arc::clone(&lc));
        let waiter = thread::spawn(move || {
            let _ = &lc2;
            block_on(async {
                let _permit = sem2.acquire_async().await;
                // Got it after the sync holder released.
            });
        });
        thread::sleep(Duration::from_millis(20));
        drop(held);
        waiter.join().unwrap();
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn pending_acquire_async_parks_under_overload_and_drop_balances_books() {
        let lc = manual_control(1);
        lc.set_sleep_target(2);
        let sem = LcSemaphore::new_with(1, &lc);
        let _held = sem.acquire();

        // Hand-poll the future so we can observe (and then cancel) the park.
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        {
            let mut fut = std::pin::pin!(sem.acquire_async());
            let period = LoadControlConfig::SLOT_CHECK_PERIOD;
            let mut parked = false;
            for _ in 0..=(period + 1) {
                match fut.as_mut().poll(&mut cx) {
                    std::task::Poll::Pending => {
                        if lc.sleepers() > 0 {
                            parked = true;
                            break;
                        }
                    }
                    std::task::Poll::Ready(_) => panic!("permit is held elsewhere"),
                }
            }
            assert!(parked, "the starved task never claimed a sleep slot");
            assert_eq!(lc.async_parked_tasks(), 1);
            // The future is dropped here, mid-park.
        }
        assert_eq!(lc.sleepers(), 0, "dropped future leaked its claim");
        assert_eq!(lc.async_parked_tasks(), 0);
        let stats = lc.buffer().stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn holding_a_permit_blocks_sleeping() {
        let lc = manual_control(1);
        lc.set_sleep_target(4);
        let sem = LcSemaphore::new_with(2, &lc);
        let permit = sem.acquire();
        let mut gate = crate::thread_ctx::LoadGate::new(&lc);
        assert!(!gate.try_claim(), "permit holders must not volunteer");
        drop(permit);
        assert!(gate.try_claim());
        gate.cancel();
    }
}
