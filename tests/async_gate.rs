//! Acceptance tests for the async waiting plane: controller-induced task
//! sleeps under oversubscription, cancel-safety of pending `acquire_async`
//! futures, and sync + async waiters sharing one `LoadControl`.

mod support;

use load_control_suite::core::{LcMutex, LcSemaphore, LoadControl, LoadControlConfig};
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use support::pool::MiniPool;
use support::{aggressive_control, check_books, run_threads, spin};

/// The headline acceptance check: a fixed worker pool oversubscribed with
/// poll-spinning tasks shows controller-induced task sleeps (slot `S` > 0)
/// with the daemon running — and none at all without it — through the very
/// same `SleepSlotBuffer` the sync plane uses.
#[test]
fn async_oversubscription_sleeps_tasks_only_under_a_controller() {
    const TASKS: u64 = 16;
    const PER_TASK: u64 = 50;
    // 16 tasks on 4 registered pool workers contend for 2 permits; returns
    // the acquisitions, which must all complete.
    let run = |control: &Arc<LoadControl>| {
        let pool = MiniPool::new(4, control);
        let semaphore = Arc::new(LcSemaphore::new_with(2, control));
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..TASKS {
            let (semaphore, total) = (Arc::clone(&semaphore), Arc::clone(&total));
            pool.spawn(async move {
                for _ in 0..PER_TASK {
                    {
                        let _permit = semaphore.acquire_async().await;
                        spin(20);
                    }
                    spin(100);
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        pool.wait_idle();
        let total = total.load(Ordering::Relaxed);
        assert_eq!(total, TASKS * PER_TASK);
        assert_eq!(control.async_parked_tasks(), 0);
        total
    };

    // Daemon running on a pretend 1-context machine: 4 registered pool
    // workers mean sustained overload, so the controller must put starved
    // tasks to sleep.  When it first does is scheduling, so the run repeats
    // until it has.
    let control = aggressive_control(1);
    support::run_until(Some(&control), || {
        run(&control);
        control.buffer().stats().ever_slept > 0
    });
    control.stop_controller();

    // Same workload without any controller: nobody may sleep.
    let control = support::control(LoadControlConfig::for_capacity(1), "");
    run(&control);
    assert_eq!(
        control.buffer().stats().ever_slept,
        0,
        "tasks slept without a controller"
    );
}

/// Cancel-safety: dropping a pending `acquire_async` future mid-park must
/// release its sleep-slot claim — the async mirror of `LoadGate`'s
/// claim-leak-proof `Drop` — so `S − W` can never be stranded.
#[test]
fn dropping_a_pending_acquire_async_future_releases_its_claim() {
    use std::task::{Context, Poll, Waker};

    let control = support::control(LoadControlConfig::for_capacity(1), "policy=fixed");
    control.set_sleep_target(2);
    let semaphore = LcSemaphore::new_with(1, &control);
    let held = semaphore.acquire();

    let mut cx = Context::from_waker(Waker::noop());
    {
        let mut future = std::pin::pin!(semaphore.acquire_async());
        let period = LoadControlConfig::SLOT_CHECK_PERIOD;
        let mut parked = false;
        for _ in 0..=(period + 1) {
            match future.as_mut().poll(&mut cx) {
                Poll::Pending => {
                    if control.sleepers() > 0 {
                        parked = true;
                        break;
                    }
                }
                Poll::Ready(_) => panic!("the permit is held elsewhere"),
            }
        }
        assert!(parked, "starved task never claimed a sleep slot");
        assert_eq!(control.async_parked_tasks(), 1);
        // The pending future is dropped here — cancelled mid-wait.
    }
    assert_eq!(control.sleepers(), 0, "dropped future stranded S − W");
    assert_eq!(control.async_parked_tasks(), 0);
    check_books(&control);
    drop(held);
}

/// Repeatedly cancelling pending waits while other tasks complete theirs:
/// the books must balance no matter how the cancellations interleave with
/// controller wakes and timeouts.
#[test]
fn cancelled_and_completed_async_waits_interleave_without_leaking_claims() {
    let control = aggressive_control(1);
    let semaphore = Arc::new(LcSemaphore::new_with(1, &control));
    let stop = Arc::new(AtomicBool::new(false));
    let pool = MiniPool::new(3, &control);
    let completed = Arc::new(AtomicU64::new(0));
    for _ in 0..9 {
        let semaphore = Arc::clone(&semaphore);
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        pool.spawn(async move {
            while !stop.load(Ordering::Relaxed) {
                let _permit = semaphore.acquire_async().await;
                completed.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    // Meanwhile, hammer the cancel path from plain threads: create a pending
    // future, poll it a few times, drop it.
    let cancel_threads: Vec<_> = (0..2)
        .map(|_| {
            let semaphore = Arc::clone(&semaphore);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                use std::task::{Context, Waker};
                let mut cx = Context::from_waker(Waker::noop());
                while !stop.load(Ordering::Relaxed) {
                    let mut future = std::pin::pin!(semaphore.acquire_async());
                    for _ in 0..200 {
                        if future.as_mut().poll(&mut cx).is_ready() {
                            break; // permit acquired: guard drops, permit returns
                        }
                    }
                    // Pending futures (possibly holding slot claims) drop here.
                }
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    pool.wait_idle();
    for handle in cancel_threads {
        handle.join().unwrap();
    }
    drop(pool);
    control.stop_controller();
    assert!(completed.load(Ordering::Relaxed) > 0);
    check_books(&control);
    assert_eq!(control.sleepers(), 0);
    assert_eq!(control.async_parked_tasks(), 0);
}

/// Sync thread waiters and async task waiters sharing one `LoadControl`:
/// both planes draw sleep slots from the same buffer, both make progress,
/// and the shared `S`/`W` books balance.
#[test]
fn mixed_sync_and_async_waiters_share_one_load_control() {
    let control = aggressive_control(2);

    // Async plane: tasks on a fixed pool acquiring a shared semaphore.
    let pool = MiniPool::new(4, &control);
    let semaphore = Arc::new(LcSemaphore::new_with(2, &control));
    let async_total = Arc::new(AtomicU64::new(0));
    for _ in 0..12 {
        let semaphore = Arc::clone(&semaphore);
        let async_total = Arc::clone(&async_total);
        pool.spawn(async move {
            for _ in 0..300 {
                let _permit = semaphore.acquire_async().await;
                async_total.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    // Sync plane: threads hammering a load-controlled mutex meanwhile.
    let counter = LcMutex::<u64>::new_with(0, &control);
    run_threads(6, Some(&control), |_| {
        for _ in 0..2_000 {
            *counter.lock() += 1;
        }
    });
    pool.wait_idle();
    drop(pool);
    control.stop_controller();

    assert_eq!(*counter.lock(), 12_000);
    assert_eq!(async_total.load(Ordering::Relaxed), 12 * 300);
    check_books(&control);
    assert_eq!(control.sleepers(), 0);
    assert_eq!(control.async_parked_tasks(), 0);
}
