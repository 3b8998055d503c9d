//! Concurrency stress tests: oversubscription and nested parallelism must
//! complete (and complete correctly) without deadlock.
//!
//! Every test body runs under a watchdog: the work happens on a spawned
//! thread and the test thread waits on a channel with a timeout, so a
//! deadlocked pool fails the test instead of hanging the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

use parkit::Pool;

/// Watchdog harness: fail loudly if `f` does not finish within `secs`.
fn with_watchdog<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(r) => {
            worker.join().expect("watchdog worker panicked");
            r
        }
        Err(_) => panic!("watchdog: work did not complete within {secs}s (deadlock?)"),
    }
}

#[test]
fn oversubscription_many_more_tasks_than_threads() {
    // 10_000 items on small pools: every chunk must be claimed exactly
    // once and merge back in order.
    let out = with_watchdog(60, || {
        let items: Vec<u64> = (0..10_000).collect();
        let mut results = Vec::new();
        for threads in [1, 2, 3, 4, 8] {
            results.push(Pool::new(threads).par_map(&items, |&x| x.wrapping_mul(2654435761) >> 7));
        }
        results
    });
    for r in &out[1..] {
        assert_eq!(r, &out[0], "oversubscribed runs diverged across widths");
    }
    assert_eq!(out[0].len(), 10_000);
}

#[test]
fn nested_par_map_inside_par_map_no_deadlock() {
    // Inner maps queue their tasks behind the outer map's on the helpers'
    // one shared queue. They cannot starve: a caller runs its own chunks and
    // cancels every task no helper has started, so nothing waits on a task
    // that is still queued.
    let out = with_watchdog(60, || {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..64).collect();
        pool.par_map(&outer, |&i| {
            let inner = Pool::new(4);
            inner.par_map_range(64, |j| (i * 64 + j) as u64).iter().sum::<u64>()
        })
    });
    let expected: Vec<u64> = (0..64u64).map(|i| (0..64).map(|j| i * 64 + j).sum()).collect();
    assert_eq!(out, expected);
}

#[test]
fn triple_nesting_with_reduction() {
    let got = with_watchdog(60, || {
        let pool = Pool::new(3);
        pool.par_map_range(8, |a| {
            Pool::new(3)
                .par_reduce_range(
                    8,
                    2,
                    |r| {
                        r.map(|b| {
                            Pool::new(2)
                                .par_map_range(4, |c| (a + b + c) as u64)
                                .iter()
                                .sum::<u64>()
                        })
                        .sum::<u64>()
                    },
                    |x, y| x + y,
                )
                .unwrap_or(0)
        })
    });
    let expected: Vec<u64> = (0..8u64)
        .map(|a| (0..8u64).map(|b| (0..4u64).map(|c| a + b + c).sum::<u64>()).sum())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn panic_under_oversubscription_still_returns() {
    // A panic mid-stream with thousands of queued chunks must stop the
    // pool and report, not hang on unclaimed work.
    let payload = with_watchdog(60, || {
        let items: Vec<u64> = (0..50_000).collect();
        catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).par_map(&items, |&x| {
                if x == 25_000 {
                    panic!("mid-stream failure");
                }
                x
            })
        }))
        .expect_err("the worker panic must reach the caller")
    });
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"mid-stream failure"));
}

#[test]
fn repeated_pool_churn() {
    // A pool is only a width and the helpers stay resident; hammering many
    // short calls must neither leak nor wedge.
    let total = with_watchdog(60, || {
        let pool = Pool::new(4);
        let mut acc = 0u64;
        for round in 0..500u64 {
            acc = acc.wrapping_add(
                pool.par_reduce_range(64, 8, |r| r.map(|i| i as u64 + round).sum(), |a, b| a + b)
                    .unwrap_or(0),
            );
        }
        acc
    });
    let expected: u64 = (0..500u64).map(|round| (0..64u64).map(|i| i + round).sum::<u64>()).sum();
    assert_eq!(total, expected);
}

#[test]
fn helper_panic_is_reraised_and_the_helper_survives() {
    with_watchdog(60, || {
        // The widest pool any test in this binary uses: once it has run, no
        // call here asks for a helper that does not exist yet.
        let wide: Vec<u64> = (0..64).collect();
        Pool::new(8).par_map(&wide, |x| x + 1);

        // Two items that each wait for the other: the caller holds one, so a
        // helper must have claimed the other, and that one panics.
        let pool = Pool::new(2);
        let caller = std::thread::current().id();
        let both = Barrier::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_range(2, |i| {
                both.wait();
                assert!(std::thread::current().id() == caller, "helper boom");
                i
            })
        }))
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));

        // The same rendezvous again completes only if a helper is alive to
        // meet the caller, and the set did not have to grow for it.
        let started = parkit::threads_started();
        let both = Barrier::new(2);
        let out = pool.par_map_range(2, |i| {
            both.wait();
            i * 10
        });
        assert_eq!(out, vec![0, 10]);
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(pool.par_map(&items, |x| x * 3), expected);
        assert_eq!(parkit::threads_started(), started, "a helper was started again");
    });
}

#[test]
fn nested_maps_while_every_helper_is_busy() {
    // Each outer item waits for the other, so both outer chunks hold their
    // threads while their inner maps queue tasks. Where no other helper is
    // idle, those tasks are never started and the inner callers cancel them.
    let out = with_watchdog(60, || {
        let both = Barrier::new(2);
        Pool::new(2).par_map_range(2, |i| {
            both.wait();
            Pool::new(2).par_map_range(16, |j| (i * 16 + j) as u64).iter().sum::<u64>()
        })
    });
    let expected: Vec<u64> = (0..2u64).map(|i| (0..16).map(|j| i * 16 + j).sum()).collect();
    assert_eq!(out, expected);
}
