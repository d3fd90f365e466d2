//! Executor contract tests: panic propagation, re-entrancy, thread-count
//! edge cases, and cross-thread job concurrency.
//!
//! The bit-identical-output-vs-seed-executor tests live in the workspace
//! root (`tests/executor.rs`) where all four algorithm pipelines are in
//! scope; these tests pin the pool's own semantics.

use fpc_pool::{for_each_index, run_indexed};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

#[test]
fn thread_count_edge_cases() {
    // 0 = all cores, 1 = inline, large = oversubscribed: all must produce
    // the same, index-ordered output.
    let expected: Vec<usize> = (0..777).map(|i| i * i).collect();
    for threads in [0usize, 1, 2, 3, 7, 8, 64, 1024] {
        let out = run_indexed(777, threads, |i| i * i);
        assert_eq!(out, expected, "threads = {threads}");
    }
}

#[test]
fn more_threads_than_items() {
    let out = run_indexed(3, 100, |i| i + 1);
    assert_eq!(out, vec![1, 2, 3]);
}

#[test]
fn panic_propagates_to_caller() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        run_indexed(100, 4, |i| {
            if i == 37 {
                panic!("boom at {i}");
            }
            i
        })
    }))
    .expect_err("panic must propagate");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("boom at 37"), "payload lost: {msg:?}");
}

#[test]
fn pool_survives_worker_panics() {
    // A panicking job must not wedge or poison the shared pool: later jobs
    // (including ones claimed by the same pool workers) still complete.
    for round in 0..5 {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(64, 4, |i| {
                if i % 7 == round {
                    panic!("round {round}");
                }
                i
            })
        }));
        let ok = run_indexed(200, 4, |i| i * 2);
        assert_eq!(ok, (0..200).map(|i| i * 2).collect::<Vec<_>>());
    }
}

#[test]
fn first_panic_wins_under_multiple_panics() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        run_indexed(50, 8, |i| {
            if i % 2 == 0 {
                panic!("even index {i}");
            }
            i
        })
    }))
    .expect_err("panic must propagate");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("even index"), "{msg:?}");
}

#[test]
fn nested_jobs_complete() {
    // A worker that submits a sub-job must drain it itself if no peer is
    // free — the caller-participation rule makes this deadlock-free even
    // when the pool is saturated by the outer job.
    let out = run_indexed(8, 4, |outer| {
        let inner = run_indexed(32, 4, move |i| (outer * 32 + i) as u64);
        inner.iter().sum::<u64>()
    });
    let expected: Vec<u64> = (0..8u64)
        .map(|outer| (0..32u64).map(|i| outer * 32 + i).sum())
        .collect();
    assert_eq!(out, expected);
}

#[test]
fn deeply_nested_jobs_complete() {
    let out = run_indexed(4, 4, |a| {
        run_indexed(4, 4, move |b| {
            run_indexed(4, 4, move |c| a * 16 + b * 4 + c)
                .into_iter()
                .sum::<usize>()
        })
        .into_iter()
        .sum::<usize>()
    });
    let total: usize = out.into_iter().sum();
    assert_eq!(total, (0..64).sum());
}

#[test]
fn concurrent_jobs_from_many_threads() {
    // Several OS threads race whole jobs through the shared pool at once;
    // every job must see only its own indices.
    let errors = Mutex::new(Vec::new());
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let errors = &errors;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..10 {
                    let out = run_indexed(128, 3, |i| i + t * 1000);
                    let expected: Vec<usize> = (0..128).map(|i| i + t * 1000).collect();
                    if out != expected {
                        errors
                            .lock()
                            .expect("collector")
                            .push(format!("thread {t} round {round} corrupted"));
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().expect("collector");
    assert!(errors.is_empty(), "{errors:?}");
}

#[test]
fn run_indexed_claims_each_index_once() {
    let calls = Mutex::new(HashSet::new());
    run_indexed(200, 8, |i| {
        assert!(
            calls.lock().expect("poisoned").insert(i),
            "index {i} claimed twice"
        );
    });
    assert_eq!(calls.into_inner().expect("poisoned").len(), 200);
}

#[test]
fn for_each_index_runs_every_index_exactly_once() {
    let hits: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
    for_each_index(512, 0, |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn for_each_panic_propagates() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        for_each_index(64, 4, |i| {
            if i == 5 {
                panic!("side-effect job panic");
            }
        });
    }));
    assert!(err.is_err());
}

#[test]
fn results_are_dropped_exactly_once() {
    // T with a non-trivial Drop: every produced value must be dropped once
    // (collected results by the caller, and on the panic path too).
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    static MADE: AtomicUsize = AtomicUsize::new(0);
    struct Counted;
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    let out = run_indexed(100, 4, |_| {
        MADE.fetch_add(1, Ordering::Relaxed);
        Counted
    });
    drop(out);
    assert_eq!(MADE.load(Ordering::Relaxed), 100);
    assert_eq!(DROPS.load(Ordering::Relaxed), 100);

    MADE.store(0, Ordering::Relaxed);
    DROPS.store(0, Ordering::Relaxed);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        run_indexed(100, 4, |i| {
            if i == 50 {
                panic!("mid-job");
            }
            MADE.fetch_add(1, Ordering::Relaxed);
            Counted
        })
    }));
    assert_eq!(
        DROPS.load(Ordering::Relaxed),
        MADE.load(Ordering::Relaxed),
        "values produced before the panic must still be dropped"
    );
}

#[test]
fn huge_index_space_with_tiny_work() {
    // Stresses batched claiming: far more indices than any sane chunk
    // count, trivial per-index work.
    let sum = AtomicUsize::new(0);
    for_each_index(1_000_000, 4, |i| {
        if i % 100_000 == 0 {
            sum.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), 10);
}
