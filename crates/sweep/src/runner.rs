//! Deterministic multi-threaded execution of independent sweep cells.
//!
//! Self-scheduling over scoped std threads: every worker takes the next
//! unclaimed index from one shared atomic cursor until the items run out,
//! so cells are handed out in input order and a worker that finishes
//! early simply claims more. Because every cell derives its RNG seed from
//! its own key (never from scheduling), results are identical for any
//! thread count — the scheduler only changes wall-clock time, never bytes.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::cache::{run_cells_instrumented, RunSinks};
use crate::matrix::{Cell, CellResult};

/// A sensible default worker count: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `items` on `threads` workers, returning results in input
/// order. The closure only sees one item at a time; nothing about
/// scheduling leaks into the results.
pub fn run_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    // The next unclaimed index. One task's failure cancels the whole
    // sweep by moving the cursor past the end, so a poisoned run stops
    // after the in-flight items instead of running every remaining one.
    // `Relaxed` suffices: the cursor publishes no data (results come back
    // through the scope's joins), and its read-modify-writes alone make
    // every claim unique.
    let next = AtomicUsize::new(0);
    // Each worker keeps its results until it is done and hands them over
    // at the end: a hand-over per item would wake the collector once per
    // cell, which costs more than a cache hit does.
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                return Ok(done);
            }
            // Catch per-item panics so the failure can name *which* item
            // failed with its original message, instead of a bare
            // missing-result assertion.
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    next.store(items.len(), Ordering::Relaxed);
                    return Err((i, payload));
                }
            }
        }
    };
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        // The calling thread is worker 0, so one thread spawns nothing.
        let work = &work;
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut finished = vec![work()];
        finished.extend(
            (others.into_iter()).map(|h| h.join().expect("worker panics are caught per item")),
        );
        for worker in finished {
            match worker {
                Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                Err((i, payload)) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    panic!("sweep task {i} panicked: {msg}");
                }
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index executed exactly once"))
        .collect()
}

/// Runs every cell on `threads` workers and returns the results sorted by
/// cell key — the canonical, scheduling-independent output order. The
/// uninstrumented, uncached case of [`run_cells_instrumented`].
pub fn run_cells(cells: &[Cell], threads: usize) -> Vec<CellResult> {
    run_cells_instrumented(cells, threads, RunSinks::default()).results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_indexed_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..100).collect();
        let calls = AtomicUsize::new(0);
        let out = run_indexed(&items, 7, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..64).collect();
        let one = run_indexed(&items, 1, |&x| x.wrapping_mul(0x9e3779b9));
        for threads in [2, 3, 8, 64, 200] {
            assert_eq!(
                one,
                run_indexed(&items, threads, |&x| x.wrapping_mul(0x9e3779b9))
            );
        }
    }

    #[test]
    fn panicking_task_reports_its_index_and_message() {
        let items: Vec<u64> = (0..10).collect();
        let err = std::panic::catch_unwind(|| {
            run_indexed(&items, 3, |&x| {
                if x == 7 {
                    panic!("boom on {x}");
                }
                x
            })
        })
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("task 7"), "{msg}");
        assert!(msg.contains("boom on 7"), "{msg}");
    }

    #[test]
    fn poisoned_run_cancels_the_remaining_queue() {
        // 1000 items, the very first one panics. If the panic did not move
        // the shared cursor past the end, the other workers would claim
        // every remaining index (and this test would take ~1000 × 1ms of
        // sleeps); as it does, only the handful of items already in flight
        // when the poison lands ever execute.
        let items: Vec<u64> = (0..1000).collect();
        let calls = AtomicUsize::new(0);
        // detlint: allow(DET002) — test-only timing bound; asserts wall-clock, not results
        let start = std::time::Instant::now();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(&items, 4, |&x| {
                calls.fetch_add(1, Ordering::SeqCst);
                if x == 0 {
                    panic!("poisoned cell");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                x
            })
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("poisoned cell"), "{msg}");
        let executed = calls.load(Ordering::SeqCst);
        assert!(
            executed < items.len() / 2,
            "cursor not moved past the end: {executed} of {} items ran after the poison",
            items.len()
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "poisoned run did not stop promptly"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = run_indexed(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_is_shared_through_the_cursor() {
        // One item is 1000x the work of the rest; with 4 workers the run
        // must still complete every item (the other workers keep claiming
        // the next index from the shared cursor).
        let items: Vec<u64> = (0..40).collect();
        let out = run_indexed(&items, 4, |&x| {
            let spins = if x == 0 { 200_000 } else { 200 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 40);
    }
}
