//! Deterministic multi-threaded execution of independent sweep cells.
//!
//! A plain work-stealing pool over scoped std threads: items are
//! dealt round-robin into per-worker deques; a worker drains its own deque
//! from the front and steals from the back of the fullest other deque when
//! dry. Because every cell derives its RNG seed from its own key (never
//! from scheduling), results are identical for any thread count — the
//! pool only changes wall-clock time, never bytes.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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
    // Deal indices round-robin so initial queues are balanced even when
    // expensive cells cluster (e.g. all ECMP cells adjacent).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..items.len()).step_by(threads).collect()))
        .collect();
    // One task's failure cancels the whole sweep: every worker checks the
    // flag before taking another item, so a poisoned run stops after the
    // in-flight items instead of draining every queue first.
    let cancelled = AtomicBool::new(false);
    // Each worker keeps its results until it is done and hands them over
    // at the end: a hand-over per item would wake the collector once per
    // cell, which costs more than a cache hit does.
    let work = |w: usize| {
        let mut done = Vec::new();
        while let Some(i) = next_item(&queues, &cancelled, w) {
            // Catch per-item panics so the failure can name *which* item
            // failed with its original message, instead of a bare
            // missing-result assertion.
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    cancelled.store(true, Ordering::Release);
                    return Err((i, payload));
                }
            }
        }
        Ok(done)
    };
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        // The calling thread is worker 0, so one thread spawns nothing.
        let work = &work;
        let others: Vec<_> = (1..threads).map(|w| scope.spawn(move || work(w))).collect();
        let mut finished = vec![work(0)];
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

/// Pops the next index for worker `w`: front of its own deque, else steal
/// from the back of the fullest other deque. `None` once all deques are
/// empty (no task ever enqueues new work, so empty means done) or once
/// another worker has set the cancel flag — remaining queued items are
/// abandoned so a failed sweep stops promptly instead of running to the
/// end.
fn next_item(queues: &[Mutex<VecDeque<usize>>], cancelled: &AtomicBool, w: usize) -> Option<usize> {
    if cancelled.load(Ordering::Acquire) {
        return None;
    }
    if let Some(i) = queues[w].lock().expect("queue poisoned").pop_front() {
        return Some(i);
    }
    loop {
        if cancelled.load(Ordering::Acquire) {
            return None;
        }
        let victim = queues
            .iter()
            .enumerate()
            .filter(|(v, _)| *v != w)
            .max_by_key(|(_, q)| q.lock().expect("queue poisoned").len())?;
        let stolen = victim.1.lock().expect("queue poisoned").pop_back();
        match stolen {
            Some(i) => return Some(i),
            // The victim drained between inspection and steal; rescan, and
            // give up once every queue is empty.
            None => {
                if queues
                    .iter()
                    .all(|q| q.lock().expect("queue poisoned").is_empty())
                {
                    return None;
                }
            }
        }
    }
}

/// Runs every cell on `threads` workers and returns the results sorted by
/// cell key — the canonical, scheduling-independent output order.
pub fn run_cells(cells: &[Cell], threads: usize) -> Vec<CellResult> {
    let mut results = run_indexed(cells, threads, Cell::run);
    results.sort_by(|a, b| a.key.cmp(&b.key));
    results
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
        // 1000 items, the very first one panics. Without cross-worker
        // cancellation the other workers drain their full queues (and this
        // test takes ~1000 × 1ms of sleeps); with it, only the handful of
        // items already in flight when the poison lands ever execute.
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
            "cancel flag ignored: {executed} of {} items ran after the poison",
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
    fn uneven_work_is_stolen() {
        // One item is 1000x the work of the rest; with 4 workers the run
        // must still complete every item (stealing keeps the others busy).
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
