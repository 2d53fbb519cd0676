//! `tinybench::alloc::measure` counts the measuring thread's allocations
//! and no other thread's, even when the other thread allocates inside the
//! measured window.

use std::hint::black_box;
use std::sync::{Arc, Barrier};

use tinybench::alloc::measure;

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

#[test]
fn measure_counts_this_threads_allocations_and_no_other_threads() {
    // The worker allocates between the two barriers, which the measuring
    // thread passes inside its window; the barriers themselves do not
    // allocate.
    let (open, close) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let worker = {
        let (open, close) = (Arc::clone(&open), Arc::clone(&close));
        std::thread::spawn(move || {
            open.wait();
            let ((), n) = measure(|| {
                for i in 0..100usize {
                    black_box(vec![0u8; 16 + i]);
                }
            });
            close.wait();
            n
        })
    };
    let ((), here) = measure(|| {
        open.wait();
        close.wait();
    });
    let there = worker.join().expect("worker panicked");
    assert_eq!(there, 100, "the worker's own window sees its allocations");
    assert_eq!(
        here, 0,
        "another thread's allocations leaked into the window"
    );

    let (v, here) = measure(|| black_box(vec![0u8; 64]));
    assert_eq!(here, 1, "an allocation on this thread is counted");
    drop(v);
}
