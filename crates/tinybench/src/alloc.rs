//! A counting global allocator for allocation-accounting tests and tools.
//!
//! The zero-allocation contracts of the hot path are pinned by tests that
//! run traffic under an allocator which counts every `alloc`/`realloc`.
//! A `#[global_allocator]` must be a `static` in the final binary, so each
//! user installs it with one line and measures a scope with [`measure`]:
//!
//! ```
//! #[global_allocator]
//! static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;
//!
//! let (v, allocs) = tinybench::alloc::measure(|| vec![0u8; 4096]);
//! assert_eq!(allocs, 1);
//! assert!(tinybench::alloc::bytes() >= v.len() as u64);
//! assert!(tinybench::alloc::live_bytes() >= v.len() as u64);
//! ```
//!
//! The call counts ([`allocs`], [`bytes`], [`measure`]) are per thread:
//! each thread counts its own calls in a const-initialised thread-local,
//! so a pin sees none of what libtest's main thread or a sibling test does
//! in the same window. The bytes currently allocated and their high-water
//! mark ([`live_bytes`], [`peak_bytes`], [`reset_peak`]) are process-wide,
//! so a tool can report a phase's peak memory without an outside profiler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// This thread's `alloc`/`realloc` calls and the bytes they asked for.
    /// Const-initialised and without a destructor, so the allocator can
    /// reach it at any point of the thread's life without allocating.
    static CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // `try_with` fails only once the slot is gone at thread exit; a call
    // that late is not counted.
    let _ = CALLS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

fn grow(n: u64) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(n: u64) {
    LIVE.fetch_sub(n, Ordering::Relaxed);
}

/// The system allocator plus per-thread call counters and process-wide
/// live-byte counters.
pub struct Counting;

// SAFETY: delegates to `System` unchanged; only adds counters, none of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            let (old, new_size) = (layout.size() as u64, new_size as u64);
            if new_size >= old {
                grow(new_size - old);
            } else {
                shrink(old - new_size);
            }
        }
        new
    }
}

/// Calls to `alloc` and `realloc` this thread has made so far. Stays 0
/// unless [`Counting`] is installed as the global allocator.
pub fn allocs() -> u64 {
    CALLS.with(|c| c.get().0)
}

/// Bytes requested by those calls so far.
pub fn bytes() -> u64 {
    CALLS.with(|c| c.get().1)
}

/// Runs `f` and returns its result with the number of `alloc` and
/// `realloc` calls this thread made inside it. Other threads' calls in
/// the same window are not counted.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] has been since the process started or the
/// last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts [`peak_bytes`] from the current [`live_bytes`].
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}
