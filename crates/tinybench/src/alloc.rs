//! A counting global allocator for allocation-accounting tests and tools.
//!
//! The zero-allocation contracts of the hot path are pinned by tests that
//! run traffic under an allocator which counts every `alloc`/`realloc`.
//! A `#[global_allocator]` must be a `static` in the final binary, so each
//! user installs it with one line and reads the process-wide totals:
//!
//! ```
//! #[global_allocator]
//! static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;
//!
//! let before = tinybench::alloc::allocs();
//! let v = vec![0u8; 4096];
//! assert!(tinybench::alloc::allocs() > before);
//! assert!(tinybench::alloc::bytes() >= v.len() as u64);
//! assert!(tinybench::alloc::live_bytes() >= v.len() as u64);
//! ```
//!
//! It also keeps the bytes currently allocated and their high-water mark
//! ([`live_bytes`], [`peak_bytes`], [`reset_peak`]), so a tool can report
//! a phase's peak memory without an outside profiler.
//!
//! The totals are process-global: a measuring test must be the only test
//! in its binary, or a sibling on another thread adds its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(n: u64) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(n: u64) {
    LIVE.fetch_sub(n, Ordering::Relaxed);
}

/// The system allocator plus relaxed counters.
pub struct Counting;

// SAFETY: delegates to `System` unchanged; only adds relaxed counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// Calls to `alloc` and `realloc` so far, process-wide. Stays 0 unless
/// [`Counting`] is installed as the global allocator.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested by those calls so far.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
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
