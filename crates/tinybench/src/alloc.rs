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
//! ```
//!
//! The totals are process-global: a measuring test must be the only test
//! in its binary, or a sibling on another thread adds its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two relaxed counters.
pub struct Counting;

// SAFETY: delegates to `System` unchanged; only adds relaxed counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
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
