//! A counting global allocator for the allocation-bound test binaries:
//! live bytes, their high-water mark and the number of allocations. It is
//! process-wide, so each binary that includes it holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    /// Counted as one allocation and as the size change: the bound is on
    /// live bytes.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a call cost the heap. (Each binary reads only some fields.)
#[allow(dead_code)]
pub struct Usage {
    /// Most bytes live at once during the call, above the start.
    pub peak: usize,
    /// Bytes still live after the call, above the start (the result
    /// included).
    pub kept: usize,
    /// Allocations and reallocations made.
    pub allocations: usize,
}

/// Runs `f` and returns its result with the heap usage of the call.
pub fn usage<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let usage = Usage {
        peak: PEAK.load(Ordering::Relaxed) - base,
        kept: LIVE.load(Ordering::Relaxed).saturating_sub(base),
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
    };
    (result, usage)
}
