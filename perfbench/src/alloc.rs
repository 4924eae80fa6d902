//! A counting global allocator: counts allocator calls per thread while tracing is on.
//!
//! With tracing off every call pays one relaxed load of a flag and nothing else, so the
//! end-to-end run measures the program with the system allocator's own costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The benchmark binary's global allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` initialisation and no destructor: safe to touch from inside the allocator.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns allocation counting on (traced runs) or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocator calls (alloc, alloc_zeroed, realloc) made by the calling thread while counting
/// was on.
pub fn thread_calls() -> u64 {
    CALLS.with(|c| c.get())
}
