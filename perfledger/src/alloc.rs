//! A counting global allocator that exists only in this binary. It counts
//! allocation calls made on the calling thread while [`count`] runs, so
//! worker threads of an unrelated subsystem cannot perturb a count, and the
//! same seed yields the same counts on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`
/// calls on threads that have counting switched on.
pub struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator can neither allocate nor fail during thread teardown.
    static ON: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ON.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the number of allocation calls it
/// made on this thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, CALLS.with(Cell::get) - before)
}
