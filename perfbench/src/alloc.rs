//! Counting global allocator: live and peak heap bytes of the whole
//! process. Counting can be switched off so a pass can run uncounted,
//! which is how the benchmark states the allocator's own overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// Forwards every call to [`System`] and tallies the bytes.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(true);
// Signed: a block allocated while counting was off and freed while it is
// on drives the tally below its true value. Only differences taken
// within one counted interval are reported, so the offset cancels.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if ENABLED.load(Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ENABLED.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was returned by `System` for `layout`, and the
        // caller guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Turns counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Starts a new peak interval: the peak drops to the live total, which
/// is returned as the interval's base.
pub fn reset_peak() -> isize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The highest live total since the last [`reset_peak`].
pub fn peak() -> isize {
    PEAK.load(Relaxed)
}

/// Raises the peak to at least `bytes` (restores an enclosing interval's
/// peak after a nested one reset it).
pub fn raise_peak(bytes: isize) {
    PEAK.fetch_max(bytes, Relaxed);
}
