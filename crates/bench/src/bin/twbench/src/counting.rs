//! A counting `#[global_allocator]`: allocations, bytes, and peak live
//! bytes, summed over every thread of the process (the client thread and
//! the timer-service thread alike).
//!
//! The stream generator is harness work, not stack work, so it runs under
//! [`uncounted`]: the calling thread's allocations and frees bypass the
//! tallies while it is set. Memory must be freed in the same mode it was
//! allocated in; the harness keeps generator-owned buffers inside
//! `uncounted` for their whole life, which keeps `live` exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed in `main.rs`: the system allocator plus tallies.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed so that a mode mismatch (a bug) shows as a wrong number rather
// than an overflow.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised with no destructor: reading it never allocates
    // and stays valid through thread teardown.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    UNCOUNTED.try_with(|u| !u.get()).unwrap_or(true)
}

fn grow(size: usize) {
    let size = i64::try_from(size).unwrap_or(i64::MAX);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(i64::try_from(size).unwrap_or(i64::MAX), Relaxed);
}

fn note_alloc(size: usize) {
    if counted() {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(u64::try_from(size).unwrap_or(u64::MAX), Relaxed);
        grow(size);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies only read sizes and
// never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations (non-zero size) are
        // passed through to the system allocator as-is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if counted() {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && counted() {
            // A move to a new block is an allocation event like any other.
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(u64::try_from(new_size).unwrap_or(u64::MAX), Relaxed);
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes requested by counted allocations so far.
pub fn bytes() -> u64 {
    BYTES.load(Relaxed)
}

/// Counted bytes currently live.
pub fn live() -> i64 {
    LIVE.load(Relaxed)
}

/// Highest `live` value since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live total.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Runs `f` with this thread's allocations left out of every tally.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    UNCOUNTED.with(|u| u.set(true));
    let r = f();
    UNCOUNTED.with(|u| u.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_their_bytes() {
        // Other test threads allocate concurrently, so only lower bounds
        // on this thread's own effect can be pinned.
        let (a0, b0) = (allocs(), bytes());
        let v: Vec<u64> = Vec::with_capacity(1024);
        assert!(allocs() > a0);
        assert!(bytes() >= b0 + 8 * 1024);
        drop(v);
    }
}
