//! Counted proof that the sleep hot path allocates nothing: a counting
//! global allocator tallies the test thread's allocations across 10k
//! arm/reset/drop/advance cycles of a warmed-up virtual-time driver.
//! Counting is per thread, so the test harness's own threads never reach
//! the tally.

#![cfg(not(loom))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use tw_async::{Sleep, TimerDriver};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{Observer, RequestId, TickDelta};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
/// `realloc` and `alloc_zeroed` keep their default bodies, which go
/// through `alloc`, so they are counted too.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, so
// its `GlobalAlloc` contract carries over; the only addition is a bump of
// a const-initialised thread-local, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `alloc` above, which
        // is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A waker backed by an `Arc`, as an executor's task wakers are.
struct Task(AtomicU64);

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every hook left at its default: the driver still runs its `Observed`
/// wrapper and its wake-latency hook.
struct Silent;

impl Observer for Silent {}

fn poll(sleep: &mut Sleep, waker: &Waker) -> Poll<()> {
    Pin::new(sleep).poll(&mut Context::from_waker(waker))
}

#[test]
fn warm_sleep_cycles_allocate_nothing() {
    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(256))
        .observer(Arc::new(Silent))
        .build();
    let task = Arc::new(Task(AtomicU64::new(0)));
    let waker = Waker::from(Arc::clone(&task));
    // Each cycle arms two sleeps, resets one (UPDATE) and drops it armed
    // (STOP), then advances one tick, which fires the other and wakes it.
    let cycles = |n: u64| {
        for _ in 0..n {
            let mut stopped = driver.sleep(TickDelta(8));
            let mut fired = driver.sleep(TickDelta(1));
            assert!(poll(&mut stopped, &waker).is_pending());
            assert!(poll(&mut fired, &waker).is_pending());
            stopped.reset(TickDelta(16));
            drop(stopped);
            assert_eq!(driver.advance(1), 1);
            assert!(poll(&mut fired, &waker).is_ready());
        }
    };

    // Warm-up: both arenas' free lists and the expiry buffer reach their
    // steady-state size.
    cycles(100);
    let before = ALLOCS.with(Cell::get);
    cycles(10_000);
    let counted = ALLOCS.with(Cell::get) - before;

    assert_eq!(counted, 0, "allocations over 10k warm cycles");
    assert_eq!(task.0.load(Ordering::Relaxed), 10_100, "one wake per fire");
    assert_eq!(driver.outstanding(), 0);
}
