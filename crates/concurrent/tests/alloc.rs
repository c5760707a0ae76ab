//! A counted proof that the timer service's warm call path allocates
//! nothing: 10k start / restart / stop / `advance(1)` / drain cycles of a
//! warmed-up virtual-time service, with no observer and with
//! `ServiceTelemetry` attached. A counting global allocator tallies the
//! test thread's allocations, so the harness's own threads never reach
//! the tally.

// Integration test: panicking on an unexpected Err is the assertion.
#![allow(clippy::unwrap_used)]
#![cfg(not(loom))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tw_concurrent::TimerService;
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{Observer, RequestId, TickDelta};
use tw_obs::ServiceTelemetry;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation made on the calling
/// thread. `realloc` and `alloc_zeroed` keep their default bodies, which
/// go through `alloc`, so they are counted too.
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

#[test]
fn warm_service_cycles_allocate_nothing() {
    warm_cycles_allocate_nothing(None);
}

#[test]
fn warm_service_cycles_allocate_nothing_with_telemetry() {
    let tele = Arc::new(ServiceTelemetry::new());
    warm_cycles_allocate_nothing(Some(Arc::clone(&tele) as Arc<dyn Observer + Send + Sync>));
    assert_eq!(tele.scheme.starts.get(), 20_200);
    assert_eq!(tele.scheme.restarts.get(), 10_100);
    assert_eq!(tele.scheme.stops.get(), 10_100);
    assert_eq!(tele.scheme.fires.get(), 10_100);
}

fn warm_cycles_allocate_nothing(observer: Option<Arc<dyn Observer + Send + Sync>>) {
    let builder = TimerService::builder(HashedWheelUnsorted::<RequestId>::new(256));
    let svc = match observer {
        Some(observer) => builder.observer(observer),
        None => builder,
    }
    .spawn();
    // Each cycle starts two timers, restarts one (UPDATE) and stops it
    // (STOP), then advances one tick, which fires the other, and drains
    // its expiry.
    let cycles = |n: u64| {
        for i in 0..n {
            let stopped = svc.start_timer(2 * i, TickDelta(8)).unwrap();
            svc.start_timer(2 * i + 1, TickDelta(1)).unwrap();
            svc.restart_timer(stopped, TickDelta(16)).unwrap();
            assert_eq!(svc.stop_timer(stopped), Ok(RequestId(2 * i)));
            assert_eq!(svc.advance(1), 1);
            let expiry = svc.expiries().try_recv().unwrap();
            assert_eq!(expiry.id, RequestId(2 * i + 1));
        }
    };

    // Warm-up: the scheme's arena free list and the expiry queue reach
    // their steady-state size.
    cycles(100);
    let before = ALLOCS.with(Cell::get);
    cycles(10_000);
    let counted = ALLOCS.with(Cell::get) - before;

    assert_eq!(counted, 0, "allocations over 10k warm cycles");
    assert_eq!(svc.outstanding(), 0);
}
