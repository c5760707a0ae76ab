//! Counted proofs about the sleep path's heap use, from a counting global
//! allocator that tallies the test thread's allocations, live bytes and
//! largest single allocation: the hot path allocates nothing across 10k
//! arm/reset/drop/advance cycles of a warmed-up virtual-time driver, with
//! an empty observer or with `ServiceTelemetry` attached; an armed sleep
//! costs the bare scheme's bytes plus one waker-slab entry; 100,000 sleeps
//! cost at most 85 B each; and no arm allocates more than one chunk of
//! the timer arena, however many sleeps are pending. Counting is per
//! thread, so the test harness's own threads never reach the tally.

#![cfg(not(loom))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use tw_async::slots::Entry;
use tw_async::{Sleep, TimerDriver};
use tw_core::arena::{Node, CHUNK};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{Observer, RequestId, TickDelta, TimerScheme};
use tw_obs::ServiceTelemetry;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation, the bytes live on the
/// calling thread and the largest allocation. `realloc` and `alloc_zeroed`
/// keep their default bodies, which go through `alloc` and `dealloc`, so
/// they are counted too, a reallocation at its new size.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, so
// its `GlobalAlloc` contract carries over; the only additions are bumps of
// const-initialised thread-locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_add_unsigned(layout.size())));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_sub_unsigned(layout.size())));
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

/// Every hook left at its default: the driver still raises every hook
/// and runs the per-fire run coalescing, into empty bodies.
struct Silent;

impl Observer for Silent {}

fn poll(sleep: &mut Sleep, waker: &Waker) -> Poll<()> {
    Pin::new(sleep).poll(&mut Context::from_waker(waker))
}

#[test]
fn warm_sleep_cycles_allocate_nothing() {
    warm_cycles_allocate_nothing(Arc::new(Silent));
}

#[test]
fn warm_sleep_cycles_allocate_nothing_with_telemetry() {
    let tele = Arc::new(ServiceTelemetry::new());
    warm_cycles_allocate_nothing(Arc::clone(&tele) as Arc<dyn Observer + Send + Sync>);
    assert_eq!(tele.scheme.fires.get(), 10_100);
    assert_eq!(tele.wake_latency.count(), 10_100);
    assert_eq!(tele.scheme.restarts.get(), 10_100);
}

fn warm_cycles_allocate_nothing(observer: Arc<dyn Observer + Send + Sync>) {
    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(256))
        .observer(observer)
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

/// Bytes the test thread holds live right now.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn interval(i: usize) -> TickDelta {
    TickDelta(1 + (i % 200) as u64)
}

/// Arms `sleeps.capacity()` sleeps of assorted intervals on `driver`,
/// polled with `waker`, and keeps them pending in `sleeps`, calling
/// `after_arm` after each arm.
fn arm(
    driver: &TimerDriver,
    sleeps: &mut Vec<Sleep>,
    waker: &Waker,
    mut after_arm: impl FnMut(usize),
) {
    for i in 0..sleeps.capacity() {
        let mut sleep = driver.sleep(interval(i));
        assert!(poll(&mut sleep, waker).is_pending());
        after_arm(i);
        sleeps.push(sleep);
    }
}

#[test]
fn a_sleep_costs_the_bare_schemes_bytes_plus_one_slab_entry() {
    let entry = std::mem::size_of::<Entry<Waker>>();
    assert!(entry <= 24, "a waker slab entry is {entry} B");

    // One whole chunk, so the scheme's arena and the slab both end exactly
    // full: each store's first chunk has doubled to exactly CHUNK records
    // and been sealed, so neither side is charged room the other is not.
    const N: usize = CHUNK;
    // Sealing puts one pointer in each store's chunk table, whose first
    // allocation is `Vec`'s smallest non-zero capacity: exactly four
    // pointers. The bare scheme's arena pays for its own table, so what the
    // driver adds besides its entries is the slab's.
    let table = 4 * std::mem::size_of::<Box<[Entry<Waker>; CHUNK]>>();

    let mut bare = HashedWheelUnsorted::<RequestId>::new(256);
    let before = live_bytes();
    for i in 0..N {
        assert!(bare.start_timer(interval(i), RequestId(i as u64)).is_ok());
    }
    let bare_bytes = live_bytes() - before;

    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(256)).build();
    let waker = Waker::from(Arc::new(Task(AtomicU64::new(0))));
    let mut sleeps = Vec::with_capacity(N);
    let before = live_bytes();
    arm(&driver, &mut sleeps, &waker, |_| {});
    let driver_bytes = live_bytes() - before;

    assert_eq!(driver.pending_sleeps(), N);
    let per_sleep = |bytes: isize| bytes as f64 / N as f64;
    assert!(
        driver_bytes <= bare_bytes + (entry * N + table) as isize,
        "driver {:.2} B per sleep, bare scheme {:.2} B per timer, slab entry {entry} B, \
         chunk table {table} B",
        per_sleep(driver_bytes),
        per_sleep(bare_bytes),
    );
}

#[test]
fn a_hundred_thousand_sleeps_cost_at_most_85_bytes_each() {
    // Not a whole number of chunks: both the arena and the slab end in a
    // partly filled 25th chunk. Each sleep's own share is a 56-byte timer
    // record plus a 24-byte slab entry; the rest is that last chunk's
    // unused room, the two chunk tables, the wheel and the driver.
    const N: usize = 100_000;
    let waker = Waker::from(Arc::new(Task(AtomicU64::new(0))));
    let mut sleeps = Vec::with_capacity(N);
    let before = live_bytes();
    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(256)).build();
    arm(&driver, &mut sleeps, &waker, |_| {});
    let per_sleep = (live_bytes() - before) as f64 / N as f64;

    assert_eq!(driver.pending_sleeps(), N);
    assert!(per_sleep <= 85.0, "{per_sleep:.2} B per sleep");
}

#[test]
fn no_arm_allocates_more_than_one_arena_chunk() {
    // One past 2^20, so a doubling arena or slab would be caught in the
    // copy that crosses a million entries.
    const N: usize = (1 << 20) + 1;
    // The timer arena's chunks are the largest: a record is a `Node` plus
    // its slot's generation and tag, against the slab's 24-byte entry.
    let chunk_bytes = CHUNK * (std::mem::size_of::<Node<RequestId>>() + 8);
    let driver = TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(4096)).build();
    let waker = Waker::from(Arc::new(Task(AtomicU64::new(0))));
    let mut sleeps = Vec::with_capacity(N);
    let mut worst = (0, 0); // (largest single allocation, arm index)
    LARGEST.with(|c| c.set(0));
    arm(&driver, &mut sleeps, &waker, |i| {
        let largest = LARGEST.with(|c| c.replace(0));
        if largest > worst.0 {
            worst = (largest, i);
        }
    });

    assert_eq!(driver.pending_sleeps(), N);
    assert!(
        worst.0 <= chunk_bytes,
        "arm {} allocated {} B in one block; one arena chunk is {chunk_bytes} B",
        worst.1,
        worst.0,
    );
}
