//! Counted proofs that a timer arena costs memory in proportion to its
//! timers, however many arenas there are: a lone timer costs at most
//! `Vec`'s smallest non-zero capacity of records, and a `ShardedWheel` of
//! 4096 buckets, one arena each, holds 100,000 timers in at most two
//! records' worth of bytes per timer. A counting global allocator tallies
//! the bytes live on the test thread, so the harness's own threads never
//! reach the tally.

// Integration test: panicking on an unexpected Err is the assertion.
#![allow(clippy::unwrap_used)]
#![cfg(not(loom))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tw_concurrent::ShardedWheel;
use tw_core::arena::{Node, TimerArena};
use tw_core::{RequestId, Tick, TickDelta};

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes live on the calling thread.
/// `realloc` keeps its default body, which goes through `alloc` and
/// `dealloc`, so it is counted too.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, so
// its `GlobalAlloc` contract carries over; the only addition is an update
// of a const-initialised thread-local, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_add_unsigned(layout.size())));
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

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// An arena record: a `Node` plus its slot's generation and tag.
fn record() -> usize {
    std::mem::size_of::<Node<RequestId>>() + 8
}

#[test]
fn a_lone_timer_costs_at_most_four_records() {
    let mut arena: TimerArena<RequestId> = TimerArena::new();
    let before = live_bytes();
    arena.alloc(RequestId(1), Tick(1)).unwrap();
    let bytes = live_bytes() - before;
    assert!(
        bytes <= (4 * record()) as isize,
        "one timer took {bytes} B; a record is {} B",
        record()
    );
}

#[test]
fn a_sharded_wheel_costs_at_most_two_records_per_timer() {
    const BUCKETS: usize = 4096;
    const N: usize = 100_000;
    let wheel: ShardedWheel<RequestId> = ShardedWheel::new(BUCKETS);
    // About 24 timers in every bucket: each arena's records double up to
    // at most twice its timers, and nothing else grows.
    let before = live_bytes();
    for i in 0..N {
        let interval = TickDelta(1 + (i % BUCKETS) as u64);
        wheel.start_timer(interval, RequestId(i as u64)).unwrap();
    }
    let bytes = live_bytes() - before;
    assert_eq!(wheel.outstanding(), N);
    let per_timer = bytes as f64 / N as f64;
    assert!(
        bytes <= (2 * record() * N) as isize,
        "{per_timer:.2} B per timer over {BUCKETS} arenas; a record is {} B",
        record()
    );
}
