//! Worst-case START, counted rather than timed: the timer arena grows in
//! chunks of `CHUNK` records, the first doubling up to a whole chunk and
//! every later one reserved whole, so no single `start_timer` allocates
//! more than one chunk, however many timers are outstanding. A doubling `Vec` would
//! instead make the START that crosses each power of two reallocate the
//! whole slab (117 MB at 2^20 records).
//!
//! A counting global allocator records, per thread, how many allocations
//! each START makes and the size of the largest. `realloc` keeps its
//! default body, which allocates the new block through `alloc`, so a
//! reallocation is counted at its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tw_core::arena::{Node, CHUNK};
use tw_core::wheel::HashedWheelUnsorted;
use tw_core::{RequestId, TickDelta, TimerScheme};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, tallying the calling thread's allocation count
/// and largest allocation.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, so
// its `GlobalAlloc` contract carries over; the only additions are updates
// of const-initialised thread-locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
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
fn no_start_allocates_more_than_one_chunk() {
    // One past 2^20, so a doubling slab would be caught in the copy that
    // crosses a million records.
    const N: usize = (1 << 20) + 1;
    // An arena record is a `Node` plus its slot's generation and tag.
    let chunk_bytes = CHUNK * (std::mem::size_of::<Node<RequestId>>() + 8);
    // The chunk table holds one pointer per chunk and doubles, so it
    // never has room for more than twice the chunks N records fill.
    let chunks = N.div_ceil(CHUNK);
    let table_bytes = 2 * chunks * std::mem::size_of::<usize>();
    let bound = chunk_bytes.max(table_bytes);

    let mut wheel = HashedWheelUnsorted::<RequestId>::new(4096);
    let mut allocating_starts = 0;
    let mut worst = (0, 0); // (largest single allocation, START index)
    for i in 0..N {
        let before = ALLOCS.with(Cell::get);
        LARGEST.with(|c| c.set(0));
        let interval = TickDelta(1 + (i % 5000) as u64);
        wheel.start_timer(interval, RequestId(i as u64)).unwrap();
        if ALLOCS.with(Cell::get) > before {
            allocating_starts += 1;
        }
        let largest = LARGEST.with(Cell::get);
        if largest > worst.0 {
            worst = (largest, i);
        }
    }

    assert_eq!(wheel.outstanding(), N);
    assert!(
        worst.0 <= bound,
        "START {} allocated {} B in one block; one chunk is {chunk_bytes} B, \
         the chunk table at most {table_bytes} B",
        worst.1,
        worst.0,
    );
    // Allocation stays rare: one START opens each chunk past the first,
    // the first doubles from `Vec`'s smallest capacity (4 records) up to
    // CHUNK in at most log2(CHUNK) STARTs, and the chunk table doubles in
    // at most log2(chunks) + 2 more.
    let first_chunk = CHUNK.trailing_zeros() as usize;
    let table = chunks.ilog2() as usize + 2;
    assert!(
        allocating_starts <= (chunks - 1) + first_chunk + table,
        "{allocating_starts} STARTs allocated, over {chunks} chunks"
    );
}
