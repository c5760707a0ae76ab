//! # tw-async — futures-based timers atop the timing wheels
//!
//! The async façade over the whole stack: [`Sleep`], [`Timeout`] and
//! [`Interval`] futures driven by a [`TimerDriver`] that owns *any*
//! [`TimerScheme`](tw_core::TimerScheme) behind one lock: basic, hashed,
//! hierarchical, lawn, or a comparison baseline. The paper's `START_TIMER` /
//! `STOP_TIMER` / `UPDATE` / `EXPIRY_PROCESSING` become, respectively,
//! first poll, drop, [`Sleep::reset`], and `Waker::wake`.
//!
//! The design constraint carried over from the wheels themselves: the
//! hot path allocates nothing. Each pending sleep owns one 24-byte
//! generational slot holding its task waker ([`slots::WakerSlab`]); the
//! slot handle packs into the wheel's `Request_ID`, so registration
//! (re-poll) and wake (expiry delivery) are each one generation-checked
//! slab lookup. The slab sits next to the scheme behind the driver's one
//! lock ([`slots::Wheel`]), so each of a sleep's routines is one critical
//! section. Steady-state churn recycles slots off the free list —
//! [`TimerDriver::waker_slots`] plateaus, the same memory proof the
//! wheels make.
//!
//! ```
//! use tw_async::{block_on, TimerDriver};
//! use tw_core::wheel::{HierarchicalWheel, LevelSizes};
//! use tw_core::{RequestId, TickDelta};
//!
//! let driver = TimerDriver::builder(
//!     HierarchicalWheel::<RequestId>::new(LevelSizes(vec![64, 64])),
//! )
//! .build();
//!
//! // Virtual time: a worker thread awaits, this thread drives the clock.
//! let handle = {
//!     let driver = driver.clone();
//!     std::thread::spawn(move || block_on(driver.sleep(TickDelta(100))))
//! };
//! while driver.outstanding() == 0 {
//!     std::thread::yield_now(); // wait for the first poll to start the timer
//! }
//! driver.advance(100);
//! handle.join().unwrap();
//! ```

// The one-lock protocol is loom-checkable: under `--cfg loom` only the
// slab and the wheel state compile, and the model suite drives
// fire/register/reset/drop races through the exact shipped code under
// tw-concurrent's loom-backed Mutex.
pub mod slots;

#[cfg(not(loom))]
mod driver;
#[cfg(not(loom))]
mod executor;
#[cfg(not(loom))]
mod interval;
#[cfg(not(loom))]
mod sleep;
#[cfg(not(loom))]
mod timeout;

#[cfg(not(loom))]
pub use driver::{TimerDriver, TimerDriverBuilder};
#[cfg(not(loom))]
pub use executor::block_on;
#[cfg(not(loom))]
pub use interval::Interval;
#[cfg(not(loom))]
pub use sleep::Sleep;
#[cfg(not(loom))]
pub use timeout::{Elapsed, Timeout};
