//! Symmetric-multiprocessing timer facilities — Appendix A.2 of the paper.
//!
//! * [`coarse`] — [`CoarseLocked`]: any scheme behind one mutex (the
//!   Scheme 2 semaphore bottleneck Glaser describes).
//! * [`sharded`] — [`ShardedWheel`]: a Scheme 6 wheel with per-bucket
//!   locks; start/stop touch one bucket, exact firing preserved.
//! * [`mpsc`] — [`MpscWheel`]: producers push starts onto a lock-free
//!   queue, one ticker owns the wheel (the tokio/Netty/Kafka shape);
//!   lazy cancellation, drain-latency semantics.
//! * [`service`] — [`TimerService`]: any scheme behind one lock, each call
//!   run in place, expiries delivered on a channel.
//! * [`ticker`] — the drift-free realtime clock that the service and the
//!   `tw-async` driver share.
//!
//! # Safety posture
//!
//! `unsafe` is denied: all concurrency here is built on safe primitives
//! from the [`sync`] abstraction layer, which swaps between std and
//! `loom`-instrumented implementations under `--cfg loom`. The loom models
//! in `tests/loom.rs` exhaustively check the delicate interleavings
//! (insert-vs-tick `processed_until`, stop-vs-expiry, cancel-vs-drain, the
//! `outstanding` counter); see DESIGN.md §Verification.
//!
//! # Structural invariants
//!
//! [`ShardedWheel`] implements `tw_core::validate::InvariantCheck`, so test
//! harnesses can revalidate its per-bucket structure after every operation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod coarse;
pub mod mpsc;
#[cfg(not(loom))]
pub mod service;
pub mod sharded;
pub mod sync;
pub mod ticker;

pub use coarse::CoarseLocked;
pub use mpsc::{MpscExpired, MpscHandle, MpscWheel};
#[cfg(not(loom))]
pub use service::{Expiry, TimerService, TimerServiceBuilder};
pub use sharded::{ShardHandle, ShardedWheel};
