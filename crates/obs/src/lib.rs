//! Observability for the timing-wheels workspace.
//!
//! `tw-core`'s [`Observer`](tw_core::Observer) trait defines *where* events
//! come from; this crate provides *what records them*:
//!
//! * [`LogHistogram`] — a preallocated, 65-bucket log₂ histogram whose
//!   record path is a few relaxed atomics: allocation-free, `no_std`, safe
//!   to call from inside `PER_TICK_BOOKKEEPING` (the TW004/TW008 lints
//!   verify this transitively).
//! * [`SchemeTelemetry`] / [`ServiceTelemetry`] — `Observer` impls that
//!   tally the §2 routines, the §6.2 firing-error distribution, and (for
//!   the front-ends) the sharded wheel's lock contention and the async
//!   driver's wake latency.
//! * [`Snapshot`] — an ordered counter/histogram bundle with hand-rolled
//!   JSON rendering (the workspace vendors no serde), `std`-only.
//!
//! Attach telemetry by wrapping any scheme:
//!
//! ```
//! use tw_core::wheel::WheelConfig;
//! use tw_core::{TickDelta, TimerScheme, TimerSchemeExt};
//! use tw_obs::SchemeTelemetry;
//!
//! let tele = SchemeTelemetry::new();
//! let mut wheel = WheelConfig::new()
//!     .slots(256)
//!     .observer(&tele)
//!     .build_basic::<u64>()
//!     .unwrap();
//! wheel.start_timer(TickDelta(5), 42).unwrap();
//! wheel.collect_ticks(8);
//! assert_eq!(tele.starts.get(), 1);
//! assert_eq!(tele.fires.get(), 1);
//! assert_eq!(tele.firing_error.max(), 0); // Scheme 4 fires exactly
//! ```

#![cfg_attr(not(feature = "std"), no_std)]
#![warn(missing_docs)]

pub mod histogram;
#[cfg(feature = "std")]
pub mod snapshot;
pub mod telemetry;

pub use histogram::{HistogramSnapshot, LogHistogram};
#[cfg(feature = "std")]
pub use snapshot::Snapshot;
pub use telemetry::{Counter, SchemeTelemetry, ServiceTelemetry};
