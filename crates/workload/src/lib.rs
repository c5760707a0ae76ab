//! Workload generation and analysis for the timing-wheel experiments.
//!
//! * [`dist`] — timer-interval distributions (§3.2's exponential/uniform
//!   analysis cases plus stress distributions).
//! * [`arrivals`] — `START_TIMER` arrival processes (Poisson for the
//!   Figure 3 G/G/∞ model, deterministic and bursty for stress).
//! * [`trace`] — deterministic operation traces and the replay driver every
//!   comparative experiment runs on.
//! * [`sleeps`] — future-level concurrent-sleeps plans (spawn / reset /
//!   drop / advance) for the `tw-async` wake-storm experiments.
//! * [`stats`] — online moments and percentiles.
//! * [`theory`] — the paper's closed forms (insert costs, Little's law,
//!   residual life, `4 + 15·n/TableSize`, the §6.2 crossover rule).
//!
//! # Safety posture
//!
//! `unsafe` is forbidden at the crate level; generation and analysis are
//! plain arithmetic over owned buffers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod dist;
pub mod sleeps;
pub mod stats;
pub mod theory;
pub mod trace;

pub use arrivals::{ArrivalProcess, Arrivals};
pub use dist::IntervalDist;
pub use sleeps::{SleepOp, SleepsConfig, SleepsPlan};
pub use stats::{percentile, OnlineStats};
pub use trace::{replay, ReplayReport, Trace, TraceConfig, TraceOp};
