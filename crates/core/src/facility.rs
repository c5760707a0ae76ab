//! The paper-exact client interface: `START_TIMER(Interval, Request_ID,
//! Expiry_Action)` / `STOP_TIMER(Request_ID)` / `PER_TICK_BOOKKEEPING` /
//! `EXPIRY_PROCESSING`.
//!
//! [`TimerFacility`] adapts any [`TimerScheme`] to the §2 signatures: it
//! maintains the `Request_ID` → handle mapping (so clients stop timers by id,
//! as in the paper) and performs the client-specified [`ExpiryAction`] when a
//! timer fires — "calling a client-specified routine, or setting an event
//! flag" (§2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::handle::{RequestId, TimerHandle};
use crate::scheme::{Expired, TimerScheme};
use crate::time::{Tick, TickDelta};
use crate::TimerError;

/// What to do when a timer expires (§2's `Expiry_Action`).
pub enum ExpiryAction {
    /// Call a client-specified routine with the request id and firing info.
    Callback(Box<dyn FnMut(RequestId, Expired<()>) + Send>),
    /// Set an event flag the client polls.
    SetFlag(Arc<AtomicBool>),
    /// Do nothing beyond recording the expiry (useful in experiments).
    Nop,
}

impl std::fmt::Debug for ExpiryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpiryAction::Callback(_) => f.write_str("ExpiryAction::Callback(..)"),
            ExpiryAction::SetFlag(flag) => f
                .debug_tuple("ExpiryAction::SetFlag")
                .field(&flag.load(Ordering::Relaxed))
                .finish(),
            ExpiryAction::Nop => f.write_str("ExpiryAction::Nop"),
        }
    }
}

/// A record of one expiry performed by `PER_TICK_BOOKKEEPING`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpiryRecord {
    /// The client's request id.
    pub request_id: RequestId,
    /// Scheduled deadline.
    pub deadline: Tick,
    /// Actual firing tick.
    pub fired_at: Tick,
}

/// The §2 timer module: a [`TimerScheme`] plus the `Request_ID` bookkeeping
/// and expiry-action dispatch.
///
/// # Examples
///
/// ```
/// use tw_core::facility::{ExpiryAction, TimerFacility};
/// use tw_core::wheel::BasicWheel;
/// use tw_core::{RequestId, TickDelta};
///
/// let mut module = TimerFacility::new(BasicWheel::new(256));
/// module
///     .start_timer(TickDelta(3), RequestId(1), ExpiryAction::Nop)
///     .unwrap();
/// let mut fired = Vec::new();
/// for _ in 0..3 {
///     fired.extend(module.per_tick_bookkeeping());
/// }
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].request_id, RequestId(1));
/// ```
pub struct TimerFacility<S> {
    scheme: S,
    by_request: HashMap<RequestId, TimerHandle>,
    /// Re-arm intervals for periodic timers (§1's "periodic checking"
    /// class — "such timers always expire").
    periods: HashMap<RequestId, TickDelta>,
}

impl<S: TimerScheme<(RequestId, ExpiryAction)>> TimerFacility<S> {
    /// Wraps a scheme in the paper's client interface.
    pub fn new(scheme: S) -> TimerFacility<S> {
        TimerFacility {
            scheme,
            by_request: HashMap::new(),
            periods: HashMap::new(),
        }
    }

    /// `START_TIMER(Interval, Request_ID, Expiry_Action)` (§2).
    ///
    /// # Errors
    ///
    /// * [`TimerError::DuplicateRequestId`] if `request_id` already has an
    ///   outstanding timer.
    /// * Any error of the underlying scheme's
    ///   [`start_timer`](TimerScheme::start_timer).
    pub fn start_timer(
        &mut self,
        interval: TickDelta,
        request_id: RequestId,
        action: ExpiryAction,
    ) -> Result<(), TimerError> {
        if self.by_request.contains_key(&request_id) {
            return Err(TimerError::DuplicateRequestId);
        }
        let handle = self.scheme.start_timer(interval, (request_id, action))?;
        self.by_request.insert(request_id, handle);
        Ok(())
    }

    /// Starts a *periodic* timer: after each expiry the facility re-arms it
    /// for another `period`, until `STOP_TIMER` is called.
    ///
    /// This is the §1 failure-recovery pattern ("some \[failures\] can be
    /// detected by periodic checking (e.g. memory corruption) and such
    /// timers always expire"); the paper's module interface leaves re-arming
    /// to the client, but every deployed facility grows this convenience.
    /// Each firing is exact: the k-th expiry lands at `start + k·period`.
    ///
    /// # Errors
    ///
    /// Same as [`start_timer`](Self::start_timer).
    pub fn start_periodic(
        &mut self,
        period: TickDelta,
        request_id: RequestId,
        action: ExpiryAction,
    ) -> Result<(), TimerError> {
        self.start_timer(period, request_id, action)?;
        self.periods.insert(request_id, period);
        Ok(())
    }

    /// `STOP_TIMER(Request_ID)` (§2). Stops one-shot and periodic timers
    /// alike.
    ///
    /// # Errors
    ///
    /// [`TimerError::UnknownRequestId`] if no timer is outstanding under
    /// `request_id`.
    pub fn stop_timer(&mut self, request_id: RequestId) -> Result<(), TimerError> {
        self.periods.remove(&request_id);
        let handle = self
            .by_request
            .remove(&request_id)
            .ok_or(TimerError::UnknownRequestId)?;
        // The map entry existing implies the handle is live: expiries remove
        // their entries and stop removes them above. Propagate rather than
        // panic if the maps ever drift out of sync.
        self.scheme.stop_timer(handle)?;
        Ok(())
    }

    /// UPDATE: re-arms `request_id`'s outstanding timer to expire `interval`
    /// ticks from now, keeping its id, handle, and expiry action. For a
    /// periodic timer only the in-flight deadline moves; the period is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// * [`TimerError::UnknownRequestId`] if no timer is outstanding under
    ///   `request_id`.
    /// * Any error of the underlying scheme's
    ///   [`restart_timer`](TimerScheme::restart_timer); the timer stays
    ///   armed at its original deadline in that case.
    pub fn restart_timer(
        &mut self,
        request_id: RequestId,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        let handle = self
            .by_request
            .get(&request_id)
            .copied()
            .ok_or(TimerError::UnknownRequestId)?;
        self.scheme.restart_timer(handle, interval)
    }

    /// `PER_TICK_BOOKKEEPING` (§2): advances the clock one tick, performs
    /// every due timer's `Expiry_Action`, and returns their records.
    pub fn per_tick_bookkeeping(&mut self) -> Vec<ExpiryRecord> {
        let mut records = Vec::new();
        let mut rearm = Vec::new();
        let by_request = &mut self.by_request;
        let periods = &self.periods;
        self.scheme
            .tick(&mut |expired: Expired<(RequestId, ExpiryAction)>| {
                let (request_id, mut action) = expired.payload;
                by_request.remove(&request_id);
                let info = Expired {
                    handle: expired.handle,
                    payload: (),
                    deadline: expired.deadline,
                    fired_at: expired.fired_at,
                };
                match &mut action {
                    ExpiryAction::Callback(f) => f(request_id, info),
                    ExpiryAction::SetFlag(flag) => flag.store(true, Ordering::Release),
                    ExpiryAction::Nop => {}
                }
                // tw-analyze: allow(TW004, reason = "the facility facade returns the tick's expiry batch as a Vec by API contract; the measured per-tick path is the schemes' tick(), which stays allocation-free")
                records.push(ExpiryRecord {
                    request_id,
                    deadline: expired.deadline,
                    fired_at: expired.fired_at,
                });
                if let Some(&period) = periods.get(&request_id) {
                    // Re-arm after the tick completes (the scheme is borrowed
                    // inside this callback).
                    // tw-analyze: allow(TW004, reason = "periodic re-arms are deferred to after the scheme borrow ends; the scratch Vec is facade bookkeeping, bounded by the tick's expiry count, not scheme per-tick work")
                    rearm.push((request_id, period, action));
                }
            });
        for (request_id, period, action) in rearm {
            // A period the scheme accepted once is accepted again — except
            // when the clock has run so far that `now + period` no longer
            // fits the tick domain. Retire the timer instead of panicking.
            match self.scheme.start_timer(period, (request_id, action)) {
                Ok(handle) => {
                    self.by_request.insert(request_id, handle);
                }
                Err(TimerError::DeadlineOverflow) => {
                    self.periods.remove(&request_id);
                }
                Err(other) => {
                    debug_assert!(false, "periodic re-arm rejected: {other}");
                    self.periods.remove(&request_id);
                }
            }
        }
        records
    }

    /// The current absolute time.
    pub fn now(&self) -> Tick {
        self.scheme.now()
    }

    /// Number of outstanding timers.
    pub fn outstanding(&self) -> usize {
        self.scheme.outstanding()
    }

    /// Returns `true` if `request_id` has an outstanding timer.
    pub fn is_outstanding(&self, request_id: RequestId) -> bool {
        self.by_request.contains_key(&request_id)
    }

    /// Borrows the underlying scheme (e.g. to read its counters).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Mutably borrows the underlying scheme.
    pub fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::BasicWheel;

    fn facility() -> TimerFacility<BasicWheel<(RequestId, ExpiryAction)>> {
        TimerFacility::new(BasicWheel::new(64))
    }

    #[test]
    fn start_tick_expire_flow() {
        let mut m = facility();
        m.start_timer(TickDelta(2), RequestId(7), ExpiryAction::Nop)
            .unwrap();
        assert!(m.is_outstanding(RequestId(7)));
        assert!(m.per_tick_bookkeeping().is_empty());
        let fired = m.per_tick_bookkeeping();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].request_id, RequestId(7));
        assert_eq!(fired[0].deadline, Tick(2));
        assert_eq!(fired[0].fired_at, Tick(2));
        assert!(!m.is_outstanding(RequestId(7)));
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn duplicate_request_id_rejected() {
        let mut m = facility();
        m.start_timer(TickDelta(5), RequestId(1), ExpiryAction::Nop)
            .unwrap();
        assert_eq!(
            m.start_timer(TickDelta(5), RequestId(1), ExpiryAction::Nop),
            Err(TimerError::DuplicateRequestId)
        );
        // After stopping, the id can be reused.
        m.stop_timer(RequestId(1)).unwrap();
        m.start_timer(TickDelta(5), RequestId(1), ExpiryAction::Nop)
            .unwrap();
    }

    #[test]
    fn stop_unknown_id_fails() {
        let mut m = facility();
        assert_eq!(
            m.stop_timer(RequestId(9)),
            Err(TimerError::UnknownRequestId)
        );
    }

    #[test]
    fn stop_prevents_expiry() {
        let mut m = facility();
        m.start_timer(TickDelta(2), RequestId(1), ExpiryAction::Nop)
            .unwrap();
        m.stop_timer(RequestId(1)).unwrap();
        for _ in 0..5 {
            assert!(m.per_tick_bookkeeping().is_empty());
        }
    }

    #[test]
    fn set_flag_action_sets_flag() {
        let mut m = facility();
        let flag = Arc::new(AtomicBool::new(false));
        m.start_timer(
            TickDelta(1),
            RequestId(1),
            ExpiryAction::SetFlag(Arc::clone(&flag)),
        )
        .unwrap();
        m.per_tick_bookkeeping();
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn callback_action_runs_with_request_id() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut m = facility();
        m.start_timer(
            TickDelta(3),
            RequestId(42),
            ExpiryAction::Callback(Box::new(move |rid, info| {
                seen2.lock().unwrap().push((rid.0, info.fired_at.as_u64()));
            })),
        )
        .unwrap();
        for _ in 0..3 {
            m.per_tick_bookkeeping();
        }
        assert_eq!(seen.lock().unwrap().as_slice(), &[(42, 3)]);
    }

    #[test]
    fn expiry_frees_request_id_for_reuse() {
        let mut m = facility();
        m.start_timer(TickDelta(1), RequestId(1), ExpiryAction::Nop)
            .unwrap();
        m.per_tick_bookkeeping();
        m.start_timer(TickDelta(1), RequestId(1), ExpiryAction::Nop)
            .unwrap();
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn periodic_fires_at_exact_multiples() {
        let mut m = facility();
        m.start_periodic(TickDelta(5), RequestId(1), ExpiryAction::Nop)
            .unwrap();
        let mut fired = Vec::new();
        for _ in 0..23 {
            fired.extend(m.per_tick_bookkeeping());
        }
        let at: Vec<u64> = fired.iter().map(|r| r.fired_at.as_u64()).collect();
        assert_eq!(at, vec![5, 10, 15, 20]);
        for r in &fired {
            assert_eq!(r.deadline, r.fired_at);
        }
        assert!(m.is_outstanding(RequestId(1)), "still armed");
    }

    #[test]
    fn periodic_stops_cleanly() {
        let mut m = facility();
        m.start_periodic(TickDelta(3), RequestId(9), ExpiryAction::Nop)
            .unwrap();
        for _ in 0..7 {
            m.per_tick_bookkeeping();
        }
        m.stop_timer(RequestId(9)).unwrap();
        for _ in 0..10 {
            assert!(m.per_tick_bookkeeping().is_empty());
        }
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn periodic_callback_runs_every_cycle() {
        use std::sync::Mutex;
        let hits: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let hits2 = Arc::clone(&hits);
        let mut m = facility();
        m.start_periodic(
            TickDelta(4),
            RequestId(2),
            ExpiryAction::Callback(Box::new(move |_, info| {
                hits2.lock().unwrap().push(info.fired_at.as_u64());
            })),
        )
        .unwrap();
        for _ in 0..12 {
            m.per_tick_bookkeeping();
        }
        assert_eq!(hits.lock().unwrap().as_slice(), &[4, 8, 12]);
    }

    #[test]
    fn restart_moves_the_deadline_keeping_the_request_id() {
        let mut m = facility();
        m.start_timer(TickDelta(3), RequestId(7), ExpiryAction::Nop)
            .unwrap();
        m.restart_timer(RequestId(7), TickDelta(6)).unwrap();
        for _ in 0..3 {
            assert!(m.per_tick_bookkeeping().is_empty());
        }
        let mut fired = Vec::new();
        for _ in 0..3 {
            fired.extend(m.per_tick_bookkeeping());
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].request_id, RequestId(7));
        assert_eq!(fired[0].fired_at, Tick(6));
        assert!(!m.is_outstanding(RequestId(7)));
    }

    #[test]
    fn restart_unknown_or_fired_id_fails_without_side_effects() {
        let mut m = facility();
        assert_eq!(
            m.restart_timer(RequestId(9), TickDelta(2)),
            Err(TimerError::UnknownRequestId)
        );
        m.start_timer(TickDelta(1), RequestId(9), ExpiryAction::Nop)
            .unwrap();
        m.per_tick_bookkeeping();
        assert_eq!(
            m.restart_timer(RequestId(9), TickDelta(2)),
            Err(TimerError::UnknownRequestId)
        );
        // A failed scheme-level restart leaves the map and timer intact.
        m.start_timer(TickDelta(4), RequestId(1), ExpiryAction::Nop)
            .unwrap();
        assert_eq!(
            m.restart_timer(RequestId(1), TickDelta::ZERO),
            Err(TimerError::ZeroInterval)
        );
        assert!(m.is_outstanding(RequestId(1)));
    }

    #[test]
    fn debug_impl_for_actions() {
        let s = format!("{:?}", ExpiryAction::Nop);
        assert!(s.contains("Nop"));
        let s = format!(
            "{:?}",
            ExpiryAction::SetFlag(Arc::new(AtomicBool::new(false)))
        );
        assert!(s.contains("SetFlag"));
        let s = format!("{:?}", ExpiryAction::Callback(Box::new(|_, _| {})));
        assert!(s.contains("Callback"));
    }
}
