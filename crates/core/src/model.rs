//! A trivially-correct reference timer module used as the property-test
//! oracle.
//!
//! [`OracleScheme`] keeps a `BTreeMap` from deadline to an intrusive list
//! of the timers due at that tick (in start order). It makes no attempt to
//! be fast — `tick` is a map lookup — but its correctness is obvious by
//! inspection, which is the point: every real scheme in the workspace is
//! proptest-checked for trace equivalence against it. Buckets are the
//! arena's intrusive lists (§3.2), so stop and restart are an O(1) unlink
//! (plus the map lookup) and the update path never allocates.

use alloc::collections::BTreeMap;
use alloc::vec::Vec;

use crate::arena::{ListHead, NodeIdx, TimerArena};
use crate::counters::OpCounters;
use crate::handle::TimerHandle;
use crate::scheme::{DeadlinePeek, Expired, TimerScheme};
use crate::time::{Tick, TickDelta};
use crate::TimerError;

/// The reference implementation. See the [module docs](self).
pub struct OracleScheme<T> {
    now: Tick,
    by_deadline: BTreeMap<Tick, ListHead>,
    arena: TimerArena<T>,
    counters: OpCounters,
}

impl<T> OracleScheme<T> {
    /// Creates an empty oracle at time zero.
    #[must_use]
    pub fn new() -> OracleScheme<T> {
        OracleScheme {
            now: Tick::ZERO,
            by_deadline: BTreeMap::new(),
            arena: TimerArena::new(),
            counters: OpCounters::new(),
        }
    }

    /// The earliest outstanding deadline, if any (used by the event-driven
    /// time-flow mechanism of `tw-des`).
    #[must_use]
    pub fn next_deadline(&self) -> Option<Tick> {
        self.by_deadline.keys().next().copied()
    }
}

impl<T> DeadlinePeek for OracleScheme<T> {
    fn next_deadline(&self) -> Option<Tick> {
        self.by_deadline.keys().next().copied()
    }
}

impl<T> Default for OracleScheme<T> {
    fn default() -> Self {
        OracleScheme::new()
    }
}

impl<T> TimerScheme<T> for OracleScheme<T> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let (idx, handle) = self.arena.alloc(payload, deadline)?;
        let due = self.by_deadline.entry(deadline).or_default();
        self.arena.push_back(due, idx);
        self.counters.starts += 1;
        Ok(handle)
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let idx = self.arena.resolve(handle)?;
        let deadline = self.arena.node(idx).deadline;
        // resolve() succeeding proves the node is live, so its deadline
        // entry exists; treat a miss as a stale handle rather than panic.
        let Some(due) = self.by_deadline.get_mut(&deadline) else {
            return Err(TimerError::Stale);
        };
        self.arena.unlink(due, idx);
        if due.is_empty() {
            self.by_deadline.remove(&deadline);
        }
        self.counters.stops += 1;
        Ok(self.arena.free(idx))
    }

    fn restart_timer(
        &mut self,
        handle: TimerHandle,
        interval: TickDelta,
    ) -> Result<(), TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let new_deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let idx = self.arena.resolve(handle)?;
        let old_deadline = self.arena.node(idx).deadline;
        // Unlink from the old bucket; the node itself stays allocated, so
        // the client's handle (and its generation) remain valid throughout.
        let Some(due) = self.by_deadline.get_mut(&old_deadline) else {
            return Err(TimerError::Stale);
        };
        self.arena.unlink(due, idx);
        if due.is_empty() {
            self.by_deadline.remove(&old_deadline);
        }
        self.arena.node_mut(idx).deadline = new_deadline;
        // Relink at the new deadline, appending so the restart behaves like
        // a fresh start for FIFO purposes (same order every scheme's
        // update path must reproduce). Intrusive push_back never allocates,
        // keeping the update path a pure unlink + relink.
        let due = self.by_deadline.entry(new_deadline).or_default();
        self.arena.push_back(due, idx);
        self.counters.restarts += 1;
        Ok(())
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.now = self.now.next();
        self.counters.ticks += 1;
        if let Some(mut due) = self.by_deadline.remove(&self.now) {
            while let Some(idx) = self.arena.pop_front(&mut due) {
                let handle = self.arena.handle_of(idx);
                let deadline = self.arena.node(idx).deadline;
                let payload = self.arena.free(idx);
                self.counters.expiries += 1;
                expired(Expired {
                    handle,
                    payload,
                    deadline,
                    fired_at: self.now,
                });
            }
        }
    }

    fn advance_to_with(&mut self, deadline: Tick, expired: &mut dyn FnMut(Expired<T>)) {
        // Event-driven: jump to the tick before the earliest deadline key and
        // take one real tick there, so the oracle can follow a wheel's
        // jumping advance anywhere in the tick domain, `Tick::MAX` included.
        // tw-analyze: fact(loop_bounded, reason = "each round fires the whole bucket of the earliest deadline key or returns at the target, so rounds <= distinct expired deadlines + 1")
        while self.now < deadline {
            match self.by_deadline.keys().next() {
                Some(&due) if due <= deadline => {
                    let gap = due.since(self.now).as_u64() - 1;
                    self.counters.ticks += gap;
                    self.now = Tick(self.now.as_u64() + gap);
                    self.tick(expired);
                }
                _ => {
                    self.counters.ticks += deadline.since(self.now).as_u64();
                    self.now = deadline;
                }
            }
        }
    }

    fn now(&self) -> Tick {
        self.now
    }

    fn outstanding(&self) -> usize {
        self.arena.len()
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn set_arena_capacity(&mut self, limit: usize) -> bool {
        self.arena.set_capacity_limit(limit);
        true
    }

    fn name(&self) -> &'static str {
        "oracle(btreemap)"
    }
}

impl<T> crate::validate::InvariantCheck for OracleScheme<T> {
    /// Oracle invariants: every map entry is a strictly-future deadline with
    /// a non-empty list of live arena nodes carrying that same deadline, and
    /// the map accounts for every allocated node exactly once.
    fn check_invariants(&self) -> Result<(), crate::validate::InvariantViolation> {
        use crate::validate::InvariantViolation;
        let scheme = self.name();
        let fail = |detail: alloc::string::String| Err(InvariantViolation::new(scheme, detail));
        if let Err(detail) = self.arena.check_storage() {
            return fail(detail);
        }
        let mut total = 0usize;
        let mut seen: Vec<NodeIdx> = Vec::new();
        for (&deadline, due) in &self.by_deadline {
            if deadline <= self.now {
                return fail(alloc::format!(
                    "deadline {} is not in the future (now {})",
                    deadline.as_u64(),
                    self.now.as_u64()
                ));
            }
            if due.is_empty() {
                return fail(alloc::format!(
                    "empty bucket left behind for deadline {}",
                    deadline.as_u64()
                ));
            }
            let idxs = match self.arena.check_list(due) {
                Ok(idxs) => idxs,
                Err(detail) => return fail(detail),
            };
            for &idx in &idxs {
                if !self.arena.is_live(idx) {
                    return fail(alloc::format!(
                        "map references freed node under deadline {}",
                        deadline.as_u64()
                    ));
                }
                if self.arena.node(idx).deadline != deadline {
                    return fail(alloc::format!(
                        "node filed under {} carries deadline {}",
                        deadline.as_u64(),
                        self.arena.node(idx).deadline.as_u64()
                    ));
                }
                if seen.contains(&idx) {
                    return fail(alloc::string::String::from(
                        "node appears twice in the deadline map",
                    ));
                }
                seen.push(idx);
            }
            total += idxs.len();
        }
        if total != self.arena.len() {
            return fail(alloc::format!(
                "{total} nodes in the map but {} in the arena",
                self.arena.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::TimerSchemeExt;

    #[test]
    fn fires_at_exact_deadline() {
        let mut o: OracleScheme<&str> = OracleScheme::new();
        o.start_timer(TickDelta(3), "a").unwrap();
        o.start_timer(TickDelta(1), "b").unwrap();
        o.start_timer(TickDelta(3), "c").unwrap();
        let fired = o.collect_ticks(3);
        let tags: Vec<(&str, u64)> = fired
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        assert_eq!(tags, vec![("b", 1), ("a", 3), ("c", 3)]);
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn same_deadline_fifo_start_order() {
        let mut o: OracleScheme<u32> = OracleScheme::new();
        for i in 0..10 {
            o.start_timer(TickDelta(5), i).unwrap();
        }
        let fired = o.collect_ticks(5);
        let order: Vec<u32> = fired.iter().map(|e| e.payload).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stop_returns_payload_and_prevents_fire() {
        let mut o: OracleScheme<&str> = OracleScheme::new();
        let h = o.start_timer(TickDelta(2), "x").unwrap();
        assert_eq!(o.stop_timer(h), Ok("x"));
        assert_eq!(o.stop_timer(h), Err(TimerError::Stale));
        assert!(o.collect_ticks(4).is_empty());
    }

    #[test]
    fn zero_interval_rejected() {
        let mut o: OracleScheme<()> = OracleScheme::new();
        assert_eq!(
            o.start_timer(TickDelta::ZERO, ()),
            Err(TimerError::ZeroInterval)
        );
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut o: OracleScheme<u8> = OracleScheme::new();
        assert_eq!(o.next_deadline(), None);
        o.start_timer(TickDelta(9), 0).unwrap();
        let h = o.start_timer(TickDelta(4), 1).unwrap();
        assert_eq!(o.next_deadline(), Some(Tick(4)));
        o.stop_timer(h).unwrap();
        assert_eq!(o.next_deadline(), Some(Tick(9)));
    }

    #[test]
    fn counters_track_operations() {
        let mut o: OracleScheme<()> = OracleScheme::new();
        let h = o.start_timer(TickDelta(1), ()).unwrap();
        o.stop_timer(h).unwrap();
        o.start_timer(TickDelta(1), ()).unwrap();
        o.run_ticks(1);
        let c = o.counters();
        assert_eq!(c.starts, 2);
        assert_eq!(c.stops, 1);
        assert_eq!(c.ticks, 1);
        assert_eq!(c.expiries, 1);
        o.reset_counters();
        assert_eq!(o.counters().starts, 0);
    }

    #[test]
    fn restart_rearms_and_keeps_fifo_append_order() {
        let mut o: OracleScheme<&str> = OracleScheme::new();
        let h = o.start_timer(TickDelta(2), "moved").unwrap();
        o.start_timer(TickDelta(5), "fixed").unwrap();
        o.restart_timer(h, TickDelta(5)).unwrap();
        // The restarted timer appends behind the one already due at tick 5.
        let fired = o.collect_ticks(5);
        let order: Vec<&str> = fired.iter().map(|e| e.payload).collect();
        assert_eq!(order, vec!["fixed", "moved"]);
        assert_eq!(o.counters().restarts, 1);
    }

    #[test]
    fn restart_rejects_stale_and_zero_without_side_effects() {
        let mut o: OracleScheme<()> = OracleScheme::new();
        let h = o.start_timer(TickDelta(3), ()).unwrap();
        assert_eq!(
            o.restart_timer(h, TickDelta::ZERO),
            Err(TimerError::ZeroInterval)
        );
        crate::validate::InvariantCheck::check_invariants(&o).unwrap();
        assert_eq!(o.collect_ticks(3).len(), 1);
        assert_eq!(o.restart_timer(h, TickDelta(1)), Err(TimerError::Stale));
    }

    #[test]
    fn handles_stale_after_expiry() {
        let mut o: OracleScheme<()> = OracleScheme::new();
        let h = o.start_timer(TickDelta(1), ()).unwrap();
        o.run_ticks(1);
        assert_eq!(o.stop_timer(h), Err(TimerError::Stale));
    }
}
