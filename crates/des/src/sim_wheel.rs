//! The logic-simulation timing wheel of §4.2 / Figure 7 (TEGAS-2), with the
//! DECSIM half-rotation variant.
//!
//! Unlike Scheme 4, the conventional simulation wheel rotates once per
//! *cycle* (N ticks), not once per tick: an event is inserted directly only
//! if it falls within the current cycle; anything later goes to a single
//! overflow list that is rescanned when the wheel wraps. "A problem with
//! this implementation is that as time increases within a cycle … it
//! becomes more likely that event records will be inserted in the overflow
//! list. Other implementations \[DECSIM\] reduce (but do not completely
//! avoid) this effect by rotating the wheel half-way through the array."
//!
//! [`SimWheel`] implements both rotation policies behind the standard
//! [`TimerScheme`] interface, so the `fig7_simwheel` experiment can measure
//! the overflow-insertion fraction of each against Scheme 4's rolling
//! window — the quantitative version of the paper's critique.

use tw_core::arena::{ListHead, TimerArena};
use tw_core::counters::{OpCounters, VaxCostModel};
use tw_core::scheme::{Expired, TimerScheme};
use tw_core::time::ticks_of;
use tw_core::{Tick, TickDelta, TimerError, TimerHandle};

/// Bucket tag for timers parked on the overflow list.
const OVERFLOW_BUCKET: usize = usize::MAX;

/// When the wheel admits overflow events into the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationPolicy {
    /// Rescan the overflow list when the cursor wraps to slot 0 (TEGAS-2,
    /// Figure 7).
    #[default]
    OnWrap,
    /// Additionally rescan halfway through the array (DECSIM).
    Halfway,
}

/// The Figure 7 simulation wheel. See the [module docs](self).
pub struct SimWheel<T> {
    slots: Vec<ListHead>,
    now: Tick,
    /// Absolute tick below which events may be inserted directly into the
    /// array (the end of the admission window).
    window_end: u64,
    overflow: ListHead,
    policy: RotationPolicy,
    arena: TimerArena<T>,
    counters: OpCounters,
    cost: VaxCostModel,
    /// Starts that had to go to the overflow list (the §4.2 inefficiency).
    overflow_inserts: u64,
}

impl<T> SimWheel<T> {
    /// Creates a wheel with `cycle_len` slots and the given rotation policy.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_len < 2`.
    #[must_use]
    pub fn new(cycle_len: usize, policy: RotationPolicy) -> SimWheel<T> {
        assert!(cycle_len >= 2, "simulation wheel needs at least two slots");
        SimWheel {
            slots: (0..cycle_len).map(|_| ListHead::new()).collect(),
            now: Tick::ZERO,
            window_end: ticks_of(cycle_len),
            overflow: ListHead::new(),
            policy,
            arena: TimerArena::new(),
            counters: OpCounters::new(),
            cost: VaxCostModel::PAPER,
            overflow_inserts: 0,
        }
    }

    /// Number of events currently on the overflow list.
    #[must_use]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Total `start_timer` calls that landed on the overflow list.
    #[must_use]
    pub fn overflow_inserts(&self) -> u64 {
        self.overflow_inserts
    }

    fn enqueue_direct(&mut self, idx: tw_core::arena::NodeIdx, deadline: Tick) {
        let slot = deadline.slot_in(self.slots.len());
        self.arena.node_mut(idx).bucket = slot;
        self.arena.push_back(&mut self.slots[slot], idx);
    }

    /// Re-opens the admission window to `now + cycle_len` and admits every
    /// overflow event that now falls inside it.
    fn rotate(&mut self) {
        self.window_end = self.now.as_u64() + ticks_of(self.slots.len());
        let mut cur = self.overflow.first();
        // tw-analyze: fact(loop_bounded, reason = "walks the overflow list once per rotation; amortized over the rotation's slot-count ticks, each resident is examined once per revolution exactly as the section 4 overflow argument prices it")
        while let Some(idx) = cur {
            cur = self.arena.next(idx);
            self.counters.decrements += 1;
            self.counters.vax_instructions += self.cost.decrement_step;
            let deadline = self.arena.node(idx).deadline;
            debug_assert!(deadline >= self.now, "overflow event already due");
            if deadline.as_u64() < self.window_end {
                self.arena.unlink(&mut self.overflow, idx);
                self.enqueue_direct(idx, deadline);
                self.counters.migrations += 1;
                self.counters.vax_instructions += self.cost.insert;
            }
        }
    }
}

impl<T> TimerScheme<T> for SimWheel<T> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let (idx, handle) = self.arena.alloc(payload, deadline)?;
        if deadline.as_u64() < self.window_end {
            self.enqueue_direct(idx, deadline);
        } else {
            self.arena.node_mut(idx).bucket = OVERFLOW_BUCKET;
            self.arena.push_back(&mut self.overflow, idx);
            self.overflow_inserts += 1;
        }
        self.counters.starts += 1;
        self.counters.vax_instructions += self.cost.insert;
        Ok(handle)
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let idx = self.arena.resolve(handle)?;
        let bucket = self.arena.node(idx).bucket;
        if bucket == OVERFLOW_BUCKET {
            self.arena.unlink(&mut self.overflow, idx);
        } else {
            self.arena.unlink(&mut self.slots[bucket], idx);
        }
        self.counters.stops += 1;
        self.counters.vax_instructions += self.cost.delete;
        Ok(self.arena.free(idx))
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.now = self.now.next();
        self.counters.ticks += 1;
        self.counters.vax_instructions += self.cost.skip_empty;
        let n = ticks_of(self.slots.len());
        // Rotation points come *before* the flush so an event due exactly at
        // the cycle boundary is admitted into the slot about to be flushed:
        // cycle wrap (both policies) plus the halfway mark for DECSIM.
        let pos = self.now.as_u64() % n;
        if pos == 0 || (self.policy == RotationPolicy::Halfway && pos == n / 2) {
            self.rotate();
        }
        let cursor = self.now.slot_in(self.slots.len());
        if self.slots[cursor].is_empty() {
            self.counters.empty_slot_skips += 1;
        } else {
            self.counters.nonempty_slot_visits += 1;
            // tw-analyze: fact(loop_bounded, reason = "pops one expired timer per iteration from the flushed slot; the pop sits in a block the head-scan cannot see")
            while let Some(idx) = {
                let slot = &mut self.slots[cursor];
                self.arena.pop_front(slot)
            } {
                let handle = self.arena.handle_of(idx);
                let deadline = self.arena.node(idx).deadline;
                debug_assert_eq!(deadline, self.now, "sim wheel slot invariant violated");
                let payload = self.arena.free(idx);
                self.counters.expiries += 1;
                self.counters.vax_instructions += self.cost.expire;
                expired(Expired {
                    handle,
                    payload,
                    deadline,
                    fired_at: self.now,
                });
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

    fn name(&self) -> &'static str {
        match self.policy {
            RotationPolicy::OnWrap => "simwheel(tegas)",
            RotationPolicy::Halfway => "simwheel(decsim)",
        }
    }
}

impl<T> tw_core::validate::InvariantCheck for SimWheel<T> {
    /// Figure 7 resting-state invariants: slab storage integrity, intact
    /// slot and overflow lists, a live admission window (`now < window_end ≤
    /// now + N`), every array-resident event inside the window on its
    /// congruent slot (`deadline ≡ slot (mod N)`), every overflow event with
    /// a strictly-future deadline, and the lists together accounting for
    /// every allocated event.
    fn check_invariants(&self) -> Result<(), tw_core::validate::InvariantViolation> {
        use tw_core::validate::InvariantViolation;
        let scheme = self.name();
        let fail = |detail: String| Err(InvariantViolation::new(scheme, detail));
        if let Err(detail) = self.arena.check_storage() {
            return fail(detail);
        }
        let n = ticks_of(self.slots.len());
        let now = self.now.as_u64();
        if self.window_end <= now || self.window_end > now + n {
            return fail(format!(
                "admission window end {} outside (now {now}, now + {n}]",
                self.window_end
            ));
        }
        let mut linked = 0usize;
        for (slot, head) in self.slots.iter().enumerate() {
            let nodes = match self.arena.check_list(head) {
                Ok(nodes) => nodes,
                Err(detail) => return fail(format!("slot {slot}: {detail}")),
            };
            linked += nodes.len();
            for idx in nodes {
                let node = self.arena.node(idx);
                if node.bucket != slot {
                    return fail(format!("node in slot {slot} tagged bucket {}", node.bucket));
                }
                let deadline = node.deadline.as_u64();
                if deadline <= now || deadline >= self.window_end {
                    return fail(format!(
                        "array event deadline {deadline} outside (now {now}, window {})",
                        self.window_end
                    ));
                }
                if node.deadline.slot_in(self.slots.len()) != slot {
                    return fail(format!(
                        "deadline {deadline} not congruent to slot {slot} mod {n}"
                    ));
                }
            }
        }
        let overflow = match self.arena.check_list(&self.overflow) {
            Ok(nodes) => nodes,
            Err(detail) => return fail(format!("overflow list: {detail}")),
        };
        linked += overflow.len();
        for idx in overflow {
            let node = self.arena.node(idx);
            if node.bucket != OVERFLOW_BUCKET {
                return fail(format!(
                    "overflow node tagged bucket {} instead of the sentinel",
                    node.bucket
                ));
            }
            if node.deadline <= self.now {
                return fail(format!(
                    "overflow event deadline {} is not in the future (now {now})",
                    node.deadline.as_u64()
                ));
            }
        }
        if linked != self.arena.len() {
            return fail(format!(
                "{linked} events linked but {} outstanding",
                self.arena.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::TimerSchemeExt;

    #[test]
    fn fires_at_exact_deadlines() {
        let mut w: SimWheel<u64> = SimWheel::new(8, RotationPolicy::OnWrap);
        for &j in &[1u64, 7, 8, 9, 30, 64] {
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let fired = w.collect_ticks(64);
        let got: Vec<(u64, u64)> = fired
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        assert_eq!(
            got,
            vec![(1, 1), (7, 7), (8, 8), (9, 9), (30, 30), (64, 64)]
        );
    }

    #[test]
    fn late_in_cycle_inserts_overflow_even_for_near_events() {
        // The §4.2 critique: at tick 6 of an 8-cycle, an event 3 ticks away
        // (deadline 9) crosses the cycle boundary and must overflow, even
        // though Scheme 4 would take it directly.
        let mut w: SimWheel<()> = SimWheel::new(8, RotationPolicy::OnWrap);
        w.run_ticks(6);
        w.start_timer(TickDelta(3), ()).unwrap();
        assert_eq!(w.overflow_inserts(), 1);
        assert_eq!(w.overflow_len(), 1);
        // It still fires exactly, after the wrap admits it.
        let fired = w.collect_ticks(3);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(9));
    }

    #[test]
    fn halfway_rotation_admits_more_directly() {
        // Same scenario: DECSIM re-opens the window at slot 4, so at tick 6
        // the window extends to 8+4=12 and deadline 9 inserts directly.
        let mut w: SimWheel<()> = SimWheel::new(8, RotationPolicy::Halfway);
        w.run_ticks(6);
        w.start_timer(TickDelta(3), ()).unwrap();
        assert_eq!(w.overflow_inserts(), 0);
        let fired = w.collect_ticks(3);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(9));
    }

    #[test]
    fn overflow_fraction_ordering_tegas_vs_decsim() {
        // Uniformly arriving events with intervals up to one cycle: TEGAS
        // overflows more often than DECSIM; neither avoids it entirely.
        let run = |policy| {
            let mut w: SimWheel<()> = SimWheel::new(16, policy);
            let mut x = 77u64;
            for _ in 0..2_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = x % 15 + 1;
                w.start_timer(TickDelta(j), ()).unwrap();
                w.run_ticks(1);
            }
            w.run_ticks(64);
            assert_eq!(w.outstanding(), 0, "all events must fire");
            w.overflow_inserts()
        };
        let tegas = run(RotationPolicy::OnWrap);
        let decsim = run(RotationPolicy::Halfway);
        assert!(tegas > decsim, "tegas {tegas} vs decsim {decsim}");
        assert!(decsim > 0, "halfway rotation reduces but does not avoid");
    }

    #[test]
    fn far_future_events_wait_across_many_cycles() {
        let mut w: SimWheel<u64> = SimWheel::new(4, RotationPolicy::OnWrap);
        w.start_timer(TickDelta(100), 100).unwrap();
        assert_eq!(w.overflow_len(), 1);
        let fired = w.collect_ticks(100);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(100));
        assert_eq!(fired[0].error(), 0);
    }

    #[test]
    fn stop_from_array_and_overflow() {
        let mut w: SimWheel<u64> = SimWheel::new(8, RotationPolicy::OnWrap);
        let a = w.start_timer(TickDelta(2), 1).unwrap();
        let b = w.start_timer(TickDelta(50), 2).unwrap();
        assert_eq!(w.stop_timer(a), Ok(1));
        assert_eq!(w.stop_timer(b), Ok(2));
        assert!(w.collect_ticks(60).is_empty());
        assert_eq!(w.stop_timer(a), Err(TimerError::Stale));
    }
}
