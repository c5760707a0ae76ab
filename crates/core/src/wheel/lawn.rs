//! Scheme 8 — the Lawn: one append-ordered FIFO bucket per distinct TTL
//! (Lev-Libfeld, "Lawn: an Unbound Low Latency Timer Data Structure",
//! PAPERS.md).
//!
//! The paper's Schemes 6–7 optimize for *arbitrary* intervals; the workload
//! that dominates session/TTL stores is the opposite — a handful of distinct
//! intervals shared by millions of timers. The Lawn exploits that skew with
//! a trivial invariant: all timers in a bucket share one TTL, and a timer
//! started later has a later (or equal) deadline, so **appending to the
//! bucket tail keeps every bucket sorted for free** and the bucket *head* is
//! always that TTL's next timer to expire.
//!
//! * `START_TIMER` — index the TTL's bucket, append to its tail: O(1), no
//!   hashing, no per-level cascade.
//! * `STOP_TIMER` / UPDATE — generational handle → arena node → unlink
//!   (+ relink for a restart): O(1).
//! * `PER_TICK_BOOKKEEPING` — inspect only the *head* of each non-empty
//!   bucket: O(distinct_ttls + expired) per tick, independent of the number
//!   of live timers. The non-empty buckets are themselves threaded on an
//!   intrusive doubly-linked "active" list, so a tick never scans the
//!   (potentially huge) array of idle TTL buckets.
//!
//! Scheme 7 pays O(levels) per start and migrates timers between levels as
//! they age; the Lawn pays nothing per start and never moves a timer — but
//! its per-tick work grows with the number of *distinct* TTLs, so it wins
//! exactly when `distinct_ttls ≪ n / levels`-ish, i.e. the million-session
//! few-TTLs regime the `lawn_scale` benchmark measures.
//!
//! # Within-bucket order is an invariant, not a sort
//!
//! For a fixed TTL `j`, a timer started (or restarted) at time `s` has
//! deadline `s + j`. Starts happen at non-decreasing `now`, so appends carry
//! non-decreasing deadlines; a restart rewrites the deadline to `now + j'`,
//! which is ≥ every deadline already in bucket `j'` (all inserted at times
//! ≤ now). The invariant checker verifies this ordering on every
//! [`Checked`](crate::validate::Checked) operation.

use alloc::vec::Vec;

use crate::arena::{ListHead, TimerArena};
use crate::counters::{OpCounters, VaxCostModel};
use crate::handle::TimerHandle;
use crate::scheme::{Expired, TimerScheme};
use crate::time::{slot_index, Tick, TickDelta};
use crate::wheel::config::OverflowPolicy;
use crate::TimerError;

/// Sentinel bucket index meaning "not on the active list".
const NONE: usize = usize::MAX;

/// Scheme 8: per-TTL append-ordered buckets ("the Lawn").
/// See the [module docs](self).
///
/// # Examples
///
/// ```
/// use tw_core::wheel::LawnWheel;
/// use tw_core::{TickDelta, TimerScheme, TimerSchemeExt};
///
/// // A lawn accepting TTLs of 1..=128 ticks.
/// let mut lawn: LawnWheel<u32> = LawnWheel::new(128);
/// lawn.start_timer(TickDelta(30), 1).unwrap();
/// lawn.start_timer(TickDelta(30), 2).unwrap();
/// lawn.start_timer(TickDelta(3), 3).unwrap();
/// assert_eq!(lawn.collect_ticks(3)[0].payload, 3);
/// // Same TTL ⇒ FIFO: 1 was started first and fires first.
/// assert_eq!(
///     lawn.collect_ticks(27).iter().map(|e| e.payload).collect::<Vec<_>>(),
///     vec![1, 2]
/// );
/// ```
pub struct LawnWheel<T> {
    /// One FIFO bucket per distinct TTL; bucket `i` holds TTL `i + 1`.
    buckets: Vec<ListHead>,
    /// Intrusive doubly-linked list threading the *non-empty* buckets, so
    /// `PER_TICK` visits exactly the distinct live TTLs and never scans the
    /// idle ones. `NONE` is the sentinel; a bucket is on the list iff it is
    /// non-empty.
    active_next: Vec<usize>,
    active_prev: Vec<usize>,
    active_head: usize,
    /// Number of buckets on the active list (= distinct live TTLs).
    active_len: usize,
    now: Tick,
    arena: TimerArena<T>,
    overflow_policy: OverflowPolicy,
    counters: OpCounters,
    cost: VaxCostModel,
}

impl<T> LawnWheel<T> {
    /// Creates a lawn accepting TTLs of `1..=max_interval` ticks, rejecting
    /// longer ones ([`OverflowPolicy::Reject`]).
    ///
    /// Memory is one bucket head per *representable* TTL (`max_interval`
    /// heads), allocated up front; timers themselves live in the shared
    /// arena. Choose `max_interval` as the largest TTL the deployment uses,
    /// not the largest imaginable.
    ///
    /// # Panics
    ///
    /// Panics if `max_interval` is zero.
    #[must_use]
    pub fn new(max_interval: usize) -> LawnWheel<T> {
        LawnWheel::build(max_interval, OverflowPolicy::Reject)
    }

    /// Shared constructor body; `WheelConfig::make_lawn` routes here after
    /// validating the policy (the lawn has no overflow list, so
    /// [`OverflowPolicy::OverflowList`] is refused at build time).
    pub(crate) fn build(max_interval: usize, overflow_policy: OverflowPolicy) -> LawnWheel<T> {
        assert!(max_interval > 0, "lawn needs at least one TTL bucket");
        LawnWheel {
            buckets: (0..max_interval).map(|_| ListHead::new()).collect(),
            active_next: alloc::vec![NONE; max_interval],
            active_prev: alloc::vec![NONE; max_interval],
            active_head: NONE,
            active_len: 0,
            now: Tick::ZERO,
            arena: TimerArena::new(),
            overflow_policy,
            counters: OpCounters::new(),
            cost: VaxCostModel::PAPER,
        }
    }

    /// The largest TTL this lawn accepts.
    #[must_use]
    pub fn max_interval(&self) -> TickDelta {
        TickDelta(crate::time::ticks_of(self.buckets.len()))
    }

    /// Number of distinct TTLs with at least one live timer — the per-tick
    /// inspection cost.
    #[must_use]
    pub fn distinct_ttls(&self) -> usize {
        self.active_len
    }

    /// Slab slots ever allocated (memory high-water mark in records); see
    /// [`TimerArena::slot_count`](crate::arena::TimerArena::slot_count).
    #[must_use]
    pub fn arena_slots(&self) -> usize {
        self.arena.slot_count()
    }

    /// Number of timers currently in the bucket for `ttl` (test/experiment
    /// introspection). Returns 0 for TTLs beyond `max_interval`.
    #[must_use]
    pub fn bucket_len(&self, ttl: TickDelta) -> usize {
        let b = slot_index(ttl.as_u64().wrapping_sub(1));
        self.buckets.get(b).map_or(0, ListHead::len)
    }

    /// Threads bucket `b` onto the active list (front push; tick order over
    /// buckets is unspecified, only within-bucket order matters).
    fn activate(&mut self, b: usize) {
        self.active_prev[b] = NONE;
        self.active_next[b] = self.active_head;
        if self.active_head != NONE {
            self.active_prev[self.active_head] = b;
        }
        self.active_head = b;
        self.active_len += 1;
    }

    /// Unthreads bucket `b` from the active list.
    fn deactivate(&mut self, b: usize) {
        let (prev, next) = (self.active_prev[b], self.active_next[b]);
        if prev == NONE {
            self.active_head = next;
        } else {
            self.active_next[prev] = next;
        }
        if next != NONE {
            self.active_prev[next] = prev;
        }
        self.active_prev[b] = NONE;
        self.active_next[b] = NONE;
        self.active_len -= 1;
    }

    /// Applies the overflow policy to an over-range interval; in-range
    /// intervals pass through untouched.
    fn admit(&self, interval: TickDelta) -> Result<TickDelta, TimerError> {
        let max = self.max_interval();
        if interval <= max {
            return Ok(interval);
        }
        match self.overflow_policy.apply(max)? {
            Some(clamped) => Ok(clamped),
            // `OverflowList` is refused at build time (the lawn has no
            // overflow list), so an over-range interval that survives
            // `apply` has nowhere to go: refuse it like `Reject` would.
            None => Err(TimerError::IntervalOutOfRange { max }),
        }
    }
}

impl<T> TimerScheme<T> for LawnWheel<T> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let interval = self.admit(interval)?;
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        // Bucket index = TTL - 1; `admit` bounded the TTL by the bucket
        // count, so the widening is lossless.
        let b = slot_index(interval.as_u64() - 1);
        let (idx, handle) = self.arena.alloc(payload, deadline)?;
        {
            let node = self.arena.node_mut(idx);
            node.aux = interval.as_u64();
            node.bucket = b;
        }
        let was_empty = self.buckets[b].is_empty();
        self.arena.push_back(&mut self.buckets[b], idx);
        if was_empty {
            self.activate(b);
        }
        self.counters.starts += 1;
        self.counters.vax_instructions += self.cost.insert;
        Ok(handle)
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let idx = self.arena.resolve(handle)?;
        let b = self.arena.node(idx).bucket;
        self.arena.unlink(&mut self.buckets[b], idx);
        if self.buckets[b].is_empty() {
            self.deactivate(b);
        }
        self.counters.stops += 1;
        self.counters.vax_instructions += self.cost.delete;
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
        let interval = self.admit(interval)?;
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let idx = self.arena.resolve(handle)?;
        // All validation passed — from here the restart cannot fail. Pure
        // unlink + relink: the node never touches the free list, so the
        // client's handle (and its generation) stay valid. The new deadline
        // `now + interval` is ≥ every deadline already in the target bucket
        // (all appended at times ≤ now), so the tail append preserves the
        // sorted-by-construction invariant.
        let old = self.arena.node(idx).bucket;
        self.arena.unlink(&mut self.buckets[old], idx);
        if self.buckets[old].is_empty() {
            self.deactivate(old);
        }
        let b = slot_index(interval.as_u64() - 1);
        {
            let node = self.arena.node_mut(idx);
            node.deadline = deadline;
            node.aux = interval.as_u64();
            node.bucket = b;
        }
        let was_empty = self.buckets[b].is_empty();
        self.arena.push_back(&mut self.buckets[b], idx);
        if was_empty {
            self.activate(b);
        }
        self.counters.restarts += 1;
        // Modeled as one §7 delete followed by one insert, matching the
        // unlink+relink the update actually performs.
        self.counters.vax_instructions += self.cost.delete + self.cost.insert;
        Ok(())
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.now = self.now.next();
        self.counters.ticks += 1;
        // §7-style fixed overhead for advancing the clock, empty or not.
        self.counters.vax_instructions += self.cost.skip_empty;
        if self.active_head == NONE {
            self.counters.empty_slot_skips += 1;
            return;
        }
        let mut b = self.active_head;
        // tw-analyze: fact(loop_bounded, reason = "walks the active-bucket list: one iteration per distinct live TTL, never per timer — the Lawn's O(distinct_ttls + expired) PER_TICK contract; each visit is charged to nonempty_slot_visits")
        while b != NONE {
            // Grab the successor first: expiring this bucket's last timer
            // unthreads it from the active list.
            let next_bucket = self.active_next[b];
            self.counters.nonempty_slot_visits += 1;
            // Not a `while let`: the head probe and the due check break at
            // different points, and the fact below must sit on the loop line.
            #[allow(clippy::while_let_loop)]
            // tw-analyze: fact(loop_bounded, reason = "pops due heads only: within a bucket deadlines are non-decreasing by construction, so the loop runs once per expired timer plus one final head inspection, charged to decrements")
            loop {
                // tw-analyze: fact(slot_bounded, reason = "b walks the active list; activate() only ever threads bucket indices derived from slot_index(ttl - 1) at start/restart, all < buckets.len()")
                let Some(idx) = self.buckets[b].first() else {
                    break;
                };
                self.counters.decrements += 1;
                self.counters.vax_instructions += self.cost.decrement_step;
                if self.arena.node(idx).deadline != self.now {
                    debug_assert!(
                        self.arena.node(idx).deadline > self.now,
                        "scheme 8 head deadline behind the clock"
                    );
                    break;
                }
                // tw-analyze: fact(slot_bounded, reason = "same active-list bucket index as the head probe above")
                self.arena.unlink(&mut self.buckets[b], idx);
                let handle = self.arena.handle_of(idx);
                let deadline = self.arena.node(idx).deadline;
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
            // tw-analyze: fact(slot_bounded, reason = "same active-list bucket index as the head probe above")
            if self.buckets[b].is_empty() {
                self.deactivate(b);
            }
            b = next_bucket;
        }
    }

    fn advance_to_with(&mut self, deadline: Tick, expired: &mut dyn FnMut(Expired<T>)) {
        // Event-driven fast path (no feature gate: the active list is the
        // lawn's native index). Each round scans the O(distinct_ttls) bucket
        // heads for the earliest pending deadline and jumps the clock
        // straight to it — idle ticks cost nothing, which is what makes the
        // lawn drainable at the million-timer scale.
        // tw-analyze: fact(loop_bounded, reason = "each round either fires at least one timer at the jumped-to tick (every tick() at a minimum-head deadline expires that head) or returns at the target, so rounds ≤ expired + 1")
        while self.now < deadline {
            let mut earliest = None;
            let mut b = self.active_head;
            // tw-analyze: fact(loop_bounded, reason = "scans one head per distinct live TTL on the active-bucket list, the same O(distinct_ttls) walk tick() performs")
            while b != NONE {
                // tw-analyze: fact(slot_bounded, reason = "b walks the active list; activate() only ever threads bucket indices derived from slot_index(ttl - 1) at start/restart, all < buckets.len()")
                if let Some(idx) = self.buckets[b].first() {
                    let d = self.arena.node(idx).deadline;
                    self.counters.decrements += 1;
                    self.counters.vax_instructions += self.cost.decrement_step;
                    if earliest.map_or(true, |e| d < e) {
                        earliest = Some(d);
                    }
                }
                b = self.active_next[b];
            }
            match earliest {
                Some(d) if d <= deadline => {
                    // Jump to the tick before the event, then take a real
                    // tick so the expiry bookkeeping stays in one place.
                    let gap = d.since(self.now).as_u64() - 1;
                    self.counters.ticks += gap;
                    self.now = Tick(self.now.as_u64() + gap);
                    self.tick(expired);
                }
                _ => {
                    // Nothing due inside the window: absorb the idle ticks.
                    self.counters.ticks += deadline.since(self.now).as_u64();
                    self.now = deadline;
                    return;
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
        "scheme8(lawn)"
    }
}

impl<T> crate::validate::InvariantCheck for LawnWheel<T> {
    /// Scheme 8 resting-state invariants: per-bucket list integrity; every
    /// resident tagged with its bucket and carrying `aux = TTL = bucket + 1`;
    /// within-bucket deadlines non-decreasing (the sorted-by-construction
    /// argument) and strictly in the future, with
    /// `now < deadline ≤ now + TTL`; the active list threading exactly the
    /// non-empty buckets with consistent prev/next links; and the linked
    /// population equal to `outstanding`.
    fn check_invariants(&self) -> Result<(), crate::validate::InvariantViolation> {
        use crate::validate::InvariantViolation;
        let scheme = self.name();
        let fail = |detail: alloc::string::String| Err(InvariantViolation::new(scheme, detail));
        if let Err(detail) = self.arena.check_storage() {
            return fail(detail);
        }
        let now = self.now.as_u64();
        let mut linked = 0usize;
        let mut nonempty = 0usize;
        for (b, list) in self.buckets.iter().enumerate() {
            let nodes = match self.arena.check_list(list) {
                Ok(nodes) => nodes,
                Err(detail) => return fail(alloc::format!("bucket {b}: {detail}")),
            };
            let ttl = crate::time::ticks_of(b) + 1;
            let on_list = self.active_prev[b] != NONE || self.active_head == b;
            if nodes.is_empty() == on_list {
                return fail(alloc::format!(
                    "bucket {b} (len {}) active-list membership is {on_list}",
                    nodes.len()
                ));
            }
            if !nodes.is_empty() {
                nonempty += 1;
            }
            linked += nodes.len();
            let mut prev_deadline = 0u64;
            for idx in nodes {
                let node = self.arena.node(idx);
                let deadline = node.deadline.as_u64();
                if node.bucket != b {
                    return fail(alloc::format!(
                        "node in bucket {b} tagged bucket {}",
                        node.bucket
                    ));
                }
                if node.aux != ttl {
                    return fail(alloc::format!(
                        "node in bucket {b} carries TTL {} (want {ttl})",
                        node.aux
                    ));
                }
                if deadline <= now || deadline - now > ttl {
                    return fail(alloc::format!(
                        "bucket {b}: deadline {deadline} outside (now {now}, now + {ttl}]"
                    ));
                }
                if deadline < prev_deadline {
                    return fail(alloc::format!(
                        "bucket {b} deadlines out of order: {deadline} after {prev_deadline}"
                    ));
                }
                prev_deadline = deadline;
            }
        }
        if nonempty != self.active_len {
            return fail(alloc::format!(
                "{nonempty} non-empty buckets but active_len {}",
                self.active_len
            ));
        }
        // Walk the active list forward, checking link symmetry and that it
        // reaches exactly the non-empty buckets.
        let mut seen = 0usize;
        let mut b = self.active_head;
        let mut prev = NONE;
        while b != NONE {
            seen += 1;
            if seen > self.active_len {
                return fail(alloc::string::String::from(
                    "active list longer than active_len (cycle?)",
                ));
            }
            if self.active_prev[b] != prev {
                return fail(alloc::format!(
                    "active list prev link of bucket {b} is {} (want {prev})",
                    self.active_prev[b]
                ));
            }
            // tw-analyze: fact(slot_bounded, reason = "b walks the active list under check; membership of every link in 0..buckets.len() is exactly what this sweep verifies, failing softly on breakage")
            if self.buckets[b].is_empty() {
                return fail(alloc::format!("empty bucket {b} on the active list"));
            }
            prev = b;
            b = self.active_next[b];
        }
        if seen != self.active_len {
            return fail(alloc::format!(
                "active list reaches {seen} buckets but active_len is {}",
                self.active_len
            ));
        }
        if linked != self.arena.len() {
            return fail(alloc::format!(
                "{linked} nodes on lists but {} outstanding",
                self.arena.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
// Test payloads use small counters; the narrowing casts cannot truncate.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::scheme::TimerSchemeExt;
    use crate::validate::{Checked, InvariantCheck};

    #[test]
    fn fires_at_exact_deadline_across_ttls() {
        let mut w: LawnWheel<u64> = LawnWheel::new(128);
        for &j in &[1u64, 2, 7, 30, 30, 100, 128] {
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let fired = w.collect_ticks(128);
        for e in &fired {
            assert_eq!(e.fired_at.as_u64(), e.payload, "TTL {} misfired", e.payload);
            assert_eq!(e.error(), 0);
        }
        assert_eq!(fired.len(), 7);
        w.check_invariants().unwrap();
    }

    #[test]
    fn same_ttl_fires_in_start_order() {
        let mut w: LawnWheel<u32> = LawnWheel::new(16);
        w.start_timer(TickDelta(5), 1).unwrap();
        w.run_ticks(1);
        w.start_timer(TickDelta(5), 2).unwrap();
        w.run_ticks(1);
        w.start_timer(TickDelta(5), 3).unwrap();
        let fired = w.collect_ticks(10);
        let got: Vec<(u32, u64)> = fired
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        assert_eq!(got, vec![(1, 5), (2, 6), (3, 7)]);
    }

    #[test]
    fn per_tick_work_tracks_distinct_ttls_not_population() {
        // 1000 timers over 4 distinct TTLs: a tick inspects 4 heads, not
        // 1000 timers — the Lawn's whole reason to exist.
        let mut w: LawnWheel<()> = LawnWheel::new(64);
        for i in 0..1000u64 {
            let ttl = [10u64, 20, 30, 40][usize::try_from(i % 4).unwrap()];
            w.start_timer(TickDelta(ttl), ()).unwrap();
        }
        assert_eq!(w.distinct_ttls(), 4);
        w.reset_counters();
        w.run_ticks(5); // before anything is due
        let c = w.counters();
        assert_eq!(c.expiries, 0);
        assert_eq!(c.nonempty_slot_visits, 4 * 5);
        assert_eq!(c.decrements, 4 * 5, "one head inspection per live TTL");
    }

    #[test]
    fn stop_timer_is_constant_work_and_deactivates_buckets() {
        let mut w: LawnWheel<u32> = LawnWheel::new(256);
        let handles: Vec<_> = (0..100)
            .map(|i| w.start_timer(TickDelta(200), i).unwrap())
            .collect();
        assert_eq!(w.distinct_ttls(), 1);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(w.stop_timer(h), Ok(i as u32));
        }
        assert_eq!(w.distinct_ttls(), 0);
        assert_eq!(w.outstanding(), 0);
        assert!(w.collect_ticks(300).is_empty());
        w.check_invariants().unwrap();
    }

    #[test]
    fn restart_rearms_to_a_new_ttl_with_the_same_handle() {
        let mut w: LawnWheel<&str> = LawnWheel::new(64);
        let h = w.start_timer(TickDelta(3), "x").unwrap();
        w.restart_timer(h, TickDelta(20)).unwrap();
        assert!(w.collect_ticks(3).is_empty());
        let fired = w.collect_ticks(17);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(20));
        assert_eq!(fired[0].handle, h);
        assert_eq!(w.counters().restarts, 1);
        w.check_invariants().unwrap();
    }

    #[test]
    fn restart_to_earlier_deadline_crosses_buckets() {
        let mut w: LawnWheel<()> = LawnWheel::new(64);
        let h = w.start_timer(TickDelta(50), ()).unwrap();
        w.restart_timer(h, TickDelta(1)).unwrap();
        assert_eq!(w.bucket_len(TickDelta(50)), 0);
        assert_eq!(w.bucket_len(TickDelta(1)), 1);
        let fired = w.collect_ticks(1);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(1));
        w.check_invariants().unwrap();
    }

    #[test]
    fn failed_restart_leaves_the_timer_armed() {
        let mut w: LawnWheel<()> = LawnWheel::new(8);
        let h = w.start_timer(TickDelta(4), ()).unwrap();
        assert_eq!(
            w.restart_timer(h, TickDelta::ZERO),
            Err(TimerError::ZeroInterval)
        );
        assert_eq!(
            w.restart_timer(h, TickDelta(9)),
            Err(TimerError::IntervalOutOfRange { max: TickDelta(8) })
        );
        w.check_invariants().unwrap();
        let fired = w.collect_ticks(4);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(4));
        // After firing the handle's generation is dead: restart must report
        // staleness, never relink a freed node.
        assert_eq!(w.restart_timer(h, TickDelta(1)), Err(TimerError::Stale));
    }

    #[test]
    fn zero_and_overrange_intervals_rejected() {
        let mut w: LawnWheel<()> = LawnWheel::new(8);
        assert_eq!(
            w.start_timer(TickDelta::ZERO, ()),
            Err(TimerError::ZeroInterval)
        );
        assert_eq!(
            w.start_timer(TickDelta(9), ()),
            Err(TimerError::IntervalOutOfRange { max: TickDelta(8) })
        );
    }

    #[test]
    fn cap_policy_clamps_overrange_ttls() {
        let mut w: LawnWheel<()> = LawnWheel::build(8, OverflowPolicy::Cap);
        w.start_timer(TickDelta(1_000_000), ()).unwrap();
        assert_eq!(w.bucket_len(TickDelta(8)), 1);
        let fired = w.collect_ticks(8);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(8));
    }

    #[test]
    fn full_arena_rejects_cleanly_and_recovers_after_stop() {
        // The scheme-level face of the TimerArena::alloc bugfix: at the
        // capacity limit START degrades to TimerError::Exhausted and
        // recovers as soon as a record frees.
        let mut w: LawnWheel<u32> = LawnWheel::new(16);
        w.set_arena_capacity(2);
        let h1 = w.start_timer(TickDelta(5), 1).unwrap();
        let _h2 = w.start_timer(TickDelta(5), 2).unwrap();
        assert_eq!(w.start_timer(TickDelta(5), 3), Err(TimerError::Exhausted));
        assert_eq!(w.outstanding(), 2);
        // A failed start must not perturb the structure.
        w.check_invariants().unwrap();
        assert_eq!(w.stop_timer(h1), Ok(1));
        let h4 = w.start_timer(TickDelta(5), 4).unwrap();
        assert_eq!(w.outstanding(), 2);
        // The stale handle stays dead even though its slot was recycled.
        assert_eq!(w.stop_timer(h1), Err(TimerError::Stale));
        // Expiry also frees capacity.
        let fired = w.collect_ticks(5);
        assert_eq!(fired.len(), 2);
        assert!(fired.iter().any(|e| e.handle == h4));
        w.start_timer(TickDelta(5), 5).unwrap();
        w.check_invariants().unwrap();
    }

    #[test]
    fn advance_jumps_idle_stretches_without_head_scans_per_tick() {
        let mut w: LawnWheel<u64> = LawnWheel::new(100_000);
        w.start_timer(TickDelta(90_000), 1).unwrap();
        w.start_timer(TickDelta(90_000), 2).unwrap();
        w.reset_counters();
        let mut fired = Vec::new();
        w.advance_to_with(Tick(100_000), &mut |e| fired.push(e.payload));
        assert_eq!(fired, vec![1, 2]);
        let c = w.counters();
        assert_eq!(c.ticks, 100_000, "clock accounts for every elapsed tick");
        // Two rounds (one firing, one final idle stretch): head scans stay
        // O(rounds · distinct_ttls), nowhere near 100k.
        assert!(c.decrements < 20, "got {} head inspections", c.decrements);
        assert_eq!(w.now(), Tick(100_000));
        w.check_invariants().unwrap();
    }

    #[test]
    fn slot_count_plateaus_under_churn() {
        let mut w: LawnWheel<()> = LawnWheel::new(8);
        for _ in 0..10_000u32 {
            w.start_timer(TickDelta(2), ()).unwrap();
            w.run_ticks(2);
        }
        assert!(
            w.arena_slots() <= 2,
            "churn leaked slots: {}",
            w.arena_slots()
        );
    }

    #[test]
    fn checked_lawn_revalidates_after_every_operation() {
        // Loom-free smoke test: the Checked harness re-runs the full
        // invariant sweep after each mutating call.
        let mut w: Checked<LawnWheel<u32>> = Checked::new(LawnWheel::new(32));
        let h = w.start_timer(TickDelta(7), 1).unwrap();
        w.start_timer(TickDelta(7), 2).unwrap();
        w.start_timer(TickDelta(3), 3).unwrap();
        w.restart_timer(h, TickDelta(12)).unwrap();
        assert_eq!(w.collect_ticks(3).len(), 1);
        assert_eq!(w.collect_ticks(9).len(), 2);
        assert_eq!(w.outstanding(), 0);
    }
}
