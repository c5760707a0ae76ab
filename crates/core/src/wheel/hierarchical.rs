//! Scheme 7 — hierarchical timing wheels (§6.2, Figures 10–11).
//!
//! A number of wheels of different granularities span a large interval range
//! with few slots: the paper's example uses 60 seconds + 60 minutes +
//! 24 hours + 100 days = 244 slots to cover 8.64 million ticks. A timer is
//! inserted into a coarse wheel and *migrates* toward finer wheels as its
//! expiry approaches, finally firing from the finest wheel at its exact
//! deadline.
//!
//! Two orthogonal design choices from §6.2 are exposed:
//!
//! * [`InsertRule`] — where a new timer is placed. `Digit` (default)
//!   reproduces the paper's worked example: the timer goes to the *highest*
//!   level at which the expiry time's mixed-radix digit differs from the
//!   current time's (the 50 m 45 s timer of Figure 10 lands in the *hour*
//!   array even though 50 m 45 s < 1 hour, because the hour digit changes
//!   from 10 to 11). `Covering` places it at the *lowest* level whose range
//!   covers the remaining interval, exploiting wrap-around to skip
//!   migrations — the variant used by modern implementations; the
//!   `ablation_insert_rule` bench quantifies the difference.
//! * [`MigrationPolicy`] — `Full` migrates to exactness; `None` and `Single`
//!   implement Wick Nichols' precision-for-work trade (§6.2): round the
//!   deadline to the insertion level's granularity and fire without (or with
//!   exactly one) migration.
//!
//! The per-level update timers of the paper ("there will always be a
//! 60 second timer that is used to update the minute array") are realized by
//! advancing each level's cursor whenever the clock crosses a multiple of
//! its granularity — the same schedule, without the self-referential timer
//! records (DESIGN.md, "Scheme 7 cascading"). The sibling
//! [`ClockworkWheel`](crate::wheel::ClockworkWheel) implements the literal
//! update-timer mechanism instead; a property test proves the two
//! observationally identical.

use alloc::vec::Vec;

use crate::arena::{ListHead, NodeIdx, SlotList, TimerArena};
use crate::bitmap::SlotBitmap;
use crate::counters::{OpCounters, VaxCostModel};
use crate::handle::TimerHandle;
use crate::scheme::{Expired, TimerScheme};
use crate::time::{slot_index, ticks_of, Tick, TickDelta};
use crate::wheel::config::{LevelSizes, MigrationPolicy, OverflowPolicy};
use crate::TimerError;

/// Bucket tag for timers parked on the overflow list.
const OVERFLOW_BUCKET: usize = usize::MAX;

/// Where a new timer is inserted into the hierarchy. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertRule {
    /// The paper's rule: highest level whose mixed-radix digit of the expiry
    /// time differs from the current time's.
    #[default]
    Digit,
    /// Lowest level whose range covers the remaining interval (modern
    /// wrap-around placement; fewer migrations).
    Covering,
}

struct Level {
    /// Unordered two-chain slots: a cascade drains a slot with two pointer
    /// chases in flight (see [`SlotList`]).
    slots: Vec<SlotList>,
    /// Two-tier slot-occupancy bitmap for this level (zero-sized no-op
    /// without the `bitmap-cursor` feature); bit set ⇔ slot list non-empty.
    occupancy: SlotBitmap,
    granularity: u64,
    size: u64,
    base: usize,
}

/// Scheme 7: a hierarchy of timing wheels. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use tw_core::wheel::{HierarchicalWheel, LevelSizes};
/// use tw_core::{TickDelta, TimerScheme, TimerSchemeExt};
///
/// // The paper's clock: 60 s, 60 m, 24 h, 100 d in 244 slots.
/// let mut wheel: HierarchicalWheel<&str> = HierarchicalWheel::new(LevelSizes::clock());
/// wheel.start_timer(TickDelta(3_045), "50m45s").unwrap(); // 50 min 45 s
/// let fired = wheel.collect_ticks(3_045);
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].error(), 0);
/// ```
pub struct HierarchicalWheel<T> {
    levels: Vec<Level>,
    now: Tick,
    range: u64,
    arena: TimerArena<T>,
    overflow: ListHead,
    overflow_policy: OverflowPolicy,
    migration_policy: MigrationPolicy,
    insert_rule: InsertRule,
    counters: OpCounters,
    cost: VaxCostModel,
}

impl<T> HierarchicalWheel<T> {
    /// Creates a hierarchy with the given level sizes (finest first) and
    /// default policies (`Digit` insert, `Full` migration, `Reject`
    /// overflow).
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is invalid (see [`LevelSizes::validate`]).
    #[must_use]
    pub fn new(sizes: LevelSizes) -> HierarchicalWheel<T> {
        HierarchicalWheel::build(
            sizes,
            InsertRule::default(),
            MigrationPolicy::default(),
            OverflowPolicy::default(),
        )
    }

    /// Shared constructor behind `new` and the validated
    /// [`WheelConfig`](crate::wheel::WheelConfig) path (which runs
    /// [`LevelSizes::try_validate`] before calling).
    pub(crate) fn build(
        sizes: LevelSizes,
        insert_rule: InsertRule,
        migration_policy: MigrationPolicy,
        overflow_policy: OverflowPolicy,
    ) -> HierarchicalWheel<T> {
        sizes.validate();
        let mut levels = Vec::with_capacity(sizes.0.len());
        let mut granularity = 1u64;
        let mut base = 0usize;
        for &size in &sizes.0 {
            let slots: Vec<SlotList> = (0..size).map(|_| SlotList::new()).collect();
            levels.push(Level {
                occupancy: SlotBitmap::new(slots.len()),
                slots,
                granularity,
                size,
                base,
            });
            base = base
                .checked_add(usize::try_from(size).expect("level size exceeds usize"))
                .expect("total slots exceed usize");
            assert!(
                base != OVERFLOW_BUCKET,
                "total slots collide with the overflow sentinel"
            );
            granularity = granularity.saturating_mul(size);
        }
        let range = sizes.range();
        HierarchicalWheel {
            levels,
            now: Tick::ZERO,
            range,
            arena: TimerArena::new(),
            overflow: ListHead::new(),
            overflow_policy,
            migration_policy,
            insert_rule,
            counters: OpCounters::new(),
            cost: VaxCostModel::PAPER,
        }
    }

    /// Number of levels in the hierarchy (the paper's `m`).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The largest interval accepted directly: one tick less than the
    /// product of the level sizes (the full product is indistinguishable
    /// from "now" in mixed-radix digits).
    #[must_use]
    pub fn max_interval(&self) -> TickDelta {
        TickDelta(self.range - 1)
    }

    /// Number of timers parked on the overflow list.
    #[must_use]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Slab slots ever allocated (memory high-water mark in records).
    #[must_use]
    pub fn arena_slots(&self) -> usize {
        self.arena.slot_count()
    }

    /// Returns which `(level, slot)` currently holds the timer, or `None`
    /// if the handle is stale or the timer is on the overflow list.
    #[must_use]
    pub fn locate(&self, handle: TimerHandle) -> Option<(usize, usize)> {
        let idx = self.arena.resolve(handle).ok()?;
        let bucket = self.arena.node(idx).bucket;
        if bucket == OVERFLOW_BUCKET {
            return None;
        }
        let level = self.level_of_bucket(bucket);
        Some((level, bucket - self.levels[level].base))
    }

    /// Number of timers in `slot` of `level` (test/experiment
    /// introspection).
    ///
    /// # Panics
    ///
    /// Panics if `level` or `slot` is out of range.
    #[must_use]
    pub fn level_slot_len(&self, level: usize, slot: usize) -> usize {
        self.levels[level].slots[slot].len()
    }

    fn level_of_bucket(&self, bucket: usize) -> usize {
        debug_assert!(bucket != OVERFLOW_BUCKET);
        // Level 0 has base 0, so every non-overflow tag matches at least
        // level 0.
        self.levels
            .iter()
            // tw-analyze: fact(loop_bounded, reason = "walks self.levels, whose length is the const level count fixed at construction; O(levels) by definition")
            .rposition(|l| l.base <= bucket)
            .unwrap_or(0)
    }

    /// Picks the insertion level for a timer whose (possibly rounded) firing
    /// target is `target`, per the configured [`InsertRule`].
    fn pick_level(&self, target: u64) -> usize {
        let now = self.now.as_u64();
        debug_assert!(target > now);
        match self.insert_rule {
            InsertRule::Digit => {
                // Highest level whose slot-period quotient changes between
                // now and the target — the paper's "which digit of the
                // expiry time differs" rule. The quotient is compared
                // unwrapped (no mod by the level size): a target a whole
                // revolution ahead must still select the coarser level.
                for (i, level) in self.levels.iter().enumerate().rev() {
                    if target / level.granularity != now / level.granularity {
                        return i;
                    }
                }
                // Level 0 has granularity 1, so target > now (asserted
                // above) always differs there; this fallthrough is exact.
                0
            }
            InsertRule::Covering => {
                let remaining = target - now;
                for (i, level) in self.levels.iter().enumerate() {
                    if remaining <= level.granularity.saturating_mul(level.size) {
                        return i;
                    }
                }
                // Rounding can push the target slightly past the top level's
                // range; top-level wrap-around placement still fires it (via
                // the early-visit path).
                self.levels.len() - 1
            }
        }
    }

    /// Links an allocated node into the wheel for firing target `target`
    /// (stored in `aux`; the `Single` policy's migration mark lives in
    /// `Node::flag`, so all 64 bits of the target survive).
    fn place(&mut self, idx: NodeIdx, target: u64) {
        let level = self.pick_level(target);
        let l = &self.levels[level];
        let slot = slot_index((target / l.granularity) % l.size);
        let bucket = l.base + slot;
        {
            let node = self.arena.node_mut(idx);
            node.aux = target;
            node.bucket = bucket;
        }
        self.levels[level].slots[slot].push_back(&mut self.arena, idx);
        let ops = self.levels[level].occupancy.set(slot);
        self.counters.charge_bitmap(ops);
    }

    /// Rounds `t` to the nearest multiple of `g` (ties round up) — the
    /// Nichols "round off to the nearest hour" step. Near `u64::MAX`, where
    /// the next multiple up is not representable, it rounds down.
    fn round_nearest(t: u64, g: u64) -> u64 {
        t.checked_add(g / 2).unwrap_or(t) / g * g
    }

    /// Fires a node that has been unlinked from its slot.
    fn fire(&mut self, idx: NodeIdx, expired: &mut dyn FnMut(Expired<T>)) {
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

    /// Processes the slot the cursor of `level` has just reached: fire what
    /// is due, migrate or re-park the rest.
    fn process_slot(&mut self, level: usize, expired: &mut dyn FnMut(Expired<T>)) {
        let now = self.now.as_u64();
        let l = &self.levels[level];
        let slot = slot_index((now / l.granularity) % l.size);
        self.counters.vax_instructions += self.cost.skip_empty;
        if self.levels[level].slots[slot].is_empty() {
            self.counters.empty_slot_skips += 1;
            return;
        }
        self.counters.nonempty_slot_visits += 1;
        // Detach the whole list first: re-insertion may target this very
        // slot (next-revolution parking) and must not be re-processed now.
        let mut detached = core::mem::take(&mut self.levels[level].slots[slot]);
        // The slot is empty while its detached list is processed; a re-park
        // into this very slot re-sets the bit through `place`.
        let ops = self.levels[level].occupancy.clear(slot);
        self.counters.charge_bitmap(ops);
        while let Some(idx) = detached.pop_front(&mut self.arena) {
            self.counters.decrements += 1;
            self.counters.vax_instructions += self.cost.decrement_step;
            let node = self.arena.node(idx);
            let (target, migrated) = (node.aux, node.flag);
            debug_assert!(target >= now, "scheme 7 missed a firing target");
            if target == now {
                self.fire(idx, expired);
                continue;
            }
            // Early visit: the target is in a later revolution of this
            // level, or (level > 0, Full policy) this is the scheduled
            // migration point.
            match self.migration_policy {
                MigrationPolicy::Full => {
                    self.counters.migrations += 1;
                    self.counters.vax_instructions += self.cost.insert;
                    self.place(idx, target);
                }
                MigrationPolicy::None => {
                    // Await the exact target revolution in place.
                    self.counters.migrations += 1;
                    self.counters.vax_instructions += self.cost.insert;
                    self.place(idx, target);
                }
                MigrationPolicy::Single => {
                    if migrated || level == 0 {
                        // Already migrated (or finest level): wait in place
                        // for the target revolution.
                        self.place(idx, target);
                    } else {
                        // One migration to the adjacent finer level, rounding
                        // the target to that level's granularity.
                        let g = self.levels[level - 1].granularity;
                        let rounded = Self::round_nearest(target, g).max(now + 1);
                        self.arena.node_mut(idx).flag = true;
                        self.counters.migrations += 1;
                        self.counters.vax_instructions += self.cost.insert;
                        self.place(idx, rounded);
                    }
                }
            }
        }
    }

    /// Re-examines the overflow list, admitting timers now within range.
    fn drain_overflow(&mut self) {
        let now = self.now.as_u64();
        let mut cur = self.overflow.first();
        // tw-analyze: fact(loop_bounded, reason = "walks the overflow list once per top-level revolution; the amortized section 6.2 cascade argument charges each resident one move per level, and the revolution period divides the walk across range ticks")
        while let Some(idx) = cur {
            cur = self.arena.next(idx);
            let target = self.arena.node(idx).aux;
            debug_assert!(target > now, "overflowed timer already due");
            if target - now < self.range {
                self.arena.unlink(&mut self.overflow, idx);
                self.counters.migrations += 1;
                self.counters.vax_instructions += self.cost.insert;
                self.place(idx, target);
            } else {
                self.counters.decrements += 1;
                self.counters.vax_instructions += self.cost.decrement_step;
            }
        }
    }

    /// Advances the clock by `k` ticks known to process only empty slots:
    /// no level's cursor crosses an occupied slot and no overflow
    /// re-examination boundary falls inside the window, so only the clock
    /// and the tick counter move.
    #[cfg(feature = "bitmap-cursor")]
    fn skip_empty_ticks(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        self.now = Tick(self.now.as_u64() + k);
        self.counters.ticks += k;
    }
}

impl<T> TimerScheme<T> for HierarchicalWheel<T> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let max = self.max_interval();
        let (interval, park) = if interval <= max {
            (interval, false)
        } else {
            match self.overflow_policy.apply(max)? {
                Some(clamped) => (clamped, false),
                None => (interval, true),
            }
        };
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let (idx, handle) = self.arena.alloc(payload, deadline)?;
        self.counters.starts += 1;
        self.counters.vax_instructions += self.cost.insert;
        if park {
            let node = self.arena.node_mut(idx);
            node.aux = deadline.as_u64();
            node.bucket = OVERFLOW_BUCKET;
            self.arena.push_back(&mut self.overflow, idx);
            return Ok(handle);
        }
        let target = match self.migration_policy {
            MigrationPolicy::Full | MigrationPolicy::Single => deadline.as_u64(),
            MigrationPolicy::None => {
                // Round to the insertion level's granularity up front; the
                // timer will fire without migrating (§6.2, Nichols).
                let level = self.pick_level(deadline.as_u64());
                let g = self.levels[level].granularity;
                Self::round_nearest(deadline.as_u64(), g).max(self.now.as_u64() + 1)
            }
        };
        self.place(idx, target);
        Ok(handle)
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let idx = self.arena.resolve(handle)?;
        let bucket = self.arena.node(idx).bucket;
        if bucket == OVERFLOW_BUCKET {
            self.arena.unlink(&mut self.overflow, idx);
        } else {
            let level = self.level_of_bucket(bucket);
            // tw-analyze: fact(slot_bounded, reason = "bucket tags are only written by the insert paths from modular placement, and level_of_bucket proves base <= bucket < base + size, so the difference is a valid in-level slot")
            let slot = bucket - self.levels[level].base;
            self.levels[level].slots[slot].unlink(&mut self.arena, idx);
            if self.levels[level].slots[slot].is_empty() {
                let ops = self.levels[level].occupancy.clear(slot);
                self.counters.charge_bitmap(ops);
            }
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
        let max = self.max_interval();
        let (interval, park) = if interval <= max {
            (interval, false)
        } else {
            match self.overflow_policy.apply(max)? {
                Some(clamped) => (clamped, false),
                None => (interval, true),
            }
        };
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let idx = self.arena.resolve(handle)?;
        // All validation passed — from here the restart cannot fail. Unlink
        // from the current home (any level, or the overflow list); the node
        // never touches the free list, so the client's handle (and its
        // generation) stay valid.
        let bucket = self.arena.node(idx).bucket;
        if bucket == OVERFLOW_BUCKET {
            self.arena.unlink(&mut self.overflow, idx);
        } else {
            let level = self.level_of_bucket(bucket);
            // tw-analyze: fact(slot_bounded, reason = "bucket tags are only written by the insert paths from modular placement, and level_of_bucket proves base <= bucket < base + size, so the difference is a valid in-level slot")
            let slot = bucket - self.levels[level].base;
            self.levels[level].slots[slot].unlink(&mut self.arena, idx);
            if self.levels[level].slots[slot].is_empty() {
                let ops = self.levels[level].occupancy.clear(slot);
                self.counters.charge_bitmap(ops);
            }
        }
        {
            // A restart behaves like a fresh start, so the one-migration
            // budget of `MigrationPolicy::Single` is granted anew.
            let node = self.arena.node_mut(idx);
            node.deadline = deadline;
            node.flag = false;
        }
        self.counters.restarts += 1;
        // Modeled as one §7 delete followed by one insert, matching the
        // unlink+relink the update actually performs.
        self.counters.vax_instructions += self.cost.delete + self.cost.insert;
        if park {
            let node = self.arena.node_mut(idx);
            node.aux = deadline.as_u64();
            node.bucket = OVERFLOW_BUCKET;
            self.arena.push_back(&mut self.overflow, idx);
            return Ok(());
        }
        let target = match self.migration_policy {
            MigrationPolicy::Full | MigrationPolicy::Single => deadline.as_u64(),
            MigrationPolicy::None => {
                let level = self.pick_level(deadline.as_u64());
                let g = self.levels[level].granularity;
                Self::round_nearest(deadline.as_u64(), g).max(self.now.as_u64() + 1)
            }
        };
        self.place(idx, target);
        Ok(())
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.now = self.now.next();
        self.counters.ticks += 1;
        let now = self.now.as_u64();
        // The finest level advances every tick; coarser levels advance when
        // the clock crosses a multiple of their granularity (the paper's
        // per-level update timers). Lower levels first, so migrations out of
        // a coarse slot land in fine slots that have already been flushed
        // this tick only when genuinely due later.
        self.process_slot(0, expired);
        for level in 1..self.levels.len() {
            if now % self.levels[level].granularity == 0 {
                self.process_slot(level, expired);
            }
        }
        if !self.overflow.is_empty()
            && self
                .levels
                .last()
                .is_some_and(|top| now % top.granularity == 0)
        {
            self.drain_overflow();
        }
    }

    #[cfg(feature = "bitmap-cursor")]
    fn advance_to_with(&mut self, deadline: Tick, expired: &mut dyn FnMut(Expired<T>)) {
        // tw-analyze: fact(loop_bounded, reason = "each iteration either does real per-tick work (an occupied slot on some level) or jumps a whole empty stretch via the per-level occupancy bitmaps; iterations are bounded by occupied-slot events, not elapsed ticks")
        while self.now < deadline {
            let now = self.now.as_u64();
            let remaining = deadline.since(self.now).as_u64();
            // Earliest tick (as a delta from `now`) at which any level's
            // cursor reaches an occupied slot. Every resident timer at a
            // level of granularity g satisfies target / g ≥ now / g + 1
            // (both insert rules and every re-park guarantee it), so the
            // visit that fires or migrates it is never behind the probe.
            let mut event = u64::MAX;
            let mut probes = 0u64;
            for l in &self.levels {
                let q = now / l.granularity;
                probes += 1;
                if let Some(dl) = l.occupancy.next_occupied_delta(slot_index(q % l.size)) {
                    if let Some(at) = q.checked_add(dl).and_then(|v| v.checked_mul(l.granularity)) {
                        event = event.min(at - now);
                    }
                }
            }
            self.counters.charge_bitmap(probes);
            if !self.overflow.is_empty() {
                // Overflow is re-examined whenever the clock crosses a
                // multiple of the coarsest granularity.
                let g = self.levels[self.levels.len() - 1].granularity;
                if let Some(at) = (now / g).checked_add(1).and_then(|v| v.checked_mul(g)) {
                    event = event.min(at - now);
                }
            }
            if event > remaining {
                self.skip_empty_ticks(remaining);
                return;
            }
            self.skip_empty_ticks(event - 1);
            self.tick(expired);
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
        match (self.insert_rule, self.migration_policy) {
            (InsertRule::Digit, MigrationPolicy::Full) => "scheme7(hier-digit)",
            (InsertRule::Digit, MigrationPolicy::None) => "scheme7(hier-digit-nomig)",
            (InsertRule::Digit, MigrationPolicy::Single) => "scheme7(hier-digit-1mig)",
            (InsertRule::Covering, MigrationPolicy::Full) => "scheme7(hier-covering)",
            (InsertRule::Covering, MigrationPolicy::None) => "scheme7(hier-covering-nomig)",
            (InsertRule::Covering, MigrationPolicy::Single) => "scheme7(hier-covering-1mig)",
        }
    }
}

impl<T> crate::validate::InvariantCheck for HierarchicalWheel<T> {
    /// Scheme 7 resting-state invariants: the granularity/base chain of the
    /// level geometry, per-level slot congruence
    /// (`slot = (target / granularity) mod size`), strictly-future firing
    /// targets, the migration flag only under `MigrationPolicy::Single`,
    /// `target == deadline` under full migration, intact lists with every
    /// slot node on the chain its index parity names, and node count equal
    /// to `outstanding`.
    fn check_invariants(&self) -> Result<(), crate::validate::InvariantViolation> {
        use crate::validate::InvariantViolation;
        let scheme = self.name();
        let fail = |detail: alloc::string::String| Err(InvariantViolation::new(scheme, detail));
        let now = self.now.as_u64();
        if let Err(detail) = self.arena.check_storage() {
            return fail(detail);
        }
        let mut granularity = 1u64;
        let mut base = 0usize;
        for (i, level) in self.levels.iter().enumerate() {
            if level.granularity != granularity || level.base != base {
                return fail(alloc::format!(
                    "level {i} geometry drift: granularity {} base {} \
                     (expected {granularity}/{base})",
                    level.granularity,
                    level.base
                ));
            }
            if level.size != ticks_of(level.slots.len()) {
                return fail(alloc::format!("level {i} size/slot-count mismatch"));
            }
            granularity = granularity.saturating_mul(level.size);
            base += level.slots.len();
        }
        let mut linked = 0usize;
        for (i, level) in self.levels.iter().enumerate() {
            for (slot, list) in level.slots.iter().enumerate() {
                let nodes = match self.arena.check_slot(list) {
                    Ok(nodes) => nodes,
                    Err(detail) => return fail(alloc::format!("level {i} slot {slot}: {detail}")),
                };
                linked += nodes.len();
                if !level.occupancy.agrees_with(slot, !nodes.is_empty()) {
                    return fail(alloc::format!(
                        "level {i} occupancy bitmap disagrees with slot {slot} \
                         (list len {} so expected occupied={})",
                        nodes.len(),
                        !nodes.is_empty()
                    ));
                }
                for idx in nodes {
                    let node = self.arena.node(idx);
                    let target = node.aux;
                    if node.flag && self.migration_policy != MigrationPolicy::Single {
                        return fail(alloc::format!(
                            "migration flag set under {:?}",
                            self.migration_policy
                        ));
                    }
                    if node.bucket != level.base + slot {
                        return fail(alloc::format!(
                            "node in level {i} slot {slot} tagged bucket {}",
                            node.bucket
                        ));
                    }
                    if target <= now {
                        return fail(alloc::format!(
                            "firing target {target} is not in the future (now {now})"
                        ));
                    }
                    if slot_index((target / level.granularity) % level.size) != slot {
                        return fail(alloc::format!(
                            "level {i} slot congruence: target {target} / {} mod {} != {slot}",
                            level.granularity,
                            level.size
                        ));
                    }
                    if self.migration_policy == MigrationPolicy::Full
                        && target != node.deadline.as_u64()
                    {
                        return fail(alloc::format!(
                            "full migration but target {target} != deadline {}",
                            node.deadline.as_u64()
                        ));
                    }
                }
            }
        }
        let overflow = match self.arena.check_list(&self.overflow) {
            Ok(nodes) => nodes,
            Err(detail) => return fail(alloc::format!("overflow list: {detail}")),
        };
        linked += overflow.len();
        for idx in overflow {
            let node = self.arena.node(idx);
            if node.bucket != OVERFLOW_BUCKET {
                return fail(alloc::format!(
                    "overflow node tagged bucket {} instead of the sentinel",
                    node.bucket
                ));
            }
            if node.aux != node.deadline.as_u64() {
                return fail(alloc::format!(
                    "overflow target {} != deadline {}",
                    node.aux,
                    node.deadline.as_u64()
                ));
            }
            if node.deadline.as_u64() <= now {
                return fail(alloc::format!(
                    "overflow-parked deadline {} is not in the future (now {now})",
                    node.deadline.as_u64()
                ));
            }
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
mod tests {
    use super::*;
    use crate::scheme::TimerSchemeExt;

    fn small() -> LevelSizes {
        LevelSizes(vec![8, 8, 8]) // range 512
    }

    #[test]
    fn fires_exactly_across_levels_digit_rule() {
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::new(small());
        for &j in &[1u64, 7, 8, 9, 63, 64, 65, 100, 511] {
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let fired = w.collect_ticks(511);
        let got: Vec<(u64, u64)> = fired
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        let want: Vec<(u64, u64)> = [1u64, 7, 8, 9, 63, 64, 65, 100, 511]
            .iter()
            .map(|&j| (j, j))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fires_exactly_across_levels_covering_rule() {
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            small(),
            InsertRule::Covering,
            MigrationPolicy::Full,
            OverflowPolicy::Reject,
        );
        for &j in &[1u64, 8, 9, 64, 65, 100, 300, 511] {
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let fired = w.collect_ticks(511);
        for e in &fired {
            assert_eq!(e.error(), 0);
            assert_eq!(e.fired_at.as_u64(), e.payload);
        }
        assert_eq!(fired.len(), 8);
    }

    #[test]
    fn fig10_fig11_worked_example() {
        // §6.2: current time 11 days 10:24:30; set a timer for 50 m 45 s.
        // Figure 10: it lands in the hour array, slot 11, holding the
        // remainder 15 m 15 s. Figure 11: when the hour hand reaches 11, the
        // remainder moves to minute slot 15; finally to second slot 15.
        let mut w: HierarchicalWheel<()> = HierarchicalWheel::new(LevelSizes::clock());
        let now = ((11 * 24 + 10) * 60 + 24) * 60 + 30; // 987_870
        w.run_ticks(now);
        let h = w.start_timer(TickDelta(50 * 60 + 45), ()).unwrap();
        // Levels: 0 = seconds, 1 = minutes, 2 = hours, 3 = days.
        assert_eq!(w.locate(h), Some((2, 11)), "Figure 10: hour array, slot 11");

        // Advance to 11:00:00 — the hour hand reaches 11 (Figure 11).
        let at_hour = (11 * 24 + 11) * 3600; // 990_000
        assert!(w.advance_to(Tick(at_hour)).is_empty());
        assert_eq!(
            w.locate(h),
            Some((1, 15)),
            "Figure 11: minute array, slot 15"
        );

        // Advance to 11:15:00 — remainder moves to the second array.
        assert!(w.advance_to(Tick(at_hour + 15 * 60)).is_empty());
        assert_eq!(w.locate(h), Some((0, 15)), "second array, slot 15");

        // 15 seconds later the timer actually expires.
        let fired = w.collect_ticks(15);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(990_915));
        assert_eq!(fired[0].error(), 0);
    }

    #[test]
    fn digit_rule_counts_migrations_bounded_by_levels() {
        let mut w: HierarchicalWheel<()> = HierarchicalWheel::new(small());
        w.start_timer(TickDelta(500), ()).unwrap(); // spans all 3 levels
        w.run_ticks(500);
        let c = w.counters();
        assert_eq!(c.expiries, 1);
        // At most m-1 = 2 migrations for a 3-level hierarchy.
        assert!(c.migrations <= 2, "migrations = {}", c.migrations);
    }

    #[test]
    fn covering_rule_skips_migrations_when_wraparound_suffices() {
        let mut wd: HierarchicalWheel<()> = HierarchicalWheel::new(small());
        let mut wc: HierarchicalWheel<()> = HierarchicalWheel::build(
            small(),
            InsertRule::Covering,
            MigrationPolicy::Full,
            OverflowPolicy::Reject,
        );
        // Move both clocks so digit boundaries sit just ahead.
        wd.run_ticks(7);
        wc.run_ticks(7);
        wd.start_timer(TickDelta(5), ()).unwrap();
        wc.start_timer(TickDelta(5), ()).unwrap();
        wd.run_ticks(5);
        wc.run_ticks(5);
        // Digit rule crosses the level-1 boundary (7+5=12, digit 1 differs) and
        // must migrate; covering rule goes straight to level 0.
        assert_eq!(wc.counters().migrations, 0);
        assert!(wd.counters().migrations >= 1);
        assert_eq!(wd.counters().expiries, 1);
        assert_eq!(wc.counters().expiries, 1);
    }

    #[test]
    fn no_migration_policy_error_bounded_by_half_granularity() {
        let sizes = LevelSizes(vec![16, 16]); // level 1 granularity 16
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            sizes,
            InsertRule::Digit,
            MigrationPolicy::None,
            OverflowPolicy::Reject,
        );
        for j in 17..200u64 {
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let fired = w.collect_ticks(400);
        assert_eq!(fired.len(), 183);
        for e in &fired {
            // Rounded to the nearest multiple of 16: |error| ≤ 8.
            assert!(
                e.error().abs() <= 8,
                "error {} for j={}",
                e.error(),
                e.payload
            );
        }
        // No migrations performed at all is the point of the policy — but
        // revolution-overshoot reparks may occur; firing without cascading
        // is what we verify via error bound + expiry count.
    }

    #[test]
    fn single_migration_policy_tightens_error() {
        let sizes = LevelSizes(vec![16, 16, 16]); // granularities 1, 16, 256
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            sizes.clone(),
            InsertRule::Digit,
            MigrationPolicy::Single,
            OverflowPolicy::Reject,
        );
        // Timers big enough to start at level 2 (digit differs at level 2).
        for k in 1..10u64 {
            let j = 256 * k + 37;
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let fired = w.collect_ticks(256 * 10 + 64);
        assert_eq!(fired.len(), 9);
        for e in &fired {
            // One migration to the 16-tick level: |error| ≤ 8, much tighter
            // than the 128-tick bound of never migrating from level 2.
            assert!(
                e.error().abs() <= 8,
                "error {} for j={}",
                e.error(),
                e.payload
            );
        }
    }

    #[test]
    fn overflow_policies() {
        let sizes = LevelSizes(vec![4, 4]); // range 16, max interval 15
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            sizes.clone(),
            InsertRule::Digit,
            MigrationPolicy::Full,
            OverflowPolicy::Reject,
        );
        assert_eq!(
            w.start_timer(TickDelta(16), 0),
            Err(TimerError::IntervalOutOfRange { max: TickDelta(15) })
        );

        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            sizes.clone(),
            InsertRule::Digit,
            MigrationPolicy::Full,
            OverflowPolicy::OverflowList,
        );
        w.start_timer(TickDelta(50), 50).unwrap();
        assert_eq!(w.overflow_len(), 1);
        let fired = w.collect_ticks(50);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(50));
        assert_eq!(fired[0].error(), 0);

        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            sizes,
            InsertRule::Digit,
            MigrationPolicy::Full,
            OverflowPolicy::Cap,
        );
        w.start_timer(TickDelta(50), 50).unwrap();
        let fired = w.collect_ticks(15);
        assert_eq!(fired.len(), 1, "capped timer fires at max interval");
    }

    #[test]
    fn stop_timer_at_any_level_and_overflow() {
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            small(),
            InsertRule::Digit,
            MigrationPolicy::Full,
            OverflowPolicy::OverflowList,
        );
        let h1 = w.start_timer(TickDelta(3), 1).unwrap(); // level 0
        let h2 = w.start_timer(TickDelta(60), 2).unwrap(); // level 1+
        let h3 = w.start_timer(TickDelta(400), 3).unwrap(); // level 2
        let h4 = w.start_timer(TickDelta(10_000), 4).unwrap(); // overflow
        assert_eq!(w.outstanding(), 4);
        assert_eq!(w.stop_timer(h2), Ok(2));
        assert_eq!(w.stop_timer(h4), Ok(4));
        assert_eq!(w.stop_timer(h1), Ok(1));
        assert_eq!(w.stop_timer(h3), Ok(3));
        assert_eq!(w.outstanding(), 0);
        assert!(w.collect_ticks(600).is_empty());
        assert_eq!(w.stop_timer(h1), Err(TimerError::Stale));
    }

    #[test]
    fn clock_hierarchy_spans_paper_range_cheaply() {
        let w: HierarchicalWheel<()> = HierarchicalWheel::new(LevelSizes::clock());
        assert_eq!(w.max_interval(), TickDelta(8_640_000 - 1));
        assert_eq!(w.level_count(), 4);
    }

    #[test]
    fn timer_exact_at_range_minus_one() {
        let sizes = LevelSizes(vec![4, 4, 4]); // range 64
        let mut w: HierarchicalWheel<()> = HierarchicalWheel::new(sizes);
        w.run_ticks(13); // misalign the clock
        w.start_timer(TickDelta(63), ()).unwrap();
        let fired = w.collect_ticks(63);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].error(), 0);
    }

    #[test]
    fn dense_random_intervals_all_fire_exactly() {
        // A cheap deterministic pseudo-random sweep (LCG) across the range.
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::new(small());
        let mut x = 12345u64;
        let mut expect = Vec::new();
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = x % 511 + 1;
            w.start_timer(TickDelta(j), j).unwrap();
            expect.push(j);
        }
        let fired = w.collect_ticks(512);
        assert_eq!(fired.len(), 200);
        for e in &fired {
            assert_eq!(e.error(), 0, "interval {}", e.payload);
        }
    }

    #[cfg(feature = "bitmap-cursor")]
    #[test]
    fn bitmap_advance_matches_per_tick_loop_across_levels() {
        let make = || {
            let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
                small(),
                InsertRule::Digit,
                MigrationPolicy::Full,
                OverflowPolicy::OverflowList,
            );
            // Spread across all three levels plus the overflow list
            // (range 512, so 700 parks and is admitted at a 64-boundary).
            for &j in &[3u64, 64, 65, 300, 511, 700] {
                w.start_timer(TickDelta(j), j).unwrap();
            }
            w
        };
        let mut fast = make();
        let mut slow = make();
        let mut got = Vec::new();
        fast.advance_to_with(Tick(800), &mut |e| {
            got.push((e.payload, e.fired_at.as_u64()))
        });
        let want: Vec<(u64, u64)> = slow
            .collect_ticks(800)
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        assert_eq!(got, want, "fast path must reproduce the per-tick trace");
        assert_eq!(fast.now(), Tick(800));
        assert_eq!(fast.outstanding(), 0);
        crate::validate::InvariantCheck::check_invariants(&fast).unwrap();
    }

    #[cfg(feature = "bitmap-cursor")]
    #[test]
    fn bitmap_advance_skips_empty_hierarchy_ticks() {
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::new(small());
        w.start_timer(TickDelta(500), 500).unwrap();
        let fired = w.advance_to(Tick(500));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].error(), 0);
        let c = w.counters();
        assert_eq!(c.ticks, 500, "virtual time must still cover every tick");
        // Only three real ticks run: the level-2 visit at 448 (migration),
        // the level-1 visit at 496 (migration), and the firing tick at 500.
        // The tick at 448 also processes the empty level-0 and level-1 slots
        // (2 skips) and the tick at 496 the empty level-0 slot (1 skip) —
        // everything else is jumped over by the bitmap cursor.
        assert_eq!(c.empty_slot_skips, 3);
        assert_eq!(c.nonempty_slot_visits, 3);
        assert_eq!(c.migrations, 2);
        assert!(c.bitmap_ops > 0);
        crate::validate::InvariantCheck::check_invariants(&w).unwrap();
    }

    #[test]
    fn zero_interval_rejected() {
        let mut w: HierarchicalWheel<()> = HierarchicalWheel::new(small());
        assert_eq!(
            w.start_timer(TickDelta::ZERO, ()),
            Err(TimerError::ZeroInterval)
        );
    }

    #[test]
    fn restart_rearms_across_levels_with_the_same_handle() {
        let mut w: HierarchicalWheel<&str> = HierarchicalWheel::new(small());
        // Starts at level 0, restarted into level 2 territory.
        let h = w.start_timer(TickDelta(3), "x").unwrap();
        w.restart_timer(h, TickDelta(400)).unwrap();
        assert!(w.collect_ticks(3).is_empty());
        let fired = w.collect_ticks(397);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(400));
        assert_eq!(fired[0].handle, h);
        assert_eq!(fired[0].error(), 0);
        assert_eq!(w.counters().restarts, 1);
        crate::validate::InvariantCheck::check_invariants(&w).unwrap();
    }

    #[test]
    fn restart_moves_between_levels_and_overflow() {
        let mut w: HierarchicalWheel<u32> = HierarchicalWheel::build(
            small(),
            InsertRule::Digit,
            MigrationPolicy::Full,
            OverflowPolicy::OverflowList,
        );
        let h = w.start_timer(TickDelta(2), 7).unwrap();
        // In-range → overflow-parked (range is 512).
        w.restart_timer(h, TickDelta(10_000)).unwrap();
        assert_eq!(w.overflow_len(), 1);
        crate::validate::InvariantCheck::check_invariants(&w).unwrap();
        // Overflow-parked → back in range, pulled earlier.
        w.restart_timer(h, TickDelta(5)).unwrap();
        assert_eq!(w.overflow_len(), 0);
        let fired = w.collect_ticks(5);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(5));
        crate::validate::InvariantCheck::check_invariants(&w).unwrap();
    }

    #[test]
    fn restart_grants_a_fresh_single_migration_budget() {
        let sizes = LevelSizes(vec![16, 16, 16]);
        let mut w: HierarchicalWheel<u64> = HierarchicalWheel::build(
            sizes,
            InsertRule::Digit,
            MigrationPolicy::Single,
            OverflowPolicy::Reject,
        );
        let j = 256 * 3 + 37;
        let h = w.start_timer(TickDelta(j), j).unwrap();
        // Let the timer take its one allowed migration, then restart it:
        // the budget resets, so the rounding error stays within the
        // one-migration bound (|error| ≤ 8 for a 16-tick middle level).
        w.advance_to(Tick(512));
        w.restart_timer(h, TickDelta(256 * 2 + 37)).unwrap();
        crate::validate::InvariantCheck::check_invariants(&w).unwrap();
        let fired = w.advance_to(Tick(512 + 256 * 3));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].error().abs() <= 8, "error {}", fired[0].error());
    }

    #[test]
    fn failed_restart_leaves_the_timer_armed() {
        let mut w: HierarchicalWheel<()> = HierarchicalWheel::new(small());
        let h = w.start_timer(TickDelta(4), ()).unwrap();
        assert_eq!(
            w.restart_timer(h, TickDelta::ZERO),
            Err(TimerError::ZeroInterval)
        );
        assert_eq!(
            w.restart_timer(h, TickDelta(512)),
            Err(TimerError::IntervalOutOfRange {
                max: TickDelta(511)
            })
        );
        crate::validate::InvariantCheck::check_invariants(&w).unwrap();
        let fired = w.collect_ticks(4);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(4));
        assert_eq!(w.restart_timer(h, TickDelta(1)), Err(TimerError::Stale));
    }
}
