//! Arena-resident waker slots: the rendezvous between a polled sleep
//! future and the driver's expiry delivery.
//!
//! Every pending sleep owns exactly one generational slot in a
//! [`TimerArena`] — the same slab the wheels store their timer records in —
//! holding the task [`Waker`](std::task::Waker) to invoke when the timer
//! fires. The slot's [`TimerHandle`] (index + generation) packs losslessly
//! into the u64 [`RequestId`] the wheel carries as the paper's
//! `Request_ID`, so an [`Expired`](tw_core::Expired) record coming back
//! from the driver's `advance` routes straight to its waker with one
//! generation check and zero allocation:
//!
//! * **register** (every poll of an armed sleep) — resolve the slot,
//!   replace the stored waker in place (`will_wake` skips even the clone
//!   when the task hasn't moved). No allocation: the slot already exists.
//! * **fire** (driver delivery) — resolve the slot, free it (one generation
//!   bump makes every outstanding reference stale), and hand the waker
//!   back to be invoked *outside* the table lock.
//! * **cancel** (future dropped) — free the slot without waking.
//!
//! The generation check is what makes the three-way race safe: whichever
//! of fire/cancel/reset frees the slot first wins, and the others observe
//! `Stale` instead of touching a recycled slot (the arena's ABA guard).
//! Steady-state churn recycles the arena's free list, so the
//! [`slot_count`](WakerTable::slot_count) plateaus, same as the wheels';
//! `tests/alloc.rs` counts the allocations themselves.
//!
//! The table is generic over the waker type so the loom model suite can
//! drive the exact shipped protocol with an instrumented token in place of
//! a real task waker; `WakerTable<Waker>` adds the `will_wake`-aware
//! [`register_waker`](WakerTable::register_waker) fast path.

use tw_concurrent::sync::Mutex;
use tw_core::arena::TimerArena;
use tw_core::{RequestId, Tick, TickDelta, TimerError, TimerHandle};

/// Low 32 bits of a packed [`RequestId`].
const LOW32: u64 = 0xFFFF_FFFF;

/// Packs a slot handle into the wheel-facing `Request_ID`: generation in
/// the high half, slab index in the low half.
#[must_use]
pub fn slot_to_request(slot: TimerHandle) -> RequestId {
    let (index, generation) = slot.into_raw();
    RequestId((u64::from(generation) << 32) | u64::from(index))
}

/// Recovers the slot handle from a packed `Request_ID`.
///
/// A forged id is harmless: the handle is validated against the arena's
/// generation counter and resolves to `Stale` rather than a live slot.
#[must_use]
pub fn request_to_slot(id: RequestId) -> TimerHandle {
    // Both halves are masked/shifted into 32-bit range, so the try_from
    // never fails; the fallback maps to the arena's NIL index, which can
    // never resolve.
    let index = u32::try_from(id.0 & LOW32).unwrap_or(u32::MAX);
    let generation = u32::try_from(id.0 >> 32).unwrap_or(u32::MAX);
    TimerHandle::from_raw(index, generation)
}

/// Outcome of re-registering a waker on a sleep's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// The slot is live and now stores the caller's waker; the driver will
    /// invoke it on fire.
    Registered,
    /// The slot was already freed — the timer fired (or the slot was
    /// cancelled), so the future should complete instead of parking.
    Stale,
}

/// The waker table: one generational arena slot per pending sleep, shared
/// between the polling tasks and the driver's expiry delivery under one
/// mutex.
///
/// Slots store `Option<W>` (a just-allocated slot may not have its waker
/// yet) plus the armed interval, which the driver uses to reconstruct the
/// poll→fire latency at wake time without a second clock read.
pub struct WakerTable<W> {
    arena: Mutex<TimerArena<Option<W>>>,
}

impl<W> WakerTable<W> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> WakerTable<W> {
        WakerTable {
            arena: Mutex::new(TimerArena::new()),
        }
    }

    /// Caps the number of live slots; at the cap, [`alloc`](Self::alloc)
    /// reports [`TimerError::Exhausted`] and the driver parks the sleep
    /// until a fire or cancel frees capacity.
    pub fn set_capacity(&self, limit: usize) {
        self.arena.lock().set_capacity_limit(limit);
    }

    /// Allocates a slot for a sleep armed with `interval`, storing `waker`
    /// so a fire that races the caller's bookkeeping still wakes the task.
    ///
    /// # Errors
    ///
    /// [`TimerError::Exhausted`] at the capacity limit — the recoverable
    /// backpressure signal, not a failure.
    pub fn alloc(&self, interval: TickDelta, waker: W) -> Result<TimerHandle, TimerError> {
        let mut arena = self.arena.lock();
        let (idx, handle) = arena.alloc(Some(waker), Tick::ZERO)?;
        arena.node_mut(idx).aux = interval.as_u64();
        Ok(handle)
    }

    /// Stores `waker` in a live slot, replacing the previous one.
    /// Generic registration path used by the model suite; task code goes
    /// through [`register_waker`](Self::register_waker).
    pub fn register(&self, slot: TimerHandle, waker: W) -> RegisterOutcome {
        let mut arena = self.arena.lock();
        match arena.resolve(slot) {
            Ok(idx) => {
                arena.node_mut(idx).payload = Some(waker);
                RegisterOutcome::Registered
            }
            Err(_) => RegisterOutcome::Stale,
        }
    }

    /// Frees a fired slot, returning the stored waker (to invoke after the
    /// lock is released) and the armed interval. `None` means the slot was
    /// already freed — the sleep was dropped or reset while the expiry was
    /// in flight, and nothing must be woken.
    pub fn take_for_fire(&self, slot: TimerHandle) -> Option<(Option<W>, TickDelta)> {
        let mut arena = self.arena.lock();
        let idx = arena.resolve(slot).ok()?;
        let interval = TickDelta(arena.node(idx).aux);
        Some((arena.free(idx), interval))
    }

    /// Frees a slot without waking (the drop path). Returns whether the
    /// slot was still live — `true` means capacity was freed and any
    /// exhaustion-parked sleeps should be woken to retry.
    pub fn cancel(&self, slot: TimerHandle) -> bool {
        let mut arena = self.arena.lock();
        match arena.resolve(slot) {
            Ok(idx) => {
                arena.free(idx);
                true
            }
            Err(_) => false,
        }
    }

    /// Updates the armed interval recorded in a live slot (the reset
    /// path, after a successful `restart_timer`).
    pub fn set_interval(&self, slot: TimerHandle, interval: TickDelta) -> bool {
        let mut arena = self.arena.lock();
        match arena.resolve(slot) {
            Ok(idx) => {
                arena.node_mut(idx).aux = interval.as_u64();
                true
            }
            Err(_) => false,
        }
    }

    /// Live (pending-sleep) slots.
    #[must_use]
    pub fn live(&self) -> usize {
        self.arena.lock().len()
    }

    /// Slab slots ever allocated — the memory high-water mark. Steady-state
    /// churn must plateau here (see
    /// [`TimerArena::slot_count`](tw_core::arena::TimerArena::slot_count)).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.arena.lock().slot_count()
    }
}

impl<W> Default for WakerTable<W> {
    fn default() -> Self {
        WakerTable::new()
    }
}

impl WakerTable<std::task::Waker> {
    /// The poll-time fast path: re-registers the current task's waker in a
    /// live slot, cloning only when the stored waker would not wake this
    /// task (`will_wake`). On the steady re-poll of an armed sleep this is
    /// one lock, one generation check, and no refcount traffic.
    pub fn register_waker(&self, slot: TimerHandle, waker: &std::task::Waker) -> RegisterOutcome {
        let mut arena = self.arena.lock();
        match arena.resolve(slot) {
            Ok(idx) => {
                let cell = &mut arena.node_mut(idx).payload;
                match cell {
                    Some(stored) if stored.will_wake(waker) => {}
                    _ => *cell = Some(waker.clone()),
                }
                RegisterOutcome::Registered
            }
            Err(_) => RegisterOutcome::Stale,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_and_forged_ids_stay_stale() {
        let slot = TimerHandle::from_raw(1234, 77);
        assert_eq!(request_to_slot(slot_to_request(slot)), slot);
        let table: WakerTable<u32> = WakerTable::new();
        let h = table.alloc(TickDelta(5), 9).unwrap();
        // A forged id with the wrong generation must not reach the slot.
        let (index, generation) = h.into_raw();
        let forged = TimerHandle::from_raw(index, generation.wrapping_add(1));
        assert_eq!(table.register(forged, 0), RegisterOutcome::Stale);
        assert_eq!(table.take_for_fire(forged), None);
    }

    #[test]
    fn fire_cancel_and_reregister_protocol() {
        let table: WakerTable<u32> = WakerTable::new();
        let a = table.alloc(TickDelta(3), 1).unwrap();
        let b = table.alloc(TickDelta(9), 2).unwrap();
        assert_eq!(table.live(), 2);
        // Re-register replaces in place.
        assert_eq!(table.register(a, 10), RegisterOutcome::Registered);
        // Fire takes the newest waker and the armed interval, then the
        // slot is stale for everyone else.
        assert_eq!(table.take_for_fire(a), Some((Some(10), TickDelta(3))));
        assert_eq!(table.take_for_fire(a), None);
        assert!(!table.cancel(a));
        assert_eq!(table.register(a, 11), RegisterOutcome::Stale);
        // Cancel frees without delivering.
        assert!(table.cancel(b));
        assert_eq!(table.take_for_fire(b), None);
        assert_eq!(table.live(), 0);
    }

    #[test]
    fn capacity_exhaustion_recovers_after_free() {
        let table: WakerTable<u32> = WakerTable::new();
        table.set_capacity(2);
        let a = table.alloc(TickDelta(1), 1).unwrap();
        let _b = table.alloc(TickDelta(1), 2).unwrap();
        assert_eq!(
            table.alloc(TickDelta(1), 3).unwrap_err(),
            TimerError::Exhausted
        );
        assert!(table.cancel(a));
        let c = table.alloc(TickDelta(1), 3).unwrap();
        assert_eq!(table.take_for_fire(c), Some((Some(3), TickDelta(1))));
    }

    #[test]
    fn slot_count_plateaus_under_churn() {
        let table: WakerTable<u32> = WakerTable::new();
        for round in 0..100u32 {
            let h = table.alloc(TickDelta(1), round).unwrap();
            assert_eq!(table.take_for_fire(h), Some((Some(round), TickDelta(1))));
        }
        assert_eq!(table.slot_count(), 1, "free-list recycling, no growth");
    }
}
